#include "net/server.h"

#include <filesystem>

#include "lang/manifest.h"
#include "util/error.h"
#include "util/io.h"

namespace psv::net {

namespace {

/// Manifest-relative path resolution (absolute paths pass through) — same
/// rule as psv_verify --batch.
std::string resolve(const std::string& base_dir, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.is_absolute() || base_dir.empty()) return path;
  return (std::filesystem::path(base_dir) / p).string();
}

/// Exploration / cache work of one served report, for the server counters.
struct ReportWork {
  std::uint64_t explorations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t states_reused = 0;  ///< ancestor states warm-start seeding saved
};

ReportWork tally(const core::VerifyReport& report) {
  ReportWork work;
  const auto add = [&work](const std::vector<core::VerifyStageStats>& stages) {
    for (const core::VerifyStageStats& stage : stages) {
      work.explorations += static_cast<std::uint64_t>(stage.explorations);
      work.cache_hits += static_cast<std::uint64_t>(stage.cache.hits);
      work.cache_misses += static_cast<std::uint64_t>(stage.cache.misses);
      work.states_reused += static_cast<std::uint64_t>(stage.explore.warm_states_reused);
    }
  };
  add(report.pim_stages);
  for (const core::SchemeVerification& scheme : report.schemes) add(scheme.stages);
  return work;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      verifier_(core::Verifier::Config{config_.cache_dir, config_.max_sessions}) {}

Server::~Server() { stop(); }

void Server::log(const std::string& line) const {
  if (config_.log) config_.log(line);
}

void Server::start() {
  listener_ = std::make_unique<Listener>(config_.host, config_.port);
  bound_port_ = listener_->port();
  log("listening on " + config_.host + ":" + std::to_string(bound_port_));
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (!config_.prewarm_manifest.empty())
    prewarm_thread_ = std::thread([this] { run_prewarm(); });
}

std::uint16_t Server::port() const { return bound_port_; }

void Server::accept_loop() {
  for (;;) {
    std::optional<Socket> sock;
    try {
      sock = listener_->accept();
    } catch (const std::exception& e) {
      log(std::string("accept failed: ") + e.what());
      continue;
    }
    if (!sock) return;  // interrupted: shutting down
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(*sock);
    connections_accepted_.fetch_add(1);
    connections_active_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    connections_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  bool handshaken = false;
  try {
    for (;;) {
      std::optional<Frame> frame = read_frame(conn->sock);
      if (!frame) break;  // clean end-of-requests (client done, or drain)
      if (!handshaken) {
        PSV_REQUIRE_AS(ErrorCode::kProtocol, frame->type == FrameType::kHello,
                       std::string("expected hello frame, got ") +
                           frame_type_name(frame->type));
        ByteReader in(frame->payload);
        const std::uint16_t client_max = in.u16();
        PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(),
                       "trailing bytes after hello payload");
        PSV_REQUIRE_AS(ErrorCode::kProtocol, client_max >= kMinSupportedVersion,
                       "client speaks protocol version " + std::to_string(client_max) +
                           " at most; this server requires at least " +
                           std::to_string(kMinSupportedVersion));
        ByteWriter out;
        out.u16(kProtocolVersion);
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->sock, FrameType::kHelloAck, frame->request_id, out.buffer());
        handshaken = true;
        continue;
      }
      switch (frame->type) {
        case FrameType::kVerify:
          handle_verify(conn, std::move(*frame));
          break;
        case FrameType::kSynth:
          handle_synth(conn, std::move(*frame));
          break;
        case FrameType::kStats: {
          ByteWriter out;
          encode_server_stats(out, stats());
          std::lock_guard<std::mutex> lock(conn->write_mu);
          write_frame(conn->sock, FrameType::kStatsReport, frame->request_id, out.buffer());
          break;
        }
        default:
          PSV_FAIL_AS(ErrorCode::kProtocol,
                      std::string("unexpected ") + frame_type_name(frame->type) +
                          " frame from client");
      }
    }
  } catch (const Error& e) {
    send_error(conn, 0, e.code(), e.what());
    log(std::string("connection error: ") + e.what());
  } catch (const std::exception& e) {
    send_error(conn, 0, ErrorCode::kInternal, e.what());
    log(std::string("connection error: ") + e.what());
  }
  connections_active_.fetch_sub(1);
  // Let the last in-flight worker signal end-of-responses; when none is
  // pending, this reader is that last party.
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->reader_done = true;
    close_now = conn->pending == 0;
  }
  if (close_now) conn->sock.shutdown_write();
}

void Server::send_error(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                        ErrorCode code, const std::string& message) {
  try {
    ByteWriter out;
    encode_wire_error(out, WireError{code, message});
    std::lock_guard<std::mutex> lock(conn->write_mu);
    write_frame(conn->sock, FrameType::kError, request_id, out.buffer());
  } catch (const std::exception&) {
    // The peer is gone; nothing to report the error to.
  }
}

void Server::handle_verify(const std::shared_ptr<Connection>& conn, Frame frame) {
  requests_received_.fetch_add(1);
  if (frame.request_id == 0) {
    requests_error_.fetch_add(1);
    send_error(conn, 0, ErrorCode::kProtocol, "verify frame with request id 0");
    return;
  }
  // Admission control: reject immediately when the in-flight cap is hit —
  // a typed, retryable failure instead of unbounded queueing.
  const std::uint64_t in_flight = requests_in_flight_.fetch_add(1) + 1;
  if (config_.max_inflight > 0 && in_flight > config_.max_inflight) {
    requests_in_flight_.fetch_sub(1);
    requests_busy_.fetch_add(1);
    send_error(conn, frame.request_id, ErrorCode::kBusy,
               "server busy: " + std::to_string(config_.max_inflight) +
                   " requests already in flight");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    ++conn->pending;
  }
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    ++active_workers_;
  }
  std::thread([this, conn, frame = std::move(frame)]() mutable {
    if (config_.test_request_hook) config_.test_request_hook(frame.request_id);
    try {
      ByteReader in(frame.payload);
      const core::SourceRequest source = core::decode_source_request(in);
      const core::VerifyRequest request = core::to_verify_request(source);
      const core::VerifyReport report = verifier_.verify(request);
      const ReportWork work = tally(report);
      explorations_total_.fetch_add(work.explorations);
      cache_hits_total_.fetch_add(work.cache_hits);
      cache_misses_total_.fetch_add(work.cache_misses);
      if (work.states_reused > 0) warm_starts_.fetch_add(1);
      states_reused_total_.fetch_add(work.states_reused);
      ByteWriter out;
      core::encode_verify_report(out, report);
      // Count before writing: a client that reads this response and
      // immediately probes kStats must see the request as completed.
      requests_ok_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->sock, FrameType::kReport, frame.request_id, out.buffer());
      }
    } catch (const Error& e) {
      requests_error_.fetch_add(1);
      send_error(conn, frame.request_id, e.code(), e.what());
    } catch (const std::exception& e) {
      requests_error_.fetch_add(1);
      send_error(conn, frame.request_id, ErrorCode::kInternal, e.what());
    }
    requests_in_flight_.fetch_sub(1);
    bool close_now = false;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      close_now = --conn->pending == 0 && conn->reader_done;
    }
    if (close_now) conn->sock.shutdown_write();
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      --active_workers_;
    }
    workers_cv_.notify_all();
  }).detach();
}

void Server::handle_synth(const std::shared_ptr<Connection>& conn, Frame frame) {
  requests_received_.fetch_add(1);
  if (frame.request_id == 0) {
    requests_error_.fetch_add(1);
    send_error(conn, 0, ErrorCode::kProtocol, "synth frame with request id 0");
    return;
  }
  // Synthesis shares the verify admission cap: one kSynth job occupies one
  // in-flight slot however many candidates it fans out over internally.
  const std::uint64_t in_flight = requests_in_flight_.fetch_add(1) + 1;
  if (config_.max_inflight > 0 && in_flight > config_.max_inflight) {
    requests_in_flight_.fetch_sub(1);
    requests_busy_.fetch_add(1);
    send_error(conn, frame.request_id, ErrorCode::kBusy,
               "server busy: " + std::to_string(config_.max_inflight) +
                   " requests already in flight");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    ++conn->pending;
  }
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    ++active_workers_;
  }
  std::thread([this, conn, frame = std::move(frame)]() mutable {
    if (config_.test_request_hook) config_.test_request_hook(frame.request_id);
    try {
      ByteReader in(frame.payload);
      const core::SourceSynthRequest source = core::decode_source_synth_request(in);
      const core::SynthRequest request = core::to_synth_request(source);
      core::SchemeSynthesizer synthesizer(verifier_);
      const core::SynthReport report = synthesizer.run(request);
      synth_requests_.fetch_add(1);
      synth_candidates_.fetch_add(report.stats.candidates_total);
      synth_pruned_.fetch_add(report.stats.pruned_analytic + report.stats.pruned_dominated);
      synth_explored_.fetch_add(report.stats.explored_cold + report.stats.explored_warm);
      synth_fresh_states_.fetch_add(report.stats.fresh_states);
      if (report.stats.warm_states_reused > 0) warm_starts_.fetch_add(1);
      states_reused_total_.fetch_add(report.stats.warm_states_reused);
      ByteWriter out;
      core::encode_synth_report(out, report);
      requests_ok_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->sock, FrameType::kSynthReport, frame.request_id, out.buffer());
      }
    } catch (const Error& e) {
      requests_error_.fetch_add(1);
      send_error(conn, frame.request_id, e.code(), e.what());
    } catch (const std::exception& e) {
      requests_error_.fetch_add(1);
      send_error(conn, frame.request_id, ErrorCode::kInternal, e.what());
    }
    requests_in_flight_.fetch_sub(1);
    bool close_now = false;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      close_now = --conn->pending == 0 && conn->reader_done;
    }
    if (close_now) conn->sock.shutdown_write();
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      --active_workers_;
    }
    workers_cv_.notify_all();
  }).detach();
}

void Server::run_prewarm() {
  try {
    const std::string base_dir =
        std::filesystem::path(config_.prewarm_manifest).parent_path().string();
    const std::vector<lang::ManifestJob> jobs =
        lang::parse_manifest(util::read_file(config_.prewarm_manifest));
    for (const lang::ManifestJob& job : jobs) {
      if (stopping_.load()) return;
      try {
        core::SourceRequest source;
        source.model_source = util::read_file(resolve(base_dir, job.model_path));
        for (const std::string& scheme_path : job.scheme_paths)
          source.scheme_sources.push_back(util::read_file(resolve(base_dir, scheme_path)));
        source.requirements = job.requirements;
        verifier_.verify(core::to_verify_request(source));
        prewarm_jobs_.fetch_add(1);
        log("prewarmed job '" + job.name + "'");
      } catch (const std::exception& e) {
        prewarm_failures_.fetch_add(1);
        log("prewarm job '" + job.name + "' failed: " + e.what());
      }
    }
    log("prewarm done: " + std::to_string(prewarm_jobs_.load()) + " job(s)");
  } catch (const std::exception& e) {
    prewarm_failures_.fetch_add(1);
    log(std::string("prewarm failed: ") + e.what());
  }
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. destructor after an explicit stop): wait for the
    // first drain to finish by joining on the same state below — but the
    // threads are already joined, so just return.
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (listener_) listener_->interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Close the listening socket so new connection attempts are refused
  // instead of parking in the kernel backlog with nobody accepting.
  listener_.reset();
  // Close every connection's read side: readers observe clean end-of-stream
  // and exit; in-flight workers still write their responses.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (const auto& conn : conns) conn->sock.shutdown_read();
  {
    std::unique_lock<std::mutex> lock(workers_mu_);
    workers_cv_.wait(lock, [this] { return active_workers_ == 0; });
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    readers.swap(reader_threads_);
    connections_.clear();
  }
  for (std::thread& t : readers)
    if (t.joinable()) t.join();
  if (prewarm_thread_.joinable()) prewarm_thread_.join();
  log("drained");
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_active = connections_active_.load();
  stats.requests_received = requests_received_.load();
  stats.requests_ok = requests_ok_.load();
  stats.requests_error = requests_error_.load();
  stats.requests_busy = requests_busy_.load();
  stats.requests_in_flight = requests_in_flight_.load();
  stats.sessions_pooled = verifier_.pooled_sessions();
  stats.prewarm_jobs = prewarm_jobs_.load();
  stats.prewarm_failures = prewarm_failures_.load();
  stats.explorations_total = explorations_total_.load();
  stats.cache_hits_total = cache_hits_total_.load();
  stats.cache_misses_total = cache_misses_total_.load();
  stats.warm_starts = warm_starts_.load();
  stats.states_reused = states_reused_total_.load();
  stats.synth_requests = synth_requests_.load();
  stats.synth_candidates = synth_candidates_.load();
  stats.synth_pruned = synth_pruned_.load();
  stats.synth_explored = synth_explored_.load();
  stats.synth_fresh_states = synth_fresh_states_.load();
  return stats;
}

}  // namespace psv::net
