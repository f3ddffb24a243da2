// psvbench — the benchmark's driver process (run.py starts it).
//
//   psvbench load --plan P --port N --conns C --seconds S [--setup-reps R]
//                 [--threads T] --out FILE
//       Build the plan's in-process references R times and send every
//       distinct plan request once, untimed (set-up), then drive a closed
//       loop of C net::Client connections against psv_serve for S seconds,
//       checking every reply. Writes latencies, failures, set-up times and
//       the server's counters as JSON.
//
//   psvbench replay --mode cold|cache --model M --scheme S [--edit-scheme E]
//                   --req TEXT... --jobs N [--cache-dir D] [--overhead-reps R]
//                   --out TRACE
//       Traced replay of the psv_verify phases in one process: cold at one
//       and at N jobs, or the cache lifecycle (cache-cold, warm repeat,
//       one-constant edit) on a fresh cache directory. With R > 0 the
//       phases are then replayed R times with recording off and R times
//       with it on, for the tracing overhead.
//
//   psvbench daemon-trace --plan P --port N --sample K --cache-dir D
//                         [--threads T] [--overhead-reps R] --out TRACE
//       Replay the first K plan requests over the wire with client-side
//       spans, then in-process through core::Verifier and through the
//       traced pipeline, which must agree on every answer and on every
//       stage's exploration and cache counters. With R > 0 the sample's
//       verify requests are then replayed R times with recording off and R
//       times with it on, for the tracing overhead.
//
// Traces are Chrome trace-event JSON; run.py derives the per-layer metrics
// from them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/synth.h"
#include "net/client.h"
#include "net/wire.h"
#include "pipeline.h"
#include "plan.h"
#include "trace.h"
#include "util/error.h"
#include "util/io.h"
#include "util/json.h"

namespace {

using namespace psv;
using namespace psvbench;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// "--flag value" pairs; a flag may repeat.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      PSV_REQUIRE_AS(ErrorCode::kParse, flag.rfind("--", 0) == 0 && i + 1 < argc,
                     "expected '--flag value', got '" + flag + "'");
      values_[flag].push_back(argv[++i]);
    }
  }
  std::string get(const std::string& flag, const std::string& fallback = "") const {
    const auto it = values_.find(flag);
    if (it != values_.end()) return it->second.back();
    PSV_REQUIRE_AS(ErrorCode::kParse, !fallback.empty(), "missing " + flag);
    return fallback;
  }
  long num(const std::string& flag, const std::string& fallback = "") const {
    return std::stol(get(flag, fallback));
  }
  std::vector<std::string> all(const std::string& flag) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// The tracing overhead of `pass`, a replay that takes a recording switch
/// and returns its wall time in ms: `reps` passes with recording off and
/// `reps` with it on, in this process, alternating which goes first; the
/// fastest on pass minus the fastest off pass. (The fastest, not the median:
/// the host's speed switches between levels for seconds at a time, which
/// moves a median of a few passes by more than the spans cost.)
template <class Pass>
double tracing_overhead_ms(long reps, Pass&& pass) {
  if (reps <= 0) return 0;
  std::vector<double> off, on;
  for (long r = 0; r < reps; ++r) {
    const bool on_first = r % 2 == 1;
    for (const bool recording : {on_first, !on_first})
      (recording ? on : off).push_back(pass(recording));
  }
  return *std::min_element(on.begin(), on.end()) - *std::min_element(off.begin(), off.end());
}

void write_doubles(json::Writer& w, const std::string& key, const std::vector<double>& values) {
  w.key(key);
  w.begin_array();
  for (double v : values) w.value(v);
  w.end_array();
}

void write_server_stats(json::Writer& w, const net::ServerStats& s) {
  w.key("server");
  w.begin_object();
  w.field("requests_received", s.requests_received);
  w.field("requests_busy", s.requests_busy);
  w.field("requests_error", s.requests_error);
  w.field("explorations_total", s.explorations_total);
  w.field("cache_hits_total", s.cache_hits_total);
  w.field("cache_misses_total", s.cache_misses_total);
  w.field("warm_starts", s.warm_starts);
  w.field("sessions_pooled", s.sessions_pooled);
  w.end_object();
}

/// Operations attempted and failed, with a count per reason.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, long> failures;

  /// Count one operation; `why` is empty when it was correct.
  void count(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    ++failures[why];
  }
  void write(json::Writer& w) const {
    w.field("attempted", static_cast<std::int64_t>(attempted));
    w.field("failed", static_cast<std::int64_t>(failed));
    w.key("failures");
    w.begin_object();
    for (const auto& [why, n] : failures) w.field(why, static_cast<std::int64_t>(n));
    w.end_object();
  }
};

// --- load -------------------------------------------------------------------

/// Send one plan request and check the reply: "" when correct, else why.
std::string exchange(net::Client& client, const Plan& plan, const References& refs,
                     const PlanOp& op) {
  if (op.synth) {
    client.send_synth(plan.synth_request(op));
  } else {
    client.send(plan.verify_request(op));
  }
  const net::Client::Response response = client.next_response();
  if (!response.ok) return response.error.code == ErrorCode::kBusy ? "busy" : "server error";
  return op.synth ? check_synth_reply(plan, refs, op, response.synth_report)
                  : check_verify_reply(plan, refs, op, response.report);
}

int cmd_load(const Args& args) {
  const Plan plan = load_plan(args.get("--plan"));
  const auto port = static_cast<std::uint16_t>(args.num("--port"));
  const long conns = std::max(1L, args.num("--conns"));
  const double seconds = std::stod(args.get("--seconds"));
  const long reps = std::max(1L, args.num("--setup-reps", "1"));
  const auto threads = static_cast<unsigned>(args.num("--threads", "4"));

  std::vector<double> ref_s;
  References refs;
  for (long r = 0; r < reps; ++r) {
    const auto start = SteadyClock::now();
    refs = build_references(plan, threads);
    ref_s.push_back(seconds_since(start));
  }

  // Warm-up: every distinct request once, in a fixed order, so that every
  // loop starts from the same pool and cache contents whatever the seed
  // drew, and no first-touch exploration falls inside the timed loop.
  Tally tally;
  const auto warm_start = SteadyClock::now();
  {
    net::Client client("127.0.0.1", port);
    for (const PlanOp& op : plan.warmup_ops()) tally.count(exchange(client, plan, refs, op));
  }
  const double warmup_s = seconds_since(warm_start);

  struct Outcome {
    bool synth = false;
    double ms = 0;
    std::string why;  ///< empty = correct
  };
  std::vector<std::vector<Outcome>> outcomes(static_cast<std::size_t>(conns));
  std::atomic<std::size_t> next{0};
  const auto start = SteadyClock::now();
  const auto deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> loop;
  for (long c = 0; c < conns; ++c) {
    loop.emplace_back([&, c] {
      std::vector<Outcome>& mine = outcomes[static_cast<std::size_t>(c)];
      try {
        net::Client client("127.0.0.1", port);
        while (SteadyClock::now() < deadline) {
          const PlanOp& op = plan.ops[next++ % plan.ops.size()];
          Outcome outcome;
          outcome.synth = op.synth;
          const auto sent = SteadyClock::now();
          try {
            outcome.why = exchange(client, plan, refs, op);
          } catch (const std::exception& e) {
            outcome.why = std::string("client error: ") + e.what();
          }
          outcome.ms = seconds_since(sent) * 1e3;
          const bool broken = outcome.why.rfind("client error", 0) == 0;
          mine.push_back(std::move(outcome));
          if (broken) return;
        }
      } catch (const std::exception& e) {
        mine.push_back(Outcome{false, 0, std::string("connect: ") + e.what()});
      }
    });
  }
  for (std::thread& t : loop) t.join();
  const double elapsed = seconds_since(start);

  std::vector<double> verify_ms, synth_ms;
  for (const auto& per_conn : outcomes) {
    for (const Outcome& o : per_conn) {
      (o.synth ? synth_ms : verify_ms).push_back(o.ms);
      tally.count(o.why);
    }
  }
  const net::ServerStats stats = net::Client("127.0.0.1", port).server_stats();

  std::ostringstream os;
  os.precision(17);
  json::Writer w(os, 0);
  w.begin_object();
  write_doubles(w, "ref_s", ref_s);
  w.field("warmup_s", warmup_s);
  w.field("elapsed_s", elapsed);
  tally.write(w);
  write_doubles(w, "verify_ms", verify_ms);
  write_doubles(w, "synth_ms", synth_ms);
  write_server_stats(w, stats);
  w.end_object();
  util::write_file(args.get("--out"), os.str() + "\n");
  return 0;
}

// --- replay -----------------------------------------------------------------

void write_requirements(json::Writer& w, const core::VerifyReport& report) {
  w.key("requirements");
  w.begin_array();
  for (const core::SchemeVerification& sv : report.schemes) {
    for (const core::RequirementResult& r : sv.requirements) {
      w.begin_object();
      w.field("name", r.requirement.name);
      w.field("pim_max_delay", r.pim.max_delay);
      w.field("lemma2_total", r.bounds.lemma2_total);
      w.field("psm_mc_delay", r.bounds.verified_mc_delay);
      w.field("passed", r.passed);
      w.key("lemma1");
      w.begin_object();
      for (const core::DelayBound& d : r.bounds.input_delays) w.field(d.name, d.analytic);
      for (const core::DelayBound& d : r.bounds.output_delays) w.field(d.name, d.analytic);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
}

int cmd_replay(const Args& args) {
  const std::string mode = args.get("--mode");
  PSV_REQUIRE_AS(ErrorCode::kParse, mode == "cold" || mode == "cache",
                 "--mode expects cold or cache");
  const auto jobs = static_cast<unsigned>(args.num("--jobs"));
  core::SourceRequest base;
  base.model_source = util::read_file(args.get("--model"));
  base.scheme_sources = {util::read_file(args.get("--scheme"))};
  const std::vector<std::string> reqs = args.all("--req");
  PSV_REQUIRE_AS(ErrorCode::kParse, !reqs.empty(), "replay needs at least one --req");

  struct Phase {
    std::string name;
    unsigned jobs;
    bool edited;
  };
  std::vector<Phase> phases;
  std::string cache_dir;
  if (mode == "cold") {
    phases = {{"cold_1job", 1, false}, {"cold_njobs", jobs, false}};
  } else {
    cache_dir = args.get("--cache-dir");
    phases = {{"cache_cold", jobs, false}, {"warm_repeat", jobs, false}, {"warm_edit", jobs, true}};
  }
  const std::string edited_scheme =
      mode == "cache" ? util::read_file(args.get("--edit-scheme")) : std::string();

  // Every phase in order on a fresh cache directory. Returns the total wall
  // time in ms; given a writer, records each phase's results.
  auto run_phases = [&](Tracer& tracer, json::Writer* w) {
    if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
    double total_ms = 0;
    std::uint64_t request = 0;
    for (const Phase& phase : phases) {
      core::SourceRequest source = base;
      source.options.explore.jobs = phase.jobs;
      if (phase.edited) source.scheme_sources = {edited_scheme};
      const auto start = SteadyClock::now();
      core::VerifyReport report;
      {
        // A fresh pipeline per phase: each phase is its own process in the
        // untraced run, so nothing but the cache directory carries over.
        Tracer::Scope span(tracer, "phase." + phase.name, 0);
        TracedPipeline pipeline(tracer, cache_dir);
        report = pipeline.verify(source, reqs, ++request);
      }
      const double ms = seconds_since(start) * 1e3;
      total_ms += ms;
      if (w != nullptr) {
        w->key(phase.name);
        w->begin_object();
        write_requirements(*w, report);
        w->end_object();
      }
    }
    if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
    return total_ms;
  };

  Tracer tracer;
  std::ostringstream other;
  other.precision(17);
  json::Writer w(other, 0);
  w.begin_object();
  w.key("phases");
  w.begin_object();
  run_phases(tracer, &w);
  w.end_object();
  w.field("overhead_ms",
          tracing_overhead_ms(args.num("--overhead-reps", "0"), [&](bool recording) {
            Tracer scratch(recording);
            return run_phases(scratch, nullptr);
          }));
  w.end_object();
  PSV_REQUIRE_AS(ErrorCode::kIo, tracer.write(args.get("--out"), other.str()),
                 "cannot write " + args.get("--out"));
  return 0;
}

// --- daemon-trace -----------------------------------------------------------

double stage_wall_ms(const core::VerifyReport& report, int* hits, int* misses) {
  double total = 0;
  auto add = [&](const core::VerifyStageStats& s) {
    total += s.wall_ms;
    *hits += s.cache.hits;
    *misses += s.cache.misses;
  };
  for (const core::VerifyStageStats& s : report.pim_stages) add(s);
  for (const core::SchemeVerification& sv : report.schemes)
    for (const core::VerifyStageStats& s : sv.stages) add(s);
  return total;
}

/// Per stage: explorations, cache accounting and states explored. A replay
/// stands for the Verifier only while these match, request by request.
std::string stage_counters(const core::VerifyReport& report) {
  std::ostringstream os;
  auto add = [&os](const core::VerifyStageStats& s) {
    os << s.name << " " << s.explorations << " " << s.cache.state() << " " << s.cache.hits << " "
       << s.cache.misses << " " << s.cache.stores << " " << s.explore.states_explored << " "
       << s.explore.warm_states_reused << "\n";
  };
  for (const core::VerifyStageStats& s : report.pim_stages) add(s);
  for (const core::SchemeVerification& sv : report.schemes)
    for (const core::VerifyStageStats& s : sv.stages) add(s);
  return os.str();
}

int cmd_daemon_trace(const Args& args) {
  const Plan plan = load_plan(args.get("--plan"));
  const auto port = static_cast<std::uint16_t>(args.num("--port"));
  const auto sample = std::min<std::size_t>(plan.ops.size(), static_cast<std::size_t>(args.num("--sample")));
  const std::string cache_dir = args.get("--cache-dir");
  const References refs = build_references(plan, static_cast<unsigned>(args.num("--threads", "4")));

  Tracer tracer;
  Tally tally;
  std::vector<std::string> wire_answers(sample);

  // 1. Over the wire, one request at a time, with client-side spans.
  net::ServerStats server;
  {
    Tracer::Scope phase(tracer, "phase.wire", 0);
    net::Socket sock = net::connect_to("127.0.0.1", port);
    ByteWriter hello;
    hello.u16(net::kProtocolVersion);
    net::write_frame(sock, net::FrameType::kHello, 0, hello.buffer());
    std::optional<net::Frame> ack = net::read_frame(sock);
    PSV_REQUIRE_AS(ErrorCode::kProtocol, ack && ack->type == net::FrameType::kHelloAck,
                   "handshake failed");
    ByteReader ack_in(ack->payload);
    const std::uint16_t version = ack_in.u16();
    for (std::size_t i = 0; i < sample; ++i) {
      const PlanOp& op = plan.ops[i];
      const std::uint64_t id = i + 1;
      const int roundtrip = tracer.begin("net.roundtrip", id);
      std::vector<std::uint8_t> payload;
      if (op.synth) {
        const core::SourceSynthRequest request = plan.synth_request(op);
        Tracer::Scope span(tracer, "net.encode", id);
        ByteWriter out;
        core::encode_source_synth_request(out, request);
        payload = out.buffer();
      } else {
        const core::SourceRequest request = plan.verify_request(op);
        Tracer::Scope span(tracer, "net.encode", id);
        ByteWriter out;
        core::encode_source_request(out, request);
        payload = out.buffer();
      }
      net::write_frame(sock, op.synth ? net::FrameType::kSynth : net::FrameType::kVerify, id,
                       payload);
      std::optional<net::Frame> frame = net::read_frame(sock);
      PSV_REQUIRE_AS(ErrorCode::kProtocol, frame.has_value(), "server closed the connection");
      if (frame->type == net::FrameType::kError) {
        ByteReader in(frame->payload);
        const net::WireError error = net::decode_wire_error(in);
        tracer.arg(roundtrip, "busy", error.code == ErrorCode::kBusy ? 1 : 0);
        tracer.end(roundtrip);
        tally.count(error.code == ErrorCode::kBusy ? "busy" : "server error");
        continue;
      }
      if (op.synth) {
        core::SynthReport report;
        {
          Tracer::Scope span(tracer, "net.decode", id);
          ByteReader in(frame->payload);
          report = core::decode_synth_report(in, version);
        }
        tracer.arg(roundtrip, "synth", 1);
        tracer.end(roundtrip);
        wire_answers[i] = report.frontier_text();
        tally.count(check_synth_reply(plan, refs, op, report));
      } else {
        core::VerifyReport report;
        {
          Tracer::Scope span(tracer, "net.decode", id);
          ByteReader in(frame->payload);
          report = core::decode_verify_report(in);
        }
        int hits = 0, misses = 0;
        tracer.arg(roundtrip, "stage_ms", stage_wall_ms(report, &hits, &misses));
        tracer.arg(roundtrip, "cache_hits", hits);
        tracer.arg(roundtrip, "cache_misses", misses);
        tracer.end(roundtrip);
        wire_answers[i] = canonical_verdicts(report);
        tally.count(check_verify_reply(plan, refs, op, report));
      }
    }
    net::write_frame(sock, net::FrameType::kStats, sample + 1, {});
    std::optional<net::Frame> frame = net::read_frame(sock);
    PSV_REQUIRE_AS(ErrorCode::kProtocol, frame && frame->type == net::FrameType::kStatsReport,
                   "expected a stats report");
    ByteReader in(frame->payload);
    server = net::decode_server_stats(in, version);
  }

  // 2. In-process through the public Verifier, on a fresh cache: its stage
  // counters are what the traced pipeline must reproduce.
  std::vector<std::string> verifier_counters(sample);
  {
    core::Verifier verifier(core::Verifier::Config{cache_dir + "/verifier", 32});
    core::Verifier synth_verifier(core::Verifier::Config{cache_dir + "/verifier", 32});
    core::SchemeSynthesizer synthesizer(synth_verifier);
    for (std::size_t i = 0; i < sample; ++i) {
      const PlanOp& op = plan.ops[i];
      if (op.synth) {
        synthesizer.run(core::to_synth_request(plan.synth_request(op)));
      } else {
        verifier_counters[i] =
            stage_counters(verifier.verify(core::to_verify_request(plan.verify_request(op))));
      }
    }
  }

  // 3. In-process, traced, the same way: bounds and verdicts must equal the
  // wire replies, stage counters the Verifier's.
  {
    Tracer::Scope phase(tracer, "phase.inprocess", 0);
    TracedPipeline pipeline(tracer, cache_dir + "/traced");
    core::Verifier synth_verifier(core::Verifier::Config{cache_dir + "/traced", 32});
    core::SchemeSynthesizer synthesizer(synth_verifier);
    for (std::size_t i = 0; i < sample; ++i) {
      const PlanOp& op = plan.ops[i];
      const std::uint64_t id = i + 1;
      std::string answer;
      std::string why;
      if (op.synth) {
        Tracer::Scope span(tracer, "core.synth", id);
        const core::SynthReport report =
            synthesizer.run(core::to_synth_request(plan.synth_request(op)));
        span.arg("candidates", static_cast<double>(report.stats.candidates_total));
        span.arg("explored",
                 static_cast<double>(report.stats.explored_cold + report.stats.explored_warm));
        span.arg("pruned",
                 static_cast<double>(report.stats.pruned_analytic + report.stats.pruned_dominated));
        answer = report.frontier_text();
      } else {
        const core::VerifyReport report = pipeline.verify(plan.verify_request(op), {}, id);
        answer = canonical_verdicts(report);
        if (stage_counters(report) != verifier_counters[i])
          why = "traced stage counters differ from core::Verifier";
      }
      if (!wire_answers[i].empty() && answer != wire_answers[i]) why = "traced replay differs";
      tally.count(why);
    }
  }

  // 4. The tracing overhead over the sample's verify requests, on two
  // pipelines that differ only in recording (their spans are not reported).
  // Both read the artifacts step 3 wrote and get one untimed pass first, so
  // the timed passes do the same pool and artifact work with no exploration
  // and no disk writes, whose noise would swamp the cost of the spans.
  Tracer off_tracer(false), on_tracer(true);
  TracedPipeline off(off_tracer, cache_dir + "/traced"), on(on_tracer, cache_dir + "/traced");
  auto pass = [&](TracedPipeline& pipeline) {
    const auto start = SteadyClock::now();
    for (std::size_t i = 0; i < sample; ++i)
      if (!plan.ops[i].synth) pipeline.verify(plan.verify_request(plan.ops[i]), {}, i + 1);
    return seconds_since(start) * 1e3;
  };
  const long overhead_reps = args.num("--overhead-reps", "0");
  if (overhead_reps > 0) {
    pass(off);
    pass(on);
  }
  const double overhead_ms = tracing_overhead_ms(
      overhead_reps, [&](bool recording) { return pass(recording ? on : off); });
  std::filesystem::remove_all(cache_dir);

  std::ostringstream other;
  other.precision(17);
  json::Writer w(other, 0);
  w.begin_object();
  tally.write(w);
  w.field("overhead_ms", overhead_ms);
  write_server_stats(w, server);
  w.end_object();
  PSV_REQUIRE_AS(ErrorCode::kIo, tracer.write(args.get("--out"), other.str()),
                 "cannot write " + args.get("--out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = "usage: psvbench load|replay|daemon-trace --flag value ...\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  try {
    const Args args(argc, argv);
    const std::string command = argv[1];
    if (command == "load") return cmd_load(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "daemon-trace") return cmd_daemon_trace(args);
    std::cerr << usage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "psvbench: " << e.what() << "\n";
    return 1;
  }
}
