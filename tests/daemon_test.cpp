// End-to-end daemon tests on loopback (net/server.h, net/client.h): wire
// reports bit-identical to in-process runs, out-of-order pipelining,
// warm-pool reuse (repeat request explores zero states server-side),
// admission control (typed BUSY), version negotiation, protocol errors,
// and graceful drain with requests in flight.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/report_serde.h"
#include "core/service.h"
#include "core/synth.h"
#include "model_paths.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/error.h"

namespace psv {
namespace {

using psv::testing::read_model;

/// Quickstart sources (cheap model, ~1.2k states per exploration).
struct Sources {
  std::string model = read_model("quickstart.psv");
  std::string fast_scheme = read_model("fast.pss");
  std::string late_scheme = read_model("late.pss");

  core::SourceRequest request(std::int64_t bound_ms, bool late = false) const {
    core::SourceRequest source;
    source.model_source = model;
    source.scheme_sources = {late ? late_scheme : fast_scheme};
    source.requirements = {{"QREQ", "Req", "Ack", bound_ms}};
    return source;
  }
};

std::vector<std::uint8_t> encode_report(const core::VerifyReport& report) {
  ByteWriter out;
  core::encode_verify_report(out, report);
  return out.take();
}

std::uint64_t total_explorations(const core::VerifyReport& report) {
  std::uint64_t total = 0;
  for (const core::VerifyStageStats& s : report.pim_stages)
    total += static_cast<std::uint64_t>(s.explorations);
  for (const core::SchemeVerification& sv : report.schemes)
    for (const core::VerifyStageStats& s : sv.stages)
      total += static_cast<std::uint64_t>(s.explorations);
  return total;
}

net::ServerConfig loopback_config() {
  net::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;  // ephemeral
  return config;
}

TEST(Daemon, WireReportBitIdenticalToInProcess) {
  Sources src;
  net::Server server(loopback_config());
  server.start();

  const core::SourceRequest source = src.request(80);
  core::Verifier local;
  const core::VerifyReport expected = local.verify(core::to_verify_request(source));

  net::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.negotiated_version(), net::kProtocolVersion);
  const core::VerifyReport served = client.verify(source);

  // The served report re-encodes to the identical bytes (wall-clock fields
  // travel verbatim, so this compares the server's own run) and renders the
  // identical summary/verdict surface aside from wall clock: compare the
  // deterministic projections.
  EXPECT_EQ(served.summary(), expected.summary());
  EXPECT_EQ(served.all_passed(), expected.all_passed());
  ASSERT_EQ(served.schemes.size(), 1u);
  EXPECT_EQ(served.schemes.front().slack.min_slack_ms,
            expected.schemes.front().slack.min_slack_ms);
  EXPECT_EQ(served.schemes.front().requirements.front().bounds.verified_mc_delay,
            expected.schemes.front().requirements.front().bounds.verified_mc_delay);
  server.stop();
}

TEST(Daemon, PipelinedRequestsCompletePossiblyOutOfOrder) {
  Sources src;
  net::Server server(loopback_config());
  server.start();

  const std::vector<core::SourceRequest> sources = {src.request(80), src.request(40),
                                                    src.request(300, /*late=*/true)};
  core::Verifier local;
  std::vector<std::vector<std::uint8_t>> expected;
  for (const core::SourceRequest& s : sources)
    expected.push_back(encode_report(local.verify(core::to_verify_request(s))));

  net::Client client("127.0.0.1", server.port());
  std::vector<std::uint64_t> ids;
  for (const core::SourceRequest& s : sources) ids.push_back(client.send(s));
  EXPECT_EQ(client.outstanding(), sources.size());

  std::vector<bool> answered(sources.size(), false);
  while (client.outstanding() > 0) {
    net::Client::Response response = client.next_response();
    ASSERT_TRUE(response.ok) << response.error.message;
    // Responses carry the request id; match them back regardless of order.
    std::size_t index = sources.size();
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == response.request_id) index = i;
    ASSERT_LT(index, sources.size());
    EXPECT_FALSE(answered[index]) << "duplicate response for request " << response.request_id;
    answered[index] = true;
    // Bit-identical to the in-process run, except wall clock: the quickest
    // check strips nothing — wall_ms is the server's own measurement and
    // differs run to run, so compare the deterministic summary and the
    // verdict fields instead of raw bytes.
    core::VerifyReport expected_report;
    {
      ByteReader in(expected[index]);
      expected_report = core::decode_verify_report(in);
    }
    EXPECT_EQ(response.report.summary(), expected_report.summary());
    EXPECT_EQ(response.report.all_passed(), expected_report.all_passed());
  }
  for (const bool a : answered) EXPECT_TRUE(a);
  server.stop();
}

TEST(Daemon, WarmRepeatAnswersWithZeroExplorations) {
  Sources src;
  net::Server server(loopback_config());
  server.start();

  net::Client client("127.0.0.1", server.port());
  const core::SourceRequest source = src.request(80);
  const core::VerifyReport cold = client.verify(source);
  const core::VerifyReport warm = client.verify(source);

  EXPECT_GT(total_explorations(cold), 0u);
  EXPECT_EQ(total_explorations(warm), 0u) << "repeat request must be answered from the "
                                             "server-side session pool without exploring";
  EXPECT_EQ(warm.summary(), cold.summary());

  const net::ServerStats stats = client.server_stats();
  EXPECT_EQ(stats.requests_received, 2u);
  EXPECT_EQ(stats.requests_ok, 2u);
  EXPECT_GE(stats.sessions_pooled, 1u);
  EXPECT_EQ(stats.explorations_total, total_explorations(cold));
  server.stop();
}

TEST(Daemon, AdmissionControlRejectsExcessRequestsAsBusy) {
  Sources src;

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  net::ServerConfig config = loopback_config();
  config.max_inflight = 1;
  config.test_request_hook = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  net::Server server(config);
  server.start();

  net::Client client("127.0.0.1", server.port());
  const std::uint64_t first = client.send(src.request(80));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // The first request is parked inside the hook; a second one trips the cap.
  const std::uint64_t second = client.send(src.request(40));
  net::Client::Response busy = client.next_response();
  EXPECT_EQ(busy.request_id, second);
  ASSERT_FALSE(busy.ok);
  EXPECT_EQ(busy.error.code, ErrorCode::kBusy);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  net::Client::Response done = client.next_response();
  EXPECT_EQ(done.request_id, first);
  EXPECT_TRUE(done.ok) << done.error.message;
  server.stop();
}

TEST(Daemon, MalformedRequestYieldsTypedErrorNotDisconnect) {
  Sources src;
  net::Server server(loopback_config());
  server.start();

  net::Client client("127.0.0.1", server.port());
  core::SourceRequest bad = src.request(80);
  bad.model_source = "this is not a psv model";
  EXPECT_THROW(
      {
        try {
          (void)client.verify(bad);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kParse);
          throw;
        }
      },
      Error);
  // The connection survives the failed request.
  const core::VerifyReport report = client.verify(src.request(80));
  EXPECT_EQ(report.schemes.size(), 1u);
  server.stop();
}

TEST(Daemon, RejectsUnsupportedClientVersion) {
  net::Server server(loopback_config());
  server.start();

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  ByteWriter hello;
  hello.u16(0);  // below kMinSupportedVersion
  net::write_frame(sock, net::FrameType::kHello, 0, hello.buffer());
  std::optional<net::Frame> reply = net::read_frame(sock);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::FrameType::kError);
  ByteReader in(reply->payload);
  EXPECT_EQ(net::decode_wire_error(in).code, ErrorCode::kProtocol);
  server.stop();
}

TEST(Daemon, RejectsVersion4HelloWithTypedProtocolError) {
  net::Server server(loopback_config());
  server.start();

  // A v4 peer would encode the engine tag and cache directory the v5
  // request layout dropped; the handshake refuses it before any request.
  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  ByteWriter hello;
  hello.u16(4);
  net::write_frame(sock, net::FrameType::kHello, 0, hello.buffer());
  std::optional<net::Frame> reply = net::read_frame(sock);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::FrameType::kError);
  ByteReader in(reply->payload);
  const net::WireError error = net::decode_wire_error(in);
  EXPECT_EQ(error.code, ErrorCode::kProtocol);
  EXPECT_NE(error.message.find("version 4"), std::string::npos) << error.message;
  server.stop();
}

TEST(Daemon, RequiresHandshakeBeforeRequests) {
  net::Server server(loopback_config());
  server.start();

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  // A verify frame before hello is a protocol violation.
  net::write_frame(sock, net::FrameType::kVerify, 1, {});
  std::optional<net::Frame> reply = net::read_frame(sock);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::FrameType::kError);
  ByteReader in(reply->payload);
  EXPECT_EQ(net::decode_wire_error(in).code, ErrorCode::kProtocol);
  server.stop();
}

TEST(Daemon, GracefulDrainFinishesInFlightRequests) {
  Sources src;

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  net::ServerConfig config = loopback_config();
  config.test_request_hook = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  net::Server server(config);
  server.start();
  const std::uint16_t port = server.port();

  net::Client client("127.0.0.1", port);
  const std::uint64_t id = client.send(src.request(80));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // Drain with the request parked in flight: stop() must wait for it and
  // its response must still reach the client.
  std::thread stopper([&] { server.stop(); });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  net::Client::Response response = client.next_response();
  EXPECT_EQ(response.request_id, id);
  EXPECT_TRUE(response.ok) << response.error.message;
  stopper.join();

  // After the drain the daemon no longer accepts connections.
  EXPECT_THROW((void)net::Client("127.0.0.1", port), Error);
}

TEST(Daemon, SynthOverWireMatchesInProcess) {
  net::Server server(loopback_config());
  server.start();

  core::SourceSynthRequest source;
  source.model_source = read_model("quickstart.psv");
  source.template_source = read_model("fast_sweep.pss");
  source.requirements = {{"QREQ", "Req", "Ack", 80}};
  source.synth.workers = 1;

  core::Verifier local;
  core::SchemeSynthesizer synthesizer(local);
  const core::SynthReport expected = synthesizer.run(core::to_synth_request(source));

  net::Client client("127.0.0.1", server.port());
  ASSERT_EQ(client.negotiated_version(), net::kProtocolVersion);
  const core::SynthReport served = client.synth(source);
  EXPECT_EQ(served.frontier_text(), expected.frontier_text());
  EXPECT_EQ(served.summary(), expected.summary());
  EXPECT_EQ(served.stats.candidates_total, expected.stats.candidates_total);
  EXPECT_EQ(served.pareto, expected.pareto);

  const net::ServerStats stats = client.server_stats();
  EXPECT_EQ(stats.synth_requests, 1u);
  EXPECT_EQ(stats.synth_candidates, expected.stats.candidates_total);
  EXPECT_EQ(stats.synth_explored,
            expected.stats.explored_cold + expected.stats.explored_warm);
  EXPECT_EQ(stats.synth_pruned,
            expected.stats.pruned_analytic + expected.stats.pruned_dominated);
  server.stop();
}

TEST(Daemon, PrewarmPopulatesSessionPool) {
  // A manifest of two cheap quickstart jobs, with absolute model paths so
  // the temp-dir manifest resolves them regardless of its own location.
  const std::string model = PSV_MODELS_DIR "quickstart.psv";
  const std::string fast = PSV_MODELS_DIR "fast.pss";
  const std::string late = PSV_MODELS_DIR "late.pss";
  const std::string manifest_path =
      (std::filesystem::temp_directory_path() / "psv_prewarm_test.psvb").string();
  util::write_file(manifest_path,
                   "job warm_fast {\n  model " + model + "\n  scheme " + fast +
                       "\n  req QREQ: Req -> Ack within 80\n}\n"
                       "job warm_late {\n  model " + model + "\n  scheme " + late +
                       "\n  req QREQ: Req -> Ack within 80\n}\n");
  net::ServerConfig config = loopback_config();
  config.prewarm_manifest = manifest_path;
  net::Server server(config);
  server.start();

  // Poll the stats until the background pre-warm pass finishes.
  net::Client client("127.0.0.1", server.port());
  net::ServerStats stats;
  for (int i = 0; i < 600; ++i) {
    stats = client.server_stats();
    if (stats.prewarm_jobs + stats.prewarm_failures >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(stats.prewarm_jobs, 2u);
  EXPECT_EQ(stats.prewarm_failures, 0u);
  EXPECT_GE(stats.sessions_pooled, 1u);
  server.stop();
}

}  // namespace
}  // namespace psv
