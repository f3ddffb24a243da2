// The wire protocol (net/wire.h) and the request/report payload serde
// (core/report_serde.h): field-for-field round trips, frame
// encode/decode, and corruption robustness — for every frame type, EVERY
// single-bit flip and every truncation of a valid frame must either decode
// (benign flips, e.g. in the request id) or throw psv::Error; never crash,
// never throw anything else, never read out of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/report_serde.h"
#include "core/service.h"
#include "model_paths.h"
#include "net/wire.h"
#include "util/error.h"

namespace psv {
namespace {

using psv::testing::read_model;

core::SourceRequest example_request() {
  core::SourceRequest request;
  request.model_source = "model text\nwith lines\n";
  request.scheme_sources = {"scheme a", "scheme b"};
  request.requirements = {{"REQ1", "In", "Out", 500}, {"REQ2", "In", "Late", 2500}};
  request.options.search_limit = 4242;
  request.options.explore.jobs = 3;
  request.options.explore.max_states = 12345;
  request.options.transform.instrument_constraint4 = false;
  request.options.run_constraint_checks = false;
  request.options.top_k = 7;
  return request;
}

std::vector<std::uint8_t> encode_request(const core::SourceRequest& request) {
  ByteWriter out;
  core::encode_source_request(out, request);
  return out.take();
}

std::vector<std::uint8_t> encode_report(const core::VerifyReport& report) {
  ByteWriter out;
  core::encode_verify_report(out, report);
  return out.take();
}

/// A real report off the fast quickstart model (cheap: ~1.2k states).
core::VerifyReport quickstart_report() {
  core::SourceRequest source;
  source.model_source = read_model("quickstart.psv");
  source.scheme_sources = {read_model("fast.pss")};
  source.requirements = {{"QREQ", "Req", "Ack", 80}, {"QTIGHT", "Req", "Ack", 40}};
  core::Verifier verifier;
  return verifier.verify(core::to_verify_request(source));
}

TEST(ReportSerde, SourceRequestRoundTrip) {
  const core::SourceRequest request = example_request();
  const std::vector<std::uint8_t> bytes = encode_request(request);
  ByteReader in(bytes);
  const core::SourceRequest decoded = core::decode_source_request(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(decoded.model_source, request.model_source);
  EXPECT_EQ(decoded.scheme_sources, request.scheme_sources);
  ASSERT_EQ(decoded.requirements.size(), 2u);
  EXPECT_EQ(decoded.requirements[1].name, "REQ2");
  EXPECT_EQ(decoded.requirements[1].bound_ms, 2500);
  EXPECT_EQ(decoded.options.search_limit, 4242);
  EXPECT_EQ(decoded.options.explore.jobs, 3u);
  EXPECT_EQ(decoded.options.explore.max_states, 12345u);
  EXPECT_FALSE(decoded.options.transform.instrument_constraint4);
  EXPECT_FALSE(decoded.options.run_constraint_checks);
  EXPECT_EQ(decoded.options.top_k, 7);
  // Re-encoding the decoded request reproduces the bytes exactly.
  EXPECT_EQ(encode_request(decoded), bytes);
}

TEST(ReportSerde, VerifyReportRoundTripIsByteStable) {
  const core::VerifyReport report = quickstart_report();
  const std::vector<std::uint8_t> bytes = encode_report(report);
  ByteReader in(bytes);
  const core::VerifyReport decoded = core::decode_verify_report(in);
  // The decoded report renders identically (the summary reads every
  // user-visible field) and re-encodes to the identical bytes.
  EXPECT_EQ(decoded.summary(), report.summary());
  EXPECT_EQ(decoded.all_passed(), report.all_passed());
  EXPECT_EQ(decoded.explorations_in("constraints"), report.explorations_in("constraints"));
  ASSERT_EQ(decoded.schemes.size(), report.schemes.size());
  EXPECT_EQ(decoded.schemes.front().slack.min_slack_ms,
            report.schemes.front().slack.min_slack_ms);
  EXPECT_EQ(encode_report(decoded), bytes);
}

TEST(ReportSerde, DecodedReportCarriesNoPsmArtifacts) {
  const core::VerifyReport report = quickstart_report();
  const std::vector<std::uint8_t> bytes = encode_report(report);
  ByteReader in(bytes);
  const core::VerifyReport decoded = core::decode_verify_report(in);
  // The PSM construction artifacts deliberately do not travel; clients
  // reconstruct them locally when needed (see core/report_serde.h).
  EXPECT_GT(report.schemes.front().psm.psm.num_automata(), 0u);
  EXPECT_EQ(decoded.schemes.front().psm.psm.num_automata(), 0u);
}

TEST(ReportSerde, LeavesTrailingBytesAndRejectsTruncation) {
  const std::vector<std::uint8_t> bytes = encode_request(example_request());
  {
    // decode_source_request leaves trailing-byte detection to the caller
    // (the frame layer), so check the reader position.
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0x7F);
    ByteReader in(extended);
    (void)core::decode_source_request(in);
    EXPECT_FALSE(in.at_end());
  }
  {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 3);
    ByteReader in(truncated);
    EXPECT_THROW((void)core::decode_source_request(in), Error);
  }
}

TEST(Wire, ErrorAndStatsPayloadRoundTrip) {
  {
    ByteWriter out;
    net::encode_wire_error(out, {ErrorCode::kBusy, "try again"});
    ByteReader in(out.buffer());
    const net::WireError decoded = net::decode_wire_error(in);
    EXPECT_EQ(decoded.code, ErrorCode::kBusy);
    EXPECT_EQ(decoded.message, "try again");
  }
  {
    net::ServerStats stats;
    stats.connections_accepted = 3;
    stats.requests_ok = 17;
    stats.requests_busy = 2;
    stats.sessions_pooled = 5;
    stats.explorations_total = 123;
    stats.synth_requests = 4;
    stats.synth_fresh_states = 999;
    ByteWriter out;
    net::encode_server_stats(out, stats);
    ByteReader in(out.buffer());
    const net::ServerStats decoded = net::decode_server_stats(in, net::kProtocolVersion);
    EXPECT_EQ(decoded.connections_accepted, 3u);
    EXPECT_EQ(decoded.requests_ok, 17u);
    EXPECT_EQ(decoded.requests_busy, 2u);
    EXPECT_EQ(decoded.sessions_pooled, 5u);
    EXPECT_EQ(decoded.explorations_total, 123u);
    EXPECT_EQ(decoded.synth_requests, 4u);
    EXPECT_EQ(decoded.synth_fresh_states, 999u);
  }
  {
    // One layout, one version: a decoder told the connection negotiated
    // any other version refuses the payload with a typed protocol error.
    ByteWriter stats;
    net::encode_server_stats(stats, net::ServerStats{});
    ByteWriter synth;
    core::encode_synth_report(synth, core::SynthReport{});
    for (const std::uint16_t version : {std::uint16_t{3}, std::uint16_t{4}}) {
      ByteReader stats_in(stats.buffer());
      ByteReader synth_in(synth.buffer());
      try {
        (void)net::decode_server_stats(stats_in, version);
        ADD_FAILURE() << "version " << version << " stats layout accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kProtocol);
      }
      try {
        (void)core::decode_synth_report(synth_in, version);
        ADD_FAILURE() << "version " << version << " synth-report layout accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kProtocol);
      }
    }
  }
}

TEST(Wire, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kInternal, ErrorCode::kParse, ErrorCode::kModel, ErrorCode::kVerify,
        ErrorCode::kIo, ErrorCode::kProtocol, ErrorCode::kBusy}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_EQ(error_code_from_name("no-such-code"), ErrorCode::kInternal);
}

TEST(Wire, FrameHeaderRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> frame =
      net::encode_frame(net::FrameType::kVerify, 42, payload);
  ASSERT_EQ(frame.size(), net::kFrameHeaderSize + payload.size());
  std::uint8_t raw[net::kFrameHeaderSize];
  std::copy_n(frame.begin(), net::kFrameHeaderSize, raw);
  const net::FrameHeader header = net::decode_frame_header(raw);
  EXPECT_EQ(header.version, net::kProtocolVersion);
  EXPECT_EQ(header.type, net::FrameType::kVerify);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.payload_size, payload.size());
  EXPECT_EQ(header.checksum, net::payload_checksum(payload));
}

/// Decode one whole serialized frame from a buffer: header validation,
/// size/checksum checks, then the payload decoder of its type — the same
/// sequence net::read_frame + the daemon run on a socket.
void decode_message(const std::vector<std::uint8_t>& bytes) {
  PSV_REQUIRE_AS(ErrorCode::kProtocol, bytes.size() >= net::kFrameHeaderSize,
                 "truncated frame header");
  std::uint8_t raw[net::kFrameHeaderSize];
  std::copy_n(bytes.begin(), net::kFrameHeaderSize, raw);
  const net::FrameHeader header = net::decode_frame_header(raw);
  PSV_REQUIRE_AS(ErrorCode::kProtocol,
                 bytes.size() - net::kFrameHeaderSize == header.payload_size,
                 "frame payload size mismatch");
  const std::vector<std::uint8_t> payload(bytes.begin() + net::kFrameHeaderSize, bytes.end());
  PSV_REQUIRE_AS(ErrorCode::kProtocol, net::payload_checksum(payload) == header.checksum,
                 "frame checksum mismatch");
  ByteReader in(payload);
  switch (header.type) {
    case net::FrameType::kHello:
    case net::FrameType::kHelloAck:
      (void)in.u16();
      PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "trailing bytes");
      break;
    case net::FrameType::kVerify:
      (void)core::decode_source_request(in);
      PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "trailing bytes");
      break;
    case net::FrameType::kReport:
      (void)core::decode_verify_report(in);
      break;
    case net::FrameType::kError:
      (void)net::decode_wire_error(in);
      break;
    case net::FrameType::kStats:
      PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "stats frame carries no payload");
      break;
    case net::FrameType::kStatsReport:
      (void)net::decode_server_stats(in, net::kProtocolVersion);
      break;
    case net::FrameType::kSynth:
      (void)core::decode_source_synth_request(in);
      break;
    case net::FrameType::kSynthReport:
      (void)core::decode_synth_report(in);
      break;
  }
}

/// Every single-bit flip either still decodes or throws psv::Error; every
/// truncation throws. Anything else (other exception types, crashes, OOM
/// allocations) fails the test.
void fuzz_frame(const std::vector<std::uint8_t>& frame) {
  decode_message(frame);  // the pristine frame must decode
  std::size_t survived = 0, rejected = 0;
  std::vector<std::uint8_t> mutated = frame;
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      decode_message(mutated);
      ++survived;
    } catch (const Error&) {
      ++rejected;
    }
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(survived + rejected, frame.size() * 8);
  // The checksum makes payload flips detectable, so most flips reject.
  EXPECT_GT(rejected, frame.size() * 4);
  for (std::size_t len = 1; len < frame.size(); ++len) {
    EXPECT_THROW(
        decode_message(std::vector<std::uint8_t>(frame.begin(), frame.begin() + len)), Error)
        << "truncation to " << len << " bytes must be rejected";
  }
}

TEST(WireFuzz, HelloFrameBitFlipsAndTruncations) {
  ByteWriter payload;
  payload.u16(net::kProtocolVersion);
  fuzz_frame(net::encode_frame(net::FrameType::kHello, 0, payload.buffer()));
}

TEST(WireFuzz, ErrorFrameBitFlipsAndTruncations) {
  ByteWriter payload;
  net::encode_wire_error(payload, {ErrorCode::kVerify, "state cap exceeded"});
  fuzz_frame(net::encode_frame(net::FrameType::kError, 9, payload.buffer()));
}

TEST(WireFuzz, StatsFramesBitFlipsAndTruncations) {
  fuzz_frame(net::encode_frame(net::FrameType::kStats, 3, {}));
  net::ServerStats stats;
  stats.requests_ok = 11;
  stats.cache_hits_total = 7;
  ByteWriter payload;
  net::encode_server_stats(payload, stats);
  fuzz_frame(net::encode_frame(net::FrameType::kStatsReport, 3, payload.buffer()));
}

TEST(WireFuzz, VerifyFrameBitFlipsAndTruncations) {
  fuzz_frame(net::encode_frame(net::FrameType::kVerify, 1, encode_request(example_request())));
}

TEST(WireFuzz, ReportFrameBitFlipsAndTruncations) {
  // A deliberately small real report (one requirement, no retained traces):
  // the fuzz is quadratic in the frame size (every bit flip re-checksums
  // the payload), so keep the frame in the low kilobytes. Trace-carrying
  // reports are covered by the byte-stable round-trip test above.
  core::SourceRequest source;
  source.model_source = read_model("quickstart.psv");
  source.scheme_sources = {read_model("fast.pss")};
  source.requirements = {{"QREQ", "Req", "Ack", 80}};
  source.options.top_k = 0;
  core::Verifier verifier;
  const core::VerifyReport report = verifier.verify(core::to_verify_request(source));
  fuzz_frame(net::encode_frame(net::FrameType::kReport, 1, encode_report(report)));
}

}  // namespace
}  // namespace psv
