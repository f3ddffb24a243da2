#include "net/wire.h"

#include <cstring>

#include "util/hash.h"

namespace psv::net {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'V', 'W'};

bool known_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kSynthReport);
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello-ack";
    case FrameType::kVerify: return "verify";
    case FrameType::kReport: return "report";
    case FrameType::kError: return "error";
    case FrameType::kStats: return "stats";
    case FrameType::kStatsReport: return "stats-report";
    case FrameType::kSynth: return "synth";
    case FrameType::kSynthReport: return "synth-report";
  }
  return "unknown";
}

std::uint64_t payload_checksum(const std::vector<std::uint8_t>& payload) {
  return digest128(payload.data(), payload.size()).lo;
}

void encode_wire_error(ByteWriter& out, const WireError& error) {
  out.u8(static_cast<std::uint8_t>(error.code));
  out.str(error.message);
}

WireError decode_wire_error(ByteReader& in) {
  WireError error;
  const std::uint8_t raw = in.u8();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, raw <= static_cast<std::uint8_t>(ErrorCode::kCancelled),
                 "unknown error code " + std::to_string(raw) + " in error frame");
  error.code = static_cast<ErrorCode>(raw);
  error.message = in.str();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "trailing bytes after error payload");
  return error;
}

void encode_server_stats(ByteWriter& out, const ServerStats& stats) {
  out.u64(stats.connections_accepted);
  out.u64(stats.connections_active);
  out.u64(stats.requests_received);
  out.u64(stats.requests_ok);
  out.u64(stats.requests_error);
  out.u64(stats.requests_busy);
  out.u64(stats.requests_in_flight);
  out.u64(stats.sessions_pooled);
  out.u64(stats.prewarm_jobs);
  out.u64(stats.prewarm_failures);
  out.u64(stats.explorations_total);
  out.u64(stats.cache_hits_total);
  out.u64(stats.cache_misses_total);
  out.u64(stats.warm_starts);
  out.u64(stats.states_reused);
  out.u64(stats.synth_requests);
  out.u64(stats.synth_candidates);
  out.u64(stats.synth_pruned);
  out.u64(stats.synth_explored);
  out.u64(stats.synth_fresh_states);
}

ServerStats decode_server_stats(ByteReader& in, std::uint16_t version) {
  PSV_REQUIRE_AS(ErrorCode::kProtocol, version == kProtocolVersion,
                 "stats layout of protocol version " + std::to_string(version) +
                     " is not supported; this build speaks version " +
                     std::to_string(kProtocolVersion));
  ServerStats stats;
  stats.connections_accepted = in.u64();
  stats.connections_active = in.u64();
  stats.requests_received = in.u64();
  stats.requests_ok = in.u64();
  stats.requests_error = in.u64();
  stats.requests_busy = in.u64();
  stats.requests_in_flight = in.u64();
  stats.sessions_pooled = in.u64();
  stats.prewarm_jobs = in.u64();
  stats.prewarm_failures = in.u64();
  stats.explorations_total = in.u64();
  stats.cache_hits_total = in.u64();
  stats.cache_misses_total = in.u64();
  stats.warm_starts = in.u64();
  stats.states_reused = in.u64();
  stats.synth_requests = in.u64();
  stats.synth_candidates = in.u64();
  stats.synth_pruned = in.u64();
  stats.synth_explored = in.u64();
  stats.synth_fresh_states = in.u64();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "trailing bytes after stats payload");
  return stats;
}

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       const std::vector<std::uint8_t>& payload) {
  PSV_REQUIRE_AS(ErrorCode::kProtocol, payload.size() <= kMaxPayloadSize,
                 "frame payload too large: " + std::to_string(payload.size()) + " bytes");
  ByteWriter out;
  out.raw(kMagic, sizeof kMagic);
  out.u16(kProtocolVersion);
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(0);  // reserved
  out.u64(request_id);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u64(payload_checksum(payload));
  out.raw(payload.data(), payload.size());
  return out.take();
}

FrameHeader decode_frame_header(const std::uint8_t (&raw)[kFrameHeaderSize]) {
  ByteReader in(raw, kFrameHeaderSize);
  char magic[4];
  in.raw(magic, sizeof magic);
  PSV_REQUIRE_AS(ErrorCode::kProtocol, std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                 "bad frame magic (not a PSV wire stream)");
  FrameHeader header;
  header.version = in.u16();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, header.version >= kMinSupportedVersion,
                 "peer protocol version " + std::to_string(header.version) +
                     " is older than the minimum supported " +
                     std::to_string(kMinSupportedVersion));
  const std::uint8_t type_raw = in.u8();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, known_frame_type(type_raw),
                 "unknown frame type " + std::to_string(type_raw));
  header.type = static_cast<FrameType>(type_raw);
  const std::uint8_t reserved = in.u8();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, reserved == 0,
                 "nonzero reserved byte in frame header");
  header.request_id = in.u64();
  header.payload_size = in.u32();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, header.payload_size <= kMaxPayloadSize,
                 "frame payload too large: " + std::to_string(header.payload_size) + " bytes");
  header.checksum = in.u64();
  return header;
}

void write_frame(Socket& sock, FrameType type, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, request_id, payload);
  sock.send_all(frame.data(), frame.size());
}

std::optional<Frame> read_frame(Socket& sock) {
  std::uint8_t raw[kFrameHeaderSize];
  if (!sock.recv_all(raw, sizeof raw)) return std::nullopt;
  const FrameHeader header = decode_frame_header(raw);
  Frame frame;
  frame.type = header.type;
  frame.request_id = header.request_id;
  frame.payload.resize(header.payload_size);
  if (header.payload_size > 0 && !sock.recv_all(frame.payload.data(), frame.payload.size()))
    PSV_FAIL_AS(ErrorCode::kProtocol, "connection closed before frame payload");
  PSV_REQUIRE_AS(ErrorCode::kProtocol, payload_checksum(frame.payload) == header.checksum,
                 std::string("frame checksum mismatch (") + frame_type_name(frame.type) +
                     " frame, " + std::to_string(frame.payload.size()) + " bytes)");
  return frame;
}

}  // namespace psv::net
