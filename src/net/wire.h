// The PSV wire protocol: versioned, length-prefixed, checksummed frames
// carrying the Verifier request/response API (core/report_serde.h) over a
// byte stream (net/socket.h).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "PSVW"
//        4     2  protocol version (u16) of the SENDER
//        6     1  frame type (FrameType)
//        7     1  reserved (must be 0)
//        8     8  request id (u64) — 0 for connection-level frames
//       16     4  payload size (u32, bytes following the header)
//       20     8  payload checksum (u64) — low half of the Hasher128 digest
//       28     …  payload (frame-type specific, see below)
//
// Version negotiation: the client opens with kHello carrying the highest
// version it speaks; the server answers kHelloAck with the version the
// connection will use, or a kError frame with ErrorCode::kProtocol when the
// client is older than kMinSupportedVersion. The floor equals the ceiling,
// so every connection speaks exactly kProtocolVersion. No other frame may
// precede the handshake.
//
// Pipelining: after the handshake the client may send any number of kVerify
// frames without waiting; each carries a client-chosen non-zero request id,
// and the server answers every id with exactly one kReport or kError frame
// carrying the SAME id, possibly out of order. kStats (id-carrying) yields
// one kStatsReport.
//
// Payloads:
//   kHello       u16 max version spoken by the client
//   kHelloAck    u16 negotiated version
//   kVerify      core::SourceRequest (encode_source_request)
//   kReport      core::VerifyReport (encode_verify_report)
//   kError       u8 ErrorCode + str message
//   kStats       (empty)
//   kStatsReport ServerStats (encode_server_stats)
//   kSynth       core::SourceSynthRequest (encode_source_synth_request)
//   kSynthReport core::SynthReport (encode_synth_report)
//
// Every decoder is bounds-checked and throws psv::Error(kProtocol) on
// malformed input: bad magic, unknown frame type, nonzero reserved byte,
// oversized payload, checksum mismatch, or trailing payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/report_serde.h"
#include "net/socket.h"
#include "util/error.h"

namespace psv::net {

/// Highest protocol version this build speaks, and the lowest it accepts
/// from peers. Bump core::kPayloadVersion when the frame or payload
/// encoding changes. Version 5: the request options lost the bound-engine
/// tag and the cache directory (the daemon's own --cache-dir is the only
/// one it writes to). Version 6: the payload checksum is the word-at-a-time
/// Hasher128 fold, so a version-5 peer's checksums would not verify. The
/// floor equals the ceiling: no peer speaks a down-level layout, so no
/// payload carries a version gate.
inline constexpr std::uint16_t kProtocolVersion = core::kPayloadVersion;
inline constexpr std::uint16_t kMinSupportedVersion = kProtocolVersion;

/// Frame type tags. Part of the wire format: append, never renumber.
enum class FrameType : std::uint8_t {
  kHello = 1,        ///< client → server: version offer
  kHelloAck = 2,     ///< server → client: negotiated version
  kVerify = 3,       ///< client → server: SourceRequest
  kReport = 4,       ///< server → client: VerifyReport
  kError = 5,        ///< server → client: ErrorCode + message
  kStats = 6,        ///< client → server: server-stats probe
  kStatsReport = 7,  ///< server → client: ServerStats
  kSynth = 8,        ///< client → server: SourceSynthRequest (v3+)
  kSynthReport = 9,  ///< server → client: SynthReport (v3+)
};

/// "frame-type-name" for diagnostics ("hello", "report", ...).
const char* frame_type_name(FrameType type);

/// Serialized frame header size in bytes.
inline constexpr std::size_t kFrameHeaderSize = 28;

/// Hard cap on a single frame's payload; a header announcing more is
/// rejected before any allocation (hostile peers cannot drive OOM).
inline constexpr std::uint32_t kMaxPayloadSize = 256u * 1024u * 1024u;

/// One decoded frame: type, pipelining id, and raw payload bytes (already
/// checksum-verified; decode with the payload helpers below).
struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Error payload: the classification and message of a server-side failure.
struct WireError {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Server-side counters reported through kStats/kStatsReport. All counters
/// are totals since server start.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;
  std::uint64_t requests_busy = 0;
  std::uint64_t requests_in_flight = 0;
  std::uint64_t sessions_pooled = 0;      ///< Verifier LRU session count
  std::uint64_t prewarm_jobs = 0;         ///< jobs executed by --prewarm
  std::uint64_t prewarm_failures = 0;
  std::uint64_t explorations_total = 0;   ///< summed over served requests
  std::uint64_t cache_hits_total = 0;     ///< artifact-cache hits, served requests
  std::uint64_t cache_misses_total = 0;
  // Incremental exploration.
  std::uint64_t warm_starts = 0;    ///< served requests that reused an ancestor store
  std::uint64_t states_reused = 0;  ///< ancestor states seeded without re-exploration
  // Scheme synthesis.
  std::uint64_t synth_requests = 0;         ///< kSynth jobs served
  std::uint64_t synth_candidates = 0;       ///< lattice points across served jobs
  std::uint64_t synth_pruned = 0;           ///< analytic + dominated cuts
  std::uint64_t synth_explored = 0;         ///< candidates actually verified
  std::uint64_t synth_fresh_states = 0;     ///< fresh-state cost of served jobs
};

void encode_wire_error(ByteWriter& out, const WireError& error);
WireError decode_wire_error(ByteReader& in);

/// `version` is the negotiated connection version; anything but
/// kProtocolVersion is rejected with kProtocol.
void encode_server_stats(ByteWriter& out, const ServerStats& stats);
ServerStats decode_server_stats(ByteReader& in, std::uint16_t version);

/// Serialize a frame (header + payload) into a contiguous buffer.
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       const std::vector<std::uint8_t>& payload);

/// Parse and validate a frame header (magic, version floor, known type,
/// reserved byte, payload cap). Returns the announced payload size via
/// `payload_size` and checksum via `checksum`.
struct FrameHeader {
  std::uint16_t version = 0;
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
  std::uint64_t checksum = 0;
};
FrameHeader decode_frame_header(const std::uint8_t (&raw)[kFrameHeaderSize]);

/// Write one frame to the socket.
void write_frame(Socket& sock, FrameType type, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload);

/// Read one frame from the socket. Returns std::nullopt on clean
/// end-of-stream between frames; throws psv::Error(kProtocol) on a
/// malformed or truncated frame and kIo on socket errors.
std::optional<Frame> read_frame(Socket& sock);

/// Convenience: payload checksum as carried in the header.
std::uint64_t payload_checksum(const std::vector<std::uint8_t>& payload);

}  // namespace psv::net
