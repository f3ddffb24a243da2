// Binary (de)serialization of the Verifier service's request/report types —
// the payload layer of the wire protocol (net/wire.h).
//
// Reports are serialized field-for-field with util/serde, reusing the
// trace/statistics encoders of the artifact store (mc/artifact.h), so a
// report decoded from the wire renders summaries, verdict lines, slack
// reports, and --stats-json output byte-identical to the in-process report
// it was encoded from.
//
// Deliberate exception: SchemeVerification::psm (the constructed PSM
// network and its instrumentation handles) does NOT travel. It is a
// server-side construction artifact that no report renderer reads; clients
// that want the PSM text (psv_verify --print-psm) reconstruct it locally
// from the model and scheme sources, which is deterministic. A decoded
// report carries a default-constructed PsmArtifacts.
//
// Requests travel as *sources* (model/scheme program text plus typed
// requirements and options) rather than as parsed networks: the parsers are
// deterministic, so server-side parsing yields the identical network while
// keeping the wire format independent of the in-memory ta::Network layout.
// SourceRequest is that wire shape; to_verify_request() parses it.
//
// All decoders are fully bounds-checked (ByteReader) and throw psv::Error
// with ErrorCode::kProtocol on malformed input.
#pragma once

#include <cstdint>

#include "core/service.h"
#include "core/synth.h"
#include "util/serde.h"

namespace psv::core {

/// Wire-protocol version of every payload layout in this file.
/// net::kProtocolVersion is this constant: the protocol has one version and
/// no down-level layouts.
inline constexpr std::uint16_t kPayloadVersion = 6;

/// A VerifyRequest as it travels the wire: program sources plus typed
/// requirements and options. Scheme sources are index-aligned with the
/// VerifyRequest::schemes they parse into.
struct SourceRequest {
  std::string model_source;                     ///< .psv program text
  std::vector<std::string> scheme_sources;      ///< .pss program texts
  std::vector<TimingRequirement> requirements;  ///< at least one
  VerifyOptions options;
};

/// Parse a SourceRequest into a service request (model, schemes, PIM info).
/// Throws psv::Error (kParse/kModel) exactly like the CLI's own parsing.
VerifyRequest to_verify_request(const SourceRequest& request);

void encode_source_request(ByteWriter& out, const SourceRequest& request);
SourceRequest decode_source_request(ByteReader& in);

void encode_verify_options(ByteWriter& out, const VerifyOptions& options);
VerifyOptions decode_verify_options(ByteReader& in);

void encode_timing_requirement(ByteWriter& out, const TimingRequirement& req);
TimingRequirement decode_timing_requirement(ByteReader& in);

void encode_verify_report(ByteWriter& out, const VerifyReport& report);
VerifyReport decode_verify_report(ByteReader& in);

/// A SynthRequest as it travels the wire (kSynth frames):
/// program sources plus typed requirements and options. The scheme source
/// is a synthesis TEMPLATE (.pss text with sweep ranges,
/// lang::parse_scheme_template).
struct SourceSynthRequest {
  std::string model_source;                     ///< .psv program text
  std::string template_source;                  ///< .pss text with sweep ranges
  std::vector<TimingRequirement> requirements;  ///< at least one
  VerifyOptions options;
  SynthOptions synth;
};

/// Parse a SourceSynthRequest into a synthesis request. Throws psv::Error
/// (kParse/kModel) exactly like the CLI's own parsing.
SynthRequest to_synth_request(const SourceSynthRequest& request);

void encode_source_synth_request(ByteWriter& out, const SourceSynthRequest& request);
SourceSynthRequest decode_source_synth_request(ByteReader& in);

/// SynthReport travels field-for-field (including the feasibility entries'
/// witness critical traces and replay constants); frontier_text()/summary()
/// and feasibility_detail() of a decoded report render byte-identical to the
/// server-side report. `version` is the negotiated wire-protocol version;
/// anything but kPayloadVersion is rejected with kProtocol.
void encode_synth_report(ByteWriter& out, const SynthReport& report);
SynthReport decode_synth_report(ByteReader& in, std::uint16_t version = kPayloadVersion);

}  // namespace psv::core
