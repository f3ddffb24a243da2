// Platform-independent model (PIM) conventions and analysis.
//
// A PIM in this framework is a two-automaton network M || ENV (paper
// Definition 2):
//   * the software automaton (conventionally "M"),
//   * the environment automaton (conventionally "ENV"),
//   * binary channels named "m_<X>" (monitored variables: ENV -> M) and
//     "c_<Y>" (controlled variables: M -> ENV).
//
// analyze_pim() extracts this structure and checks the restrictions the
// PIM->PSM transformation relies on.
#pragma once

#include <string>
#include <vector>

#include "mc/explore_options.h"
#include "ta/model.h"

namespace psv::mc {
class ArtifactStore;        // mc/artifact.h; kept out of this header's includes
class VerificationSession;  // mc/session.h; likewise
}

namespace psv::core {

/// Channel-name prefixes of the four-variable convention.
inline constexpr const char* kInputPrefix = "m_";    ///< monitored (ENV -> software)
inline constexpr const char* kOutputPrefix = "c_";   ///< controlled (software -> ENV)
inline constexpr const char* kProgInPrefix = "i_";   ///< program inputs (PSM)
inline constexpr const char* kProgOutPrefix = "o_";  ///< program outputs (PSM)

/// Structure of a PIM discovered by analyze_pim().
struct PimInfo {
  ta::AutomatonId software = -1;     ///< the M automaton
  ta::AutomatonId environment = -1;  ///< the ENV automaton
  /// Base names of monitored variables (channel "m_BolusReq" -> "BolusReq"),
  /// in channel declaration order.
  std::vector<std::string> inputs;
  /// Base names of controlled variables, in channel declaration order.
  std::vector<std::string> outputs;
};

/// Analyze and validate a PIM network:
///  * exactly the automata `software_name` and `environment_name` exist,
///  * every channel is named m_* or c_*,
///  * the software receives on m_* and sends on c_*; the environment does
///    the reverse,
///  * the software's input-receive edges are unguarded (the transformation
///    gives the generated code read-and-discard semantics, which requires
///    unconditional receives; see MIO in docs/PIPELINE.md).
/// Throws psv::Error with a diagnostic on violation.
PimInfo analyze_pim(const ta::Network& pim, const std::string& software_name = "M",
                    const std::string& environment_name = "ENV");

/// A timing requirement P(delta_mc): after input m_<input> is issued by the
/// environment, output c_<output> must be observed within bound_ms.
struct TimingRequirement {
  std::string name;    ///< e.g. "REQ1"
  std::string input;   ///< base name, e.g. "BolusReq"
  std::string output;  ///< base name, e.g. "StartInfusion"
  std::int64_t bound_ms = 0;
};

/// Handles to the measurement instrumentation injected by
/// instrument_mc_delay(): a clock started when the environment issues the
/// input and a pending flag cleared when it observes the output.
struct RequirementProbe {
  ta::ClockId clock = -1;
  ta::VarId pending = -1;
  /// Set when a second input is issued while one is outstanding; delay
  /// measurements are only exact for single outstanding requests.
  ta::VarId overlap = -1;
};

/// Inject M-C delay measurement for `req` into `net` by rewriting the edges
/// of `environment_name`:
///  * every edge sending m_<input> is split on the pending flag — the
///    first outstanding request resets the probe clock, an overlapping one
///    sets the overlap flag;
///  * every edge receiving c_<output> clears the pending flag.
/// Works on both PIMs and PSMs (the environment automaton keeps its channel
/// vocabulary across the transformation).
RequirementProbe instrument_mc_delay(ta::Network& net, const std::string& environment_name,
                                     const TimingRequirement& req);

/// Batch variant: instrument one M-C probe per requirement into `net`, in
/// requirement order, so ONE network (and one verification session over it)
/// serves a whole batch of requirements. Each probe only partitions the
/// relevant send edges on its own pending flag, so additional probes never
/// change the behavior another probe measures — bounds are identical to
/// instrumenting each requirement into its own copy. Probe names are
/// uniquified when requirements share an input base name (names never enter
/// the canonical fingerprint, so naming is purely cosmetic).
std::vector<RequirementProbe> instrument_mc_delays(ta::Network& net,
                                                   const std::string& environment_name,
                                                   const std::vector<TimingRequirement>& reqs);

/// Verify a requirement against the PIM itself (the paper's starting point:
/// PIM |= P(delta_mc)) and compute the exact worst-case M-C delay.
struct PimVerification {
  bool holds = false;           ///< PIM |= P(bound_ms)
  bool bounded = false;         ///< the delay has any finite bound
  std::int64_t max_delay = 0;   ///< exact worst-case M-C delay in the PIM
  mc::ExploreStats stats;       ///< exploration work of the verification
  int explorations = 0;         ///< reachability runs / sweeps performed
  mc::StageCacheStats cache;    ///< persistent-cache accounting (when used)
};
/// `cache`, when given, keys a persistent artifact on the instrumented PIM's
/// canonical fingerprint: a repeat run on an unchanged PIM answers without
/// exploration, and a scheme edit (which only affects the PSM) never
/// invalidates this stage.
PimVerification verify_pim_requirement(const ta::Network& pim, const PimInfo& info,
                                       const TimingRequirement& req,
                                       std::int64_t search_limit = 1'000'000,
                                       mc::ExploreOptions explore = {},
                                       const mc::ArtifactStore* cache = nullptr);

/// Batched stage 1: verify a whole set of requirements against the PIM
/// through ONE probe-instrumented network and one verification session —
/// the sweep engine answers all per-requirement maxima from a single
/// exploration. Verdicts and bounds are identical to N independent
/// verify_pim_requirement() calls (which explore N times). The shared
/// exploration work is reported once in `stats`/`explorations`; each
/// per-requirement entry carries its query's own (shared-attributed) stats.
struct PimBatchVerification {
  std::vector<PimVerification> requirements;  ///< aligned with `reqs`
  mc::ExploreStats stats;     ///< batch exploration work, counted once
  int explorations = 0;       ///< reachability runs / sweeps performed
  mc::StageCacheStats cache;  ///< persistent-cache accounting of the stage
};
PimBatchVerification verify_pim_requirements(const ta::Network& pim, const PimInfo& info,
                                             const std::vector<TimingRequirement>& reqs,
                                             std::int64_t search_limit = 1'000'000,
                                             mc::ExploreOptions explore = {},
                                             const mc::ArtifactStore* cache = nullptr);

/// Session-backed stage 1 for callers that pool sessions (the Verifier
/// service): `session` must wrap the network produced by
/// instrument_mc_delays(pim, ..., reqs), `probes` its return value. All
/// statistics are deltas against the session state at entry, so a pooled
/// (possibly warm) session reports only this batch's work.
PimBatchVerification verify_pim_requirements_in_session(
    mc::VerificationSession& session, const std::vector<RequirementProbe>& probes,
    const std::vector<TimingRequirement>& reqs, std::int64_t search_limit = 1'000'000,
    bool cache_enabled = false);

}  // namespace psv::core
