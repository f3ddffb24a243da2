// Delay-bound analysis — the paper's §V (Lemmas 1 and 2).
//
// Two independent routes to the platform-specific delay bounds:
//   * analytic (Lemma 1): closed-form worst cases from the scheme's
//     parameters — detection + processing + invocation wait for the
//     Input-Delay, device processing for the Output-Delay;
//   * verified: exact maxima model-checked on the PSM via the injected
//     probe clocks (t_mi_X, t_oc_Y, t_mc).
// Lemma 2 combines them into the relaxed end-to-end bound
//     delta'_mc = delta_mi + delta_oc + delta_io_internal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.h"
#include "mc/query.h"
#include "mc/session.h"

namespace psv::core {

/// One delay figure computed both ways.
struct DelayBound {
  std::string name;            ///< e.g. "Input-Delay(BolusReq)"
  std::int64_t analytic = 0;   ///< Lemma-1 closed form
  std::int64_t verified = 0;   ///< exact model-checked maximum
  bool verified_bounded = false;
};

/// Complete §V analysis for one timing requirement.
struct BoundAnalysis {
  std::vector<DelayBound> input_delays;   ///< per monitored variable
  std::vector<DelayBound> output_delays;  ///< per controlled variable
  /// Maximum internal delay of the PIM for the requirement's input/output
  /// pair (the PIM's own verified M-C bound).
  std::int64_t io_internal = 0;
  /// Lemma 2: input bound + output bound + io_internal for the
  /// requirement's pair.
  std::int64_t lemma2_total = 0;
  /// Exact model-checked worst-case M-C delay of the PSM.
  std::int64_t verified_mc_delay = 0;
  bool verified_mc_bounded = false;

  std::string to_string() const;
};

/// One retained critical trace of a requirement's end-to-end M-C probe: a
/// concrete system behaviour attaining `delay_ms` (the closer to the
/// requirement bound, the more critical). Replayable bit-exactly through
/// sim::replay_trace with the result's witness_consts.
struct CriticalTrace {
  std::int64_t delay_ms = 0;  ///< probe-clock value the trace attains
  std::int64_t slack_ms = 0;  ///< requirement bound - delay_ms
  mc::Trace trace;
};

/// STA-style margin analysis of one requirement: how far the verified
/// worst case sits from the requirement bound.
struct RequirementSlack {
  std::string requirement;            ///< requirement name
  std::int64_t requirement_ms = 0;    ///< the requirement's bound (delta_mc)
  std::int64_t verified_ms = 0;       ///< exact M-C maximum (= search limit when unbounded)
  bool bounded = false;               ///< false: maximum exceeds the search limit
  /// requirement_ms - verified_ms. Negative means the requirement is
  /// violated; when !bounded this uses the search limit, so it is an upper
  /// bound on the true (even more negative) slack.
  std::int64_t slack_ms = 0;
  /// Top-K critical traces, most critical (highest delay) first.
  std::vector<CriticalTrace> critical;
  /// Extra extrapolation constants of the exploration that recorded the
  /// critical traces (all of one requirement's traces share one
  /// exploration). Feed to sim::replay_trace for bit-exact replay.
  std::vector<std::int32_t> witness_consts;
};

/// Batch slack report for one scheme: per-requirement margins plus the
/// binding ("tightest constraint") attribution — the requirement with the
/// least slack, i.e. the one that fails first as the scheme degrades.
struct SlackReport {
  std::vector<RequirementSlack> requirements;  ///< aligned with the request
  std::size_t binding_index = 0;  ///< argmin slack_ms (first on ties)
  std::int64_t min_slack_ms = 0;
  bool any_unbounded = false;

  const RequirementSlack& binding() const { return requirements.at(binding_index); }
  /// Greppable per-requirement "slack:" lines, the binding one marked;
  /// `top_k` > 0 additionally renders up to that many critical traces per
  /// requirement.
  std::string to_string(std::size_t top_k = 0) const;
};

/// Compute the slack report from a decoded batch. `mc_answers` are the
/// requirement-aligned end-to-end M-C answers (the per-requirement tail of
/// a BoundQueryPlan's answer vector); their ranked witnesses become the
/// critical traces.
SlackReport compute_slack_report(const std::vector<TimingRequirement>& reqs,
                                 const std::vector<mc::MaxClockResult>& mc_answers,
                                 std::int64_t search_limit);

/// Lemma-1 closed form for the Input-Delay of one monitored variable:
///   [polling_interval]            (polled detection)
/// + delay_max                     (Input-Device processing)
/// + invocation wait               (period + read stage, or the cycle
///                                  remainder under aperiodic invocation)
std::int64_t analytic_input_delay_bound(const ImplementationScheme& scheme,
                                        const std::string& input_base);

/// Lemma-1 closed form for the Output-Delay of one controlled variable:
/// the Output-Device processing bound (delivery itself is immediate; the
/// model checker additionally covers backlog interleavings).
std::int64_t analytic_output_delay_bound(const ImplementationScheme& scheme,
                                         const std::string& output_base);

/// A PSM with every §V probe instrumented up front: the per-variable
/// input/output probes come with the transformation already; this adds the
/// end-to-end M-C requirement probe, so one network (and one verification
/// session over it) serves the complete query load of the analysis.
struct InstrumentedPsm {
  ta::Network net;
  RequirementProbe mc_probe;
};
InstrumentedPsm instrument_psm_for_requirement(const PsmArtifacts& psm,
                                               const TimingRequirement& req);

/// Batch variant: ONE copy of the PSM carrying the end-to-end M-C probe of
/// every requirement (plus the per-variable probes that come with the
/// transformation), so a single verification session serves the complete
/// query load of a whole requirement batch. A batch of one instruments the
/// network identically to instrument_psm_for_requirement.
struct InstrumentedPsmBatch {
  ta::Network net;
  std::vector<RequirementProbe> mc_probes;  ///< aligned with the batch
};
InstrumentedPsmBatch instrument_psm_for_requirements(const PsmArtifacts& psm,
                                                     const std::vector<TimingRequirement>& reqs);

/// The batch planner's §V query plan: the per-variable Input-/Output-Delay
/// queries (requirement-independent — issued ONCE for the whole batch)
/// followed by one end-to-end M-C query per requirement, hint-seeded with
/// the Lemma-1/Lemma-2 closed forms. Feed `queries` to one session call
/// (e.g. VerificationSession::verify_batch) and decode with
/// assemble_bound_analyses.
struct BoundQueryPlan {
  std::vector<mc::BoundQuery> queries;
  /// Lemma-2 totals per requirement (analytic input + output bound of the
  /// requirement's pair + its PIM-internal bound).
  std::vector<std::int64_t> lemma2_totals;
};
/// `top_k` sets every query's ranked-witness retention depth (clamped to
/// [0, mc::kMaxTopK]) — the critical-trace feed of compute_slack_report.
BoundQueryPlan plan_bound_queries(const PsmArtifacts& psm,
                                  const std::vector<RequirementProbe>& mc_probes,
                                  const std::vector<TimingRequirement>& reqs,
                                  const std::vector<std::int64_t>& pim_internal_bounds,
                                  std::int64_t search_limit, int top_k = mc::kDefaultTopK);

/// Decode one batch of query answers (index-aligned with plan.queries) into
/// per-requirement BoundAnalysis values. Per-variable delays are shared
/// across the batch; the M-C figures are per requirement.
std::vector<BoundAnalysis> assemble_bound_analyses(
    const BoundQueryPlan& plan, const PsmArtifacts& psm,
    const std::vector<TimingRequirement>& reqs,
    const std::vector<std::int64_t>& pim_internal_bounds,
    const std::vector<mc::MaxClockResult>& answers, std::int64_t search_limit);

/// Run the full §V analysis: analytic bounds for every variable, verified
/// bounds via the PSM probes, the PIM's internal bound, and the Lemma-2
/// total for `req`. `psm` is copied internally for M-C instrumentation.
BoundAnalysis analyze_bounds(const PsmArtifacts& psm, std::int64_t pim_internal_bound,
                             const TimingRequirement& req,
                             std::int64_t search_limit = 1'000'000,
                             mc::ExploreOptions explore = {});

/// Session-backed variant: every verified bound — all per-variable
/// input/output delay maxima and the end-to-end M-C delay — is answered as
/// ONE batched query through `session`, which must wrap the network of
/// instrument_psm_for_requirement(psm, req). The sweep engine answers the
/// whole batch from a single shared exploration (plus rare refinement
/// rounds) instead of one gallop-and-bisect run per variable.
BoundAnalysis analyze_bounds(mc::VerificationSession& session, const PsmArtifacts& psm,
                             const RequirementProbe& mc_probe, std::int64_t pim_internal_bound,
                             const TimingRequirement& req, std::int64_t search_limit = 1'000'000);

}  // namespace psv::core
