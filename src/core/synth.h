// Scheme-space synthesis: amortized parallel search over the candidate
// lattice of a parameterized implementation scheme (docs/PIPELINE.md,
// "Scheme synthesis").
//
// A SchemeTemplate (core/scheme.h) spans a lattice: one point per
// combination of its sweep-axis values. The SchemeSynthesizer evaluates the
// lattice against a requirement set through a shared Verifier and emits
//
//   * the Pareto frontier — satisfying candidates (constraints hold, every
//     requirement meets its ORIGINAL bound) not dominated on the
//     per-requirement verified-delay vector by another satisfying
//     candidate;
//   * the feasibility frontier — per requirement, the tightest verified
//     delay any explored constraint-respecting candidate of the family
//     attains ("the tightest bound this scheme family can honour").
//
// The cost model is "one cold exploration plus N cheap warm deltas":
//
//   1. Warm sharing. Every candidate is a constants-only edit of the same
//      scheme skeleton, so all PSM explorations after the first adopt the
//      first candidate's exported passed store. The synthesizer pins that
//      ancestor in the Verifier (Verifier::pin_ancestor) so the fan-out
//      shares ONE read-only PassedStoreExport behind a shared_ptr — no
//      per-candidate re-deserialization, no last-writer races.
//   2. Pruning. Candidates failing the analytic schedulability pre-check
//      (core/schedulability.h) are cut without exploration
//      (pruned_analytic). Candidates dominated in parameter space by an
//      explored candidate EARLIER in visit order that missed a requirement
//      bound are cut before — or cancelled mid-exploration via the
//      cooperative token in mc::ExploreOptions — as guaranteed failures
//      (pruned_dominated):
//      worst-case delays are monotone non-decreasing in every
//      SweepAxis::monotone_worse_up() axis (pure delay-interval ceilings;
//      period and polling interval are deliberately NOT such axes — see
//      SweepAxis), so a candidate that is pointwise >= a bound-missing
//      candidate on those axes (and equal on all others) misses the same
//      bound.
//   3. Ordering. Candidates are visited nearest-neighbour-first in
//      step-normalized parameter space, maximizing ancestor overlap (and
//      letting dominance fences cut whole failing half-spaces early).
//
// Frontier determinism: pruning only ever removes guaranteed-failing
// candidates, and a pruned candidate's dominator chain always ends at an
// explored candidate with pointwise <= delays, so the Pareto set, the
// feasibility minima and their lex-smallest witnesses are identical for
// every worker count and every visit order.
//
// Statistics determinism: with several workers a candidate may be explored
// while its earlier dominator is still in flight. After the fan-out one
// pass in visit order reclassifies every candidate that an earlier explored,
// constraint-respecting, bound-missing candidate dominates as
// pruned_dominated and drops its outcome and statistics (the
// rule mc/query.cpp applies to speculative widening rounds), so the whole
// SynthStats, like every candidate status, equals a one-worker run's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/service.h"

namespace psv::core {

/// Search knobs of one synthesis run.
struct SynthOptions {
  /// Candidate-level worker threads sharing the visit order; 0 picks
  /// min(hardware threads, 8). Each worker runs whole verifications, each
  /// exploration on its own thread; options.explore.jobs > 1 lets a bound
  /// sweep's widening round add up to two more.
  unsigned workers = 0;
  /// Enable analytic + dominance pruning. Disabling explores every
  /// candidate (the frontier is identical; only the work changes).
  bool prune = true;
  /// 0 = nearest-neighbour visit order. Nonzero seeds a deterministic
  /// shuffle instead — the property-test hook proving frontier/visit-order
  /// independence.
  std::uint64_t visit_seed = 0;
};

/// One unit of synthesis work: a model, a scheme template, a requirement
/// set, and the usual pipeline knobs (options.explore.cancel is managed per
/// candidate by the synthesizer and ignored on input).
struct SynthRequest {
  ta::Network pim;
  /// Analyzed PIM structure; analyze_pim(pim) is run when absent.
  std::optional<PimInfo> info;
  SchemeTemplate tmpl;
  std::vector<TimingRequirement> requirements;  ///< at least one
  VerifyOptions options;
  SynthOptions synth;
};

/// What happened to one lattice point.
struct CandidateOutcome {
  enum class Status {
    kExploredCold,     ///< verified without ancestor reuse
    kExploredWarm,     ///< verified warm-starting from the shared ancestor
    kPrunedAnalytic,   ///< cut by the analytic schedulability pre-check
    kPrunedDominated,  ///< cut (or cancelled mid-flight) by a dominator
  };

  std::size_t index = 0;             ///< row-major lattice index
  std::vector<std::int32_t> values;  ///< axis values (aligned with axes)
  std::string name;                  ///< SchemeTemplate::candidate_name
  Status status = Status::kPrunedAnalytic;
  bool constraints_ok = false;       ///< explored only
  /// Constraints hold and every requirement meets its ORIGINAL bound.
  /// (Stricter than RequirementResult::passed, which accepts the relaxed
  /// Lemma-2 bound: synthesis asks which platforms honour the requirement
  /// as stated.)
  bool satisfies = false;
  std::vector<std::int64_t> analytic;  ///< per-req Lemma-1/2 pre-bounds
  std::vector<std::int64_t> delays;    ///< per-req verified M-C maxima (explored only)
  std::vector<std::uint8_t> bounded;   ///< per-req: verified maximum bounded?
  std::vector<std::int64_t> slack;     ///< per-req: bound_ms - delay
  mc::ExploreStats explore;            ///< scheme-stage exploration work
};

const char* to_string(CandidateOutcome::Status status);

/// The --stats-json "synthesis" object.
struct SynthStats {
  std::uint64_t candidates_total = 0;
  std::uint64_t pruned_analytic = 0;
  std::uint64_t pruned_dominated = 0;
  std::uint64_t explored_cold = 0;
  std::uint64_t explored_warm = 0;
  /// Scheme-stage states explored minus warm seed expansions, summed over
  /// every explored candidate — the total cost in cold-equivalent currency.
  std::uint64_t fresh_states = 0;
  std::uint64_t warm_states_reused = 0;
};

/// Per-requirement feasibility: the tightest verified delay any explored
/// constraint-respecting candidate attains.
struct FeasibilityEntry {
  std::string requirement;
  bool bounded = false;
  std::int64_t tightest_ms = 0;  ///< = search limit when no candidate is bounded
  std::string witness;           ///< lex-smallest candidate attaining it; "" if none
  /// Ranked critical traces of the witness candidate's M-C probe — the
  /// realizable worst-case behaviours attaining (or approaching) the
  /// tightest delay, replayable through sim::replay_trace with
  /// `witness_consts`. Filled when options.top_k > 0 and a witness exists;
  /// re-answered through the pooled sessions, so retrieval costs no
  /// exploration.
  std::vector<CriticalTrace> critical;
  std::vector<std::int32_t> witness_consts;
};

/// The synthesis response.
struct SynthReport {
  std::vector<TimingRequirement> requirements;  ///< echo of the request
  std::vector<SweepAxis> axes;                  ///< echo of the template
  std::vector<CandidateOutcome> candidates;     ///< in lattice order
  std::vector<std::size_t> pareto;       ///< candidate indices, ascending
  std::vector<FeasibilityEntry> feasibility;  ///< aligned with requirements
  SynthStats stats;

  /// Greppable frontier lines, deterministic across workers/jobs/order:
  ///   frontier: pareto NAME REQ1=42ms REQ2=107ms
  ///   frontier: feasibility REQ1 tightest=42ms via NAME
  std::string frontier_text() const;

  /// The --slack detail of the feasibility frontier: per requirement, up to
  /// `top_k` ranked critical traces of the witness candidate (most critical
  /// first) — the concrete behaviours showing WHY the family cannot do
  /// better than the tightest bound.
  std::string feasibility_detail(std::size_t top_k) const;

  /// Human-readable run summary: axes, work split, frontier lines.
  std::string summary() const;
};

/// The synthesis driver. Stateless besides the borrowed Verifier, whose
/// session pool and ancestor index do the sharing; one synthesizer may be
/// reused for any number of runs.
class SchemeSynthesizer {
 public:
  explicit SchemeSynthesizer(Verifier& verifier) : verifier_(verifier) {}

  /// Search the lattice. Throws psv::Error on malformed input; individual
  /// invalid candidates (unschedulable corners of the sweep) are pruned,
  /// not errors.
  SynthReport run(const SynthRequest& request);

 private:
  Verifier& verifier_;
};

}  // namespace psv::core
