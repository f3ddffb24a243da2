// High-level timing queries built on symbolic reachability.
//
// The paper's verification steps reduce to three query shapes:
//   * safety            — A[] !bad                  (buffer overflow, missed input)
//   * bounded response  — the maximum value a clock can reach while a
//                         condition holds (M-C delay, Input-Delay, ...)
//   * deadlock freedom  — sanity of constructed PSMs
//
// Maximum clock values are answered by the sweep engine: explore the state
// space ONCE and track, per symbolic state satisfying pred, the DBM upper
// bound of the probe clock. A finite upper bound below the extrapolation
// constant is exact; an abstracted (infinite) one triggers a
// widen-and-refine re-exploration with larger constants. A whole batch of
// queries is answered from the same exploration, and the same pass retains
// the top-K ranked extremal witness traces per query (BoundQuery::top_k) at
// no extra exploration cost — the slack/critical-path analysis layer
// (core/analysis.h) is built on these. An independent reference oracle
// (gallop + binary search over reachability checks) lives with the tests
// (tests/support/probe_oracle.h), which hold the sweep to bit-identical
// bounds against it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mc/reach.h"

namespace psv::mc {

/// Default number of ranked extremal witnesses a bound query retains.
inline constexpr int kDefaultTopK = 4;
/// Hard cap on BoundQuery::top_k (bounds the trace payload per query in
/// memory and in the on-disk artifact format).
inline constexpr int kMaxTopK = 16;

/// One retained extremal witness: a reachable stored state whose probe-clock
/// upper bound is `value`, with the diagnostic trace leading to it.
struct RankedWitness {
  std::int64_t value = 0;
  Trace trace;
};

/// Result of a maximum-clock-value query.
struct MaxClockResult {
  /// False when the value exceeds the search limit (treated as unbounded).
  bool bounded = false;
  /// The least D such that A[](pred => clock <= D); valid when bounded.
  std::int64_t bound = 0;
  /// A witness trace reaching clock == bound (the first stored state
  /// attaining the maximum), empty when the condition itself is unreachable.
  Trace witness;
  /// True when no state satisfying `pred` is reachable at all (bound = 0).
  bool condition_unreachable = false;
  /// Up to BoundQuery::top_k ranked extremal witnesses, most critical first
  /// (probe-clock value descending; ties keep exploration order, so the
  /// ranking is bit-identical at every `jobs` count). When bounded and the
  /// condition is reachable, ranked.front() is the maximum: its value equals
  /// `bound` and its trace renders the same states as `witness`. Empty when
  /// top_k == 0, when the condition is unreachable, or when the value is
  /// unbounded.
  std::vector<RankedWitness> ranked;
  /// Extra extrapolation constants (one entry per network clock, -1 = none)
  /// in effect for the exploration that materialized `witness` and `ranked`.
  /// Feeding them to sim::replay_trace reproduces the recorded symbolic
  /// states bit-exactly (extrapolation affects zone rendering). Empty when
  /// there is no witness.
  std::vector<std::int32_t> witness_consts;
  /// Aggregated statistics over every exploration that served this query.
  /// Batched sweep queries share explorations, so summing stats across a
  /// batch counts the shared work once per query.
  ExploreStats stats;
  /// Number of full-space sweeps performed for this query.
  int probes = 0;
};

/// One maximum-clock query of a batch: the paper's delay measurements reset
/// `clock` at the triggering event and read it while `pred` holds. `hint`
/// seeds the search (the first widening candidate); `limit` caps it — values
/// above report bounded = false.
struct BoundQuery {
  StateFormula pred;
  ta::ClockId clock = -1;
  std::int64_t limit = 1'000'000;
  std::int64_t hint = 1024;
  /// Ranked extremal witnesses to retain (clamped to [0, kMaxTopK]); 0
  /// keeps only the plain maximum/witness. Retention never changes the
  /// explored state space or the bound — only the result payload — but it
  /// is part of the query identity for caching (results with different
  /// top_k carry different payloads, so their cache digests differ).
  int top_k = kDefaultTopK;
};

/// Aggregate work of one max_clock_values batch, counting every shared
/// exploration ONCE (per-query MaxClockResult stats attribute shared work
/// to each query they served, so summing them over-counts).
struct BatchQueryStats {
  ExploreStats explore;
  int explorations = 0;
};

/// Flag/deadlock results piggybacked on a sweep batch's round-0 exploration
/// (the batch planner's "one probe-instrumented sweep answers everything"):
/// while the sweep reads the probe-clock maxima off every stored state, the
/// same exploration records which variables ever reach value 1 (the C1–C4
/// sticky flags are a subset) and runs the deadlock/timelock search.
struct FlagSweepOutcome {
  /// True when a combined exploration ran (set by every batch that explores;
  /// stays false when the caller never passed it to one).
  bool ran = false;
  /// False when a timelock aborted the shared sweep before the full space
  /// was visited: `deadlock` is definitive but `var_seen_one` is not (same
  /// contract as VerificationSession::FlagReport::shared_sweep). The bound
  /// results are NOT affected — on an aborted round 0 the sweep re-runs
  /// without the piggyback, so bounds always come from complete sweeps.
  bool valid = false;
  std::vector<std::uint8_t> var_seen_one;  ///< per VarId: some state has v == 1
  DeadlockResult deadlock;
};

/// Incremental-exploration hookup of a query batch. `ancestor` warm-starts
/// every sweep of the batch from a store persisted by a skeleton-equal
/// network (falls back to cold silently on any mismatch); the passed store
/// of the last accounted COMPLETE sweep is exported into `exported` — the
/// store a later structurally-related verification warm-starts from.
/// Bounds, verdicts and the maximum witness value are bit-identical with and
/// without an ancestor; witness TRACES and sub-maximal ranked entries may
/// legitimately differ (warm and cold runs store different — equally valid
/// — covering families of the same reachable space).
struct WarmContext {
  const PassedStoreExport* ancestor = nullptr;  ///< must outlive the call
  std::optional<PassedStoreExport> exported;  ///< out: empty when nothing completed
};

/// Answer a batch of maximum-clock queries. Each full-space exploration is
/// shared across the whole batch — one sweep typically answers every query
/// — and the refine-loop candidates run in parallel. Results are
/// index-aligned with `queries`.
/// `batch_stats`, when given, receives the batch's total work. `flags`,
/// when given, requests the combined flag/deadlock sweep described above.
/// `warm`, when given, enables the incremental-exploration hookup above.
std::vector<MaxClockResult> max_clock_values(const ta::Network& net,
                                             const std::vector<BoundQuery>& queries,
                                             ExploreOptions opts = {},
                                             BatchQueryStats* batch_stats = nullptr,
                                             FlagSweepOutcome* flags = nullptr,
                                             WarmContext* warm = nullptr);

/// Compute the maximum value `clock` can take over all reachable states
/// satisfying `pred` (the paper's delay measurements: reset the clock at the
/// triggering event, read it while the response is pending).
///
/// `limit` caps the search; values above it report bounded = false.
///
/// `hint` seeds the search (e.g. an analytic bound): the first sweep uses it
/// as the widening candidate, which keeps the extrapolation constants (and
/// hence the explored state space) close to the true bound instead of the
/// limit.
MaxClockResult max_clock_value(const ta::Network& net, const StateFormula& pred,
                               ta::ClockId clock, std::int64_t limit = 1'000'000,
                               ExploreOptions opts = {}, std::int64_t hint = 1024);

/// Check the bounded-response property P(delta): whenever `pending` holds,
/// `clock` stays <= delta  (A[](pending => clock <= delta)).
struct BoundedResponseResult {
  bool holds = false;
  /// Violation witness when !holds.
  Trace violation;
  ExploreStats stats;
};
BoundedResponseResult check_bounded_response(const ta::Network& net, const StateFormula& pending,
                                             ta::ClockId clock, std::int64_t delta,
                                             ExploreOptions opts = {});

}  // namespace psv::mc
