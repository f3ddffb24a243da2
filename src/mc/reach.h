// Symbolic reachability with inclusion subsumption and diagnostic traces.
//
// The engine explores the zone graph breadth-first, one wave at a time, on
// the calling thread. Every stored state lives in one arena, and its arena
// index is its id; the passed list maps each exact discrete part of a state
// (location vector + variable valuation) to a bucket of live zones:
//
//   * each frontier state is visited, its successors generated, and each
//     successor inserted in turn — an inclusion check against its bucket,
//     then an arena append; accepted states form the next frontier in
//     exploration order, so a state's id is also its export ordinal;
//   * only live zones are expanded (the passed/waiting rule of Bengtsson &
//     Yi): a stored zone evicted from its bucket by a later, larger zone with
//     the same discrete state is marked dead and dropped from the next
//     frontier. Dead entries stay in the arena for parent chains and the
//     export, but are never visited or expanded, so `states_explored` counts
//     live zones only. A state of the current frontier evicted by a
//     sibling's successor is still expanded: the wave was fixed when it
//     began.
//
// One wave loop answers every question the engine is asked:
//
//   * a full sweep (explore_all) visits every live state and runs until the
//     frontier empties;
//   * goal search (reachable) stops at the first live frontier state, in
//     exploration order, that satisfies the goal, before that wave expands;
//   * every run records the first timelocked and the first quiescent live
//     state (a successor-free zone is a timelock when its locations bound
//     time, SuccGen::time_bounded — never read off the Extra_LU⁺-abstracted
//     zone, which may have lost an invariant's bound; a zone covered by
//     another with the same discrete state is never checked), so deadlock
//     search (find_deadlock) is the full sweep itself and one exploration
//     answers the deadlock question, the C1–C4 flags and the bound maxima
//     together.
//
// ExploreOptions::max_states is checked on every insert: the insert that
// would store one state more than the cap throws, for every query kind.
//
// Trace reconstruction follows parent ids back to the initial state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mc/explore_options.h"
#include "mc/state.h"
#include "mc/store.h"
#include "mc/succ.h"

namespace psv::mc {

/// One step of a diagnostic trace.
struct TraceStep {
  std::string label;  ///< participating edges ("A.l1->l2[c!] ~ B.l3->l4[c?]")
  std::string state;  ///< rendered successor state
};

/// Diagnostic trace from the initial state to a goal state.
struct Trace {
  std::vector<TraceStep> steps;
  std::string to_string() const;
};

/// Result of a reachability query.
struct ReachResult {
  bool reachable = false;
  Trace trace;  ///< meaningful when reachable
  ExploreStats stats;
};

/// Result of deadlock detection over a full sweep. The first timelock (no
/// action possible AND an invariant or urgency stops time) in exploration
/// order is reported; plain quiescence (no action possible but time
/// diverges) is reported only when no timelock is reachable, so a benign
/// quiescent corner never masks a timelock. `stats` are the full sweep's.
struct DeadlockResult {
  bool found = false;
  /// True when the reported state has a time-blocked zone (timelock);
  /// false for quiescence.
  bool timelock = false;
  Trace trace;
  ExploreStats stats;
};

/// Single-call reachability: is some state satisfying `goal` reachable in
/// `net`? The trace leads to the first such state in exploration order.
ReachResult reachable(const ta::Network& net, const StateFormula& goal, ExploreOptions opts = {});

/// Breadth-first symbolic reachability over a network.
///
/// The engine owns nothing of the network; it may be constructed per query.
/// Query clock constants go into both the L and the U constants of the
/// Extra_LU⁺ extrapolation (SuccGen), so each query remains exact for the
/// constraints it mentions.
class Reachability {
 public:
  /// `extra_clock_consts` (entry per clock, -1 = none) extends the L and U
  /// extrapolation constants beyond what the network and the goal formula
  /// mention — the sweep bound engine uses this to keep a probe clock's
  /// upper bounds exact up to its current widening candidate.
  Reachability(const ta::Network& net, const StateFormula& goal, ExploreOptions opts = {},
               std::vector<std::int32_t> extra_clock_consts = {});

  Reachability(const Reachability&) = delete;
  Reachability& operator=(const Reachability&) = delete;

  /// Receives each visited state with its store id, usable with trace_of()
  /// to rebuild a witness afterwards. Called from the calling thread, in
  /// exploration order. The state reference is valid only during the call.
  using Visitor = std::function<void(const SymState&, std::uint64_t)>;

  /// Explore the full (subsumption-reduced) state space, invoking `visit`
  /// on every live state (a zone a larger one covers before its expansion
  /// is skipped). The sweep bound engine records the ids of the states
  /// attaining its maxima this way.
  ExploreStats explore_all(const Visitor& visit);

  /// Diagnostic trace from the initial state to a stored state, by the id
  /// handed to a visitor. Valid until the engine dies.
  Trace trace_of(std::uint64_t id) const { return build_trace(id); }

  /// Batched trace_of: materialize one trace per id, index-aligned. The
  /// sweep bound engine retains the ids of the K ranked states attaining
  /// the top probe-clock maxima and materializes their traces here before
  /// the engine dies.
  std::vector<Trace> traces_of(const std::vector<std::uint64_t>& ids) const;

  /// Deadlock search: the explore_all sweep, reporting the first timelock,
  /// else the first quiescent state. The optional `visit` callback sees
  /// every live state, letting callers piggyback analyses on the same
  /// exploration — the batch sweep runs the deadlock search, the C1–C4 flag
  /// recording, AND the bound-query maxima off this one exploration.
  DeadlockResult find_deadlock(const Visitor& visit = nullptr);

  /// Record everything a passed-store export needs beyond the always-kept
  /// participating edges (pre-extrapolation zones, subsumption covers)
  /// during the next exploration. Must be called before any run; adds
  /// memory per stored state but no algorithmic cost.
  void enable_capture();

  /// Warm-start the next exploration from an ancestor store produced by a
  /// skeleton-equal network. Each entry's zone is re-derived exactly under
  /// THIS network; states whose neighbourhood is provably untouched by the
  /// edit are seeded as closed (never re-expanded), the rest seed the first
  /// frontier. Falls back to a cold start (silently) when the store does
  /// not match. The pointee must outlive the run.
  void set_ancestor(const PassedStoreExport* ancestor) { ancestor_ = ancestor; }

  /// The live passed list of the last run: every stored zone that no larger
  /// zone with the same discrete state evicted, in no particular order.
  /// Pointers stay valid until the engine dies. An independent checker
  /// (tests/support/certificate.h) certifies a run's verdicts from this
  /// list alone.
  std::vector<const SymState*> live_states() const;

  /// The store exported by the last capture-mode explore_all /
  /// find_deadlock run; empty when capture was off.
  std::optional<PassedStoreExport> take_export() { return std::move(export_); }

 private:
  friend ReachResult reachable(const ta::Network& net, const StateFormula& goal,
                               ExploreOptions opts);

  static constexpr std::uint64_t kNoParent = kNoStoreParent;

  struct Stored {
    SymState state;
    std::uint64_t parent;        ///< arena index, kNoParent for initial
    std::vector<EdgeRef> edges;  ///< participating edges leading here, firing order
    // Capture-mode extras (default when capture is off).
    dbm::Dbm pre_zone{0};        ///< pre-extrapolation zone when pre_differs
    bool pre_differs = false;
    /// Evicted from its bucket by a larger zone: kept for parent chains,
    /// never visited or expanded.
    bool dead = false;
  };

  /// The key of a passed-list bucket: one exact discrete part (locations +
  /// variables) with its discrete_hash. The map compares the parts, so two
  /// discrete states whose hashes collide get separate buckets.
  struct DiscreteKey {
    std::vector<ta::LocId> locs;
    std::vector<std::int64_t> vars;
    std::size_t hash = 0;
  };
  /// Looks a state's bucket up without copying its discrete part.
  struct DiscreteProbe {
    const SymState& state;
    std::size_t hash = 0;
  };
  struct DiscreteHash {
    using is_transparent = void;
    std::size_t operator()(const DiscreteKey& key) const { return key.hash; }
    std::size_t operator()(const DiscreteProbe& probe) const { return probe.hash; }
  };
  struct DiscreteEq {
    using is_transparent = void;
    bool operator()(const DiscreteKey& a, const DiscreteKey& b) const {
      return a.locs == b.locs && a.vars == b.vars;
    }
    bool operator()(const DiscreteProbe& a, const DiscreteKey& b) const {
      return a.state.locs == b.locs && a.state.vars == b.vars;
    }
    bool operator()(const DiscreteKey& a, const DiscreteProbe& b) const { return (*this)(b, a); }
  };

  /// A live zone of a bucket: its arena index and its matrix, which points
  /// into that Stored's own zone buffer. Arena growth keeps the buffer only
  /// because it moves entries instead of copying them.
  static_assert(std::is_nothrow_move_constructible_v<Stored>);
  struct LiveZone {
    const dbm::raw_t* matrix;
    std::uint32_t index;
  };
  /// The live zones of one discrete state in insertion order: an antichain
  /// under inclusion.
  using Bucket = std::vector<LiveZone>;

  /// Insert a successor of `parent`: subsumption check, live-list update,
  /// arena append. Returns the new id if stored, nullopt if subsumed.
  std::optional<std::uint64_t> insert(SymSuccessor&& succ, std::uint64_t parent);

  /// The bucket of `state`'s discrete part, created empty on first use.
  Bucket& bucket_of(const SymState& state);

  /// The one inclusion pass over `bucket`: the arena index of the first live
  /// zone that includes `zone`, if any; otherwise every live zone `zone`
  /// includes leaves the bucket and is marked dead. The caller appends
  /// `zone` itself once it is stored.
  std::optional<std::uint32_t> cover_or_evict(Bucket& bucket, const dbm::Dbm& zone);

  /// Store the initial state and seed the frontier.
  void seed_initial();

  /// What ends a run of the wave loop before the frontier empties.
  enum class Stop {
    kNever,  ///< full sweep
    kGoal,   ///< first live frontier state satisfying goal_
  };
  /// What a run of the wave loop found, each first in exploration order.
  struct WaveEnd {
    std::optional<std::uint64_t> goal;       ///< goal state (kGoal)
    std::optional<std::uint64_t> timelock;   ///< successor-free, time blocked
    std::optional<std::uint64_t> quiescent;  ///< successor-free, time diverges
  };

  /// The one wave loop: seed (warm or cold), then per wave stop at the
  /// first goal state (kGoal), and visit, expand and insert the successors
  /// of each frontier state in turn, recording the first timelock and
  /// quiescent state. Only a run that empties the frontier exports its
  /// store.
  WaveEnd run_waves(const Visitor& visit, Stop stop);

  ExploreStats snapshot_stats() const;

  Trace build_trace(std::uint64_t id) const;

  /// Import the ancestor store (set_ancestor): re-derive every entry's zone
  /// under this network in ordinal order, seed the arena, visit live seeds,
  /// and assemble the first frontier from the live, non-closed ones. Returns
  /// false (leaving the engine untouched) when the store does not fit this
  /// network — the caller then seeds cold. Childless cover-less seeds are
  /// always expanded: the ancestor may never have expanded them (they were
  /// dead there, and the edit may have revived them), and quiescence and
  /// timelocks are re-detected by actual generation, never trusted.
  bool seed_from_store(const Visitor& visit);

  /// Assemble the export of a completed capture run.
  PassedStoreExport build_export() const;

  const ta::Network& net_;
  StateFormula goal_;
  ExploreOptions opts_;
  SuccGen gen_;

  std::vector<Stored> arena_;  ///< every stored state; the index is its id
  /// Exact discrete state -> its live (non-dead) zones.
  std::unordered_map<DiscreteKey, Bucket, DiscreteHash, DiscreteEq> passed_;
  std::vector<std::uint64_t> frontier_;  ///< ids, exploration order
  ExploreStats stats_;  ///< snapshot_stats adds states_stored

  // Incremental-exploration state (enable_capture / set_ancestor).
  bool capture_ = false;
  const PassedStoreExport* ancestor_ = nullptr;
  /// Capture mode: (parent id, subsumer id) recorded whenever the
  /// subsumption check pruned a successor — the export needs them to
  /// justify skipping closed states on a warm start.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover_events_;
  std::optional<PassedStoreExport> export_;
};

}  // namespace psv::mc
