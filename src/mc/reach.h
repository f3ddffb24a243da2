// Symbolic reachability with inclusion subsumption and diagnostic traces.
//
// The engine explores the zone graph in breadth-first waves over a sharded
// passed/waiting store, hash-partitioned by the discrete part of the state
// (location vector + variable valuation):
//
//   * successor generation for the whole frontier fans out over a
//     work-stealing worker pool (zone algebra dominates the cost);
//   * inclusion-subsumption checks and insertions are shard-local — each
//     shard is owned by exactly one worker per insertion phase, so the hot
//     path needs no lock at all, not even a per-shard mutex;
//   * every successor carries a deterministic rank (frontier index,
//     successor index); shards insert in rank order and the next frontier
//     is assembled rank-sorted, so stores, statistics, traces, and verified
//     bounds are BIT-IDENTICAL for every thread count — `jobs` only changes
//     wall-clock time, never a result;
//   * only live zones are expanded (the passed/waiting rule of Bengtsson &
//     Yi): a stored zone evicted from its bucket by a later, larger zone with
//     the same discrete state is marked dead and dropped from every frontier
//     assembled afterwards. Dead entries stay in the arena (and in the
//     export's ordinal order) for parent chains, but are never visited or
//     expanded, so `states_explored` counts live zones only. The dead bit is
//     written by the shard's owner during insertion and read after the wave
//     barrier, so it is identical for every thread count.
//
// One wave loop answers every question the engine is asked:
//
//   * a full sweep (explore_all) visits every live state and runs until the
//     frontier empties;
//   * goal search (reachable) stops at the first live frontier state, in
//     exploration order, that satisfies the goal, before that wave expands;
//   * every run records, in rank order, the first timelocked and the first
//     quiescent live state (a successor-free zone is checked for blocked
//     time; a zone covered by another with the same discrete state is never
//     checked), so deadlock search (find_deadlock) is the full sweep itself
//     and one exploration answers the deadlock question, the C1–C4 flags
//     and the bound maxima together.
//
// ExploreOptions::max_states is checked at wave barriers: a wave that
// crosses the cap throws, for every query kind and every thread count.
//
// Trace reconstruction follows parent-pointer records (packed shard+index
// ids) back to the initial state.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mc/explore_options.h"
#include "mc/state.h"
#include "mc/store.h"
#include "mc/succ.h"
#include "mc/worker_pool.h"

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
/// Query clock constants are merged into the extrapolation constants so each
/// query remains exact for the constraints it mentions.
class Reachability {
 public:
  /// `extra_clock_consts` (entry per clock, -1 = none) extends the
  /// extrapolation constants beyond what the network and the goal formula
  /// mention — the sweep bound engine uses this to keep a probe clock's
  /// upper bounds exact up to its current widening candidate.
  Reachability(const ta::Network& net, const StateFormula& goal, ExploreOptions opts = {},
               std::vector<std::int32_t> extra_clock_consts = {});
  ~Reachability();

  Reachability(const Reachability&) = delete;
  Reachability& operator=(const Reachability&) = delete;

  /// Receives each visited state with its packed store id, usable with
  /// trace_of() to rebuild a witness afterwards. Always called sequentially
  /// from the calling thread, in deterministic exploration order —
  /// callbacks need no synchronization.
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
  /// the engine dies; ids come from deterministic exploration order, so the
  /// materialized rankings are bit-identical at every thread count.
  std::vector<Trace> traces_of(const std::vector<std::uint64_t>& ids) const;

  /// Deadlock search: the explore_all sweep, reporting the first timelock,
  /// else the first quiescent state. The optional `visit` callback sees
  /// every live state, letting callers piggyback analyses on the same
  /// exploration — the batch sweep runs the deadlock search, the C1–C4 flag
  /// recording, AND the bound-query maxima off this one exploration.
  DeadlockResult find_deadlock(const Visitor& visit = nullptr);

  /// Record everything a passed-store export needs beyond the always-kept
  /// participating edges (pre-extrapolation zones, deterministic insertion
  /// order, subsumption covers) during the next exploration. Must be called
  /// before any run; adds memory per stored state but no algorithmic cost.
  void enable_capture();

  /// Warm-start the next exploration from an ancestor store produced by a
  /// skeleton-equal network. Each entry's zone is re-derived exactly under
  /// THIS network; states whose neighbourhood is provably untouched by the
  /// edit are seeded as closed (never re-expanded), the rest seed the first
  /// frontier. Falls back to a cold start (silently) when the store does
  /// not match. The pointee must outlive the run.
  void set_ancestor(const PassedStoreExport* ancestor) { ancestor_ = ancestor; }

  /// The store exported by the last capture-mode explore_all /
  /// find_deadlock run; empty when capture was off.
  std::optional<PassedStoreExport> take_export() { return std::move(export_); }

 private:
  friend ReachResult reachable(const ta::Network& net, const StateFormula& goal,
                               ExploreOptions opts);

  /// Shard count of the passed/waiting store. Fixed (independent of `jobs`)
  /// so the shard assignment — and with it every bucket's insertion
  /// sequence — never depends on the thread count. Power of two.
  static constexpr std::size_t kNumShards = 64;
  static constexpr std::size_t kShardBits = std::bit_width(kNumShards - 1);
  static_assert((kNumShards & (kNumShards - 1)) == 0, "shard count must be a power of two");
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  struct Stored {
    SymState state;
    std::uint64_t parent;        ///< packed id, kNoParent for initial
    std::vector<EdgeRef> edges;  ///< participating edges leading here, firing order
    // Capture-mode extras (default when capture is off).
    dbm::Dbm pre_zone{0};        ///< pre-extrapolation zone when pre_differs
    bool pre_differs = false;
    /// Evicted from its bucket by a larger zone: kept for parent chains,
    /// never visited or expanded. Written only by the owning shard.
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

  /// One hash partition of the passed/waiting store. During a parallel
  /// insertion phase each shard is touched by exactly one worker
  /// ("owner-computes"), so no per-shard lock is needed.
  struct Shard {
    std::vector<Stored> arena;
    /// Exact discrete state -> its live (non-dead) zones.
    std::unordered_map<DiscreteKey, Bucket, DiscreteHash, DiscreteEq> passed;
    std::size_t subsumed = 0;
    /// (rank, id) pairs accepted in the current wave, rank-ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accepted;
    /// Ranks ((frontier index << 32) | successor index) routed to this
    /// shard in the current wave, rank-ascending.
    std::vector<std::uint64_t> pending;
    /// Capture mode: (parent id, subsumer id) recorded whenever this
    /// shard's subsumption check pruned a successor — the export needs them
    /// to justify skipping closed states on a warm start.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover_events;
  };

  /// One generated successor, with its discrete hash precomputed so
  /// insertion stays pure bookkeeping.
  struct GenSucc {
    SymState state;
    std::size_t hash = 0;
    std::vector<EdgeRef> edges;
    // Capture-mode extras, forwarded from SymSuccessor into the store.
    dbm::Dbm pre_zone{0};
    bool pre_differs = false;
  };

  static std::uint64_t pack_id(std::size_t shard, std::size_t index) {
    return (static_cast<std::uint64_t>(index) << kShardBits) | static_cast<std::uint64_t>(shard);
  }
  const Stored& stored(std::uint64_t id) const {
    return shards_[id & (kNumShards - 1)].arena[id >> kShardBits];
  }

  /// Insert into the owning shard: subsumption check, live-list update,
  /// arena append. Returns the packed id if stored, nullopt if subsumed.
  /// Thread-safe only under the owner-computes discipline (one thread per
  /// shard at a time).
  std::optional<std::uint64_t> insert(GenSucc&& gs, std::uint64_t parent);

  /// The bucket of `state`'s discrete part (`hash` = its discrete_hash),
  /// created empty on first use.
  static Bucket& bucket_of(Shard& shard, const SymState& state, std::size_t hash);

  /// The one inclusion pass over `bucket`: the arena index of the first live
  /// zone that includes `zone`, if any; otherwise every live zone `zone`
  /// includes leaves the bucket and is marked dead. The caller appends
  /// `zone` itself once it is stored.
  static std::optional<std::uint32_t> cover_or_evict(Shard& shard, Bucket& bucket,
                                                     const dbm::Dbm& zone);

  /// Store the initial state and seed the frontier.
  void seed_initial();

  /// What ends a run of the wave loop before the frontier empties.
  enum class Stop {
    kNever,  ///< full sweep
    kGoal,   ///< first live frontier state satisfying goal_
  };
  /// What a run of the wave loop found, each first in rank order.
  struct WaveEnd {
    std::optional<std::uint64_t> goal;       ///< goal state (kGoal)
    std::optional<std::uint64_t> timelock;   ///< successor-free, time blocked
    std::optional<std::uint64_t> quiescent;  ///< successor-free, time diverges
  };

  /// The one wave loop: seed (warm or cold), then per wave stop at the
  /// first goal state (kGoal), generate successors, visit the live frontier
  /// in rank order recording the first timelock and quiescent state, and
  /// insert the wave. Only a run that empties the frontier exports its
  /// store.
  WaveEnd run_waves(const Visitor& visit, Stop stop);

  /// Generate successors for the whole frontier in parallel into
  /// wave_succs_, and the timelock-ness of successor-free states into
  /// wave_blocked_.
  void generate_wave();

  /// Insert the whole wave shard-parallel in rank order, check the state
  /// cap, and assemble the next frontier (rank-sorted). Accounts
  /// states_explored / transitions_fired for the full wave.
  void insert_wave();

  /// Run body(i) for i in [0, n) on the pool (created lazily) or inline.
  void run_parallel(std::size_t n, const std::function<void(std::size_t)>& body);

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
  unsigned jobs_ = 1;  ///< resolved thread count (opts_.jobs, 0 -> hw)
  std::size_t hard_state_limit_ = 0;  ///< 2x max_states memory backstop

  std::vector<Shard> shards_;
  std::atomic<std::size_t> total_stored_{0};
  std::vector<std::uint64_t> frontier_;       ///< packed ids, rank order
  std::vector<std::uint64_t> next_frontier_;  ///< assembled by insert_wave
  std::vector<std::vector<GenSucc>> wave_succs_;  ///< per frontier state
  std::vector<unsigned char> wave_blocked_;       ///< per frontier state
  ExploreStats stats_;  ///< explored/fired only; snapshot_stats adds the rest
  std::unique_ptr<WorkerPool> pool_;  ///< created on the first big wave

  // Incremental-exploration state (enable_capture / set_ancestor).
  bool capture_ = false;
  const PassedStoreExport* ancestor_ = nullptr;
  /// Packed ids in deterministic insertion order (capture mode): the
  /// export's ordinal numbering.
  std::vector<std::uint64_t> order_;
  std::optional<PassedStoreExport> export_;
};

}  // namespace psv::mc
