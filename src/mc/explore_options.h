// Exploration knobs, split out of reach.h so option-struct consumers (e.g.
// the core-layer facades with ExploreOptions default arguments) don't pull
// in the full engine and its threading headers.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

namespace psv::mc {

/// Exploration limits and knobs.
struct ExploreOptions {
  /// Hard cap on stored symbolic states; exceeded -> psv::Error. Parallel
  /// waves check the cap at the wave barrier (where it is deterministic),
  /// with a hard backstop at twice this value bounding transient memory.
  std::size_t max_states = 2'000'000;

  /// Worker threads for wave-parallel exploration. 0 picks one per hardware
  /// thread; 1 runs fully inline (no threads spawned) — the setting for
  /// step-debugging diagnostics. Exploration is deterministic by
  /// construction, so results are identical for every value; only wall
  /// clock changes.
  unsigned jobs = 0;

  /// Cooperative cancellation. When set and flipped to true, explorations
  /// abandon at the next wave barrier by throwing ErrorCode::kCancelled;
  /// partial results are discarded (aborted runs never export or memoize).
  /// Like `jobs`, the token cannot change any completed result — it only
  /// decides whether a result is produced at all — so it is NOT part of the
  /// artifact cache key.
  std::shared_ptr<const std::atomic<bool>> cancel;
};

/// Exploration statistics for reporting and benchmarks. Deterministic:
/// identical across `jobs` settings for the same network and query.
struct ExploreStats {
  std::size_t states_stored = 0;
  std::size_t states_explored = 0;
  std::size_t transitions_fired = 0;
  std::size_t subsumed = 0;

  /// Warm-start accounting (all zero for cold runs). `warm_states_reused`
  /// counts ancestor-store states adopted without replay (creation context
  /// untouched by the edit); `warm_states_revalidated` counts states
  /// re-derived by replaying their recorded transition against the new
  /// network; `warm_seed_expansions` counts the subset of states_explored
  /// that were adopted seeds rather than fresh discoveries, so
  /// `states_explored - warm_seed_expansions` is the fresh-state cost of a
  /// warm run.
  std::size_t warm_states_reused = 0;
  std::size_t warm_states_revalidated = 0;
  std::size_t warm_seed_expansions = 0;
};

/// Persistent-cache accounting for one pipeline stage (or a whole session),
/// derived from SessionStats deltas. Feeds psv_verify --stats-json and the
/// [cache] lines of the verification reports so bench trend tracking can
/// tell warm runs from cold ones.
struct StageCacheStats {
  /// This stage participates in the persistent cache. Stays false for
  /// stages that never explore (e.g. the transform stage) even when a
  /// cache directory is configured.
  bool enabled = false;
  bool warm = false;     ///< served entirely from a loaded artifact
  int hits = 0;          ///< queries answered from memo entries
  int misses = 0;        ///< queries that required fresh exploration
  int stores = 0;        ///< fresh entries recorded for persistence

  /// "disabled" | "warm" | "cold" — the per-stage cache state string.
  const char* state() const { return !enabled ? "disabled" : (warm ? "warm" : "cold"); }
};

/// Field-wise sum, for aggregating stats across explorations.
inline void accumulate_stats(ExploreStats& into, const ExploreStats& from) {
  into.states_stored += from.states_stored;
  into.states_explored += from.states_explored;
  into.transitions_fired += from.transitions_fired;
  into.subsumed += from.subsumed;
  into.warm_states_reused += from.warm_states_reused;
  into.warm_states_revalidated += from.warm_states_revalidated;
  into.warm_seed_expansions += from.warm_seed_expansions;
}

}  // namespace psv::mc
