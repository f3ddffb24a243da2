// Shared verification sessions.
//
// A VerificationSession owns one (typically probe-instrumented) network and
// one engine configuration, and serves every query of a verification run
// from shared exploration work instead of one independent run per query:
//
//   * max_clock_values — a whole batch of delay-bound queries (the paper's
//     per-variable Input-/Output-Delay maxima plus the end-to-end M-C
//     delay) answered by the sweep engine from ONE full-space exploration,
//     with the widen-and-refine candidates running in parallel;
//   * check_flags — reachability of all C1–C4 sticky flags plus the
//     deadlock/timelock search from one shared full sweep, cached across
//     calls (the flags are discrete, so visiting the subsumption-reduced
//     space once is exact for every flag at once; a timelock does not end
//     the sweep);
//   * repeated queries are memoized — asking the same bound twice costs no
//     second exploration (SessionStats::cache_hits counts these).
//
// The memo is content-addressed: queries key on raw-id digests
// (mc/artifact.h), the session on the exact network digest, and the whole
// memo can round-trip through a persistent ArtifactStore — load() before
// querying turns a repeat run on an unchanged model into pure cache hits
// (zero states explored), store() persists fresh work for the next run.
//
// The session copies the network it is given, so callers may hand in a
// temporary instrumented copy and keep the session alive past it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/artifact.h"
#include "mc/query.h"

namespace psv::mc {

/// Aggregate work performed by a session, across every exploration it ran.
/// Shared explorations are counted once (unlike per-query MaxClockResult
/// stats, which attribute shared work to every query it served).
struct SessionStats {
  ExploreStats explore;
  int explorations = 0;  ///< reachability runs / sweeps performed
  int queries = 0;       ///< queries answered (batched ones count each)
  int cache_hits = 0;    ///< queries answered from the session memo
  int entries_added = 0;   ///< memo entries created by fresh work
  int entries_loaded = 0;  ///< memo entries pre-populated by load()

  // Incremental-exploration accounting (aggregated over every exploration;
  // all zero without an adopted ancestor store).
  /// Stored states seeded verbatim from the ancestor (creation-calm entries).
  std::size_t warm_start_states_reused() const { return explore.warm_states_reused; }
  /// Stored states whose zones were replayed against the new network.
  std::size_t states_revalidated() const { return explore.warm_states_revalidated; }
  /// Total states expanded (warm seeds + fresh exploration).
  std::size_t states_explored() const { return explore.states_explored; }
};

class VerificationSession {
 public:
  explicit VerificationSession(ta::Network net, ExploreOptions opts = {});

  const ta::Network& net() const { return net_; }
  const ExploreOptions& options() const { return opts_; }

  /// Install (or clear, with null) the cooperative cancel token every
  /// subsequent exploration honours. Pooled sessions outlive individual
  /// requests, so each request must set its own token — including null to
  /// shed a predecessor's. A fired token aborts explorations at the next
  /// wave barrier with ErrorCode::kCancelled; the memo is untouched
  /// (entries are recorded only after completed explorations), so the
  /// session stays valid for later requests.
  void set_cancel(std::shared_ptr<const std::atomic<bool>> cancel) {
    opts_.cancel = std::move(cancel);
  }

  /// Answer a batch of maximum-clock queries from shared explorations.
  /// Results are index-aligned with `queries`; repeated queries are served
  /// from the session cache.
  std::vector<MaxClockResult> max_clock_values(const std::vector<BoundQuery>& queries);

  /// Single-query convenience; identical answers to the batched form.
  MaxClockResult max_clock_value(const BoundQuery& query);

  /// Reachability of `flag == 1` for each sticky flag, plus the
  /// deadlock/timelock search, from one shared full-space exploration. The
  /// exploration is cached: later calls (any flag set) are free.
  struct FlagReport {
    std::vector<bool> reachable;  ///< index-aligned with the queried flags
    DeadlockResult deadlock;
  };
  FlagReport check_flags(const std::vector<ta::VarId>& flags);

  /// Answer a whole verification batch — every bound query plus the C1–C4
  /// flag/deadlock sweep — from ONE combined full-space exploration (plus
  /// rare widen-and-refine rounds for escaped bounds). This is the batch
  /// planner's workhorse: fresh bound queries and a fresh flag sweep share
  /// their round-0 exploration instead of running one exploration each;
  /// memoized parts (a warm-loaded session, repeated queries) are served
  /// from the memo exactly like the individual calls. Results are identical
  /// to calling max_clock_values() and check_flags() back to back — only
  /// the exploration count changes.
  struct BatchReport {
    std::vector<MaxClockResult> bounds;  ///< index-aligned with `queries`
    FlagReport flags;                    ///< empty when no flags were asked
  };
  BatchReport verify_batch(const std::vector<BoundQuery>& queries,
                           const std::vector<ta::VarId>& flags);

  // --- Incremental exploration (warm start) --------------------------------

  /// Adopt `ancestor` as the warm-start seed for every sweep this session
  /// runs: stored states that survive re-validation against this session's
  /// network seed the first wave instead of being re-derived. Sound for any
  /// ancestor whose network skeleton (ta::skeleton_digest) equals this
  /// session's — the import re-validates everything against the NEW network
  /// and silently falls back to a cold run on any structural mismatch.
  /// Bounds and verdicts are bit-identical with and without an ancestor.
  void adopt_ancestor(std::shared_ptr<const PassedStoreExport> ancestor);

  /// The passed store this session can hand to a skeleton-equal successor:
  /// the export of its last complete capture sweep, or the store a warm
  /// load() brought in. Null when neither exists (no complete sweep yet).
  std::shared_ptr<const PassedStoreExport> exported_store() const { return exported_; }

  /// ta::skeleton_digest of the session network: the structural key under
  /// which ancestor stores are matched.
  const Digest128& skeleton() const { return skeleton_; }

  // --- Persistent artifact cache -----------------------------------------

  /// Pre-populate the memo from `store` under this session's cache_key().
  /// Returns true when an artifact was loaded; a missing or invalid file is
  /// a miss (invalid ones warn through the store), never an error. Queries
  /// already answered are kept; call load() before querying for full effect.
  bool load(const ArtifactStore& store);

  /// Persist the memo (answered bounds, the shared flag sweep, and the
  /// exported passed store) under cache_key(). Skips the write and returns
  /// false when the session holds nothing beyond what load() brought in.
  bool store(const ArtifactStore& store) const;

  /// True when load() populated this session from a persistent artifact.
  bool warm_loaded() const { return warm_loaded_; }

  /// Content-addressed key of this session: {exact network digest
  /// (ta::network_digest), result-affecting options, artifact format
  /// version}. Equal keys mean the same network (up to its own name), raw
  /// ids included, so the key alone may share a session or an artifact
  /// between callers.
  const ArtifactKey& cache_key() const { return cache_key_; }

  const SessionStats& stats() const { return stats_; }

 private:
  /// Run (once) the cached full-space deadlock + flag sweep.
  void ensure_flag_sweep();

  /// Memo-aware bound answering shared by max_clock_values and
  /// verify_batch; `flags`, when non-null, asks the underlying sweep batch
  /// to piggyback the flag/deadlock sweep on its round-0 exploration.
  std::vector<MaxClockResult> answer_bounds(const std::vector<BoundQuery>& queries,
                                            FlagSweepOutcome* flags);

  ta::Network net_;  ///< owned copy; the session outlives caller temporaries
  ExploreOptions opts_;
  ArtifactKey cache_key_;
  Digest128 skeleton_;  ///< structural warm-start key (ta::skeleton_digest)
  SessionStats stats_;
  bool warm_loaded_ = false;
  bool dirty_ = false;  ///< fresh results exist that store() should persist

  // Cached full-space sweep results.
  bool flag_sweep_done_ = false;
  std::vector<bool> var_seen_one_;  ///< per variable: some state has v == 1
  DeadlockResult deadlock_;

  std::unordered_map<Digest128, MaxClockResult, Digest128Hash> bound_cache_;

  // Incremental exploration: the adopted ancestor store and this session's
  // own export (fresh capture, or carried over from a warm load).
  std::shared_ptr<const PassedStoreExport> ancestor_;
  std::shared_ptr<const PassedStoreExport> exported_;
};

/// Per-stage cache accounting: the delta of `session`'s stats since
/// `before`, labeled warm when a loaded artifact answered everything.
StageCacheStats stage_cache_delta(const VerificationSession& session, const SessionStats& before,
                                  bool enabled);

}  // namespace psv::mc
