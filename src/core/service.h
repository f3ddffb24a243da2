// The batched request/response verification service — the public API of
// the framework.
//
// A psv::core::Verifier is a long-lived service answering VerifyRequests:
// one platform-independent model, a SET of timing requirements, and one or
// more candidate implementation schemes per request. The Verifier plans
// each batch so shared work is performed once:
//
//   * stage 1 (PIM |= P(delta)) instruments ONE copy of the PIM with every
//     requirement's M-C probe and answers all requirements from one
//     verification session — and, since the PIM does not depend on the
//     scheme, the stage is shared by every candidate scheme of the request;
//   * per scheme, ONE probe-instrumented PSM carries the M-C probes of the
//     whole requirement set; its verification session answers the C1–C4
//     constraint sweep, the per-variable Input-/Output-Delay maxima and
//     every requirement's end-to-end M-C maximum from a single combined
//     full-space exploration (VerificationSession::verify_batch) instead of
//     one pipeline per requirement;
//   * candidate schemes compete: the report carries per-scheme verdicts
//     plus a comparison summary.
//
// Sessions are pooled inside the Verifier (keyed on the exact network digest
// + result-affecting options, LRU-capped), so repeated or
// overlapping requests are answered from warm sessions; with a cache
// directory (Verifier::Config::cache_dir — a property of the service, never
// of a request) the pool is additionally backed by the persistent artifact
// store of mc/artifact.h.
//
// Thread-safety: verify() may be called concurrently from any number of
// threads. Concurrent callers share pooled sessions (each session is
// guarded by its own mutex) and the artifact cache. Results are
// deterministic: the same request yields bit-identical bounds and verdicts
// regardless of pooling, threading, or cache state.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/analysis.h"
#include "core/constraints.h"
#include "core/pim.h"
#include "core/schedulability.h"
#include "core/scheme.h"
#include "core/transform.h"
#include "mc/session.h"
#include "monitor/monitor.h"

namespace psv::core {

/// Pipeline knobs of one request.
struct VerifyOptions {
  std::int64_t search_limit = 1'000'000;  ///< delay-search ceiling [ms]
  mc::ExploreOptions explore;
  TransformOptions transform;
  bool run_constraint_checks = true;
  /// Ranked critical traces retained per bound query (clamped to
  /// [0, mc::kMaxTopK]); feeds SchemeVerification::slack. 0 disables
  /// retention — bounds and verdicts are unchanged, slack reports just
  /// carry no traces.
  int top_k = mc::kDefaultTopK;
};

/// Machine-readable accounting of one pipeline stage, for bench trend
/// tracking (psv_verify --stats-json).
struct VerifyStageStats {
  std::string name;          ///< e.g. "constraints"
  double wall_ms = 0.0;      ///< wall clock of the stage
  mc::ExploreStats explore;  ///< exploration work (shared runs counted once)
  int explorations = 0;      ///< reachability runs / sweeps performed
  mc::StageCacheStats cache; ///< persistent-cache accounting of the stage
};

/// One unit of service work: a model, a set of requirements to check
/// against it, and one or more candidate implementation schemes.
struct VerifyRequest {
  ta::Network pim;
  /// Analyzed PIM structure; analyze_pim(pim) is run when absent.
  std::optional<PimInfo> info;
  std::vector<ImplementationScheme> schemes;    ///< candidates, at least one
  std::vector<TimingRequirement> requirements;  ///< at least one
  VerifyOptions options;
};

/// Verdict for one requirement under one scheme.
struct RequirementResult {
  TimingRequirement requirement;
  PimVerification pim;    ///< stage 1 (shared across the whole request)
  BoundAnalysis bounds;   ///< stage 4 (per-variable figures shared)
  bool psm_meets_original = false;  ///< PSM |= P(delta_mc)
  bool psm_meets_relaxed = false;   ///< PSM |= P(delta'_mc), Lemma 2 total
  /// The CLI/gate verdict: constraints hold and the relaxed bound is met
  /// (the same predicate the single-run pipeline always exited on).
  bool passed = false;
};

/// Everything one candidate scheme produced.
struct SchemeVerification {
  std::string scheme_name;
  SchedulabilityReport schedulability;  ///< analytic §V pre-check
  PsmArtifacts psm;                     ///< stage 2 construction
  ConstraintReport constraints;         ///< stage 3 (shared sweep)
  std::vector<RequirementResult> requirements;  ///< aligned with the request
  /// Per-requirement margins + binding-requirement attribution, with the
  /// top-K critical traces of every end-to-end M-C probe (options.top_k).
  SlackReport slack;
  /// "transform", "constraints", "bounds" — the combined batch exploration
  /// is attributed to the constraints stage; the bounds stage reads its
  /// answers from the session memo.
  std::vector<VerifyStageStats> stages;

  bool all_passed() const;
};

/// The response: stage-1 results plus one SchemeVerification per candidate.
struct VerifyReport {
  std::vector<TimingRequirement> requirements;  ///< echo of the request
  std::vector<VerifyStageStats> pim_stages;     ///< "pim-verification"
  std::vector<SchemeVerification> schemes;      ///< aligned with the request

  bool all_passed() const;
  /// Total explorations across every per-scheme stage named `name`.
  int explorations_in(const std::string& name) const;

  /// Multi-line human-readable report: per-scheme constraint and
  /// requirement verdicts with per-requirement slack margins (the binding
  /// requirement marked), plus a scheme-comparison table — including the
  /// binding-requirement attribution — when the request carried more than
  /// one candidate.
  std::string summary() const;

  /// The paper's five-step pipeline report for one (scheme, requirement)
  /// cell: PIM verdict, PSM construction, analytic pre-check, constraints
  /// C1-C4, delay bounds and the original/relaxed PSM verdicts, followed by
  /// the stage-1 and per-scheme [cache] lines. psv_verify prints it for a
  /// single-requirement run. Throws a kModel error on an index out of range.
  std::string requirement_summary(std::size_t scheme_index, std::size_t requirement_index) const;
};

/// The long-lived verification service. Cheap to construct; owns the
/// session pool. One Verifier per process (or per tenant) is the intended
/// shape; a temporary Verifier still answers a single request correctly —
/// it just cannot reuse sessions afterwards.
class Verifier {
 public:
  struct Config {
    /// Persistent verification-artifact cache directory; empty = disabled.
    /// Stages key their artifacts on the exact digest of the network they
    /// explore (instrumented PIM for stage 1, instrumented PSM
    /// for 3–5), so a scheme edit only invalidates the downstream stages.
    std::string cache_dir;
    /// LRU cap on pooled warm sessions (each owns a network copy and its
    /// answered-query memo). 0 disables pooling entirely.
    std::size_t max_sessions = 32;
  };

  Verifier() = default;
  explicit Verifier(Config config);

  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  /// Answer one batch. Thread-safe; throws psv::Error on malformed input
  /// (empty scheme/requirement sets, unknown variables, invalid schemes).
  VerifyReport verify(const VerifyRequest& request);

  /// Compile scheme `scheme_index` of a report into a runtime-monitor spec
  /// (monitor/monitor.h): every requirement with its bound and the proved
  /// worst-case delay. Only PASS cells are enforceable — a FAIL cell makes
  /// the spec unsound (the platform provably breaks the bound), so the call
  /// refuses with a typed kModel error carrying the witness delay.
  static monitor::MonitorSpec monitor_spec(const VerifyReport& report,
                                           std::size_t scheme_index = 0);

  /// Sessions currently pooled (diagnostic).
  std::size_t pooled_sessions() const;

  /// Pin the published warm-start ancestor of a skeleton (hex of
  /// ta::skeleton_digest): while pinned, publish_ancestor keeps the pinned
  /// export instead of replacing it, so a fan-out of structurally-identical
  /// requests (scheme synthesis) all adopt ONE shared read-only
  /// PassedStoreExport — a shared_ptr copy per candidate, never a
  /// re-deserialization. A pin with no published ancestor yet pins
  /// whichever export is published first.
  void pin_ancestor(const std::string& skeleton_hex);
  void unpin_ancestor(const std::string& skeleton_hex);

 private:
  /// One pooled session; `mu` serializes queries from concurrent requests.
  struct Slot {
    std::mutex mu;
    std::optional<mc::VerificationSession> session;
    bool load_attempted = false;  ///< a persistent-store load ran already
  };

  /// Fetch or create the pooled session for `net` + explore options; the
  /// caller must lock slot->mu before touching the session.
  std::shared_ptr<Slot> acquire(ta::Network&& net, const mc::ExploreOptions& explore);

  /// Incremental exploration: hand `session` a warm-start ancestor store
  /// when one with a matching network skeleton is known — pooled in memory,
  /// or recorded on disk by a `<skeleton-hex>.psvanc` pointer file next to
  /// the artifacts. No-op when the session already has a store of its own
  /// (warm-loaded or previously queried).
  void adopt_ancestor_if_any(mc::VerificationSession& session);

  /// Publish `session`'s exported passed store as the warm-start ancestor
  /// for its skeleton: into the in-memory index (undecoded, when the
  /// session's load left it on disk), and (when a cache directory is
  /// active) as a `<skeleton-hex>.psvanc` pointer to the session's artifact
  /// key so later processes find it too. The pointer is rewritten only when
  /// it names another key.
  void publish_ancestor(const mc::VerificationSession& session);

  /// `<skeleton-hex>.psvanc` in the cache directory (store_ must be set).
  std::string ancestor_pointer_path(const std::string& skeleton_hex) const;
  /// The artifact key a skeleton's pointer file names; empty when the file
  /// is missing or malformed (store_ must be set).
  std::optional<Digest128> read_ancestor_pointer(const std::string& skeleton_hex) const;

  Config config_;
  /// The artifact cache of config_.cache_dir; empty when caching is off.
  std::optional<mc::ArtifactStore> store_;
  mutable std::mutex mu_;  ///< guards pool_, lru_ and ancestors_
  std::unordered_map<std::string, std::shared_ptr<Slot>> pool_;
  std::list<std::string> lru_;  ///< most recently used at the back
  /// skeleton-digest hex -> newest exported passed store for that skeleton,
  /// decoded by its first adopter.
  std::unordered_map<std::string, std::shared_ptr<const mc::PassedStoreSource>> ancestors_;
  /// Skeletons whose ancestors_ entry is frozen (see pin_ancestor). The
  /// value counts nested pins.
  std::unordered_map<std::string, int> pinned_;
};

}  // namespace psv::core
