#include "mc/session.h"

#include <algorithm>
#include <utility>

#include "ta/fingerprint.h"
#include "util/error.h"

namespace psv::mc {

VerificationSession::VerificationSession(ta::Network net, ExploreOptions opts)
    : net_(std::move(net)),
      opts_(opts),
      cache_key_(artifact_key(ta::network_digest(net_), opts_)),
      skeleton_(ta::skeleton_digest(net_)) {}

void VerificationSession::adopt_ancestor(std::shared_ptr<const PassedStoreExport> ancestor) {
  ancestor_ = std::move(ancestor);
}

std::vector<MaxClockResult> VerificationSession::max_clock_values(
    const std::vector<BoundQuery>& queries) {
  return answer_bounds(queries, nullptr);
}

std::vector<MaxClockResult> VerificationSession::answer_bounds(
    const std::vector<BoundQuery>& queries, FlagSweepOutcome* flags) {
  std::vector<MaxClockResult> results(queries.size());
  std::vector<BoundQuery> fresh;
  std::vector<std::size_t> fresh_index;
  std::vector<Digest128> keys(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    keys[i] = bound_query_digest(queries[i]);
    ++stats_.queries;
    const auto hit = bound_cache_.find(keys[i]);
    if (hit != bound_cache_.end()) {
      results[i] = hit->second;
      ++stats_.cache_hits;
      continue;
    }
    fresh.push_back(queries[i]);
    fresh_index.push_back(i);
  }
  if (!fresh.empty()) {
    BatchQueryStats batch;
    WarmContext warm;
    warm.ancestor = ancestor_ ? ancestor_.get() : nullptr;
    std::vector<MaxClockResult> answers =
        mc::max_clock_values(net_, fresh, opts_, &batch, flags, &warm);
    if (warm.exported.has_value()) set_export(std::move(*warm.exported));
    // The batch total counts shared sweep work once (per-query stats
    // attribute shared explorations to every query they served).
    accumulate_stats(stats_.explore, batch.explore);
    stats_.explorations += batch.explorations;
    for (std::size_t f = 0; f < answers.size(); ++f) {
      if (bound_cache_.emplace(keys[fresh_index[f]], answers[f]).second) {
        ++stats_.entries_added;
        dirty_ = true;
      }
      results[fresh_index[f]] = std::move(answers[f]);
    }
  }
  return results;
}

MaxClockResult VerificationSession::max_clock_value(const BoundQuery& query) {
  std::vector<BoundQuery> batch(1, query);
  return std::move(max_clock_values(batch).front());
}

VerificationSession::BatchReport VerificationSession::verify_batch(
    const std::vector<BoundQuery>& queries, const std::vector<ta::VarId>& flags) {
  BatchReport report;
  // A combined exploration pays off only when BOTH parts need fresh work;
  // everything else routes through the individual paths (whose memos keep
  // the answers identical either way).
  if (flags.empty() || flag_sweep_done_) {
    report.bounds = max_clock_values(queries);
    if (!flags.empty()) report.flags = check_flags(flags);
    return report;
  }

  FlagSweepOutcome sweep;
  report.bounds = answer_bounds(queries, &sweep);
  if (sweep.ran) {
    // Adopt the piggybacked sweep as the session's cached flag sweep.
    var_seen_one_.assign(static_cast<std::size_t>(net_.num_vars()), false);
    for (std::size_t v = 0; v < sweep.var_seen_one.size(); ++v)
      var_seen_one_[v] = sweep.var_seen_one[v] != 0;
    deadlock_ = std::move(sweep.deadlock);
    flag_sweep_done_ = true;
    ++stats_.entries_added;
    dirty_ = true;
  }
  // Either served from the freshly adopted sweep, or (when every bound was
  // a memo hit and no combined exploration ran) via a dedicated sweep.
  report.flags = check_flags(flags);
  return report;
}

void VerificationSession::ensure_flag_sweep() {
  if (flag_sweep_done_) return;
  var_seen_one_.assign(static_cast<std::size_t>(net_.num_vars()), false);
  Reachability engine(net_, StateFormula{}, opts_);
  if (ancestor_) engine.set_ancestor(ancestor_.get());
  // A dedicated flag sweep visits the full space, so its store is as good
  // an export as a bounds sweep's; capture one if the session has none yet.
  const bool capture = !has_store();
  if (capture) engine.enable_capture();
  deadlock_ = engine.find_deadlock([this](const SymState& state, std::uint64_t) {
    for (std::size_t v = 0; v < state.vars.size(); ++v)
      if (state.vars[v] == 1) var_seen_one_[v] = true;
  });
  if (capture) {
    if (std::optional<PassedStoreExport> exported = engine.take_export(); exported.has_value())
      set_export(std::move(*exported));
  }
  accumulate_stats(stats_.explore, deadlock_.stats);
  ++stats_.explorations;
  ++stats_.entries_added;
  dirty_ = true;
  flag_sweep_done_ = true;
}

VerificationSession::FlagReport VerificationSession::check_flags(
    const std::vector<ta::VarId>& flags) {
  // Any prior sweep — from an earlier call or a loaded artifact — serves
  // this call for free.
  const bool served_from_memo = flag_sweep_done_;
  ensure_flag_sweep();
  FlagReport report;
  report.deadlock = deadlock_;
  stats_.queries += static_cast<int>(flags.size()) + 1;  // flags + deadlock
  if (served_from_memo) stats_.cache_hits += static_cast<int>(flags.size()) + 1;
  report.reachable.reserve(flags.size());
  for (const ta::VarId flag : flags) {
    PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, flag >= 0 && flag < net_.num_vars(),
                "check_flags: flag variable outside the session network");
    report.reachable.push_back(var_seen_one_[static_cast<std::size_t>(flag)]);
  }
  return report;
}

void VerificationSession::set_export(PassedStoreExport exported) {
  exported_ = std::make_shared<const PassedStoreSource>(
      std::make_shared<const PassedStoreExport>(std::move(exported)));
}

bool VerificationSession::load(const ArtifactStore& store) {
  std::optional<ArtifactStore::Memo> memo = store.load_memo(cache_key_);
  if (!memo) return false;
  VerificationArtifact& artifact = memo->artifact;
  if (artifact.has_flag_sweep &&
      artifact.var_seen_one.size() != static_cast<std::size_t>(net_.num_vars())) {
    // A hash collision would be required to get here; treat it as a miss.
    return false;
  }
  for (VerificationArtifact::BoundEntry& entry : artifact.bounds) {
    if (bound_cache_.emplace(entry.query, std::move(entry.result)).second)
      ++stats_.entries_loaded;
  }
  // Carry the persisted store forward, undecoded: it is this session's
  // export until a fresh capture sweep replaces it, so a warm-loaded session
  // can still seed skeleton-equal successors (and a later store() keeps
  // persisting it). A memo hit never needs it, so it stays on disk.
  if (exported_ == nullptr) exported_ = std::move(memo->store);
  if (artifact.has_flag_sweep && !flag_sweep_done_) {
    var_seen_one_.assign(artifact.var_seen_one.begin(), artifact.var_seen_one.end());
    deadlock_ = std::move(artifact.deadlock);
    flag_sweep_done_ = true;
    ++stats_.entries_loaded;
  }
  warm_loaded_ = true;
  return true;
}

bool VerificationSession::store(const ArtifactStore& store) const {
  if (!dirty_) return false;
  VerificationArtifact artifact;
  artifact.bounds.reserve(bound_cache_.size());
  for (const auto& [key, result] : bound_cache_)
    artifact.bounds.push_back(VerificationArtifact::BoundEntry{key, result});
  // Deterministic file bytes regardless of memo insertion order.
  std::sort(artifact.bounds.begin(), artifact.bounds.end(),
            [](const VerificationArtifact::BoundEntry& a,
               const VerificationArtifact::BoundEntry& b) { return a.query < b.query; });
  artifact.has_flag_sweep = flag_sweep_done_;
  if (flag_sweep_done_) {
    artifact.var_seen_one.assign(var_seen_one_.begin(), var_seen_one_.end());
    artifact.deadlock = deadlock_;
  }
  artifact.skeleton = skeleton_;
  const std::shared_ptr<const PassedStoreExport> passed = exported_store();
  return store.store(cache_key_, artifact, passed.get());
}

StageCacheStats stage_cache_delta(const VerificationSession& session, const SessionStats& before,
                                  bool enabled) {
  StageCacheStats cache;
  cache.enabled = enabled;
  const SessionStats& now = session.stats();
  cache.hits = now.cache_hits - before.cache_hits;
  cache.misses = (now.queries - before.queries) - cache.hits;
  cache.stores = now.entries_added - before.entries_added;
  // "warm" means the loaded artifact actually served this stage; a stage
  // that issued no queries at all stays "cold" rather than claiming credit.
  cache.warm = enabled && session.warm_loaded() && cache.misses == 0 && cache.hits > 0;
  return cache;
}

}  // namespace psv::mc
