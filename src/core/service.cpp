#include "core/service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

#include "mc/artifact.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/table.h"

namespace psv::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start).count();
}

/// Parse a 32-char lowercase-hex digest (Digest128::hex()'s rendering);
/// returns nullopt on anything else.
std::optional<Digest128> parse_digest_hex(const std::string& hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a') + 10;
      } else {
        return std::nullopt;
      }
      words[w] = (words[w] << 4) | nibble;
    }
  }
  return Digest128{words[0], words[1]};
}

}  // namespace

Verifier::Verifier(Config config) : config_(std::move(config)) {
  if (!config_.cache_dir.empty()) store_.emplace(config_.cache_dir);
}

bool SchemeVerification::all_passed() const {
  for (const RequirementResult& r : requirements)
    if (!r.passed) return false;
  return true;
}

bool VerifyReport::all_passed() const {
  for (const SchemeVerification& s : schemes)
    if (!s.all_passed()) return false;
  return true;
}

int VerifyReport::explorations_in(const std::string& name) const {
  int total = 0;
  for (const SchemeVerification& s : schemes)
    for (const VerifyStageStats& stage : s.stages)
      if (stage.name == name) total += stage.explorations;
  return total;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << "=== batch verification: " << requirements.size() << " requirement(s) x "
     << schemes.size() << " scheme(s) ===\n";
  for (std::size_t r = 0; r < requirements.size(); ++r) {
    const TimingRequirement& req = requirements[r];
    os << "  " << req.name << ": " << req.input << " -> " << req.output << " within "
       << req.bound_ms << "ms";
    // Stage-1 verdicts are scheme-independent; read them off the first scheme.
    if (!schemes.empty() && r < schemes.front().requirements.size()) {
      const PimVerification& pim = schemes.front().requirements[r].pim;
      os << " — PIM |= P? " << (pim.holds ? "yes" : "NO");
      if (pim.bounded) os << " (exact max " << pim.max_delay << "ms)";
    }
    os << "\n";
  }
  for (const SchemeVerification& s : schemes) {
    os << "\n--- scheme " << s.scheme_name << " ---\n";
    if (!s.schedulability.findings.empty())
      os << "  analytic pre-check:\n" << s.schedulability.to_string();
    if (!s.constraints.checks.empty())
      os << "  constraints: " << (s.constraints.all_hold() ? "all hold" : "VIOLATED") << "\n";
    for (const RequirementResult& r : s.requirements) {
      os << "  [" << (r.passed ? "PASS" : "FAIL") << "] " << r.requirement.name
         << ": verified M-C ";
      if (r.bounds.verified_mc_bounded) {
        os << r.bounds.verified_mc_delay << "ms";
      } else {
        os << "unbounded";
      }
      os << ", relaxed bound " << r.bounds.lemma2_total << "ms (original "
         << r.requirement.bound_ms << "ms "
         << (r.psm_meets_original ? "met" : "NOT met") << ")\n";
    }
    if (!s.slack.requirements.empty()) {
      std::istringstream lines(s.slack.to_string());
      std::string line;
      while (std::getline(lines, line)) os << "  " << line << "\n";
    }
    for (const VerifyStageStats& stage : s.stages) {
      if (!stage.cache.enabled) continue;
      os << "  [cache] " << stage.name << ": " << stage.cache.state() << " (hits "
         << stage.cache.hits << ", misses " << stage.cache.misses << ", stored "
         << stage.cache.stores << ")\n";
    }
  }
  if (schemes.size() > 1) {
    TextTable table("scheme comparison (" + std::to_string(requirements.size()) +
                    " requirement(s))");
    table.set_header(
        {"scheme", "constraints", "passed", "worst verified M-C", "binding", "min slack"});
    table.set_align(
        {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight, Align::kLeft, Align::kRight});
    for (const SchemeVerification& s : schemes) {
      std::int64_t worst = 0;
      bool worst_bounded = true;
      std::size_t passed = 0;
      for (const RequirementResult& r : s.requirements) {
        if (r.passed) ++passed;
        if (!r.bounds.verified_mc_bounded) worst_bounded = false;
        worst = std::max(worst, r.bounds.verified_mc_delay);
      }
      const bool have_slack = !s.slack.requirements.empty();
      table.add_row({s.scheme_name,
                     s.constraints.checks.empty()
                         ? "skipped"
                         : (s.constraints.all_hold() ? "ok" : "violated"),
                     std::to_string(passed) + "/" + std::to_string(s.requirements.size()),
                     worst_bounded ? fmt_ms(static_cast<double>(worst)) : "unbounded",
                     have_slack ? s.slack.binding().requirement : "-",
                     !have_slack ? "-"
                     : s.slack.binding().bounded
                         ? fmt_ms(static_cast<double>(s.slack.min_slack_ms))
                         : "unbounded"});
    }
    os << "\n" << table.render();
  }
  return os.str();
}

std::string VerifyReport::requirement_summary(std::size_t scheme_index,
                                              std::size_t requirement_index) const {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, scheme_index < schemes.size(),
                 "requirement_summary: scheme index out of range");
  const SchemeVerification& sv = schemes[scheme_index];
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, requirement_index < sv.requirements.size(),
                 "requirement_summary: requirement index out of range");
  const RequirementResult& rr = sv.requirements[requirement_index];
  const TimingRequirement& requirement = rr.requirement;
  const PsmArtifacts& psm = sv.psm;
  std::ostringstream os;
  os << "=== Platform-specific timing verification: " << requirement.name << " ===\n";
  os << "requirement: " << requirement.input << " -> " << requirement.output << " within "
     << requirement.bound_ms << "ms\n\n";
  os << "[1] PIM verification\n";
  os << "  PIM |= P(" << requirement.bound_ms << ")? " << (rr.pim.holds ? "yes" : "NO") << "\n";
  if (rr.pim.bounded) os << "  exact PIM worst-case M-C delay: " << rr.pim.max_delay << "ms\n";
  os << "\n[2] PSM construction (" << psm.scheme.name << ")\n";
  os << "  automata: " << psm.psm.num_automata() << ", clocks: " << psm.psm.num_clocks()
     << ", variables: " << psm.psm.num_vars() << ", edges: " << psm.psm.total_edges() << "\n";
  os << "  analytic schedulability pre-check:\n" << sv.schedulability.to_string();
  os << "\n[3] boundedness constraints (Section V)\n" << sv.constraints.to_string();
  os << "\n[4] delay bounds\n" << rr.bounds.to_string();
  os << "\n[5] requirement on the PSM\n";
  os << "  PSM |= P(" << requirement.bound_ms << ")? "
     << (rr.psm_meets_original ? "yes" : "NO (platform delays break the original bound)")
     << "\n";
  os << "  PSM |= P(" << rr.bounds.lemma2_total << ")? "
     << (rr.psm_meets_relaxed ? "yes (relaxed bound verified)" : "NO") << "\n";
  // Cache accounting renders on its own greppable [cache] lines, so warm
  // and cold reports stay byte-identical outside this block (the warm-cache
  // differential gates compare summaries with these lines filtered out).
  auto cache_line = [&os](const VerifyStageStats& s) {
    if (!s.cache.enabled) return;
    os << "[cache] " << s.name << ": " << s.cache.state() << " (hits " << s.cache.hits
       << ", misses " << s.cache.misses << ", stored " << s.cache.stores << ")\n";
  };
  for (const VerifyStageStats& s : pim_stages) cache_line(s);
  for (const VerifyStageStats& s : sv.stages) cache_line(s);
  return os.str();
}

std::shared_ptr<Verifier::Slot> Verifier::acquire(ta::Network&& net,
                                                  const mc::ExploreOptions& explore) {
  // Construct outside the pool lock: digesting and the network copy
  // dominate the cost, and a losing racer merely discards its session.
  // The artifact key alone keys the pool: it digests the exact network, raw
  // declaration and edge order included, so callers that query pooled
  // sessions with raw clock/variable ids never share a slot with a
  // differently declared network.
  mc::VerificationSession session(std::move(net), explore);
  const std::string key = session.cache_key().hex();

  if (config_.max_sessions == 0) {
    auto slot = std::make_shared<Slot>();
    slot->session.emplace(std::move(session));
    return slot;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = pool_.find(key); it != pool_.end()) {
    lru_.remove(key);
    lru_.push_back(key);
    return it->second;
  }
  auto slot = std::make_shared<Slot>();
  slot->session.emplace(std::move(session));
  pool_.emplace(key, slot);
  lru_.push_back(key);
  while (pool_.size() > config_.max_sessions) {
    // Evict the least recently used entry; a request still holding the
    // shared_ptr keeps its session alive until it finishes.
    pool_.erase(lru_.front());
    lru_.pop_front();
  }
  return slot;
}

std::size_t Verifier::pooled_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.size();
}

void Verifier::adopt_ancestor_if_any(mc::VerificationSession& session) {
  // A session that already holds a store — warm-loaded from its own
  // artifact, or queried before — needs no ancestor: its memo (and its own
  // store) already serve everything an ancestor could. The test neither
  // reads nor decodes a warm-loaded store.
  if (session.has_store()) return;
  const std::string skeleton = session.skeleton().hex();
  std::shared_ptr<const mc::PassedStoreSource> source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = ancestors_.find(skeleton); it != ancestors_.end()) source = it->second;
  }
  // A published store left undecoded by its session's load is decoded here,
  // once for every adopter; an invalid one (warned) means a cold run.
  std::shared_ptr<const mc::PassedStoreExport> ancestor = source ? source->get() : nullptr;
  if (source == nullptr && store_.has_value()) {
    // Disk fallback: the `.psvanc` pointer file names the artifact key of
    // the last session that exported a store for this skeleton. Any failure
    // (missing file, bad contents, evicted artifact) is a silent cold run.
    if (const std::optional<Digest128> key = read_ancestor_pointer(skeleton); key.has_value()) {
      if (std::optional<mc::VerificationArtifact> artifact = store_->load(mc::ArtifactKey{*key});
          artifact.has_value() && artifact->store.has_value() &&
          artifact->skeleton == session.skeleton()) {
        ancestor = std::make_shared<const mc::PassedStoreExport>(std::move(*artifact->store));
        std::lock_guard<std::mutex> lock(mu_);
        ancestors_.emplace(skeleton, std::make_shared<const mc::PassedStoreSource>(ancestor));
      }
    }
  }
  if (ancestor != nullptr) session.adopt_ancestor(std::move(ancestor));
}

std::string Verifier::ancestor_pointer_path(const std::string& skeleton_hex) const {
  return (std::filesystem::path(store_->dir()) / (skeleton_hex + ".psvanc")).string();
}

std::optional<Digest128> Verifier::read_ancestor_pointer(const std::string& skeleton_hex) const {
  std::ifstream pointer(ancestor_pointer_path(skeleton_hex));
  std::string key_hex;
  if (!pointer.good() || !std::getline(pointer, key_hex)) return std::nullopt;
  return parse_digest_hex(key_hex);
}

void Verifier::pin_ancestor(const std::string& skeleton_hex) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pinned_[skeleton_hex];
}

void Verifier::unpin_ancestor(const std::string& skeleton_hex) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pinned_.find(skeleton_hex);
  if (it != pinned_.end() && --it->second <= 0) pinned_.erase(it);
}

void Verifier::publish_ancestor(const mc::VerificationSession& session) {
  if (!session.has_store()) return;
  const std::string skeleton = session.skeleton().hex();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A pinned skeleton keeps its first published export (and its on-disk
    // pointer): every candidate of a synthesis fan-out warm-starts from the
    // SAME ancestor rather than from whichever sibling finished last.
    if (pinned_.count(skeleton) != 0 && ancestors_.count(skeleton) != 0) return;
    ancestors_[skeleton] = session.store_source();
  }
  if (!store_.has_value()) return;
  // Every stage of every request publishes, and a warm repeat publishes the
  // pointer it read: skip the write when the pointer already names this
  // session's artifact.
  if (read_ancestor_pointer(skeleton) == session.cache_key().digest) return;
  // Point the skeleton at this session's artifact on disk (temp + rename so
  // concurrent publishers cannot tear the pointer). Best effort: a failed
  // write only costs a future cold start.
  try {
    std::filesystem::create_directories(store_->dir());
    const std::string path = ancestor_pointer_path(skeleton);
    const std::string tmp = path + ".tmp." + std::to_string(std::random_device{}());
    {
      std::ofstream file(tmp, std::ios::trunc);
      if (!file.good()) return;
      file << session.cache_key().hex() << "\n";
      if (!file.good()) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return;
      }
    }
    std::filesystem::rename(tmp, path);
  } catch (const std::filesystem::filesystem_error&) {
    // Best effort only.
  }
}

VerifyReport Verifier::verify(const VerifyRequest& request) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !request.requirements.empty(), "VerifyRequest carries no timing requirements");
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !request.schemes.empty(), "VerifyRequest carries no implementation schemes");
  const PimInfo info = request.info.has_value() ? *request.info : analyze_pim(request.pim);
  const VerifyOptions& opts = request.options;
  const std::vector<TimingRequirement>& reqs = request.requirements;

  VerifyReport report;
  report.requirements = reqs;

  // [1] PIM |= P(delta) for the WHOLE requirement set, from one session
  // over one fully probe-instrumented PIM. Scheme-independent, so every
  // candidate scheme below reuses these verdicts. Keyed on the
  // instrumented-PIM digest: scheme edits never invalidate this stage.
  auto start = SteadyClock::now();
  ta::Network pim_net = request.pim;
  const std::string env_name = request.pim.automaton(info.environment).name();
  const std::vector<RequirementProbe> pim_probes =
      instrument_mc_delays(pim_net, env_name, reqs);
  PimBatchVerification pim_batch;
  {
    std::shared_ptr<Slot> slot = acquire(std::move(pim_net), opts.explore);
    std::lock_guard<std::mutex> lock(slot->mu);
    // Pooled sessions outlive requests: (re)install this request's cancel
    // token — including null, to shed a finished predecessor's.
    slot->session->set_cancel(opts.explore.cancel);
    if (store_ && !slot->load_attempted) {
      slot->session->load(*store_);
      slot->load_attempted = true;
    }
    adopt_ancestor_if_any(*slot->session);
    pim_batch = verify_pim_requirements_in_session(*slot->session, pim_probes, reqs,
                                                   opts.search_limit, store_.has_value());
    if (store_) slot->session->store(*store_);
    publish_ancestor(*slot->session);
  }
  report.pim_stages.push_back(VerifyStageStats{"pim-verification", ms_since(start),
                                               pim_batch.stats, pim_batch.explorations,
                                               pim_batch.cache});

  // Per-requirement io-internal bounds (Lemma 2's delta_io term).
  std::vector<std::int64_t> internals;
  internals.reserve(reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r)
    internals.push_back(pim_batch.requirements[r].bounded
                            ? pim_batch.requirements[r].max_delay
                            : reqs[r].bound_ms);

  // Candidate schemes: each shares stage 1 above and answers its own
  // stages 3–5 from one combined batch sweep.
  for (const ImplementationScheme& scheme : request.schemes) {
    SchemeVerification sv;
    sv.scheme_name = scheme.name;

    // [2] analytic pre-check + PIM -> PSM with the full batch probe set.
    start = SteadyClock::now();
    sv.schedulability = check_schedulability(request.pim, info, scheme);
    sv.psm = transform(request.pim, info, scheme, opts.transform);
    InstrumentedPsmBatch instrumented = instrument_psm_for_requirements(sv.psm, reqs);
    std::shared_ptr<Slot> slot = acquire(std::move(instrumented.net), opts.explore);
    std::lock_guard<std::mutex> lock(slot->mu);
    mc::VerificationSession& session = *slot->session;
    session.set_cancel(opts.explore.cancel);
    if (store_ && !slot->load_attempted) {
      session.load(*store_);
      slot->load_attempted = true;
    }
    adopt_ancestor_if_any(session);
    sv.stages.push_back(VerifyStageStats{"transform", ms_since(start), {}, 0, {}});

    const BoundQueryPlan plan = plan_bound_queries(sv.psm, instrumented.mc_probes, reqs,
                                                   internals, opts.search_limit, opts.top_k);

    // [3] Constraints C1–C4 + deadlock — the batch planner's combined call:
    // one full-space exploration answers the flag sweep AND (typically) the
    // whole bound-query plan. The exploration is attributed to this stage;
    // the bounds stage below reads its answers from the session memo.
    start = SteadyClock::now();
    mc::SessionStats before = session.stats();
    if (opts.run_constraint_checks) {
      session.verify_batch(plan.queries, constraint_flag_vars(sv.psm));
      sv.constraints = check_constraints(session, sv.psm, /*include_deadlock_check=*/true);
    }
    sv.stages.push_back(VerifyStageStats{
        "constraints", ms_since(start), mc::stats_delta(session.stats().explore, before.explore),
        session.stats().explorations - before.explorations,
        mc::stage_cache_delta(session, before, store_.has_value())});

    // [4] Lemma 1 / Lemma 2 / exact bounds for every requirement, as one
    // batched session query (memo hits when [3] primed the sweep).
    start = SteadyClock::now();
    before = session.stats();
    const std::vector<mc::MaxClockResult> answers = session.max_clock_values(plan.queries);
    std::vector<BoundAnalysis> analyses =
        assemble_bound_analyses(plan, sv.psm, reqs, internals, answers, opts.search_limit);
    // STA-style margins: the per-requirement M-C answers sit at the plan's
    // tail, and their ranked witnesses become the critical traces.
    sv.slack = compute_slack_report(
        reqs,
        std::vector<mc::MaxClockResult>(answers.end() - static_cast<std::ptrdiff_t>(reqs.size()),
                                        answers.end()),
        opts.search_limit);
    sv.stages.push_back(VerifyStageStats{
        "bounds", ms_since(start), mc::stats_delta(session.stats().explore, before.explore),
        session.stats().explorations - before.explorations,
        mc::stage_cache_delta(session, before, store_.has_value())});
    if (store_) session.store(*store_);
    publish_ancestor(session);

    // [5] P(delta) and P(delta') per requirement follow from the exact
    // verified maxima — no further exploration.
    const bool constraints_ok = sv.constraints.all_hold();
    sv.requirements.reserve(reqs.size());
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      RequirementResult rr;
      rr.requirement = reqs[r];
      rr.pim = pim_batch.requirements[r];
      rr.bounds = std::move(analyses[r]);
      rr.psm_meets_original =
          rr.bounds.verified_mc_bounded && rr.bounds.verified_mc_delay <= reqs[r].bound_ms;
      rr.psm_meets_relaxed = rr.bounds.verified_mc_bounded &&
                             rr.bounds.verified_mc_delay <= rr.bounds.lemma2_total;
      rr.passed = constraints_ok && rr.psm_meets_relaxed;
      sv.requirements.push_back(std::move(rr));
    }
    report.schemes.push_back(std::move(sv));
  }
  return report;
}

monitor::MonitorSpec Verifier::monitor_spec(const VerifyReport& report,
                                            std::size_t scheme_index) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, scheme_index < report.schemes.size(),
                 "monitor_spec: no scheme at index " + std::to_string(scheme_index));
  const SchemeVerification& sv = report.schemes[scheme_index];
  monitor::MonitorSpec spec;
  spec.scheme = sv.scheme_name;
  for (std::size_t r = 0; r < sv.requirements.size(); ++r) {
    const RequirementResult& rr = sv.requirements[r];
    const TimingRequirement& req = rr.requirement;
    // A FAIL cell is not enforceable: the platform provably breaks the
    // bound, so a monitor built from it would merely re-discover the
    // witness at runtime. Refuse with the witness delay.
    if (!rr.passed || !rr.psm_meets_original) {
      std::ostringstream os;
      os << "requirement '" << req.name << "' "
         << (rr.passed ? "only meets the RELAXED bound" : "FAILED") << " on scheme '"
         << sv.scheme_name << "': witness delay ";
      if (rr.bounds.verified_mc_bounded) {
        os << rr.bounds.verified_mc_delay << "ms";
      } else {
        os << "unbounded";
      }
      os << " exceeds bound " << req.bound_ms << "ms; only cells meeting the original"
         << " bound are enforceable by a runtime monitor";
      throw Error(os.str(), ErrorCode::kModel);
    }
    monitor::MonitorRequirement mr;
    mr.name = req.name;
    mr.input = req.input;
    mr.output = req.output;
    mr.bound_ms = req.bound_ms;
    mr.verified_ms = rr.bounds.verified_mc_delay;
    mr.verified = true;
    spec.requirements.push_back(std::move(mr));
  }
  return spec;
}

}  // namespace psv::core
