#include "pipeline.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "core/analysis.h"
#include "core/constraints.h"
#include "core/pim.h"
#include "core/schedulability.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "plan.h"
#include "ta/fingerprint.h"
#include "ta/print.h"
#include "util/hash.h"

namespace psvbench {

using namespace psv;

namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start).count();
}

mc::ExploreStats explore_delta(const mc::ExploreStats& now, const mc::ExploreStats& before) {
  mc::ExploreStats d;
  d.states_stored = now.states_stored - before.states_stored;
  d.states_explored = now.states_explored - before.states_explored;
  d.transitions_fired = now.transitions_fired - before.transitions_fired;
  d.subsumed = now.subsumed - before.subsumed;
  d.warm_states_reused = now.warm_states_reused - before.warm_states_reused;
  d.warm_states_revalidated = now.warm_states_revalidated - before.warm_states_revalidated;
  d.warm_seed_expansions = now.warm_seed_expansions - before.warm_seed_expansions;
  return d;
}

/// Inverse of Digest128::hex(); nullopt on anything but 32 lowercase hex chars.
std::optional<Digest128> parse_digest_hex(const std::string& hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = hex[i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    words[i / 16] = (words[i / 16] << 4) | nibble;
  }
  return Digest128{words[0], words[1]};
}

}  // namespace

TracedPipeline::TracedPipeline(Tracer& tracer, const std::string& cache_dir)
    : tracer_(tracer) {
  if (!cache_dir.empty()) store_.emplace(cache_dir);
}

template <class Fn>
void TracedPipeline::explore(mc::VerificationSession& session, std::uint64_t request, Fn&& fn) {
  if (!tracer_.recording()) {
    fn();
    return;
  }
  const mc::SessionStats before = session.stats();
  const double rss_before = resident_bytes();
  int id = 0;
  {
    Tracer::Scope span(tracer_, "mc.explore", request);
    id = span.id();
    fn();
  }
  const mc::SessionStats& after = session.stats();
  const mc::ExploreStats d = explore_delta(after.explore, before.explore);
  const unsigned jobs = session.options().jobs != 0 ? session.options().jobs
                                                    : std::max(1u, std::thread::hardware_concurrency());
  tracer_.arg(id, "jobs", jobs);
  tracer_.arg(id, "explorations", after.explorations - before.explorations);
  tracer_.arg(id, "states_stored", static_cast<double>(d.states_stored));
  tracer_.arg(id, "states_explored", static_cast<double>(d.states_explored));
  tracer_.arg(id, "transitions_fired", static_cast<double>(d.transitions_fired));
  tracer_.arg(id, "subsumed", static_cast<double>(d.subsumed));
  tracer_.arg(id, "warm_reused", static_cast<double>(d.warm_states_reused));
  tracer_.arg(id, "warm_revalidated", static_cast<double>(d.warm_states_revalidated));
  tracer_.arg(id, "warm_seed_expansions", static_cast<double>(d.warm_seed_expansions));
  tracer_.arg(id, "rss_growth", resident_bytes() - rss_before);
}

std::shared_ptr<TracedPipeline::Slot> TracedPipeline::acquire(ta::Network&& net,
                                                             const mc::ExploreOptions& explore,
                                                             std::uint64_t request) {
  // As Verifier::acquire: the session is built on every request (its
  // constructor fingerprints the network and digests its skeleton), then
  // keyed on its artifact key + a digest of the raw rendering; a pool hit
  // discards it.
  std::optional<mc::VerificationSession> session;
  std::string key;
  {
    Tracer::Scope span(tracer_, "ta.fingerprint", request);
    session.emplace(std::move(net), explore);
    Hasher128 raw;
    raw.str(ta::network_text(session->net()));
    key = session->cache_key().hex() + "-" + raw.digest().hex();
  }
  if (const auto it = pool_.find(key); it != pool_.end()) {
    lru_.remove(key);
    lru_.push_back(key);
    return it->second;
  }
  auto slot = std::make_shared<Slot>();
  slot->session.emplace(std::move(*session));
  pool_.emplace(key, slot);
  lru_.push_back(key);
  while (pool_.size() > kMaxSessions) {
    pool_.erase(lru_.front());
    lru_.pop_front();
  }
  return slot;
}

void TracedPipeline::prepare(Slot& slot, std::uint64_t request) {
  mc::VerificationSession& session = *slot.session;
  if (store_ && !slot.load_attempted) {
    Tracer::Scope span(tracer_, "mc.artifact_load", request);
    span.arg("loaded", session.load(*store_) ? 1 : 0);
    slot.load_attempted = true;
  }
  if (session.exported_store() != nullptr) return;
  const std::string skeleton = session.skeleton().hex();
  std::shared_ptr<const mc::PassedStoreExport> ancestor;
  if (const auto it = ancestors_.find(skeleton); it != ancestors_.end()) ancestor = it->second;
  if (ancestor == nullptr && store_) {
    // The Verifier's disk fallback: <skeleton>.psvanc names the artifact
    // whose passed store seeds this session.
    Tracer::Scope span(tracer_, "mc.artifact_load", request);
    std::ifstream pointer((std::filesystem::path(store_->dir()) / (skeleton + ".psvanc")).string());
    std::string key_hex;
    if (pointer.good() && std::getline(pointer, key_hex)) {
      if (const std::optional<Digest128> key = parse_digest_hex(key_hex); key.has_value()) {
        std::optional<mc::VerificationArtifact> artifact = store_->load(mc::ArtifactKey{*key});
        if (artifact.has_value() && artifact->store.has_value() &&
            artifact->skeleton == session.skeleton()) {
          ancestor = std::make_shared<const mc::PassedStoreExport>(std::move(*artifact->store));
          ancestors_.emplace(skeleton, ancestor);
          span.arg("ancestor", 1);
        }
      }
    }
  }
  if (ancestor != nullptr) session.adopt_ancestor(std::move(ancestor));
}

void TracedPipeline::store_and_publish(const mc::VerificationSession& session,
                                       std::uint64_t request) {
  std::optional<Tracer::Scope> span;
  if (store_) {
    span.emplace(tracer_, "mc.artifact_store", request);
    if (session.store(*store_)) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(store_->path_of(session.cache_key()), ec);
      span->arg("bytes", ec ? 0.0 : static_cast<double>(bytes));
      span->arg("states", static_cast<double>(session.stats().explore.states_stored));
    }
  }
  std::shared_ptr<const mc::PassedStoreExport> exported = session.exported_store();
  if (exported == nullptr) return;
  const std::string skeleton = session.skeleton().hex();
  ancestors_[skeleton] = exported;
  if (!store_) return;
  const std::string path = (std::filesystem::path(store_->dir()) / (skeleton + ".psvanc")).string();
  {
    std::ofstream file(path + ".tmp", std::ios::trunc);
    file << session.cache_key().hex() << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(path + ".tmp", path, ec);
}

core::VerifyReport TracedPipeline::verify(const core::SourceRequest& source,
                                          const std::vector<std::string>& requirement_texts,
                                          std::uint64_t request) {
  Tracer::Scope verify_span(tracer_, "core.verify", request);
  core::VerifyRequest req;
  req.requirements = source.requirements;
  req.options = source.options;
  {
    Tracer::Scope span(tracer_, "lang.parse", request);
    req.pim = lang::parse_model(source.model_source);
    for (const std::string& text : source.scheme_sources)
      req.schemes.push_back(lang::parse_scheme(text));
    if (!requirement_texts.empty()) {
      req.requirements.clear();
      for (const std::string& text : requirement_texts)
        req.requirements.push_back(lang::parse_requirement(text));
    }
  }
  const core::VerifyOptions& opts = req.options;
  const std::vector<core::TimingRequirement>& reqs = req.requirements;

  core::VerifyReport report;
  report.requirements = reqs;

  // [1] PIM |= P(delta) for the whole requirement set.
  auto start = SteadyClock::now();
  core::PimInfo info;
  ta::Network pim_net;
  std::vector<core::RequirementProbe> pim_probes;
  {
    Tracer::Scope span(tracer_, "core.transform", request);
    info = core::analyze_pim(req.pim);
    pim_net = req.pim;
    pim_probes =
        core::instrument_mc_delays(pim_net, req.pim.automaton(info.environment).name(), reqs);
  }
  core::PimBatchVerification pim_batch;
  {
    std::shared_ptr<Slot> slot = acquire(std::move(pim_net), opts.explore, request);
    std::lock_guard<std::mutex> lock(slot->mu);
    mc::VerificationSession& session = *slot->session;
    session.set_cancel(opts.explore.cancel);
    prepare(*slot, request);
    explore(session, request, [&] {
      pim_batch = core::verify_pim_requirements_in_session(session, pim_probes, reqs,
                                                           opts.search_limit, store_.has_value());
    });
    store_and_publish(session, request);
  }
  report.pim_stages.push_back(core::VerifyStageStats{"pim-verification", ms_since(start),
                                                     pim_batch.stats, pim_batch.explorations,
                                                     pim_batch.cache});

  std::vector<std::int64_t> internals;
  for (std::size_t r = 0; r < reqs.size(); ++r)
    internals.push_back(pim_batch.requirements[r].bounded ? pim_batch.requirements[r].max_delay
                                                          : reqs[r].bound_ms);

  for (const core::ImplementationScheme& scheme : req.schemes) {
    core::SchemeVerification sv;
    sv.scheme_name = scheme.name;

    // [2] analytic pre-check + PIM -> PSM with the full batch probe set.
    start = SteadyClock::now();
    core::InstrumentedPsmBatch instrumented;
    {
      Tracer::Scope span(tracer_, "core.transform", request);
      sv.schedulability = core::check_schedulability(req.pim, info, scheme);
      sv.psm = core::transform(req.pim, info, scheme, opts.transform);
      instrumented = core::instrument_psm_for_requirements(sv.psm, reqs);
    }
    std::shared_ptr<Slot> slot = acquire(std::move(instrumented.net), opts.explore, request);
    std::lock_guard<std::mutex> lock(slot->mu);
    mc::VerificationSession& session = *slot->session;
    session.set_cancel(opts.explore.cancel);
    prepare(*slot, request);
    sv.stages.push_back(core::VerifyStageStats{"transform", ms_since(start), {}, 0, {}});

    const core::BoundQueryPlan plan = core::plan_bound_queries(
        sv.psm, instrumented.mc_probes, reqs, internals, opts.search_limit, opts.top_k);

    // [3] C1-C4 + deadlock and every bound query from one combined sweep.
    start = SteadyClock::now();
    mc::SessionStats before = session.stats();
    if (opts.run_constraint_checks) {
      explore(session, request, [&] {
        session.verify_batch(plan.queries, core::constraint_flag_vars(sv.psm));
        sv.constraints = core::check_constraints(session, sv.psm, true);
      });
    }
    sv.stages.push_back(core::VerifyStageStats{
        "constraints", ms_since(start), explore_delta(session.stats().explore, before.explore),
        session.stats().explorations - before.explorations,
        mc::stage_cache_delta(session, before, store_.has_value())});

    // [4] Lemma 1 / Lemma 2 / exact bounds (memo hits after [3]).
    start = SteadyClock::now();
    before = session.stats();
    std::vector<mc::MaxClockResult> answers;
    explore(session, request, [&] { answers = session.max_clock_values(plan.queries); });
    std::vector<core::BoundAnalysis> analyses =
        core::assemble_bound_analyses(plan, sv.psm, reqs, internals, answers, opts.search_limit);
    sv.slack = core::compute_slack_report(
        reqs,
        std::vector<mc::MaxClockResult>(answers.end() - static_cast<std::ptrdiff_t>(reqs.size()),
                                        answers.end()),
        opts.search_limit);
    sv.stages.push_back(core::VerifyStageStats{
        "bounds", ms_since(start), explore_delta(session.stats().explore, before.explore),
        session.stats().explorations - before.explorations,
        mc::stage_cache_delta(session, before, store_.has_value())});
    store_and_publish(session, request);

    // [5] verdicts from the exact maxima.
    const bool constraints_ok = sv.constraints.all_hold();
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      core::RequirementResult rr;
      rr.requirement = reqs[r];
      rr.pim = pim_batch.requirements[r];
      rr.bounds = std::move(analyses[r]);
      rr.psm_meets_original =
          rr.bounds.verified_mc_bounded && rr.bounds.verified_mc_delay <= reqs[r].bound_ms;
      rr.psm_meets_relaxed =
          rr.bounds.verified_mc_bounded && rr.bounds.verified_mc_delay <= rr.bounds.lemma2_total;
      rr.passed = constraints_ok && rr.psm_meets_relaxed;
      sv.requirements.push_back(std::move(rr));
    }
    report.schemes.push_back(std::move(sv));
  }
  return report;
}

}  // namespace psvbench
