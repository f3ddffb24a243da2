// Scheme-synthesis tests (core/synth.h) on the quickstart lattice
// (examples/models/quickstart.psv x fast_sweep.pss, 8 candidates): frontier
// byte-identity across worker counts, visit orders and pruning; statistics
// identical across worker counts; pruned
// candidates spot-re-verified cold as genuinely failing; warm-start sharing;
// cooperative cancellation; request validation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pim.h"
#include "core/report_serde.h"
#include "core/service.h"
#include "core/synth.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "model_paths.h"
#include "util/error.h"

namespace psv {
namespace {

using psv::testing::read_model;

/// Quickstart synthesis sources: the 8-candidate io.period sweep.
struct Sources {
  std::string model = read_model("quickstart.psv");
  std::string template_source = read_model("fast_sweep.pss");

  core::SynthRequest request(unsigned workers = 0, std::uint64_t visit_seed = 0,
                             bool prune = true) const {
    core::SourceSynthRequest source;
    source.model_source = model;
    source.template_source = template_source;
    source.requirements = {{"QREQ", "Req", "Ack", 80}};
    source.synth.workers = workers;
    source.synth.visit_seed = visit_seed;
    source.synth.prune = prune;
    return core::to_synth_request(source);
  }
};

TEST(SchemeTemplate, EnumeratesTheSweepLattice) {
  Sources src;
  const core::SchemeTemplate tmpl = lang::parse_scheme_template(src.template_source);
  ASSERT_EQ(tmpl.axes.size(), 1u);
  EXPECT_EQ(tmpl.axes.front().label(), "output.Ack.delay_max");
  EXPECT_TRUE(tmpl.axes.front().monotone_worse_up());
  EXPECT_EQ(tmpl.axes.front().lo, 3);
  EXPECT_EQ(tmpl.axes.front().hi, 38);
  EXPECT_EQ(tmpl.axes.front().step, 5);
  ASSERT_EQ(tmpl.candidate_count(), 8u);

  // The base scheme reads every swept field at LO; candidate k sets the
  // axis to lo + k*step.
  EXPECT_EQ(tmpl.base.outputs.at("Ack").delay_max, 3);
  const std::vector<std::int32_t> third = tmpl.values_at(3);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third.front(), 18);
  EXPECT_EQ(tmpl.instantiate(third).outputs.at("Ack").delay_max, 18);
  EXPECT_EQ(tmpl.candidate_name(third), "IS1-fast[output.Ack.delay_max=18]");
}

std::string stats_text(const core::SynthStats& s) {
  std::ostringstream os;
  os << "total " << s.candidates_total << " analytic " << s.pruned_analytic << " dominated "
     << s.pruned_dominated << " cold " << s.explored_cold << " warm " << s.explored_warm
     << " fresh " << s.fresh_states << " reused " << s.warm_states_reused;
  return os.str();
}

// The frontier is identical for every worker count and visit order. The
// work accounting follows visit order, not thread timing: a candidate
// explored while its earlier dominator was still in flight is reclassified
// as dominance-pruned afterwards, so per visit order the whole SynthStats
// (and every candidate status) equals a one-worker run's.
TEST(SchemeSynthesizer, FrontierAndStatsIdenticalAcrossWorkersOrdersAndPruning) {
  Sources src;

  std::string reference;
  for (const std::uint64_t seed : {0ull, 1ull, 2ull}) {
    std::string one_worker_stats;
    std::vector<core::CandidateOutcome::Status> one_worker_status;
    for (const unsigned workers : {1u, 2u, 8u}) {
      core::Verifier verifier;
      core::SchemeSynthesizer synthesizer(verifier);
      const core::SynthReport report = synthesizer.run(src.request(workers, seed));
      EXPECT_EQ(report.stats.candidates_total, 8u);
      EXPECT_EQ(report.stats.explored_cold + report.stats.explored_warm +
                    report.stats.pruned_analytic + report.stats.pruned_dominated,
                8u);
      if (reference.empty()) reference = report.frontier_text();
      EXPECT_EQ(report.frontier_text(), reference)
          << "workers=" << workers << " seed=" << seed;

      std::vector<core::CandidateOutcome::Status> status;
      for (const core::CandidateOutcome& c : report.candidates) status.push_back(c.status);
      if (workers == 1) {
        one_worker_stats = stats_text(report.stats);
        one_worker_status = status;
      }
      EXPECT_EQ(stats_text(report.stats), one_worker_stats)
          << "workers=" << workers << " seed=" << seed;
      EXPECT_TRUE(status == one_worker_status) << "workers=" << workers << " seed=" << seed;
    }
  }

  // Pruning only skips work, never changes the frontier.
  core::Verifier verifier;
  core::SchemeSynthesizer synthesizer(verifier);
  const core::SynthReport unpruned = synthesizer.run(src.request(1, 0, /*prune=*/false));
  EXPECT_EQ(unpruned.stats.pruned_analytic + unpruned.stats.pruned_dominated, 0u);
  EXPECT_EQ(unpruned.frontier_text(), reference);
}

TEST(SchemeSynthesizer, PrunedCandidatesReverifyColdAsFailing) {
  Sources src;

  core::Verifier verifier;
  core::SchemeSynthesizer synthesizer(verifier);
  const core::SynthRequest request = src.request(1);
  const core::SynthReport report = synthesizer.run(request);
  ASSERT_GT(report.stats.pruned_dominated, 0u)
      << "the quickstart sweep must exercise dominance pruning";

  // Every pruned candidate, re-verified cold through a fresh Verifier, must
  // genuinely fail: a constraint violation or a requirement over its
  // ORIGINAL bound. This is the soundness half of the pruning story.
  for (const core::CandidateOutcome& c : report.candidates) {
    if (c.status != core::CandidateOutcome::Status::kPrunedDominated &&
        c.status != core::CandidateOutcome::Status::kPrunedAnalytic)
      continue;
    core::VerifyRequest cold;
    cold.pim = request.pim;
    cold.info = request.info;
    cold.schemes = {request.tmpl.instantiate(c.values)};
    cold.requirements = request.requirements;
    cold.options = request.options;
    core::Verifier cold_verifier;
    const core::VerifyReport vrep = cold_verifier.verify(cold);
    const core::SchemeVerification& sv = vrep.schemes.front();
    bool satisfies = sv.schedulability.ok() && sv.constraints.all_hold();
    for (const core::RequirementResult& r : sv.requirements)
      satisfies = satisfies && r.psm_meets_original;
    EXPECT_FALSE(satisfies) << c.name << " was pruned but satisfies every requirement";
  }
}

TEST(SchemeSynthesizer, WarmStartsEveryExplorationAfterTheFirst) {
  Sources src;

  core::Verifier verifier;
  core::SchemeSynthesizer synthesizer(verifier);
  const core::SynthReport report = synthesizer.run(src.request(1));
  EXPECT_EQ(report.stats.explored_cold, 1u);
  EXPECT_GE(report.stats.explored_warm, 1u);

  std::uint64_t reused = 0;
  for (const core::CandidateOutcome& c : report.candidates)
    reused += c.explore.warm_states_reused;
  EXPECT_GT(reused, 0u) << "warm candidates must adopt pinned-ancestor states";
  EXPECT_GT(report.stats.fresh_states, 0u);
}

TEST(SchemeSynthesizer, FeasibilityFrontierNamesTheTightestWitness) {
  Sources src;

  core::Verifier verifier;
  core::SchemeSynthesizer synthesizer(verifier);
  const core::SynthReport report = synthesizer.run(src.request(1));
  ASSERT_EQ(report.feasibility.size(), 1u);
  const core::FeasibilityEntry& entry = report.feasibility.front();
  EXPECT_EQ(entry.requirement, "QREQ");
  ASSERT_TRUE(entry.bounded);

  // The reported minimum matches the explored candidates, and its witness
  // is a candidate that attains it.
  std::int64_t tightest = -1;
  for (const core::CandidateOutcome& c : report.candidates) {
    if (c.status != core::CandidateOutcome::Status::kExploredCold &&
        c.status != core::CandidateOutcome::Status::kExploredWarm)
      continue;
    if (!c.constraints_ok || c.bounded.empty() || c.bounded.front() == 0) continue;
    if (tightest < 0 || c.delays.front() < tightest) tightest = c.delays.front();
  }
  EXPECT_EQ(entry.tightest_ms, tightest);
  bool witness_attains = false;
  for (const core::CandidateOutcome& c : report.candidates)
    if (c.name == entry.witness && !c.delays.empty() && c.delays.front() == tightest)
      witness_attains = true;
  EXPECT_TRUE(witness_attains) << "witness " << entry.witness << " does not attain "
                               << tightest << "ms";
}

TEST(Verifier, PreFiredCancelTokenAbortsWithKCancelled) {
  Sources src;

  core::SynthRequest request = src.request(1);
  core::VerifyRequest verify;
  verify.pim = request.pim;
  verify.info = request.info;
  verify.schemes = {request.tmpl.instantiate(request.tmpl.values_at(0))};
  verify.requirements = request.requirements;
  verify.options = request.options;
  auto token = std::make_shared<std::atomic<bool>>(true);
  verify.options.explore.cancel = token;

  core::Verifier verifier;
  EXPECT_THROW(
      {
        try {
          (void)verifier.verify(verify);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCancelled);
          throw;
        }
      },
      Error);
}

TEST(SchemeSynthesizer, RejectsInvalidRequests) {
  Sources src;

  core::Verifier verifier;
  core::SchemeSynthesizer synthesizer(verifier);

  core::SynthRequest no_requirements = src.request(1);
  no_requirements.requirements.clear();
  EXPECT_THROW(
      {
        try {
          (void)synthesizer.run(no_requirements);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kModel);
          throw;
        }
      },
      Error);

  core::SynthRequest bad_channel = src.request(1);
  bad_channel.requirements = {{"BAD", "NoSuchInput", "Ack", 80}};
  EXPECT_THROW(
      {
        try {
          (void)synthesizer.run(bad_channel);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kModel);
          throw;
        }
      },
      Error);
}

}  // namespace
}  // namespace psv
