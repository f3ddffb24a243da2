// Batch-vs-sequential equivalence proof on the pump model (exhaustive
// label): a 3-requirement batch must produce bit-identical bounds and
// verdicts to three independent single-requirement requests, while exploring the
// PSM state space ONCE (stages 3-5 combined) instead of once per pipeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/service.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/session.h"
#include "model_paths.h"

namespace psv {
namespace {

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

TEST(VerifierPumpEquivalence, ThreeRequirementBatchMatchesThreeRuns) {
  const ta::Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("board.pss");
  const std::vector<core::TimingRequirement> reqs = {
      {"REQ1", "BolusReq", "StartInfusion", 500},
      {"REQ2", "BolusReq", "StopInfusion", 2500},
      {"REQ3", "BolusReq", "StartInfusion", 1200},
  };

  core::Verifier verifier;
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = reqs;
  const core::VerifyReport report = verifier.verify(request);
  ASSERT_EQ(report.schemes.size(), 1u);
  const core::SchemeVerification& sv = report.schemes.front();
  ASSERT_EQ(sv.requirements.size(), reqs.size());

  // --- StageStats: the whole batch explored the PSM once. -------------------
  ASSERT_EQ(report.pim_stages.size(), 1u);
  EXPECT_EQ(report.pim_stages.front().explorations, 1)
      << "all three PIM verdicts must come from one instrumented sweep";
  int psm_explorations = 0;
  std::size_t psm_states_explored = 0;
  for (const core::VerifyStageStats& stage : sv.stages) {
    if (stage.name == "constraints" || stage.name == "bounds") {
      psm_explorations += stage.explorations;
      psm_states_explored += stage.explore.states_explored;
    }
  }
  EXPECT_EQ(psm_explorations, 1)
      << "stages 3-5 must answer constraints AND every bound from one combined sweep";
  EXPECT_GT(psm_states_explored, 0u);

  // --- Bit-identical bounds/verdicts vs three independent pipelines. --------
  std::size_t sequential_psm_explorations = 0;
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    core::VerifyRequest one = request;
    one.requirements = {reqs[r]};
    const core::VerifyReport single_report = core::Verifier().verify(one);
    const core::SchemeVerification& single_sv = single_report.schemes.at(0);
    const core::RequirementResult& single = single_sv.requirements.at(0);
    const core::RequirementResult& batched = sv.requirements[r];
    EXPECT_EQ(single.bounds.to_string(), batched.bounds.to_string()) << reqs[r].name;
    EXPECT_EQ(single.pim.max_delay, batched.pim.max_delay) << reqs[r].name;
    EXPECT_EQ(single.pim.holds, batched.pim.holds) << reqs[r].name;
    EXPECT_EQ(single.pim.bounded, batched.pim.bounded) << reqs[r].name;
    EXPECT_EQ(single.psm_meets_original, batched.psm_meets_original) << reqs[r].name;
    EXPECT_EQ(single.psm_meets_relaxed, batched.psm_meets_relaxed) << reqs[r].name;
    ASSERT_EQ(single_sv.constraints.checks.size(), sv.constraints.checks.size()) << reqs[r].name;
    for (std::size_t c = 0; c < single_sv.constraints.checks.size(); ++c) {
      EXPECT_EQ(single_sv.constraints.checks[c].id, sv.constraints.checks[c].id);
      EXPECT_EQ(single_sv.constraints.checks[c].holds, sv.constraints.checks[c].holds)
          << sv.constraints.checks[c].name;
    }
    sequential_psm_explorations += static_cast<std::size_t>(
        single_report.explorations_in("constraints") + single_report.explorations_in("bounds"));
  }
  // Three sequential pipelines each pay for their own sweep.
  EXPECT_GE(sequential_psm_explorations, reqs.size());

  // Table-I anchors: the shared per-variable bounds must be the published
  // 490/440 figures in the batch exactly as in every single run.
  const core::BoundAnalysis& bounds = sv.requirements.front().bounds;
  ASSERT_FALSE(bounds.input_delays.empty());
  EXPECT_EQ(bounds.input_delays.front().verified, 490);
  ASSERT_FALSE(bounds.output_delays.empty());
  EXPECT_EQ(bounds.output_delays.front().verified, 440);
}

TEST(VerifierPumpEquivalence, SessionStatsExposeSharedWork) {
  const ta::Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("board.pss");
  const std::vector<core::TimingRequirement> reqs = {
      {"REQ1", "BolusReq", "StartInfusion", 500},
      {"REQ2", "BolusReq", "StopInfusion", 2500},
      {"REQ3", "BolusReq", "StartInfusion", 1200},
  };

  // Drive the batch planner's layers directly (the service is a thin
  // orchestration of exactly these calls) and read the SessionStats.
  const core::PsmArtifacts psm = core::transform(pim, info, scheme);
  core::InstrumentedPsmBatch instrumented = core::instrument_psm_for_requirements(psm, reqs);
  ASSERT_EQ(instrumented.mc_probes.size(), reqs.size());
  mc::VerificationSession session(std::move(instrumented.net), {});
  const core::BoundQueryPlan plan = core::plan_bound_queries(
      psm, instrumented.mc_probes, reqs, {500, 1700, 500}, 1'000'000);
  const mc::VerificationSession::BatchReport batch =
      session.verify_batch(plan.queries, core::constraint_flag_vars(psm));
  EXPECT_EQ(session.stats().explorations, 1)
      << "flags + every bound of 3 requirements from ONE exploration";
  ASSERT_EQ(batch.bounds.size(), plan.queries.size());
  // Re-asking anything is free now.
  const int explorations = session.stats().explorations;
  session.max_clock_values(plan.queries);
  session.check_flags(core::constraint_flag_vars(psm));
  EXPECT_EQ(session.stats().explorations, explorations);
  EXPECT_GT(session.stats().cache_hits, 0);
}

// A timelocked PSM (quickstart + late.pss: the 200 ms period overruns M's
// response window) answers its C1–C4 flags, the timelock verdict and every
// bound from the one batch sweep: the timelock does not end it, so nothing
// is re-explored afterwards.
TEST(VerifierTimelock, LateSchemeAnswersFlagsDeadlockAndBoundsFromOneSweep) {
  const ta::Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const std::vector<core::TimingRequirement> reqs = {{"QREQ", "Req", "Ack", 80}};
  const core::PimVerification pim_v = core::verify_pim_requirement(pim, info, reqs.front());
  ASSERT_TRUE(pim_v.bounded);

  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("late.pss"));
  core::InstrumentedPsmBatch instrumented = core::instrument_psm_for_requirements(psm, reqs);
  mc::VerificationSession session(std::move(instrumented.net), {});
  const core::BoundQueryPlan plan = core::plan_bound_queries(
      psm, instrumented.mc_probes, reqs, {pim_v.max_delay}, 1'000'000);
  const mc::VerificationSession::BatchReport batch =
      session.verify_batch(plan.queries, core::constraint_flag_vars(psm));
  EXPECT_EQ(session.stats().explorations, 1)
      << "flags, timelock and every bound of a timelocked PSM from ONE exploration";
  EXPECT_TRUE(batch.flags.deadlock.found && batch.flags.deadlock.timelock);
  ASSERT_EQ(batch.flags.reachable.size(), core::constraint_flag_vars(psm).size());

  const core::ConstraintReport report = core::check_constraints(session, psm);
  EXPECT_EQ(session.stats().explorations, 1) << "check_constraints is served from the sweep";
  EXPECT_FALSE(report.all_hold()) << report.to_string();
  ASSERT_FALSE(report.checks.empty());
  EXPECT_NE(report.checks.back().detail.find("timelock reachable"), std::string::npos)
      << report.to_string();
}

}  // namespace
}  // namespace psv
