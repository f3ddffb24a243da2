// Differential gate for the slack / critical-path surface: every reported
// top-K critical trace must be a real behaviour of the model.
//
// Each ranked witness of a bound query is replayed step by step through the
// symbolic semantics (sim/replay.h) under the exploration's recorded
// extrapolation constants. The replay must succeed, the final state must
// satisfy the query predicate, and — for sweep-engine traces, whose
// constants keep the probe-clock bound exact — the replayed DBM upper bound
// must equal the reported delay exactly. Slack arithmetic is pinned too:
// slack = requirement - verified bound, per requirement, with the binding
// requirement being the argmin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/pim.h"
#include "core/service.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/query.h"
#include "mc/session.h"
#include "mc/state.h"
#include "model_paths.h"
#include "sim/replay.h"
#include "support/probe_oracle.h"

namespace psv {
namespace {

using namespace psv::ta;
using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

// Replay every ranked witness of `result` through `net` and check it
// attains its reported value. `exact_upper` is true for sweep-engine
// results: their witness constants cover the bound, so the replayed
// probe-clock upper bound is exact. Probe-engine constants stop at
// bound - 1, so the final state's upper bound is abstracted to infinity —
// there the replay itself (plus predicate satisfaction) is the gate.
void expect_ranked_replayable(const ta::Network& net, const mc::MaxClockResult& result,
                              const mc::StateFormula& pred, ta::ClockId clock,
                              bool exact_upper, const std::string& label) {
  ASSERT_TRUE(result.bounded) << label;
  ASSERT_FALSE(result.ranked.empty()) << label;
  EXPECT_EQ(result.ranked.front().value, result.bound) << label;
  for (std::size_t i = 1; i < result.ranked.size(); ++i)
    EXPECT_LE(result.ranked[i].value, result.ranked[i - 1].value)
        << label << " ranked[" << i << "] out of order";
  for (std::size_t i = 0; i < result.ranked.size(); ++i) {
    const mc::RankedWitness& w = result.ranked[i];
    const sim::ReplayResult replay = sim::replay_trace(net, w.trace, result.witness_consts);
    ASSERT_TRUE(replay.ok) << label << " ranked[" << i << "]: " << replay.error;
    EXPECT_EQ(replay.steps_matched, w.trace.steps.size()) << label;
    EXPECT_TRUE(mc::satisfies(net, replay.final_state, pred))
        << label << " ranked[" << i << "] final state misses the predicate";
    const auto upper = sim::replayed_clock_max(replay.final_state, clock);
    if (exact_upper) {
      ASSERT_TRUE(upper.has_value()) << label << " ranked[" << i << "]";
      EXPECT_EQ(*upper, w.value) << label << " ranked[" << i << "]";
    } else if (upper.has_value()) {
      EXPECT_GE(*upper, w.value) << label << " ranked[" << i << "]";
    }
  }
}

// --- Pump case study: top-K traces replay to their reported delays --------

TEST(SlackTraces, PumpTopKTracesReplayExactlySweep) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));
  const core::InputArtifacts& in = psm.input("BolusReq");
  const core::OutputArtifacts& out = psm.output("StartInfusion");

  const mc::StateFormula in_pred = mc::when(var_eq(in.pending, 1));
  const mc::StateFormula out_pred = mc::when(var_eq(out.pending, 1));
  std::vector<mc::BoundQuery> batch(2);
  batch[0] = {in_pred, in.delay_clock, 100'000, 490, /*top_k=*/5};
  batch[1] = {out_pred, out.delay_clock, 100'000, 440, /*top_k=*/5};

  mc::VerificationSession session(psm.psm);
  const std::vector<mc::MaxClockResult> results = session.max_clock_values(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].bound, 490) << "Table-I Input-Delay";
  EXPECT_EQ(results[1].bound, 440) << "Table-I Output-Delay";
  expect_ranked_replayable(psm.psm, results[0], in_pred, in.delay_clock,
                           /*exact_upper=*/true, "Input-Delay(BolusReq)");
  expect_ranked_replayable(psm.psm, results[1], out_pred, out.delay_clock,
                           /*exact_upper=*/true, "Output-Delay(StartInfusion)");

  // Ranked traces are served from the session memo: no new exploration.
  const int explorations = session.stats().explorations;
  const std::vector<mc::RankedWitness> again = session.max_clock_value(batch[0]).ranked;
  EXPECT_EQ(session.stats().explorations, explorations);
  ASSERT_EQ(again.size(), results[0].ranked.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].value, results[0].ranked[i].value);
    EXPECT_EQ(again[i].trace.to_string(), results[0].ranked[i].trace.to_string());
  }
}

TEST(SlackTraces, PumpProbeWitnessReplays) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));
  const core::OutputArtifacts& out = psm.output("StartInfusion");

  const mc::StateFormula pred = mc::when(var_eq(out.pending, 1));
  const mc::MaxClockResult result = psv::testing::probe_max_clock_value(
      psm.psm, pred, out.delay_clock, 100'000, {}, 440, /*top_k=*/5);
  ASSERT_TRUE(result.bounded);
  EXPECT_EQ(result.bound, 440);
  // The oracle's goal-directed searches only ever materialize the extremal
  // witness.
  ASSERT_EQ(result.ranked.size(), 1u);
  expect_ranked_replayable(psm.psm, result, pred, out.delay_clock,
                           /*exact_upper=*/false, "probe Output-Delay");
}

// Tampered traces must be rejected — the replayer is only a gate if it can
// fail.
TEST(SlackTraces, ReplayRejectsTamperedTraces) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));
  const core::InputArtifacts& in = psm.input("BolusReq");

  mc::VerificationSession session(psm.psm);
  const mc::MaxClockResult result = session.max_clock_value(
      {mc::when(var_eq(in.pending, 1)), in.delay_clock, 100'000, 490, /*top_k=*/1});
  ASSERT_FALSE(result.ranked.empty());
  ASSERT_GE(result.ranked.front().trace.steps.size(), 2u);

  mc::Trace tampered = result.ranked.front().trace;
  tampered.steps[1].label = "Phantom.l0->l1[boom!]";
  EXPECT_FALSE(sim::replay_trace(psm.psm, tampered, result.witness_consts).ok);

  mc::Trace truncated_consts_trace = result.ranked.front().trace;
  // Replaying under the wrong extrapolation constants must not silently
  // "succeed" with different states: drop the constants entirely.
  const sim::ReplayResult wrong =
      sim::replay_trace(psm.psm, truncated_consts_trace, {});
  // Either the renderings diverge (replay fails) or — if every zone happens
  // to render identically — the replay is still a faithful behaviour. Both
  // are sound; what matters is no crash and a definite verdict.
  if (!wrong.ok) {
    EXPECT_FALSE(wrong.error.empty());
  }

  EXPECT_FALSE(sim::replay_trace(psm.psm, mc::Trace{}, result.witness_consts).ok)
      << "empty traces are not witnesses";
}

// --- Quickstart service surface: slack arithmetic + critical replay -------

TEST(SlackReportService, QuickstartSlackIsExactAndCriticalTracesReplay) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  const std::vector<core::TimingRequirement> reqs = {
      {"QREQ", "Req", "Ack", 80}, {"QTIGHT", "Req", "Ack", 40}, {"QWIDE", "Req", "Ack", 300}};

  core::Verifier verifier;
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = reqs;
  const core::VerifyReport report = verifier.verify(request);
  ASSERT_EQ(report.schemes.size(), 1u);
  const core::SchemeVerification& sv = report.schemes.front();
  ASSERT_EQ(sv.slack.requirements.size(), reqs.size());

  // slack = requirement - verified bound, exactly, per requirement.
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const core::RequirementSlack& rs = sv.slack.requirements[r];
    const core::BoundAnalysis& bounds = sv.requirements[r].bounds;
    EXPECT_EQ(rs.requirement, reqs[r].name);
    EXPECT_EQ(rs.requirement_ms, reqs[r].bound_ms);
    ASSERT_TRUE(rs.bounded) << reqs[r].name;
    EXPECT_EQ(rs.verified_ms, bounds.verified_mc_delay) << reqs[r].name;
    EXPECT_EQ(rs.slack_ms, reqs[r].bound_ms - bounds.verified_mc_delay) << reqs[r].name;
    ASSERT_FALSE(rs.critical.empty()) << reqs[r].name;
    EXPECT_EQ(rs.critical.front().delay_ms, rs.verified_ms) << reqs[r].name;
    for (const core::CriticalTrace& ct : rs.critical)
      EXPECT_EQ(ct.slack_ms, reqs[r].bound_ms - ct.delay_ms) << reqs[r].name;
  }

  // Binding attribution: QTIGHT (bound 40 < verified 59) has the least —
  // and only negative — slack.
  EXPECT_EQ(sv.slack.binding().requirement, "QTIGHT");
  EXPECT_EQ(sv.slack.min_slack_ms, sv.slack.binding().slack_ms);
  EXPECT_LT(sv.slack.min_slack_ms, 0);
  EXPECT_FALSE(sv.slack.any_unbounded);

  // Every critical trace replays through the reconstructed instrumented
  // PSM (transformation + instrumentation are deterministic, so this is
  // the very network the service session explored) and attains its
  // reported delay exactly.
  const core::PsmArtifacts psm = core::transform(pim, info, scheme);
  const core::InstrumentedPsmBatch batch = core::instrument_psm_for_requirements(psm, reqs);
  ASSERT_EQ(batch.mc_probes.size(), reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const core::RequirementSlack& rs = sv.slack.requirements[r];
    const mc::StateFormula pred = mc::when(var_eq(batch.mc_probes[r].pending, 1));
    for (std::size_t i = 0; i < rs.critical.size(); ++i) {
      const core::CriticalTrace& ct = rs.critical[i];
      const sim::ReplayResult replay =
          sim::replay_trace(batch.net, ct.trace, rs.witness_consts);
      ASSERT_TRUE(replay.ok) << reqs[r].name << " critical[" << i << "]: " << replay.error;
      EXPECT_TRUE(mc::satisfies(batch.net, replay.final_state, pred)) << reqs[r].name;
      const auto upper = sim::replayed_clock_max(replay.final_state, batch.mc_probes[r].clock);
      ASSERT_TRUE(upper.has_value()) << reqs[r].name << " critical[" << i << "]";
      EXPECT_EQ(*upper, ct.delay_ms) << reqs[r].name << " critical[" << i << "]";
    }
  }
}

// top_k = 0 disables retention without disturbing bounds or verdicts.
TEST(SlackReportService, TopKZeroKeepsVerdictsDropsTraces) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");

  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};

  core::Verifier verifier;
  const core::VerifyReport with_traces = verifier.verify(request);
  request.options.top_k = 0;
  const core::VerifyReport without = verifier.verify(request);

  ASSERT_EQ(with_traces.schemes.size(), 1u);
  ASSERT_EQ(without.schemes.size(), 1u);
  const core::RequirementSlack& a = with_traces.schemes[0].slack.requirements.at(0);
  const core::RequirementSlack& b = without.schemes[0].slack.requirements.at(0);
  EXPECT_EQ(a.slack_ms, b.slack_ms);
  EXPECT_EQ(a.verified_ms, b.verified_ms);
  EXPECT_FALSE(a.critical.empty());
  EXPECT_TRUE(b.critical.empty());
  EXPECT_EQ(with_traces.schemes[0].requirements[0].passed,
            without.schemes[0].requirements[0].passed);
}

}  // namespace
}  // namespace psv
