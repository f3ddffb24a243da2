// Tests for the discrete-event kernel, the simulated platform, and the
// trace replayer's error paths.
#include <gtest/gtest.h>

#include "core/pim.h"
#include "core/transform.h"
#include "lang/scheme_parser.h"
#include "mc/query.h"
#include "mc/session.h"
#include "model_paths.h"
#include "sim/kernel.h"
#include "sim/platform.h"
#include "sim/replay.h"
#include "sim/runner.h"
#include "ta/expr.h"
#include "util/error.h"

namespace psv::sim {
namespace {

using psv::Error;
using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

core::TimingRequirement req1() {
  return lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500");
}

TEST(Kernel, EventsFireInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(ms(30), [&order] { order.push_back(3); });
  k.schedule_at(ms(10), [&order] { order.push_back(1); });
  k.schedule_at(ms(20), [&order] { order.push_back(2); });
  k.run_until(ms(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), ms(100));
}

TEST(Kernel, EqualTimesFifo) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) k.schedule_at(ms(10), [&order, i] { order.push_back(i); });
  k.run_until(ms(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, NestedScheduling) {
  Kernel k;
  int fired = 0;
  k.schedule_at(ms(5), [&] {
    ++fired;
    k.schedule_in(ms(5), [&] { ++fired; });
  });
  k.run_until(ms(20));
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunUntilStopsEarly) {
  Kernel k;
  int fired = 0;
  k.schedule_at(ms(50), [&] { ++fired; });
  k.run_until(ms(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(k.now(), ms(10));
  k.run_until(ms(100));
  EXPECT_EQ(fired, 1);
}

TEST(Kernel, PastSchedulingRejected) {
  Kernel k;
  k.schedule_at(ms(10), [] {});
  k.run_until(ms(20));
  EXPECT_THROW(k.schedule_at(ms(5), [] {}), Error);
}

// --- Platform ----------------------------------------------------------------

struct PumpFixture {
  ta::Network pim = parse_model_file("pump_syringe.psv");
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  core::ImplementationScheme scheme = parse_scheme_file("board_syringe.pss");
};

TEST(Platform, BolusRequestFlowsThroughAllBoundaries) {
  PumpFixture f;
  Kernel kernel;
  PlatformSim platform(kernel, f.pim, f.info, f.scheme, SimCalibration{}, Rng(7));
  platform.start();
  kernel.schedule_at(ms(500), [&] { platform.inject_input("BolusReq"); });
  kernel.run_until(ms(10000));

  bool saw_m = false, saw_i = false, saw_o = false, saw_c = false;
  for (const BoundaryEvent& e : platform.events()) {
    saw_m = saw_m || (e.boundary == Boundary::kMonitored && e.name == "BolusReq");
    saw_i = saw_i || (e.boundary == Boundary::kProgramIn && e.name == "BolusReq");
    saw_o = saw_o || (e.boundary == Boundary::kProgramOut && e.name == "StartInfusion");
    saw_c = saw_c || (e.boundary == Boundary::kControlled && e.name == "StartInfusion");
  }
  EXPECT_TRUE(saw_m && saw_i && saw_o && saw_c);
  EXPECT_EQ(platform.stats().missed_inputs, 0);
  EXPECT_EQ(platform.stats().input_overflows, 0);
  EXPECT_GT(platform.stats().invocations, 0);
}

TEST(Platform, EventTimesAreMonotonicPerTransaction) {
  PumpFixture f;
  Kernel kernel;
  PlatformSim platform(kernel, f.pim, f.info, f.scheme, SimCalibration{}, Rng(11));
  platform.start();
  kernel.schedule_at(ms(100), [&] { platform.inject_input("BolusReq"); });
  kernel.run_until(ms(10000));

  auto result = extract_delays(platform.events(), req1());
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->mi_ms, 0.0);
  EXPECT_GT(result->oc_ms, 0.0);
  EXPECT_GT(result->mc_ms, result->mi_ms);
  EXPECT_GT(result->mc_ms, result->oc_ms);
}

TEST(Platform, RepeatedPressWhileLatchedIsMissed) {
  PumpFixture f;
  Kernel kernel;
  PlatformSim platform(kernel, f.pim, f.info, f.scheme, SimCalibration{}, Rng(3));
  platform.start();
  // Two presses 1ms apart: the second finds the latch still set (polling
  // interval is 240ms, so the first press cannot have been sampled yet).
  kernel.schedule_at(ms(100), [&] { platform.inject_input("BolusReq"); });
  kernel.schedule_at(ms(101), [&] { platform.inject_input("BolusReq"); });
  kernel.run_until(ms(5000));
  EXPECT_EQ(platform.stats().missed_inputs, 1);
}

TEST(Platform, UnknownInputRejected) {
  PumpFixture f;
  Kernel kernel;
  PlatformSim platform(kernel, f.pim, f.info, f.scheme, SimCalibration{}, Rng(5));
  platform.start();
  EXPECT_THROW(platform.inject_input("Nope"), Error);
}

TEST(Platform, DoubleStartRejected) {
  PumpFixture f;
  Kernel kernel;
  PlatformSim platform(kernel, f.pim, f.info, f.scheme, SimCalibration{}, Rng(5));
  platform.start();
  EXPECT_THROW(platform.start(), Error);
}

// --- Runner ----------------------------------------------------------------

TEST(Runner, ExtractDelaysPairsBoundaries) {
  std::vector<BoundaryEvent> events = {
      {ms(100), Boundary::kMonitored, "BolusReq"},
      {ms(150), Boundary::kProgramIn, "BolusReq"},
      {ms(400), Boundary::kProgramOut, "StartInfusion"},
      {ms(600), Boundary::kControlled, "StartInfusion"},
  };
  auto r = extract_delays(events, req1());
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->mc_ms, 500.0);
  EXPECT_DOUBLE_EQ(r->mi_ms, 50.0);
  EXPECT_DOUBLE_EQ(r->oc_ms, 200.0);
}

TEST(Runner, ExtractDelaysIncompleteStream) {
  std::vector<BoundaryEvent> events = {
      {ms(100), Boundary::kMonitored, "BolusReq"},
      {ms(150), Boundary::kProgramIn, "BolusReq"},
  };
  EXPECT_FALSE(extract_delays(events, req1()).has_value());
}

TEST(Runner, ExtractDelaysIgnoresOtherSignals) {
  std::vector<BoundaryEvent> events = {
      {ms(50), Boundary::kMonitored, "EmptySyringe"},
      {ms(100), Boundary::kMonitored, "BolusReq"},
      {ms(120), Boundary::kProgramIn, "EmptySyringe"},
      {ms(150), Boundary::kProgramIn, "BolusReq"},
      {ms(300), Boundary::kProgramOut, "StopInfusion"},
      {ms(400), Boundary::kProgramOut, "StartInfusion"},
      {ms(500), Boundary::kControlled, "StopInfusion"},
      {ms(600), Boundary::kControlled, "StartInfusion"},
  };
  auto r = extract_delays(events, req1());
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->mc_ms, 500.0);
}

TEST(Runner, BatchIsDeterministicPerSeed) {
  PumpFixture f;
  MeasurementConfig config;
  config.scenarios = 10;
  config.seed = 99;
  MeasurementSummary a = measure_requirement(f.pim, f.info, f.scheme, req1(), config);
  MeasurementSummary b = measure_requirement(f.pim, f.info, f.scheme, req1(), config);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i)
    EXPECT_DOUBLE_EQ(a.scenarios[i].mc_ms, b.scenarios[i].mc_ms);
}

TEST(Runner, BatchStatisticsSane) {
  PumpFixture f;
  MeasurementConfig config;
  config.scenarios = 30;
  config.seed = 2015;
  MeasurementSummary s = measure_requirement(f.pim, f.info, f.scheme, req1(), config);
  EXPECT_EQ(s.incomplete, 0);
  EXPECT_EQ(s.buffer_overflows, 0);
  EXPECT_LE(s.mi.min, s.mi.mean + 1e-9);
  EXPECT_LE(s.mi.mean, s.mi.max + 1e-9);
  EXPECT_GT(s.mi.stddev, 0.0) << "scenario randomness must vary the delays";
  // Structural bounds: Input-Delay within the Lemma-1 bound (490), M-C
  // delay within the Lemma-2 bound (1430).
  EXPECT_LE(s.mi.max, 490.0);
  EXPECT_LE(s.mc.max, 1430.0);
  EXPECT_GT(s.mc.min, 0.0);
}

TEST(Runner, ViolationCounting) {
  MeasurementSummary s;
  ScenarioResult ok;
  ok.completed = true;
  ok.mc_ms = 450;
  ScenarioResult late;
  late.completed = true;
  late.mc_ms = 700;
  s.scenarios = {ok, late, late};
  EXPECT_EQ(s.violations(500.0), 2);
  EXPECT_EQ(s.violations(1000.0), 0);
}

TEST(Calibration, UnknownNamesFallBackToDefaults) {
  SimCalibration cal;
  cal.outputs["StartInfusion"] = DelayCalibration{0.6, 0.3};
  EXPECT_DOUBLE_EQ(cal.output("StartInfusion").observed_spread, 0.6);
  const DelayCalibration& other = cal.output("NoSuchOutput");
  EXPECT_DOUBLE_EQ(other.observed_spread, cal.fallback.observed_spread);
  EXPECT_DOUBLE_EQ(cal.input("NoSuchInput").mode_fraction, cal.fallback.mode_fraction);
}

// --- Replay error paths ---------------------------------------------------

// A tampered trace must be rejected with the EXACT first-mismatch step —
// replay errors are what the CI differential gates print, so their
// positions have to be trustworthy.
TEST(Replay, ReportsExactFirstMismatchStepOnTamperedState) {
  const ta::Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));
  const core::InputArtifacts& in = psm.input("BolusReq");
  mc::VerificationSession session(psm.psm);
  const mc::MaxClockResult result = session.max_clock_value(
      {mc::when(ta::var_eq(in.pending, 1)), in.delay_clock, 100'000, 490, /*top_k=*/1});
  ASSERT_FALSE(result.ranked.empty());
  const mc::Trace& good = result.ranked.front().trace;
  ASSERT_GE(good.steps.size(), 3u);

  // Keep the label valid but corrupt the RENDERED SUCCESSOR STATE: the
  // replayer must reject at exactly that step, having matched everything
  // before it — both early and at the tail.
  for (const std::size_t i : {std::size_t{1}, good.steps.size() - 1}) {
    mc::Trace tampered = good;
    tampered.steps[i].state += " ghost";
    const ReplayResult r = replay_trace(psm.psm, tampered, result.witness_consts);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.steps_matched, i) << "matched prefix must stop at the tampered step";
    EXPECT_NE(r.error.find("step " + std::to_string(i) + ":"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find(tampered.steps[i].label), std::string::npos)
        << "the error must name the label it could not match";
  }

  // Corrupted initial rendering (step 0 has no label to mismatch on).
  mc::Trace initial = good;
  initial.steps[0].state = "bogus";
  const ReplayResult bad_init = replay_trace(psm.psm, initial, result.witness_consts);
  EXPECT_FALSE(bad_init.ok);
  EXPECT_EQ(bad_init.steps_matched, 0u);
  EXPECT_NE(bad_init.error.find("initial state mismatch"), std::string::npos) << bad_init.error;

  // A label on step 0 is structurally malformed.
  mc::Trace labeled = good;
  labeled.steps[0].label = "X.l0->l1[boom!]";
  const ReplayResult bad_label = replay_trace(psm.psm, labeled, result.witness_consts);
  EXPECT_FALSE(bad_label.ok);
  EXPECT_NE(bad_label.error.find("step 0"), std::string::npos) << bad_label.error;
}

}  // namespace
}  // namespace psv::sim
