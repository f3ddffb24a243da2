// End-to-end integration test: the complete Table-I pipeline (PIM
// verification -> transformation -> constraints -> bounds -> simulation)
// on a time-scaled pump so the whole flow runs in seconds.
//
// The scaled model divides every pump constant by ~4; all of Table I's
// structural claims must survive the scaling.
#include <gtest/gtest.h>

#include "core/pim.h"
#include "core/service.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "sim/runner.h"

namespace psv {
namespace {

// pump.psv with every constant divided by ~4: start within [37, 125],
// infuse for [200, 300], next request no sooner than 100 after a cycle.
constexpr const char* kScaledPump = R"(
network gpca_pump
clock x
clock env_x
input  BolusReq
output StartInfusion
output StopInfusion

automaton M {
  init loc Idle
  loc BolusRequested inv x <= 125
  loc Infusing inv x <= 300

  Idle -> BolusRequested on m_BolusReq? do x := 0
  BolusRequested -> Infusing when x >= 37 on c_StartInfusion! do x := 0
  Infusing -> Idle when x >= 200 on c_StopInfusion! do x := 0
}

automaton ENV {
  init loc Idle
  loc AwaitStart
  loc Watching

  Idle -> AwaitStart when env_x >= 100 on m_BolusReq! do env_x := 0
  AwaitStart -> Watching on c_StartInfusion? do env_x := 0
  Watching -> Idle on c_StopInfusion? do env_x := 0
}
)";

// board.pss scaled the same way.
constexpr const char* kScaledBoard = R"(
scheme IS1-board {
  input BolusReq {
    signal sustained-until-read
    read polling interval 60
    delay 2 10
    min_interarrival 100
  }
  output StartInfusion { delay 25 110 }
  output StopInfusion { delay 2 12 }
  io {
    invocation periodic 50
    transfer buffers 5
    policy read-all
    stages 2 2 2
  }
}
)";

TEST(EndToEnd, ScaledTable1Pipeline) {
  const ta::Network pim = lang::parse_model(kScaledPump);
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::TimingRequirement req =
      lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 125");
  const core::ImplementationScheme scheme = lang::parse_scheme(kScaledBoard);

  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = {req};
  request.options.search_limit = 10'000;
  const core::VerifyReport report = core::Verifier().verify(request);
  const core::SchemeVerification& sv = report.schemes[0];
  const core::RequirementResult& result = sv.requirements[0];

  // [1] the PIM meets REQ1 with the exact scaled bound.
  EXPECT_TRUE(result.pim.holds);
  EXPECT_EQ(result.pim.max_delay, 125);

  // [3] constraints C1-C4.
  EXPECT_TRUE(sv.constraints.all_hold()) << sv.constraints.to_string();

  // [4] Lemma 1: poll(60) + processing(10) + period(50) + read stage(2).
  ASSERT_EQ(result.bounds.input_delays.size(), 1u);
  EXPECT_EQ(result.bounds.input_delays[0].analytic, 122);
  EXPECT_TRUE(result.bounds.input_delays[0].verified_bounded);
  EXPECT_EQ(result.bounds.input_delays[0].verified, 122) << "Lemma 1 is tight on this scheme";
  // Lemma 2: 122 + 110 + 125.
  EXPECT_EQ(result.bounds.lemma2_total, 357);
  EXPECT_TRUE(result.bounds.verified_mc_bounded);
  EXPECT_LE(result.bounds.verified_mc_delay, 357);
  EXPECT_GT(result.bounds.verified_mc_delay, 125) << "platform must add delay";

  // [5] the paper's conclusion survives scaling.
  EXPECT_FALSE(result.psm_meets_original);
  EXPECT_TRUE(result.psm_meets_relaxed);

  // Measured side: every simulated delay below every verified bound.
  sim::MeasurementConfig config;
  config.scenarios = 30;
  config.seed = 11;
  config.phase_window_ms = 500;
  config.horizon_ms = 5'000;
  const sim::MeasurementSummary measured =
      sim::measure_requirement(pim, info, scheme, req, config);
  EXPECT_EQ(measured.incomplete, 0);
  EXPECT_EQ(measured.buffer_overflows, 0);
  EXPECT_EQ(measured.missed_inputs, 0);
  EXPECT_LE(measured.mi.max, static_cast<double>(result.bounds.input_delays[0].verified));
  EXPECT_LE(measured.mc.max, static_cast<double>(result.bounds.verified_mc_delay))
      << "simulation must respect the exact model-checked bound";
  EXPECT_GT(measured.violations(125.0), config.scenarios / 2)
      << "most scenarios must violate the original bound";

  // Conformance sweep: the executable platform (generated code + devices)
  // never exceeds the model-checked bounds, for any seed.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99999ull}) {
    sim::MeasurementConfig sweep;
    sweep.scenarios = 10;
    sweep.seed = seed;
    sweep.phase_window_ms = 500;
    sweep.horizon_ms = 5'000;
    const sim::MeasurementSummary sample =
        sim::measure_requirement(pim, info, scheme, req, sweep);
    EXPECT_LE(sample.mc.max, static_cast<double>(result.bounds.verified_mc_delay))
        << "seed " << seed;
    EXPECT_LE(sample.mi.max, static_cast<double>(result.bounds.input_delays[0].verified))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace psv
