// The shipped example model/scheme files are the only definition of the
// case studies: examples/models/pump.psv (REQ1 pipeline) and
// pump_syringe.psv (plus the empty-syringe path) with their board schemes
// must keep the paper's PIM bounds and the Table-I Lemma-1 figures, and
// quickstart.psv + fast.pss must keep examples/quickstart.cpp's bounds.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/pim.h"
#include "lang/scheme_parser.h"
#include "mc/query.h"
#include "mc/reach.h"
#include "model_paths.h"
#include "ta/validate.h"

namespace psv {
namespace {

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

core::TimingRequirement req1() {
  return lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500");
}

TEST(ModelFiles, PumpVariantsDeclareTheirInputsAndOutputs) {
  const ta::Network reduced = parse_model_file("pump.psv");
  EXPECT_NO_THROW(ta::validate_or_throw(reduced));
  const core::PimInfo reduced_info = core::analyze_pim(reduced);
  EXPECT_EQ(reduced_info.inputs, (std::vector<std::string>{"BolusReq"}));
  EXPECT_EQ(reduced_info.outputs, (std::vector<std::string>{"StartInfusion", "StopInfusion"}));

  const ta::Network full = parse_model_file("pump_syringe.psv");
  EXPECT_NO_THROW(ta::validate_or_throw(full));
  const core::PimInfo full_info = core::analyze_pim(full);
  EXPECT_EQ(full_info.inputs, (std::vector<std::string>{"BolusReq", "EmptySyringe"}));
  EXPECT_EQ(full_info.outputs,
            (std::vector<std::string>{"StartInfusion", "StopInfusion", "Alarm"}));
}

TEST(ModelFiles, PumpReq1HoldsWithTheExactBoundOnBothVariants) {
  for (const char* file : {"pump.psv", "pump_syringe.psv"}) {
    const ta::Network pim = parse_model_file(file);
    const core::PimInfo info = core::analyze_pim(pim);
    const core::PimVerification v = core::verify_pim_requirement(pim, info, req1(), 100'000);
    EXPECT_TRUE(v.holds) << file;
    EXPECT_TRUE(v.bounded) << file;
    EXPECT_EQ(v.max_delay, 500) << file << " must keep the paper's exact PIM bound";
  }
}

TEST(ModelFiles, PumpReq2HoldsOnTheFullVariant) {
  // In the PIM the stop fires within [50, 300] ms of the (synchronous)
  // empty-syringe detection, so the exact bound is the Emptying invariant.
  const ta::Network pim = parse_model_file("pump_syringe.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::PimVerification v = core::verify_pim_requirement(
      pim, info, lang::parse_requirement("REQ2: EmptySyringe -> StopInfusion within 600"),
      10'000);
  EXPECT_TRUE(v.holds);
  EXPECT_TRUE(v.bounded);
  EXPECT_EQ(v.max_delay, 300);
}

TEST(ModelFiles, FullPumpIsDeadlockFreeAndRaisesTheAlarm) {
  const ta::Network pim = parse_model_file("pump_syringe.psv");
  mc::Reachability engine(pim, mc::StateFormula{});
  const mc::DeadlockResult r = engine.find_deadlock();
  EXPECT_FALSE(r.found) << r.trace.to_string();
  EXPECT_TRUE(mc::reachable(pim, mc::at(pim, "M", "Infusing")).reachable);
  EXPECT_TRUE(mc::reachable(pim, mc::at(pim, "M", "Alarming")).reachable);
}

TEST(ModelFiles, BoardSchemesReproduceTable1Bounds) {
  // The parameter split in the board.pss header: Lemma 1 must give the
  // paper's verified Input-Delay (490ms) and Output-Delay (440ms).
  for (const char* file : {"board.pss", "board_syringe.pss"}) {
    const core::ImplementationScheme scheme = parse_scheme_file(file);
    EXPECT_EQ(core::analytic_input_delay_bound(scheme, "BolusReq"), 490) << file;
    EXPECT_EQ(core::analytic_output_delay_bound(scheme, "StartInfusion"), 440) << file;
  }
}

TEST(ModelFiles, BoardSchemePollsTheBolusButton) {
  const core::ImplementationScheme scheme = parse_scheme_file("board_syringe.pss");
  EXPECT_EQ(scheme.input("BolusReq").read, core::ReadMechanism::kPolling);
  EXPECT_EQ(scheme.input("BolusReq").signal, core::SignalType::kSustainedUntilRead);
  // The drop sensor keeps IS1's pulse+interrupt mechanism.
  EXPECT_EQ(scheme.input("EmptySyringe").read, core::ReadMechanism::kInterrupt);
  EXPECT_EQ(scheme.input("EmptySyringe").signal, core::SignalType::kPulse);
}

TEST(ModelFiles, SchemesValidAgainstTheirModels) {
  for (const auto& [model, scheme] : {std::pair{"pump.psv", "board.pss"},
                                      std::pair{"pump_syringe.psv", "board_syringe.pss"}}) {
    const core::PimInfo info = core::analyze_pim(parse_model_file(model));
    EXPECT_TRUE(core::validate_scheme(parse_scheme_file(scheme), info.inputs, info.outputs).ok())
        << scheme << " against " << model;
    EXPECT_TRUE(
        core::validate_scheme(core::example_is1(info.inputs, info.outputs), info.inputs,
                              info.outputs)
            .ok())
        << "IS1 against " << model;
  }
}

// quickstart.psv + fast.pss must stay in sync with examples/quickstart.cpp:
// same PIM bound and the same Lemma-1 platform delays.
TEST(ModelFiles, QuickstartModelParsesAndVerifies) {
  const ta::Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  EXPECT_EQ(info.inputs, (std::vector<std::string>{"Req"}));
  EXPECT_EQ(info.outputs, (std::vector<std::string>{"Ack"}));

  core::TimingRequirement req{"QREQ", "Req", "Ack", 80};
  const core::PimVerification v = core::verify_pim_requirement(pim, info, req, 10'000);
  EXPECT_TRUE(v.holds);
  EXPECT_EQ(v.max_delay, 80);
}

TEST(ModelFiles, FastSchemeMatchesQuickstartBounds) {
  const ta::Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  EXPECT_TRUE(core::validate_scheme(scheme, info.inputs, info.outputs).ok());
  EXPECT_EQ(core::analytic_input_delay_bound(scheme, "Req"), 14);
  EXPECT_EQ(core::analytic_output_delay_bound(scheme, "Ack"), 3);
}

}  // namespace
}  // namespace psv
