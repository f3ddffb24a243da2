// Tests for the generated-code runtime (StepProgram) and the C emitter.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/cemit.h"
#include "codegen/stepcode.h"
#include "core/pim.h"
#include "model_paths.h"
#include "util/error.h"

namespace psv::codegen {
namespace {

using psv::Error;

// Timing-sensitive expectations below assume the 250ms window start.
ta::Network pump() {
  const std::string text = psv::testing::read_model("pump_syringe.psv");
  return lang::parse_model(psv::testing::replace_all(text, "x >= 150", "x >= 250"));
}

constexpr std::int64_t kMs = 1000;  // microseconds per model millisecond

TEST(StepProgram, StartsAtInitialLocation) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  EXPECT_EQ(code.location(), "Idle");
  EXPECT_EQ(code.invocations(), 0);
}

TEST(StepProgram, ConsumesInputAndHoldsUntilGuard) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);

  StepResult r = code.step(100 * kMs, {"BolusReq"});
  EXPECT_EQ(code.location(), "BolusRequested");
  EXPECT_TRUE(r.outputs.empty()) << "start guard x>=250 cannot hold yet";
  EXPECT_EQ(r.transitions, 1);

  // Before the 250ms window opens: nothing.
  r = code.step(300 * kMs, {});
  EXPECT_TRUE(r.outputs.empty());
  EXPECT_EQ(code.location(), "BolusRequested");

  // First invocation past the window start fires the output.
  r = code.step(360 * kMs, {});
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], "StartInfusion");
  EXPECT_EQ(code.location(), "Infusing");
}

TEST(StepProgram, DiscardsUnusableInput) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  // EmptySyringe in Idle matches no edge: read and discarded.
  StepResult r = code.step(0, {"EmptySyringe"});
  ASSERT_EQ(r.discarded.size(), 1u);
  EXPECT_EQ(r.discarded[0], "EmptySyringe");
  EXPECT_EQ(code.location(), "Idle");
}

TEST(StepProgram, FullBolusCycle) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);

  code.step(0, {"BolusReq"});
  StepResult start = code.step(260 * kMs, {});
  ASSERT_EQ(start.outputs.size(), 1u);
  EXPECT_EQ(start.outputs[0], "StartInfusion");

  // Empty syringe during infusion -> stop, then alarm.
  StepResult stop = code.step(400 * kMs, {"EmptySyringe"});
  EXPECT_EQ(code.location(), "Emptying");
  EXPECT_TRUE(stop.outputs.empty()) << "stop guard x>=50 not yet";

  StepResult stopped = code.step(460 * kMs, {});
  ASSERT_EQ(stopped.outputs.size(), 2u) << "stop then alarm chain in one invocation window";
  EXPECT_EQ(stopped.outputs[0], "StopInfusion");
  EXPECT_EQ(stopped.outputs[1], "Alarm");
  EXPECT_EQ(code.location(), "Idle");
}

TEST(StepProgram, NaturalStopAfterInfusionWindow) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  code.step(0, {"BolusReq"});
  code.step(260 * kMs, {});  // start infusion at t=260
  // Natural stop fires once x >= infusion_min (800) after the start.
  StepResult r = code.step(1000 * kMs, {});
  EXPECT_TRUE(r.outputs.empty());
  r = code.step(1100 * kMs, {});
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], "StopInfusion");
}

TEST(StepProgram, ResetRestoresInitialState) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  code.step(0, {"BolusReq"});
  code.reset(500 * kMs);
  EXPECT_EQ(code.location(), "Idle");
  // Clock restarted at reset time: guard x>=250 counts from 500ms.
  code.step(600 * kMs, {"BolusReq"});
  StepResult r = code.step(700 * kMs, {});
  EXPECT_TRUE(r.outputs.empty());
  r = code.step(860 * kMs, {});
  ASSERT_EQ(r.outputs.size(), 1u);
}

TEST(StepProgram, ClockValueQuery) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  code.step(100 * kMs, {"BolusReq"});  // resets x
  EXPECT_EQ(code.clock_value_us("x", 150 * kMs), 50 * kMs);
  EXPECT_THROW(code.clock_value_us("nope", 0), Error);
}

TEST(StepProgram, InvocationCounter) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  StepProgram code(pim, info);
  for (int k = 0; k < 5; ++k) code.step(k * 100 * kMs, {});
  EXPECT_EQ(code.invocations(), 5);
}

TEST(CEmit, ContainsInterfaceAndSemantics) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  CEmitOptions opts;
  opts.prefix = "gpca";
  const std::string c = emit_c(pim, info, opts);
  EXPECT_NE(c.find("gpca_state_t"), std::string::npos);
  EXPECT_NE(c.find("gpca_init"), std::string::npos);
  EXPECT_NE(c.find("gpca_step"), std::string::npos);
  EXPECT_NE(c.find("gpca_IN_BolusReq"), std::string::npos);
  EXPECT_NE(c.find("gpca_OUT_StartInfusion"), std::string::npos);
  EXPECT_NE(c.find("gpca_LOC_Infusing"), std::string::npos);
  // 250ms guard scaled to microseconds.
  EXPECT_NE(c.find("250000LL"), std::string::npos);
}

TEST(CEmit, EmittedCodeCompiles) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  CEmitOptions opts;
  opts.emit_demo_main = true;
  const std::string c = emit_c(pim, info, opts);

  const std::string path = ::testing::TempDir() + "psv_emitted.c";
  std::ofstream out(path);
  out << c;
  out.close();

  if (std::system("cc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no C compiler available";
  const std::string cmd = "cc -std=c99 -Wall -Werror -fsyntax-only " + path + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "emitted C failed to compile";
}

TEST(CEmit, DemoMainOptional) {
  ta::Network pim = pump();
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  EXPECT_EQ(emit_c(pim, info).find("int main"), std::string::npos);
  CEmitOptions opts;
  opts.emit_demo_main = true;
  EXPECT_NE(emit_c(pim, info, opts).find("int main"), std::string::npos);
}

}  // namespace
}  // namespace psv::codegen
