// The batched Verifier service (core/service.h): request/response shape,
// batch-vs-sequential agreement on the fast quickstart model, stage-1 and
// session sharing, scheme comparison, pooling, and thread-safety.
//
// The heavyweight pump equivalence proof (3-requirement batch bit-identical
// to three single-requirement requests with ONE PSM exploration) lives in
// verifier_test.cpp under the exhaustive label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/service.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "model_paths.h"
#include "util/error.h"

namespace psv {
namespace {

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

struct QuickstartFixture {
  ta::Network pim = parse_model_file("quickstart.psv");
  core::PimInfo info = core::analyze_pim(pim);
  core::ImplementationScheme fast_scheme = parse_scheme_file("fast.pss");
  core::ImplementationScheme late_scheme = parse_scheme_file("late.pss");

  /// A one-requirement request against the fast scheme.
  core::VerifyRequest single(const core::TimingRequirement& req) const {
    core::VerifyRequest request;
    request.pim = pim;
    request.info = info;
    request.schemes = {fast_scheme};
    request.requirements = {req};
    return request;
  }
};

std::vector<core::TimingRequirement> quickstart_requirements() {
  return {{"QREQ", "Req", "Ack", 80},
          {"QTIGHT", "Req", "Ack", 40},
          {"QWIDE", "Req", "Ack", 300}};
}

TEST(VerifierService, BatchMatchesSequentialSingleRequests) {
  QuickstartFixture fx;
  const std::vector<core::TimingRequirement> reqs = quickstart_requirements();

  core::Verifier verifier;
  core::VerifyRequest request;
  request.pim = fx.pim;
  request.info = fx.info;
  request.schemes = {fx.fast_scheme};
  request.requirements = reqs;
  const core::VerifyReport report = verifier.verify(request);

  ASSERT_EQ(report.schemes.size(), 1u);
  ASSERT_EQ(report.schemes.front().requirements.size(), reqs.size());

  // Bit-identical bounds and verdicts against independent single runs.
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const core::SchemeVerification single_sv =
        core::Verifier().verify(fx.single(reqs[r])).schemes.at(0);
    const core::RequirementResult& single = single_sv.requirements.at(0);
    const core::RequirementResult& batched = report.schemes.front().requirements[r];
    EXPECT_EQ(single.bounds.to_string(), batched.bounds.to_string()) << reqs[r].name;
    EXPECT_EQ(single.pim.max_delay, batched.pim.max_delay) << reqs[r].name;
    EXPECT_EQ(single.pim.holds, batched.pim.holds) << reqs[r].name;
    EXPECT_EQ(single.psm_meets_original, batched.psm_meets_original) << reqs[r].name;
    EXPECT_EQ(single.psm_meets_relaxed, batched.psm_meets_relaxed) << reqs[r].name;
    ASSERT_EQ(single_sv.constraints.checks.size(),
              report.schemes.front().constraints.checks.size());
    for (std::size_t c = 0; c < single_sv.constraints.checks.size(); ++c)
      EXPECT_EQ(single_sv.constraints.checks[c].holds,
                report.schemes.front().constraints.checks[c].holds);
  }

  // The whole batch cost ONE PIM exploration and ONE PSM exploration
  // (stages 3-5 combined), not one pipeline per requirement.
  ASSERT_EQ(report.pim_stages.size(), 1u);
  EXPECT_EQ(report.pim_stages.front().explorations, 1);
  EXPECT_EQ(report.explorations_in("constraints") + report.explorations_in("bounds"), 1)
      << "constraints + bounds must share one combined sweep";
}

TEST(VerifierService, CandidateSchemesShareStageOneAndCompete) {
  QuickstartFixture fx;

  core::Verifier verifier;
  core::VerifyRequest request;
  request.pim = fx.pim;
  request.info = fx.info;
  request.schemes = {fx.fast_scheme, fx.late_scheme};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  const core::VerifyReport report = verifier.verify(request);

  // Stage 1 ran once for both candidates.
  ASSERT_EQ(report.pim_stages.size(), 1u);
  EXPECT_EQ(report.pim_stages.front().explorations, 1);

  ASSERT_EQ(report.schemes.size(), 2u);
  EXPECT_TRUE(report.schemes[0].all_passed()) << "fast scheme must pass";
  EXPECT_FALSE(report.schemes[1].all_passed()) << "late scheme must fail (timelock)";
  EXPECT_TRUE(report.schemes[0].constraints.all_hold());
  EXPECT_FALSE(report.schemes[1].constraints.all_hold());
  EXPECT_FALSE(report.all_passed());

  // PIM verdicts are shared verbatim across candidates.
  EXPECT_EQ(report.schemes[0].requirements[0].pim.max_delay,
            report.schemes[1].requirements[0].pim.max_delay);

  const std::string summary = report.summary();
  EXPECT_NE(summary.find("scheme comparison"), std::string::npos) << summary;
  EXPECT_NE(summary.find("[PASS] QREQ"), std::string::npos) << summary;
  EXPECT_NE(summary.find("[FAIL] QREQ"), std::string::npos) << summary;
}

TEST(VerifierService, SessionPoolServesRepeatRequestsWithoutExploration) {
  QuickstartFixture fx;

  core::Verifier verifier;
  core::VerifyRequest request;
  request.pim = fx.pim;
  request.info = fx.info;
  request.schemes = {fx.fast_scheme};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};

  const core::VerifyReport cold = verifier.verify(request);
  EXPECT_GT(verifier.pooled_sessions(), 0u);
  const core::VerifyReport warm = verifier.verify(request);

  // Same verdicts and bounds, zero fresh exploration anywhere.
  EXPECT_EQ(cold.schemes.at(0).requirements.at(0).bounds.to_string(),
            warm.schemes.at(0).requirements.at(0).bounds.to_string());
  EXPECT_EQ(warm.pim_stages.front().explorations, 0);
  EXPECT_EQ(warm.pim_stages.front().explore.states_explored, 0u);
  EXPECT_EQ(warm.explorations_in("constraints"), 0);
  EXPECT_EQ(warm.explorations_in("bounds"), 0);
}

TEST(VerifierService, PoolCapEvictsLeastRecentlyUsed) {
  QuickstartFixture fx;

  core::Verifier::Config config;
  config.max_sessions = 1;
  core::Verifier verifier(config);
  core::VerifyRequest request;
  request.pim = fx.pim;
  request.info = fx.info;
  request.schemes = {fx.fast_scheme};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  verifier.verify(request);
  // One request touches two sessions (PIM + PSM); the cap keeps only one.
  EXPECT_EQ(verifier.pooled_sessions(), 1u);

  core::Verifier::Config off;
  off.max_sessions = 0;
  core::Verifier unpooled(off);
  const core::VerifyReport report = unpooled.verify(request);
  EXPECT_EQ(unpooled.pooled_sessions(), 0u);
  EXPECT_TRUE(report.all_passed());
}

TEST(VerifierService, ConcurrentCallersShareOneVerifier) {
  QuickstartFixture fx;
  const std::vector<core::TimingRequirement> reqs = quickstart_requirements();

  core::Verifier verifier;
  // Reference answers, computed single-threaded.
  core::VerifyRequest request;
  request.pim = fx.pim;
  request.info = fx.info;
  request.schemes = {fx.fast_scheme};
  request.requirements = reqs;
  const core::VerifyReport reference = verifier.verify(request);

  constexpr int kThreads = 8;
  std::vector<std::string> rendered(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::VerifyRequest mine;
      mine.pim = fx.pim;
      mine.info = fx.info;
      mine.schemes = {fx.fast_scheme};
      mine.requirements = reqs;
      // Concurrent callers hammer the same pooled sessions.
      rendered[static_cast<std::size_t>(t)] = verifier.verify(mine).summary();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& s : rendered) EXPECT_EQ(s, reference.summary());
}

TEST(VerifierService, PoolDoesNotAliasReorderedDeclarations) {
  // Two renderings of the same two-input network, with the input channel
  // declarations swapped. They are semantically equal, but the raw ids of
  // the per-variable probes and C1-C4 flags differ — so sharing one pooled
  // session between them would evaluate the second model's queries against
  // the first model's network. The pool key must keep them apart while a
  // single Verifier serves both.
  const char* model_a =
      "network twoin\n"
      "clock x\nclock env_x\n"
      "input Go\ninput Halt\noutput Done\n"
      "automaton M {\n"
      "  init loc Idle\n  loc Busy inv x <= 50\n"
      "  Idle -> Busy on m_Go? do x := 0\n"
      "  Idle -> Idle on m_Halt?\n"
      "  Busy -> Idle when x >= 10 on c_Done!\n"
      "}\n"
      "automaton ENV {\n"
      "  init loc Idle\n  loc Await\n"
      "  Idle -> Await when env_x >= 100 on m_Go! do env_x := 0\n"
      "  Await -> Idle on c_Done? do env_x := 0\n"
      "}\n";
  const char* model_b =
      "network twoin\n"
      "clock x\nclock env_x\n"
      "input Halt\ninput Go\noutput Done\n"  // <- inputs swapped
      "automaton M {\n"
      "  init loc Idle\n  loc Busy inv x <= 50\n"
      "  Idle -> Busy on m_Go? do x := 0\n"
      "  Idle -> Idle on m_Halt?\n"
      "  Busy -> Idle when x >= 10 on c_Done!\n"
      "}\n"
      "automaton ENV {\n"
      "  init loc Idle\n  loc Await\n"
      "  Idle -> Await when env_x >= 100 on m_Go! do env_x := 0\n"
      "  Await -> Idle on c_Done? do env_x := 0\n"
      "}\n";
  const ta::Network pim_a = lang::parse_model(model_a);
  const ta::Network pim_b = lang::parse_model(model_b);
  const core::PimInfo info_a = core::analyze_pim(pim_a);
  const core::PimInfo info_b = core::analyze_pim(pim_b);
  ASSERT_NE(info_a.inputs, info_b.inputs) << "the reorder must be visible in raw structure";

  auto scheme_for = [](const core::PimInfo& info) {
    return core::example_is1(info.inputs, info.outputs);
  };
  auto request_for = [&](const ta::Network& pim, const core::PimInfo& info) {
    core::VerifyRequest request;
    request.pim = pim;
    request.info = info;
    request.schemes = {scheme_for(info)};
    request.requirements = {{"R", "Go", "Done", 200}};
    return request;
  };

  // References from isolated Verifiers (nothing to alias with).
  core::Verifier fresh_a, fresh_b;
  const std::string ref_a = fresh_a.verify(request_for(pim_a, info_a)).summary();
  const std::string ref_b = fresh_b.verify(request_for(pim_b, info_b)).summary();

  // One shared Verifier serving both orderings, either order first.
  core::Verifier shared;
  EXPECT_EQ(shared.verify(request_for(pim_a, info_a)).summary(), ref_a);
  EXPECT_EQ(shared.verify(request_for(pim_b, info_b)).summary(), ref_b);
  EXPECT_EQ(shared.verify(request_for(pim_a, info_a)).summary(), ref_a);
  // The separation property itself: the two instrumented PIMs differ only
  // in raw declaration order, so the pool must hold FOUR sessions (PIM +
  // PSM per representation), not three. A reorder-blind pool key would
  // alias the PIM slot — benign for today's appended-probe queries,
  // silently wrong the moment any queried id depends on declaration order.
  EXPECT_EQ(shared.pooled_sessions(), 4u);
}

// A small two-output PIM for binding-attribution coverage: M acknowledges
// each request quickly (c_Ack within [5, 20]) and completes it slowly
// (c_Done within a further [30, 60]), so the two requirement pairs have
// genuinely different worst cases.
const char* const kDuoPim = R"(
network duo

clock x
clock env_x

input  Req
output Ack
output Done

automaton M {
  init loc Idle
  loc Working inv x <= 10
  loc Finishing inv x <= 30

  Idle -> Working on m_Req? do x := 0
  Working -> Finishing when x >= 2 on c_Ack!
  Finishing -> Idle when x >= 15 on c_Done!
}

automaton ENV {
  init loc Idle
  loc AwaitAck
  loc AwaitDone

  Idle -> AwaitAck when env_x >= 50 on m_Req! do env_x := 0
  AwaitAck -> AwaitDone on c_Ack?
  AwaitDone -> Idle on c_Done? do env_x := 0
}
)";

const char* const kDuoScheme = R"(
scheme duo-board {
  input Req {
    signal pulse
    read interrupt
    delay 1 3
  }

  output Ack {
    delay 1 3
  }

  output Done {
    delay 1 3
  }

  io {
    invocation periodic 5
    transfer buffers 5
    policy read-all
    stages 1 1 1
  }
}
)";

// Slack attribution across a batch: two requirements over DIFFERENT output
// pairs, three candidate schemes. The stock scheme is tightest on the Ack
// path; a degraded Done device flips the binding to REQ2 and breaks the
// original REQ2 bound (mixed met/NOT-met within one scheme); a late scheme
// (invocation period overruns M's response window) fails outright, so the
// report mixes passing and failing schemes and the exit-code predicate
// (all_passed) is exercised both ways. The greppable per-requirement
// "slack:" lines and the comparison-table binding attribution are pinned.
TEST(VerifierService, BindingRequirementDiffersPerSchemeWithMixedVerdicts) {
  const ta::Network pim = lang::parse_model(kDuoPim);
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme board = lang::parse_scheme(kDuoScheme);

  core::Verifier verifier;

  // Learn the stock scheme's verified M-C bounds for the two pairs.
  core::VerifyRequest probe_request;
  probe_request.pim = pim;
  probe_request.info = info;
  probe_request.schemes = {board};
  probe_request.requirements = {{"REQ1", "Req", "Ack", 200}, {"REQ2", "Req", "Done", 200}};
  const core::VerifyReport learned = verifier.verify(probe_request);
  ASSERT_EQ(learned.schemes.size(), 1u);
  const std::int64_t mc1 = learned.schemes[0].requirements[0].bounds.verified_mc_delay;
  const std::int64_t mc2 = learned.schemes[0].requirements[1].bounds.verified_mc_delay;
  ASSERT_TRUE(learned.schemes[0].requirements[0].bounds.verified_mc_bounded);
  ASSERT_TRUE(learned.schemes[0].requirements[1].bounds.verified_mc_bounded);
  ASSERT_NE(mc1, mc2) << "the two pairs must have distinct worst cases";

  // Requirements with margins 15 (REQ1) and 30 (REQ2) over the stock
  // scheme; the degraded scheme adds 45ms to the Done device, so REQ2's
  // margin flips negative while REQ1 is untouched. The late scheme's 40ms
  // period cannot fit a write inside M's 10ms Working invariant: timelock.
  core::ImplementationScheme degraded = board;
  degraded.outputs.at("Done").delay_max += 45;
  core::ImplementationScheme late = board;
  late.name = "duo-late";
  late.io.period = 40;
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {board, degraded, late};
  request.requirements = {{"REQ1", "Req", "Ack", mc1 + 15}, {"REQ2", "Req", "Done", mc2 + 30}};
  const core::VerifyReport report = verifier.verify(request);
  ASSERT_EQ(report.schemes.size(), 3u);
  const core::SchemeVerification& sva = report.schemes[0];
  const core::SchemeVerification& svb = report.schemes[1];
  const core::SchemeVerification& svc = report.schemes[2];

  // Stock scheme: both requirements pass, REQ1 is binding (slack 15 < 30).
  ASSERT_EQ(sva.slack.requirements.size(), 2u);
  EXPECT_EQ(sva.slack.requirements[0].slack_ms, 15);
  EXPECT_EQ(sva.slack.requirements[1].slack_ms, 30);
  EXPECT_EQ(sva.slack.binding().requirement, "REQ1");
  EXPECT_EQ(sva.slack.min_slack_ms, 15);
  EXPECT_TRUE(sva.requirements[0].psm_meets_original);
  EXPECT_TRUE(sva.requirements[1].psm_meets_original);
  EXPECT_TRUE(sva.all_passed()) << "stock scheme must pass — exit code 0";

  // Degraded scheme: REQ1 unaffected, REQ2's original bound broken — the
  // binding flips and the slack goes negative. (The scheme still clears
  // the relaxed Lemma-2 verdict: its own slower device relaxes delta'.)
  ASSERT_EQ(svb.slack.requirements.size(), 2u);
  EXPECT_EQ(svb.slack.requirements[0].slack_ms, 15)
      << "a slower Done device must not change the Ack path";
  EXPECT_LT(svb.slack.requirements[1].slack_ms, 0);
  EXPECT_EQ(svb.slack.binding().requirement, "REQ2");
  EXPECT_TRUE(svb.requirements[0].psm_meets_original);
  EXPECT_FALSE(svb.requirements[1].psm_meets_original)
      << "negative slack must show as original bound NOT met";

  // Late scheme: constraint violation — the failing exit-code case.
  EXPECT_FALSE(svc.all_passed()) << "late scheme must fail — exit code 1";
  EXPECT_FALSE(report.all_passed());

  // Greppable surface: per-requirement slack lines with binding markers,
  // and the comparison table attributes the binding requirement per scheme.
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("slack: REQ1 15ms"), std::string::npos) << summary;
  EXPECT_NE(summary.find("slack: REQ2 30ms"), std::string::npos) << summary;
  EXPECT_NE(summary.find("[binding]"), std::string::npos) << summary;
  EXPECT_NE(summary.find("scheme comparison"), std::string::npos) << summary;
}

TEST(VerifierService, RejectsEmptyRequests) {
  QuickstartFixture fx;
  core::Verifier verifier;
  core::VerifyRequest no_reqs;
  no_reqs.pim = fx.pim;
  no_reqs.schemes = {fx.fast_scheme};
  EXPECT_THROW(verifier.verify(no_reqs), Error);
  core::VerifyRequest no_schemes;
  no_schemes.pim = fx.pim;
  no_schemes.requirements = {{"QREQ", "Req", "Ack", 80}};
  EXPECT_THROW(verifier.verify(no_schemes), Error);
}

TEST(VerifierService, RequirementSummaryRendersOneCell) {
  QuickstartFixture fx;
  core::VerifyRequest request = fx.single({"QREQ", "Req", "Ack", 80});
  request.requirements.push_back({"QTIGHT", "Req", "Ack", 40});
  const core::VerifyReport report = core::Verifier().verify(request);

  const std::string tight = report.requirement_summary(0, 1);
  EXPECT_EQ(tight.rfind("=== Platform-specific timing verification: QTIGHT ===\n", 0), 0u)
      << tight;
  for (const char* step : {"[1] PIM verification", "[2] PSM construction (",
                           "[3] boundedness constraints", "[4] delay bounds",
                           "[5] requirement on the PSM", "PSM |= P(40)? NO"})
    EXPECT_NE(tight.find(step), std::string::npos) << step << "\n" << tight;
  EXPECT_THROW(report.requirement_summary(1, 0), Error);
  EXPECT_THROW(report.requirement_summary(0, 2), Error);
}

}  // namespace
}  // namespace psv
