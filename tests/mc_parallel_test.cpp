// Pinned exploration counts and stress coverage for the reachability engine.
//
// The engine explores on the calling thread whatever `jobs` is: `jobs` only
// fans out the speculative widening rounds of the bound sweep (mc/query.h).
// These tests pin the exact state counts of the shipped case-study models
// (pump, quickstart) and of seeded synthetic networks built for wide waves
// and many evictions, the state cap at its exact boundary, the goal-search
// versus first-visit differential, and that an exploration starts no
// thread. They are part of the `fast` label so the ASan+UBSan CI job runs
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/pim.h"
#include "core/service.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/reach.h"
#include "model_paths.h"
#include "util/error.h"
#include "util/rng.h"

namespace psv {
namespace {

using namespace psv::ta;

std::string stats_str(const mc::ExploreStats& s) {
  std::ostringstream os;
  os << "stored=" << s.states_stored << " explored=" << s.states_explored
     << " fired=" << s.transitions_fired << " subsumed=" << s.subsumed;
  return os.str();
}

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

// --- Case-study pins ----------------------------------------------------------

TEST(ExplorationPins, PumpPimReachability) {
  const Network pim = parse_model_file("pump_syringe.psv");
  const mc::ReachResult r = mc::reachable(pim, mc::at(pim, "M", "Infusing"));
  EXPECT_TRUE(r.reachable);
  EXPECT_FALSE(r.trace.steps.empty());
  EXPECT_EQ(stats_str(r.stats), "stored=3 explored=2 fired=2 subsumed=0");
}

TEST(ExplorationPins, PumpPimVerifiedBound) {
  const Network pim = parse_model_file("pump_syringe.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::TimingRequirement req =
      lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500");
  const core::PimVerification v = core::verify_pim_requirement(pim, info, req, 100'000);
  EXPECT_TRUE(v.bounded);
  EXPECT_TRUE(v.holds);
  EXPECT_EQ(v.max_delay, 500) << "paper's exact PIM bound";
}

/// The REQ1-only pump PSM keeps the sweep in the sub-second range.
core::PsmArtifacts pump_psm() {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  return core::transform(pim, info, parse_scheme_file("board.pss"));
}

TEST(ExplorationPins, PumpPsmFullExploration) {
  const core::PsmArtifacts psm = pump_psm();
  mc::Reachability engine(psm.psm, mc::StateFormula{});
  const mc::ExploreStats stats = engine.explore_all(nullptr);
  // Exact counts of the live-zone engine under Extra_LU⁺: a change that
  // starts expanding zones a larger one already covers, or refines the
  // abstraction, fails here, not only by running slow.
  EXPECT_EQ(stats.states_stored, 5976u);
  EXPECT_EQ(stats.states_explored, 5205u);
  EXPECT_EQ(stats.transitions_fired, 7011u);
  EXPECT_EQ(stats.subsumed, 1036u);
  EXPECT_LT(stats.states_explored, stats.states_stored)
      << "covered zones are stored but never expanded";
}

TEST(ExplorationPins, PumpPsmDeadlockSearchIsTheFullSweep) {
  const core::PsmArtifacts psm = pump_psm();
  mc::Reachability engine(psm.psm, mc::StateFormula{});
  const mc::DeadlockResult result = engine.find_deadlock();
  EXPECT_EQ(stats_str(result.stats), "stored=5976 explored=5205 fired=7011 subsumed=1036");
  EXPECT_EQ(result.found, false);
}

TEST(ExplorationPins, QuickstartFramework) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.schemes = {parse_scheme_file("fast.pss")};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  const core::VerifyReport report = core::Verifier().verify(request);
  const core::RequirementResult& first = report.schemes[0].requirements[0];
  EXPECT_EQ(first.bounds.input_delays.at(0).verified, 14);
  EXPECT_EQ(first.bounds.output_delays.at(0).verified, 3);
  EXPECT_EQ(first.bounds.lemma2_total, 97);
  EXPECT_TRUE(first.psm_meets_relaxed);
}

// --- Seeded stress model -----------------------------------------------------

/// States stored by the full sweep of stress_net(3, 2015).
constexpr std::size_t kStressStored = 2634;

// A network built to produce wide waves and many evictions: `n` automata,
// each looping through 3 locations on its own clock with a seeded timing
// window, all bumping a shared counter. The discrete product (3^n locations
// x counter values) fans out into hundreds of simultaneously waiting states.
Network stress_net(int n, std::uint64_t seed) {
  Rng rng(seed);
  Network net("stress");
  const VarId counter = net.add_var("counter", 0, 0, 3 * n);
  std::vector<ClockId> clocks;
  for (int i = 0; i < n; ++i) clocks.push_back(net.add_clock("x" + std::to_string(i)));
  for (int i = 0; i < n; ++i) {
    Automaton a("W" + std::to_string(i));
    const auto lo = static_cast<std::int32_t>(rng.uniform_int(1, 3));
    const auto hi = static_cast<std::int32_t>(rng.uniform_int(4, 8));
    const LocId l0 = a.add_location("L0", LocKind::kNormal, {cc_le(clocks[i], hi)});
    const LocId l1 = a.add_location("L1", LocKind::kNormal, {cc_le(clocks[i], hi)});
    const LocId l2 = a.add_location("L2", LocKind::kNormal, {cc_le(clocks[i], hi)});
    auto hop = [&](LocId src, LocId dst, bool bump) {
      Edge e;
      e.src = src;
      e.dst = dst;
      e.guard.clocks = {cc_ge(clocks[i], lo)};
      e.update.resets = {{clocks[i], 0}};
      if (bump) {
        // Two variants — a guarded bump and a saturated no-op — double the
        // enabled-edge fan-out without driving the counter out of range.
        Edge bumped = e;
        bumped.guard.data = var_lt(counter, 3 * n);
        bumped.update.assignments.push_back(
            {counter, IntExpr::var(counter) + IntExpr::constant(1)});
        a.add_edge(std::move(bumped));
        e.guard.data = var_eq(counter, 3 * n);
      }
      a.add_edge(std::move(e));
    };
    hop(l0, l1, true);
    hop(l1, l2, false);
    hop(l2, l0, false);
    net.add_automaton(std::move(a));
  }
  return net;
}

TEST(StressPins, SeededNetworkCounts) {
  const Network net = stress_net(3, 2015);
  mc::Reachability engine(net, mc::StateFormula{});
  const mc::ExploreStats stats = engine.explore_all(nullptr);
  EXPECT_GT(stats.states_stored, 500u) << "stress model must produce wide waves";
  EXPECT_EQ(stats_str(stats), "stored=2634 explored=1443 fired=4299 subsumed=1666");
}

TEST(StressPins, ReachabilityGoal) {
  const Network net = stress_net(3, 7);
  const mc::StateFormula goal = mc::when(var_eq(0, 6));  // counter reaches 6
  const mc::ReachResult r = mc::reachable(net, goal);
  EXPECT_TRUE(r.reachable);
  EXPECT_EQ(r.trace.steps.size(), 13u);
  EXPECT_EQ(stats_str(r.stats), "stored=903 explored=502 fired=1427 subsumed=525");
}

// Goal search and the full sweep run the same wave loop: a goal is
// reachable exactly when some state the sweep visits satisfies it, and the
// goal search's trace leads to the first such visit — one step per wave.
TEST(StressPins, GoalSearchMatchesFirstSatisfyingVisit) {
  int reachable_goals = 0;
  int unreachable_goals = 0;
  for (const std::uint64_t seed : {3u, 7u, 11u, 2015u}) {
    const Network net = stress_net(3, seed);
    std::vector<mc::StateFormula> goals;
    for (const int count : {0, 2, 5, 9, 10})  // the counter saturates at 9
      goals.push_back(mc::when(var_eq(0, count)));
    for (const std::int32_t late : {5, 7}) {
      mc::StateFormula goal = mc::at(net, "W1", "L2");
      goal.and_clock(cc_gt(*net.clock_by_name("x1"), late));
      goals.push_back(goal);
    }
    for (const mc::StateFormula& goal : goals) {
      mc::Reachability sweep(net, goal);
      std::optional<std::uint64_t> first;
      sweep.explore_all([&](const mc::SymState& state, std::uint64_t id) {
        if (!first && mc::satisfies(net, state, goal)) first = id;
      });
      const mc::ReachResult r = mc::reachable(net, goal);
      ASSERT_EQ(r.reachable, first.has_value()) << "seed " << seed;
      if (!first) {
        ++unreachable_goals;
        continue;
      }
      ++reachable_goals;
      // A state visited in wave w has a w-step parent chain.
      const mc::Trace visited = sweep.trace_of(*first);
      const std::size_t wave = visited.steps.size() - 1;
      EXPECT_EQ(r.trace.steps.size() - 1, wave) << "seed " << seed;
      EXPECT_EQ(r.trace.to_string(), visited.to_string()) << "seed " << seed;
    }
  }
  EXPECT_GT(reachable_goals, 0);
  EXPECT_GT(unreachable_goals, 0);
}

// The cap is checked on every insert and is exact: a run storing exactly
// max_states states completes, one state fewer throws.
TEST(StateCap, ExactAtThePinnedStoredCount) {
  const Network net = stress_net(3, 2015);
  mc::ExploreOptions opts;
  opts.max_states = kStressStored;
  mc::Reachability exact(net, mc::StateFormula{}, opts);
  EXPECT_EQ(exact.explore_all(nullptr).states_stored, kStressStored);

  opts.max_states = kStressStored - 1;
  mc::Reachability capped(net, mc::StateFormula{}, opts);
  try {
    capped.explore_all(nullptr);
    FAIL() << "a run storing one state over the cap must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVerify);
    EXPECT_NE(std::string(e.what()).find("state-space exploration exceeded the configured limit "
                                         "of " + std::to_string(kStressStored - 1) + " states"),
              std::string::npos)
        << e.what();
  }
}

TEST(StateCap, GoalSearchHonoursTheCap) {
  const Network net = stress_net(3, 2015);
  mc::ExploreOptions opts;
  opts.max_states = 100;
  EXPECT_THROW(mc::reachable(net, mc::when(var_eq(0, 999)), opts), Error);
}

#ifdef __linux__
/// Threads of this process: the entries of /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}
#endif

// `jobs` does not fan an exploration out: a pump PSM sweep at jobs = 8 runs
// on the calling thread from its first wave to its last.
TEST(SingleThread, ExplorationStartsNoThread) {
#ifdef __linux__
  const core::PsmArtifacts psm = pump_psm();
  mc::ExploreOptions opts;
  opts.jobs = 8;
  mc::Reachability engine(psm.psm, mc::StateFormula{}, opts);
  const std::size_t before = thread_count();
  std::size_t most = 0;
  std::size_t visits = 0;
  engine.explore_all([&](const mc::SymState&, std::uint64_t) {
    most = std::max(most, thread_count());
    ++visits;
  });
  EXPECT_GT(visits, 1000u) << "the sweep must run past its narrow first waves";
  EXPECT_EQ(most, before);
#else
  GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
}

}  // namespace
}  // namespace psv
