// Determinism and stress coverage for the wave-parallel reachability core.
//
// The engine guarantees bit-identical results for every `jobs` setting: the
// sharded passed/waiting store inserts in deterministic rank order, so
// traces, statistics, and verified bounds must not depend on the thread
// count. These tests pin that contract on the shipped case-study models
// (pump, quickstart) and on a seeded synthetic model built to maximize racy
// interleavings (wide waves, heavy cross-shard traffic). The stress tests
// are part of the `fast` label so the ASan+UBSan CI job runs them.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "core/analysis.h"
#include "core/pim.h"
#include "core/service.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/query.h"
#include "mc/reach.h"
#include "model_paths.h"
#include "util/error.h"
#include "util/rng.h"

namespace psv {
namespace {

using namespace psv::ta;

const std::vector<unsigned> kJobCounts = {1, 2, 8};

bool stats_equal(const mc::ExploreStats& a, const mc::ExploreStats& b) {
  return a.states_stored == b.states_stored && a.states_explored == b.states_explored &&
         a.transitions_fired == b.transitions_fired && a.subsumed == b.subsumed;
}

std::string stats_str(const mc::ExploreStats& s) {
  std::ostringstream os;
  os << "stored=" << s.states_stored << " explored=" << s.states_explored
     << " fired=" << s.transitions_fired << " subsumed=" << s.subsumed;
  return os.str();
}

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

// --- Determinism across job counts ------------------------------------------

TEST(ParallelDeterminism, PumpPimReachabilityIdenticalAcrossJobs) {
  const Network pim = parse_model_file("pump_syringe.psv");
  std::vector<mc::ReachResult> results;
  for (unsigned jobs : kJobCounts) {
    mc::ExploreOptions opts;
    opts.jobs = jobs;
    results.push_back(mc::reachable(pim, mc::at(pim, "M", "Infusing"), opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].reachable, results[i].reachable);
    EXPECT_EQ(results[0].trace.to_string(), results[i].trace.to_string())
        << "trace must not depend on jobs=" << kJobCounts[i];
    EXPECT_TRUE(stats_equal(results[0].stats, results[i].stats))
        << "jobs=1: " << stats_str(results[0].stats) << "\njobs=" << kJobCounts[i] << ": "
        << stats_str(results[i].stats);
  }
}

TEST(ParallelDeterminism, PumpPimVerifiedBoundIdenticalAcrossJobs) {
  const Network pim = parse_model_file("pump_syringe.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::TimingRequirement req =
      lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500");
  std::vector<core::PimVerification> results;
  for (unsigned jobs : kJobCounts) {
    mc::ExploreOptions explore;
    explore.jobs = jobs;
    results.push_back(core::verify_pim_requirement(pim, info, req, 100'000, explore));
  }
  for (const core::PimVerification& v : results) {
    EXPECT_TRUE(v.bounded);
    EXPECT_EQ(v.max_delay, results[0].max_delay);
    EXPECT_EQ(v.holds, results[0].holds);
  }
  EXPECT_EQ(results[0].max_delay, 500) << "paper's exact PIM bound";
}

TEST(ParallelDeterminism, PumpPsmFullExplorationIdenticalAcrossJobs) {
  // The REQ1-only pump keeps the sweep in the seconds range.
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));

  std::vector<mc::ExploreStats> stats;
  for (unsigned jobs : kJobCounts) {
    mc::ExploreOptions opts;
    opts.jobs = jobs;
    mc::Reachability engine(psm.psm, mc::StateFormula{}, opts);
    stats.push_back(engine.explore_all(nullptr));
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_TRUE(stats_equal(stats[0], stats[i]))
        << "jobs=1: " << stats_str(stats[0]) << "\njobs=" << kJobCounts[i] << ": "
        << stats_str(stats[i]);
  }
  EXPECT_GT(stats[0].states_stored, 1000u) << "the sweep must be a real workload";
  // Exact counts of the live-zone engine under Extra_LU⁺: a change that
  // starts expanding zones a larger one already covers, or refines the
  // abstraction, fails here, not only by running slow.
  EXPECT_EQ(stats[0].states_stored, 5976u);
  EXPECT_EQ(stats[0].states_explored, 5205u);
  EXPECT_EQ(stats[0].transitions_fired, 7011u);
  EXPECT_EQ(stats[0].subsumed, 1036u);
  EXPECT_LT(stats[0].states_explored, stats[0].states_stored)
      << "covered zones are stored but never expanded";
}

TEST(ParallelDeterminism, PumpPsmDeadlockSearchIdenticalAcrossJobs) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));

  std::vector<mc::DeadlockResult> results;
  for (unsigned jobs : {1u, 8u}) {
    mc::ExploreOptions opts;
    opts.jobs = jobs;
    mc::Reachability engine(psm.psm, mc::StateFormula{}, opts);
    results.push_back(engine.find_deadlock());
  }
  EXPECT_EQ(results[0].found, results[1].found);
  EXPECT_EQ(results[0].timelock, results[1].timelock);
  EXPECT_EQ(results[0].trace.to_string(), results[1].trace.to_string());
  EXPECT_TRUE(stats_equal(results[0].stats, results[1].stats))
      << "jobs=1: " << stats_str(results[0].stats) << "\njobs=8: " << stats_str(results[1].stats);
}

TEST(ParallelDeterminism, QuickstartFrameworkIdenticalAcrossJobs) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.schemes = {parse_scheme_file("fast.pss")};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};

  std::vector<core::VerifyReport> results;
  for (unsigned jobs : kJobCounts) {
    request.options.explore.jobs = jobs;
    results.push_back(core::Verifier().verify(request));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    // The rendered report embeds state counts from the shared constraint
    // exploration, so string equality pins stats determinism end to end.
    EXPECT_EQ(results[0].requirement_summary(0, 0), results[i].requirement_summary(0, 0))
        << "full pipeline report must not depend on jobs=" << kJobCounts[i];
  }
  const core::RequirementResult& first = results[0].schemes[0].requirements[0];
  EXPECT_EQ(first.bounds.input_delays.at(0).verified, 14);
  EXPECT_EQ(first.bounds.output_delays.at(0).verified, 3);
  EXPECT_EQ(first.bounds.lemma2_total, 97);
  EXPECT_TRUE(first.psm_meets_relaxed);
}

// --- Seeded stress model -----------------------------------------------------

// A network built to produce wide waves and heavy cross-shard traffic: `n`
// automata, each looping through 3 locations on its own clock with a seeded
// timing window, all bumping a shared counter. The discrete product (3^n
// locations x counter values) fans out into hundreds of simultaneously
// waiting states whose insertions race across shards when jobs > 1.
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

TEST(ParallelStress, SeededRacyInterleavingsAreDeterministic) {
  const Network net = stress_net(3, 2015);
  mc::ExploreOptions base;
  base.jobs = 1;
  mc::Reachability reference(net, mc::StateFormula{}, base);
  const mc::ExploreStats expected = reference.explore_all(nullptr);
  EXPECT_GT(expected.states_stored, 500u) << "stress model must produce wide waves";

  // Repeated parallel runs shake scheduling interleavings; every one must
  // reproduce the single-threaded exploration exactly.
  for (int round = 0; round < 3; ++round) {
    mc::ExploreOptions opts;
    opts.jobs = 8;
    mc::Reachability engine(net, mc::StateFormula{}, opts);
    const mc::ExploreStats stats = engine.explore_all(nullptr);
    EXPECT_TRUE(stats_equal(expected, stats))
        << "round " << round << "\njobs=1: " << stats_str(expected)
        << "\njobs=8: " << stats_str(stats);
  }
}

TEST(ParallelStress, ReachabilityGoalDeterministicUnderParallelism) {
  const Network net = stress_net(3, 7);
  const mc::StateFormula goal = mc::when(var_eq(0, 6));  // counter reaches 6
  std::vector<mc::ReachResult> results;
  for (unsigned jobs : kJobCounts) {
    mc::ExploreOptions opts;
    opts.jobs = jobs;
    results.push_back(mc::reachable(net, goal, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].reachable, results[i].reachable);
    EXPECT_EQ(results[0].trace.to_string(), results[i].trace.to_string());
    EXPECT_TRUE(stats_equal(results[0].stats, results[i].stats))
        << "jobs=1: " << stats_str(results[0].stats) << "\njobs=" << kJobCounts[i] << ": "
        << stats_str(results[i].stats);
  }
}

// Goal search and the full sweep run the same wave loop: a goal is
// reachable exactly when some state the sweep visits satisfies it, and the
// goal search's trace leads to the first such visit — one step per wave.
TEST(ParallelStress, GoalSearchMatchesFirstSatisfyingVisitAcrossJobs) {
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
      for (unsigned jobs : kJobCounts) {
        mc::ExploreOptions opts;
        opts.jobs = jobs;
        mc::Reachability sweep(net, goal, opts);
        std::optional<std::uint64_t> first;
        sweep.explore_all([&](const mc::SymState& state, std::uint64_t id) {
          if (!first && mc::satisfies(net, state, goal)) first = id;
        });
        const mc::ReachResult r = mc::reachable(net, goal, opts);
        ASSERT_EQ(r.reachable, first.has_value()) << "seed " << seed << " jobs " << jobs;
        if (!first) {
          ++unreachable_goals;
          continue;
        }
        ++reachable_goals;
        // A state visited in wave w has a w-step parent chain.
        const mc::Trace visited = sweep.trace_of(*first);
        const std::size_t wave = visited.steps.size() - 1;
        EXPECT_EQ(r.trace.steps.size() - 1, wave) << "seed " << seed << " jobs " << jobs;
        EXPECT_EQ(r.trace.to_string(), visited.to_string()) << "seed " << seed << " jobs " << jobs;
      }
    }
  }
  EXPECT_GT(reachable_goals, 0);
  EXPECT_GT(unreachable_goals, 0);
}

TEST(ParallelStress, MaxStatesCapStillEnforcedUnderParallelism) {
  const Network net = stress_net(3, 2015);
  mc::ExploreOptions opts;
  opts.jobs = 8;
  opts.max_states = 100;
  EXPECT_THROW(mc::reachable(net, mc::when(var_eq(0, 999)), opts), Error);
}

}  // namespace
}  // namespace psv
