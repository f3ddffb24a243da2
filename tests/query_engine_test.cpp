// Differential coverage for the sweep bound engine and the shared
// verification sessions.
//
// The sweep engine (one full-space exploration, widen-and-refine) must
// produce bounds bit-identical to the probe reference oracle (gallop +
// binary search over reachability checks, tests/support/probe_oracle.h) on
// every model: the paper's pump case study (Table-I 490/440), the
// quickstart model, and a seeded family of randomized request/response
// networks. Session reuse must be invisible: batched queries, one-off
// queries and repeated (cached) queries all agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
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
#include "model_paths.h"
#include "support/probe_oracle.h"
#include "ta/fingerprint.h"
#include "util/rng.h"

namespace psv {
namespace {

using namespace psv::ta;
using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;
using psv::testing::probe_max_clock_value;

mc::ExploreOptions jobs_opts(unsigned jobs) {
  mc::ExploreOptions opts;
  opts.jobs = jobs;
  return opts;
}

void expect_same_answer(const mc::MaxClockResult& a, const mc::MaxClockResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.bounded, b.bounded) << label;
  EXPECT_EQ(a.bound, b.bound) << label;
  EXPECT_EQ(a.condition_unreachable, b.condition_unreachable) << label;
}

// --- Pump case study (Table I) ----------------------------------------------

TEST(QueryEngineDifferential, PumpTableIBoundsMatchOracleAcrossJobs) {
  // The REQ1-only pump keeps every exploration in seconds.
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));
  const core::InputArtifacts& in = psm.input("BolusReq");
  const core::OutputArtifacts& out = psm.output("StartInfusion");

  std::vector<mc::MaxClockResult> in_results;
  std::vector<mc::MaxClockResult> out_results;
  const mc::StateFormula in_pred = mc::when(var_eq(in.pending, 1));
  const mc::StateFormula out_pred = mc::when(var_eq(out.pending, 1));
  for (const unsigned jobs : {1u, 8u}) {
    const mc::ExploreOptions opts = jobs_opts(jobs);
    in_results.push_back(mc::max_clock_value(psm.psm, in_pred, in.delay_clock, 100'000, opts, 490));
    out_results.push_back(
        mc::max_clock_value(psm.psm, out_pred, out.delay_clock, 100'000, opts, 440));
    in_results.push_back(
        probe_max_clock_value(psm.psm, in_pred, in.delay_clock, 100'000, opts, 490));
    out_results.push_back(
        probe_max_clock_value(psm.psm, out_pred, out.delay_clock, 100'000, opts, 440));
  }
  for (std::size_t i = 1; i < in_results.size(); ++i) {
    expect_same_answer(in_results[0], in_results[i], "Input-Delay(BolusReq) run " +
                                                         std::to_string(i));
    expect_same_answer(out_results[0], out_results[i], "Output-Delay(StartInfusion) run " +
                                                           std::to_string(i));
  }
  ASSERT_TRUE(in_results[0].bounded);
  EXPECT_EQ(in_results[0].bound, 490) << "Table-I Input-Delay";
  ASSERT_TRUE(out_results[0].bounded);
  EXPECT_EQ(out_results[0].bound, 440) << "Table-I Output-Delay";
}

// --- Quickstart model -------------------------------------------------------

TEST(QueryEngineDifferential, QuickstartPipelineMatchesOracleAcrossJobs) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  // The rendered report embeds every verified bound and the shared
  // constraint-exploration statistics; string equality across thread
  // counts pins the whole pipeline outcome.
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = {req};
  std::vector<core::VerifyReport> results;
  for (const unsigned jobs : {1u, 8u}) {
    request.options.explore = jobs_opts(jobs);
    results.push_back(core::Verifier().verify(request));
  }
  EXPECT_EQ(results[0].requirement_summary(0, 0), results[1].requirement_summary(0, 0));
  const core::BoundAnalysis& bounds = results[0].schemes[0].requirements[0].bounds;
  EXPECT_EQ(bounds.input_delays.at(0).verified, 14);
  EXPECT_EQ(bounds.output_delays.at(0).verified, 3);
  EXPECT_EQ(bounds.lemma2_total, 97);

  // Every verified figure of the pipeline, re-derived by the oracle on the
  // same instrumented PSM: per-variable delays and the end-to-end M-C delay.
  const core::PsmArtifacts psm = core::transform(pim, info, scheme);
  const core::InstrumentedPsm instrumented = core::instrument_psm_for_requirement(psm, req);
  const mc::ExploreOptions opts = jobs_opts(1);
  ASSERT_EQ(psm.inputs.size(), bounds.input_delays.size());
  for (std::size_t i = 0; i < psm.inputs.size(); ++i) {
    const mc::MaxClockResult oracle =
        probe_max_clock_value(instrumented.net, mc::when(var_eq(psm.inputs[i].pending, 1)),
                              psm.inputs[i].delay_clock, 100'000, opts, 64);
    ASSERT_TRUE(oracle.bounded);
    EXPECT_EQ(oracle.bound, bounds.input_delays[i].verified) << "input " << i;
  }
  ASSERT_EQ(psm.outputs.size(), bounds.output_delays.size());
  for (std::size_t i = 0; i < psm.outputs.size(); ++i) {
    const mc::MaxClockResult oracle =
        probe_max_clock_value(instrumented.net, mc::when(var_eq(psm.outputs[i].pending, 1)),
                              psm.outputs[i].delay_clock, 100'000, opts, 64);
    ASSERT_TRUE(oracle.bounded);
    EXPECT_EQ(oracle.bound, bounds.output_delays[i].verified) << "output " << i;
  }
  const mc::MaxClockResult mc_oracle = probe_max_clock_value(
      instrumented.net, mc::when(var_eq(instrumented.mc_probe.pending, 1)),
      instrumented.mc_probe.clock, 100'000, opts, 64);
  ASSERT_TRUE(mc_oracle.bounded);
  EXPECT_EQ(mc_oracle.bound, bounds.verified_mc_delay);
}

// --- Seeded randomized networks ---------------------------------------------

// A randomized request/response network: ENV issues req (resetting probe
// clock t) and awaits resp; M works for a seeded window [lo, hi] (invariant
// x <= hi), optionally unbounded (no invariant, time diverges at Work); a
// third automaton interleaves on its own clock to widen the product. The
// exact maximum of t at ENV.Await is hi (delivery is immediate), or
// unbounded without the invariant.
// `hi_delta`/`period_delta` perturb ONE seeded timing constant (clamped so
// the net stays live) without touching the rng sequence or the structure:
// the perturbed net is skeleton-equal to the unperturbed one — the shape the
// incremental-exploration warm start targets.
Network random_reqresp_net(std::uint64_t seed, bool bounded, std::int32_t& expected_hi,
                           std::int32_t hi_delta = 0, std::int32_t period_delta = 0) {
  Rng rng(seed);
  Network net("rand" + std::to_string(seed));
  const ClockId t = net.add_clock("t");
  const ClockId x = net.add_clock("x");
  const ClockId z = net.add_clock("z");
  const ChanId req = net.add_channel("req", ChanKind::kBinary);
  const ChanId resp = net.add_channel("resp", ChanKind::kBinary);
  const auto lo = static_cast<std::int32_t>(rng.uniform_int(1, 40));
  auto hi = static_cast<std::int32_t>(lo + rng.uniform_int(1, 400));
  hi = hi + hi_delta < lo ? lo : hi + hi_delta;
  expected_hi = hi;

  Automaton env("ENV");
  const LocId idle = env.add_location("Idle");
  const LocId await = env.add_location("Await");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req);
  send.update.resets = {{t, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp);
  env.add_edge(recv);
  net.add_automaton(std::move(env));

  Automaton m("M");
  const LocId midle = m.add_location("Idle");
  std::vector<ClockConstraint> inv;
  if (bounded) inv.push_back(cc_le(x, hi));
  const LocId work = m.add_location("Work", LocKind::kNormal, inv);
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req);
  take.update.resets = {{x, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x, lo)};
  give.sync = SyncLabel::send(resp);
  m.add_edge(give);
  net.add_automaton(std::move(m));

  Automaton w("W");
  const auto period = static_cast<std::int32_t>(rng.uniform_int(3, 25)) + period_delta;
  const LocId w0 = w.add_location("W0", LocKind::kNormal, {cc_le(z, period)});
  const LocId w1 = w.add_location("W1", LocKind::kNormal, {cc_le(z, period)});
  Edge tick;
  tick.src = w0;
  tick.dst = w1;
  tick.guard.clocks = {cc_ge(z, 1)};
  tick.update.resets = {{z, 0}};
  w.add_edge(tick);
  Edge tock = tick;
  tock.src = w1;
  tock.dst = w0;
  w.add_edge(tock);
  net.add_automaton(std::move(w));
  return net;
}

TEST(QueryEngineDifferential, SeededRandomizedNetworksAgree) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const bool bounded = seed % 3 != 0;  // every third net is unbounded
    std::int32_t hi = 0;
    const Network net = random_reqresp_net(seed, bounded, hi);
    const mc::StateFormula pred = mc::at(net, "ENV", "Await");
    // Hints straddling the answer exercise round-0 resolution, the
    // widen-and-refine loop, and the oracle's gallop from both sides.
    for (const std::int64_t hint : {std::int64_t{1}, std::int64_t{hi}, std::int64_t{5000}}) {
      const mc::MaxClockResult sweep =
          mc::max_clock_value(net, pred, 0, 10'000, jobs_opts(1), hint);
      const mc::MaxClockResult probe =
          probe_max_clock_value(net, pred, 0, 10'000, jobs_opts(1), hint);
      expect_same_answer(sweep, probe,
                         "seed " + std::to_string(seed) + " hint " + std::to_string(hint));
      if (bounded) {
        ASSERT_TRUE(sweep.bounded) << "seed " << seed;
        EXPECT_EQ(sweep.bound, hi) << "seed " << seed;
      } else {
        EXPECT_FALSE(sweep.bounded) << "seed " << seed;
      }
    }
  }
}

// --- Slack & ranking property harness ----------------------------------------

// Property, over the seeded randomized family: the ranked critical-trace
// payload (values, rendered traces, witness constants) and the slack report
// derived from it are BIT-IDENTICAL at every thread count, rankings are
// monotonically ordered with ranked[0] == bound, and unbounded/unreachable
// results carry no ranked payload. The oracle agrees on every bound (its
// binary search only ever sees the maximum, so it ranks a single entry).
TEST(SlackRankingProperty, SeededNetworksRankingsBitIdenticalAcrossJobs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const bool bounded = seed % 3 != 0;  // every third net is unbounded
    std::int32_t hi = 0;
    const Network net = random_reqresp_net(seed, bounded, hi);
    const mc::StateFormula pred = mc::at(net, "ENV", "Await");
    std::vector<mc::BoundQuery> batch(1);
    batch[0] = {pred, 0, 10'000, /*hint=*/64, /*top_k=*/4};
    // One synthetic requirement 7ms above the seeded maximum: bounded nets
    // must report slack == 7 exactly.
    const std::vector<core::TimingRequirement> reqs = {
        {"R" + std::to_string(seed), "req", "resp", std::int64_t{hi} + 7}};

    std::int64_t first_bound = -1;
    for (const bool oracle : {false, true}) {
      std::vector<std::string> payloads;
      std::vector<std::string> slacks;
      for (const unsigned jobs : {1u, 2u, 8u}) {
        const std::string label = "seed " + std::to_string(seed) + " engine " +
                                  (oracle ? "oracle" : "sweep") + " jobs " +
                                  std::to_string(jobs);
        mc::BatchQueryStats batch_stats;
        const std::vector<mc::MaxClockResult> results =
            oracle ? std::vector<mc::MaxClockResult>{probe_max_clock_value(
                         net, pred, 0, 10'000, jobs_opts(jobs), 64, /*top_k=*/4)}
                   : mc::max_clock_values(net, batch, jobs_opts(jobs), &batch_stats);
        const mc::MaxClockResult& r = results.at(0);
        EXPECT_EQ(r.bounded, bounded) << label;
        // An unbounded net escapes the hint and every widening candidate
        // below the limit, so at jobs > 1 its widening rounds fan out.
        if (!oracle && !bounded) {
          EXPECT_GE(batch_stats.explorations, 4) << label << ": round 0 plus three widenings";
        }
        if (bounded) {
          EXPECT_EQ(r.bound, hi) << label;
          ASSERT_FALSE(r.ranked.empty()) << label;
          EXPECT_EQ(r.ranked.front().value, r.bound) << label;
        } else {
          EXPECT_TRUE(r.ranked.empty()) << label << ": unbounded results carry no ranking";
        }
        for (std::size_t i = 1; i < r.ranked.size(); ++i)
          EXPECT_LE(r.ranked[i].value, r.ranked[i - 1].value) << label << " ranked[" << i << "]";

        std::ostringstream os;
        os << r.bounded << ' ' << r.bound << ' ' << r.condition_unreachable << '\n';
        for (const mc::RankedWitness& w : r.ranked)
          os << w.value << '\n' << w.trace.to_string() << '\n';
        for (const std::int32_t c : r.witness_consts) os << c << ' ';
        payloads.push_back(os.str());

        const core::SlackReport report = core::compute_slack_report(reqs, results, 10'000);
        if (bounded) {
          EXPECT_EQ(report.requirements.at(0).slack_ms, 7) << label;
        }
        slacks.push_back(report.to_string(/*top_k=*/4));

        if (first_bound < 0 && r.bounded) first_bound = r.bound;
        if (r.bounded) {
          EXPECT_EQ(r.bound, first_bound) << label << ": engines disagree";
        }
      }
      for (std::size_t i = 1; i < payloads.size(); ++i) {
        EXPECT_EQ(payloads[0], payloads[i])
            << "seed " << seed << ": ranked payload differs across thread counts";
        EXPECT_EQ(slacks[0], slacks[i])
            << "seed " << seed << ": slack report differs across thread counts";
      }
    }
  }
}

// --- Session reuse -----------------------------------------------------------

TEST(SessionReuse, BatchedAndOneOffAndCachedQueriesAgree) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));

  std::vector<mc::BoundQuery> batch;
  for (const core::InputArtifacts& in : psm.inputs) {
    mc::BoundQuery q;
    q.pred = mc::when(var_eq(in.pending, 1));
    q.clock = in.delay_clock;
    q.limit = 100'000;
    q.hint = 490;
    batch.push_back(std::move(q));
  }
  for (const core::OutputArtifacts& out : psm.outputs) {
    mc::BoundQuery q;
    q.pred = mc::when(var_eq(out.pending, 1));
    q.clock = out.delay_clock;
    q.limit = 100'000;
    q.hint = 440;
    batch.push_back(std::move(q));
  }
  ASSERT_GE(batch.size(), 3u);

  mc::VerificationSession session(psm.psm, {});
  const std::vector<mc::MaxClockResult> batched = session.max_clock_values(batch);
  const int explorations_after_batch = session.stats().explorations;
  EXPECT_EQ(explorations_after_batch, 1)
      << "the whole batch must be answered from one shared sweep";

  // One-off queries (fresh session each) give the same answers.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mc::VerificationSession fresh(psm.psm, {});
    expect_same_answer(batched[i], fresh.max_clock_value(batch[i]),
                       "one-off query " + std::to_string(i));
  }

  // Re-asking the session is answered from the cache: same answers, no new
  // exploration.
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_same_answer(batched[i], session.max_clock_value(batch[i]),
                       "cached query " + std::to_string(i));
  EXPECT_EQ(session.stats().explorations, explorations_after_batch);
  EXPECT_GE(session.stats().cache_hits, static_cast<int>(batch.size()));
}

TEST(SessionReuse, RefinementWorkIsAccounted) {
  // Two sequential work phases with an intermediate reset of x: no single
  // clock difference bounds the probe clock t (max 400 = 2 phases x 200),
  // so a low hint abstracts t's upper bound away and forces the sweep
  // through the widen-and-refine loop, whose explorations must all land in
  // the session's totals (they feed --stats-json).
  Network net("twophase");
  const ClockId t = net.add_clock("t");
  const ClockId x = net.add_clock("x");
  const ChanId req = net.add_channel("req", ChanKind::kBinary);
  const ChanId resp = net.add_channel("resp", ChanKind::kBinary);
  Automaton env("ENV");
  const LocId idle = env.add_location("Idle");
  const LocId await = env.add_location("Await");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req);
  send.update.resets = {{t, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp);
  env.add_edge(recv);
  net.add_automaton(std::move(env));
  Automaton m("M");
  const LocId midle = m.add_location("Idle");
  const LocId w1 = m.add_location("W1", LocKind::kNormal, {cc_le(x, 200)});
  const LocId w2 = m.add_location("W2", LocKind::kNormal, {cc_le(x, 200)});
  Edge take;
  take.src = midle;
  take.dst = w1;
  take.sync = SyncLabel::receive(req);
  take.update.resets = {{x, 0}};
  m.add_edge(take);
  Edge step;
  step.src = w1;
  step.dst = w2;
  step.guard.clocks = {cc_ge(x, 1)};
  step.update.resets = {{x, 0}};
  m.add_edge(step);
  Edge give;
  give.src = w2;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x, 1)};
  give.sync = SyncLabel::send(resp);
  m.add_edge(give);
  net.add_automaton(std::move(m));

  mc::VerificationSession session(net, {});
  mc::BoundQuery q;
  q.pred = mc::at(net, "ENV", "Await");
  q.clock = t;
  q.limit = 50'000;
  q.hint = 1;
  const mc::MaxClockResult r = session.max_clock_value(q);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.bound, 400);
  EXPECT_GT(r.probes, 1) << "hint 1 must trigger at least one refine round";
  EXPECT_EQ(session.stats().explorations, r.probes)
      << "single-query batch: session totals must equal the query's counted sweeps";
  EXPECT_EQ(session.stats().explore.states_explored, r.stats.states_explored);

  // The oracle agrees from the same low hint.
  const mc::MaxClockResult probe =
      probe_max_clock_value(net, q.pred, t, q.limit, jobs_opts(1), q.hint);
  ASSERT_TRUE(probe.bounded);
  EXPECT_EQ(probe.bound, 400);
}

TEST(SessionReuse, RepeatedFlagChecksShareOneExploration) {
  const Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm = core::transform(pim, info, parse_scheme_file("board.pss"));

  mc::VerificationSession session(psm.psm, {});
  const core::ConstraintReport first = core::check_constraints(session, psm);
  const int explorations = session.stats().explorations;
  EXPECT_EQ(explorations, 1) << "all C1-C4 flags and the deadlock search share one sweep";
  const core::ConstraintReport second = core::check_constraints(session, psm);
  EXPECT_EQ(session.stats().explorations, explorations) << "repeat must be served from cache";
  EXPECT_EQ(first.to_string(), second.to_string());
  EXPECT_TRUE(first.all_hold()) << first.to_string();
}

// Property, over quickstart schemes whose period runs from PASS (10 ms) to a
// reachable timelock (200 ms): every C1–C4 verdict read off the one shared
// sweep — the dedicated flag sweep of check_constraints and the batch sweep
// of the Verifier alike — equals an independent goal search for that flag,
// and the deadlock verdict is the same at every thread count. The goal
// search is the reference semantics the shared sweep is held to.
TEST(SharedSweepProperty, FlagVerdictsMatchPerFlagGoalSearchFromPassToTimelock) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};
  int timelocked = 0;
  int timelock_free = 0;
  for (const std::int32_t period : {10, 20, 40, 80, 120, 160, 200}) {
    core::ImplementationScheme scheme = parse_scheme_file("late.pss");
    scheme.io.period = period;
    const std::string label = "period " + std::to_string(period);
    const core::PsmArtifacts psm = core::transform(pim, info, scheme);
    const std::vector<VarId> flags = core::constraint_flag_vars(psm);

    const core::ConstraintReport report = core::check_constraints(psm);
    core::VerifyRequest request;
    request.pim = pim;
    request.info = info;
    request.schemes = {scheme};
    request.requirements = {req};
    const core::VerifyReport verified = core::Verifier().verify(request);
    const core::ConstraintReport& batched = verified.schemes.at(0).constraints;
    ASSERT_EQ(report.checks.size(), flags.size() + 1) << label;
    ASSERT_EQ(batched.checks.size(), flags.size() + 1) << label;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      const bool reference = mc::reachable(psm.psm, mc::when(var_eq(flags[i], 1))).reachable;
      EXPECT_EQ(report.checks[i].holds, !reference) << label << ": " << report.checks[i].name;
      EXPECT_EQ(batched.checks[i].holds, !reference) << label << ": " << batched.checks[i].name;
    }

    std::vector<mc::DeadlockResult> deadlocks;
    for (const unsigned jobs : {1u, 4u}) {
      mc::Reachability engine(psm.psm, mc::StateFormula{}, jobs_opts(jobs));
      deadlocks.push_back(engine.find_deadlock());
    }
    EXPECT_EQ(deadlocks[0].found, deadlocks[1].found) << label;
    EXPECT_EQ(deadlocks[0].timelock, deadlocks[1].timelock) << label;
    const bool timelock = deadlocks[0].found && deadlocks[0].timelock;
    EXPECT_EQ(report.checks.back().holds, !timelock) << label;
    EXPECT_EQ(batched.checks.back().holds, !timelock) << label;
    ++(timelock ? timelocked : timelock_free);
  }
  EXPECT_GT(timelocked, 0) << "the sweep must reach the timelocked schemes";
  EXPECT_GT(timelock_free, 0) << "the sweep must start from schedulable schemes";
}

// --- Incremental exploration (warm start) ------------------------------------

// Property, over the seeded randomized family: adopt the unperturbed net's
// passed store into a session for a RANDOMLY single-edit-perturbed net
// (one timing constant raised, lowered, or a period stretched — the
// skeleton never changes) and the warm answers are bit-identical to a cold
// session's at every thread count. Every warm run must actually reuse or
// revalidate stored states — otherwise the warm start silently degraded to
// a cold run.
TEST(IncrementalExploration, SeededPerturbedNetsWarmMatchesColdAcrossJobs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::int32_t base_hi = 0;
    const Network base = random_reqresp_net(seed, /*bounded=*/true, base_hi);

    // One random single-constant edit: raise the work window, shrink it, or
    // stretch the interleaver period.
    Rng perturb_rng(seed * 977 + 13);
    const auto which = static_cast<int>(perturb_rng.uniform_int(0, 2));
    const auto d = static_cast<std::int32_t>(perturb_rng.uniform_int(1, 30));
    const std::int32_t hi_delta = which == 0 ? d : which == 1 ? -d : 0;
    const std::int32_t period_delta = which == 2 ? d : 0;
    std::int32_t hi = 0;
    const Network perturbed = random_reqresp_net(seed, true, hi, hi_delta, period_delta);
    ASSERT_EQ(ta::skeleton_digest(base), ta::skeleton_digest(perturbed))
        << "seed " << seed << ": a constant edit must not change the skeleton";

    // The ancestor: one captured sweep over the unperturbed net.
    mc::VerificationSession ancestor(base, jobs_opts(1));
    mc::BoundQuery base_query{mc::at(base, "ENV", "Await"), 0, 10'000, /*hint=*/64};
    ancestor.max_clock_value(base_query);
    const std::shared_ptr<const mc::PassedStoreExport> store = ancestor.exported_store();
    ASSERT_NE(store, nullptr) << "seed " << seed << ": sweep session exported no store";

    const mc::BoundQuery query{mc::at(perturbed, "ENV", "Await"), 0, 10'000, /*hint=*/64};
    for (const unsigned jobs : {1u, 2u, 8u}) {
      const std::string label = "seed " + std::to_string(seed) + " edit " +
                                std::to_string(which) + " jobs " + std::to_string(jobs);
      mc::VerificationSession cold(perturbed, jobs_opts(jobs));
      const mc::MaxClockResult cold_result = cold.max_clock_value(query);

      mc::VerificationSession warm(perturbed, jobs_opts(jobs));
      warm.adopt_ancestor(store);
      const mc::MaxClockResult warm_result = warm.max_clock_value(query);

      expect_same_answer(cold_result, warm_result, label);
      ASSERT_TRUE(warm_result.bounded) << label;
      EXPECT_EQ(warm_result.bound, hi) << label;
      EXPECT_GT(warm.stats().warm_start_states_reused() + warm.stats().states_revalidated(), 0u)
          << label << ": adopted ancestor was never consulted";
    }
  }
}

// One discrete state, A.D, is reached in the first wave by a smaller zone E
// (guard x <= 2) and then by a larger zone F (guard x <= f_guard). With
// f_guard > 2, F evicts E before E is expanded, so the exported store holds
// E with no children and no covers. The bound target is D's successor A.G,
// where the maximum of x is max(2, f_guard).
Network covered_then_revived_net(std::int32_t f_guard) {
  Network net("revive");
  const ClockId x = net.add_clock("x");
  const ClockId y = net.add_clock("y");
  Automaton a("A");
  const LocId s = a.add_location("S");
  const LocId d = a.add_location("D", LocKind::kNormal, {cc_le(y, 0)});
  const LocId g = a.add_location("G", LocKind::kNormal, {cc_le(y, 0)});
  for (const std::int32_t bound : {2, f_guard}) {
    Edge enter;
    enter.src = s;
    enter.dst = d;
    enter.guard.clocks = {cc_le(x, bound)};
    enter.update.resets = {{y, 0}};
    a.add_edge(enter);
  }
  Edge leave;
  leave.src = d;
  leave.dst = g;
  a.add_edge(leave);
  net.add_automaton(std::move(a));
  return net;
}

// The edit shrinks F below E, so E comes back live after the import. The
// ancestor never expanded E, and E's own neighbourhood is untouched by the
// edit: only the childless-seed rule puts it back in the first frontier.
// Without it the warm sweep never reaches G through E and answers 1, not 2.
TEST(IncrementalExploration, RevivedCoveredZoneIsExpandedOnWarmStart) {
  const Network base = covered_then_revived_net(5);
  const Network edited = covered_then_revived_net(1);
  ASSERT_EQ(ta::skeleton_digest(base), ta::skeleton_digest(edited));

  mc::VerificationSession ancestor(base, jobs_opts(1));
  const mc::MaxClockResult base_result =
      ancestor.max_clock_value({mc::at(base, "A", "G"), 0, 10'000, /*hint=*/64});
  ASSERT_TRUE(base_result.bounded);
  EXPECT_EQ(base_result.bound, 5);
  EXPECT_LT(ancestor.stats().explore.states_explored, ancestor.stats().explore.states_stored)
      << "the covered zone E must be stored but never expanded";
  const std::shared_ptr<const mc::PassedStoreExport> store = ancestor.exported_store();
  ASSERT_NE(store, nullptr);

  const mc::BoundQuery query{mc::at(edited, "A", "G"), 0, 10'000, /*hint=*/64};
  for (const unsigned jobs : {1u, 2u, 8u}) {
    const std::string label = "jobs " + std::to_string(jobs);
    mc::VerificationSession cold(edited, jobs_opts(jobs));
    const mc::MaxClockResult cold_result = cold.max_clock_value(query);
    ASSERT_TRUE(cold_result.bounded) << label;
    EXPECT_EQ(cold_result.bound, 2) << label;

    mc::VerificationSession warm(edited, jobs_opts(jobs));
    warm.adopt_ancestor(store);
    const mc::MaxClockResult warm_result = warm.max_clock_value(query);
    expect_same_answer(cold_result, warm_result, label);
    EXPECT_GT(warm.stats().warm_start_states_reused(), 0u)
        << label << ": E must be reused from the ancestor, not rebuilt cold";
  }
}

TEST(SessionReuse, SessionBackedPipelineMatchesLegacyPaths) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  const core::PsmArtifacts psm = core::transform(pim, info, scheme);
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  // Legacy convenience API (internal one-shot session)...
  const core::BoundAnalysis legacy = core::analyze_bounds(psm, 500, req, 100'000);
  // ...and an explicitly shared session: identical verified bounds.
  core::InstrumentedPsm instrumented = core::instrument_psm_for_requirement(psm, req);
  mc::VerificationSession session(std::move(instrumented.net), {});
  const core::BoundAnalysis shared =
      core::analyze_bounds(session, psm, instrumented.mc_probe, 500, req, 100'000);
  ASSERT_EQ(legacy.input_delays.size(), shared.input_delays.size());
  for (std::size_t i = 0; i < legacy.input_delays.size(); ++i)
    EXPECT_EQ(legacy.input_delays[i].verified, shared.input_delays[i].verified);
  ASSERT_EQ(legacy.output_delays.size(), shared.output_delays.size());
  for (std::size_t i = 0; i < legacy.output_delays.size(); ++i)
    EXPECT_EQ(legacy.output_delays[i].verified, shared.output_delays[i].verified);
  EXPECT_EQ(legacy.verified_mc_delay, shared.verified_mc_delay);
  EXPECT_EQ(legacy.lemma2_total, shared.lemma2_total);
}

}  // namespace
}  // namespace psv
