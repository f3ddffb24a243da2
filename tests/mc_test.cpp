// Known-answer tests for the zone-based model checker.
#include <gtest/gtest.h>

#include "mc/query.h"
#include "mc/reach.h"
#include "mc/state.h"
#include "support/probe_oracle.h"
#include "ta/model.h"
#include "util/error.h"

namespace psv::mc {
namespace {

using namespace psv::ta;
using psv::Error;

// --- Single-automaton timing ------------------------------------------------

// L0 --(2 <= x <= 5)--> L1, no reset. L1 invariant optional.
Network window_net(bool l1_invariant) {
  Network net("window");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  std::vector<ClockConstraint> inv;
  if (l1_invariant) inv.push_back(cc_le(x, 7));
  const LocId l1 = a.add_location("L1", LocKind::kNormal, inv);
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks = {cc_ge(x, 2), cc_le(x, 5)};
  a.add_edge(e);
  net.add_automaton(std::move(a));
  return net;
}

TEST(Reach, GuardWindowReachable) {
  Network net = window_net(false);
  ReachResult r = reachable(net, at(net, "A", "L1"));
  EXPECT_TRUE(r.reachable);
  EXPECT_GE(r.stats.states_stored, 2u);
}

TEST(Reach, ClockConstraintInGoalRespected) {
  Network net = window_net(false);
  const ClockId x = 0;
  // On entry to L1 the clock is between 2 and 5 but then delays freely:
  // x == 3 is reachable at L1; x < 2 is not.
  StateFormula g1 = at(net, "A", "L1");
  g1.and_clock(cc_eq(x, 3));
  EXPECT_TRUE(reachable(net, g1).reachable);

  StateFormula g2 = at(net, "A", "L1");
  g2.and_clock(cc_lt(x, 2));
  EXPECT_FALSE(reachable(net, g2).reachable);
}

TEST(Reach, DelayClosureReachesLargeValues) {
  Network net = window_net(false);
  const ClockId x = 0;
  StateFormula g = at(net, "A", "L1");
  g.and_clock(cc_gt(x, 100000));
  EXPECT_TRUE(reachable(net, g).reachable) << "no invariant: time diverges at L1";
}

TEST(Reach, InvariantCapsDelay) {
  Network net = window_net(true);
  const ClockId x = 0;
  StateFormula g = at(net, "A", "L1");
  g.and_clock(cc_gt(x, 7));
  EXPECT_FALSE(reachable(net, g).reachable) << "L1 invariant x<=7 must cap the clock";
}

TEST(MaxClock, UnboundedWithoutInvariant) {
  Network net = window_net(false);
  MaxClockResult r = max_clock_value(net, at(net, "A", "L1"), 0, 50000);
  EXPECT_FALSE(r.bounded);
}

TEST(MaxClock, BoundEqualsInvariant) {
  Network net = window_net(true);
  MaxClockResult r = max_clock_value(net, at(net, "A", "L1"), 0, 50000);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.bound, 7);
}

TEST(MaxClock, UnreachableConditionReportsZero) {
  Network net = window_net(true);
  Network net2 = window_net(true);
  // L0 with x > 5 is unreachable... actually L0 delays freely; use an
  // unreachable discrete target instead: add an orphan location.
  Automaton orphan("Orphan");
  orphan.add_location("Start");
  orphan.add_location("Never");
  net2.add_automaton(std::move(orphan));
  MaxClockResult r = max_clock_value(net2, at(net2, "Orphan", "Never"), 0, 1000);
  EXPECT_TRUE(r.bounded);
  EXPECT_TRUE(r.condition_unreachable);
  EXPECT_EQ(r.bound, 0);
}

// --- Reset semantics ---------------------------------------------------------

TEST(Reach, ResetRestartsClock) {
  Network net("reset");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1", LocKind::kNormal, {cc_le(x, 3)});
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks = {cc_ge(x, 10)};
  e.update.resets = {{x, 0}};
  a.add_edge(e);
  net.add_automaton(std::move(a));

  StateFormula g = at(net, "A", "L1");
  g.and_clock(cc_gt(x, 3));
  EXPECT_FALSE(reachable(net, g).reachable);
  MaxClockResult r = max_clock_value(net, at(net, "A", "L1"), x, 1000);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.bound, 3);
}

// --- Binary synchronization ---------------------------------------------------

Network rendezvous_net() {
  Network net("rendezvous");
  const ChanId go = net.add_channel("go", ChanKind::kBinary);
  const ClockId x = net.add_clock("x");

  Automaton s("S");
  const LocId s0 = s.add_location("S0");
  const LocId s1 = s.add_location("S1");
  Edge se;
  se.src = s0;
  se.dst = s1;
  se.guard.clocks = {cc_ge(x, 3)};
  se.sync = SyncLabel::send(go);
  s.add_edge(se);
  net.add_automaton(std::move(s));

  Automaton r("R");
  const LocId r0 = r.add_location("R0");
  const LocId r1 = r.add_location("R1");
  Edge re;
  re.src = r0;
  re.dst = r1;
  re.sync = SyncLabel::receive(go);
  r.add_edge(re);
  net.add_automaton(std::move(r));
  return net;
}

TEST(Reach, BinarySyncMovesBothSides) {
  Network net = rendezvous_net();
  EXPECT_TRUE(reachable(net, at(net, "R", "R1")).reachable);
  // R cannot advance without the sender.
  StateFormula half = at(net, "R", "R1");
  half.and_loc(*net.automaton_by_name("S"), net.automaton(0).loc_by_name("S0"));
  EXPECT_FALSE(reachable(net, half).reachable);
}

TEST(Reach, BinarySyncRespectsSenderGuard) {
  Network net = rendezvous_net();
  StateFormula g = at(net, "R", "R1");
  g.and_clock(cc_lt(0, 3));
  EXPECT_FALSE(reachable(net, g).reachable) << "sync cannot fire before x>=3";
}

TEST(Reach, TraceShowsSyncPair) {
  Network net = rendezvous_net();
  ReachResult r = reachable(net, at(net, "R", "R1"));
  ASSERT_TRUE(r.reachable);
  const std::string t = r.trace.to_string();
  EXPECT_NE(t.find("go!"), std::string::npos);
  EXPECT_NE(t.find("go?"), std::string::npos);
}

// --- Broadcast synchronization -----------------------------------------------

// One sender, two listeners; listener B is gated by a variable.
Network broadcast_net(bool enable_b) {
  Network net("broadcast");
  const ChanId sig = net.add_channel("sig", ChanKind::kBroadcast);
  const VarId gate = net.add_var("gate", enable_b ? 1 : 0, 0, 1);

  Automaton s("S");
  const LocId s0 = s.add_location("S0");
  const LocId s1 = s.add_location("S1");
  Edge se;
  se.src = s0;
  se.dst = s1;
  se.sync = SyncLabel::send(sig);
  s.add_edge(se);
  net.add_automaton(std::move(s));

  Automaton a("A");
  const LocId a0 = a.add_location("A0");
  const LocId a1 = a.add_location("A1");
  Edge ae;
  ae.src = a0;
  ae.dst = a1;
  ae.sync = SyncLabel::receive(sig);
  a.add_edge(ae);
  net.add_automaton(std::move(a));

  Automaton b("B");
  const LocId b0 = b.add_location("B0");
  const LocId b1 = b.add_location("B1");
  Edge be;
  be.src = b0;
  be.dst = b1;
  be.sync = SyncLabel::receive(sig);
  be.guard.data = var_eq(gate, 1);
  b.add_edge(be);
  net.add_automaton(std::move(b));
  return net;
}

TEST(Reach, BroadcastAllEnabledReceiversMove) {
  Network net = broadcast_net(true);
  StateFormula both = at(net, "A", "A1");
  both.and_loc(*net.automaton_by_name("B"), net.automaton(*net.automaton_by_name("B")).loc_by_name("B1"));
  EXPECT_TRUE(reachable(net, both).reachable);
  // A cannot move without B when both are enabled (maximal participation).
  StateFormula only_a = at(net, "A", "A1");
  only_a.and_loc(*net.automaton_by_name("B"),
                 net.automaton(*net.automaton_by_name("B")).loc_by_name("B0"));
  EXPECT_FALSE(reachable(net, only_a).reachable);
}

TEST(Reach, BroadcastSkipsDisabledReceivers) {
  Network net = broadcast_net(false);
  StateFormula a_moved_b_stayed = at(net, "A", "A1");
  a_moved_b_stayed.and_loc(*net.automaton_by_name("B"),
                           net.automaton(*net.automaton_by_name("B")).loc_by_name("B0"));
  EXPECT_TRUE(reachable(net, a_moved_b_stayed).reachable)
      << "disabled receiver must not block the broadcast";
}

TEST(Reach, BroadcastSenderFiresWithNoReceivers) {
  Network net("lonely");
  const ChanId sig = net.add_channel("sig", ChanKind::kBroadcast);
  Automaton s("S");
  const LocId s0 = s.add_location("S0");
  const LocId s1 = s.add_location("S1");
  Edge se;
  se.src = s0;
  se.dst = s1;
  se.sync = SyncLabel::send(sig);
  s.add_edge(se);
  net.add_automaton(std::move(s));
  EXPECT_TRUE(reachable(net, at(net, "S", "S1")).reachable);
}

TEST(Reach, BroadcastBranchesOverReceiverChoices) {
  // One receiver automaton with TWO enabled receive edges: the checker
  // must branch over both choices.
  Network net("branchy");
  const ChanId sig = net.add_channel("sig", ChanKind::kBroadcast);
  Automaton s("S");
  const LocId s0 = s.add_location("S0");
  Edge se;
  se.src = s0;
  se.dst = s0;
  se.sync = SyncLabel::send(sig);
  s.add_edge(se);
  net.add_automaton(std::move(s));

  Automaton r("R");
  const LocId r0 = r.add_location("R0");
  const LocId left = r.add_location("Left");
  const LocId right = r.add_location("Right");
  Edge go_left;
  go_left.src = r0;
  go_left.dst = left;
  go_left.sync = SyncLabel::receive(sig);
  r.add_edge(go_left);
  Edge go_right;
  go_right.src = r0;
  go_right.dst = right;
  go_right.sync = SyncLabel::receive(sig);
  r.add_edge(go_right);
  net.add_automaton(std::move(r));

  EXPECT_TRUE(reachable(net, at(net, "R", "Left")).reachable);
  EXPECT_TRUE(reachable(net, at(net, "R", "Right")).reachable);
}

TEST(Reach, EqualityGuardPinsInstant) {
  // x == 5 fires at exactly 5; the target can then be observed only with
  // x >= 5 (no reset), never with x < 5.
  Network net("eq");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1");
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks = {cc_eq(x, 5)};
  a.add_edge(e);
  net.add_automaton(std::move(a));
  StateFormula before = at(net, "A", "L1");
  before.and_clock(cc_lt(0, 5));
  EXPECT_FALSE(reachable(net, before).reachable);
  StateFormula exactly = at(net, "A", "L1");
  exactly.and_clock(cc_eq(0, 5));
  EXPECT_TRUE(reachable(net, exactly).reachable);
}

TEST(MaxClock, HintDoesNotChangeTheAnswer) {
  Network net = window_net(true);
  for (std::int64_t hint : {1, 7, 100, 50000}) {
    MaxClockResult r = max_clock_value(net, at(net, "A", "L1"), 0, 50000, {}, hint);
    ASSERT_TRUE(r.bounded) << "hint " << hint;
    EXPECT_EQ(r.bound, 7) << "hint " << hint;
  }
}

// --- Urgent and committed locations -------------------------------------------

TEST(Reach, UrgentLocationBlocksDelay) {
  Network net("urgent");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0", LocKind::kUrgent);
  const LocId l1 = a.add_location("L1");
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks = {cc_ge(x, 1)};
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(reachable(net, at(net, "A", "L1")).reachable)
      << "time cannot pass in an urgent location, so x>=1 never holds";
}

TEST(Reach, CommittedLocationHasPriority) {
  // Two independent automata; A passes through a committed location. While
  // A sits in Committed, B must not take its independent step.
  Network net("committed");
  const VarId b_moved_early = net.add_var("early", 0, 0, 1);
  const VarId a_in_commit = net.add_var("in_commit", 0, 0, 1);

  Automaton a("A");
  const LocId a0 = a.add_location("A0");
  const LocId ac = a.add_location("AC", LocKind::kCommitted);
  const LocId a1 = a.add_location("A1");
  Edge e1;
  e1.src = a0;
  e1.dst = ac;
  e1.update.assignments.push_back({a_in_commit, IntExpr::constant(1)});
  a.add_edge(e1);
  Edge e2;
  e2.src = ac;
  e2.dst = a1;
  e2.update.assignments.push_back({a_in_commit, IntExpr::constant(0)});
  a.add_edge(e2);
  net.add_automaton(std::move(a));

  Automaton b("B");
  const LocId b0 = b.add_location("B0");
  const LocId b1 = b.add_location("B1");
  Edge e3;
  e3.src = b0;
  e3.dst = b1;
  // Record whether B moved while A was committed.
  e3.update.assignments.push_back({b_moved_early, IntExpr::var(a_in_commit)});
  b.add_edge(e3);
  net.add_automaton(std::move(b));

  // B can never fire while A is committed.
  EXPECT_FALSE(reachable(net, when(var_eq(b_moved_early, 1))).reachable);
  // But B can still reach B1 (before or after the committed section).
  EXPECT_TRUE(reachable(net, at(net, "B", "B1")).reachable);
}

// --- Variables ---------------------------------------------------------------

TEST(Reach, CounterSaturatesAtGuard) {
  Network net("counter");
  const VarId n = net.add_var("n", 0, 0, 3);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.guard.data = var_lt(n, 3);
  e.update.assignments.push_back({n, IntExpr::var(n) + IntExpr::constant(1)});
  a.add_edge(e);
  net.add_automaton(std::move(a));

  EXPECT_TRUE(reachable(net, when(var_eq(n, 3))).reachable);
  EXPECT_FALSE(reachable(net, when(var_eq(n, 4))).reachable);
}

TEST(Reach, OutOfRangeAssignmentThrows) {
  Network net("overflow");
  const VarId n = net.add_var("n", 0, 0, 2);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.assignments.push_back({n, IntExpr::var(n) + IntExpr::constant(1)});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_THROW(reachable(net, when(var_eq(n, 100))), Error);
}

// --- Bounded response (request/response known answer) -------------------------

// ENV: Idle --req! t:=0--> Await --resp?--> Idle
// M:   Idle --req? x:=0--> Work[x<=500] --(x>=400) resp!--> Idle
// The maximum of t at ENV.Await is exactly 500.
Network request_response_net() {
  Network net("reqresp");
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
  const LocId work = m.add_location("Work", LocKind::kNormal, {cc_le(x, 500)});
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req);
  take.update.resets = {{x, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x, 400)};
  give.sync = SyncLabel::send(resp);
  m.add_edge(give);
  net.add_automaton(std::move(m));
  return net;
}

TEST(MaxClock, RequestResponseBoundIs500) {
  Network net = request_response_net();
  // Sweep engine (default): one full-space exploration answers the query.
  MaxClockResult sweep = max_clock_value(net, at(net, "ENV", "Await"), 0, 100000);
  ASSERT_TRUE(sweep.bounded);
  EXPECT_EQ(sweep.bound, 500);
  EXPECT_LE(sweep.probes, 2) << "hint 1024 covers the bound: no refinement needed";
  // Reference oracle (gallop + binary search): identical bound.
  MaxClockResult probe =
      psv::testing::probe_max_clock_value(net, at(net, "ENV", "Await"), 0, 100000, {}, 1024);
  ASSERT_TRUE(probe.bounded);
  EXPECT_EQ(probe.bound, 500);
  EXPECT_GT(probe.probes, 2);
}

TEST(BoundedResponse, HoldsAtExactBound) {
  Network net = request_response_net();
  EXPECT_TRUE(check_bounded_response(net, at(net, "ENV", "Await"), 0, 500).holds);
  EXPECT_TRUE(check_bounded_response(net, at(net, "ENV", "Await"), 0, 501).holds);
  BoundedResponseResult tight = check_bounded_response(net, at(net, "ENV", "Await"), 0, 499);
  EXPECT_FALSE(tight.holds);
  EXPECT_FALSE(tight.violation.steps.empty());
}

// --- Deadlock detection --------------------------------------------------------

TEST(Deadlock, QuiescentStateDetected) {
  Network net("dead");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1");
  Edge e;
  e.src = l0;
  e.dst = l1;
  a.add_edge(e);
  net.add_automaton(std::move(a));
  Reachability engine(net, StateFormula{});
  DeadlockResult r = engine.find_deadlock();
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.timelock) << "no invariant: time diverges, plain quiescence";
}

TEST(Deadlock, TimelockDetected) {
  Network net("timelock");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  a.add_location("L0", LocKind::kNormal, {cc_le(x, 5)});
  net.add_automaton(std::move(a));
  Reachability engine(net, StateFormula{});
  DeadlockResult r = engine.find_deadlock();
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.timelock) << "x<=5 with no escape is a timelock";
}

TEST(Deadlock, LiveSystemHasNone) {
  Network net("live");
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  a.add_edge(e);
  net.add_automaton(std::move(a));
  Reachability engine(net, StateFormula{});
  DeadlockResult r = engine.find_deadlock();
  EXPECT_FALSE(r.found);
}

// --- Engine behavior ------------------------------------------------------------

TEST(Engine, SubsumptionPrunesStates) {
  // Self-loop resetting a clock generates zones that subsume each other.
  Network net("subsume");
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.resets = {{x, 0}};
  a.add_edge(e);
  net.add_automaton(std::move(a));
  Reachability engine(net, StateFormula{});
  ExploreStats stats = engine.explore_all(nullptr);
  EXPECT_LE(stats.states_stored, 3u) << "zone inclusion must collapse the loop";
}

TEST(Engine, StateLimitEnforced) {
  // Unbounded counter chain exceeds a tiny limit.
  Network net("big");
  const VarId n = net.add_var("n", 0, 0, 1000000);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.assignments.push_back({n, IntExpr::var(n) + IntExpr::constant(1)});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  ExploreOptions opts;
  opts.max_states = 100;
  EXPECT_THROW(reachable(net, when(var_eq(n, -1)), opts), Error);
}

TEST(Engine, SafetyWrapper) {
  Network net = request_response_net();
  StateFormula bad = at(net, "ENV", "Await");
  bad.and_clock(cc_gt(0, 600));
  // A[] !bad holds iff bad is unreachable.
  EXPECT_FALSE(reachable(net, bad).reachable);
}

}  // namespace
}  // namespace psv::mc
