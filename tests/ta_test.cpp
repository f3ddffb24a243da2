// Tests for the timed-automata model, validation and printing.
#include <gtest/gtest.h>

#include "ta/model.h"
#include "ta/print.h"
#include "ta/validate.h"
#include "util/error.h"

namespace psv::ta {
namespace {

using psv::Error;

// A tiny two-automaton network: a sender pings on channel `go`, a receiver
// accepts; one clock with an invariant, one variable.
Network make_ping_network() {
  Network net("ping");
  const ClockId x = net.add_clock("x");
  const VarId count = net.add_var("count", 0, 0, 10);
  const ChanId go = net.add_channel("go", ChanKind::kBinary);

  Automaton sender("Sender");
  const LocId s0 = sender.add_location("Idle");
  const LocId s1 = sender.add_location("Done", LocKind::kNormal, {cc_le(x, 5)});
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.guard.clocks.push_back(cc_ge(x, 1));
  e.sync = SyncLabel::send(go);
  e.update.assignments.push_back({count, IntExpr::var(count) + IntExpr::constant(1)});
  e.update.resets.push_back({x, 0});
  sender.add_edge(e);
  net.add_automaton(std::move(sender));

  Automaton receiver("Receiver");
  const LocId r0 = receiver.add_location("Wait");
  const LocId r1 = receiver.add_location("Got");
  Edge r;
  r.src = r0;
  r.dst = r1;
  r.sync = SyncLabel::receive(go);
  receiver.add_edge(r);
  net.add_automaton(std::move(receiver));
  return net;
}

TEST(Automaton, FirstLocationIsInitial) {
  Automaton a("A");
  const LocId l0 = a.add_location("first");
  a.add_location("second");
  EXPECT_EQ(a.initial(), l0);
}

TEST(Automaton, SetInitialOverrides) {
  Automaton a("A");
  a.add_location("first");
  const LocId l1 = a.add_location("second");
  a.set_initial(l1);
  EXPECT_EQ(a.initial(), l1);
}

TEST(Automaton, DuplicateLocationNameRejected) {
  Automaton a("A");
  a.add_location("L");
  EXPECT_THROW(a.add_location("L"), Error);
}

TEST(Automaton, EdgeEndpointsValidated) {
  Automaton a("A");
  a.add_location("L");
  Edge e;
  e.src = 0;
  e.dst = 5;
  EXPECT_THROW(a.add_edge(e), Error);
}

TEST(Automaton, LocByNameAndEdgesFrom) {
  Network net = make_ping_network();
  const Automaton& sender = net.automaton(0);
  EXPECT_EQ(sender.loc_by_name("Idle"), 0);
  EXPECT_EQ(sender.loc_by_name("Done"), 1);
  EXPECT_THROW(sender.loc_by_name("Nope"), Error);
  EXPECT_EQ(sender.edges_from(0).size(), 1u);
  EXPECT_TRUE(sender.edges_from(1).empty());
}

TEST(Network, DeclarationsAndLookups) {
  Network net = make_ping_network();
  EXPECT_EQ(net.num_clocks(), 1);
  EXPECT_EQ(net.num_vars(), 1);
  EXPECT_EQ(net.channels().size(), 1u);
  EXPECT_EQ(net.num_automata(), 2);
  EXPECT_EQ(net.clock_by_name("x"), std::optional<ClockId>(0));
  EXPECT_EQ(net.var_by_name("count"), std::optional<VarId>(0));
  EXPECT_EQ(net.channel_by_name("go"), std::optional<ChanId>(0));
  EXPECT_EQ(net.automaton_by_name("Receiver"), std::optional<AutomatonId>(1));
  EXPECT_FALSE(net.clock_by_name("nope").has_value());
}

TEST(Network, DuplicateNamesRejected) {
  Network net;
  net.add_clock("x");
  EXPECT_THROW(net.add_clock("x"), Error);
  net.add_var("v", 0, 0, 1);
  EXPECT_THROW(net.add_var("v", 0, 0, 1), Error);
  net.add_channel("c", ChanKind::kBinary);
  EXPECT_THROW(net.add_channel("c", ChanKind::kBroadcast), Error);
}

TEST(Network, VarRangeValidated) {
  Network net;
  EXPECT_THROW(net.add_var("v", 5, 0, 4), Error);
  EXPECT_THROW(net.add_var("w", 0, 3, 2), Error);
}

TEST(Network, InitialVars) {
  Network net;
  net.add_var("a", 3, 0, 5);
  net.add_var("b", -1, -2, 2);
  const auto init = net.initial_vars();
  ASSERT_EQ(init.size(), 2u);
  EXPECT_EQ(init[0], 3);
  EXPECT_EQ(init[1], -1);
}

TEST(Validate, WellFormedNetworkPasses) {
  const Network net = make_ping_network();
  const ValidationReport report = validate(net);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NO_THROW(validate_or_throw(net));
}

TEST(Validate, EmptyNetworkFails) {
  Network net("empty");
  EXPECT_FALSE(validate(net).ok());
  EXPECT_THROW(validate_or_throw(net), Error);
}

TEST(Validate, LowerBoundInvariantRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  a.add_location("L", LocKind::kNormal, {cc_ge(x, 3)});
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("upper bounds"), std::string::npos);
}

TEST(Validate, UndeclaredClockInGuardRejected) {
  Network net;
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.guard.clocks.push_back(cc_le(7, 1));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(Validate, UndeclaredVariableInAssignmentRejected) {
  Network net;
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.assignments.push_back({9, IntExpr::constant(0)});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(Validate, BroadcastReceiveWithClockGuardRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ChanId b = net.add_channel("sig", ChanKind::kBroadcast);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::receive(b);
  e.guard.clocks.push_back(cc_le(x, 2));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("broadcast"), std::string::npos);
}

TEST(Validate, BinaryReceiveWithClockGuardAllowed) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ChanId b = net.add_channel("sig", ChanKind::kBinary);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::receive(b);
  e.guard.clocks.push_back(cc_le(x, 2));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  Automaton s("S");
  const LocId sl = s.add_location("L");
  Edge se;
  se.src = sl;
  se.dst = sl;
  se.sync = SyncLabel::send(b);
  s.add_edge(se);
  net.add_automaton(std::move(s));
  EXPECT_TRUE(validate(net).ok());
}

TEST(Validate, HalfUsedBinaryChannelWarns) {
  Network net;
  const ChanId c = net.add_channel("only_send", ChanKind::kBinary);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::send(c);
  a.add_edge(e);
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.warnings.empty());
}

TEST(Validate, NegativeClockResetRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.resets.push_back({x, -1});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(Print, GuardAndUpdateStrings) {
  Network net = make_ping_network();
  const Edge& e = net.automaton(0).edges()[0];
  EXPECT_EQ(guard_str(net, e.guard), "x>=1");
  EXPECT_EQ(update_str(net, e.update), "count := (count + 1), x := 0");
  EXPECT_EQ(sync_str(net, e.sync), "go!");
}

TEST(Print, AutomatonText) {
  Network net = make_ping_network();
  const std::string text = automaton_text(net, 0);
  EXPECT_NE(text.find("automaton Sender"), std::string::npos);
  EXPECT_NE(text.find("Idle"), std::string::npos);
  EXPECT_NE(text.find("[initial]"), std::string::npos);
  EXPECT_NE(text.find("x<=5"), std::string::npos);
  EXPECT_NE(text.find("go!"), std::string::npos);
}

TEST(Print, NetworkText) {
  Network net = make_ping_network();
  const std::string text = network_text(net);
  EXPECT_NE(text.find("network ping"), std::string::npos);
  EXPECT_NE(text.find("clocks: x"), std::string::npos);
  EXPECT_NE(text.find("Receiver"), std::string::npos);
}

TEST(Print, Dot) {
  Network net = make_ping_network();
  const std::string dot = automaton_dot(net, 0);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("L0 -> L1"), std::string::npos);
  EXPECT_NE(dot.find("go!"), std::string::npos);
}

TEST(Print, UrgentAndCommittedTags) {
  Network net;
  Automaton a("A");
  a.add_location("N");
  a.add_location("U", LocKind::kUrgent);
  a.add_location("C", LocKind::kCommitted);
  net.add_automaton(std::move(a));
  const std::string text = automaton_text(net, 0);
  EXPECT_NE(text.find("[urgent]"), std::string::npos);
  EXPECT_NE(text.find("[committed]"), std::string::npos);
}

}  // namespace
}  // namespace psv::ta
