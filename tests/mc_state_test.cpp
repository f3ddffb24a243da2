// Tests for symbolic states, state formulas and trace machinery.
#include <gtest/gtest.h>

#include "mc/reach.h"
#include "mc/state.h"
#include "ta/model.h"
#include "util/error.h"

namespace psv::mc {
namespace {

using namespace psv::ta;
using psv::Error;

Network two_automata_net() {
  Network net("pair");
  net.add_clock("x");
  net.add_var("v", 0, 0, 5);
  Automaton a("A");
  a.add_location("A0");
  a.add_location("A1");
  net.add_automaton(std::move(a));
  Automaton b("B");
  b.add_location("B0");
  b.add_location("B1");
  net.add_automaton(std::move(b));
  return net;
}

SymState make_state(const Network& net, std::vector<LocId> locs, std::vector<std::int64_t> vars) {
  SymState s;
  s.locs = std::move(locs);
  s.vars = std::move(vars);
  s.zone = dbm::Dbm::zero(net.num_clocks());
  s.zone.up();
  return s;
}

TEST(StateFormula, LocationRequirement) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 1}, {0});
  EXPECT_TRUE(satisfies(net, s, at(net, "A", "A0")));
  EXPECT_FALSE(satisfies(net, s, at(net, "A", "A1")));
  EXPECT_TRUE(satisfies(net, s, at(net, "B", "B1")));
}

TEST(StateFormula, NegatedLocation) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 1}, {0});
  EXPECT_TRUE(satisfies(net, s, not_at(net, "A", "A1")));
  EXPECT_FALSE(satisfies(net, s, not_at(net, "A", "A0")));
}

TEST(StateFormula, ConjunctionAcrossAutomata) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 1}, {0});
  StateFormula f = at(net, "A", "A0");
  f.and_loc(*net.automaton_by_name("B"), net.automaton(1).loc_by_name("B1"));
  EXPECT_TRUE(satisfies(net, s, f));
  StateFormula g = at(net, "A", "A0");
  g.and_loc(*net.automaton_by_name("B"), net.automaton(1).loc_by_name("B0"));
  EXPECT_FALSE(satisfies(net, s, g));
}

TEST(StateFormula, DataPredicate) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 0}, {3});
  EXPECT_TRUE(satisfies(net, s, when(var_eq(0, 3))));
  EXPECT_FALSE(satisfies(net, s, when(var_eq(0, 4))));
  EXPECT_TRUE(satisfies(net, s, when(var_ge(0, 2) && var_lt(0, 5))));
}

TEST(StateFormula, ClockConstraintsAreExistential) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 0}, {0});
  // Zone is x >= 0 (delay-closed from zero): any upper window intersects.
  StateFormula f;
  f.and_clock(cc_ge(0, 100));
  EXPECT_TRUE(satisfies(net, s, f));
  // Bounded zone: x == 0 only.
  SymState pinned = s;
  pinned.zone = dbm::Dbm::zero(net.num_clocks());
  StateFormula g;
  g.and_clock(cc_gt(0, 0));
  EXPECT_FALSE(satisfies(net, pinned, g));
  StateFormula h;
  h.and_clock(cc_le(0, 0));
  EXPECT_TRUE(satisfies(net, pinned, h));
}

TEST(StateFormula, EqualityConstraint) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 0}, {0});
  StateFormula f;
  f.and_clock(cc_eq(0, 42));
  EXPECT_TRUE(satisfies(net, s, f));
}

TEST(StateFormula, UnknownNamesThrow) {
  Network net = two_automata_net();
  EXPECT_THROW(at(net, "Nope", "A0"), Error);
  EXPECT_THROW(at(net, "A", "Nope"), Error);
}

TEST(StateFormula, ToStringMentionsParts) {
  Network net = two_automata_net();
  StateFormula f = at(net, "A", "A1");
  f.and_data(var_eq(0, 2));
  f.and_clock(cc_gt(0, 7));
  const std::string s = f.to_string(net);
  EXPECT_NE(s.find("A.A1"), std::string::npos);
  EXPECT_NE(s.find("v == 2"), std::string::npos);
  EXPECT_NE(s.find("x>7"), std::string::npos);
  EXPECT_EQ(StateFormula{}.to_string(net), "true");
}

TEST(StateFormula, FormulaClockConstants) {
  Network net = two_automata_net();
  StateFormula f;
  f.and_clock(cc_gt(0, 750));
  const auto consts = formula_clock_constants(net, f);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(consts[0], 750);
  const auto none = formula_clock_constants(net, StateFormula{});
  EXPECT_EQ(none[0], -1);
}

// One automaton whose clocks are compared from one side only, from both,
// or never: L0 --[x >= 250 && y < 30, y := 7]--> L1, invariant x <= 100 on
// L0.
Network one_sided_net() {
  Network net("sides");
  const ClockId x = net.add_clock("x");
  const ClockId y = net.add_clock("y");
  net.add_clock("z");
  Automaton a("A");
  const LocId l0 = a.add_location("L0", LocKind::kNormal, {cc_le(x, 100)});
  const LocId l1 = a.add_location("L1");
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks.push_back(cc_ge(x, 250));
  e.guard.clocks.push_back(cc_lt(y, 30));
  e.update.resets.push_back({y, 7});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  return net;
}

TEST(SuccGen, LuConstantsSplitComparisonsBySide) {
  const Network net = one_sided_net();
  const SuccGen gen(net, {});
  // Index 0 is the reference clock; then x, y, z.
  EXPECT_EQ(gen.lower_consts(), (std::vector<std::int32_t>{0, 250, 7, -1}));
  EXPECT_EQ(gen.upper_consts(), (std::vector<std::int32_t>{0, 100, 30, -1}));
  // Query constants go into both vectors and never lower an entry.
  const SuccGen with_query(net, {500, 3, 40});
  EXPECT_EQ(with_query.lower_consts(), (std::vector<std::int32_t>{0, 500, 7, 40}));
  EXPECT_EQ(with_query.upper_consts(), (std::vector<std::int32_t>{0, 500, 30, 40}));
}

TEST(SuccGen, TimeBoundedReadsInvariantsNotZones) {
  const Network net = one_sided_net();
  const SuccGen gen(net, {});
  EXPECT_TRUE(gen.time_bounded({0}));   // x <= 100
  EXPECT_FALSE(gen.time_bounded({1}));  // no invariant, not urgent

  // Invariant x <= 5 and no lower-bound comparison of x (L_x < U_x):
  // Extra_LU⁺ drops the invariant's bound from the stored zone, and time is
  // still bounded.
  Network inv_only("inv_only");
  const ClockId x = inv_only.add_clock("x");
  Automaton a("A");
  a.add_location("Wait", LocKind::kNormal, {cc_le(x, 5)});
  inv_only.add_automaton(std::move(a));
  const SuccGen lu(inv_only, {});
  EXPECT_TRUE(dbm::is_inf(lu.initial().zone.upper(1)));
  EXPECT_TRUE(lu.time_bounded({0}));
}

TEST(SymState, DiscreteHashCoversLocationsAndVariablesOnly) {
  Network net = two_automata_net();
  SymState a = make_state(net, {0, 1}, {2});
  SymState b = make_state(net, {0, 1}, {2});
  b.zone = dbm::Dbm::zero(net.num_clocks());
  SymState c = make_state(net, {1, 1}, {2});
  SymState d = make_state(net, {0, 1}, {3});
  EXPECT_EQ(a.discrete_hash(), b.discrete_hash()) << "the zone must not enter the hash";
  EXPECT_NE(a.discrete_hash(), c.discrete_hash());
  EXPECT_NE(a.discrete_hash(), d.discrete_hash());
}

TEST(SymState, ToStringRendersEverything) {
  Network net = two_automata_net();
  SymState s = make_state(net, {0, 1}, {4});
  const std::string text = s.to_string(net);
  EXPECT_NE(text.find("A.A0"), std::string::npos);
  EXPECT_NE(text.find("B.B1"), std::string::npos);
  EXPECT_NE(text.find("v=4"), std::string::npos);
}

TEST(Trace, RendersLabelsAndStates) {
  // A two-step chain gives a two-edge trace.
  Network net("chain");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1");
  const LocId l2 = a.add_location("L2");
  Edge e1;
  e1.src = l0;
  e1.dst = l1;
  a.add_edge(e1);
  Edge e2;
  e2.src = l1;
  e2.dst = l2;
  a.add_edge(e2);
  net.add_automaton(std::move(a));
  ReachResult r = reachable(net, at(net, "A", "L2"));
  ASSERT_TRUE(r.reachable);
  ASSERT_EQ(r.trace.steps.size(), 3u);  // initial + 2 steps
  const std::string text = r.trace.to_string();
  EXPECT_NE(text.find("A.L0->L1"), std::string::npos);
  EXPECT_NE(text.find("A.L1->L2"), std::string::npos);
}

}  // namespace
}  // namespace psv::mc
