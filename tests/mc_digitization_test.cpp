// Cross-validation of the zone-based model checker against an independent
// discrete-time explicit-state checker.
//
// For closed timed automata (only non-strict clock constraints), integer
// digitization preserves location reachability [Henzinger/Manna/Pnueli],
// and with it the supremum of a clock over the states of a location (the
// supremum of a closed zone with integer bounds is attained at an integer
// point). So a brute-force BFS over integer clock valuations (clocks capped
// one past the largest constant they are compared against) must agree with
// the DBM engine, whose zones are Extra_LU⁺-abstracted, on every
// reachability question and on every probe-clock maximum. Random networks
// are generated per seed; every (automaton, location) pair is compared.
//
// The generator includes a clock bounded only by invariants (no lower-bound
// guard, so L < U and Extra_LU⁺ drops its invariant bound from stored
// zones) and a probe clock that is only reset and read, as the delay probes
// of the pipeline are.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <set>

#include "mc/query.h"
#include "mc/reach.h"
#include "ta/model.h"

namespace psv::mc {
namespace {

using namespace psv::ta;

constexpr std::int32_t kMaxConst = 5;
/// Search limit of the probe-clock queries: maxima above it are unbounded.
constexpr std::int32_t kProbeLimit = 24;

// --- independent discrete-time checker -------------------------------------

struct DiscreteState {
  std::vector<LocId> locs;
  std::vector<std::int32_t> clocks;  // capped one past each clock's limit

  bool operator<(const DiscreteState& o) const {
    if (locs != o.locs) return locs < o.locs;
    return clocks < o.clocks;
  }
};

bool clock_cc_holds(const ClockConstraint& cc, std::int32_t value) {
  switch (cc.op) {
    case CmpOp::kLt: return value < cc.bound;
    case CmpOp::kLe: return value <= cc.bound;
    case CmpOp::kEq: return value == cc.bound;
    case CmpOp::kGe: return value >= cc.bound;
    case CmpOp::kGt: return value > cc.bound;
    case CmpOp::kNe: return value != cc.bound;
  }
  return false;
}

class DiscreteChecker {
 public:
  /// `probe` (or -1) is compared against nothing, so its values are kept up
  /// to kProbeLimit + 1 instead of kMaxConst + 1.
  DiscreteChecker(const Network& net, ClockId probe) : net_(net) {
    caps_.assign(static_cast<std::size_t>(net.num_clocks()), kMaxConst + 1);
    if (probe >= 0) caps_[static_cast<std::size_t>(probe)] = kProbeLimit + 1;
    explore();
  }

  bool loc_reachable(AutomatonId a, LocId l) const {
    for (const DiscreteState& s : visited_)
      if (s.locs[static_cast<std::size_t>(a)] == l) return true;
    return false;
  }

  /// Largest value of `clock` over the states at A.l (capped at
  /// kProbeLimit + 1 for the probe); nullopt when A.l is unreachable.
  std::optional<std::int32_t> max_at(AutomatonId a, LocId l, ClockId clock) const {
    std::optional<std::int32_t> best;
    for (const DiscreteState& s : visited_)
      if (s.locs[static_cast<std::size_t>(a)] == l)
        best = std::max(best.value_or(0), s.clocks[static_cast<std::size_t>(clock)]);
    return best;
  }

 private:
  bool guard_holds(const Guard& g, const std::vector<std::int32_t>& clocks) const {
    for (const ClockConstraint& cc : g.clocks)
      if (!clock_cc_holds(cc, clocks[static_cast<std::size_t>(cc.clock)])) return false;
    return g.data.is_trivially_true();  // generator emits no data guards
  }

  bool invariants_hold(const std::vector<LocId>& locs,
                       const std::vector<std::int32_t>& clocks) const {
    for (AutomatonId a = 0; a < net_.num_automata(); ++a)
      for (const ClockConstraint& cc :
           net_.automaton(a).location(locs[static_cast<std::size_t>(a)]).invariant)
        if (!clock_cc_holds(cc, clocks[static_cast<std::size_t>(cc.clock)])) return false;
    return true;
  }

  void apply_resets(const Update& u, std::vector<std::int32_t>& clocks) const {
    for (const ClockReset& r : u.resets) clocks[static_cast<std::size_t>(r.clock)] = r.value;
  }

  void push(DiscreteState s) {
    if (visited_.insert(s).second) frontier_.push_back(std::move(s));
  }

  void explore() {
    DiscreteState init;
    for (AutomatonId a = 0; a < net_.num_automata(); ++a)
      init.locs.push_back(net_.automaton(a).initial());
    init.clocks.assign(static_cast<std::size_t>(net_.num_clocks()), 0);
    if (!invariants_hold(init.locs, init.clocks)) return;
    push(init);
    while (!frontier_.empty()) {
      const DiscreteState s = frontier_.front();
      frontier_.pop_front();
      // Delay by one unit (cap past the max constant: larger values are
      // indistinguishable for closed constraints <= kMaxConst).
      DiscreteState delayed = s;
      for (std::size_t c = 0; c < delayed.clocks.size(); ++c)
        delayed.clocks[c] = std::min(delayed.clocks[c] + 1, caps_[c]);
      if (invariants_hold(delayed.locs, delayed.clocks)) push(std::move(delayed));
      // Internal edges.
      for (AutomatonId a = 0; a < net_.num_automata(); ++a) {
        const Automaton& aut = net_.automaton(a);
        for (int ei : aut.edges_from(s.locs[static_cast<std::size_t>(a)])) {
          const Edge& e = aut.edges()[static_cast<std::size_t>(ei)];
          if (e.sync.dir != SyncDir::kNone) continue;
          if (!guard_holds(e.guard, s.clocks)) continue;
          DiscreteState next = s;
          next.locs[static_cast<std::size_t>(a)] = e.dst;
          apply_resets(e.update, next.clocks);
          if (invariants_hold(next.locs, next.clocks)) push(std::move(next));
        }
      }
      // Binary synchronizations.
      for (AutomatonId sa = 0; sa < net_.num_automata(); ++sa) {
        const Automaton& sender = net_.automaton(sa);
        for (int si : sender.edges_from(s.locs[static_cast<std::size_t>(sa)])) {
          const Edge& se = sender.edges()[static_cast<std::size_t>(si)];
          if (se.sync.dir != SyncDir::kSend) continue;
          if (!guard_holds(se.guard, s.clocks)) continue;
          for (AutomatonId ra = 0; ra < net_.num_automata(); ++ra) {
            if (ra == sa) continue;
            const Automaton& receiver = net_.automaton(ra);
            for (int ri : receiver.edges_from(s.locs[static_cast<std::size_t>(ra)])) {
              const Edge& re = receiver.edges()[static_cast<std::size_t>(ri)];
              if (re.sync.dir != SyncDir::kReceive || re.sync.chan != se.sync.chan) continue;
              if (!guard_holds(re.guard, s.clocks)) continue;
              DiscreteState next = s;
              next.locs[static_cast<std::size_t>(sa)] = se.dst;
              next.locs[static_cast<std::size_t>(ra)] = re.dst;
              apply_resets(se.update, next.clocks);
              apply_resets(re.update, next.clocks);
              if (invariants_hold(next.locs, next.clocks)) push(std::move(next));
            }
          }
        }
      }
    }
  }

  const Network& net_;
  std::vector<std::int32_t> caps_;
  std::set<DiscreteState> visited_;
  std::deque<DiscreteState> frontier_;
};

// --- random closed-TA generator ---------------------------------------------

/// A generated network: `inv_clock` appears only in invariants and resets
/// (no lower-bound guard: L < U), `probe` only in resets.
struct RandomNet {
  Network net{"random"};
  ClockId inv_clock = -1;
  ClockId probe = -1;
};

RandomNet random_network(std::mt19937& gen) {
  RandomNet out;
  Network& net = out.net;
  std::uniform_int_distribution<int> clock_count(1, 2);
  std::uniform_int_distribution<int> loc_count(2, 3);
  std::uniform_int_distribution<int> edge_count(2, 4);
  std::uniform_int_distribution<std::int32_t> constant(0, kMaxConst);
  std::uniform_int_distribution<std::int32_t> positive(1, kMaxConst);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> die(0, 5);

  const int n_clocks = clock_count(gen);
  for (int c = 0; c < n_clocks; ++c) net.add_clock("c" + std::to_string(c));
  out.inv_clock = net.add_clock("w");
  out.probe = net.add_clock("p");
  const ChanId chan = net.add_channel("sync", ChanKind::kBinary);

  std::uniform_int_distribution<int> clock_pick(0, n_clocks - 1);
  for (int a = 0; a < 2; ++a) {
    Automaton aut("A" + std::to_string(a));
    const int n_locs = loc_count(gen);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ClockConstraint> inv;
      // Invariants sparingly, always satisfiable at zero (bound >= 0).
      if (die(gen) == 0) inv.push_back(cc_le(clock_pick(gen), constant(gen)));
      if (coin(gen) == 1) inv.push_back(cc_le(out.inv_clock, positive(gen)));
      aut.add_location("L" + std::to_string(l), LocKind::kNormal, std::move(inv));
    }
    std::uniform_int_distribution<int> loc_pick(0, n_locs - 1);
    const int n_edges = edge_count(gen);
    for (int e = 0; e < n_edges; ++e) {
      Edge edge;
      edge.src = loc_pick(gen);
      edge.dst = loc_pick(gen);
      // Closed guards only (<= / >=) so digitization is exact.
      if (coin(gen) == 1)
        edge.guard.clocks.push_back(coin(gen) == 1 ? cc_ge(clock_pick(gen), constant(gen))
                                                   : cc_le(clock_pick(gen), constant(gen)));
      const int role = die(gen);
      if (role == 0) {
        edge.sync = SyncLabel::send(chan);
      } else if (role == 1) {
        edge.sync = SyncLabel::receive(chan);
      }
      if (coin(gen) == 1) edge.update.resets.push_back({clock_pick(gen), 0});
      if (coin(gen) == 1) edge.update.resets.push_back({out.inv_clock, 0});
      if (coin(gen) == 1) edge.update.resets.push_back({out.probe, 0});
      aut.add_edge(std::move(edge));
    }
    net.add_automaton(std::move(aut));
  }
  return out;
}

std::string where(const Network& net, AutomatonId a, LocId l, int seed) {
  const Automaton& aut = net.automaton(a);
  return aut.name() + "." + aut.location(l).name + " (seed " + std::to_string(seed) + ")";
}

class DigitizationTest : public ::testing::TestWithParam<int> {};

TEST_P(DigitizationTest, ZoneEngineAgreesWithDiscreteChecker) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  const RandomNet rn = random_network(gen);
  const Network& net = rn.net;
  const DiscreteChecker discrete(net, rn.probe);

  for (AutomatonId a = 0; a < net.num_automata(); ++a) {
    const Automaton& aut = net.automaton(a);
    for (LocId l = 0; l < static_cast<LocId>(aut.locations().size()); ++l) {
      StateFormula goal;
      goal.and_loc(a, l);
      const bool zone_says = reachable(net, goal).reachable;
      const bool discrete_says = discrete.loc_reachable(a, l);
      EXPECT_EQ(zone_says, discrete_says) << "disagreement on " << where(net, a, l, GetParam());
    }
  }
}

// One batch of probe-clock maxima, one query per location, against the
// digitized maxima: unreachable, bounded with the same value, or above the
// search limit on both sides. The low hint makes the sweep widen.
TEST_P(DigitizationTest, ProbeMaximaAgreeWithDiscreteChecker) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  const RandomNet rn = random_network(gen);
  const Network& net = rn.net;
  const DiscreteChecker discrete(net, rn.probe);

  std::vector<BoundQuery> queries;
  std::vector<std::pair<AutomatonId, LocId>> targets;
  for (AutomatonId a = 0; a < net.num_automata(); ++a) {
    for (LocId l = 0; l < static_cast<LocId>(net.automaton(a).locations().size()); ++l) {
      BoundQuery q;
      q.pred.and_loc(a, l);
      q.clock = rn.probe;
      q.limit = kProbeLimit;
      q.hint = 2;
      queries.push_back(q);
      targets.emplace_back(a, l);
    }
  }
  const std::vector<MaxClockResult> results = max_clock_values(net, queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto [a, l] = targets[q];
    const std::optional<std::int32_t> expected = discrete.max_at(a, l, rn.probe);
    const MaxClockResult& r = results[q];
    const std::string at = where(net, a, l, GetParam());
    if (!expected) {
      EXPECT_TRUE(r.condition_unreachable) << at;
    } else if (*expected > kProbeLimit) {
      EXPECT_FALSE(r.bounded) << at << ": zone bound " << r.bound;
    } else {
      ASSERT_TRUE(r.bounded) << at << ": digitized maximum " << *expected;
      EXPECT_FALSE(r.condition_unreachable) << at;
      EXPECT_EQ(r.bound, *expected) << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigitizationTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace psv::mc
