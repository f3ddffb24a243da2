#include "support/certificate.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "mc/reach.h"
#include "mc/succ.h"

namespace psv::testing {

namespace {

using Discrete = std::pair<std::vector<ta::LocId>, std::vector<std::int64_t>>;

/// Live zones by exact discrete state.
using LiveIndex = std::map<Discrete, std::vector<const dbm::Dbm*>>;

bool covered(const LiveIndex& index, const mc::SymState& state) {
  const auto it = index.find(Discrete{state.locs, state.vars});
  if (it == index.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const dbm::Dbm* zone) { return zone->includes(state.zone); });
}

bool constrain(dbm::Dbm& zone, const ta::ClockConstraint& cc) {
  const int i = cc.clock + 1;
  switch (cc.op) {
    case ta::CmpOp::kLt:
      return zone.constrain(i, 0, dbm::bound_lt(cc.bound));
    case ta::CmpOp::kLe:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound));
    case ta::CmpOp::kGe:
      return zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kGt:
      return zone.constrain(0, i, dbm::bound_lt(-cc.bound));
    case ta::CmpOp::kEq:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound)) &&
             zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kNe:
      break;
  }
  return false;
}

/// The constant set a reported bound was resolved under: its
/// witness_consts, or (no witness: the condition is unreachable) the
/// constants of its condition's clock constraints.
std::vector<std::int32_t> constants_of(const ta::Network& net, const mc::BoundQuery& query,
                                       const mc::MaxClockResult& result) {
  if (!result.witness_consts.empty()) return result.witness_consts;
  std::vector<std::int32_t> consts(static_cast<std::size_t>(net.num_clocks()), -1);
  for (const ta::ClockConstraint& cc : query.pred.clocks) {
    std::int32_t& cell = consts[static_cast<std::size_t>(cc.clock)];
    cell = std::max(cell, cc.bound);
  }
  return consts;
}

/// Probe-clock maximum over the live states satisfying a condition.
struct Maximum {
  bool reached = false;
  bool saw_inf = false;
  std::int64_t value = 0;
};

Maximum maximum_over(const ta::Network& net, const std::vector<const mc::SymState*>& live,
                     const mc::BoundQuery& query) {
  mc::StateFormula discrete = query.pred;
  discrete.clocks.clear();
  Maximum m;
  for (const mc::SymState* state : live) {
    if (!mc::satisfies(net, *state, discrete)) continue;
    dbm::Dbm zone = state->zone;
    bool nonempty = true;
    for (const ta::ClockConstraint& cc : query.pred.clocks)
      nonempty = nonempty && constrain(zone, cc);
    if (!nonempty) continue;
    const dbm::raw_t upper = zone.upper(query.clock + 1);
    if (dbm::is_inf(upper)) {
      m.saw_inf = true;
    } else {
      m.value = m.reached ? std::max<std::int64_t>(m.value, dbm::bound_value(upper))
                          : dbm::bound_value(upper);
    }
    m.reached = true;
  }
  return m;
}

}  // namespace

std::string CertificateResult::to_string() const {
  std::ostringstream os;
  os << passed_lists << " live list(s), " << live_states << " live states, "
     << successors_checked << " successors checked";
  for (const std::string& f : failures) os << "\n  FAIL " << f;
  return os.str();
}

CertificateResult certify(const ta::Network& net, const ReportedVerdicts& reported,
                          mc::ExploreOptions opts) {
  CertificateResult result;
  auto fail = [&result](const std::string& what) { result.failures.push_back(what); };
  if (reported.bounds.size() != reported.queries.size() ||
      reported.flag_reachable.size() != reported.flags.size()) {
    fail("reported verdicts are not index-aligned");
    return result;
  }

  // One live list per distinct constant set; the flags and the timelock
  // verdict are checked on every list (they do not depend on the constants).
  std::map<std::vector<std::int32_t>, std::vector<std::size_t>> groups;
  for (std::size_t q = 0; q < reported.queries.size(); ++q)
    groups[constants_of(net, reported.queries[q], reported.bounds[q])].push_back(q);
  if (groups.empty())
    groups.emplace(std::vector<std::int32_t>(static_cast<std::size_t>(net.num_clocks()), -1),
                   std::vector<std::size_t>{});

  for (const auto& [consts, members] : groups) {
    std::ostringstream tag;
    tag << "[consts";
    for (const std::int32_t c : consts) tag << ' ' << c;
    tag << "] ";

    mc::Reachability engine(net, mc::StateFormula{}, opts, consts);
    engine.explore_all(nullptr);
    const std::vector<const mc::SymState*> live = engine.live_states();
    ++result.passed_lists;
    result.live_states += live.size();

    LiveIndex index;
    for (const mc::SymState* state : live)
      index[Discrete{state->locs, state->vars}].push_back(&state->zone);

    const mc::SuccGen gen(net, consts);
    if (!covered(index, gen.initial())) fail(tag.str() + "initial state not covered");

    bool timelock = false;
    bool quiescent = false;
    std::vector<bool> seen_one(static_cast<std::size_t>(net.num_vars()), false);
    for (const mc::SymState* state : live) {
      for (std::size_t v = 0; v < state->vars.size(); ++v)
        if (state->vars[v] == 1) seen_one[v] = true;
      const std::vector<mc::SymSuccessor> succs = gen.successors(*state);
      result.successors_checked += succs.size();
      for (const mc::SymSuccessor& succ : succs) {
        if (!covered(index, succ.state))
          fail(tag.str() + "successor " + gen.label(succ.edges) + " of " +
               state->to_string(net) + " not covered");
      }
      if (succs.empty()) (gen.time_bounded(state->locs) ? timelock : quiescent) = true;
    }

    for (std::size_t f = 0; f < reported.flags.size(); ++f) {
      const bool scanned = seen_one[static_cast<std::size_t>(reported.flags[f])];
      if (scanned != reported.flag_reachable[f])
        fail(tag.str() + "flag " + net.vars()[static_cast<std::size_t>(reported.flags[f])].name +
             (scanned ? " reaches 1 in a live state but was reported unreachable"
                      : " never reaches 1 in a live state but was reported reachable"));
    }
    if (const auto& dl = reported.deadlock;
        dl && (dl->found != (timelock || quiescent) || (dl->found && dl->timelock != timelock)))
      fail(tag.str() + "deadlock verdict (found " + std::to_string(dl->found) + ", timelock " +
           std::to_string(dl->timelock) + ") disagrees with the live scan (timelock " +
           std::to_string(timelock) + ", quiescent " + std::to_string(quiescent) + ")");

    for (const std::size_t q : members) {
      const mc::MaxClockResult& r = reported.bounds[q];
      const Maximum m = maximum_over(net, live, reported.queries[q]);
      const std::string where = tag.str() + "query " + std::to_string(q) + ": ";
      if (r.condition_unreachable) {
        if (m.reached) fail(where + "reported unreachable, but a live state satisfies it");
      } else if (r.bounded) {
        if (!m.reached || m.saw_inf || m.value != r.bound)
          fail(where + "reported bound " + std::to_string(r.bound) + ", live maximum " +
               (m.saw_inf ? "unbounded" : m.reached ? std::to_string(m.value) : "unreached"));
      } else if (!m.saw_inf) {
        fail(where + "reported unbounded, but every live upper bound is finite");
      }
    }
  }
  return result;
}

}  // namespace psv::testing
