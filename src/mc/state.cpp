#include "mc/state.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace psv::mc {

std::size_t SymState::discrete_hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (ta::LocId l : locs) mix(static_cast<std::uint64_t>(l) + 0x9e3779b9u);
  for (std::int64_t v : vars) mix(static_cast<std::uint64_t>(v) ^ 0xabcdef12u);
  return h;
}

std::string SymState::to_string(const ta::Network& net) const {
  std::ostringstream os;
  os << "(";
  for (std::size_t a = 0; a < locs.size(); ++a) {
    if (a > 0) os << ", ";
    const auto& aut = net.automaton(static_cast<ta::AutomatonId>(a));
    os << aut.name() << "." << aut.location(locs[a]).name;
  }
  os << ")";
  if (!vars.empty()) {
    os << " {";
    for (std::size_t v = 0; v < vars.size(); ++v) {
      if (v > 0) os << ", ";
      os << net.var_name(static_cast<ta::VarId>(v)) << "=" << vars[v];
    }
    os << "}";
  }
  std::vector<std::string> clock_names;
  for (const auto& c : net.clocks()) clock_names.push_back(c.name);
  os << " <" << zone.to_string(clock_names) << ">";
  return os.str();
}

StateFormula& StateFormula::and_loc(ta::AutomatonId automaton, ta::LocId loc, bool negated) {
  locs.push_back(LocRequirement{automaton, loc, negated});
  return *this;
}

StateFormula& StateFormula::and_data(const ta::BoolExpr& predicate) {
  data = data && predicate;
  return *this;
}

StateFormula& StateFormula::and_clock(const ta::ClockConstraint& cc) {
  clocks.push_back(cc);
  return *this;
}

std::string StateFormula::to_string(const ta::Network& net) const {
  std::vector<std::string> parts;
  for (const auto& lr : locs) {
    const auto& aut = net.automaton(lr.automaton);
    parts.push_back(std::string(lr.negated ? "!" : "") + aut.name() + "." +
                    aut.location(lr.loc).name);
  }
  if (!data.is_trivially_true()) parts.push_back(data.to_string(net.var_namer()));
  for (const auto& cc : clocks)
    parts.push_back(net.clock_name(cc.clock) + ta::cmp_op_str(cc.op) + std::to_string(cc.bound));
  if (parts.empty()) return "true";
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " && ";
    out += parts[i];
  }
  return out;
}

StateFormula at(const ta::Network& net, const std::string& automaton, const std::string& loc) {
  const auto aid = net.automaton_by_name(automaton);
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, aid.has_value(), "no automaton named '" + automaton + "'");
  StateFormula f;
  f.and_loc(*aid, net.automaton(*aid).loc_by_name(loc));
  return f;
}

StateFormula not_at(const ta::Network& net, const std::string& automaton, const std::string& loc) {
  const auto aid = net.automaton_by_name(automaton);
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, aid.has_value(), "no automaton named '" + automaton + "'");
  StateFormula f;
  f.and_loc(*aid, net.automaton(*aid).loc_by_name(loc), /*negated=*/true);
  return f;
}

StateFormula when(const ta::BoolExpr& predicate) {
  StateFormula f;
  f.and_data(predicate);
  return f;
}

bool satisfies([[maybe_unused]] const ta::Network& net, const SymState& state,
               const StateFormula& formula) {
  for (const auto& lr : formula.locs) {
    PSV_ASSERT(lr.automaton >= 0 && static_cast<std::size_t>(lr.automaton) < state.locs.size(),
               "formula references automaton outside the network");
    const bool here = state.locs[static_cast<std::size_t>(lr.automaton)] == lr.loc;
    if (here == lr.negated) return false;
  }
  if (!formula.data.eval(state.vars)) return false;
  if (!formula.clocks.empty()) {
    dbm::Dbm zone = state.zone;
    for (const auto& cc : formula.clocks) {
      const int i = cc.clock + 1;
      bool ok = true;
      switch (cc.op) {
        case ta::CmpOp::kLt:
          ok = zone.constrain(i, 0, dbm::bound_lt(cc.bound));
          break;
        case ta::CmpOp::kLe:
          ok = zone.constrain(i, 0, dbm::bound_le(cc.bound));
          break;
        case ta::CmpOp::kGe:
          ok = zone.constrain(0, i, dbm::bound_le(-cc.bound));
          break;
        case ta::CmpOp::kGt:
          ok = zone.constrain(0, i, dbm::bound_lt(-cc.bound));
          break;
        case ta::CmpOp::kEq:
          ok = zone.constrain(i, 0, dbm::bound_le(cc.bound)) &&
               zone.constrain(0, i, dbm::bound_le(-cc.bound));
          break;
        case ta::CmpOp::kNe:
          PSV_FAIL_AS(::psv::ErrorCode::kVerify, "clock constraints with != are not supported in state formulas");
      }
      if (!ok) return false;
    }
  }
  return true;
}

std::vector<std::int32_t> formula_clock_constants(const ta::Network& net,
                                                  const StateFormula& formula) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(net.num_clocks()), -1);
  for (const auto& cc : formula.clocks) {
    PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, cc.clock >= 0 && cc.clock < net.num_clocks(),
                "formula clock constraint references undeclared clock");
    out[static_cast<std::size_t>(cc.clock)] =
        std::max(out[static_cast<std::size_t>(cc.clock)], cc.bound);
  }
  return out;
}

}  // namespace psv::mc
