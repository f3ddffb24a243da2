// Symbolic states and state formulas for the zone-based model checker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dbm/dbm.h"
#include "ta/model.h"

namespace psv::mc {

/// A symbolic state of a network: one control location per automaton, a
/// valuation of all discrete variables, and a clock zone. Zones stored in
/// explored states are delay-closed under the location invariants (unless an
/// urgent/committed location blocks time) and extrapolated.
struct SymState {
  std::vector<ta::LocId> locs;
  std::vector<std::int64_t> vars;
  dbm::Dbm zone{0};

  /// Hash of the discrete part (locations + variables), used to bucket
  /// states for inclusion checking.
  std::size_t discrete_hash() const;

  /// Render as "(Loc1, Loc2, ...) vars{...} zone{...}".
  std::string to_string(const ta::Network& net) const;
};

/// A conjunction describing a set of states:
///   * automaton control-location requirements (possibly negated),
///   * a predicate over discrete variables,
///   * clock constraints (satisfied if some valuation in the zone meets them).
struct StateFormula {
  struct LocRequirement {
    ta::AutomatonId automaton = -1;
    ta::LocId loc = -1;
    bool negated = false;
  };

  std::vector<LocRequirement> locs;
  ta::BoolExpr data = ta::BoolExpr::truth();
  std::vector<ta::ClockConstraint> clocks;

  /// Conjoin another formula.
  StateFormula& and_loc(ta::AutomatonId automaton, ta::LocId loc, bool negated = false);
  StateFormula& and_data(const ta::BoolExpr& predicate);
  StateFormula& and_clock(const ta::ClockConstraint& cc);

  std::string to_string(const ta::Network& net) const;
};

/// Formula requiring `automaton` to rest at location `loc` (by names).
StateFormula at(const ta::Network& net, const std::string& automaton, const std::string& loc);

/// Formula requiring `automaton` NOT to rest at `loc`.
StateFormula not_at(const ta::Network& net, const std::string& automaton, const std::string& loc);

/// Formula over discrete variables only.
StateFormula when(const ta::BoolExpr& predicate);

/// True iff `state` satisfies `formula` (clock constraints interpreted
/// existentially over the zone).
bool satisfies(const ta::Network& net, const SymState& state, const StateFormula& formula);

/// Largest constant the formula compares each clock against (merged with the
/// network constants for extrapolation). Returns a vector sized to
/// net.num_clocks(), -1 where unconstrained.
std::vector<std::int32_t> formula_clock_constants(const ta::Network& net,
                                                  const StateFormula& formula);

}  // namespace psv::mc
