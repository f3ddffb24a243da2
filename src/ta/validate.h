// Structural validation of timed-automata networks.
//
// The model checker and the PIM->PSM transformation both assume well-formed
// networks; validate() centralizes those checks and produces actionable
// diagnostics instead of undefined downstream behavior.
#pragma once

#include <string>
#include <vector>

#include "ta/model.h"

namespace psv::ta {

/// Outcome of validating a network.
struct ValidationReport {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  bool ok() const { return errors.empty(); }
  /// All diagnostics joined for display.
  std::string to_string() const;
};

/// Validate structural well-formedness:
///  * every automaton has locations and a valid initial location,
///  * guards/updates/invariants reference declared clocks and variables,
///  * invariants use only upper-bound operators (< or <=),
///  * clock resets are non-negative,
///  * broadcast receive edges carry no clock guards (required for exact
///    symbolic broadcast successors),
///  * binary channels have both senders and receivers somewhere (warning).
ValidationReport validate(const Network& net);

/// Validate and throw psv::Error listing all problems if any check failed.
void validate_or_throw(const Network& net);

}  // namespace psv::ta
