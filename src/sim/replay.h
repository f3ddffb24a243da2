// Symbolic trace replay — witness traces as checkable artifacts.
//
// The bound engine (mc/query.h) reports witness and ranked critical traces
// as rendered text. A trace is only trustworthy if it corresponds to an
// actual behaviour of the model, so this module re-executes a Trace step by
// step through the symbolic semantics (mc::SuccGen): starting from the
// initial state, each step's label AND rendered successor state must match
// an actual successor exactly (labels rendered by SuccGen::label, the same
// function that renders them when a trace is built).
//
// Bit-exactness requires the extrapolation constants of the exploration
// that produced the trace (extrapolation changes zone renderings and upper
// bounds): pass MaxClockResult::witness_consts. The slack test harness uses
// this to gate every reported top-K critical trace: it must replay, and its
// final state must attain the reported probe-clock value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/reach.h"
#include "mc/state.h"
#include "ta/model.h"

namespace psv::sim {

/// Outcome of replaying one diagnostic trace.
struct ReplayResult {
  bool ok = false;           ///< every step matched an actual successor
  std::string error;         ///< first mismatch, empty when ok
  std::size_t steps_matched = 0;  ///< steps re-executed before the mismatch
  mc::SymState final_state;  ///< the replayed end state (valid when ok)
};

/// Re-execute `trace` through the symbolic semantics of `net`.
/// `extra_clock_consts` must be the extra extrapolation constants of the
/// exploration that recorded the trace (MaxClockResult::witness_consts;
/// pass {} for a plain exploration). Step 0 of a trace is the initial state
/// (empty label); each later step must match one generated successor on
/// both label and rendered state.
ReplayResult replay_trace(const ta::Network& net, const mc::Trace& trace,
                          const std::vector<std::int32_t>& extra_clock_consts = {});

/// The maximum value `clock` can take in a replayed state's zone: the DBM
/// upper bound, or nullopt when the bound was abstracted away (infinite
/// under the replay's extrapolation constants).
std::optional<std::int64_t> replayed_clock_max(const mc::SymState& state, ta::ClockId clock);

}  // namespace psv::sim
