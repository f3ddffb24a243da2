// Event tap: turn a symbolic witness trace into a concrete timestamped
// boundary-event stream for the runtime monitor (monitor/monitor.h).
//
// A replayed critical trace is symbolic — each step carries a zone, not a
// time. The tap concretizes transition firing times with a small
// difference-constraint system over T_1..T_n (T_0 = 0 is the start), built
// from exactly the constraints the symbolic semantics imposes along the
// recorded path:
//
//   * monotonicity  T_{i-1} <= T_i, with equality forced where the source
//     state holds an urgent/committed location (time frozen);
//   * every clock guard of step i's participating edges, evaluated at T_i
//     against the clock's last reset (clock value = reset value + T_i -
//     T_reset), guards before resets as in SuccGen::replay;
//   * every location invariant, enforced at the time its occupancy ends
//     (upper-bound constraints only — ta::Location restricts invariants to
//     kLt/kLe, so holding at the leave time implies holding throughout).
//
// The system is solved with the existing dbm::Dbm over the T variables: no
// extrapolation is involved, so the solution set is exactly the set of
// concrete runs along the path. The tap then maximizes the value of
// `maximize_clock` at the end of the run (the probe clock: its canonical
// DBM entry gives the exact maximum of T_end - T_last_reset), pins that
// optimum, and assigns each T_i its earliest feasible value in order. The
// result is a realizable worst-case schedule: for bound-query witnesses
// the concretized final probe value equals the reported delay exactly
// (tests/monitor_test.cpp holds it to that).
//
// Events are read off the schedule: every step whose participating edges
// synchronize on a boundary channel (m_/i_/o_/c_ per core/transform.h)
// yields one event at that step's firing time, in milliseconds converted to
// the monitor's microsecond timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/reach.h"
#include "ta/model.h"

namespace psv::sim {

/// One concretized boundary crossing.
struct TappedEvent {
  std::int64_t at_us = 0;
  char boundary = '?';  ///< 'm' monitored, 'i' program-in, 'o' program-out, 'c' controlled
  std::string name;     ///< variable name (channel name without the prefix)
  std::size_t step = 0; ///< trace step that fired it (1-based, step 0 = initial)
};

struct TapResult {
  bool ok = false;
  std::string error;
  std::vector<TappedEvent> events;  ///< time-ordered
  std::int64_t end_us = 0;          ///< end-of-stream time (maximal final dwell)
  std::int64_t max_value_ms = 0;    ///< concretized final value of maximize_clock
};

/// Concretize `trace` against `net` (the instrumented network it was
/// recorded on) under the exploration's witness constants, maximizing the
/// final value of `maximize_clock`. Never throws: structural problems
/// (label/state mismatch, infeasible system, strict-bound gaps) come back
/// as ok = false with a message.
TapResult tap_trace(const ta::Network& net, const mc::Trace& trace,
                    const std::vector<std::int32_t>& witness_consts,
                    ta::ClockId maximize_clock);

}  // namespace psv::sim
