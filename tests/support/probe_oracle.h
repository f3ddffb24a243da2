// Reference oracle for maximum-clock-value queries.
//
// An independent semantics for the sweep bound engine (mc/query.h) to be
// checked against: gallop + binary search over plain reachability checks,
// max{ t(clock) | pred } <= D iff the state (pred && clock > D) is
// unreachable. Each check extends the extrapolation constants with D, so the
// search is exact. It shares none of the sweep's bound logic, only the
// reachability engine underneath (mc::reachable), and the tests hold the
// sweep to bit-identical bounds against it.
#pragma once

#include <cstdint>

#include "mc/query.h"

namespace psv::testing {

/// The oracle's answer for one query, in the sweep's result shape. `hint`
/// is the gallop start. The binary search only ever sees the maximum, so
/// `ranked` holds a single entry (when top_k > 0 and the value is bounded
/// and reachable); `probes` counts the reachability checks.
mc::MaxClockResult probe_max_clock_value(const ta::Network& net, const mc::StateFormula& pred,
                                         ta::ClockId clock, std::int64_t limit,
                                         mc::ExploreOptions opts, std::int64_t hint,
                                         int top_k = 0);

}  // namespace psv::testing
