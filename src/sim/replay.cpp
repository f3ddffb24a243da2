#include "sim/replay.h"

#include <sstream>
#include <utility>

#include "mc/succ.h"

namespace psv::sim {

ReplayResult replay_trace(const ta::Network& net, const mc::Trace& trace,
                          const std::vector<std::int32_t>& extra_clock_consts) {
  ReplayResult result;
  if (trace.steps.empty()) {
    result.error = "empty trace";
    return result;
  }
  const mc::SuccGen gen(net, extra_clock_consts);
  mc::SymState current = gen.initial();

  // Step 0 is the initial state (traces carry it with an empty label).
  const mc::TraceStep& first = trace.steps.front();
  if (!first.label.empty()) {
    result.error = "step 0 carries an edge label; traces start at the initial state";
    return result;
  }
  if (current.to_string(net) != first.state) {
    result.error = "initial state mismatch: expected '" + first.state + "'";
    return result;
  }
  result.steps_matched = 1;

  for (std::size_t i = 1; i < trace.steps.size(); ++i) {
    const mc::TraceStep& step = trace.steps[i];
    std::vector<mc::SymSuccessor> successors = gen.successors(current);
    bool matched = false;
    for (mc::SymSuccessor& s : successors) {
      if (gen.label(s.edges) == step.label && s.state.to_string(net) == step.state) {
        current = std::move(s.state);
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::ostringstream os;
      os << "step " << i << ": no successor matches label '" << step.label
         << "' with the recorded state";
      result.error = os.str();
      return result;
    }
    ++result.steps_matched;
  }
  result.ok = true;
  result.final_state = std::move(current);
  return result;
}

std::optional<std::int64_t> replayed_clock_max(const mc::SymState& state, ta::ClockId clock) {
  const dbm::raw_t upper = state.zone.upper(clock + 1);
  if (dbm::is_inf(upper)) return std::nullopt;
  return dbm::bound_value(upper);
}

}  // namespace psv::sim
