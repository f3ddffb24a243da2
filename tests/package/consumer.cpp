// One-file consumer of the installed psv package: builds a tiny timed
// automaton through the public headers and verifies a known delay bound,
// cross-checked by a bounded-response query. Exercises include paths, the
// exported target, and its Threads dependency.
#include <cstdio>

#include "mc/query.h"
#include "ta/model.h"

int main() {
  using namespace psv;
  ta::Network net("consumer");
  const ta::ClockId x = net.add_clock("x");
  ta::Automaton a("A");
  const ta::LocId l0 = a.add_location("L0");
  const ta::LocId l1 = a.add_location("L1", ta::LocKind::kNormal, {ta::cc_le(x, 7)});
  ta::Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks = {ta::cc_ge(x, 2)};
  a.add_edge(e);
  net.add_automaton(std::move(a));

  const mc::StateFormula at_l1 = mc::at(net, "A", "L1");
  const mc::MaxClockResult r = mc::max_clock_value(net, at_l1, x, 1000);
  if (!r.bounded || r.bound != 7) {
    std::printf("FAIL: reported bound %lld\n", static_cast<long long>(r.bound));
    return 1;
  }
  // Cross-check through the bounded-response query: P(7) holds, P(6) not.
  if (!mc::check_bounded_response(net, at_l1, x, 7).holds ||
      mc::check_bounded_response(net, at_l1, x, 6).holds) {
    std::printf("FAIL: bounded-response check disagrees with bound 7\n");
    return 1;
  }
  std::printf("ok: installed psv package answers bound=7\n");
  return 0;
}
