// Regenerates Fig. 4 of the paper: "Illustration of the timed behaviors of
// the PIM and PSM" (and, with it, the Fig. 1 PIM verification).
//
// In the PIM, M synchronizes directly with ENV: the input is accepted the
// instant it is triggered and the output is visible the instant it is
// produced. In the PSM the same interaction threads through the platform:
//   m! --(IFMI processing)--> enq(i) --(buffer wait)--> deq(i)/i!
//      --(software internal)--> o! --(IFOC processing)--> c!
// This bench verifies the PIM (Fig. 1), then walks one simulated bolus
// transaction through the PSM pipeline and prints both ladders with the
// measured gaps.
#include <iostream>

#include "core/pim.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "sim/runner.h"
#include "util/io.h"
#include "util/table.h"

using namespace psv;

int main() {
  std::cout << "=== Fig. 4: timed behavior of the PIM vs the PSM ===\n\n";

  ta::Network pim = lang::parse_model(util::read_file(PSV_MODELS_DIR "pump.psv"));
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  core::TimingRequirement req =
      lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500");

  // --- PIM ladder: direct synchronization --------------------------------
  core::PimVerification pim_result = core::verify_pim_requirement(pim, info, req, 100000);
  std::cout << "PIM (Fig. 1): ENV and M synchronize directly\n";
  std::cout << "  m_BolusReq!  --(immediately)-->  m_BolusReq?\n";
  std::cout << "  c_StartInfusion!  --(immediately)-->  c_StartInfusion?\n";
  std::cout << "  worst-case m->c delay (model checked): " << pim_result.max_delay
            << "ms  [PIM |= P(" << req.bound_ms << "): " << (pim_result.holds ? "yes" : "NO")
            << "]\n\n";

  // --- PSM ladder: one simulated transaction ------------------------------
  core::ImplementationScheme scheme =
      lang::parse_scheme(util::read_file(PSV_MODELS_DIR "board.pss"));
  sim::Kernel kernel;
  sim::SimCalibration cal;
  sim::PlatformSim platform(kernel, pim, info, scheme, cal, Rng(7));
  platform.start();
  kernel.schedule_at(sim::ms(500), [&platform] { platform.inject_input("BolusReq"); });
  kernel.run_until(sim::ms(10000));

  sim::TimeUs m_at = -1, i_at = -1, o_at = -1, c_at = -1;
  for (const sim::BoundaryEvent& e : platform.events()) {
    if (e.boundary == sim::Boundary::kMonitored && e.name == "BolusReq" && m_at < 0) m_at = e.at;
    if (e.boundary == sim::Boundary::kProgramIn && e.name == "BolusReq" && i_at < 0) i_at = e.at;
    if (e.boundary == sim::Boundary::kProgramOut && e.name == "StartInfusion" && o_at < 0)
      o_at = e.at;
    if (e.boundary == sim::Boundary::kControlled && e.name == "StartInfusion" && c_at < 0)
      c_at = e.at;
  }
  if (m_at < 0 || i_at < 0 || o_at < 0 || c_at < 0) {
    std::cout << "FAIL: incomplete transaction\n";
    return 1;
  }

  std::cout << "PSM / implementation: the same transaction through the platform\n";
  TextTable ladder("one bolus transaction (simulated, seed 7)");
  ladder.set_header({"instant", "time", "gap since previous"});
  ladder.set_align({Align::kLeft, Align::kRight, Align::kRight});
  ladder.add_row({"m_BolusReq!   (button pressed)", fmt_ms(sim::to_ms(m_at)), "-"});
  ladder.add_row({"deq(i)/i!     (code reads input)", fmt_ms(sim::to_ms(i_at)),
                  fmt_ms(sim::to_ms(i_at - m_at))});
  ladder.add_row({"o!            (code writes output)", fmt_ms(sim::to_ms(o_at)),
                  fmt_ms(sim::to_ms(o_at - i_at))});
  ladder.add_row({"c!            (infusion starts)", fmt_ms(sim::to_ms(c_at)),
                  fmt_ms(sim::to_ms(c_at - o_at))});
  std::cout << ladder.render() << "\n";

  const double mc = sim::to_ms(c_at - m_at);
  std::cout << "end-to-end m->c: " << fmt_ms(mc) << " (PIM bound alone was "
            << pim_result.max_delay << "ms)\n\n";

  struct Check {
    const char* claim;
    bool holds;
  };
  const Check checks[] = {
      {"PIM verifies REQ1 with the exact 500ms bound",
       pim_result.holds && pim_result.max_delay == 500},
      {"the PSM pipeline introduces a positive input gap (m -> i)", i_at > m_at},
      {"the PSM pipeline introduces a positive output gap (o -> c)", c_at > o_at},
      {"events are ordered m < i < o < c", m_at < i_at && i_at < o_at && o_at < c_at},
  };
  int failed = 0;
  for (const Check& c : checks) {
    std::cout << "  [" << (c.holds ? "ok" : "FAIL") << "] " << c.claim << "\n";
    failed += c.holds ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}
