// Regenerates Table I of the paper: "THE EXPERIMENT RESULT".
//
// Paper rows:
//                        M-C delay  Input-Delay  Output-Delay  Buffer overflow
//   Verified bound (PSM)   1430ms       490ms        440ms      not occurring
//   Measured avg (IMP)      610ms        97ms        215ms      not occurring
//   Measured max            748ms       152ms        304ms
//   Measured min            456ms        48ms        100ms
// plus the §VI observations: PIM |= P(500); PSM |/= P(500); 53/60 measured
// scenarios violate REQ1; every measurement lies below the verified bound.
//
// Our verified rows are produced by model-checking the PSM constructed from
// the pump PIM and the board scheme; the measured rows come from 60 seeded
// scenarios on the discrete-event platform simulator (the physical GPCA
// board and oscilloscope are not available). Absolute milliseconds differ
// from the paper (its platform parameters are unpublished; the split that
// reproduces its 490/440 ms bounds is in the examples/models/board.pss
// header); the assertions below check the relationships the paper
// establishes.
#include <iostream>

#include "core/pim.h"
#include "core/service.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "sim/runner.h"
#include "util/io.h"
#include "util/table.h"

using namespace psv;

namespace {

struct PaperRow {
  const char* label;
  double mc, mi, oc;
};

constexpr PaperRow kPaperVerified{"paper verified", 1430, 490, 440};
constexpr PaperRow kPaperAvg{"paper avg", 610, 97, 215};
constexpr PaperRow kPaperMax{"paper max", 748, 152, 304};
constexpr PaperRow kPaperMin{"paper min", 456, 48, 100};

/// Simulator calibration of the board: devices typically run well under
/// their specified worst cases (the paper's measured delays sit 1.5-3x
/// below the verified bounds). The scheme's [min, max] windows stay the
/// verified model parameters; this only shapes the sampled distributions.
sim::SimCalibration board_calibration() {
  sim::SimCalibration cal;
  // The pump motor usually spins up far below its 440ms worst case.
  cal.outputs["StartInfusion"] = sim::DelayCalibration{0.6, 0.3};
  cal.outputs["StopInfusion"] = sim::DelayCalibration{0.7, 0.4};
  cal.outputs["Alarm"] = sim::DelayCalibration{0.7, 0.4};
  // Input processing is close to its typical value; the dominating input
  // terms (polling phase, invocation phase) are structural and unaffected.
  cal.inputs["BolusReq"] = sim::DelayCalibration{0.8, 0.4};
  cal.inputs["EmptySyringe"] = sim::DelayCalibration{0.8, 0.4};
  cal.stages = sim::DelayCalibration{0.4, 0.3};
  return cal;
}

}  // namespace

int main() {
  std::cout << "=== Table I: platform-specific timing of the GPCA pump (REQ1) ===\n\n";

  // Table I measures the REQ1 path, which pump.psv models.
  core::VerifyRequest request;
  request.pim = lang::parse_model(util::read_file(PSV_MODELS_DIR "pump.psv"));
  request.info = core::analyze_pim(request.pim, "M", "ENV");
  request.schemes = {lang::parse_scheme(util::read_file(PSV_MODELS_DIR "board.pss"))};
  request.requirements = {lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500")};
  request.options.search_limit = 100000;
  const ta::Network& pim = request.pim;
  const core::PimInfo& info = *request.info;
  const core::ImplementationScheme& scheme = request.schemes.front();
  const core::TimingRequirement& req = request.requirements.front();

  // --- verified side (model checking the PSM) ----------------------------
  const core::VerifyReport report = core::Verifier().verify(request);
  const core::ConstraintReport& constraints = report.schemes[0].constraints;
  const core::RequirementResult& verified = report.schemes[0].requirements[0];

  const core::DelayBound& in_bound = verified.bounds.input_delays.front();
  const core::DelayBound& out_bound = verified.bounds.output_delays.front();
  const bool overflow_free = constraints.all_hold();

  // --- measured side (60 simulated bolus scenarios) ------------------------
  sim::MeasurementConfig config;
  config.scenarios = 60;
  config.seed = 2015;
  config.calibration = board_calibration();
  sim::MeasurementSummary measured = sim::measure_requirement(pim, info, scheme, req, config);
  const int violations = measured.violations(static_cast<double>(req.bound_ms));

  // --- the table ------------------------------------------------------------
  TextTable table("Table I — verified bounds (PSM) vs measured delays (simulated IMP)");
  table.set_header({"row", "M-C delay", "Input-Delay", "Output-Delay", "Buffer overflow"});
  table.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kLeft});
  table.add_row({"Verified upper bound (PSM)",
                 fmt_ms(static_cast<double>(verified.bounds.lemma2_total)),
                 fmt_ms(static_cast<double>(in_bound.analytic)),
                 fmt_ms(static_cast<double>(out_bound.analytic)),
                 overflow_free ? "not occurring" : "OCCURRING"});
  table.add_row({"  (exact model-checked max)",
                 fmt_ms(static_cast<double>(verified.bounds.verified_mc_delay)),
                 fmt_ms(static_cast<double>(in_bound.verified)),
                 fmt_ms(static_cast<double>(out_bound.verified)), ""});
  table.add_separator();
  table.add_row({"Measured (IMP) avg", fmt_ms(measured.mc.mean), fmt_ms(measured.mi.mean),
                 fmt_ms(measured.oc.mean),
                 measured.buffer_overflows == 0 ? "not occurring" : "OCCURRING"});
  table.add_row({"Measured (IMP) max", fmt_ms(measured.mc.max), fmt_ms(measured.mi.max),
                 fmt_ms(measured.oc.max), ""});
  table.add_row({"Measured (IMP) min", fmt_ms(measured.mc.min), fmt_ms(measured.mi.min),
                 fmt_ms(measured.oc.min), ""});
  table.add_separator();
  table.add_row({kPaperVerified.label, fmt_ms(kPaperVerified.mc), fmt_ms(kPaperVerified.mi),
                 fmt_ms(kPaperVerified.oc), "not occurring"});
  table.add_row({kPaperAvg.label, fmt_ms(kPaperAvg.mc), fmt_ms(kPaperAvg.mi),
                 fmt_ms(kPaperAvg.oc), "not occurring"});
  table.add_row({kPaperMax.label, fmt_ms(kPaperMax.mc), fmt_ms(kPaperMax.mi),
                 fmt_ms(kPaperMax.oc), ""});
  table.add_row({kPaperMin.label, fmt_ms(kPaperMin.mc), fmt_ms(kPaperMin.mi),
                 fmt_ms(kPaperMin.oc), ""});
  std::cout << table.render() << "\n";

  // --- the paper's §VI narrative, re-established -----------------------------
  struct Check {
    const char* claim;
    bool holds;
  };
  const Check checks[] = {
      {"PIM |= P(500) with the exact bound 500ms",
       verified.pim.holds && verified.pim.max_delay == 500},
      {"Lemma 2: delta' = 490 + 440 + 500 = 1430ms",
       verified.bounds.lemma2_total == 1430},
      {"PSM |/= P(500): the platform breaks the original requirement",
       !verified.psm_meets_original},
      {"PSM |= P(1430): the relaxed requirement is verified",
       verified.psm_meets_relaxed},
      {"constraints C1-C4 hold (bounded-delay conditions)",
       constraints.all_hold()},
      {"majority of the 60 scenarios violate 500ms (paper: 53/60)",
       violations > 30},
      {"every measured M-C delay lies below the verified 1430ms bound",
       measured.mc.max <= static_cast<double>(verified.bounds.lemma2_total)},
      {"every measured Input-Delay lies below the verified 490ms bound",
       measured.mi.max <= static_cast<double>(in_bound.analytic)},
      {"every measured Output-Delay lies below the verified 440ms bound",
       measured.oc.max <= static_cast<double>(out_bound.analytic)},
      {"no buffer overflow, verified and measured",
       overflow_free && measured.buffer_overflows == 0},
  };
  int failed = 0;
  std::cout << "paper-shape checks:\n";
  for (const Check& c : checks) {
    std::cout << "  [" << (c.holds ? "ok" : "FAIL") << "] " << c.claim << "\n";
    failed += c.holds ? 0 : 1;
  }
  std::cout << "\nREQ1 violations: " << violations << "/60 (paper: 53/60)\n";
  std::cout << "constraint detail:\n" << constraints.to_string();
  return failed == 0 ? 0 : 1;
}
