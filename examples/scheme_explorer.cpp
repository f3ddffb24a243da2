// Scheme explorer: compare implementation schemes for the same PIM.
//
// The paper's §III observes that different implementation schemes lead to
// different delays (polling prolongs detection; aperiodic invocation reacts
// immediately; buffers versus shared slots trade loss for staleness). This
// example sweeps a family of schemes over the pump's REQ1 pipeline and
// reports, per scheme, the analytic Lemma-1/Lemma-2 bounds and whether the
// original 500ms requirement would survive on that platform.
//
// Build & run:  ./build/examples/scheme_explorer
#include <iostream>

#include "core/analysis.h"
#include "core/schedulability.h"
#include "core/scheme.h"
#include "lang/scheme_parser.h"
#include "util/io.h"
#include "util/table.h"

using namespace psv;

namespace {

core::ImplementationScheme variant(const std::string& name, core::ReadMechanism read,
                                   std::int32_t poll_interval,
                                   core::InvocationKind invocation, std::int32_t period) {
  core::ImplementationScheme is =
      lang::parse_scheme(util::read_file(PSV_MODELS_DIR "board_syringe.pss"));
  is.name = name;
  auto& bolus = is.inputs.at("BolusReq");
  bolus.read = read;
  bolus.polling_interval = poll_interval;
  bolus.signal = read == core::ReadMechanism::kPolling
                     ? core::SignalType::kSustainedUntilRead
                     : core::SignalType::kPulse;
  is.io.invocation = invocation;
  is.io.period = period;
  return is;
}

}  // namespace

int main() {
  const std::int64_t pim_bound = 500;  // the pump PIM's own worst case
  const core::TimingRequirement req1{"REQ1", "BolusReq", "StartInfusion", 500};

  const std::vector<core::ImplementationScheme> schemes = {
      variant("board (poll 240 / period 200)", core::ReadMechanism::kPolling, 240,
              core::InvocationKind::kPeriodic, 200),
      variant("fast poll (60 / period 200)", core::ReadMechanism::kPolling, 60,
              core::InvocationKind::kPeriodic, 200),
      variant("interrupt / period 200", core::ReadMechanism::kInterrupt, 0,
              core::InvocationKind::kPeriodic, 200),
      variant("interrupt / period 50", core::ReadMechanism::kInterrupt, 0,
              core::InvocationKind::kPeriodic, 50),
      variant("interrupt / aperiodic", core::ReadMechanism::kInterrupt, 0,
              core::InvocationKind::kAperiodic, 0),
  };

  TextTable table("Scheme comparison for REQ1 (pump PIM internal bound 500ms)");
  table.set_header({"scheme", "input bound", "output bound", "Lemma-2 total",
                    "P(500) plausible?"});
  table.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kLeft});
  for (const core::ImplementationScheme& is : schemes) {
    const std::int64_t in_bound = core::analytic_input_delay_bound(is, req1.input);
    const std::int64_t out_bound = core::analytic_output_delay_bound(is, req1.output);
    const std::int64_t total = core::analytic_requirement_bound(is, req1, pim_bound);
    table.add_row({is.name, fmt_ms(static_cast<double>(in_bound)),
                   fmt_ms(static_cast<double>(out_bound)),
                   fmt_ms(static_cast<double>(total)), total <= 500 ? "yes" : "no"});
  }
  std::cout << table.render();
  std::cout << "\nNo scheme keeps the original 500ms bound: the software alone may\n"
               "use all of it. Platform-aware development must either relax the\n"
               "requirement (Lemma 2) or redesign the software budget.\n";
  return 0;
}
