// Regenerates Fig. 5 and Fig. 6 of the paper: the interface automata
// IFMI_BolusReq / IFOC_StartInfusion (Fig. 5) and the code-execution
// automaton EXEIO (Fig. 6), as constructed by the PIM -> PSM transformation
// for the pump case study.
//
// Two variants are printed for IFMI: the paper's Example-1 interrupt
// mechanism and the board's polling mechanism used in §VI.
#include <fstream>
#include <iostream>

#include "core/pim.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "ta/print.h"
#include "util/io.h"

using namespace psv;

namespace {

int print_automaton(const core::PsmArtifacts& psm, const std::string& name,
                    const std::string& caption) {
  const auto id = psm.psm.automaton_by_name(name);
  if (!id.has_value()) {
    std::cout << "FAIL: automaton '" << name << "' missing\n";
    return 1;
  }
  std::cout << "---- " << caption << " ----\n";
  std::cout << ta::automaton_text(psm.psm, *id) << "\n";
  // Also drop a Graphviz rendering next to the binary for figure
  // regeneration (dot -Tpdf <file> renders the paper-style diagram).
  std::ofstream dot(name + ".dot");
  if (dot.good()) dot << ta::automaton_dot(psm.psm, *id);
  return 0;
}

}  // namespace

int main() {
  std::cout << "=== Fig. 5 / Fig. 6: the platform automata of the PSM ===\n\n";
  ta::Network pim = lang::parse_model(util::read_file(PSV_MODELS_DIR "pump.psv"));
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");

  int failed = 0;

  // Fig. 5-(1) in the paper's Example-1 form: interrupt-driven input.
  {
    core::ImplementationScheme is1 = core::example_is1(info.inputs, info.outputs);
    core::PsmArtifacts psm = core::transform(pim, info, is1);
    std::cout << "scheme IS1 (Example 1): " << is1.describe() << "\n";
    failed += print_automaton(psm, "IFMI_BolusReq",
                              "Fig. 5-(1) IFMI_BolusReq — interrupt variant (IS1)");
  }

  // The board variant of §VI: polled, latched button.
  {
    core::ImplementationScheme board =
        lang::parse_scheme(util::read_file(PSV_MODELS_DIR "board.pss"));
    core::PsmArtifacts psm = core::transform(pim, info, board);
    failed += print_automaton(psm, "IFMI_BolusReq",
                              "Fig. 5-(1) IFMI_BolusReq — polling variant (board, Section VI)");
    failed += print_automaton(psm, "IFOC_StartInfusion",
                              "Fig. 5-(2) IFOC_StartInfusion — output interface");
    failed += print_automaton(psm, "EXEIO", "Fig. 6 EXEIO — code execution model");
    failed += print_automaton(psm, "MIO", "MIO — renamed, input-enabled software");

    // Structural checks against the paper's figures.
    const ta::Automaton& ifmi =
        psm.psm.automaton(*psm.psm.automaton_by_name("IFMI_BolusReq"));
    const ta::Automaton& ifoc =
        psm.psm.automaton(*psm.psm.automaton_by_name("IFOC_StartInfusion"));
    const ta::Automaton& exeio = psm.psm.automaton(*psm.psm.automaton_by_name("EXEIO"));
    struct Check {
      const char* claim;
      bool holds;
    };
    auto has_loc = [](const ta::Automaton& a, const char* name) {
      for (const auto& l : a.locations())
        if (l.name == name) return true;
      return false;
    };
    const Check checks[] = {
        {"IFMI has the Idle/Processing structure of Fig. 5-(1)",
         has_loc(ifmi, "Processing")},
        {"IFMI distinguishes enqueue vs buffer-full (two insert edges)",
         [&] {
           int inserts = 0;
           for (const auto& e : ifmi.edges())
             if (e.note.find("enqueue") != std::string::npos ||
                 e.note.find("overflow") != std::string::npos)
               ++inserts;
           return inserts >= 2;
         }()},
        {"IFOC has Idle/Processing/Ready/DrainCheck",
         has_loc(ifoc, "Processing") && has_loc(ifoc, "Ready") && has_loc(ifoc, "DrainCheck")},
        {"EXEIO has the Waiting/Read/Compute/Write cycle of Fig. 6",
         has_loc(exeio, "Waiting") && has_loc(exeio, "ReadInput") &&
             has_loc(exeio, "ComputeTransitions") && has_loc(exeio, "WriteOutput")},
    };
    for (const Check& c : checks) {
      std::cout << "  [" << (c.holds ? "ok" : "FAIL") << "] " << c.claim << "\n";
      failed += c.holds ? 0 : 1;
    }
  }
  return failed == 0 ? 0 : 1;
}
