// Code generation demo: emit the C implementation of Code(PIM) for the
// pump software and drive the in-process step program through a bolus
// cycle, printing the invocation-by-invocation behavior.
//
// Build & run:  ./build/examples/codegen_demo
#include <iostream>

#include "codegen/cemit.h"
#include "codegen/stepcode.h"
#include "core/pim.h"
#include "lang/model_parser.h"
#include "util/io.h"

using namespace psv;

int main() {
  ta::Network pim = lang::parse_model(util::read_file(PSV_MODELS_DIR "pump_syringe.psv"));
  core::PimInfo info = core::analyze_pim(pim, "M", "ENV");

  // The C translation unit a code generator would hand to the platform
  // integrator (the paper uses the TIMES tool for this step).
  codegen::CEmitOptions options;
  options.prefix = "gpca";
  std::cout << "==== generated C (excerpt: first 40 lines) ====\n";
  const std::string c = codegen::emit_c(pim, info, options);
  std::size_t line = 0, pos = 0;
  while (line < 40 && pos != std::string::npos) {
    const std::size_t next = c.find('\n', pos);
    std::cout << c.substr(pos, next - pos) << "\n";
    pos = next == std::string::npos ? next : next + 1;
    ++line;
  }
  std::cout << "... (" << c.size() << " bytes total)\n\n";

  // The same contract exercised in-process: a 100ms invocation loop.
  std::cout << "==== in-process invocation loop (period 100ms) ====\n";
  codegen::StepProgram code(pim, info);
  constexpr std::int64_t kMs = 1000;
  for (std::int64_t t = 0; t <= 2000; t += 100) {
    std::vector<std::string> inputs;
    if (t == 300) inputs.push_back("BolusReq");      // patient presses at 300ms
    if (t == 1000) inputs.push_back("EmptySyringe"); // syringe empties at 1s
    const codegen::StepResult r = code.step(t * kMs, inputs);
    if (!inputs.empty() || !r.outputs.empty()) {
      std::cout << "t=" << t << "ms";
      for (const std::string& in : inputs) std::cout << "  read " << in;
      for (const std::string& out : r.outputs) std::cout << "  write " << out;
      std::cout << "  -> " << code.location() << "\n";
    }
  }
  return 0;
}
