// The request plan the load generator and the daemon replay share, and the
// canonical renderings replies are checked with.
//
// run.py writes the plan (gen.py draws it from the seed); the program under
// test only ever sees the model, scheme and template sources it names.
//
// Plan file, one directive per line (paths relative to the plan file):
//   model PATH
//   requirement NAME INPUT OUTPUT
//   scheme PATH PASS|FAIL          expected verdict (period > window => FAIL)
//   template PATH OVERRUN|FIT      OVERRUN => the Pareto set must be empty,
//                                  FIT => it must not be
//   op v SCHEME_INDEX BOUND        verify request
//   op s TEMPLATE_INDEX BOUND      synthesis request
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/report_serde.h"

namespace psvbench {

struct PlanScheme {
  std::string source;
  bool expect_pass = true;
};

struct PlanTemplate {
  std::string source;
  bool overruns = false;
};

struct PlanOp {
  bool synth = false;
  std::size_t index = 0;  ///< into schemes (verify) or templates (synth)
  std::int64_t bound = 0;
};

struct Plan {
  std::string model_source;
  std::string req_name, req_input, req_output;
  std::vector<PlanScheme> schemes;
  std::vector<PlanTemplate> templates;
  std::vector<PlanOp> ops;

  psv::core::SourceRequest verify_request(const PlanOp& op) const;
  psv::core::SourceSynthRequest synth_request(const PlanOp& op) const;

  /// Every distinct request of the plan once, in a fixed order that does
  /// not depend on the seed: each scheme at kReferenceBound, then each
  /// (template, bound) synthesis job.
  std::vector<PlanOp> warmup_ops() const;
};

/// The bound of the reference and warm-up verify requests. The bound does
/// not enter the verified networks, only the bound-dependent fields.
inline constexpr std::int64_t kReferenceBound = 80;

/// Parse a plan file; throws psv::Error on malformed input.
Plan load_plan(const std::string& path);

/// Bounds and verdicts of a report that do not depend on the requirement
/// bound: constraint checks, PIM maxima, Lemma-1 figures, Lemma-2 totals,
/// verified M-C maxima and the relaxed-bound verdicts.
std::string canonical_verdicts(const psv::core::VerifyReport& report);

/// The bound-dependent fields, checked arithmetically against the
/// bound-independent ones. Returns "" when consistent, else the reason.
std::string check_bound_fields(const psv::core::VerifyReport& report);

/// The reference answers of one plan, built in-process in setup.
struct References {
  std::vector<std::string> verify;  ///< canonical_verdicts per scheme
  std::map<std::pair<std::size_t, std::int64_t>, std::string> synth;  ///< frontier_text
};

/// Verify every scheme of the plan and run every (template, bound) synthesis
/// job of it through one in-process Verifier on `threads` threads.
References build_references(const Plan& plan, unsigned threads);

/// Check one reply: byte-equal to the reference and equal to the plan's
/// analytic verdict. Returns "" when correct, else the reason.
std::string check_verify_reply(const Plan& plan, const References& refs, const PlanOp& op,
                               const psv::core::VerifyReport& report);
std::string check_synth_reply(const Plan& plan, const References& refs, const PlanOp& op,
                              const psv::core::SynthReport& report);

/// Current resident set size of this process in bytes (0 if unknown).
double resident_bytes();

}  // namespace psvbench
