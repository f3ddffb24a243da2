// Incremental-exploration benchmark + gate: warm-starting a verification
// from a structurally-related ancestor's passed store.
//
//   bench_incremental [--out FILE]
//
// Verifies the pump model (pump.psv + board.pss, the paper's Table-I
// requirements), then perturbs ONE scheme constant upward (the StopInfusion
// device delay, 50 -> 55 ms) and re-verifies through the SAME Verifier: the
// perturbed PSM has a new network digest (cold cache key) but an unchanged
// skeleton, so the session adopts the baseline's passed store and seeds its
// first wave from it instead of re-deriving the state space. A fresh
// Verifier re-verifies the perturbed scheme cold for reference.
//
// Gates (exit 1 on violation, 2 on usage/setup errors):
//
//   * the warm run must reuse ancestor states (warm_start_states_reused > 0)
//     and explore >= 5x fewer fresh states than the cold reference in the
//     scheme stages (fresh = states_explored - warm_seed_expansions);
//   * bounds, verdicts, constraint checks and slack VALUES are bit-identical
//     between the warm and cold runs. Witness
//     traces and sub-maximal ranked entries are deliberately NOT compared:
//     warm and cold runs store different — equally valid — covering families
//     of the same reachable space.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/report_serde.h"
#include "core/service.h"
#include "util/io.h"
#include "util/json.h"

namespace {

int usage() {
  std::cerr << "usage: bench_incremental [--out FILE]\n";
  return 2;
}

/// Canonical value-only rendering of a report: verdicts, exact bounds,
/// constraint verdicts, and slack values — everything that must be
/// bit-identical warm vs cold, and nothing (traces, sub-maximal ranked
/// witnesses) that may legitimately differ.
std::string value_lines(const psv::core::VerifyReport& report) {
  std::ostringstream os;
  for (const psv::core::SchemeVerification& sv : report.schemes) {
    os << "scheme " << sv.scheme_name << "\n";
    for (const psv::core::ConstraintCheck& check : sv.constraints.checks)
      os << "  constraint " << check.id << " " << check.name << ": "
         << (check.holds ? "holds" : "VIOLATED") << "\n";
    for (const psv::core::RequirementResult& r : sv.requirements) {
      os << "  verdict " << (r.passed ? "PASS" : "FAIL") << " " << r.requirement.name
         << " pim_max=" << r.pim.max_delay << " lemma2=" << r.bounds.lemma2_total
         << " mc=" << r.bounds.verified_mc_delay
         << " bounded=" << (r.bounds.verified_mc_bounded ? 1 : 0) << "\n";
    }
    for (std::size_t i = 0; i < sv.slack.requirements.size(); ++i) {
      const psv::core::RequirementSlack& rs = sv.slack.requirements[i];
      os << "  slack " << rs.requirement << " " << rs.slack_ms << "ms"
         << " bounded=" << (rs.bounded ? 1 : 0)
         << (i == sv.slack.binding_index ? " [binding]" : "") << "\n";
    }
  }
  return os.str();
}

struct Work {
  std::uint64_t fresh_states = 0;   ///< states_explored - warm_seed_expansions
  std::uint64_t reused = 0;         ///< warm_start_states_reused
  std::uint64_t revalidated = 0;    ///< states_revalidated
};

/// Exploration work of the SCHEME stages (constraints + bounds): the part
/// the warm start accelerates. The PIM stage is excluded — the unperturbed
/// PIM is served from the session-pool memo, which is the older story.
Work scheme_work(const psv::core::VerifyReport& report) {
  Work work;
  for (const psv::core::SchemeVerification& sv : report.schemes) {
    for (const psv::core::VerifyStageStats& s : sv.stages) {
      work.fresh_states += s.explore.states_explored - s.explore.warm_seed_expansions;
      work.reused += s.explore.warm_states_reused;
      work.revalidated += s.explore.warm_states_revalidated;
    }
  }
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }

  const auto model_source = psv::util::try_read_file(PSV_MODELS_DIR "pump.psv");
  const auto scheme_source = psv::util::try_read_file(PSV_MODELS_DIR "board.pss");
  if (!model_source || !scheme_source) {
    std::cerr << "bench_incremental: example models not found in " PSV_MODELS_DIR "\n";
    return 2;
  }

  // The one-constant perturbation: raise the StopInfusion device delay
  // ceiling 50 -> 55 ms. Only a clock-constraint bound changes, so the PSM
  // network digest (cache key) changes but the skeleton does not — exactly
  // the "structurally-related successor" the warm start targets. Upward so the
  // extrapolation constants are non-decreasing (downward edits revalidate
  // instead of reusing; see docs/PIPELINE.md).
  const std::string original_constant = "delay 10 50";
  const std::string perturbed_constant = "delay 10 55";
  const std::size_t at = scheme_source->find(original_constant);
  if (at == std::string::npos) {
    std::cerr << "bench_incremental: board.pss no longer contains '" << original_constant
              << "'; update the perturbation\n";
    return 2;
  }
  std::string perturbed = *scheme_source;
  perturbed.replace(at, original_constant.size(), perturbed_constant);

  const auto make_request = [&](const std::string& scheme) {
    psv::core::SourceRequest source;
    source.model_source = *model_source;
    source.scheme_sources = {scheme};
    source.requirements = {{"REQ1", "BolusReq", "StartInfusion", 500},
                           {"REQ2", "BolusReq", "StopInfusion", 2500}};
    return psv::core::to_verify_request(source);
  };

  bool reuse_ok = true, ratio_ok = true, values_ok = true;
  Work warm_work{}, cold_work{};

  try {
    // Baseline (publishes the ancestor), then the perturbed request warm
    // through the same Verifier; a fresh Verifier runs the cold reference.
    psv::core::Verifier verifier;
    verifier.verify(make_request(*scheme_source));
    const psv::core::VerifyReport warm = verifier.verify(make_request(perturbed));

    psv::core::Verifier cold_verifier;
    const psv::core::VerifyReport cold = cold_verifier.verify(make_request(perturbed));

    warm_work = scheme_work(warm);
    cold_work = scheme_work(cold);
    if (warm_work.reused == 0) {
      reuse_ok = false;
      std::cerr << "ERROR: warm run reused no ancestor states\n";
    }
    if (cold_work.fresh_states < 5 * warm_work.fresh_states) {
      ratio_ok = false;
      std::cerr << "ERROR: warm run explored " << warm_work.fresh_states << " fresh state(s) vs "
                << cold_work.fresh_states << " cold (need >= 5x)\n";
    }

    const std::string warm_values = value_lines(warm);
    const std::string cold_values = value_lines(cold);
    if (warm_values != cold_values) {
      values_ok = false;
      std::cerr << "ERROR: bounds/verdicts/slack values differ (warm vs cold)\n"
                << "--- warm ---\n" << warm_values << "--- cold ---\n" << cold_values;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_incremental: " << e.what() << "\n";
    return 2;
  }

  const double ratio = warm_work.fresh_states > 0
                           ? static_cast<double>(cold_work.fresh_states) /
                                 static_cast<double>(warm_work.fresh_states)
                           : static_cast<double>(cold_work.fresh_states);
  std::cerr << "warm: " << warm_work.fresh_states << " fresh state(s), " << warm_work.reused
            << " reused, " << warm_work.revalidated << " revalidated; cold: "
            << cold_work.fresh_states << " fresh state(s) (" << ratio << "x)\n";

  std::ostringstream os;
  {
    psv::json::Writer w(os);
    w.begin_object();
    w.field("model", "pump-incremental");
    w.field("perturbation", original_constant + " -> " + perturbed_constant);
    w.field("warm_fresh_states", warm_work.fresh_states);
    w.field("warm_start_states_reused", warm_work.reused);
    w.field("states_revalidated", warm_work.revalidated);
    w.field("cold_fresh_states", cold_work.fresh_states);
    w.field("fresh_state_ratio", ratio);
    w.field("reuse_nonzero", reuse_ok);
    w.field("ratio_at_least_5x", ratio_ok);
    w.field("values_identical", values_ok);
    w.end_object();
  }
  os << "\n";

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream out(out_path);
    out << os.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return reuse_ok && ratio_ok && values_ok ? 0 : 1;
}
