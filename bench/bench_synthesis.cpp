// Scheme-synthesis benchmark + gate: amortized search over a 200-candidate
// pump lattice.
//
//   bench_synthesis [--out FILE]
//
// A cold probe first verifies the pump model (pump.psv + board.pss) against
// "SREQ: BolusReq -> StopInfusion" to learn the base verified delay D and
// the cost of ONE cold exploration. The benchmark then sweeps the
// StopInfusion device-delay ceiling across 200 candidates
// (delay 10 sweep 50..1045 step 5) against the bound D + 10 — tight enough
// that only the first few candidates satisfy it and every slower candidate
// is dominance-pruned behind the first explored failure.
//
// Gates (exit 1 on violation, 2 on usage/setup errors), each checked at
// every synthesis worker count in {1, 2, 8}:
//
//   * AMORTIZATION: the whole sweep explores at most 2x one cold
//     exploration's fresh states (fresh = states_explored -
//     warm_seed_expansions, summed over explored candidates) — every
//     evaluation after the first warm-starts from the pinned ancestor;
//   * the run prunes candidates by dominance (pruned_dominated > 0) and
//     adopts ancestor states (warm_states_reused > 0);
//   * the frontier ('frontier:' lines) is byte-identical across worker
//     counts.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/report_serde.h"
#include "core/service.h"
#include "core/synth.h"
#include "util/io.h"
#include "util/json.h"

namespace {

int usage() {
  std::cerr << "usage: bench_synthesis [--out FILE]\n";
  return 2;
}

/// Fresh states of a verify report's SCHEME stages (the part synthesis
/// amortizes; the PIM stage is shared per model anyway).
std::uint64_t scheme_fresh_states(const psv::core::VerifyReport& report) {
  std::uint64_t fresh = 0;
  for (const psv::core::SchemeVerification& sv : report.schemes)
    for (const psv::core::VerifyStageStats& s : sv.stages)
      fresh += s.explore.states_explored - s.explore.warm_seed_expansions;
  return fresh;
}

std::uint64_t warm_reused(const psv::core::SynthReport& report) {
  std::uint64_t reused = 0;
  for (const psv::core::CandidateOutcome& c : report.candidates)
    reused += c.explore.warm_states_reused;
  return reused;
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
    std::cerr << "bench_synthesis: example models not found in " PSV_MODELS_DIR "\n";
    return 2;
  }

  // The swept position: the StopInfusion device-delay ceiling, the same
  // clock-constant bench_incremental perturbs — every candidate keeps the
  // PSM skeleton, so all of them can warm-start from the first exploration.
  const std::string original_constant = "delay 10 50";
  const std::string sweep_constant = "delay 10 sweep 50..1045 step 5";  // 200 values
  const std::size_t at = scheme_source->find(original_constant);
  if (at == std::string::npos) {
    std::cerr << "bench_synthesis: board.pss no longer contains '" << original_constant
              << "'; update the sweep\n";
    return 2;
  }
  std::string template_source = *scheme_source;
  template_source.replace(at, original_constant.size(), sweep_constant);

  bool budget_ok = true, prune_ok = true, reuse_ok = true, frontier_ok = true;
  std::uint64_t cold_fresh = 0;
  std::int64_t bound_ms = 0;
  psv::core::SynthStats first_stats;
  std::uint64_t first_reused = 0;
  double ratio_max = 0.0;
  std::string reference_frontier;

  try {
    // Cold probe: the base scheme through a fresh Verifier. Its verified
    // delay D anchors the synthesis bound at D + 10 (so only the first few
    // candidates pass), and its scheme-stage work is the "one cold
    // exploration" the amortization budget is measured against.
    psv::core::SourceRequest probe;
    probe.model_source = *model_source;
    probe.scheme_sources = {*scheme_source};
    probe.requirements = {{"SREQ", "BolusReq", "StopInfusion", 1'000'000}};
    psv::core::Verifier probe_verifier;
    const psv::core::VerifyReport probe_report =
        probe_verifier.verify(psv::core::to_verify_request(probe));
    const psv::core::RequirementResult& probe_result =
        probe_report.schemes.front().requirements.front();
    if (!probe_result.bounds.verified_mc_bounded) {
      std::cerr << "bench_synthesis: probe delay unbounded; model changed?\n";
      return 2;
    }
    cold_fresh = scheme_fresh_states(probe_report);
    bound_ms = probe_result.bounds.verified_mc_delay + 10;

    const unsigned kWorkerCounts[] = {1, 2, 8};
    for (const unsigned workers : kWorkerCounts) {
      psv::core::SourceSynthRequest source;
      source.model_source = *model_source;
      source.template_source = template_source;
      source.requirements = {{"SREQ", "BolusReq", "StopInfusion", bound_ms}};
      source.synth.workers = workers;

      // A fresh Verifier per worker count: every run pays its own cold
      // exploration, so the budget and the frontier are measured honestly.
      psv::core::Verifier verifier;
      psv::core::SchemeSynthesizer synthesizer(verifier);
      const psv::core::SynthReport report =
          synthesizer.run(psv::core::to_synth_request(source));

      const std::uint64_t reused = warm_reused(report);
      const double ratio = static_cast<double>(report.stats.fresh_states) /
                           static_cast<double>(cold_fresh);
      if (ratio > ratio_max) ratio_max = ratio;
      if (workers == kWorkerCounts[0]) {
        first_stats = report.stats;
        first_reused = reused;
      }

      if (report.stats.fresh_states > 2 * cold_fresh) {
        budget_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": sweep explored "
                  << report.stats.fresh_states << " fresh state(s) vs " << cold_fresh
                  << " for one cold exploration (" << ratio << "x, need <= 2x)\n";
      }
      if (report.stats.pruned_dominated == 0) {
        prune_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": no candidate was dominance-pruned\n";
      }
      if (reused == 0) {
        reuse_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": no ancestor states were reused\n";
      }

      const std::string frontier = report.frontier_text();
      if (reference_frontier.empty()) reference_frontier = frontier;
      if (frontier != reference_frontier) {
        frontier_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": frontier differs from workers="
                  << kWorkerCounts[0] << "\n--- workers=" << workers << " ---\n"
                  << frontier << "--- reference ---\n" << reference_frontier;
      }
      std::cerr << "workers=" << workers << ": " << report.stats.candidates_total
                << " candidate(s): " << report.stats.explored_cold << " cold, "
                << report.stats.explored_warm << " warm, " << report.stats.pruned_dominated
                << " dominated, " << report.stats.pruned_analytic << " analytic; "
                << report.stats.fresh_states << " fresh state(s) (" << ratio
                << "x cold), " << reused << " reused\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_synthesis: " << e.what() << "\n";
    return 2;
  }

  std::ostringstream os;
  {
    psv::json::Writer w(os);
    w.begin_object();
    w.field("model", "pump-synthesis");
    w.field("sweep", sweep_constant);
    w.field("bound_ms", bound_ms);
    w.field("candidates_total", first_stats.candidates_total);
    w.field("pruned_analytic", first_stats.pruned_analytic);
    w.field("pruned_dominated", first_stats.pruned_dominated);
    w.field("explored_cold", first_stats.explored_cold);
    w.field("explored_warm", first_stats.explored_warm);
    w.field("fresh_states", first_stats.fresh_states);
    w.field("warm_states_reused", first_reused);
    w.field("cold_fresh_states", cold_fresh);
    w.field("fresh_state_ratio_max_over_workers", ratio_max);
    w.field("budget_within_2x_cold", budget_ok);
    w.field("pruned_dominated_nonzero", prune_ok);
    w.field("reuse_nonzero", reuse_ok);
    w.field("frontier_identical", frontier_ok);
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
  return budget_ok && prune_ok && reuse_ok && frontier_ok ? 0 : 1;
}
