// Slack-surface benchmark gate: top-K critical-trace retention must be
// (nearly) free.
//
//   bench_slack [--jobs N] [--reps R] [--top-k K] [--out FILE]
//
// Runs the pump §V per-variable delay-bound batch twice through the sweep
// engine — once with ranked-trace retention disabled (top_k = 0, the plain
// sweep) and once retaining K ranked extremal witnesses per query — and
// compares the exploration work. Retention only changes the result payload,
// never the explored state space, so the gate is strict: the retaining run
// may cost at most 10% more explored states than the plain sweep (in
// practice the counts are identical), and every bound must be bit-identical
// with ranked[0] equal to it. Reports best-of-R wall time per configuration
// and emits a JSON document for the CI trendline. Exit code 1 on any gate
// failure.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pim.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/query.h"
#include "mc/session.h"
#include "mc/state.h"
#include "util/io.h"

namespace {

int usage() {
  std::cerr << "usage: bench_slack [--jobs N] [--reps R] [--top-k K] [--out FILE]\n";
  return 2;
}

struct RunResult {
  std::string name;
  double best_ms = 0.0;
  psv::mc::SessionStats session;
  std::vector<std::int64_t> bounds;
  std::size_t traces = 0;  ///< total ranked witnesses retained
};

}  // namespace

int main(int argc, char** argv) {
  unsigned jobs = 0;
  int reps = 3;
  int top_k = psv::mc::kDefaultTopK;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--top-k" && i + 1 < argc) {
      top_k = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (reps < 1 || top_k < 1 || top_k > psv::mc::kMaxTopK) return usage();

  const psv::ta::Network pim =
      psv::lang::parse_model(psv::util::read_file(PSV_MODELS_DIR "pump.psv"));
  const psv::core::PimInfo info = psv::core::analyze_pim(pim, "M", "ENV");
  const psv::core::PsmArtifacts psm = psv::core::transform(
      pim, info, psv::lang::parse_scheme(psv::util::read_file(PSV_MODELS_DIR "board.pss")));

  // The §V per-variable workload: one Input-/Output-Delay query per probe.
  std::vector<psv::mc::BoundQuery> batch;
  for (const psv::core::InputArtifacts& in : psm.inputs) {
    psv::mc::BoundQuery q;
    q.pred = psv::mc::when(psv::ta::var_eq(in.pending, 1));
    q.clock = in.delay_clock;
    q.limit = 100'000;
    q.hint = 490;
    batch.push_back(std::move(q));
  }
  for (const psv::core::OutputArtifacts& out : psm.outputs) {
    psv::mc::BoundQuery q;
    q.pred = psv::mc::when(psv::ta::var_eq(out.pending, 1));
    q.clock = out.delay_clock;
    q.limit = 100'000;
    q.hint = 440;
    batch.push_back(std::move(q));
  }

  struct Config {
    const char* name;
    int top_k;
  };
  const Config kConfigs[] = {{"plain", 0}, {"top-k", top_k}};

  std::vector<RunResult> results;
  for (const Config& config : kConfigs) {
    RunResult r;
    r.name = config.name;
    std::vector<psv::mc::BoundQuery> queries = batch;
    for (psv::mc::BoundQuery& q : queries) q.top_k = config.top_k;
    for (int rep = 0; rep < reps; ++rep) {
      psv::mc::ExploreOptions opts;
      opts.jobs = jobs;
      psv::mc::VerificationSession session(psm.psm, opts);
      const auto start = std::chrono::steady_clock::now();
      const std::vector<psv::mc::MaxClockResult> answers = session.max_clock_values(queries);
      const auto stop = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || ms < r.best_ms) r.best_ms = ms;
      r.session = session.stats();
      r.bounds.clear();
      r.traces = 0;
      for (const psv::mc::MaxClockResult& a : answers) {
        r.bounds.push_back(a.bounded ? a.bound : -1);
        r.traces += a.ranked.size();
        if (config.top_k > 0 && a.bounded && !a.ranked.empty() && a.ranked.front().value != a.bound) {
          std::cerr << "ERROR: ranked[0] disagrees with the bound\n";
          return 1;
        }
      }
    }
    std::cerr << "config=" << r.name << " best=" << r.best_ms
              << "ms states_explored=" << r.session.explore.states_explored
              << " traces=" << r.traces << "\n";
    results.push_back(std::move(r));
  }

  const RunResult& plain = results[0];
  const RunResult& retain = results[1];
  const bool identical = plain.bounds == retain.bounds;
  const double overhead =
      plain.session.explore.states_explored > 0
          ? static_cast<double>(retain.session.explore.states_explored) /
                static_cast<double>(plain.session.explore.states_explored)
          : 0.0;
  const bool overhead_ok = overhead <= 1.10;
  const bool traces_ok = retain.traces > 0 && plain.traces == 0;

  std::ostringstream json;
  json << "{\n  \"model\": \"pump-psm-sectionV-slack\",\n  \"reps\": " << reps
       << ",\n  \"jobs\": " << jobs << ",\n  \"top_k\": " << top_k
       << ",\n  \"bounds_identical\": " << (identical ? "true" : "false")
       << ",\n  \"state_overhead_ratio\": " << overhead
       << ",\n  \"retained_traces\": " << retain.traces << ",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"config\": \"" << r.name << "\", \"best_ms\": " << r.best_ms
         << ", \"explorations\": " << r.session.explorations
         << ", \"states_explored\": " << r.session.explore.states_explored
         << ", \"states_stored\": " << r.session.explore.states_stored
         << ", \"traces\": " << r.traces << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (out_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(out_path);
    out << json.str();
    std::cout << "wrote " << out_path << "\n";
  }
  if (!identical) {
    std::cerr << "ERROR: retention changed a bound\n";
    return 1;
  }
  if (!traces_ok) {
    std::cerr << "ERROR: expected ranked traces with top-k and none without\n";
    return 1;
  }
  if (!overhead_ok) {
    std::cerr << "ERROR: top-K retention cost " << (overhead - 1.0) * 100.0
              << "% extra explored states (gate: 10%)\n";
    return 1;
  }
  return 0;
}
