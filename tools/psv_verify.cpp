// psv_verify — command-line front end of the batched Verifier service.
//
//   psv_verify MODEL.psv SCHEME.pss "REQ: in -> out within MS" ["REQ2..."]
//              [options]
//   psv_verify --batch JOBS.psvb [options]
//
// The first form checks one model/scheme pair against one or more timing
// requirements; the second runs a whole manifest of jobs (each naming a
// model, one or more candidate schemes, and a requirement set) through one
// shared Verifier — sessions and the artifact cache are reused across jobs.
// All requirements of a job are answered from shared exploration work: one
// instrumented PIM sweep for stage 1 and one combined PSM sweep for the
// constraints and every delay bound.
//
// With --connect HOST:PORT the same invocations run against a psv_serve
// daemon instead of in-process: requests travel as sources over the wire
// protocol (net/wire.h), batch jobs are pipelined on one connection, and
// the printed reports, verdict/slack lines, --stats-json contents, and exit
// codes are byte-identical to the in-process run (wall-clock fields aside).
//
// Exit status: 0 when every requirement passes (constraints hold and the
// relaxed bound delta'_mc is met), 1 when ANY requirement fails, 2 on
// usage or input errors. One "verdict:" line is printed per requirement.
//
// With a cache directory (--cache-dir, or the PSV_CACHE_DIR environment
// variable), verification artifacts persist across invocations: a repeat
// run on an unchanged model answers every bound and constraint without
// exploring a single state.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codegen/cemit.h"
#include "core/report_serde.h"
#include "core/service.h"
#include "core/synth.h"
#include "lang/manifest.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "monitor/cmon.h"
#include "monitor/monitor.h"
#include "net/client.h"
#include "sim/event_tap.h"
#include "sim/runner.h"
#include "ta/print.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/io.h"
#include "util/json.h"
#include "util/table.h"

namespace {

struct CliOptions {
  std::string batch_path;
  std::string connect;  ///< HOST:PORT of a psv_serve daemon; empty = in-process
  std::string model_path;
  std::string scheme_path;
  std::vector<std::string> requirement_texts;
  bool synth = false;           ///< scheme synthesis: SCHEME.pss is a template
  unsigned synth_workers = 0;   ///< candidate-level workers (0 = auto)
  bool no_prune = false;        ///< disable analytic + dominance pruning
  std::uint64_t visit_seed = 0; ///< nonzero = shuffled candidate visit order
  int sim_scenarios = 0;
  std::uint64_t seed = 2015;
  std::int64_t limit = 1'000'000;
  unsigned jobs = 0;  // 0 = one per hardware thread
  bool print_psm = false;
  bool slack_detail = false;
  int top_k = -1;  // -1 = the service default (mc::kDefaultTopK)
  std::string stats_json_path;
  std::string cache_dir;
  bool no_cache = false;
  std::string emit_code_path;     ///< write generated C for the PIM
  std::string emit_monitor_path;  ///< write the generated C99 runtime monitor
  bool monitor_check = false;     ///< replay critical traces through the monitor
  std::string monitor_events_path;  ///< dump the replayed event streams
};

/// The flag registry shared semantics with psv_serve live in util/cli; this
/// builds psv_verify's instance over `cli`.
psv::cli::Parser make_parser(CliOptions& cli) {
  psv::cli::Parser parser(
      "psv_verify",
      "usage: psv_verify MODEL.psv SCHEME.pss \"REQ: in -> out within MS\" [\"REQ2...\"]\n"
      "                  [options]\n"
      "       psv_verify --batch JOBS.psvb [options]\n"
      "       psv_verify --synth MODEL.psv TEMPLATE.pss \"REQ...\" [options]\n"
      "\n"
      "Checks every given timing requirement; all requirements of a job are\n"
      "answered from shared exploration work (one PIM sweep, one combined PSM\n"
      "sweep). A manifest job may list several candidate schemes — they share\n"
      "the PIM verification and compete in a comparison report. With --synth\n"
      "the scheme file is a TEMPLATE with sweep ranges; the whole candidate\n"
      "lattice is searched and the Pareto + feasibility frontiers printed.");
  parser.flag("--batch", &cli.batch_path, "FILE",
              "run the .psvb manifest FILE (jobs of model/scheme/req\n"
              "lines; paths resolve relative to the manifest)");
  parser.flag("--connect", &cli.connect, "HOST:PORT",
              "send the requests to a psv_serve daemon instead of\n"
              "verifying in-process; batch jobs are pipelined on one\n"
              "connection and reports are identical to a local run");
  parser.flag("--synth", &cli.synth,
              "scheme synthesis: SCHEME.pss is a TEMPLATE whose fields\n"
              "may carry 'sweep LO..HI step S' ranges; the candidate\n"
              "lattice is searched in parallel with warm-start sharing\n"
              "and pruning, and the Pareto + feasibility frontiers are\n"
              "printed as 'frontier:' lines");
  parser.flag("--synth-workers", &cli.synth_workers, "N",
              "candidate-level synthesis workers (default: auto;\n"
              "frontiers are identical for every value)");
  parser.flag("--no-prune", &cli.no_prune,
              "synthesis: explore every candidate instead of pruning\n"
              "(identical frontiers, more work)");
  parser.flag("--visit-seed", &cli.visit_seed, "S",
              "synthesis: nonzero S visits candidates in a seeded\n"
              "shuffled order instead of nearest-neighbour (frontiers\n"
              "are identical for every order)");
  parser.flag("--sim", &cli.sim_scenarios, "N",
              "additionally run N simulated scenarios per requirement\n"
              "(single-model form only)");
  parser.flag("--seed", &cli.seed, "S",
              "simulation seed (default 2015; single-model form only)");
  parser.flag("--limit", &cli.limit, "MS", "delay-search ceiling (default 1000000)");
  parser.flag("--print-psm", &cli.print_psm,
              "dump the constructed PSM before verifying\n"
              "(single-model form only)");
  parser.flag("--jobs", &cli.jobs, "N",
              "threads for the bound sweep's widening candidates,\n"
              "at most 3 (default: all hardware threads; 1 =\n"
              "single-threaded; each exploration runs on one\n"
              "thread; results are identical for every value)");
  parser.flag("--slack", &cli.slack_detail,
              "print the detailed slack report per scheme: the\n"
              "top-K critical traces of every requirement's M-C\n"
              "probe (one 'slack:' line per requirement is always\n"
              "printed, like 'verdict:')");
  parser.flag_custom("--top-k", "N",
                     "ranked critical traces retained per bound query\n"
                     "(default 4, max 16; 0 disables trace retention)",
                     [&cli](const std::string& value) {
                       int parsed = -1;
                       try {
                         parsed = std::stoi(value);
                       } catch (const std::exception&) {
                         PSV_FAIL_AS(psv::ErrorCode::kParse,
                                     "--top-k expects a number, got '" + value + "'");
                       }
                       PSV_REQUIRE_AS(psv::ErrorCode::kParse,
                                      parsed >= 0 && parsed <= psv::mc::kMaxTopK,
                                      "--top-k expects a value in [0, " +
                                          std::to_string(psv::mc::kMaxTopK) + "]");
                       cli.top_k = parsed;
                     });
  parser.flag("--emit-code", &cli.emit_code_path, "FILE",
              "write the generated C implementation of the PIM\n"
              "(codegen::emit_c, with a demo main) to FILE\n"
              "(single-model form only)");
  parser.flag("--emit-monitor", &cli.emit_monitor_path, "FILE",
              "write a self-contained C99 runtime monitor enforcing\n"
              "the verified delay bounds to FILE; refused (typed\n"
              "model error) when any requirement FAILed — only PASS\n"
              "cells are enforceable (single-model form only)");
  parser.flag("--monitor-check", &cli.monitor_check,
              "replay every retained critical trace through the\n"
              "in-process runtime monitor: concretize the worst-case\n"
              "event schedule and print 'monitor:' verdict lines\n"
              "(PASS traces must be accepted; FAIL traces must be\n"
              "flagged at the exact violation timestamp); needs\n"
              "--top-k >= 1");
  parser.flag("--monitor-events", &cli.monitor_events_path, "FILE",
              "with --monitor-check: dump the concretized event\n"
              "streams (TRACE/OBS/END lines) to FILE — the input\n"
              "format of the generated monitor's PSV_MON_MAIN driver");
  parser.flag("--stats-json", &cli.stats_json_path, "FILE",
              "write per-stage statistics (wall clock, states\n"
              "stored/explored, explorations, warm-start reuse,\n"
              "cache state) as JSON; batch runs add a per-job\n"
              "breakdown, --connect runs add the daemon counters");
  parser.flag("--cache-dir", &cli.cache_dir, "DIR",
              "persist verification artifacts in DIR, keyed on the\n"
              "model's exact network digest: a repeat run on an\n"
              "unchanged model re-verifies without exploration.\n"
              "Ignored with --connect: the daemon's own --cache-dir\n"
              "applies");
  parser.env_fallback("--cache-dir", "PSV_CACHE_DIR");
  parser.flag("--no-cache", &cli.no_cache, "ignore $PSV_CACHE_DIR and run without the cache");
  parser.epilog(
      "One 'verdict:' line is printed per requirement. Exit status: 0 when every\n"
      "requirement passes (constraints C1-C4 hold and the relaxed bound is met),\n"
      "1 when any requirement fails, 2 on usage or input errors.\n"
      "\n"
      "With --synth, SCHEME.pss is a template: one 'frontier:' line is printed\n"
      "per Pareto-optimal satisfying candidate and per requirement's feasibility\n"
      "bound. Exit status: 0 when at least one candidate satisfies every\n"
      "requirement, 1 when none does, 2 on usage or input errors.");
  return parser;
}

/// One unit of work: a request as sources, plus presentation metadata.
struct Job {
  std::string name;        ///< manifest job name, or the model path
  std::string model_path;  ///< resolved path (for --stats-json)
  std::string header;      ///< batch jobs announce themselves; empty = none
  psv::core::SourceRequest source;
};

/// One executed job: the request's inputs plus its report.
struct JobOutcome {
  std::string name;
  std::string model_path;
  psv::core::VerifyReport report;
};

/// One synthesis unit: a template sweep as sources, plus presentation data.
struct SynthJob {
  std::string name;
  std::string model_path;
  std::string header;  ///< batch jobs announce themselves; empty = none
  psv::core::SourceSynthRequest source;
};

/// One executed synthesis job.
struct SynthOutcome {
  std::string name;
  std::string model_path;
  psv::core::SynthReport report;
};

/// Directory prefix of `path` including the trailing separator, "" if none.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

/// Resolve a manifest-relative path (absolute paths pass through).
std::string resolve(const std::string& base_dir, const std::string& path) {
  if (!path.empty() && path.front() == '/') return path;
  return base_dir + path;
}

void write_stage(psv::json::Writer& w, const psv::core::VerifyStageStats& s) {
  w.begin_object();
  w.field("name", s.name);
  w.field("wall_ms", s.wall_ms);
  w.field("explorations", s.explorations);
  w.field("states_stored", s.explore.states_stored);
  w.field("states_explored", s.explore.states_explored);
  w.field("transitions_fired", s.explore.transitions_fired);
  w.field("subsumed", s.explore.subsumed);
  w.field("warm_start_states_reused", s.explore.warm_states_reused);
  w.field("states_revalidated", s.explore.warm_states_revalidated);
  w.field("warm_seed_expansions", s.explore.warm_seed_expansions);
  w.field("cache", s.cache.state());
  w.field("cache_hits", s.cache.hits);
  w.field("cache_misses", s.cache.misses);
  w.field("cache_stores", s.cache.stores);
  w.end_object();
}

void write_requirement(psv::json::Writer& w, const psv::core::SchemeVerification& sv,
                       std::size_t index) {
  const psv::core::RequirementResult& r = sv.requirements[index];
  w.begin_object();
  w.field("name", r.requirement.name);
  w.field("input", r.requirement.input);
  w.field("output", r.requirement.output);
  w.field("bound_ms", r.requirement.bound_ms);
  w.field("pim_max_delay", r.pim.max_delay);
  w.field("lemma2_total", r.bounds.lemma2_total);
  w.field("psm_mc_delay", r.bounds.verified_mc_delay);
  w.field("psm_mc_bounded", r.bounds.verified_mc_bounded);
  w.field("meets_original", r.psm_meets_original);
  w.field("meets_relaxed", r.psm_meets_relaxed);
  w.field("passed", r.passed);
  if (index < sv.slack.requirements.size()) {
    const psv::core::RequirementSlack& rs = sv.slack.requirements[index];
    w.field("slack_ms", rs.slack_ms);
    w.field("slack_bounded", rs.bounded);
    w.field("binding", sv.slack.binding_index == index);
    w.field("critical_traces", rs.critical.size());
  }
  w.end_object();
}

/// Summed warm-start state reuse over a report's explored candidates (the
/// CI smoke gate asserts this is nonzero).
std::uint64_t synth_warm_reused(const psv::core::SynthReport& report) {
  std::uint64_t warm_reused = 0;
  for (const psv::core::CandidateOutcome& c : report.candidates)
    warm_reused += c.explore.warm_states_reused;
  return warm_reused;
}

/// The synthesis counters the CI gates read.
void write_synth_counters(psv::json::Writer& w, const psv::core::SynthStats& stats,
                          std::uint64_t warm_reused) {
  w.field("candidates_total", stats.candidates_total);
  w.field("pruned_analytic", stats.pruned_analytic);
  w.field("pruned_dominated", stats.pruned_dominated);
  w.field("explored_cold", stats.explored_cold);
  w.field("explored_warm", stats.explored_warm);
  w.field("fresh_states", stats.fresh_states);
  w.field("warm_states_reused", warm_reused);
}

/// The stats JSON: the historical single-run fields (model, requirement,
/// verified, stages — read by the CI gates) describe the FIRST job's first
/// scheme/requirement; the "batch" array carries every job in full. Synthesis
/// runs add a "synthesis" object (aggregate counters + per-job breakdown with
/// the Pareto and feasibility frontiers).
void write_stats_json(const std::string& path, const std::vector<JobOutcome>& outcomes,
                      const std::vector<SynthOutcome>& synth_outcomes,
                      unsigned jobs, double total_wall_ms,
                      const std::string& cache_dir,
                      const std::optional<psv::net::ServerStats>& server_stats) {
  std::ofstream out(path);
  PSV_REQUIRE_AS(psv::ErrorCode::kIo, out.good(), "cannot write '" + path + "'");

  int cache_hits = 0, cache_misses = 0, cache_stores = 0;
  std::size_t warm_reused = 0, revalidated = 0;
  for (const JobOutcome& job : outcomes) {
    for (const psv::core::VerifyStageStats& s : job.report.pim_stages) {
      cache_hits += s.cache.hits;
      cache_misses += s.cache.misses;
      cache_stores += s.cache.stores;
      warm_reused += s.explore.warm_states_reused;
      revalidated += s.explore.warm_states_revalidated;
    }
    for (const psv::core::SchemeVerification& sv : job.report.schemes) {
      for (const psv::core::VerifyStageStats& s : sv.stages) {
        cache_hits += s.cache.hits;
        cache_misses += s.cache.misses;
        cache_stores += s.cache.stores;
        warm_reused += s.explore.warm_states_reused;
        revalidated += s.explore.warm_states_revalidated;
      }
    }
  }

  // Synthesis-only runs have no verify outcomes; the historical first-job
  // fields are then omitted and "model" names the first synthesis job.
  const JobOutcome* first = outcomes.empty() ? nullptr : &outcomes.front();

  psv::json::Writer w(out);
  w.begin_object();
  w.field("model", first != nullptr ? first->model_path : synth_outcomes.front().model_path);
  if (first != nullptr)
    w.field("requirement",
            first->report.schemes.front().requirements.front().requirement.name);
  w.field("jobs", jobs);
  w.field("total_wall_ms", total_wall_ms);
  w.key("cache");
  w.begin_object();
  w.field("enabled", !cache_dir.empty());
  w.field("dir", cache_dir);
  w.field("hits", cache_hits);
  w.field("misses", cache_misses);
  w.field("stores", cache_stores);
  w.end_object();
  // Incremental-exploration totals over every stage of every job.
  w.field("warm_start_states_reused", warm_reused);
  w.field("states_revalidated", revalidated);
  if (server_stats.has_value()) {
    w.key("server");
    w.begin_object();
    w.field("requests_received", server_stats->requests_received);
    w.field("requests_ok", server_stats->requests_ok);
    w.field("sessions_pooled", server_stats->sessions_pooled);
    w.field("explorations_total", server_stats->explorations_total);
    w.field("cache_hits_total", server_stats->cache_hits_total);
    w.field("cache_misses_total", server_stats->cache_misses_total);
    w.field("warm_starts", server_stats->warm_starts);
    w.field("states_reused", server_stats->states_reused);
    w.end_object();
  }
  if (first != nullptr) {
    const psv::core::SchemeVerification& first_scheme = first->report.schemes.front();
    const psv::core::RequirementResult& first_req = first_scheme.requirements.front();
    w.key("verified");
    w.begin_object();
    w.field("pim_max_delay", first_req.pim.max_delay);
    w.field("lemma2_total", first_req.bounds.lemma2_total);
    w.field("psm_mc_delay", first_req.bounds.verified_mc_delay);
    w.field("constraints_hold", first_scheme.constraints.all_hold());
    w.field("meets_relaxed", first_req.psm_meets_relaxed);
    if (!first_scheme.slack.requirements.empty()) {
      w.field("slack_ms", first_scheme.slack.requirements.front().slack_ms);
      w.field("binding_requirement", first_scheme.slack.binding().requirement);
    }
    w.end_object();
    // Legacy pipeline-order stage list of the first job's first scheme.
    w.key("stages");
    w.begin_array();
    for (const psv::core::VerifyStageStats& s : first->report.pim_stages) write_stage(w, s);
    for (const psv::core::VerifyStageStats& s : first_scheme.stages) write_stage(w, s);
    w.end_array();
  }
  if (!synth_outcomes.empty()) {
    // Aggregate synthesis counters (CI gates grep these), then per job the
    // counters plus both frontiers.
    psv::core::SynthStats totals;
    std::uint64_t total_warm_reused = 0;
    for (const SynthOutcome& job : synth_outcomes) {
      totals.candidates_total += job.report.stats.candidates_total;
      totals.pruned_analytic += job.report.stats.pruned_analytic;
      totals.pruned_dominated += job.report.stats.pruned_dominated;
      totals.explored_cold += job.report.stats.explored_cold;
      totals.explored_warm += job.report.stats.explored_warm;
      totals.fresh_states += job.report.stats.fresh_states;
      total_warm_reused += synth_warm_reused(job.report);
    }
    w.key("synthesis");
    w.begin_object();
    write_synth_counters(w, totals, total_warm_reused);
    w.key("jobs");
    w.begin_array();
    for (const SynthOutcome& job : synth_outcomes) {
      w.begin_object();
      w.field("job", job.name);
      w.field("model", job.model_path);
      write_synth_counters(w, job.report.stats, synth_warm_reused(job.report));
      w.key("pareto");
      w.begin_array();
      for (std::size_t index : job.report.pareto) {
        w.begin_object();
        w.field("name", job.report.candidates[index].name);
        w.key("delays");
        w.begin_array();
        for (std::int64_t d : job.report.candidates[index].delays) w.value(d);
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.key("feasibility");
      w.begin_array();
      for (const psv::core::FeasibilityEntry& f : job.report.feasibility) {
        w.begin_object();
        w.field("requirement", f.requirement);
        w.field("bounded", f.bounded);
        w.field("tightest_ms", f.tightest_ms);
        w.field("witness", f.witness);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  // Full per-job breakdown.
  w.key("batch");
  w.begin_array();
  for (const JobOutcome& job : outcomes) {
    w.begin_object();
    w.field("job", job.name);
    w.field("model", job.model_path);
    w.field("all_passed", job.report.all_passed());
    w.key("pim_stages");
    w.begin_array();
    for (const psv::core::VerifyStageStats& s : job.report.pim_stages) write_stage(w, s);
    w.end_array();
    w.key("schemes");
    w.begin_array();
    for (const psv::core::SchemeVerification& sv : job.report.schemes) {
      w.begin_object();
      w.field("name", sv.scheme_name);
      w.field("constraints_hold", sv.constraints.all_hold());
      if (!sv.slack.requirements.empty()) {
        w.field("binding_requirement", sv.slack.binding().requirement);
        w.field("min_slack_ms", sv.slack.min_slack_ms);
      }
      w.key("stages");
      w.begin_array();
      for (const psv::core::VerifyStageStats& s : sv.stages) write_stage(w, s);
      w.end_array();
      w.key("requirements");
      w.begin_array();
      for (std::size_t i = 0; i < sv.requirements.size(); ++i) write_requirement(w, sv, i);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

/// Per-requirement verdict lines (the documented machine-greppable output),
/// each followed by its slack margin; the scheme's binding (tightest)
/// requirement is marked.
void print_verdicts(const JobOutcome& job) {
  for (const psv::core::SchemeVerification& sv : job.report.schemes) {
    for (const psv::core::RequirementResult& r : sv.requirements) {
      std::cout << "verdict: " << (r.passed ? "PASS" : "FAIL") << " " << r.requirement.name
                << " (" << r.requirement.input << " -> " << r.requirement.output << " within "
                << r.requirement.bound_ms << "ms, scheme " << sv.scheme_name << ")\n";
    }
    for (std::size_t i = 0; i < sv.slack.requirements.size(); ++i) {
      const psv::core::RequirementSlack& rs = sv.slack.requirements[i];
      std::cout << "slack: " << rs.requirement << " " << (rs.bounded ? "" : "<=")
                << rs.slack_ms << "ms (scheme " << sv.scheme_name << ")"
                << (i == sv.slack.binding_index ? " [binding]" : "") << "\n";
    }
  }
}

/// The --slack detail: per scheme, every requirement's margin plus its
/// top-K critical traces (most critical first).
void print_slack_detail(const JobOutcome& job, int top_k) {
  const std::size_t shown =
      static_cast<std::size_t>(top_k >= 0 ? top_k : psv::mc::kDefaultTopK);
  for (const psv::core::SchemeVerification& sv : job.report.schemes) {
    std::cout << "--- slack report (scheme " << sv.scheme_name << ") ---\n"
              << sv.slack.to_string(shown);
  }
}

void run_simulation(const psv::ta::Network& pim, const psv::core::PimInfo& info,
                    const psv::core::ImplementationScheme& scheme,
                    const psv::core::TimingRequirement& req, int scenarios, std::uint64_t seed,
                    std::int64_t lemma2_total) {
  psv::sim::MeasurementConfig config;
  config.scenarios = scenarios;
  config.seed = seed;
  const psv::sim::MeasurementSummary measured =
      psv::sim::measure_requirement(pim, info, scheme, req, config);
  psv::TextTable table("simulated measurements for " + req.name + " (" +
                       std::to_string(scenarios) + " scenarios, seed " + std::to_string(seed) +
                       ")");
  table.set_header({"delay", "avg", "max", "min"});
  table.set_align({psv::Align::kLeft, psv::Align::kRight, psv::Align::kRight,
                   psv::Align::kRight});
  table.add_row({"M-C", psv::fmt_ms(measured.mc.mean), psv::fmt_ms(measured.mc.max),
                 psv::fmt_ms(measured.mc.min)});
  table.add_row({"Input", psv::fmt_ms(measured.mi.mean), psv::fmt_ms(measured.mi.max),
                 psv::fmt_ms(measured.mi.min)});
  table.add_row({"Output", psv::fmt_ms(measured.oc.mean), psv::fmt_ms(measured.oc.max),
                 psv::fmt_ms(measured.oc.min)});
  std::cout << table.render();
  std::cout << "violations of P(" << req.bound_ms
            << "): " << measured.violations(static_cast<double>(req.bound_ms)) << "/"
            << scenarios << "\n";
  std::cout << "measured max within verified bound? "
            << (measured.mc.max <= static_cast<double>(lemma2_total) ? "yes" : "NO") << "\n";
}

/// --monitor-check: replay every retained critical trace through the
/// in-process runtime monitor. Each trace is concretized into a worst-case
/// timestamped event schedule (sim::tap_trace) and streamed through a
/// single-requirement DelayMonitor — the trace maximizes THIS requirement's
/// probe, so other requirements' obligations are not meaningful on it. The
/// monitor verdict must agree with the verified delay: traces at or under
/// the bound are accepted, traces over it are flagged (at the exact
/// violation timestamp); disagreement is an internal error (exit 2).
void run_monitor_check(const JobOutcome& outcome, const psv::ta::Network& pim,
                       const psv::core::PimInfo& info,
                       const psv::core::ImplementationScheme& scheme,
                       const std::string& events_path) {
  const psv::core::VerifyReport& report = outcome.report;
  // The critical traces were recorded on the probe-instrumented PSM;
  // rebuild it (the transform is deterministic) to replay them.
  psv::core::PsmArtifacts psm = psv::core::transform(pim, info, scheme);
  psv::core::InstrumentedPsmBatch batch =
      psv::core::instrument_psm_for_requirements(psm, report.requirements);
  const psv::core::SchemeVerification& sv = report.schemes.front();
  std::ofstream events_out;
  if (!events_path.empty()) {
    events_out.open(events_path);
    PSV_REQUIRE_AS(psv::ErrorCode::kIo, events_out.good(), "cannot write '" + events_path + "'");
  }
  for (std::size_t r = 0; r < sv.slack.requirements.size(); ++r) {
    const psv::core::RequirementSlack& rs = sv.slack.requirements[r];
    const psv::core::RequirementResult& rr = sv.requirements[r];
    psv::monitor::MonitorSpec spec;
    spec.scheme = sv.scheme_name;
    spec.requirements.push_back({rr.requirement.name, rr.requirement.input,
                                 rr.requirement.output, rr.requirement.bound_ms,
                                 rr.bounds.verified_mc_delay, rr.passed});
    for (std::size_t k = 0; k < rs.critical.size(); ++k) {
      const psv::core::CriticalTrace& ct = rs.critical[k];
      psv::sim::TapResult tap = psv::sim::tap_trace(batch.net, ct.trace, rs.witness_consts,
                                                    batch.mc_probes[r].clock);
      PSV_REQUIRE_AS(psv::ErrorCode::kInternal, tap.ok,
                     "monitor-check: cannot concretize critical trace " + std::to_string(k) +
                         " of " + rr.requirement.name + ": " + tap.error);
      // Sweep witnesses sit below the extrapolation constants, so the
      // concretized schedule must attain the recorded delay exactly.
      PSV_REQUIRE_AS(psv::ErrorCode::kInternal, tap.max_value_ms == ct.delay_ms,
                     "monitor-check: concretized delay " + std::to_string(tap.max_value_ms) +
                         "ms != recorded " + std::to_string(ct.delay_ms) + "ms (" +
                         rr.requirement.name + ")");
      psv::monitor::DelayMonitor mon(spec);
      for (const psv::sim::TappedEvent& ev : tap.events)
        mon.observe(ev.boundary, ev.name, ev.at_us);
      mon.finish(tap.end_us);
      std::cout << "monitor: trace " << rr.requirement.name << " " << k << "\n"
                << mon.verdict_text();
      const bool should_hold = ct.delay_ms <= rr.requirement.bound_ms;
      PSV_REQUIRE_AS(psv::ErrorCode::kInternal, mon.ok() == should_hold,
                     "monitor-check: monitor verdict disagrees with the verified delay of " +
                         rr.requirement.name + " trace " + std::to_string(k));
      if (events_out.is_open()) {
        events_out << "TRACE " << rr.requirement.name << " " << k << "\n";
        for (const psv::sim::TappedEvent& ev : tap.events)
          events_out << "OBS " << ev.at_us << " " << ev.boundary << " " << ev.name << "\n";
        events_out << "END " << tap.end_us << "\n";
      }
    }
  }
}

/// Write `text` to `path` (overwriting), failing with a kIo error.
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  PSV_REQUIRE_AS(psv::ErrorCode::kIo, out.good(), "cannot write '" + path + "'");
  out << text;
  PSV_REQUIRE_AS(psv::ErrorCode::kIo, out.good(), "cannot write '" + path + "'");
}

/// Execute every job, in-process or against a daemon. In daemon mode all
/// jobs are pipelined on one connection first, then collected (responses
/// may complete out of order server-side); outcomes come back in job order
/// either way, so the printed output is identical.
std::vector<JobOutcome> execute_jobs(const std::vector<Job>& jobs, const std::string& connect,
                                     const std::string& cache_dir,
                                     std::optional<psv::net::ServerStats>* server_stats) {
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs.size());
  if (connect.empty()) {
    // One Verifier for the whole invocation: batch jobs share pooled
    // sessions and the artifact cache.
    psv::core::Verifier verifier(psv::core::Verifier::Config{cache_dir});
    for (const Job& job : jobs) {
      outcomes.push_back(
          {job.name, job.model_path, verifier.verify(psv::core::to_verify_request(job.source))});
    }
    return outcomes;
  }
  psv::net::Client client = psv::net::Client::connect(connect);
  std::map<std::uint64_t, std::size_t> id_to_index;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    id_to_index.emplace(client.send(jobs[i].source), i);
  std::vector<std::optional<psv::core::VerifyReport>> reports(jobs.size());
  while (client.outstanding() > 0) {
    psv::net::Client::Response response = client.next_response();
    if (!response.ok) PSV_FAIL_AS(response.error.code, response.error.message);
    reports[id_to_index.at(response.request_id)] = std::move(response.report);
  }
  if (server_stats != nullptr) *server_stats = client.server_stats();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    outcomes.push_back({jobs[i].name, jobs[i].model_path, std::move(*reports[i])});
  return outcomes;
}

/// Execute every synthesis job, in-process or against a daemon (kSynth
/// frames, pipelined like verify jobs). The frontier lines are identical in
/// both modes and at every worker count.
std::vector<SynthOutcome> execute_synth_jobs(
    const std::vector<SynthJob>& jobs, const std::string& connect, const std::string& cache_dir,
    std::optional<psv::net::ServerStats>* server_stats) {
  std::vector<SynthOutcome> outcomes;
  outcomes.reserve(jobs.size());
  if (connect.empty()) {
    // One Verifier for the whole sweep: every candidate shares the pooled
    // sessions and the pinned warm-start ancestor.
    psv::core::Verifier verifier(psv::core::Verifier::Config{cache_dir});
    psv::core::SchemeSynthesizer synthesizer(verifier);
    for (const SynthJob& job : jobs) {
      outcomes.push_back(
          {job.name, job.model_path, synthesizer.run(psv::core::to_synth_request(job.source))});
    }
    return outcomes;
  }
  psv::net::Client client = psv::net::Client::connect(connect);
  std::map<std::uint64_t, std::size_t> id_to_index;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    id_to_index.emplace(client.send_synth(jobs[i].source), i);
  std::vector<std::optional<psv::core::SynthReport>> reports(jobs.size());
  while (client.outstanding() > 0) {
    psv::net::Client::Response response = client.next_response();
    if (!response.ok) PSV_FAIL_AS(response.error.code, response.error.message);
    reports[id_to_index.at(response.request_id)] = std::move(response.synth_report);
  }
  if (server_stats != nullptr) *server_stats = client.server_stats();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    outcomes.push_back({jobs[i].name, jobs[i].model_path, std::move(*reports[i])});
  return outcomes;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  psv::cli::Parser parser = make_parser(cli);
  std::vector<std::string> positional;
  try {
    positional = parser.parse(argc - 1, argv + 1);
  } catch (const psv::Error& e) {
    std::cerr << "error: " << e.what() << "\n\n" << parser.help();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  if (cli.batch_path.empty()) {
    if (positional.size() < 3) {
      std::cerr << parser.help();
      return 2;
    }
    cli.model_path = positional[0];
    cli.scheme_path = positional[1];
    cli.requirement_texts.assign(positional.begin() + 2, positional.end());
  } else if (!positional.empty()) {
    std::cerr << "--batch does not take MODEL/SCHEME/REQ arguments\n" << parser.help();
    return 2;
  }
  // Cache resolution: --no-cache wins, then --cache-dir, then the
  // PSV_CACHE_DIR fallback (already applied by the parser). A daemon caches
  // in its own --cache-dir; the local setting never travels.
  if (cli.no_cache || !cli.connect.empty()) cli.cache_dir.clear();

  try {
    // The emission/monitor features read the parsed single-model inputs.
    PSV_REQUIRE_AS(psv::ErrorCode::kParse,
                   (cli.emit_code_path.empty() && cli.emit_monitor_path.empty() &&
                    !cli.monitor_check) ||
                       (cli.batch_path.empty() && !cli.synth),
                   "--emit-code/--emit-monitor/--monitor-check need the single-model form");
    PSV_REQUIRE_AS(psv::ErrorCode::kParse, cli.monitor_events_path.empty() || cli.monitor_check,
                   "--monitor-events needs --monitor-check");
    // --monitor-check replays the retained critical traces; with none
    // retained it would check nothing and still exit 0.
    PSV_REQUIRE_AS(psv::ErrorCode::kParse, !cli.monitor_check || cli.top_k != 0,
                   "--monitor-check needs retained critical traces (--top-k >= 1)");
    psv::core::VerifyOptions options;
    options.search_limit = cli.limit;
    options.explore.jobs = cli.jobs;
    if (cli.top_k >= 0) options.top_k = cli.top_k;

    const auto wall_start = std::chrono::steady_clock::now();
    if (!cli.cache_dir.empty()) std::cout << "verification cache: " << cli.cache_dir << "\n";

    psv::core::SynthOptions synth_options;
    synth_options.workers = cli.synth_workers;
    synth_options.prune = !cli.no_prune;
    synth_options.visit_seed = cli.visit_seed;

    std::vector<Job> jobs;
    std::vector<SynthJob> synth_jobs;
    // Parsed inputs of the single-model form, reused by --print-psm, the
    // legacy single-requirement summary, and --sim.
    std::optional<psv::ta::Network> pim;
    std::optional<psv::core::PimInfo> info;
    std::optional<psv::core::ImplementationScheme> scheme;

    if (cli.batch_path.empty() && cli.synth) {
      PSV_REQUIRE_AS(psv::ErrorCode::kParse, cli.sim_scenarios == 0 && !cli.print_psm,
                     "--synth does not combine with --sim or --print-psm");
      SynthJob job;
      job.name = cli.model_path;
      job.model_path = cli.model_path;
      job.source.model_source = psv::util::read_file(cli.model_path);
      job.source.template_source = psv::util::read_file(cli.scheme_path);
      for (const std::string& text : cli.requirement_texts)
        job.source.requirements.push_back(psv::lang::parse_requirement(text));
      job.source.options = options;
      job.source.synth = synth_options;
      synth_jobs.push_back(std::move(job));
    } else if (cli.batch_path.empty()) {
      Job job;
      job.name = cli.model_path;
      job.model_path = cli.model_path;
      job.source.model_source = psv::util::read_file(cli.model_path);
      job.source.scheme_sources = {psv::util::read_file(cli.scheme_path)};
      for (const std::string& text : cli.requirement_texts)
        job.source.requirements.push_back(psv::lang::parse_requirement(text));
      job.source.options = options;

      pim = psv::lang::parse_model(job.source.model_source);
      info = psv::core::analyze_pim(*pim);
      scheme = psv::lang::parse_scheme(job.source.scheme_sources.front());
      std::cout << scheme->describe() << "\n";
      if (cli.print_psm) {
        psv::core::PsmArtifacts psm = psv::core::transform(*pim, *info, *scheme);
        std::cout << psv::ta::network_text(psm.psm) << "\n";
      }
      if (!cli.emit_code_path.empty()) {
        psv::codegen::CEmitOptions copts;
        copts.emit_demo_main = true;
        write_text_file(cli.emit_code_path, psv::codegen::emit_c(*pim, *info, copts));
        std::cout << "wrote generated C to " << cli.emit_code_path << "\n";
      }
      jobs.push_back(std::move(job));
    } else {
      const std::string base_dir = dir_of(cli.batch_path);
      const psv::lang::Manifest manifest =
          psv::lang::parse_manifest_full(psv::util::read_file(cli.batch_path));
      for (const psv::lang::ManifestJob& manifest_job : manifest.jobs) {
        Job job;
        job.name = manifest_job.name;
        job.model_path = resolve(base_dir, manifest_job.model_path);
        job.header = "=== job " + manifest_job.name + " (" + manifest_job.model_path + ") ===\n";
        job.source.model_source = psv::util::read_file(job.model_path);
        for (const std::string& scheme_path : manifest_job.scheme_paths)
          job.source.scheme_sources.push_back(
              psv::util::read_file(resolve(base_dir, scheme_path)));
        job.source.requirements = manifest_job.requirements;
        job.source.options = options;
        jobs.push_back(std::move(job));
      }
      for (const psv::lang::ManifestSynthJob& manifest_job : manifest.synth_jobs) {
        SynthJob job;
        job.name = manifest_job.name;
        job.model_path = resolve(base_dir, manifest_job.model_path);
        job.header =
            "=== synth " + manifest_job.name + " (" + manifest_job.model_path + ") ===\n";
        job.source.model_source = psv::util::read_file(job.model_path);
        job.source.template_source =
            psv::util::read_file(resolve(base_dir, manifest_job.template_path));
        job.source.requirements = manifest_job.requirements;
        job.source.options = options;
        job.source.synth = synth_options;
        synth_jobs.push_back(std::move(job));
      }
    }

    // When both job kinds run over --connect, the synthesis batch executes
    // last and fetches the daemon counters so they include every request.
    const bool want_stats = !cli.stats_json_path.empty();
    std::optional<psv::net::ServerStats> server_stats;
    std::vector<JobOutcome> outcomes;
    if (!jobs.empty())
      outcomes = execute_jobs(jobs, cli.connect, cli.cache_dir,
                              want_stats && synth_jobs.empty() ? &server_stats : nullptr);
    std::vector<SynthOutcome> synth_outcomes;
    if (!synth_jobs.empty())
      synth_outcomes = execute_synth_jobs(synth_jobs, cli.connect, cli.cache_dir,
                                          want_stats ? &server_stats : nullptr);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      JobOutcome& outcome = outcomes[i];
      if (!jobs[i].header.empty()) std::cout << jobs[i].header;
      if (cli.batch_path.empty() && jobs[i].source.requirements.size() == 1) {
        // The historical single-run report, byte-compatible with the CI
        // diff gates. Wire reports omit the PSM construction artifacts
        // (see core/report_serde.h); rebuild them locally — the transform
        // is deterministic — so this summary is identical in both modes.
        if (!cli.connect.empty())
          outcome.report.schemes.front().psm = psv::core::transform(*pim, *info, *scheme);
        std::cout << outcome.report.requirement_summary(0, 0) << "\n";
      } else {
        std::cout << outcome.report.summary() << "\n";
      }
      if (cli.slack_detail) print_slack_detail(outcome, cli.top_k);
      if (cli.batch_path.empty() && cli.sim_scenarios > 0) {
        for (const psv::core::RequirementResult& r :
             outcome.report.schemes.front().requirements)
          run_simulation(*pim, *info, *scheme, r.requirement, cli.sim_scenarios, cli.seed,
                         r.bounds.lemma2_total);
      }
    }

    for (std::size_t i = 0; i < synth_outcomes.size(); ++i) {
      if (!synth_jobs[i].header.empty()) std::cout << synth_jobs[i].header;
      std::cout << synth_outcomes[i].report.summary() << "\n";
      if (cli.slack_detail) {
        const std::size_t shown =
            static_cast<std::size_t>(cli.top_k >= 0 ? cli.top_k : psv::mc::kDefaultTopK);
        std::cout << "--- feasibility witness traces ---\n"
                  << synth_outcomes[i].report.feasibility_detail(shown);
      }
    }

    if (!outcomes.empty() && cli.batch_path.empty()) {
      // --emit-monitor refuses FAIL reports (Verifier::monitor_spec throws a
      // typed model error: only PASS cells are enforceable), so a failing
      // run exits 2 here with the witness delay in the message.
      if (!cli.emit_monitor_path.empty()) {
        const psv::monitor::MonitorSpec spec =
            psv::core::Verifier::monitor_spec(outcomes.front().report);
        write_text_file(cli.emit_monitor_path, psv::monitor::emit_c_monitor(spec));
        std::cout << "wrote runtime monitor to " << cli.emit_monitor_path << "\n";
      }
      if (cli.monitor_check)
        run_monitor_check(outcomes.front(), *pim, *info, *scheme, cli.monitor_events_path);
    }

    const double total_wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
            .count();

    bool all_passed = true;
    for (const JobOutcome& job : outcomes) {
      print_verdicts(job);
      all_passed = all_passed && job.report.all_passed();
    }
    // A synthesis job "passes" when some candidate satisfies every
    // requirement (non-empty Pareto frontier).
    for (const SynthOutcome& job : synth_outcomes)
      all_passed = all_passed && !job.report.pareto.empty();

    if (!cli.stats_json_path.empty()) {
      write_stats_json(cli.stats_json_path, outcomes, synth_outcomes, cli.jobs, total_wall_ms,
                       cli.cache_dir, server_stats);
      std::cout << "wrote per-stage stats to " << cli.stats_json_path << "\n";
    }

    return all_passed ? 0 : 1;
  } catch (const psv::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
