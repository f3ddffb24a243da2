#include "plan.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/synth.h"
#include "util/error.h"
#include "util/io.h"

namespace psvbench {

using namespace psv;

namespace {

core::VerifyOptions request_options() {
  core::VerifyOptions options;
  options.explore.jobs = 1;  // every daemon request explores on one thread
  return options;
}

core::TimingRequirement requirement(const Plan& plan, std::int64_t bound) {
  return core::TimingRequirement{plan.req_name, plan.req_input, plan.req_output, bound};
}

}  // namespace

core::SourceRequest Plan::verify_request(const PlanOp& op) const {
  core::SourceRequest request;
  request.model_source = model_source;
  request.scheme_sources = {schemes.at(op.index).source};
  request.requirements = {requirement(*this, op.bound)};
  request.options = request_options();
  return request;
}

core::SourceSynthRequest Plan::synth_request(const PlanOp& op) const {
  core::SourceSynthRequest request;
  request.model_source = model_source;
  request.template_source = templates.at(op.index).source;
  request.requirements = {requirement(*this, op.bound)};
  request.options = request_options();
  request.synth.workers = 1;
  return request;
}

std::vector<PlanOp> Plan::warmup_ops() const {
  std::vector<PlanOp> warmup;
  for (std::size_t i = 0; i < schemes.size(); ++i) warmup.push_back(PlanOp{false, i, kReferenceBound});
  std::set<std::pair<std::size_t, std::int64_t>> seen;
  for (const PlanOp& op : ops)
    if (op.synth && seen.emplace(op.index, op.bound).second) warmup.push_back(op);
  return warmup;
}

Plan load_plan(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  auto source = [&dir](const std::string& name) { return util::read_file((dir / name).string()); };
  std::istringstream lines(util::read_file(path));
  Plan plan;
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    const std::string where = path + ":" + std::to_string(number);
    if (directive == "model") {
      std::string name;
      words >> name;
      plan.model_source = source(name);
    } else if (directive == "requirement") {
      words >> plan.req_name >> plan.req_input >> plan.req_output;
    } else if (directive == "scheme") {
      std::string name, verdict;
      words >> name >> verdict;
      PSV_REQUIRE_AS(ErrorCode::kParse, verdict == "PASS" || verdict == "FAIL",
                     where + ": scheme verdict must be PASS or FAIL");
      plan.schemes.push_back(PlanScheme{source(name), verdict == "PASS"});
    } else if (directive == "template") {
      std::string name, fit;
      words >> name >> fit;
      PSV_REQUIRE_AS(ErrorCode::kParse, fit == "OVERRUN" || fit == "FIT",
                     where + ": template tag must be OVERRUN or FIT");
      plan.templates.push_back(PlanTemplate{source(name), fit == "OVERRUN"});
    } else if (directive == "op") {
      std::string kind;
      PlanOp op;
      words >> kind >> op.index >> op.bound;
      PSV_REQUIRE_AS(ErrorCode::kParse, kind == "v" || kind == "s",
                     where + ": op kind must be v or s");
      op.synth = kind == "s";
      plan.ops.push_back(op);
    } else {
      PSV_FAIL_AS(ErrorCode::kParse, where + ": unknown directive '" + directive + "'");
    }
    PSV_REQUIRE_AS(ErrorCode::kParse, !words.fail(), where + ": malformed line");
  }
  for (const PlanOp& op : plan.ops)
    PSV_REQUIRE_AS(ErrorCode::kParse,
                   op.index < (op.synth ? plan.templates.size() : plan.schemes.size()),
                   path + ": op index out of range");
  PSV_REQUIRE_AS(ErrorCode::kParse, !plan.ops.empty() && !plan.model_source.empty(),
                 path + ": plan needs a model and at least one op");
  return plan;
}

std::string canonical_verdicts(const core::VerifyReport& report) {
  std::ostringstream os;
  auto delay = [&os](const core::DelayBound& d) {
    os << "    " << d.name << " " << d.analytic << " " << d.verified_bounded << " " << d.verified
       << "\n";
  };
  for (const core::SchemeVerification& s : report.schemes) {
    os << "scheme " << s.scheme_name << " constraints " << s.constraints.all_hold() << "\n";
    for (const core::ConstraintCheck& c : s.constraints.checks)
      os << "  " << c.id << " " << c.holds << "\n";
    for (const core::RequirementResult& r : s.requirements) {
      os << "  req " << r.requirement.name << " pim " << r.pim.bounded << " " << r.pim.max_delay
         << " lemma2 " << r.bounds.lemma2_total << " internal " << r.bounds.io_internal << " mc "
         << r.bounds.verified_mc_bounded << " " << r.bounds.verified_mc_delay << " relaxed "
         << r.psm_meets_relaxed << " passed " << r.passed << "\n";
      for (const core::DelayBound& d : r.bounds.input_delays) delay(d);
      for (const core::DelayBound& d : r.bounds.output_delays) delay(d);
    }
  }
  return os.str();
}

std::string check_bound_fields(const core::VerifyReport& report) {
  for (const core::SchemeVerification& s : report.schemes) {
    for (std::size_t i = 0; i < s.requirements.size(); ++i) {
      const core::RequirementResult& r = s.requirements[i];
      const std::int64_t bound = r.requirement.bound_ms;
      if (r.pim.holds != (r.pim.bounded && r.pim.max_delay <= bound)) return "pim verdict";
      if (r.psm_meets_original !=
          (r.bounds.verified_mc_bounded && r.bounds.verified_mc_delay <= bound))
        return "original-bound verdict";
      if (r.bounds.verified_mc_bounded &&
          (i >= s.slack.requirements.size() ||
           s.slack.requirements[i].slack_ms != bound - r.bounds.verified_mc_delay))
        return "slack";
    }
  }
  return "";
}

References build_references(const Plan& plan, unsigned threads) {
  References refs;
  refs.verify.resize(plan.schemes.size());
  std::set<std::pair<std::size_t, std::int64_t>> synth_keys;
  for (const PlanOp& op : plan.ops)
    if (op.synth) synth_keys.emplace(op.index, op.bound);
  std::vector<std::pair<std::size_t, std::int64_t>> synth_work(synth_keys.begin(),
                                                               synth_keys.end());
  for (const auto& key : synth_work) refs.synth[key];

  core::Verifier verifier;
  const std::size_t total = plan.schemes.size() + synth_work.size();
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  auto work = [&] {
    for (std::size_t i = next++; i < total; i = next++) {
      try {
        if (i < plan.schemes.size()) {
          // The bound only enters bound-dependent fields, checked separately.
          const PlanOp op{false, i, kReferenceBound};
          refs.verify[i] =
              canonical_verdicts(verifier.verify(core::to_verify_request(plan.verify_request(op))));
        } else {
          const auto& key = synth_work[i - plan.schemes.size()];
          const PlanOp op{true, key.first, key.second};
          core::SchemeSynthesizer synthesizer(verifier);
          refs.synth[key] =
              synthesizer.run(core::to_synth_request(plan.synth_request(op))).frontier_text();
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        error = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  PSV_REQUIRE_AS(ErrorCode::kInternal, error.empty(), "reference build failed: " + error);
  return refs;
}

std::string check_verify_reply(const Plan& plan, const References& refs, const PlanOp& op,
                               const core::VerifyReport& report) {
  if (canonical_verdicts(report) != refs.verify.at(op.index)) return "differs from reference";
  if (std::string bad = check_bound_fields(report); !bad.empty()) return bad;
  if (report.all_passed() != plan.schemes[op.index].expect_pass) return "analytic verdict";
  return "";
}

std::string check_synth_reply(const Plan& plan, const References& refs, const PlanOp& op,
                              const core::SynthReport& report) {
  if (report.frontier_text() != refs.synth.at({op.index, op.bound}))
    return "frontier differs from reference";
  if (plan.templates[op.index].overruns != report.pareto.empty()) return "analytic frontier";
  return "";
}

double resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

}  // namespace psvbench
