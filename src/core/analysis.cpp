#include "core/analysis.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace psv::core {

std::string BoundAnalysis::to_string() const {
  std::ostringstream os;
  auto row = [&os](const DelayBound& b) {
    os << "  " << b.name << ": analytic<=" << b.analytic;
    if (b.verified_bounded) {
      os << ", verified=" << b.verified;
    } else {
      os << ", verified=unbounded";
    }
    os << "\n";
  };
  for (const auto& b : input_delays) row(b);
  for (const auto& b : output_delays) row(b);
  os << "  io-internal (PIM bound): " << io_internal << "\n";
  os << "  Lemma 2 total: " << lemma2_total << "\n";
  os << "  verified M-C delay: ";
  if (verified_mc_bounded) {
    os << verified_mc_delay;
  } else {
    os << "unbounded";
  }
  os << "\n";
  return os.str();
}

std::string SlackReport::to_string(std::size_t top_k) const {
  std::ostringstream os;
  for (std::size_t r = 0; r < requirements.size(); ++r) {
    const RequirementSlack& rs = requirements[r];
    os << "slack: " << rs.requirement << " ";
    if (rs.bounded) {
      os << rs.slack_ms << "ms (requirement " << rs.requirement_ms << "ms, verified "
         << rs.verified_ms << "ms)";
    } else {
      os << "<=" << rs.slack_ms << "ms (requirement " << rs.requirement_ms
         << "ms, verified unbounded beyond " << rs.verified_ms << "ms)";
    }
    if (r == binding_index) os << " [binding]";
    os << "\n";
    const std::size_t shown = std::min(top_k, rs.critical.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const CriticalTrace& ct = rs.critical[i];
      os << "  critical[" << i << "]: delay " << ct.delay_ms << "ms, slack " << ct.slack_ms
         << "ms\n";
      os << ct.trace.to_string();
    }
  }
  return os.str();
}

SlackReport compute_slack_report(const std::vector<TimingRequirement>& reqs,
                                 const std::vector<mc::MaxClockResult>& mc_answers,
                                 std::int64_t search_limit) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, mc_answers.size() == reqs.size(),
              "compute_slack_report: answers must align with the requirements");
  SlackReport report;
  report.requirements.reserve(reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const mc::MaxClockResult& a = mc_answers[r];
    RequirementSlack rs;
    rs.requirement = reqs[r].name;
    rs.requirement_ms = reqs[r].bound_ms;
    rs.bounded = a.bounded;
    rs.verified_ms = a.bounded ? a.bound : search_limit;
    rs.slack_ms = rs.requirement_ms - rs.verified_ms;
    rs.critical.reserve(a.ranked.size());
    for (const mc::RankedWitness& w : a.ranked)
      rs.critical.push_back(CriticalTrace{w.value, rs.requirement_ms - w.value, w.trace});
    rs.witness_consts = a.witness_consts;
    report.requirements.push_back(std::move(rs));
  }
  for (std::size_t r = 0; r < report.requirements.size(); ++r) {
    const RequirementSlack& rs = report.requirements[r];
    report.any_unbounded = report.any_unbounded || !rs.bounded;
    if (r == 0 || rs.slack_ms < report.min_slack_ms) {
      report.binding_index = r;
      report.min_slack_ms = rs.slack_ms;
    }
  }
  return report;
}

std::int64_t analytic_input_delay_bound(const ImplementationScheme& scheme,
                                        const std::string& input_base) {
  const InputSpec& spec = scheme.input(input_base);
  const IoSpec& io = scheme.io;
  std::int64_t bound = 0;
  // Detection: a polled signal can wait a whole sampling period.
  if (spec.read == ReadMechanism::kPolling) bound += spec.polling_interval;
  // Input-Device processing.
  bound += spec.delay_max;
  // Invocation wait until the code reads the processed input.
  if (io.invocation == InvocationKind::kPeriodic) {
    bound += io.period + io.read_stage_max;
  } else {
    // Aperiodic: worst case, the insert lands just after the read stage of
    // a running cycle; the re-run happens after the remaining stages.
    bound += io.compute_stage_max + io.write_stage_max + io.read_stage_max;
  }
  return bound;
}

std::int64_t analytic_output_delay_bound(const ImplementationScheme& scheme,
                                         const std::string& output_base) {
  const OutputSpec& spec = scheme.output(output_base);
  // Handoff to the Output-Device is immediate (committed) and delivery is
  // immediate once processed (urgent Ready); only processing remains. A
  // backlogged device can stack delays — the verified bound covers that.
  return spec.delay_max;
}

InstrumentedPsm instrument_psm_for_requirement(const PsmArtifacts& psm,
                                               const TimingRequirement& req) {
  InstrumentedPsm out{psm.psm, {}};
  out.mc_probe = instrument_mc_delay(out.net, psm.env_name, req);
  return out;
}

InstrumentedPsmBatch instrument_psm_for_requirements(const PsmArtifacts& psm,
                                                     const std::vector<TimingRequirement>& reqs) {
  InstrumentedPsmBatch out{psm.psm, {}};
  out.mc_probes = instrument_mc_delays(out.net, psm.env_name, reqs);
  return out;
}

BoundQueryPlan plan_bound_queries(const PsmArtifacts& psm,
                                  const std::vector<RequirementProbe>& mc_probes,
                                  const std::vector<TimingRequirement>& reqs,
                                  const std::vector<std::int64_t>& pim_internal_bounds,
                                  std::int64_t search_limit, int top_k) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, mc_probes.size() == reqs.size() && pim_internal_bounds.size() == reqs.size(),
              "plan_bound_queries: probes/requirements/internal bounds must align");
  BoundQueryPlan plan;
  plan.queries.reserve(psm.inputs.size() + psm.outputs.size() + reqs.size());
  // The Lemma-1 closed forms seed every search — they are usually tight
  // upper bounds, so the first shared sweep (or probe bracket) already
  // covers the answers.
  for (const InputArtifacts& in : psm.inputs) {
    mc::BoundQuery q;
    q.pred = mc::when(ta::var_eq(in.pending, 1));
    q.clock = in.delay_clock;
    q.limit = search_limit;
    q.hint = analytic_input_delay_bound(psm.scheme, in.base);
    q.top_k = top_k;
    plan.queries.push_back(std::move(q));
  }
  for (const OutputArtifacts& outv : psm.outputs) {
    mc::BoundQuery q;
    q.pred = mc::when(ta::var_eq(outv.pending, 1));
    q.clock = outv.delay_clock;
    q.limit = search_limit;
    q.hint = analytic_output_delay_bound(psm.scheme, outv.base);
    q.top_k = top_k;
    plan.queries.push_back(std::move(q));
  }
  plan.lemma2_totals.reserve(reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    plan.lemma2_totals.push_back(analytic_input_delay_bound(psm.scheme, reqs[r].input) +
                                 analytic_output_delay_bound(psm.scheme, reqs[r].output) +
                                 pim_internal_bounds[r]);
    mc::BoundQuery q;
    q.pred = mc::when(ta::var_eq(mc_probes[r].pending, 1));
    q.clock = mc_probes[r].clock;
    q.limit = search_limit;
    q.hint = plan.lemma2_totals.back();
    q.top_k = top_k;
    plan.queries.push_back(std::move(q));
  }
  return plan;
}

std::vector<BoundAnalysis> assemble_bound_analyses(
    const BoundQueryPlan& plan, const PsmArtifacts& psm,
    const std::vector<TimingRequirement>& reqs,
    const std::vector<std::int64_t>& pim_internal_bounds,
    const std::vector<mc::MaxClockResult>& answers, std::int64_t search_limit) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, answers.size() == plan.queries.size(),
              "assemble_bound_analyses: answers must align with the plan");
  std::vector<BoundAnalysis> out;
  out.reserve(reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    BoundAnalysis analysis;
    analysis.io_internal = pim_internal_bounds[r];
    analysis.lemma2_total = plan.lemma2_totals[r];
    std::size_t next = 0;
    for (const InputArtifacts& in : psm.inputs) {
      DelayBound b;
      b.name = "Input-Delay(" + in.base + ")";
      b.analytic = analytic_input_delay_bound(psm.scheme, in.base);
      const mc::MaxClockResult& a = answers[next++];
      b.verified_bounded = a.bounded;
      b.verified = a.bounded ? a.bound : search_limit;
      analysis.input_delays.push_back(std::move(b));
    }
    for (const OutputArtifacts& outv : psm.outputs) {
      DelayBound b;
      b.name = "Output-Delay(" + outv.base + ")";
      b.analytic = analytic_output_delay_bound(psm.scheme, outv.base);
      const mc::MaxClockResult& a = answers[next++];
      b.verified_bounded = a.bounded;
      b.verified = a.bounded ? a.bound : search_limit;
      analysis.output_delays.push_back(std::move(b));
    }
    const mc::MaxClockResult& a = answers[next + r];
    analysis.verified_mc_bounded = a.bounded;
    analysis.verified_mc_delay = a.bounded ? a.bound : search_limit;
    out.push_back(std::move(analysis));
  }
  return out;
}

BoundAnalysis analyze_bounds(mc::VerificationSession& session, const PsmArtifacts& psm,
                             const RequirementProbe& mc_probe, std::int64_t pim_internal_bound,
                             const TimingRequirement& req, std::int64_t search_limit) {
  const std::vector<TimingRequirement> reqs{req};
  const std::vector<std::int64_t> internals{pim_internal_bound};
  const BoundQueryPlan plan =
      plan_bound_queries(psm, {mc_probe}, reqs, internals, search_limit);
  const std::vector<mc::MaxClockResult> answers = session.max_clock_values(plan.queries);
  return std::move(
      assemble_bound_analyses(plan, psm, reqs, internals, answers, search_limit).front());
}

BoundAnalysis analyze_bounds(const PsmArtifacts& psm, std::int64_t pim_internal_bound,
                             const TimingRequirement& req, std::int64_t search_limit,
                             mc::ExploreOptions explore) {
  InstrumentedPsm instrumented = instrument_psm_for_requirement(psm, req);
  mc::VerificationSession session(std::move(instrumented.net), explore);
  return analyze_bounds(session, psm, instrumented.mc_probe, pim_internal_bound, req,
                        search_limit);
}

}  // namespace psv::core
