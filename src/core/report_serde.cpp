#include "core/report_serde.h"

#include <bit>
#include <limits>

#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/artifact.h"
#include "util/error.h"

namespace psv::core {

namespace {

// Sanity ceiling on decoded container counts that have no intrinsic bound
// (requirements per request, schemes per request, checks per report). A
// hostile length prefix is already capped by ByteReader::length() against
// the remaining payload; this additionally keeps the error message crisp.
constexpr std::size_t kMaxListedItems = 1 << 20;

void check_count(std::size_t n, const char* what) {
  PSV_REQUIRE_AS(ErrorCode::kProtocol, n <= kMaxListedItems,
                 std::string("malformed payload: implausible ") + what + " count " +
                     std::to_string(n));
}

void write_f64(ByteWriter& out, double v) { out.u64(std::bit_cast<std::uint64_t>(v)); }
double read_f64(ByteReader& in) { return std::bit_cast<double>(in.u64()); }

void encode_cache_stats(ByteWriter& out, const mc::StageCacheStats& c) {
  out.boolean(c.enabled);
  out.boolean(c.warm);
  out.i32(c.hits);
  out.i32(c.misses);
  out.i32(c.stores);
}

mc::StageCacheStats decode_cache_stats(ByteReader& in) {
  mc::StageCacheStats c;
  c.enabled = in.boolean();
  c.warm = in.boolean();
  c.hits = in.i32();
  c.misses = in.i32();
  c.stores = in.i32();
  return c;
}

void encode_stage_stats(ByteWriter& out, const VerifyStageStats& s) {
  out.str(s.name);
  write_f64(out, s.wall_ms);
  mc::write_explore_stats(out, s.explore);
  out.i32(s.explorations);
  encode_cache_stats(out, s.cache);
}

VerifyStageStats decode_stage_stats(ByteReader& in) {
  VerifyStageStats s;
  s.name = in.str();
  s.wall_ms = read_f64(in);
  s.explore = mc::read_explore_stats(in);
  s.explorations = in.i32();
  s.cache = decode_cache_stats(in);
  return s;
}

void encode_stage_list(ByteWriter& out, const std::vector<VerifyStageStats>& stages) {
  out.u64(stages.size());
  for (const VerifyStageStats& s : stages) encode_stage_stats(out, s);
}

std::vector<VerifyStageStats> decode_stage_list(ByteReader& in) {
  const std::size_t n = in.length(/*min_element_size=*/8 + 8 + 32 + 4 + 7);
  std::vector<VerifyStageStats> stages;
  stages.reserve(n);
  for (std::size_t i = 0; i < n; ++i) stages.push_back(decode_stage_stats(in));
  return stages;
}

void encode_pim_verification(ByteWriter& out, const PimVerification& p) {
  out.boolean(p.holds);
  out.boolean(p.bounded);
  out.i64(p.max_delay);
  mc::write_explore_stats(out, p.stats);
  out.i32(p.explorations);
  encode_cache_stats(out, p.cache);
}

PimVerification decode_pim_verification(ByteReader& in) {
  PimVerification p;
  p.holds = in.boolean();
  p.bounded = in.boolean();
  p.max_delay = in.i64();
  p.stats = mc::read_explore_stats(in);
  p.explorations = in.i32();
  p.cache = decode_cache_stats(in);
  return p;
}

void encode_delay_bound(ByteWriter& out, const DelayBound& d) {
  out.str(d.name);
  out.i64(d.analytic);
  out.i64(d.verified);
  out.boolean(d.verified_bounded);
}

DelayBound decode_delay_bound(ByteReader& in) {
  DelayBound d;
  d.name = in.str();
  d.analytic = in.i64();
  d.verified = in.i64();
  d.verified_bounded = in.boolean();
  return d;
}

void encode_delay_bound_list(ByteWriter& out, const std::vector<DelayBound>& bounds) {
  out.u64(bounds.size());
  for (const DelayBound& d : bounds) encode_delay_bound(out, d);
}

std::vector<DelayBound> decode_delay_bound_list(ByteReader& in) {
  const std::size_t n = in.length(/*min_element_size=*/8 + 8 + 8 + 1);
  std::vector<DelayBound> bounds;
  bounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bounds.push_back(decode_delay_bound(in));
  return bounds;
}

void encode_bound_analysis(ByteWriter& out, const BoundAnalysis& b) {
  encode_delay_bound_list(out, b.input_delays);
  encode_delay_bound_list(out, b.output_delays);
  out.i64(b.io_internal);
  out.i64(b.lemma2_total);
  out.i64(b.verified_mc_delay);
  out.boolean(b.verified_mc_bounded);
}

BoundAnalysis decode_bound_analysis(ByteReader& in) {
  BoundAnalysis b;
  b.input_delays = decode_delay_bound_list(in);
  b.output_delays = decode_delay_bound_list(in);
  b.io_internal = in.i64();
  b.lemma2_total = in.i64();
  b.verified_mc_delay = in.i64();
  b.verified_mc_bounded = in.boolean();
  return b;
}

void encode_requirement_result(ByteWriter& out, const RequirementResult& r) {
  encode_timing_requirement(out, r.requirement);
  encode_pim_verification(out, r.pim);
  encode_bound_analysis(out, r.bounds);
  out.boolean(r.psm_meets_original);
  out.boolean(r.psm_meets_relaxed);
  out.boolean(r.passed);
}

RequirementResult decode_requirement_result(ByteReader& in) {
  RequirementResult r;
  r.requirement = decode_timing_requirement(in);
  r.pim = decode_pim_verification(in);
  r.bounds = decode_bound_analysis(in);
  r.psm_meets_original = in.boolean();
  r.psm_meets_relaxed = in.boolean();
  r.passed = in.boolean();
  return r;
}

void encode_constraint_report(ByteWriter& out, const ConstraintReport& c) {
  out.u64(c.checks.size());
  for (const ConstraintCheck& check : c.checks) {
    out.str(check.id);
    out.str(check.name);
    out.boolean(check.holds);
    out.str(check.detail);
  }
}

ConstraintReport decode_constraint_report(ByteReader& in) {
  ConstraintReport c;
  const std::size_t n = in.length(/*min_element_size=*/8 + 8 + 1 + 8);
  c.checks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ConstraintCheck check;
    check.id = in.str();
    check.name = in.str();
    check.holds = in.boolean();
    check.detail = in.str();
    c.checks.push_back(std::move(check));
  }
  return c;
}

void encode_schedulability_report(ByteWriter& out, const SchedulabilityReport& s) {
  out.u64(s.findings.size());
  for (const SchedulabilityFinding& f : s.findings) {
    out.u8(static_cast<std::uint8_t>(f.severity));
    out.str(f.constraint);
    out.str(f.message);
  }
}

SchedulabilityReport decode_schedulability_report(ByteReader& in) {
  SchedulabilityReport s;
  const std::size_t n = in.length(/*min_element_size=*/1 + 8 + 8);
  s.findings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SchedulabilityFinding f;
    const std::uint8_t severity = in.u8();
    PSV_REQUIRE_AS(ErrorCode::kProtocol, severity <= 1,
                   "malformed payload: finding severity " + std::to_string(severity));
    f.severity = static_cast<SchedulabilityFinding::Severity>(severity);
    f.constraint = in.str();
    f.message = in.str();
    s.findings.push_back(std::move(f));
  }
  return s;
}

void encode_slack_report(ByteWriter& out, const SlackReport& s) {
  out.u64(s.requirements.size());
  for (const RequirementSlack& rs : s.requirements) {
    out.str(rs.requirement);
    out.i64(rs.requirement_ms);
    out.i64(rs.verified_ms);
    out.boolean(rs.bounded);
    out.i64(rs.slack_ms);
    out.u64(rs.critical.size());
    for (const CriticalTrace& ct : rs.critical) {
      out.i64(ct.delay_ms);
      out.i64(ct.slack_ms);
      mc::write_trace(out, ct.trace);
    }
    out.u64(rs.witness_consts.size());
    for (const std::int32_t c : rs.witness_consts) out.i32(c);
  }
  out.u64(s.binding_index);
  out.i64(s.min_slack_ms);
  out.boolean(s.any_unbounded);
}

SlackReport decode_slack_report(ByteReader& in) {
  SlackReport s;
  const std::size_t n = in.length(/*min_element_size=*/8 + 8 + 8 + 1 + 8 + 8 + 8);
  s.requirements.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RequirementSlack rs;
    rs.requirement = in.str();
    rs.requirement_ms = in.i64();
    rs.verified_ms = in.i64();
    rs.bounded = in.boolean();
    rs.slack_ms = in.i64();
    const std::size_t traces = in.length(/*min_element_size=*/8 + 8 + 8);
    PSV_REQUIRE_AS(ErrorCode::kProtocol, traces <= static_cast<std::size_t>(mc::kMaxTopK),
                   "malformed payload: critical-trace count " + std::to_string(traces));
    rs.critical.reserve(traces);
    for (std::size_t t = 0; t < traces; ++t) {
      CriticalTrace ct;
      ct.delay_ms = in.i64();
      ct.slack_ms = in.i64();
      ct.trace = mc::read_trace(in);
      rs.critical.push_back(std::move(ct));
    }
    const std::size_t consts = in.length(/*min_element_size=*/4);
    rs.witness_consts.reserve(consts);
    for (std::size_t c = 0; c < consts; ++c) rs.witness_consts.push_back(in.i32());
    s.requirements.push_back(std::move(rs));
  }
  s.binding_index = static_cast<std::size_t>(in.u64());
  PSV_REQUIRE_AS(ErrorCode::kProtocol,
                 s.requirements.empty() || s.binding_index < s.requirements.size(),
                 "malformed payload: binding index out of range");
  s.min_slack_ms = in.i64();
  s.any_unbounded = in.boolean();
  return s;
}

void encode_scheme_verification(ByteWriter& out, const SchemeVerification& sv) {
  out.str(sv.scheme_name);
  encode_schedulability_report(out, sv.schedulability);
  // sv.psm deliberately not serialized (see header).
  encode_constraint_report(out, sv.constraints);
  out.u64(sv.requirements.size());
  for (const RequirementResult& r : sv.requirements) encode_requirement_result(out, r);
  encode_slack_report(out, sv.slack);
  encode_stage_list(out, sv.stages);
}

SchemeVerification decode_scheme_verification(ByteReader& in) {
  SchemeVerification sv;
  sv.scheme_name = in.str();
  sv.schedulability = decode_schedulability_report(in);
  sv.constraints = decode_constraint_report(in);
  const std::size_t n = in.length(/*min_element_size=*/32);
  check_count(n, "requirement-result");
  sv.requirements.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sv.requirements.push_back(decode_requirement_result(in));
  sv.slack = decode_slack_report(in);
  sv.stages = decode_stage_list(in);
  return sv;
}

}  // namespace

VerifyRequest to_verify_request(const SourceRequest& request) {
  VerifyRequest out;
  out.pim = lang::parse_model(request.model_source);
  out.info = analyze_pim(out.pim);
  out.schemes.reserve(request.scheme_sources.size());
  for (const std::string& source : request.scheme_sources)
    out.schemes.push_back(lang::parse_scheme(source));
  out.requirements = request.requirements;
  out.options = request.options;
  return out;
}

void encode_timing_requirement(ByteWriter& out, const TimingRequirement& req) {
  out.str(req.name);
  out.str(req.input);
  out.str(req.output);
  out.i64(req.bound_ms);
}

TimingRequirement decode_timing_requirement(ByteReader& in) {
  TimingRequirement req;
  req.name = in.str();
  req.input = in.str();
  req.output = in.str();
  req.bound_ms = in.i64();
  return req;
}

void encode_verify_options(ByteWriter& out, const VerifyOptions& options) {
  out.i64(options.search_limit);
  out.u64(options.explore.max_states);
  out.u32(options.explore.jobs);
  out.boolean(options.transform.instrument_constraint4);
  out.boolean(options.run_constraint_checks);
  out.i32(options.top_k);
}

VerifyOptions decode_verify_options(ByteReader& in) {
  VerifyOptions options;
  options.search_limit = in.i64();
  options.explore.max_states = static_cast<std::size_t>(in.u64());
  options.explore.jobs = in.u32();
  options.transform.instrument_constraint4 = in.boolean();
  options.run_constraint_checks = in.boolean();
  options.top_k = in.i32();
  return options;
}

void encode_source_request(ByteWriter& out, const SourceRequest& request) {
  out.str(request.model_source);
  out.u64(request.scheme_sources.size());
  for (const std::string& s : request.scheme_sources) out.str(s);
  out.u64(request.requirements.size());
  for (const TimingRequirement& req : request.requirements)
    encode_timing_requirement(out, req);
  encode_verify_options(out, request.options);
}

SourceRequest decode_source_request(ByteReader& in) {
  SourceRequest request;
  request.model_source = in.str();
  const std::size_t schemes = in.length(/*min_element_size=*/8);
  check_count(schemes, "scheme-source");
  request.scheme_sources.reserve(schemes);
  for (std::size_t i = 0; i < schemes; ++i) request.scheme_sources.push_back(in.str());
  const std::size_t reqs = in.length(/*min_element_size=*/8 + 8 + 8 + 8);
  check_count(reqs, "requirement");
  request.requirements.reserve(reqs);
  for (std::size_t i = 0; i < reqs; ++i)
    request.requirements.push_back(decode_timing_requirement(in));
  request.options = decode_verify_options(in);
  return request;
}

void encode_verify_report(ByteWriter& out, const VerifyReport& report) {
  out.u64(report.requirements.size());
  for (const TimingRequirement& req : report.requirements)
    encode_timing_requirement(out, req);
  encode_stage_list(out, report.pim_stages);
  out.u64(report.schemes.size());
  for (const SchemeVerification& sv : report.schemes) encode_scheme_verification(out, sv);
}

namespace {

void encode_sweep_axis(ByteWriter& out, const SweepAxis& axis) {
  out.u8(static_cast<std::uint8_t>(axis.field));
  out.str(axis.base);
  out.i32(axis.lo);
  out.i32(axis.hi);
  out.i32(axis.step);
}

SweepAxis decode_sweep_axis(ByteReader& in) {
  SweepAxis axis;
  const std::uint8_t field = in.u8();
  PSV_REQUIRE_AS(ErrorCode::kProtocol,
                 field <= static_cast<std::uint8_t>(SweepField::kWriteStageMax),
                 "malformed payload: sweep field tag " + std::to_string(field));
  axis.field = static_cast<SweepField>(field);
  axis.base = in.str();
  axis.lo = in.i32();
  axis.hi = in.i32();
  axis.step = in.i32();
  return axis;
}

void encode_i64_list(ByteWriter& out, const std::vector<std::int64_t>& v) {
  out.u64(v.size());
  for (const std::int64_t x : v) out.i64(x);
}

std::vector<std::int64_t> decode_i64_list(ByteReader& in) {
  const std::size_t n = in.length(/*min_element_size=*/8);
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(in.i64());
  return v;
}

void encode_candidate_outcome(ByteWriter& out, const CandidateOutcome& c) {
  out.u64(c.index);
  out.u64(c.values.size());
  for (const std::int32_t v : c.values) out.i32(v);
  out.str(c.name);
  out.u8(static_cast<std::uint8_t>(c.status));
  out.boolean(c.constraints_ok);
  out.boolean(c.satisfies);
  encode_i64_list(out, c.analytic);
  encode_i64_list(out, c.delays);
  out.u64(c.bounded.size());
  for (const std::uint8_t b : c.bounded) out.u8(b);
  encode_i64_list(out, c.slack);
  mc::write_explore_stats(out, c.explore);
}

CandidateOutcome decode_candidate_outcome(ByteReader& in) {
  CandidateOutcome c;
  c.index = static_cast<std::size_t>(in.u64());
  const std::size_t values = in.length(/*min_element_size=*/4);
  c.values.reserve(values);
  for (std::size_t i = 0; i < values; ++i) c.values.push_back(in.i32());
  c.name = in.str();
  const std::uint8_t status = in.u8();
  PSV_REQUIRE_AS(
      ErrorCode::kProtocol,
      status <= static_cast<std::uint8_t>(CandidateOutcome::Status::kPrunedDominated),
      "malformed payload: candidate status " + std::to_string(status));
  c.status = static_cast<CandidateOutcome::Status>(status);
  c.constraints_ok = in.boolean();
  c.satisfies = in.boolean();
  c.analytic = decode_i64_list(in);
  c.delays = decode_i64_list(in);
  const std::size_t bounded = in.length(/*min_element_size=*/1);
  c.bounded.reserve(bounded);
  for (std::size_t i = 0; i < bounded; ++i) c.bounded.push_back(in.u8());
  c.slack = decode_i64_list(in);
  c.explore = mc::read_explore_stats(in);
  return c;
}

}  // namespace

SynthRequest to_synth_request(const SourceSynthRequest& request) {
  SynthRequest out;
  out.pim = lang::parse_model(request.model_source);
  out.info = analyze_pim(out.pim);
  out.tmpl = lang::parse_scheme_template(request.template_source);
  out.requirements = request.requirements;
  out.options = request.options;
  out.synth = request.synth;
  return out;
}

void encode_source_synth_request(ByteWriter& out, const SourceSynthRequest& request) {
  out.str(request.model_source);
  out.str(request.template_source);
  out.u64(request.requirements.size());
  for (const TimingRequirement& req : request.requirements)
    encode_timing_requirement(out, req);
  encode_verify_options(out, request.options);
  out.u32(request.synth.workers);
  out.boolean(request.synth.prune);
  out.u64(request.synth.visit_seed);
}

SourceSynthRequest decode_source_synth_request(ByteReader& in) {
  SourceSynthRequest request;
  request.model_source = in.str();
  request.template_source = in.str();
  const std::size_t reqs = in.length(/*min_element_size=*/8 + 8 + 8 + 8);
  check_count(reqs, "requirement");
  request.requirements.reserve(reqs);
  for (std::size_t i = 0; i < reqs; ++i)
    request.requirements.push_back(decode_timing_requirement(in));
  request.options = decode_verify_options(in);
  request.synth.workers = in.u32();
  request.synth.prune = in.boolean();
  request.synth.visit_seed = in.u64();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(),
                 "malformed payload: trailing bytes after synth request");
  return request;
}

void encode_synth_report(ByteWriter& out, const SynthReport& report) {
  out.u64(report.requirements.size());
  for (const TimingRequirement& req : report.requirements)
    encode_timing_requirement(out, req);
  out.u64(report.axes.size());
  for (const SweepAxis& axis : report.axes) encode_sweep_axis(out, axis);
  out.u64(report.candidates.size());
  for (const CandidateOutcome& c : report.candidates) encode_candidate_outcome(out, c);
  out.u64(report.pareto.size());
  for (const std::size_t idx : report.pareto) out.u64(idx);
  out.u64(report.feasibility.size());
  for (const FeasibilityEntry& f : report.feasibility) {
    out.str(f.requirement);
    out.boolean(f.bounded);
    out.i64(f.tightest_ms);
    out.str(f.witness);
    out.u64(f.critical.size());
    for (const CriticalTrace& ct : f.critical) {
      out.i64(ct.delay_ms);
      out.i64(ct.slack_ms);
      mc::write_trace(out, ct.trace);
    }
    out.u64(f.witness_consts.size());
    for (const std::int32_t c : f.witness_consts) out.i32(c);
  }
  out.u64(report.stats.candidates_total);
  out.u64(report.stats.pruned_analytic);
  out.u64(report.stats.pruned_dominated);
  out.u64(report.stats.explored_cold);
  out.u64(report.stats.explored_warm);
  out.u64(report.stats.fresh_states);
  out.u64(report.stats.warm_states_reused);
}

SynthReport decode_synth_report(ByteReader& in, std::uint16_t version) {
  PSV_REQUIRE_AS(ErrorCode::kProtocol, version == kPayloadVersion,
                 "synth report layout of protocol version " + std::to_string(version) +
                     " is not supported; this build speaks version " +
                     std::to_string(kPayloadVersion));
  SynthReport report;
  const std::size_t reqs = in.length(/*min_element_size=*/8 + 8 + 8 + 8);
  check_count(reqs, "requirement");
  report.requirements.reserve(reqs);
  for (std::size_t i = 0; i < reqs; ++i)
    report.requirements.push_back(decode_timing_requirement(in));
  const std::size_t axes = in.length(/*min_element_size=*/1 + 8 + 4 + 4 + 4);
  check_count(axes, "sweep-axis");
  report.axes.reserve(axes);
  for (std::size_t i = 0; i < axes; ++i) report.axes.push_back(decode_sweep_axis(in));
  const std::size_t candidates = in.length(/*min_element_size=*/8 + 8 + 8 + 1 + 2 + 32);
  check_count(candidates, "candidate");
  report.candidates.reserve(candidates);
  for (std::size_t i = 0; i < candidates; ++i)
    report.candidates.push_back(decode_candidate_outcome(in));
  const std::size_t pareto = in.length(/*min_element_size=*/8);
  check_count(pareto, "pareto-index");
  report.pareto.reserve(pareto);
  for (std::size_t i = 0; i < pareto; ++i) {
    const std::size_t idx = static_cast<std::size_t>(in.u64());
    PSV_REQUIRE_AS(ErrorCode::kProtocol, idx < report.candidates.size(),
                   "malformed payload: pareto index out of range");
    report.pareto.push_back(idx);
  }
  const std::size_t feasibility = in.length(/*min_element_size=*/8 + 1 + 8 + 8);
  check_count(feasibility, "feasibility-entry");
  report.feasibility.reserve(feasibility);
  for (std::size_t i = 0; i < feasibility; ++i) {
    FeasibilityEntry f;
    f.requirement = in.str();
    f.bounded = in.boolean();
    f.tightest_ms = in.i64();
    f.witness = in.str();
    const std::size_t traces = in.length(/*min_element_size=*/8 + 8 + 8);
    PSV_REQUIRE_AS(ErrorCode::kProtocol, traces <= static_cast<std::size_t>(mc::kMaxTopK),
                   "malformed payload: critical-trace count " + std::to_string(traces));
    f.critical.reserve(traces);
    for (std::size_t t = 0; t < traces; ++t) {
      CriticalTrace ct;
      ct.delay_ms = in.i64();
      ct.slack_ms = in.i64();
      ct.trace = mc::read_trace(in);
      f.critical.push_back(std::move(ct));
    }
    const std::size_t consts = in.length(/*min_element_size=*/4);
    f.witness_consts.reserve(consts);
    for (std::size_t c = 0; c < consts; ++c) f.witness_consts.push_back(in.i32());
    report.feasibility.push_back(std::move(f));
  }
  report.stats.candidates_total = in.u64();
  report.stats.pruned_analytic = in.u64();
  report.stats.pruned_dominated = in.u64();
  report.stats.explored_cold = in.u64();
  report.stats.explored_warm = in.u64();
  report.stats.fresh_states = in.u64();
  report.stats.warm_states_reused = in.u64();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(),
                 "malformed payload: trailing bytes after synth report");
  return report;
}

VerifyReport decode_verify_report(ByteReader& in) {
  VerifyReport report;
  const std::size_t reqs = in.length(/*min_element_size=*/8 + 8 + 8 + 8);
  check_count(reqs, "requirement");
  report.requirements.reserve(reqs);
  for (std::size_t i = 0; i < reqs; ++i)
    report.requirements.push_back(decode_timing_requirement(in));
  report.pim_stages = decode_stage_list(in);
  const std::size_t schemes = in.length(/*min_element_size=*/64);
  check_count(schemes, "scheme-verification");
  report.schemes.reserve(schemes);
  for (std::size_t i = 0; i < schemes; ++i)
    report.schemes.push_back(decode_scheme_verification(in));
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(),
                 "malformed payload: trailing bytes after report");
  return report;
}

}  // namespace psv::core
