// Certificates for the shipped verification runs and for warm starts.
//
// Each run's verdicts — delay bounds, C1–C4 flags, the timelock verdict —
// are checked by support/certificate.h against the live passed list of an
// exploration alone: no waves, no waiting list, no ordering. The PSM runs
// reconstruct the exact batch the Verifier explored (transformation and
// instrumentation are deterministic) and hold the Verifier's report to the
// certified session answers; the randomized scheme edits check that a
// warm-started session, a cold one and the certificate agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/constraints.h"
#include "core/pim.h"
#include "core/service.h"
#include "lang/scheme_parser.h"
#include "mc/session.h"
#include "model_paths.h"
#include "support/certificate.h"
#include "util/rng.h"

namespace psv {
namespace {

using psv::testing::certify;
using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;
using psv::testing::ReportedVerdicts;

/// The PSM batch a Verifier request explores for one scheme: the
/// instrumented network, the bound-query plan and the C1–C4 flags.
struct PsmBatch {
  core::PsmArtifacts psm;
  ta::Network net;
  core::BoundQueryPlan plan;
  std::vector<ta::VarId> flags;
};

PsmBatch psm_batch(const core::VerifyReport& report, std::size_t scheme,
                   const core::VerifyOptions& options) {
  const core::SchemeVerification& sv = report.schemes.at(scheme);
  std::vector<std::int64_t> internals;
  for (const core::RequirementResult& rr : sv.requirements)
    internals.push_back(rr.pim.bounded ? rr.pim.max_delay : rr.requirement.bound_ms);
  PsmBatch batch;
  batch.psm = sv.psm;
  core::InstrumentedPsmBatch instrumented =
      core::instrument_psm_for_requirements(batch.psm, report.requirements);
  batch.net = std::move(instrumented.net);
  batch.plan = core::plan_bound_queries(batch.psm, instrumented.mc_probes, report.requirements,
                                        internals, options.search_limit, options.top_k);
  batch.flags = core::constraint_flag_vars(batch.psm);
  return batch;
}

/// The verdicts one session reports for the batch.
ReportedVerdicts session_verdicts(mc::VerificationSession& session, const PsmBatch& batch) {
  const mc::VerificationSession::BatchReport answers =
      session.verify_batch(batch.plan.queries, batch.flags);
  ReportedVerdicts verdicts;
  verdicts.queries = batch.plan.queries;
  verdicts.bounds = answers.bounds;
  verdicts.flags = batch.flags;
  verdicts.flag_reachable = answers.flags.reachable;
  verdicts.deadlock = ReportedVerdicts::Deadlock{answers.flags.deadlock.found,
                                                 answers.flags.deadlock.timelock};
  return verdicts;
}

void expect_same_verdicts(const ReportedVerdicts& a, const ReportedVerdicts& b,
                          const std::string& label) {
  ASSERT_EQ(a.bounds.size(), b.bounds.size()) << label;
  for (std::size_t q = 0; q < a.bounds.size(); ++q) {
    EXPECT_EQ(a.bounds[q].bounded, b.bounds[q].bounded) << label << " query " << q;
    EXPECT_EQ(a.bounds[q].bound, b.bounds[q].bound) << label << " query " << q;
    EXPECT_EQ(a.bounds[q].condition_unreachable, b.bounds[q].condition_unreachable)
        << label << " query " << q;
  }
  EXPECT_EQ(a.flag_reachable, b.flag_reachable) << label;
  ASSERT_TRUE(a.deadlock && b.deadlock) << label;
  EXPECT_EQ(a.deadlock->found, b.deadlock->found) << label;
  EXPECT_EQ(a.deadlock->timelock, b.deadlock->timelock) << label;
}

/// Verify through the service, then certify the PSM batch of every scheme:
/// a fresh session over the reconstructed batch must reproduce the report's
/// bounds and constraint lines, and the certificate must accept its
/// verdicts. Returns the report for further checks.
core::VerifyReport verify_and_certify(const std::string& model, const std::string& scheme_file,
                                      const std::vector<std::string>& requirements) {
  core::VerifyRequest request;
  request.pim = parse_model_file(model);
  request.schemes = {parse_scheme_file(scheme_file)};
  for (const std::string& text : requirements)
    request.requirements.push_back(lang::parse_requirement(text));
  const core::VerifyReport report = core::Verifier().verify(request);

  const PsmBatch batch = psm_batch(report, 0, request.options);
  mc::VerificationSession session(batch.net, request.options.explore);
  const ReportedVerdicts verdicts = session_verdicts(session, batch);

  const core::SchemeVerification& sv = report.schemes.at(0);
  EXPECT_EQ(core::check_constraints(session, batch.psm).to_string(), sv.constraints.to_string());
  std::vector<std::int64_t> internals;
  for (const core::RequirementResult& rr : sv.requirements)
    internals.push_back(rr.bounds.io_internal);
  const std::vector<core::BoundAnalysis> analyses =
      core::assemble_bound_analyses(batch.plan, batch.psm, report.requirements, internals,
                                    verdicts.bounds, request.options.search_limit);
  for (std::size_t r = 0; r < analyses.size(); ++r)
    EXPECT_EQ(analyses[r].to_string(), sv.requirements[r].bounds.to_string()) << requirements[r];

  const testing::CertificateResult cert = certify(batch.net, verdicts);
  EXPECT_TRUE(cert.ok()) << model << " + " << scheme_file << ": " << cert.to_string();
  EXPECT_GT(cert.successors_checked, 0u);
  return report;
}

TEST(Certificate, PumpReq1Req2) {
  const core::VerifyReport report = verify_and_certify(
      "pump.psv", "board.pss",
      {"REQ1: BolusReq -> StartInfusion within 500", "REQ2: BolusReq -> StopInfusion within 2500"});
  const core::SchemeVerification& sv = report.schemes.at(0);
  EXPECT_EQ(sv.requirements.at(0).bounds.verified_mc_delay, 1150);
  EXPECT_EQ(sv.requirements.at(1).bounds.verified_mc_delay, 1760);
  EXPECT_TRUE(sv.constraints.all_hold());
}

TEST(Certificate, QuickstartFast) {
  const core::VerifyReport report =
      verify_and_certify("quickstart.psv", "fast.pss", {"QREQ: Req -> Ack within 80"});
  EXPECT_EQ(report.schemes.at(0).requirements.at(0).bounds.verified_mc_delay, 59);
}

TEST(Certificate, QuickstartLateTimelock) {
  const core::VerifyReport report =
      verify_and_certify("quickstart.psv", "late.pss", {"QREQ: Req -> Ack within 80"});
  EXPECT_FALSE(report.schemes.at(0).constraints.all_hold()) << "late.pss has a timelock";
}

// The PIM stage: one sweep over the probe-instrumented PIM answers every
// requirement's M-C maximum.
TEST(Certificate, PumpPimBatch) {
  ta::Network pim = parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const std::vector<core::TimingRequirement> reqs = {
      lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500"),
      lang::parse_requirement("REQ2: BolusReq -> StopInfusion within 2500")};
  const std::vector<core::RequirementProbe> probes =
      core::instrument_mc_delays(pim, pim.automaton(info.environment).name(), reqs);
  mc::VerificationSession session(pim);
  const core::PimBatchVerification pim_batch =
      core::verify_pim_requirements_in_session(session, probes, reqs, 1'000'000, false);
  EXPECT_EQ(pim_batch.explorations, 1) << "each requirement bound settles its own query";

  ReportedVerdicts verdicts;
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    mc::BoundQuery query;
    query.pred = mc::when(ta::var_eq(probes[r].pending, 1));
    query.clock = probes[r].clock;
    query.limit = 1'000'000;
    query.hint = reqs[r].bound_ms;
    verdicts.queries.push_back(query);
  }
  verdicts.bounds = session.max_clock_values(verdicts.queries);
  EXPECT_EQ(verdicts.bounds[0].bound, 500);
  EXPECT_EQ(verdicts.bounds[1].bound, 1700);
  const testing::CertificateResult cert = certify(pim, verdicts);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
}

// Seeded randomized scheme edits of the quickstart platform: each edit
// changes one timing constant of fast.pss (the PSM skeleton stays), the
// edited batch is verified cold and warm-started from the unedited batch's
// passed store, and warm ≡ cold ≡ certificate.
TEST(Certificate, SeededSchemeEditsWarmMatchesColdAndCertificate) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.schemes = {parse_scheme_file("fast.pss")};
  request.requirements = {lang::parse_requirement("QREQ: Req -> Ack within 80")};
  const core::VerifyReport base_report = core::Verifier().verify(request);
  const PsmBatch base = psm_batch(base_report, 0, request.options);
  mc::VerificationSession ancestor(base.net);
  session_verdicts(ancestor, base);
  const std::shared_ptr<const mc::PassedStoreExport> store = ancestor.exported_store();
  ASSERT_NE(store, nullptr);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919 + 17);
    core::ImplementationScheme scheme = request.schemes.front();
    const auto which = static_cast<int>(rng.uniform_int(0, 4));
    const auto d = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    core::InputSpec& in = scheme.inputs.begin()->second;
    core::OutputSpec& out = scheme.outputs.begin()->second;
    switch (which) {
      case 0: out.delay_max += d; break;
      case 1: in.delay_max += d; break;
      case 2: scheme.io.period += d; break;
      case 3: scheme.io.write_stage_max += d; break;
      default: out.delay_min = std::min(out.delay_max, out.delay_min + d); break;
    }
    const std::string label = "seed " + std::to_string(seed) + " edit " + std::to_string(which) +
                              " by " + std::to_string(d);
    core::VerifyRequest edited = request;
    edited.schemes = {scheme};
    const core::VerifyReport report = core::Verifier().verify(edited);
    const PsmBatch batch = psm_batch(report, 0, edited.options);
    ASSERT_EQ(batch.net.num_clocks(), base.net.num_clocks()) << label;

    mc::VerificationSession cold(batch.net);
    const ReportedVerdicts cold_verdicts = session_verdicts(cold, batch);
    mc::VerificationSession warm(batch.net);
    warm.adopt_ancestor(store);
    const ReportedVerdicts warm_verdicts = session_verdicts(warm, batch);
    expect_same_verdicts(cold_verdicts, warm_verdicts, label);
    EXPECT_GT(warm.stats().warm_start_states_reused() + warm.stats().states_revalidated(), 0u)
        << label << ": the ancestor store was never consulted";

    for (const ReportedVerdicts* verdicts : {&cold_verdicts, &warm_verdicts}) {
      const testing::CertificateResult cert = certify(batch.net, *verdicts);
      EXPECT_TRUE(cert.ok()) << label << ": " << cert.to_string();
    }
  }
}

}  // namespace
}  // namespace psv
