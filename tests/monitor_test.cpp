// The verified-runtime-monitor surface (monitor/, sim/event_tap.h, and the
// Verifier::monitor_spec bridge): obligation-window semantics, the
// trace-concretizing event tap, and the differential contract between the
// in-process DelayMonitor and the generated C99 backend.
//
// The load-bearing gates:
//   * the monitor's window semantics mirror the model checker's requirement
//     probe exactly (late at the completion time, missed at the deadline,
//     overlap keeps timing from the first outstanding request);
//   * a concretized critical trace attains its reported delay EXACTLY, so
//     replaying verified PASS traces through the monitor never fires and
//     replaying FAIL witnesses fires at the exact violation timestamp;
//   * both backends render byte-identical verdict lines on the same stream
//     (compiled with the host C compiler when one is available).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/service.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "model_paths.h"
#include "monitor/cmon.h"
#include "monitor/monitor.h"
#include "sim/event_tap.h"
#include "util/error.h"
#include "util/rng.h"

namespace psv {
namespace {

using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;

monitor::MonitorSpec one_req_spec(std::int64_t bound_ms = 80) {
  monitor::MonitorSpec spec;
  spec.scheme = "unit";
  spec.requirements.push_back({"R", "Req", "Ack", bound_ms, bound_ms - 1, true});
  return spec;
}

// --- DelayMonitor window semantics ----------------------------------------

TEST(DelayMonitor, AcceptsCompletionAtExactlyTheBound) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 1000);
  mon.observe('c', "Ack", 1000 + 80'000);  // delay == bound: on time
  mon.finish(200'000);
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.events(), 2);
  EXPECT_EQ(mon.verdict_text(), "monitor: verdict OK events=2\n");
}

TEST(DelayMonitor, FlagsLateCompletionOneMicrosecondOver) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 1000);
  mon.observe('c', "Ack", 1000 + 80'001);
  mon.finish(200'000);
  ASSERT_FALSE(mon.ok());
  const std::vector<monitor::Violation> vs = mon.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, monitor::ViolationKind::kLate);
  EXPECT_EQ(vs[0].at_us, 81'001);  // the completion timestamp
  EXPECT_EQ(vs[0].delay_us, 80'001);
  EXPECT_EQ(vs[0].step, 1);
  EXPECT_EQ(mon.verdict_text(),
            "monitor: violation R late step=1 at=81001us delay=80001us bound=80000us\n"
            "monitor: verdict VIOLATION violations=1 events=2\n");
}

TEST(DelayMonitor, FlagsMissedDeadlineAtTheDeadlineItself) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 5000);
  // The next event arrives well past the deadline; the violation is pinned
  // at since + bound, not at the detecting event.
  mon.observe('i', "Req", 500'000);
  mon.finish(600'000);
  ASSERT_FALSE(mon.ok());
  const std::vector<monitor::Violation> vs = mon.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, monitor::ViolationKind::kMissed);
  EXPECT_EQ(vs[0].at_us, 85'000);
  EXPECT_EQ(vs[0].delay_us, 0);
}

TEST(DelayMonitor, FinishDetectsMissedDeadlineAtEndOfStream) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 0);
  EXPECT_TRUE(mon.ok());
  mon.finish(80'001);
  ASSERT_FALSE(mon.ok());
  EXPECT_EQ(mon.violations().at(0).kind, monitor::ViolationKind::kMissed);
  EXPECT_EQ(mon.violations().at(0).at_us, 80'000);
}

TEST(DelayMonitor, FinishInsideTheWindowIsOk) {
  // PASS critical traces end mid-obligation (the probe predicate is
  // pending==1): end of stream before the deadline must not fire.
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 0);
  mon.finish(80'000);  // exactly the deadline: still satisfiable
  EXPECT_TRUE(mon.ok());
}

TEST(DelayMonitor, OverlapKeepsTimingFromTheFirstRequest) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 0);
  mon.observe('m', "Req", 50'000);  // overlapping request
  mon.observe('c', "Ack", 81'000);  // 81ms after the FIRST m: late
  mon.finish(100'000);
  ASSERT_FALSE(mon.ok());
  EXPECT_EQ(mon.violations().at(0).kind, monitor::ViolationKind::kLate);
  EXPECT_EQ(mon.violations().at(0).delay_us, 81'000);
}

TEST(DelayMonitor, RecordsOnlyTheFirstViolationPerRequirement) {
  monitor::DelayMonitor mon(one_req_spec(80));
  for (int round = 0; round < 3; ++round) {
    const std::int64_t base = round * 1'000'000;
    mon.observe('m', "Req", base);
    mon.observe('c', "Ack", base + 90'000);
  }
  mon.finish(3'000'000);
  EXPECT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.events(), 6);
}

TEST(DelayMonitor, IgnoresOtherBoundariesAndNames) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('i', "Req", 0);       // program-side input: not an m
  mon.observe('o', "Ack", 10);      // program-side output: not a c
  mon.observe('m', "Other", 20);    // different variable
  mon.observe('c', "Ack", 30);      // no window armed: ignored
  mon.finish(1'000'000);
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.events(), 4);
}

TEST(DelayMonitor, RejectsNonMonotoneTimestampsAndBadSpecs) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 1000);
  EXPECT_THROW(mon.observe('c', "Ack", 999), Error);

  monitor::MonitorSpec empty;
  EXPECT_THROW(monitor::DelayMonitor{empty}, Error);

  monitor::MonitorSpec dup = one_req_spec();
  dup.requirements.push_back(dup.requirements.front());
  EXPECT_THROW(monitor::DelayMonitor{dup}, Error);

  monitor::MonitorSpec zero = one_req_spec(0);
  EXPECT_THROW(monitor::DelayMonitor{zero}, Error);
}

TEST(DelayMonitor, ResetForgetsWindowsAndViolations) {
  monitor::DelayMonitor mon(one_req_spec(80));
  mon.observe('m', "Req", 0);
  mon.finish(200'000);
  ASSERT_FALSE(mon.ok());
  mon.reset();
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.events(), 0);
  mon.observe('m', "Req", 0);
  mon.observe('c', "Ack", 10'000);
  mon.finish(20'000);
  EXPECT_TRUE(mon.ok());
}

// Seeded fuzz around the boundary: the monitor's verdict must equal the
// arithmetic predicate delay > bound for completions, and deadline-passage
// for missed windows, for every perturbation.
TEST(DelayMonitor, FuzzedTimestampsAroundTheBoundAgreeWithArithmetic) {
  Rng rng(2015);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t bound_ms = rng.uniform_int(1, 200);
    const std::int64_t m_at = rng.uniform_int(0, 1'000'000);
    // Perturb the completion within ±5us of the deadline to hammer the
    // boundary, plus occasional far misses.
    const std::int64_t jitter = rng.uniform_int(-5, 5);
    const std::int64_t far = rng.chance(0.25) ? rng.uniform_int(0, 100'000) : 0;
    const std::int64_t delay = std::max<std::int64_t>(0, bound_ms * 1000 + jitter + far);
    monitor::DelayMonitor mon(one_req_spec(bound_ms));
    mon.observe('m', "Req", m_at);
    mon.observe('c', "Ack", m_at + delay);
    mon.finish(m_at + delay);
    const bool late = delay > bound_ms * 1000;
    EXPECT_EQ(mon.ok(), !late) << "bound=" << bound_ms << "ms delay=" << delay << "us";
    if (late) {
      ASSERT_EQ(mon.violations().size(), 1u);
      EXPECT_EQ(mon.violations()[0].kind, monitor::ViolationKind::kLate);
      EXPECT_EQ(mon.violations()[0].delay_us, delay);
    }
  }
}

// --- Generated C99 backend ------------------------------------------------

TEST(CMonitor, EmitsSelfContainedTranslationUnit) {
  monitor::MonitorSpec spec;
  spec.scheme = "IS1";
  spec.requirements.push_back({"REQ1", "BolusReq", "StartInfusion", 500, 460, true});
  spec.requirements.push_back({"REQ2", "BolusReq", "StopInfusion", 2500, 1760, true});
  const std::string c = monitor::emit_c_monitor(spec, {"pump"});
  // The ABI surface.
  EXPECT_NE(c.find("void pump_mon_init"), std::string::npos);
  EXPECT_NE(c.find("void pump_mon_observe"), std::string::npos);
  EXPECT_NE(c.find("void pump_mon_finish"), std::string::npos);
  EXPECT_NE(c.find("int pump_mon_status"), std::string::npos);
  EXPECT_NE(c.find("#define PUMP_MON_REQS 2"), std::string::npos);
  // Enum-coded events: the shared m input appears once, both c outputs.
  EXPECT_NE(c.find("PUMP_EV_M_BolusReq"), std::string::npos);
  EXPECT_NE(c.find("PUMP_EV_C_StartInfusion"), std::string::npos);
  EXPECT_NE(c.find("PUMP_EV_C_StopInfusion"), std::string::npos);
  // Bounds travel in microseconds; provenance is stamped in the header.
  EXPECT_NE(c.find("500000"), std::string::npos);
  EXPECT_NE(c.find("2500000"), std::string::npos);
  EXPECT_NE(c.find("scheme IS1"), std::string::npos);
  // Dependency-free: stdio only enters inside the optional driver guard.
  const std::size_t guard = c.find("#ifdef PSV_MON_MAIN");
  const std::size_t stdio = c.find("#include <stdio.h>");
  ASSERT_NE(guard, std::string::npos);
  ASSERT_NE(stdio, std::string::npos);
  EXPECT_GT(stdio, guard);
  EXPECT_THROW(monitor::emit_c_monitor(monitor::MonitorSpec{}), Error);
}

/// True when a host C compiler is reachable as `cc`.
bool have_cc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

/// Compile `c_source` with -std=c99 -Wall -Werror -DPSV_MON_MAIN and run it
/// over `events`, returning the captured stdout.
std::string run_c_monitor(const std::string& c_source, const std::string& events,
                          const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/psv_mon_" + tag + ".c";
  const std::string bin = dir + "/psv_mon_" + tag;
  const std::string events_path = dir + "/psv_mon_" + tag + ".events";
  const std::string out_path = dir + "/psv_mon_" + tag + ".out";
  { std::ofstream(src) << c_source; }
  { std::ofstream(events_path) << events; }
  const std::string compile =
      "cc -std=c99 -Wall -Werror -DPSV_MON_MAIN -o " + bin + " " + src + " > /dev/null 2>&1";
  if (std::system(compile.c_str()) != 0) return "<compile failed>";
  const std::string run = bin + " < " + events_path + " > " + out_path + " 2>/dev/null";
  if (std::system(run.c_str()) != 0) return "<run failed>";
  return util::try_read_file(out_path).value_or(std::string{});
}

// Differential: a seeded stream of events through both backends must render
// byte-identical verdict lines — including fuzzed timestamps straddling the
// bound and TRACE-separated resets.
TEST(CMonitor, DifferentialAgainstDelayMonitorOnFuzzedStreams) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  monitor::MonitorSpec spec;
  spec.scheme = "fuzz";
  spec.requirements.push_back({"R1", "Req", "Ack", 80, 59, true});
  spec.requirements.push_back({"R2", "Req", "Done", 120, 90, true});
  const std::string c = monitor::emit_c_monitor(spec);

  Rng rng(4242);
  std::ostringstream events;
  std::ostringstream expected;
  for (int t = 0; t < 24; ++t) {
    monitor::DelayMonitor mon(spec);
    events << "TRACE FUZZ " << t << "\n";
    expected << "monitor: trace FUZZ " << t << "\n";
    std::int64_t at = rng.uniform_int(0, 1000);
    const int n = static_cast<int>(rng.uniform_int(2, 7));
    for (int e = 0; e < n; ++e) {
      const std::int64_t pick = rng.uniform_int(0, 3);
      const char kind = pick == 0 ? 'm' : pick == 1 ? 'c' : pick == 2 ? 'i' : 'o';
      const std::string name =
          rng.chance(0.33) ? "Done" : (pick % 2 == 0 ? "Req" : "Ack");
      // Half the advances straddle a deadline region on purpose.
      at += rng.chance(0.5) ? rng.uniform_int(0, 1000) : rng.uniform_int(79'995, 80'005);
      mon.observe(kind, name, at);
      events << "OBS " << at << " " << kind << " " << name << "\n";
    }
    at += rng.uniform_int(0, 50'000);
    mon.finish(at);
    events << "END " << at << "\n";
    expected << mon.verdict_text();
  }

  const std::string got = run_c_monitor(c, events.str(), "fuzz");
  ASSERT_NE(got, "<compile failed>") << "generated C does not compile warning-clean";
  ASSERT_NE(got, "<run failed>");
  EXPECT_EQ(got, expected.str());
}

// --- monitor_spec: only PASS cells are enforceable ------------------------

TEST(MonitorSpec, BuiltFromPassingReportCarriesProvenance) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.info = core::analyze_pim(request.pim);
  request.schemes = {parse_scheme_file("fast.pss")};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  core::Verifier verifier;
  const core::VerifyReport report = verifier.verify(request);
  ASSERT_TRUE(report.all_passed());

  const monitor::MonitorSpec spec = core::Verifier::monitor_spec(report);
  EXPECT_EQ(spec.scheme, "IS1-fast");
  ASSERT_EQ(spec.requirements.size(), 1u);
  EXPECT_EQ(spec.requirements[0].name, "QREQ");
  EXPECT_EQ(spec.requirements[0].input, "Req");
  EXPECT_EQ(spec.requirements[0].output, "Ack");
  EXPECT_EQ(spec.requirements[0].bound_ms, 80);
  EXPECT_EQ(spec.requirements[0].verified_ms, 59);  // the proved worst case
  EXPECT_TRUE(spec.requirements[0].verified);
}

TEST(MonitorSpec, RefusesFailingReportWithWitnessDelay) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.info = core::analyze_pim(request.pim);
  request.schemes = {parse_scheme_file("late.pss")};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  core::Verifier verifier;
  const core::VerifyReport report = verifier.verify(request);
  ASSERT_FALSE(report.all_passed());
  try {
    (void)core::Verifier::monitor_spec(report);
    FAIL() << "monitor_spec must refuse a FAIL cell";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kModel);
    EXPECT_NE(std::string(e.what()).find("QREQ"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("284ms"), std::string::npos) << e.what();
  }
}

// --- Event tap: concretized traces drive the monitor exactly --------------

/// Verify `scheme_file` against quickstart's QREQ and return report + the
/// reconstructed instrumented batch for tapping.
struct TappedFixture {
  core::VerifyReport report;
  core::InstrumentedPsmBatch batch;
};

TappedFixture verify_quickstart(const std::string& scheme_file) {
  core::VerifyRequest request;
  request.pim = parse_model_file("quickstart.psv");
  request.info = core::analyze_pim(request.pim);
  const core::ImplementationScheme scheme = parse_scheme_file(scheme_file);
  request.schemes = {scheme};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  core::Verifier verifier;
  core::VerifyReport report = verifier.verify(request);
  core::PsmArtifacts psm = core::transform(request.pim, *request.info, scheme);
  core::InstrumentedPsmBatch batch =
      core::instrument_psm_for_requirements(psm, request.requirements);
  return {std::move(report), std::move(batch)};
}

TEST(EventTap, ConcretizesPassTracesExactlyAndMonitorAccepts) {
  TappedFixture fx = verify_quickstart("fast.pss");
  const core::RequirementSlack& rs = fx.report.schemes[0].slack.requirements.at(0);
  ASSERT_FALSE(rs.critical.empty());

  const monitor::MonitorSpec spec = core::Verifier::monitor_spec(fx.report);
  for (std::size_t k = 0; k < rs.critical.size(); ++k) {
    const core::CriticalTrace& ct = rs.critical[k];
    const sim::TapResult tap =
        sim::tap_trace(fx.batch.net, ct.trace, rs.witness_consts, fx.batch.mc_probes[0].clock);
    ASSERT_TRUE(tap.ok) << "critical[" << k << "]: " << tap.error;
    // Sweep witnesses sit below the extrapolation constants: the schedule
    // attains the recorded delay EXACTLY, not merely an upper bound.
    EXPECT_EQ(tap.max_value_ms, ct.delay_ms) << "critical[" << k << "]";
    ASSERT_FALSE(tap.events.empty());
    for (std::size_t e = 1; e < tap.events.size(); ++e)
      EXPECT_GE(tap.events[e].at_us, tap.events[e - 1].at_us) << "events must be time-ordered";

    monitor::DelayMonitor mon(spec);
    for (const sim::TappedEvent& ev : tap.events) mon.observe(ev.boundary, ev.name, ev.at_us);
    mon.finish(tap.end_us);
    EXPECT_TRUE(mon.ok()) << "critical[" << k << "]:\n" << mon.verdict_text();
  }
}

TEST(EventTap, FailWitnessFiresTheMonitorAtTheExactDeadline) {
  TappedFixture fx = verify_quickstart("late.pss");
  const core::RequirementResult& rr = fx.report.schemes[0].requirements.at(0);
  ASSERT_FALSE(rr.passed);
  EXPECT_EQ(rr.bounds.verified_mc_delay, 284);
  const core::RequirementSlack& rs = fx.report.schemes[0].slack.requirements.at(0);
  ASSERT_FALSE(rs.critical.empty());
  const core::CriticalTrace& ct = rs.critical.front();
  EXPECT_EQ(ct.delay_ms, 284);

  const sim::TapResult tap =
      sim::tap_trace(fx.batch.net, ct.trace, rs.witness_consts, fx.batch.mc_probes[0].clock);
  ASSERT_TRUE(tap.ok) << tap.error;
  EXPECT_EQ(tap.max_value_ms, 284);

  // monitor_spec refuses the FAIL report; hand-build the spec the way
  // --monitor-check does to watch the witness break the bound.
  monitor::MonitorSpec spec;
  spec.requirements.push_back({"QREQ", "Req", "Ack", 80, 284, false});
  monitor::DelayMonitor mon(spec);
  std::int64_t m_at = -1;
  for (const sim::TappedEvent& ev : tap.events) {
    if (ev.boundary == 'm' && m_at < 0) m_at = ev.at_us;
    mon.observe(ev.boundary, ev.name, ev.at_us);
  }
  mon.finish(tap.end_us);
  ASSERT_GE(m_at, 0) << "the witness must cross the m boundary";
  ASSERT_FALSE(mon.ok());
  const monitor::Violation v = mon.violations().at(0);
  // The violation is pinned at the deadline of the first outstanding
  // request — exact to the microsecond.
  EXPECT_EQ(v.kind, monitor::ViolationKind::kMissed);
  EXPECT_EQ(v.at_us, m_at + 80'000);
}

TEST(EventTap, RejectsTamperedTraces) {
  TappedFixture fx = verify_quickstart("fast.pss");
  const core::RequirementSlack& rs = fx.report.schemes[0].slack.requirements.at(0);
  ASSERT_FALSE(rs.critical.empty());
  mc::Trace tampered = rs.critical.front().trace;
  ASSERT_GE(tampered.steps.size(), 2u);
  tampered.steps[1].label = "Phantom.l0->l1[boom!]";
  const sim::TapResult tap =
      sim::tap_trace(fx.batch.net, tampered, rs.witness_consts, fx.batch.mc_probes[0].clock);
  EXPECT_FALSE(tap.ok);
  EXPECT_NE(tap.error.find("step 1"), std::string::npos) << tap.error;

  const sim::TapResult empty =
      sim::tap_trace(fx.batch.net, mc::Trace{}, rs.witness_consts, fx.batch.mc_probes[0].clock);
  EXPECT_FALSE(empty.ok);
}

// End-to-end differential on a real verified artifact: the generated C
// monitor (from the PASS spec) must byte-agree with DelayMonitor on both
// the PASS traces and the FAIL witness stream.
TEST(EventTap, GeneratedCMonitorAgreesOnRealTraces) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  TappedFixture pass = verify_quickstart("fast.pss");
  TappedFixture fail = verify_quickstart("late.pss");
  const monitor::MonitorSpec spec = core::Verifier::monitor_spec(pass.report);
  const std::string c = monitor::emit_c_monitor(spec);

  std::ostringstream events;
  std::ostringstream expected;
  auto stream_fixture = [&](const TappedFixture& fx, const char* tag) {
    const core::RequirementSlack& rs = fx.report.schemes[0].slack.requirements.at(0);
    for (std::size_t k = 0; k < rs.critical.size(); ++k) {
      const sim::TapResult tap = sim::tap_trace(fx.batch.net, rs.critical[k].trace,
                                                rs.witness_consts, fx.batch.mc_probes[0].clock);
      ASSERT_TRUE(tap.ok) << tag << " critical[" << k << "]: " << tap.error;
      monitor::DelayMonitor mon(spec);
      events << "TRACE " << tag << " " << k << "\n";
      expected << "monitor: trace " << tag << " " << k << "\n";
      for (const sim::TappedEvent& ev : tap.events) {
        mon.observe(ev.boundary, ev.name, ev.at_us);
        events << "OBS " << ev.at_us << " " << ev.boundary << " " << ev.name << "\n";
      }
      mon.finish(tap.end_us);
      events << "END " << tap.end_us << "\n";
      expected << mon.verdict_text();
      // The PASS spec enforces the same "Req -> Ack within 80" on both
      // streams, so FAIL traces must show a violation here.
      EXPECT_EQ(mon.ok(), rs.critical[k].delay_ms <= 80) << tag << " critical[" << k << "]";
    }
  };
  stream_fixture(pass, "PASS");
  stream_fixture(fail, "FAIL");

  const std::string got = run_c_monitor(c, events.str(), "real");
  ASSERT_NE(got, "<compile failed>") << "generated C does not compile warning-clean";
  ASSERT_NE(got, "<run failed>");
  EXPECT_EQ(got, expected.str());
}

}  // namespace
}  // namespace psv
