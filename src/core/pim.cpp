#include "core/pim.h"

#include <algorithm>

#include "mc/query.h"
#include "mc/session.h"
#include "ta/validate.h"
#include "util/error.h"
#include "util/strings.h"

namespace psv::core {

PimInfo analyze_pim(const ta::Network& pim, const std::string& software_name,
                    const std::string& environment_name) {
  ta::validate_or_throw(pim);
  PimInfo info;

  const auto software = pim.automaton_by_name(software_name);
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, software.has_value(), "PIM has no software automaton named '" + software_name + "'");
  const auto environment = pim.automaton_by_name(environment_name);
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, environment.has_value(),
              "PIM has no environment automaton named '" + environment_name + "'");
  info.software = *software;
  info.environment = *environment;

  for (ta::ChanId c = 0; c < static_cast<ta::ChanId>(pim.channels().size()); ++c) {
    const std::string& name = pim.channels()[static_cast<std::size_t>(c)].name;
    if (starts_with(name, kInputPrefix)) {
      info.inputs.push_back(name.substr(2));
    } else if (starts_with(name, kOutputPrefix)) {
      info.outputs.push_back(name.substr(2));
    } else {
      PSV_FAIL_AS(::psv::ErrorCode::kModel, "PIM channel '" + name + "' is neither an input (m_*) nor an output (c_*)");
    }
  }
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !info.inputs.empty(), "PIM declares no input channels (m_*)");
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !info.outputs.empty(), "PIM declares no output channels (c_*)");

  // Direction checks: software receives m_* / sends c_*; environment the
  // reverse. Also: software input receives must be unguarded.
  auto chan_is_input = [&pim](ta::ChanId c) {
    return starts_with(pim.channels()[static_cast<std::size_t>(c)].name, kInputPrefix);
  };
  const ta::Automaton& sw = pim.automaton(info.software);
  for (const ta::Edge& e : sw.edges()) {
    if (e.sync.dir == ta::SyncDir::kSend && chan_is_input(e.sync.chan))
      PSV_FAIL_AS(::psv::ErrorCode::kModel, "software automaton sends on input channel '" + pim.channel_name(e.sync.chan) +
               "'; inputs flow from the environment to the software");
    if (e.sync.dir == ta::SyncDir::kReceive && !chan_is_input(e.sync.chan))
      PSV_FAIL_AS(::psv::ErrorCode::kModel, "software automaton receives on output channel '" + pim.channel_name(e.sync.chan) +
               "'; outputs flow from the software to the environment");
    if (e.sync.dir == ta::SyncDir::kReceive && chan_is_input(e.sync.chan)) {
      PSV_REQUIRE_AS(::psv::ErrorCode::kModel, e.guard.clocks.empty() && e.guard.data.is_trivially_true(),
                  "software input-receive edge on '" + pim.channel_name(e.sync.chan) +
                      "' is guarded; the transformation requires unconditional input receives "
                      "(generated code reads inputs unconditionally and discards unusable ones)");
    }
  }
  const ta::Automaton& env = pim.automaton(info.environment);
  for (const ta::Edge& e : env.edges()) {
    if (e.sync.dir == ta::SyncDir::kSend && !chan_is_input(e.sync.chan))
      PSV_FAIL_AS(::psv::ErrorCode::kModel, "environment automaton sends on output channel '" +
               pim.channel_name(e.sync.chan) + "'");
    if (e.sync.dir == ta::SyncDir::kReceive && chan_is_input(e.sync.chan))
      PSV_FAIL_AS(::psv::ErrorCode::kModel, "environment automaton receives on input channel '" +
               pim.channel_name(e.sync.chan) + "'");
  }
  return info;
}

namespace {

/// instrument_mc_delay with an explicit probe-name tag, so batch
/// instrumentation can uniquify names when requirements share an input.
RequirementProbe instrument_mc_delay_tagged(ta::Network& net, const std::string& environment_name,
                                            const TimingRequirement& req,
                                            const std::string& tag) {
  const auto env_id = net.automaton_by_name(environment_name);
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, env_id.has_value(), "no environment automaton named '" + environment_name + "'");
  const auto m_chan = net.channel_by_name(kInputPrefix + req.input);
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, m_chan.has_value(), "no input channel 'm_" + req.input + "'");
  const auto c_chan = net.channel_by_name(kOutputPrefix + req.output);
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, c_chan.has_value(), "no output channel 'c_" + req.output + "'");

  RequirementProbe probe;
  probe.clock = net.add_clock("t_mc_" + tag);
  probe.pending = net.add_var("mc_pend_" + tag, 0, 0, 1);
  probe.overlap = net.add_var("mc_overlap_" + tag, 0, 0, 1);

  ta::Automaton& env = net.automaton(*env_id);
  std::vector<ta::Edge> rewritten;
  for (const ta::Edge& e : env.edges()) {
    if (e.sync.dir == ta::SyncDir::kSend && e.sync.chan == *m_chan) {
      // First outstanding request: start the probe clock.
      ta::Edge fresh = e;
      fresh.guard.data = fresh.guard.data && ta::var_eq(probe.pending, 0);
      fresh.update.assignments.push_back({probe.pending, ta::IntExpr::constant(1)});
      fresh.update.resets.push_back({probe.clock, 0});
      fresh.note = e.note.empty() ? "probe: start M-C clock" : e.note + "; probe start";
      rewritten.push_back(std::move(fresh));
      // Overlapping request: flag that measurements are unreliable.
      ta::Edge overlapping = e;
      overlapping.guard.data = overlapping.guard.data && ta::var_eq(probe.pending, 1);
      overlapping.update.assignments.push_back({probe.overlap, ta::IntExpr::constant(1)});
      overlapping.note = "probe: overlapping request";
      rewritten.push_back(std::move(overlapping));
    } else if (e.sync.dir == ta::SyncDir::kReceive && e.sync.chan == *c_chan) {
      ta::Edge done = e;
      done.update.assignments.push_back({probe.pending, ta::IntExpr::constant(0)});
      done.note = e.note.empty() ? "probe: stop M-C clock" : e.note + "; probe stop";
      rewritten.push_back(std::move(done));
    } else {
      rewritten.push_back(e);
    }
  }
  // Rebuild the automaton's edge list in place.
  ta::Automaton replacement(env.name());
  for (const ta::Location& loc : env.locations())
    replacement.add_location(loc.name, loc.kind, loc.invariant);
  replacement.set_initial(env.initial());
  for (ta::Edge& e : rewritten) replacement.add_edge(std::move(e));
  env = std::move(replacement);
  return probe;
}

}  // namespace

RequirementProbe instrument_mc_delay(ta::Network& net, const std::string& environment_name,
                                     const TimingRequirement& req) {
  return instrument_mc_delay_tagged(net, environment_name, req, req.input);
}

std::vector<RequirementProbe> instrument_mc_delays(ta::Network& net,
                                                   const std::string& environment_name,
                                                   const std::vector<TimingRequirement>& reqs) {
  std::vector<RequirementProbe> probes;
  probes.reserve(reqs.size());
  for (const TimingRequirement& req : reqs) {
    // First probe of an input keeps the single-requirement names (a batch
    // of one instruments the network identically to instrument_mc_delay);
    // later probes on the same input get a numeric suffix.
    std::string tag = req.input;
    for (int n = 2; net.clock_by_name("t_mc_" + tag).has_value(); ++n)
      tag = req.input + "_" + std::to_string(n);
    probes.push_back(instrument_mc_delay_tagged(net, environment_name, req, tag));
  }
  return probes;
}

PimVerification verify_pim_requirement(const ta::Network& pim, const PimInfo& info,
                                       const TimingRequirement& req,
                                       std::int64_t search_limit, mc::ExploreOptions explore,
                                       const mc::ArtifactStore* cache) {
  ta::Network instrumented = pim;
  const std::string env_name = pim.automaton(info.environment).name();
  const RequirementProbe probe = instrument_mc_delay(instrumented, env_name, req);

  mc::VerificationSession session(std::move(instrumented), explore);
  if (cache != nullptr) session.load(*cache);
  mc::BoundQuery query;
  query.pred = mc::when(ta::var_eq(probe.pending, 1));
  query.clock = probe.clock;
  query.limit = search_limit;
  // The requirement's bound is the first widening candidate: a maximum at or
  // below it (the verdict's threshold) is settled by one sweep.
  query.hint = req.bound_ms;
  const mc::MaxClockResult r = session.max_clock_value(query);
  if (cache != nullptr) session.store(*cache);

  PimVerification result;
  result.bounded = r.bounded;
  result.max_delay = r.bounded ? r.bound : search_limit;
  result.holds = r.bounded && r.bound <= req.bound_ms;
  result.stats = session.stats().explore;
  result.explorations = session.stats().explorations;
  result.cache = mc::stage_cache_delta(session, mc::SessionStats{}, cache != nullptr);
  return result;
}

PimBatchVerification verify_pim_requirements_in_session(
    mc::VerificationSession& session, const std::vector<RequirementProbe>& probes,
    const std::vector<TimingRequirement>& reqs, std::int64_t search_limit, bool cache_enabled) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, probes.size() == reqs.size(),
              "verify_pim_requirements_in_session: probes must align with requirements");
  const mc::SessionStats before = session.stats();
  std::vector<mc::BoundQuery> queries;
  queries.reserve(reqs.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    mc::BoundQuery query;
    query.pred = mc::when(ta::var_eq(probes[i].pending, 1));
    query.clock = probes[i].clock;
    query.limit = search_limit;
    query.hint = reqs[i].bound_ms;
    queries.push_back(std::move(query));
  }
  const std::vector<mc::MaxClockResult> answers = session.max_clock_values(queries);

  PimBatchVerification batch;
  batch.requirements.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    PimVerification result;
    result.bounded = answers[i].bounded;
    result.max_delay = answers[i].bounded ? answers[i].bound : search_limit;
    result.holds = answers[i].bounded && answers[i].bound <= reqs[i].bound_ms;
    result.stats = answers[i].stats;
    result.explorations = answers[i].probes;
    batch.requirements.push_back(std::move(result));
  }
  const mc::SessionStats& now = session.stats();
  batch.stats = mc::stats_delta(now.explore, before.explore);
  batch.explorations = now.explorations - before.explorations;
  batch.cache = mc::stage_cache_delta(session, before, cache_enabled);
  // A batch of one is the single-requirement path: report the batch totals
  // on the entry too, exactly like verify_pim_requirement().
  if (batch.requirements.size() == 1) {
    batch.requirements.front().stats = batch.stats;
    batch.requirements.front().explorations = batch.explorations;
    batch.requirements.front().cache = batch.cache;
  }
  return batch;
}

}  // namespace psv::core
