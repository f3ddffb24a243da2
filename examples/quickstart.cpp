// Quickstart: the full platform-specific timing verification pipeline on a
// small request/response system.
//
//   1. model a PIM (software M and environment ENV),
//   2. verify the timing requirement on the PIM,
//   3. pick an implementation scheme,
//   4. transform PIM -> PSM,
//   5. check the boundedness constraints and compute the relaxed bound.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/service.h"
#include "ta/print.h"

using namespace psv;

namespace {

// M: Idle --m_Req?--> Working[x<=80] --x>=30, c_Ack!--> Idle
// ENV: Idle --env_x>=100, m_Req!--> Await --c_Ack?--> Idle
ta::Network build_pim() {
  ta::Network net("quickstart");
  const ta::ClockId x = net.add_clock("x");
  const ta::ClockId env_x = net.add_clock("env_x");
  const ta::ChanId req = net.add_channel("m_Req", ta::ChanKind::kBinary);
  const ta::ChanId ack = net.add_channel("c_Ack", ta::ChanKind::kBinary);

  ta::Automaton m("M");
  const ta::LocId idle = m.add_location("Idle");
  const ta::LocId working = m.add_location("Working", ta::LocKind::kNormal, {ta::cc_le(x, 80)});
  ta::Edge accept;
  accept.src = idle;
  accept.dst = working;
  accept.sync = ta::SyncLabel::receive(req);
  accept.update.resets = {{x, 0}};
  m.add_edge(std::move(accept));
  ta::Edge reply;
  reply.src = working;
  reply.dst = idle;
  reply.guard.clocks = {ta::cc_ge(x, 30)};
  reply.sync = ta::SyncLabel::send(ack);
  m.add_edge(std::move(reply));
  net.add_automaton(std::move(m));

  ta::Automaton env("ENV");
  const ta::LocId eidle = env.add_location("Idle");
  const ta::LocId await = env.add_location("Await");
  ta::Edge send;
  send.src = eidle;
  send.dst = await;
  send.guard.clocks = {ta::cc_ge(env_x, 100)};
  send.sync = ta::SyncLabel::send(req);
  send.update.resets = {{env_x, 0}};
  env.add_edge(std::move(send));
  ta::Edge recv;
  recv.src = await;
  recv.dst = eidle;
  recv.sync = ta::SyncLabel::receive(ack);
  recv.update.resets = {{env_x, 0}};
  env.add_edge(std::move(recv));
  net.add_automaton(std::move(env));
  return net;
}

}  // namespace

int main() {
  // 1. The platform-independent model.
  ta::Network pim = build_pim();
  core::PimInfo info = core::analyze_pim(pim);
  std::cout << "--- PIM ---\n" << ta::network_text(pim) << "\n";

  // 2. The timing requirement: Ack within 80ms of Req.
  core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  // 3. An implementation scheme: interrupts, buffers, 10ms periodic task.
  core::ImplementationScheme scheme = core::example_is1({"Req"}, {"Ack"});
  scheme.io.period = 10;
  scheme.io.read_stage_max = 1;
  scheme.io.compute_stage_max = 1;
  scheme.io.write_stage_max = 1;
  std::cout << "--- scheme ---\n" << scheme.describe() << "\n";

  // 4.+5. Transform, check constraints, derive bounds: one request to the
  // verification service.
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = {req};
  request.options.search_limit = 10000;
  const core::VerifyReport report = core::Verifier().verify(request);
  std::cout << report.requirement_summary(0, 0) << "\n";

  const core::RequirementResult& result = report.schemes[0].requirements[0];
  std::cout << "The platform adds at most "
            << result.bounds.lemma2_total - result.pim.max_delay
            << "ms on top of the software's own worst case.\n";
  return report.schemes[0].constraints.all_hold() && result.psm_meets_relaxed ? 0 : 1;
}
