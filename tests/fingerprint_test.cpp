// Network digests: the exact digest sees every edit, the skeleton only
// structure.
//
// The persistent verification cache and the Verifier's session pool key on
// ta::network_digest(), so this suite pins that every edit changes it: a
// presentation edit (renames of clocks/variables/channels/locations/
// automata, reordered declarations, edges, conjuncts or resets, an edge
// note) as well as every semantic edit (guard constant, edge retarget,
// invariant bound, variable range, channel kind, initial location, location
// urgency, scheme parameter, probe instrumentation, result-affecting
// ExploreOptions). ta::skeleton_digest(), which keys warm-start ancestors,
// must ignore names, notes and clock bounds.
#include <gtest/gtest.h>

#include <string>

#include "core/analysis.h"
#include "core/pim.h"
#include "core/transform.h"
#include "lang/scheme_parser.h"
#include "mc/artifact.h"
#include "model_paths.h"
#include "ta/fingerprint.h"
#include "ta/model.h"

namespace psv {
namespace {

using namespace psv::ta;

/// Presentation and semantic knobs of the test network. Defaults build the
/// base network; every knob flips exactly one aspect.
struct NetKnobs {
  // Presentation (each but rename_network changes the exact digest; none
  // changes the skeleton unless raw indices move).
  bool rename = false;             ///< different names for everything
  bool reorder_decls = false;      ///< clocks/vars/chans declared in other order
  bool reorder_edges = false;      ///< edges of P added in reverse
  bool reorder_conjuncts = false;  ///< invariant + guard conjunct order flipped
  bool reorder_resets = false;     ///< reset list of P's first edge flipped
  bool edit_note = false;          ///< different note on P's first edge
  bool rename_network = false;     ///< only the network's own name differs
  // Semantics.
  std::int32_t guard_const = 5;
  std::int32_t inv_bound = 20;
  std::int64_t var_max = 3;
  bool retarget = false;  ///< P's second edge loops at L1 instead of L0
  ChanKind kind = ChanKind::kBinary;
  LocKind l1_kind = LocKind::kNormal;
  bool flip_initial = false;
  bool extra_unused_clock_pair_swapped = false;
};

struct BuiltNet {
  Network net;
  ClockId x = -1, y = -1;
  VarId a = -1, b = -1;
};

BuiltNet build(const NetKnobs& k) {
  BuiltNet out;
  Network net(k.rename || k.rename_network ? "other" : "fpnet");
  auto name = [&k](const std::string& base) { return k.rename ? base + "_renamed" : base; };

  ClockId x, y;
  VarId a, b;
  ChanId ch;
  if (k.reorder_decls) {
    y = net.add_clock(name("y"));
    x = net.add_clock(name("x"));
    b = net.add_var(name("b"), 0, 0, 9);
    a = net.add_var(name("a"), 1, 0, k.var_max);
    ch = net.add_channel(name("ch"), k.kind);
  } else {
    x = net.add_clock(name("x"));
    y = net.add_clock(name("y"));
    a = net.add_var(name("a"), 1, 0, k.var_max);
    b = net.add_var(name("b"), 0, 0, 9);
    ch = net.add_channel(name("ch"), k.kind);
  }
  if (k.extra_unused_clock_pair_swapped) {
    net.add_clock(name("u2"));
    net.add_clock(name("u1"));
  } else {
    net.add_clock(name("u1"));
    net.add_clock(name("u2"));
  }

  Automaton p(name("P"));
  std::vector<ClockConstraint> inv = {cc_le(x, k.inv_bound), cc_le(y, 50)};
  if (k.reorder_conjuncts) std::swap(inv[0], inv[1]);
  const LocId l0 = p.add_location(name("L0"), LocKind::kNormal, inv);
  const LocId l1 = p.add_location(name("L1"), k.l1_kind);
  if (k.flip_initial) p.set_initial(l1);

  Edge send;
  send.src = l0;
  send.dst = l1;
  send.guard.clocks = {cc_ge(x, k.guard_const), cc_le(y, 40)};
  if (k.reorder_conjuncts) std::swap(send.guard.clocks[0], send.guard.clocks[1]);
  send.guard.data = var_eq(a, 1);
  send.sync = SyncLabel::send(ch);
  send.update.assignments = {{b, IntExpr::var(a) + IntExpr::constant(1)}};
  send.update.resets = {{x, 0}, {y, 0}};
  if (k.reorder_resets) std::swap(send.update.resets[0], send.update.resets[1]);
  send.note = k.edit_note ? "edited note" : "note";

  Edge back;
  back.src = l1;
  back.dst = k.retarget ? l1 : l0;
  back.guard.clocks = {cc_ge(y, 2)};
  back.update.assignments = {{a, IntExpr::constant(1)}};
  back.update.resets = {{y, 0}};

  if (k.reorder_edges) {
    p.add_edge(back);
    p.add_edge(send);
  } else {
    p.add_edge(send);
    p.add_edge(back);
  }
  net.add_automaton(std::move(p));

  Automaton q(name("Q"));
  const LocId m0 = q.add_location(name("M0"));
  const LocId m1 = q.add_location(name("M1"));
  Edge recv;
  recv.src = m0;
  recv.dst = m1;
  recv.sync = SyncLabel::receive(ch);
  q.add_edge(recv);
  Edge idle;
  idle.src = m1;
  idle.dst = m0;
  q.add_edge(idle);
  net.add_automaton(std::move(q));

  out.net = std::move(net);
  out.x = x;
  out.y = y;
  out.a = a;
  out.b = b;
  return out;
}

Digest128 digest_of(const NetKnobs& k) { return network_digest(build(k).net); }
Digest128 skeleton_of(const NetKnobs& k) { return skeleton_digest(build(k).net); }

// --- Presentation edits -----------------------------------------------------

// Cached passed stores are indexed by raw edge order and cached traces are
// rendered text, so the exact digest must see every presentation edit. The
// skeleton keys warm starts, which revalidate every state against the new
// network: it ignores names, notes and clock bounds, but not raw order.
TEST(Fingerprint, ExactDigestSeesEveryEditSkeletonIgnoresNamesNotesAndBounds) {
  const Digest128 base = digest_of({});
  EXPECT_EQ(base, digest_of({}));
  auto edit = [](auto&& flip) {
    NetKnobs k;
    flip(k);
    return k;
  };
  const NetKnobs renamed = edit([](NetKnobs& k) { k.rename = true; });
  const NetKnobs noted = edit([](NetKnobs& k) { k.edit_note = true; });
  const NetKnobs edge_order = edit([](NetKnobs& k) { k.reorder_edges = true; });
  EXPECT_NE(base, digest_of(renamed));
  EXPECT_NE(base, digest_of(noted));
  EXPECT_NE(base, digest_of(edge_order));
  EXPECT_NE(base, digest_of(edit([](NetKnobs& k) { k.reorder_conjuncts = true; })));
  EXPECT_NE(base, digest_of(edit([](NetKnobs& k) { k.reorder_resets = true; })));
  EXPECT_NE(base, digest_of(edit([](NetKnobs& k) { k.reorder_decls = true; })));
  EXPECT_NE(base, digest_of(edit([](NetKnobs& k) { k.extra_unused_clock_pair_swapped = true; })));
  // No cached result renders the network's own name (a PSM is named after
  // its scheme), so it alone does not key.
  EXPECT_EQ(base, digest_of(edit([](NetKnobs& k) { k.rename_network = true; })));

  const Digest128 skeleton = skeleton_of({});
  EXPECT_EQ(skeleton, skeleton_of(renamed));
  EXPECT_EQ(skeleton, skeleton_of(noted));
  EXPECT_EQ(skeleton, skeleton_of(edit([](NetKnobs& k) { k.guard_const = 6; })));
  EXPECT_EQ(skeleton, skeleton_of(edit([](NetKnobs& k) { k.inv_bound = 21; })));
  EXPECT_NE(skeleton, skeleton_of(edge_order)) << "raw edge indices moved";
  EXPECT_NE(skeleton, skeleton_of(edit([](NetKnobs& k) { k.retarget = true; })));
}

// --- Semantic sensitivity ---------------------------------------------------

TEST(Fingerprint, SensitiveToGuardConstant) {
  NetKnobs changed;
  changed.guard_const = 6;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToInvariantBound) {
  NetKnobs changed;
  changed.inv_bound = 21;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToEdgeRetarget) {
  NetKnobs changed;
  changed.retarget = true;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToVariableRange) {
  NetKnobs changed;
  changed.var_max = 4;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToChannelKind) {
  NetKnobs changed;
  changed.kind = ChanKind::kBroadcast;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToLocationUrgency) {
  NetKnobs changed;
  changed.l1_kind = LocKind::kUrgent;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToInitialLocation) {
  NetKnobs changed;
  changed.flip_initial = true;
  EXPECT_NE(digest_of({}), digest_of(changed));
}

TEST(Fingerprint, SensitiveToAssignmentOrder) {
  // Assignments apply sequentially against the mutating valuation, so
  // [b := 0, a := b] (a ends 0) and [a := b, b := 0] (a ends old-b) are
  // semantically different edges and must never share a cache key.
  auto make = [](bool zero_first) {
    Network net("seq");
    const VarId a = net.add_var("a", 0, 0, 9);
    const VarId b = net.add_var("b", 5, 0, 9);
    Automaton p("P");
    const LocId l0 = p.add_location("L0");
    const LocId l1 = p.add_location("L1");
    Edge e;
    e.src = l0;
    e.dst = l1;
    const Assignment zero_b{b, IntExpr::constant(0)};
    const Assignment copy_b{a, IntExpr::var(b)};
    e.update.assignments = zero_first ? std::vector<Assignment>{zero_b, copy_b}
                                      : std::vector<Assignment>{copy_b, zero_b};
    p.add_edge(e);
    net.add_automaton(std::move(p));
    return network_digest(net);
  };
  EXPECT_NE(make(true), make(false));
}

// --- Query digests ------------------------------------------------------------

TEST(Fingerprint, BoundQueryDigestKeysClockAndLimitNotHint) {
  const BuiltNet base = build({});
  mc::BoundQuery query;
  query.pred = mc::when(var_eq(base.a, 1));
  query.pred.and_clock(cc_le(base.y, 40));
  query.clock = base.x;
  query.limit = 10'000;
  const Digest128 digest = mc::bound_query_digest(query);

  mc::BoundQuery other = query;
  other.clock = base.y;
  EXPECT_NE(digest, mc::bound_query_digest(other));
  other = query;
  other.limit = 20'000;
  EXPECT_NE(digest, mc::bound_query_digest(other));
  // The hint seeds the search but cannot change a bound: not part of the key.
  other = query;
  other.hint = 999;
  EXPECT_EQ(digest, mc::bound_query_digest(other));
}

// --- Pipeline-level keys: scheme edits, probe sets, options -----------------

TEST(Fingerprint, SensitiveToSchemeParameters) {
  const Network pim = psv::testing::parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  core::ImplementationScheme scheme = psv::testing::parse_scheme_file("board.pss");
  const Digest128 base = network_digest(core::transform(pim, info, scheme).psm);

  core::ImplementationScheme jittered = scheme;
  jittered.inputs.at("BolusReq").delay_max += 10;
  EXPECT_NE(base, network_digest(core::transform(pim, info, jittered).psm))
      << "a scheme timing edit must invalidate the PSM key";
}

TEST(Fingerprint, SensitiveToProbeInstrumentation) {
  const Network pim = psv::testing::parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm =
      core::transform(pim, info, psv::testing::parse_scheme_file("board.pss"));
  const core::InstrumentedPsm instrumented = core::instrument_psm_for_requirement(
      psm, lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500"));
  EXPECT_NE(network_digest(psm.psm), network_digest(instrumented.net))
      << "the probe set is part of the key (through the instrumented network)";
}

TEST(Fingerprint, ArtifactKeyCoversResultAffectingOptionsOnly) {
  const BuiltNet base = build({});
  const Digest128 network = network_digest(base.net);
  mc::ExploreOptions opts;
  const mc::ArtifactKey k0 = mc::artifact_key(network, opts);

  mc::ExploreOptions more_states = opts;
  more_states.max_states = opts.max_states * 2;
  EXPECT_NE(k0.digest, mc::artifact_key(network, more_states).digest);

  // Exploration is deterministic across thread counts; jobs must not key.
  mc::ExploreOptions threaded = opts;
  threaded.jobs = 8;
  EXPECT_EQ(k0.digest, mc::artifact_key(network, threaded).digest);
}

}  // namespace
}  // namespace psv
