// Canonical network fingerprints: presentation-invariant, semantics-exact.
//
// The persistent verification cache keys on ta::fingerprint(), so this suite
// pins both directions of the contract: every presentation-level edit
// (renames of clocks/variables/channels/locations/automata, reordered
// declarations, reordered edges, reordered invariant or guard conjuncts)
// keeps the digest, and every semantic edit (guard constant, edge retarget,
// invariant bound, variable range, channel kind, initial location, location
// urgency, scheme parameter, probe instrumentation, result-affecting
// ExploreOptions) changes the key.
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
  // Presentation (must not change the fingerprint).
  bool rename = false;             ///< different names for everything
  bool reorder_decls = false;      ///< clocks/vars/chans declared in other order
  bool reorder_edges = false;      ///< edges of P added in reverse
  bool reorder_conjuncts = false;  ///< invariant + guard conjunct order flipped
  // Semantics (each must change the fingerprint).
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
  Network net(k.rename ? "other" : "fpnet");
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
  send.update.resets = {{x, 0}};

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

Digest128 digest_of(const NetKnobs& k) { return fingerprint(build(k).net).digest; }

// --- Presentation invariance ------------------------------------------------

TEST(Fingerprint, InvariantUnderRenames) {
  NetKnobs renamed;
  renamed.rename = true;
  EXPECT_EQ(digest_of({}), digest_of(renamed));
}

TEST(Fingerprint, InvariantUnderDeclarationReorder) {
  NetKnobs reordered;
  reordered.reorder_decls = true;
  EXPECT_EQ(digest_of({}), digest_of(reordered));
}

TEST(Fingerprint, InvariantUnderEdgeReorder) {
  NetKnobs reordered;
  reordered.reorder_edges = true;
  EXPECT_EQ(digest_of({}), digest_of(reordered));
}

TEST(Fingerprint, InvariantUnderConjunctReorder) {
  NetKnobs reordered;
  reordered.reorder_conjuncts = true;
  EXPECT_EQ(digest_of({}), digest_of(reordered));
}

TEST(Fingerprint, InvariantUnderUnusedDeclReorder) {
  NetKnobs base;
  base.extra_unused_clock_pair_swapped = false;
  NetKnobs swapped;
  swapped.extra_unused_clock_pair_swapped = true;
  EXPECT_EQ(digest_of(base), digest_of(swapped));
}

TEST(Fingerprint, InvariantUnderEveryPresentationEditAtOnce) {
  NetKnobs all;
  all.rename = true;
  all.reorder_decls = true;
  all.reorder_edges = true;
  all.reorder_conjuncts = true;
  all.extra_unused_clock_pair_swapped = true;
  EXPECT_EQ(digest_of({}), digest_of(all));
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
    return fingerprint(net).digest;
  };
  EXPECT_NE(make(true), make(false));
}

// --- Query digests follow the canonical id space ----------------------------

TEST(Fingerprint, BoundQueryDigestSurvivesPresentationEdits) {
  const BuiltNet base = build({});
  NetKnobs knobs;
  knobs.rename = true;
  knobs.reorder_decls = true;
  knobs.reorder_edges = true;
  const BuiltNet edited = build(knobs);
  const NetworkFingerprint fp_base = fingerprint(base.net);
  const NetworkFingerprint fp_edited = fingerprint(edited.net);
  ASSERT_EQ(fp_base.digest, fp_edited.digest);

  auto query_of = [](const BuiltNet& built) {
    mc::BoundQuery q;
    q.pred = mc::when(var_eq(built.a, 1));
    q.pred.and_clock(cc_le(built.y, 40));
    q.clock = built.x;
    q.limit = 10'000;
    return q;
  };
  EXPECT_EQ(mc::bound_query_digest(fp_base.ids, query_of(base)),
            mc::bound_query_digest(fp_edited.ids, query_of(edited)));

  mc::BoundQuery other = query_of(base);
  other.clock = base.y;
  EXPECT_NE(mc::bound_query_digest(fp_base.ids, query_of(base)),
            mc::bound_query_digest(fp_base.ids, other));
  other = query_of(base);
  other.limit = 20'000;
  EXPECT_NE(mc::bound_query_digest(fp_base.ids, query_of(base)),
            mc::bound_query_digest(fp_base.ids, other));
  // The hint seeds the search but cannot change a bound: not part of the key.
  other = query_of(base);
  other.hint = 999;
  EXPECT_EQ(mc::bound_query_digest(fp_base.ids, query_of(base)),
            mc::bound_query_digest(fp_base.ids, other));
}

// --- Pipeline-level keys: scheme edits, probe sets, options -----------------

TEST(Fingerprint, SensitiveToSchemeParameters) {
  const Network pim = psv::testing::parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  core::ImplementationScheme scheme = psv::testing::parse_scheme_file("board.pss");
  const Digest128 base = fingerprint(core::transform(pim, info, scheme).psm).digest;

  core::ImplementationScheme jittered = scheme;
  jittered.inputs.at("BolusReq").delay_max += 10;
  EXPECT_NE(base, fingerprint(core::transform(pim, info, jittered).psm).digest)
      << "a scheme timing edit must invalidate the PSM key";
}

TEST(Fingerprint, SensitiveToProbeInstrumentation) {
  const Network pim = psv::testing::parse_model_file("pump.psv");
  const core::PimInfo info = core::analyze_pim(pim, "M", "ENV");
  const core::PsmArtifacts psm =
      core::transform(pim, info, psv::testing::parse_scheme_file("board.pss"));
  const core::InstrumentedPsm instrumented = core::instrument_psm_for_requirement(
      psm, lang::parse_requirement("REQ1: BolusReq -> StartInfusion within 500"));
  EXPECT_NE(fingerprint(psm.psm).digest, fingerprint(instrumented.net).digest)
      << "the probe set is part of the key (through the instrumented network)";
}

TEST(Fingerprint, ArtifactKeyCoversResultAffectingOptionsOnly) {
  const BuiltNet base = build({});
  const NetworkFingerprint fp = fingerprint(base.net);
  const Digest128 names = names_digest(base.net);
  mc::ExploreOptions opts;
  const mc::ArtifactKey k0 = mc::artifact_key(fp, names, opts);

  mc::ExploreOptions more_states = opts;
  more_states.max_states = opts.max_states * 2;
  EXPECT_NE(k0.digest, mc::artifact_key(fp, names, more_states).digest);

  // Exploration is deterministic across thread counts; jobs must not key.
  mc::ExploreOptions threaded = opts;
  threaded.jobs = 8;
  EXPECT_EQ(k0.digest, mc::artifact_key(fp, names, threaded).digest);
}

// The fingerprint ignores names; the names digest, which the artifact key
// also carries, sees every rename and declaration reorder.
TEST(Fingerprint, NamesDigestSeesRenamesAndReorders) {
  const Digest128 base = names_digest(build({}).net);
  EXPECT_EQ(base, names_digest(build({}).net));
  NetKnobs renamed;
  renamed.rename = true;
  EXPECT_NE(base, names_digest(build(renamed).net));
  NetKnobs reordered;
  reordered.reorder_decls = true;
  EXPECT_NE(base, names_digest(build(reordered).net));
}

}  // namespace
}  // namespace psv
