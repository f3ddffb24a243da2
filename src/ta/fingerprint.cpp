#include "ta/fingerprint.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace psv::ta {

namespace {

// Tags keep the byte stream self-describing so adjacent fields of different
// kinds can never alias. Values are frozen: changing any of them (or the
// layout they tag) must bump kFingerprintVersion.
enum Tag : std::uint8_t {
  kTagIntConst = 0x01,
  kTagIntVar = 0x02,
  kTagIntAdd = 0x03,
  kTagIntSub = 0x04,
  kTagIntMul = 0x05,
  kTagBoolTrue = 0x10,
  kTagBoolFalse = 0x11,
  kTagBoolCmp = 0x12,
  kTagBoolAnd = 0x13,
  kTagBoolOr = 0x14,
  kTagBoolNot = 0x15,
  kTagClockCc = 0x20,
  kTagEdge = 0x30,
  kTagLocation = 0x31,
  kTagAutomaton = 0x32,
};

constexpr std::uint32_t kFingerprintVersion = 1;

/// Collects first-use ranks during the canonical walk.
struct RankAssigner {
  std::vector<int> clock_rank;
  std::vector<int> var_rank;
  std::vector<int> chan_rank;
  int next_clock = 0;
  int next_var = 0;
  int next_chan = 0;

  void see_clock(ClockId id) {
    int& r = clock_rank.at(static_cast<std::size_t>(id));
    if (r < 0) r = next_clock++;
  }
  void see_var(VarId id) {
    int& r = var_rank.at(static_cast<std::size_t>(id));
    if (r < 0) r = next_var++;
  }
  void see_chan(ChanId id) {
    int& r = chan_rank.at(static_cast<std::size_t>(id));
    if (r < 0) r = next_chan++;
  }

  void see_int_expr(const IntExpr& e) {
    switch (e.kind()) {
      case IntExpr::Kind::kConst:
        return;
      case IntExpr::Kind::kVar:
        see_var(e.var_id());
        return;
      case IntExpr::Kind::kAdd:
      case IntExpr::Kind::kSub:
      case IntExpr::Kind::kMul:
        see_int_expr(e.lhs());
        see_int_expr(e.rhs());
        return;
    }
  }
  void see_bool_expr(const BoolExpr& e);
};

void RankAssigner::see_bool_expr(const BoolExpr& e) {
  // Walk the expression through its variable list: BoolExpr exposes no
  // structural accessors, and for rank assignment only the variable
  // occurrence order matters.
  std::vector<VarId> vars;
  e.collect_vars(vars);
  for (const VarId v : vars) see_var(v);
}

void encode_cc_list_sorted(ByteWriter& out, const std::vector<ClockConstraint>& ccs,
                           const CanonicalIds* ids) {
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(ccs.size());
  for (const ClockConstraint& cc : ccs) {
    ByteWriter w;
    encode_clock_constraint(w, cc, ids);
    encoded.push_back(w.take());
  }
  std::sort(encoded.begin(), encoded.end());
  out.u64(encoded.size());
  for (const auto& e : encoded) out.raw(e.data(), e.size());
}

/// Encode one edge with canonical ids (or skeleton placeholders).
/// Assignments are encoded IN ORDER: the engine applies them sequentially
/// against the mutating valuation (SuccGen::apply_assignments — a later
/// RHS sees earlier writes), so their order is semantic and must key.
/// Resets carry literal values and read nothing, so they are stable-sorted
/// by canonical clock (duplicate-clock sequences keep their order).
void encode_edge(ByteWriter& out, const Edge& e, const CanonicalIds* ids) {
  out.u8(kTagEdge);
  out.i32(e.src);
  out.i32(e.dst);
  encode_bool_expr(out, e.guard.data, ids);
  encode_cc_list_sorted(out, e.guard.clocks, ids);
  out.u8(static_cast<std::uint8_t>(e.sync.dir));
  out.i32(e.sync.dir == SyncDir::kNone
              ? -1
              : (ids ? ids->chan(e.sync.chan) : 0));

  out.u64(e.update.assignments.size());
  for (const Assignment& a : e.update.assignments) {
    out.i32(ids ? ids->var(a.var) : 0);
    encode_int_expr(out, a.value, ids);
  }

  std::vector<std::size_t> reset_order(e.update.resets.size());
  for (std::size_t i = 0; i < reset_order.size(); ++i) reset_order[i] = i;
  std::stable_sort(reset_order.begin(), reset_order.end(), [&](std::size_t a, std::size_t b) {
    const int ra = ids ? ids->clock(e.update.resets[a].clock) : 0;
    const int rb = ids ? ids->clock(e.update.resets[b].clock) : 0;
    return ra < rb;
  });
  out.u64(e.update.resets.size());
  for (const std::size_t i : reset_order) {
    const ClockReset& r = e.update.resets[i];
    out.i32(ids ? ids->clock(r.clock) : 0);
    out.i32(r.value);
  }
  // e.note is presentation only and deliberately not encoded.
}

/// Canonical edge visitation order per automaton: stable-sorted by the
/// id-free skeleton encoding, so reordering edge declarations does not
/// change which edge the first-use rank scan sees first.
std::vector<std::size_t> canonical_edge_order(const Automaton& a) {
  std::vector<std::pair<std::vector<std::uint8_t>, std::size_t>> keyed;
  keyed.reserve(a.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    ByteWriter w;
    encode_edge(w, a.edges()[i], nullptr);
    keyed.emplace_back(w.take(), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::size_t> order;
  order.reserve(keyed.size());
  for (const auto& [skeleton, index] : keyed) order.push_back(index);
  return order;
}

}  // namespace

void encode_int_expr(ByteWriter& out, const IntExpr& e, const CanonicalIds* ids) {
  switch (e.kind()) {
    case IntExpr::Kind::kConst:
      out.u8(kTagIntConst);
      out.i64(e.const_value());
      return;
    case IntExpr::Kind::kVar:
      out.u8(kTagIntVar);
      out.i32(ids ? ids->var(e.var_id()) : 0);
      return;
    case IntExpr::Kind::kAdd:
    case IntExpr::Kind::kSub:
    case IntExpr::Kind::kMul:
      out.u8(e.kind() == IntExpr::Kind::kAdd   ? kTagIntAdd
             : e.kind() == IntExpr::Kind::kSub ? kTagIntSub
                                               : kTagIntMul);
      encode_int_expr(out, e.lhs(), ids);
      encode_int_expr(out, e.rhs(), ids);
      return;
  }
  PSV_ASSERT(false, "unhandled IntExpr kind");
}

void encode_bool_expr(ByteWriter& out, const BoolExpr& e, const CanonicalIds* ids) {
  // BoolExpr exposes evaluation and printing but no structural accessors;
  // its canonical encoding reuses the printer with canonical variable names.
  // Rendered text is structurally faithful (fully parenthesized by
  // to_string) and the namer maps VarId -> "v<rank>", so renames and
  // declaration reorders normalize away while any structural change shows.
  const std::string rendered = e.to_string([ids](VarId v) {
    return "v" + std::to_string(ids ? ids->var(v) : 0);
  });
  out.u8(e.kind() == BoolExpr::Kind::kTrue    ? kTagBoolTrue
         : e.kind() == BoolExpr::Kind::kFalse ? kTagBoolFalse
         : e.kind() == BoolExpr::Kind::kCmp   ? kTagBoolCmp
         : e.kind() == BoolExpr::Kind::kAnd   ? kTagBoolAnd
         : e.kind() == BoolExpr::Kind::kOr    ? kTagBoolOr
                                              : kTagBoolNot);
  out.str(rendered);
}

void encode_clock_constraint(ByteWriter& out, const ClockConstraint& cc,
                             const CanonicalIds* ids) {
  out.u8(kTagClockCc);
  out.i32(ids ? ids->clock(cc.clock) : 0);
  out.u8(static_cast<std::uint8_t>(cc.op));
  out.i32(cc.bound);
}

NetworkFingerprint fingerprint(const Network& net) {
  NetworkFingerprint fp;

  // Pass 1 — canonical edge orders, then first-use rank assignment.
  std::vector<std::vector<std::size_t>> edge_orders;
  edge_orders.reserve(static_cast<std::size_t>(net.num_automata()));
  for (const Automaton& a : net.automata()) edge_orders.push_back(canonical_edge_order(a));

  RankAssigner ranks;
  ranks.clock_rank.assign(static_cast<std::size_t>(net.num_clocks()), -1);
  ranks.var_rank.assign(static_cast<std::size_t>(net.num_vars()), -1);
  ranks.chan_rank.assign(net.channels().size(), -1);
  for (std::size_t ai = 0; ai < net.automata().size(); ++ai) {
    const Automaton& a = net.automata()[ai];
    for (const Location& loc : a.locations()) {
      // Invariant conjuncts are scanned op/bound-sorted so conjunct order
      // cannot leak into the rank assignment.
      std::vector<ClockConstraint> inv = loc.invariant;
      std::stable_sort(inv.begin(), inv.end(), [](const ClockConstraint& x,
                                                  const ClockConstraint& y) {
        return std::make_pair(static_cast<int>(x.op), x.bound) <
               std::make_pair(static_cast<int>(y.op), y.bound);
      });
      for (const ClockConstraint& cc : inv) ranks.see_clock(cc.clock);
    }
    for (const std::size_t ei : edge_orders[ai]) {
      const Edge& e = a.edges()[ei];
      ranks.see_bool_expr(e.guard.data);
      std::vector<ClockConstraint> gcc = e.guard.clocks;
      std::stable_sort(gcc.begin(), gcc.end(), [](const ClockConstraint& x,
                                                  const ClockConstraint& y) {
        return std::make_pair(static_cast<int>(x.op), x.bound) <
               std::make_pair(static_cast<int>(y.op), y.bound);
      });
      for (const ClockConstraint& cc : gcc) ranks.see_clock(cc.clock);
      if (e.sync.dir != SyncDir::kNone) ranks.see_chan(e.sync.chan);
      for (const Assignment& as : e.update.assignments) {
        ranks.see_var(as.var);
        ranks.see_int_expr(as.value);
      }
      for (const ClockReset& r : e.update.resets) ranks.see_clock(r.clock);
    }
  }

  // Unused declarations: append sorted by semantic signature (declaration
  // order must not matter; equal-signature ties are interchangeable, so
  // declaration order as a tiebreak cannot change the digest).
  std::vector<VarId> unused_vars;
  for (VarId v = 0; v < net.num_vars(); ++v)
    if (ranks.var_rank[static_cast<std::size_t>(v)] < 0) unused_vars.push_back(v);
  std::stable_sort(unused_vars.begin(), unused_vars.end(), [&net](VarId a, VarId b) {
    const VarDecl& da = net.vars()[static_cast<std::size_t>(a)];
    const VarDecl& db = net.vars()[static_cast<std::size_t>(b)];
    return std::make_tuple(da.init, da.min, da.max) < std::make_tuple(db.init, db.min, db.max);
  });
  for (const VarId v : unused_vars) ranks.see_var(v);
  for (ClockId c = 0; c < net.num_clocks(); ++c) ranks.see_clock(c);
  std::vector<ChanId> unused_chans;
  for (ChanId c = 0; c < static_cast<ChanId>(net.channels().size()); ++c)
    if (ranks.chan_rank[static_cast<std::size_t>(c)] < 0) unused_chans.push_back(c);
  std::stable_sort(unused_chans.begin(), unused_chans.end(), [&net](ChanId a, ChanId b) {
    return static_cast<int>(net.channels()[static_cast<std::size_t>(a)].kind) <
           static_cast<int>(net.channels()[static_cast<std::size_t>(b)].kind);
  });
  for (const ChanId c : unused_chans) ranks.see_chan(c);

  fp.ids.clock_rank = std::move(ranks.clock_rank);
  fp.ids.var_rank = std::move(ranks.var_rank);
  fp.ids.chan_rank = std::move(ranks.chan_rank);

  // Pass 2 — canonical serialization with ranks, hashed.
  ByteWriter out;
  out.str("psv-network-fingerprint");
  out.u32(kFingerprintVersion);
  out.u64(static_cast<std::uint64_t>(net.num_clocks()));

  // Variable declarations in canonical order: (init, min, max).
  std::vector<const VarDecl*> var_by_rank(static_cast<std::size_t>(net.num_vars()), nullptr);
  for (VarId v = 0; v < net.num_vars(); ++v)
    var_by_rank[static_cast<std::size_t>(fp.ids.var(v))] = &net.vars()[static_cast<std::size_t>(v)];
  out.u64(var_by_rank.size());
  for (const VarDecl* d : var_by_rank) {
    out.i64(d->init);
    out.i64(d->min);
    out.i64(d->max);
  }

  // Channel declarations in canonical order: kind.
  std::vector<const ChanDecl*> chan_by_rank(net.channels().size(), nullptr);
  for (ChanId c = 0; c < static_cast<ChanId>(net.channels().size()); ++c)
    chan_by_rank[static_cast<std::size_t>(fp.ids.chan(c))] =
        &net.channels()[static_cast<std::size_t>(c)];
  out.u64(chan_by_rank.size());
  for (const ChanDecl* d : chan_by_rank) out.u8(static_cast<std::uint8_t>(d->kind));

  out.u64(net.automata().size());
  for (std::size_t ai = 0; ai < net.automata().size(); ++ai) {
    const Automaton& a = net.automata()[ai];
    out.u8(kTagAutomaton);
    out.u64(a.locations().size());
    for (const Location& loc : a.locations()) {
      out.u8(kTagLocation);
      out.u8(static_cast<std::uint8_t>(loc.kind));
      encode_cc_list_sorted(out, loc.invariant, &fp.ids);
    }
    out.i32(a.initial());

    std::vector<std::vector<std::uint8_t>> edges;
    edges.reserve(a.edges().size());
    for (const Edge& e : a.edges()) {
      ByteWriter w;
      encode_edge(w, e, &fp.ids);
      edges.push_back(w.take());
    }
    std::sort(edges.begin(), edges.end());
    out.u64(edges.size());
    for (const auto& e : edges) out.raw(e.data(), e.size());
  }

  fp.digest = digest128(out.buffer().data(), out.size());
  return fp;
}

Digest128 skeleton_digest(const Network& net) {
  // Identity ranks: the shared expression encoders emit raw ids (nullptr
  // would collapse every id to a placeholder and erase variable identity).
  CanonicalIds raw;
  raw.clock_rank.resize(static_cast<std::size_t>(net.num_clocks()));
  for (std::size_t i = 0; i < raw.clock_rank.size(); ++i) raw.clock_rank[i] = static_cast<int>(i);
  raw.var_rank.resize(static_cast<std::size_t>(net.num_vars()));
  for (std::size_t i = 0; i < raw.var_rank.size(); ++i) raw.var_rank[i] = static_cast<int>(i);
  raw.chan_rank.resize(net.channels().size());
  for (std::size_t i = 0; i < raw.chan_rank.size(); ++i) raw.chan_rank[i] = static_cast<int>(i);

  // Clock constraints with the bound masked: position and shape key, the
  // constant does not.
  const auto masked_cc = [](ByteWriter& w, const ClockConstraint& cc) {
    w.u8(kTagClockCc);
    w.i32(cc.clock);
    w.u8(static_cast<std::uint8_t>(cc.op));
  };

  ByteWriter out;
  out.str("psv-network-skeleton");
  out.u32(kFingerprintVersion);
  out.u64(static_cast<std::uint64_t>(net.num_clocks()));
  out.u64(net.vars().size());
  for (const VarDecl& d : net.vars()) {
    out.i64(d.init);
    out.i64(d.min);
    out.i64(d.max);
  }
  out.u64(net.channels().size());
  for (const ChanDecl& d : net.channels()) out.u8(static_cast<std::uint8_t>(d.kind));

  out.u64(net.automata().size());
  for (const Automaton& a : net.automata()) {
    out.u8(kTagAutomaton);
    out.u64(a.locations().size());
    for (const Location& loc : a.locations()) {
      out.u8(kTagLocation);
      out.u8(static_cast<std::uint8_t>(loc.kind));
      out.u64(loc.invariant.size());
      for (const ClockConstraint& cc : loc.invariant) masked_cc(out, cc);
    }
    out.i32(a.initial());
    out.u64(a.edges().size());
    for (const Edge& e : a.edges()) {
      out.u8(kTagEdge);
      out.i32(e.src);
      out.i32(e.dst);
      encode_bool_expr(out, e.guard.data, &raw);
      out.u64(e.guard.clocks.size());
      for (const ClockConstraint& cc : e.guard.clocks) masked_cc(out, cc);
      out.u8(static_cast<std::uint8_t>(e.sync.dir));
      out.i32(e.sync.dir == SyncDir::kNone ? -1 : e.sync.chan);
      out.u64(e.update.assignments.size());
      for (const Assignment& as : e.update.assignments) {
        out.i32(as.var);
        encode_int_expr(out, as.value, &raw);
      }
      out.u64(e.update.resets.size());
      for (const ClockReset& r : e.update.resets) {
        out.i32(r.clock);
        out.i32(r.value);
      }
    }
  }
  return digest128(out.buffer().data(), out.size());
}

Digest128 names_digest(const Network& net) {
  Hasher128 h;
  h.str("psv-network-names");
  h.u64(net.automata().size());
  for (const Automaton& a : net.automata()) {
    h.str(a.name());
    h.u64(a.locations().size());
    for (const Location& loc : a.locations()) h.str(loc.name);
  }
  h.u64(net.clocks().size());
  for (const ClockDecl& d : net.clocks()) h.str(d.name);
  h.u64(net.vars().size());
  for (const VarDecl& d : net.vars()) h.str(d.name);
  h.u64(net.channels().size());
  for (const ChanDecl& d : net.channels()) h.str(d.name);
  return h.digest();
}

}  // namespace psv::ta
