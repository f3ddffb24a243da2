#include "ta/fingerprint.h"

#include <string>

#include "util/error.h"

namespace psv::ta {

namespace {

// Tags keep the byte stream self-describing so adjacent fields of different
// kinds can never alias. Changing any of them (or the layout they tag)
// changes every digest, which must bump mc::kArtifactFormatVersion.
enum Tag : std::uint8_t {
  kTagIntConst = 0x01,
  kTagIntVar = 0x02,
  kTagIntAdd = 0x03,
  kTagIntSub = 0x04,
  kTagIntMul = 0x05,
  kTagBoolExpr = 0x10,
  kTagClockCc = 0x20,
  kTagEdge = 0x30,
  kTagLocation = 0x31,
  kTagAutomaton = 0x32,
};

void encode_int_expr(ByteWriter& out, const IntExpr& e) {
  switch (e.kind()) {
    case IntExpr::Kind::kConst:
      out.u8(kTagIntConst);
      out.i64(e.const_value());
      return;
    case IntExpr::Kind::kVar:
      out.u8(kTagIntVar);
      out.i32(e.var_id());
      return;
    case IntExpr::Kind::kAdd:
    case IntExpr::Kind::kSub:
    case IntExpr::Kind::kMul:
      out.u8(e.kind() == IntExpr::Kind::kAdd   ? kTagIntAdd
             : e.kind() == IntExpr::Kind::kSub ? kTagIntSub
                                               : kTagIntMul);
      encode_int_expr(out, e.lhs());
      encode_int_expr(out, e.rhs());
      return;
  }
  PSV_ASSERT(false, "unhandled IntExpr kind");
}

/// The one walk behind both digests. `exact` keeps names, notes and
/// clock-constraint bounds; without it they are skipped (the skeleton).
Digest128 walk(const Network& net, bool exact) {
  ByteWriter out;
  out.str(exact ? "psv-network" : "psv-network-skeleton");
  const auto name = [&out, exact](const std::string& s) {
    if (exact) out.str(s);
  };
  const auto constraints = [&out, exact](const std::vector<ClockConstraint>& ccs) {
    out.u64(ccs.size());
    for (const ClockConstraint& cc : ccs) {
      if (exact) {
        encode_clock_constraint(out, cc);
      } else {
        out.u8(kTagClockCc);
        out.i32(cc.clock);
        out.u8(static_cast<std::uint8_t>(cc.op));
      }
    }
  };

  out.u64(net.clocks().size());
  for (const ClockDecl& d : net.clocks()) name(d.name);
  out.u64(net.vars().size());
  for (const VarDecl& d : net.vars()) {
    name(d.name);
    out.i64(d.init);
    out.i64(d.min);
    out.i64(d.max);
  }
  out.u64(net.channels().size());
  for (const ChanDecl& d : net.channels()) {
    name(d.name);
    out.u8(static_cast<std::uint8_t>(d.kind));
  }

  out.u64(net.automata().size());
  for (const Automaton& a : net.automata()) {
    out.u8(kTagAutomaton);
    name(a.name());
    out.u64(a.locations().size());
    for (const Location& loc : a.locations()) {
      out.u8(kTagLocation);
      name(loc.name);
      out.u8(static_cast<std::uint8_t>(loc.kind));
      constraints(loc.invariant);
    }
    out.i32(a.initial());
    out.u64(a.edges().size());
    for (const Edge& e : a.edges()) {
      out.u8(kTagEdge);
      out.i32(e.src);
      out.i32(e.dst);
      encode_bool_expr(out, e.guard.data);
      constraints(e.guard.clocks);
      out.u8(static_cast<std::uint8_t>(e.sync.dir));
      out.i32(e.sync.dir == SyncDir::kNone ? -1 : e.sync.chan);
      // Assignments apply sequentially against the mutating valuation
      // (SuccGen::apply_assignments), so their order is semantic as well.
      out.u64(e.update.assignments.size());
      for (const Assignment& as : e.update.assignments) {
        out.i32(as.var);
        encode_int_expr(out, as.value);
      }
      out.u64(e.update.resets.size());
      for (const ClockReset& r : e.update.resets) {
        out.i32(r.clock);
        out.i32(r.value);
      }
      name(e.note);
    }
  }
  return digest128(out.buffer().data(), out.size());
}

}  // namespace

void encode_bool_expr(ByteWriter& out, const BoolExpr& e) {
  // BoolExpr exposes evaluation and printing but no structural accessors;
  // its encoding reuses the printer, which parenthesizes fully, with each
  // variable rendered as its raw id.
  out.u8(kTagBoolExpr);
  out.str(e.to_string([](VarId v) { return "v" + std::to_string(v); }));
}

void encode_clock_constraint(ByteWriter& out, const ClockConstraint& cc) {
  out.u8(kTagClockCc);
  out.i32(cc.clock);
  out.u8(static_cast<std::uint8_t>(cc.op));
  out.i32(cc.bound);
}

Digest128 network_digest(const Network& net) { return walk(net, true); }

Digest128 skeleton_digest(const Network& net) { return walk(net, false); }

}  // namespace psv::ta
