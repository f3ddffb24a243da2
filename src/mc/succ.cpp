#include "mc/succ.h"

#include <algorithm>

#include "ta/validate.h"
#include "util/error.h"

namespace psv::mc {

using dbm::Dbm;

SuccGen::SuccGen(const ta::Network& net, std::vector<std::int32_t> extra_clock_consts)
    : net_(net) {
  ta::validate_or_throw(net);

  // Extra_LU constants, indexed by DBM clock index (0 is the reference
  // clock): L from comparisons bounding a clock from below, U from those
  // bounding it from above (invariants are upper bounds), both from
  // equalities, reset values and every query constant.
  const std::size_t dim = static_cast<std::size_t>(net.num_clocks()) + 1;
  lower_.assign(dim, -1);
  upper_.assign(dim, -1);
  lower_[0] = upper_[0] = 0;
  auto bump = [](std::vector<std::int32_t>& consts, ta::ClockId c, std::int32_t v) {
    std::int32_t& cell = consts[static_cast<std::size_t>(c) + 1];
    cell = std::max(cell, v);
  };
  auto bump_cc = [&](const ta::ClockConstraint& cc) {
    const bool from_below = cc.op != ta::CmpOp::kLt && cc.op != ta::CmpOp::kLe;
    const bool from_above = cc.op != ta::CmpOp::kGt && cc.op != ta::CmpOp::kGe;
    if (from_below) bump(lower_, cc.clock, cc.bound);
    if (from_above) bump(upper_, cc.clock, cc.bound);
  };
  for (const ta::Automaton& aut : net.automata()) {
    for (const ta::Location& loc : aut.locations())
      for (const ta::ClockConstraint& cc : loc.invariant) bump_cc(cc);
    for (const ta::Edge& e : aut.edges()) {
      for (const ta::ClockConstraint& cc : e.guard.clocks) bump_cc(cc);
      for (const ta::ClockReset& r : e.update.resets) {
        bump(lower_, r.clock, r.value);
        bump(upper_, r.clock, r.value);
      }
    }
  }
  if (!extra_clock_consts.empty()) {
    PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, extra_clock_consts.size() + 1 == dim,
                   "extra clock constant vector arity mismatch");
    for (std::size_t c = 0; c + 1 < dim; ++c) {
      bump(lower_, static_cast<ta::ClockId>(c), extra_clock_consts[c]);
      bump(upper_, static_cast<ta::ClockId>(c), extra_clock_consts[c]);
    }
  }

  send_edges_.resize(net.channels().size());
  recv_edges_.resize(net.channels().size());
  for (ta::AutomatonId a = 0; a < net.num_automata(); ++a) {
    const auto& edges = net.automaton(a).edges();
    for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
      const EdgeRef ref{a, e};
      switch (edges[static_cast<std::size_t>(e)].sync.dir) {
        case ta::SyncDir::kNone:
          internal_edges_.push_back(ref);
          break;
        case ta::SyncDir::kSend:
          send_edges_[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].sync.chan)]
              .push_back(ref);
          break;
        case ta::SyncDir::kReceive:
          recv_edges_[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].sync.chan)]
              .push_back(ref);
          break;
      }
    }
  }
}

const ta::Edge& SuccGen::edge(const EdgeRef& ref) const {
  return net_.automaton(ref.automaton).edges()[static_cast<std::size_t>(ref.edge_index)];
}

bool SuccGen::apply_clock_constraint(Dbm& zone, const ta::ClockConstraint& cc) {
  const int i = cc.clock + 1;
  switch (cc.op) {
    case ta::CmpOp::kLt:
      return zone.constrain(i, 0, dbm::bound_lt(cc.bound));
    case ta::CmpOp::kLe:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound));
    case ta::CmpOp::kGe:
      return zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kGt:
      return zone.constrain(0, i, dbm::bound_lt(-cc.bound));
    case ta::CmpOp::kEq:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound)) &&
             zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kNe:
      PSV_FAIL_AS(::psv::ErrorCode::kVerify, "clock guards with != are not supported");
  }
  PSV_ASSERT(false, "unknown comparison operator");
}

bool SuccGen::apply_clock_guard(Dbm& zone, const ta::Guard& guard) {
  for (const auto& cc : guard.clocks)
    if (!apply_clock_constraint(zone, cc)) return false;
  return true;
}

bool SuccGen::apply_invariants(Dbm& zone, const std::vector<ta::LocId>& locs) const {
  for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a) {
    const ta::Location& loc =
        net_.automaton(a).location(locs[static_cast<std::size_t>(a)]);
    for (const auto& cc : loc.invariant)
      if (!apply_clock_constraint(zone, cc)) return false;
  }
  return true;
}

void SuccGen::apply_assignments(const ta::Update& update,
                                std::vector<std::int64_t>& vars) const {
  for (const auto& asg : update.assignments) {
    const std::int64_t value = asg.value.eval(vars);
    const auto& decl = net_.vars()[static_cast<std::size_t>(asg.var)];
    PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, value >= decl.min && value <= decl.max,
                "assignment drives variable '" + decl.name + "' out of its declared range [" +
                    std::to_string(decl.min) + "," + std::to_string(decl.max) + "] (value " +
                    std::to_string(value) + ")");
    vars[static_cast<std::size_t>(asg.var)] = value;
  }
}

void SuccGen::apply_resets(const ta::Update& update, Dbm& zone) {
  for (const auto& r : update.resets) zone.reset(r.clock + 1, r.value);
}

bool SuccGen::committed_active(const std::vector<ta::LocId>& locs) const {
  for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a)
    if (loc_committed(a, locs[static_cast<std::size_t>(a)])) return true;
  return false;
}

bool SuccGen::loc_committed(ta::AutomatonId a, ta::LocId l) const {
  return net_.automaton(a).location(l).kind == ta::LocKind::kCommitted;
}

bool SuccGen::time_frozen(const std::vector<ta::LocId>& locs) const {
  for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a) {
    const ta::LocKind kind =
        net_.automaton(a).location(locs[static_cast<std::size_t>(a)]).kind;
    if (kind != ta::LocKind::kNormal) return true;
  }
  return false;
}

bool SuccGen::time_bounded(const std::vector<ta::LocId>& locs) const {
  if (time_frozen(locs)) return true;
  for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a) {
    for (const ta::ClockConstraint& cc :
         net_.automaton(a).location(locs[static_cast<std::size_t>(a)]).invariant)
      if (cc.op == ta::CmpOp::kLt || cc.op == ta::CmpOp::kLe) return true;
  }
  return false;
}

bool SuccGen::finalize(SymState& state, Dbm* pre, bool* pre_differs) const {
  if (!apply_invariants(state.zone, state.locs)) return false;
  if (state.zone.empty()) return false;
  if (!time_frozen(state.locs)) {
    state.zone.up();
    if (!apply_invariants(state.zone, state.locs)) return false;
  }
  if (state.zone.empty()) return false;
  if (pre != nullptr) *pre = state.zone;
  extrapolate(state.zone);
  if (pre != nullptr && pre_differs != nullptr) *pre_differs = !(*pre == state.zone);
  return !state.zone.empty();
}

bool SuccGen::replay(const std::vector<EdgeRef>& edges, SymState& child, dbm::Dbm* pre,
                     bool* pre_differs) const {
  // Guards first, then resets, both in participant (firing) order. This
  // matches every sync shape the generator produces: internal edges
  // trivially; binary rendezvous applies both guards before either reset;
  // broadcast receivers carry no clock guards (ta::validate), so hoisting
  // the sender's guard above its resets changes nothing.
  for (const EdgeRef& ref : edges)
    if (!apply_clock_guard(child.zone, edge(ref).guard)) return false;
  for (const EdgeRef& ref : edges) apply_resets(edge(ref).update, child.zone);
  return finalize(child, pre, pre_differs);
}

void SuccGen::emit(SymState&& next, std::vector<EdgeRef>&& edges,
                   std::vector<SymSuccessor>& out) const {
  SymSuccessor succ;
  if (capture_) {
    if (!finalize(next, &succ.pre_zone, &succ.pre_differs)) return;
  } else {
    if (!finalize(next)) return;
  }
  succ.state = std::move(next);
  succ.edges = std::move(edges);
  out.push_back(std::move(succ));
}

SymState SuccGen::initial() const {
  SymState s;
  s.locs.reserve(static_cast<std::size_t>(net_.num_automata()));
  for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a)
    s.locs.push_back(net_.automaton(a).initial());
  s.vars = net_.initial_vars();
  s.zone = Dbm::zero(net_.num_clocks());
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, finalize(s), "initial state violates location invariants");
  return s;
}

std::string SuccGen::edge_label(const EdgeRef& ref) const {
  const auto& aut = net_.automaton(ref.automaton);
  const ta::Edge& e = edge(ref);
  std::string label = aut.name() + "." + aut.location(e.src).name + "->" +
                      aut.location(e.dst).name;
  switch (e.sync.dir) {
    case ta::SyncDir::kSend:
      label += "[" + net_.channel_name(e.sync.chan) + "!]";
      break;
    case ta::SyncDir::kReceive:
      label += "[" + net_.channel_name(e.sync.chan) + "?]";
      break;
    case ta::SyncDir::kNone:
      break;
  }
  return label;
}

std::string SuccGen::label(const std::vector<EdgeRef>& edges) const {
  std::string label;
  for (const EdgeRef& ref : edges) {
    if (!label.empty()) label += " ~ ";
    label += edge_label(ref);
  }
  return label;
}

void SuccGen::append_internal(const SymState& state, bool committed_only,
                              std::vector<SymSuccessor>& out) const {
  for (const EdgeRef& ref : internal_edges_) {
    const ta::Edge& e = edge(ref);
    if (state.locs[static_cast<std::size_t>(ref.automaton)] != e.src) continue;
    if (committed_only && !loc_committed(ref.automaton, e.src)) continue;
    if (!e.guard.data.eval(state.vars)) continue;

    SymState next = state;
    if (!apply_clock_guard(next.zone, e.guard)) continue;
    next.locs[static_cast<std::size_t>(ref.automaton)] = e.dst;
    apply_assignments(e.update, next.vars);
    apply_resets(e.update, next.zone);
    emit(std::move(next), {ref}, out);
  }
}

void SuccGen::append_binary(const SymState& state, bool committed_only,
                            std::vector<SymSuccessor>& out) const {
  for (std::size_t chan = 0; chan < send_edges_.size(); ++chan) {
    if (net_.channels()[chan].kind != ta::ChanKind::kBinary) continue;
    for (const EdgeRef& send : send_edges_[chan]) {
      const ta::Edge& se = edge(send);
      if (state.locs[static_cast<std::size_t>(send.automaton)] != se.src) continue;
      if (!se.guard.data.eval(state.vars)) continue;
      for (const EdgeRef& recv : recv_edges_[chan]) {
        if (recv.automaton == send.automaton) continue;
        const ta::Edge& re = edge(recv);
        if (state.locs[static_cast<std::size_t>(recv.automaton)] != re.src) continue;
        if (!re.guard.data.eval(state.vars)) continue;
        if (committed_only && !loc_committed(send.automaton, se.src) &&
            !loc_committed(recv.automaton, re.src))
          continue;

        SymState next = state;
        if (!apply_clock_guard(next.zone, se.guard)) continue;
        if (!apply_clock_guard(next.zone, re.guard)) continue;
        next.locs[static_cast<std::size_t>(send.automaton)] = se.dst;
        next.locs[static_cast<std::size_t>(recv.automaton)] = re.dst;
        // UPPAAL ordering: sender updates run before receiver updates.
        apply_assignments(se.update, next.vars);
        apply_assignments(re.update, next.vars);
        apply_resets(se.update, next.zone);
        apply_resets(re.update, next.zone);
        emit(std::move(next), {send, recv}, out);
      }
    }
  }
}

void SuccGen::append_broadcast(const SymState& state, bool committed_only,
                               std::vector<SymSuccessor>& out) const {
  for (std::size_t chan = 0; chan < send_edges_.size(); ++chan) {
    if (net_.channels()[chan].kind != ta::ChanKind::kBroadcast) continue;
    for (const EdgeRef& send : send_edges_[chan]) {
      const ta::Edge& se = edge(send);
      if (state.locs[static_cast<std::size_t>(send.automaton)] != se.src) continue;
      if (!se.guard.data.eval(state.vars)) continue;

      // Determine, per automaton, the enabled receiving edges. Receivers
      // carry no clock guards (validated), so enabledness is discrete.
      std::vector<std::vector<EdgeRef>> choices;  // one entry per participating automaton
      for (ta::AutomatonId a = 0; a < net_.num_automata(); ++a) {
        if (a == send.automaton) continue;
        std::vector<EdgeRef> enabled;
        for (const EdgeRef& recv : recv_edges_[chan]) {
          if (recv.automaton != a) continue;
          const ta::Edge& re = edge(recv);
          if (state.locs[static_cast<std::size_t>(a)] != re.src) continue;
          if (!re.guard.data.eval(state.vars)) continue;
          enabled.push_back(recv);
        }
        if (!enabled.empty()) choices.push_back(std::move(enabled));
      }

      if (committed_only) {
        bool any_committed = loc_committed(send.automaton, se.src);
        for (const auto& group : choices)
          for (const EdgeRef& r : group)
            any_committed = any_committed || loc_committed(r.automaton, edge(r).src);
        if (!any_committed) continue;
      }

      // Cartesian product over per-automaton receiver choices.
      std::vector<std::size_t> pick(choices.size(), 0);
      while (true) {
        SymState next = state;
        bool feasible = apply_clock_guard(next.zone, se.guard);
        if (feasible) {
          next.locs[static_cast<std::size_t>(send.automaton)] = se.dst;
          std::vector<EdgeRef> parts{send};
          apply_assignments(se.update, next.vars);
          apply_resets(se.update, next.zone);
          // Receivers run in automaton order (choices are built in order).
          for (std::size_t g = 0; g < choices.size(); ++g) {
            const EdgeRef& recv = choices[g][pick[g]];
            const ta::Edge& re = edge(recv);
            next.locs[static_cast<std::size_t>(recv.automaton)] = re.dst;
            apply_assignments(re.update, next.vars);
            apply_resets(re.update, next.zone);
            parts.push_back(recv);
          }
          emit(std::move(next), std::move(parts), out);
        }
        // Advance the product counter.
        std::size_t g = 0;
        for (; g < pick.size(); ++g) {
          if (++pick[g] < choices[g].size()) break;
          pick[g] = 0;
        }
        if (g == pick.size()) break;
        if (choices.empty()) break;  // single iteration when no receivers
      }
    }
  }
}

std::vector<SymSuccessor> SuccGen::successors(const SymState& state) const {
  std::vector<SymSuccessor> out;
  const bool committed_only = committed_active(state.locs);
  append_internal(state, committed_only, out);
  append_binary(state, committed_only, out);
  append_broadcast(state, committed_only, out);
  return out;
}

}  // namespace psv::mc
