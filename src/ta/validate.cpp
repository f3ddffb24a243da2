#include "ta/validate.h"

#include <sstream>

#include "util/error.h"

namespace psv::ta {

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& e : errors) os << "error: " << e << "\n";
  for (const auto& w : warnings) os << "warning: " << w << "\n";
  return os.str();
}

namespace {

class Validator {
 public:
  explicit Validator(const Network& net) : net_(net) {}

  ValidationReport run() {
    if (net_.num_automata() == 0) error("network has no automata");
    for (AutomatonId a = 0; a < net_.num_automata(); ++a) check_automaton(a);
    check_channel_usage();
    return std::move(report_);
  }

 private:
  void error(const std::string& msg) { report_.errors.push_back(msg); }
  void warning(const std::string& msg) { report_.warnings.push_back(msg); }

  std::string at(const Automaton& aut, const Edge& e) const {
    return aut.name() + ": " + aut.location(e.src).name + " -> " + aut.location(e.dst).name;
  }

  void check_clock(ClockId c, const std::string& where) {
    if (c < 0 || c >= net_.num_clocks())
      error(where + ": clock id " + std::to_string(c) + " not declared");
  }

  void check_vars_of_bool(const BoolExpr& e, const std::string& where) {
    std::vector<VarId> vars;
    e.collect_vars(vars);
    for (VarId v : vars)
      if (v < 0 || v >= net_.num_vars())
        error(where + ": variable id " + std::to_string(v) + " not declared");
  }

  void check_vars_of_int(const IntExpr& e, const std::string& where) {
    std::vector<VarId> vars;
    e.collect_vars(vars);
    for (VarId v : vars)
      if (v < 0 || v >= net_.num_vars())
        error(where + ": variable id " + std::to_string(v) + " not declared");
  }

  void check_automaton(AutomatonId id) {
    const Automaton& aut = net_.automaton(id);
    if (aut.initial() < 0 || aut.initial() >= static_cast<LocId>(aut.locations().size())) {
      error(aut.name() + ": invalid initial location");
      return;
    }
    for (const Location& loc : aut.locations()) {
      for (const ClockConstraint& cc : loc.invariant) {
        check_clock(cc.clock, aut.name() + "." + loc.name + " invariant");
        if (cc.op != CmpOp::kLt && cc.op != CmpOp::kLe)
          error(aut.name() + "." + loc.name +
                ": invariants must be upper bounds (< or <=), got " + cmp_op_str(cc.op));
        if (cc.bound < 0)
          error(aut.name() + "." + loc.name + ": invariant bound is negative");
      }
    }
    for (const Edge& e : aut.edges()) {
      const std::string where = at(aut, e);
      check_vars_of_bool(e.guard.data, where + " guard");
      for (const ClockConstraint& cc : e.guard.clocks) check_clock(cc.clock, where + " guard");
      if (e.sync.dir != SyncDir::kNone) {
        if (e.sync.chan < 0 || e.sync.chan >= static_cast<ChanId>(net_.channels().size())) {
          error(where + ": channel id " + std::to_string(e.sync.chan) + " not declared");
        } else if (net_.channels()[static_cast<std::size_t>(e.sync.chan)].kind ==
                       ChanKind::kBroadcast &&
                   e.sync.dir == SyncDir::kReceive && e.guard.has_clock_constraints()) {
          error(where + ": broadcast receive edges must not have clock guards (channel '" +
                net_.channel_name(e.sync.chan) + "')");
        }
      }
      for (const Assignment& asg : e.update.assignments) {
        if (asg.var < 0 || asg.var >= net_.num_vars())
          error(where + ": assignment to undeclared variable id " + std::to_string(asg.var));
        check_vars_of_int(asg.value, where + " assignment");
      }
      for (const ClockReset& r : e.update.resets) {
        check_clock(r.clock, where + " reset");
        if (r.value < 0) error(where + ": clock reset to negative value");
      }
    }
  }

  void check_channel_usage() {
    const auto& chans = net_.channels();
    std::vector<bool> has_send(chans.size(), false), has_recv(chans.size(), false);
    for (const Automaton& aut : net_.automata()) {
      for (const Edge& e : aut.edges()) {
        if (e.sync.dir == SyncDir::kSend && e.sync.chan >= 0 &&
            e.sync.chan < static_cast<ChanId>(chans.size()))
          has_send[static_cast<std::size_t>(e.sync.chan)] = true;
        if (e.sync.dir == SyncDir::kReceive && e.sync.chan >= 0 &&
            e.sync.chan < static_cast<ChanId>(chans.size()))
          has_recv[static_cast<std::size_t>(e.sync.chan)] = true;
      }
    }
    for (std::size_t c = 0; c < chans.size(); ++c) {
      if (chans[c].kind == ChanKind::kBinary && has_send[c] != has_recv[c])
        warning("binary channel '" + chans[c].name +
                "' has senders or receivers only; those edges can never fire");
    }
  }

  const Network& net_;
  ValidationReport report_;
};

}  // namespace

ValidationReport validate(const Network& net) { return Validator(net).run(); }

void validate_or_throw(const Network& net) {
  ValidationReport report = validate(net);
  if (!report.ok())
    throw Error("network '" + net.name() + "' failed validation:\n" + report.to_string());
}

}  // namespace psv::ta
