#include "core/constraints.h"

#include <sstream>

namespace psv::core {

bool ConstraintReport::all_hold() const {
  for (const auto& c : checks)
    if (!c.holds) return false;
  return true;
}

std::vector<ConstraintCheck> ConstraintReport::with_id(const std::string& id) const {
  std::vector<ConstraintCheck> out;
  for (const auto& c : checks)
    if (c.id == id) out.push_back(c);
  return out;
}

std::string ConstraintReport::to_string() const {
  std::ostringstream os;
  for (const auto& c : checks)
    os << "  [" << (c.holds ? "ok" : "VIOLATED") << "] " << c.name
       << (c.detail.empty() ? "" : " — " + c.detail) << "\n";
  return os.str();
}

namespace {

struct FlagSpec {
  std::string id;
  std::string name;
  ta::VarId var = -1;
};

std::vector<FlagSpec> constraint_flags(const PsmArtifacts& psm) {
  std::vector<FlagSpec> flags;
  for (const InputArtifacts& in : psm.inputs) {
    flags.push_back({"C1", "C1: detection of all m_" + in.base + " signals", in.missed});
    if (in.overflow >= 0) {
      flags.push_back({"C2", "C2: no input buffer overflow for " + in.base, in.overflow});
    } else {
      flags.push_back({"C2", "C2: no unread shared-slot overwrite for " + in.base, in.lost});
    }
  }
  for (const OutputArtifacts& outv : psm.outputs)
    flags.push_back({"C3", "C3: no output buffer overflow for " + outv.base, outv.overflow});
  if (psm.c4_violation >= 0)
    flags.push_back(
        {"C4", "C4: no internal transition while an input is pending", psm.c4_violation});
  return flags;
}

}  // namespace

std::vector<ta::VarId> constraint_flag_vars(const PsmArtifacts& psm) {
  std::vector<ta::VarId> vars;
  const std::vector<FlagSpec> flags = constraint_flags(psm);
  vars.reserve(flags.size());
  for (const FlagSpec& f : flags) vars.push_back(f.var);
  return vars;
}

ConstraintReport check_constraints(mc::VerificationSession& session, const PsmArtifacts& psm,
                                   bool include_deadlock_check) {
  // One exploration answers everything: the session's shared full-space
  // sweep walks the (subsumption-reduced) state space once, recording every
  // sticky flag and the first timelock along the way. Flags are discrete, so
  // visiting the reduced space is exact for them.
  ConstraintReport report;
  const std::vector<FlagSpec> flags = constraint_flags(psm);
  const mc::VerificationSession::FlagReport shared = session.check_flags(constraint_flag_vars(psm));
  for (std::size_t i = 0; i < flags.size(); ++i) {
    ConstraintCheck check;
    check.id = flags[i].id;
    check.name = flags[i].name;
    check.holds = !shared.reachable[i];
    check.detail = shared.reachable[i]
                       ? "violation reachable"
                       : "verified (" + std::to_string(shared.deadlock.stats.states_stored) +
                             " states, shared exploration)";
    report.checks.push_back(std::move(check));
  }
  if (!include_deadlock_check) return report;

  const mc::DeadlockResult& dl = shared.deadlock;
  ConstraintCheck dlc;
  dlc.id = "C3";
  dlc.name = "C3: environment accepts outputs / scheme schedulable (no timelock)";
  dlc.holds = !dl.found || !dl.timelock;
  if (dl.found && dl.timelock) {
    dlc.detail = "timelock reachable in " + std::to_string(dl.trace.steps.size() - 1) + " steps";
  } else if (dl.found) {
    dlc.detail = "quiescent state exists (time diverges; not a timelock)";
  } else {
    dlc.detail = "verified (" + std::to_string(dl.stats.states_stored) + " states)";
  }
  report.checks.push_back(std::move(dlc));
  return report;
}

ConstraintReport check_constraints(const PsmArtifacts& psm, bool include_deadlock_check,
                                   mc::ExploreOptions explore) {
  mc::VerificationSession session(psm.psm, explore);
  return check_constraints(session, psm, include_deadlock_check);
}

}  // namespace psv::core
