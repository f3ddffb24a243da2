// The four boundedness constraints of §V.
//
// The relaxed bound delta'_mc exists only when the implementation scheme
// keeps the platform's queues and detection mechanisms healthy:
//   (C1) every input signal is detected (no missed latches, no expired
//        sustained signals, no interrupts during a busy service routine);
//   (C2) the input transfer never loses data (no FIFO overflow, no shared
//        slot overwritten unread);
//   (C3) the output transfer never loses data and the environment accepts
//        outputs (no FIFO overflow, no timelock at delivery);
//   (C4) the software takes no internal transition while an input waits at
//        the io-boundary (the transition decision uses fresh inputs).
// All are discharged by one full sweep of the PSM: it records which sticky
// flags reach 1 and the first timelock (the deadlock search), and a
// timelock does not end it.
#pragma once

#include <string>
#include <vector>

#include "core/transform.h"
#include "mc/reach.h"
#include "mc/session.h"

namespace psv::core {

/// Outcome of one constraint check.
struct ConstraintCheck {
  std::string id;      ///< "C1", "C2", "C3", "C4"
  std::string name;    ///< human-readable subject, e.g. "C1: detection of m_BolusReq"
  bool holds = false;
  std::string detail;  ///< violation witness summary or "verified"
};

/// All constraint checks for one PSM.
struct ConstraintReport {
  std::vector<ConstraintCheck> checks;

  bool all_hold() const;
  /// Checks belonging to one constraint id ("C1".."C4").
  std::vector<ConstraintCheck> with_id(const std::string& id) const;
  std::string to_string() const;
};

/// Model-check constraints C1-C4 on the PSM (§V). `include_deadlock_check`
/// additionally reports the sweep's timelock/deadlock verdict (part of C3's
/// "environment reads fast enough" and of scheme schedulability); it never
/// changes how the flags are answered.
ConstraintReport check_constraints(const PsmArtifacts& psm, bool include_deadlock_check = true,
                                   mc::ExploreOptions explore = {});

/// Session-backed variant: every flag is discharged through `session`'s
/// shared full-space exploration (cached across the session's whole query
/// load — the delay-bound sweeps and a repeated constraint check reuse it).
/// The session must wrap `psm.psm` or an instrumentation-extended copy of
/// it (probe instrumentation never changes flag reachability).
ConstraintReport check_constraints(mc::VerificationSession& session, const PsmArtifacts& psm,
                                   bool include_deadlock_check = true);

/// The sticky flag variables check_constraints() discharges, in check
/// order. Batch planners pass these to VerificationSession::verify_batch so
/// the flag sweep shares the bound queries' round-0 exploration; the later
/// check_constraints() call is then served entirely from the session memo.
std::vector<ta::VarId> constraint_flag_vars(const PsmArtifacts& psm);

}  // namespace psv::core
