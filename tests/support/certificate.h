// Certificate checker for exploration verdicts.
//
// A verification run reports delay bounds, the C1–C4 sticky flags and a
// timelock/quiescence verdict. The certificate checks them against the live
// passed list of an exploration (mc::Reachability::live_states) alone, with
// no waves, no waiting list and no ordering:
//
//   * the initial state is covered by a live zone with its discrete state;
//   * every one-step successor (mc::SuccGen, under the same Extra_LU⁺
//     constants) of every live state is covered by a live zone with the
//     same discrete state — so the list is an inductive cover of the
//     abstract zone graph;
//   * every reported bound equals the maximum probe-clock upper bound over
//     the live states satisfying its condition (unbounded: some such state
//     has the probe abstracted; unreachable: none satisfies it);
//   * every reported flag agrees with a scan of the live states (some live
//     state has the variable at 1), and so does the timelock/quiescent
//     verdict (a live state with no successor whose locations bound time,
//     resp. let it diverge).
//
// The live lists come from fresh cold explorations, one per constant set
// the reported bounds were resolved under (MaxClockResult::witness_consts),
// so a warm-started or cached report is checked against the same
// certificate as a cold one.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mc/query.h"

namespace psv::testing {

/// The verdicts of one verification run over one network.
struct ReportedVerdicts {
  std::vector<mc::BoundQuery> queries;
  std::vector<mc::MaxClockResult> bounds;  ///< index-aligned with queries
  std::vector<ta::VarId> flags;            ///< sticky flag variables
  std::vector<bool> flag_reachable;        ///< index-aligned with flags
  struct Deadlock {
    bool found = false;     ///< DeadlockResult::found
    bool timelock = false;  ///< DeadlockResult::timelock
  };
  std::optional<Deadlock> deadlock;  ///< absent when the run reported none
};

struct CertificateResult {
  std::vector<std::string> failures;  ///< empty when every check held
  std::size_t live_states = 0;        ///< summed over the certified lists
  std::size_t successors_checked = 0;
  int passed_lists = 0;  ///< one per distinct constant set

  bool ok() const { return failures.empty(); }
  std::string to_string() const;
};

/// Certify `reported` against the live passed lists of `net`.
CertificateResult certify(const ta::Network& net, const ReportedVerdicts& reported,
                          mc::ExploreOptions opts = {});

}  // namespace psv::testing
