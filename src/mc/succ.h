// Symbolic successor generation for networks of timed automata.
//
// Implements the standard UPPAAL-style symbolic semantics:
//   * states carry delay-closed, invariant-constrained zones, extrapolated
//     with Extra_LU⁺ (dbm::Dbm::extrapolate_lu) under per-clock L/U
//     constants the generator builds from the network and the query;
//   * internal edges, binary rendezvous and broadcast synchronizations;
//   * committed locations take network-wide priority and block delay;
//   * urgent locations block delay.
//
// Broadcast receivers are required (by ta::validate) to carry no clock
// guards, which keeps the "all enabled receivers participate" rule exact on
// zones: enabledness is a function of the discrete state only.
#pragma once

#include <string>
#include <vector>

#include "mc/state.h"

namespace psv::mc {

/// A participating edge of a transition, by raw network position. Raw
/// indices are stable across skeleton-equal networks (ta::skeleton_digest),
/// which is what lets a persisted passed store replay its transitions
/// against an edited network.
struct EdgeRef {
  ta::AutomatonId automaton = 0;
  int edge_index = 0;
};

/// One symbolic transition: the successor state plus the participating
/// edges that fired it — the only record of a transition; labels for
/// diagnostic traces are rendered from them on demand (SuccGen::label). With
/// capture enabled (SuccGen::set_capture) the pre-extrapolation zone rides
/// along so the passed store can be exported for warm starts.
struct SymSuccessor {
  SymState state;
  /// Participating edges in firing order (sender first).
  std::vector<EdgeRef> edges;
  /// Zone after guards/resets/invariants/delay-closure but BEFORE
  /// extrapolation; only meaningful in capture mode and only when
  /// `pre_differs` (otherwise it equals `state.zone`).
  dbm::Dbm pre_zone{0};
  bool pre_differs = false;
};

/// Generates initial states and successors for a validated network.
class SuccGen {
 public:
  /// Builds the Extra_LU⁺ constants: L takes the constants of lower-bound
  /// comparisons (`>`, `>=` guards), U those of upper-bound ones (`<`, `<=`
  /// guards and invariants); equalities, reset values and every entry of
  /// `extra_clock_consts` (query constants: one entry per clock, -1 = none;
  /// pass {} for none) go into both.
  SuccGen(const ta::Network& net, std::vector<std::int32_t> extra_clock_consts);

  const ta::Network& net() const { return net_; }

  /// The (delay-closed, extrapolated) initial symbolic state.
  SymState initial() const;

  /// All action successors of `state`.
  std::vector<SymSuccessor> successors(const SymState& state) const;

  /// True iff some automaton rests in an urgent or committed location.
  bool time_frozen(const std::vector<ta::LocId>& locs) const;

  /// True iff time cannot diverge from any zone at `locs`: time is frozen,
  /// or an active invariant has an upper-bound conjunct. Stored zones are
  /// delay-closed, so this is exactly "the zone has a finite clock upper
  /// bound" before extrapolation — read off the locations because Extra_LU⁺
  /// may drop an invariant's bound from the stored zone.
  bool time_bounded(const std::vector<ta::LocId>& locs) const;

  /// Record pre-extrapolation zones on every generated successor
  /// (store-export mode). Off by default; the cold exploration path pays
  /// nothing.
  void set_capture(bool capture) { capture_ = capture; }
  bool capture() const { return capture_; }

  /// Re-derive the successor reached via `edges` from a parent zone under
  /// THIS network: clock guards in participant order, then resets in
  /// participant order, then finalize (invariants, delay closure,
  /// extrapolation). `child` must arrive with its discrete parts (locs,
  /// vars) already set — they are identical across skeleton-equal networks
  /// — and its zone holding a copy of the parent zone. Returns false when
  /// the zone empties under this network's constraints. `pre`/`pre_differs`
  /// optionally capture the pre-extrapolation zone, as in finalize().
  bool replay(const std::vector<EdgeRef>& edges, SymState& child, dbm::Dbm* pre = nullptr,
              bool* pre_differs = nullptr) const;

  /// Apply this generator's extrapolation to a zone (for re-extrapolating
  /// an imported pre-extrapolation zone under new constants).
  void extrapolate(dbm::Dbm& zone) const { zone.extrapolate_lu(lower_, upper_); }

  /// Printable label of a transition, rendered from THIS network's names:
  /// "A.l1->l2[c!] ~ B.l3->l4[c?]" (participants in firing order); empty for
  /// no edges (the initial state of a trace).
  std::string label(const std::vector<EdgeRef>& edges) const;

  /// Effective Extra_LU⁺ constants, indexed by DBM clock index (0..n);
  /// -1 marks a clock never compared from that side.
  const std::vector<std::int32_t>& lower_consts() const { return lower_; }
  const std::vector<std::int32_t>& upper_consts() const { return upper_; }

 private:
  const ta::Edge& edge(const EdgeRef& ref) const;

  /// Apply one clock constraint to a zone; false on emptiness.
  static bool apply_clock_constraint(dbm::Dbm& zone, const ta::ClockConstraint& cc);

  /// Conjoin a full guard (data part must already be checked); false on empty.
  static bool apply_clock_guard(dbm::Dbm& zone, const ta::Guard& guard);

  /// Conjoin the invariants of all locations in `locs`; false on empty.
  bool apply_invariants(dbm::Dbm& zone, const std::vector<ta::LocId>& locs) const;

  /// Run assignments of the participating edges in order against `vars`.
  void apply_assignments(const ta::Update& update, std::vector<std::int64_t>& vars) const;

  /// Apply clock resets to the zone.
  static void apply_resets(const ta::Update& update, dbm::Dbm& zone);

  /// Finish a successor: target invariants, optional delay closure,
  /// invariants again, extrapolation. Returns false if the zone is empty.
  /// With `pre` non-null, copies the zone into *pre immediately before
  /// extrapolation and sets *pre_differs when extrapolation changed it.
  bool finalize(SymState& state, dbm::Dbm* pre = nullptr, bool* pre_differs = nullptr) const;

  /// Priority filter: with committed locations active, only edges leaving a
  /// committed location (in some participant) may fire.
  bool committed_active(const std::vector<ta::LocId>& locs) const;
  bool loc_committed(ta::AutomatonId a, ta::LocId l) const;

  /// Finalize `next` and append it to `out` with its participants
  /// (dropping empty zones). In capture mode also records the
  /// pre-extrapolation zone.
  void emit(SymState&& next, std::vector<EdgeRef>&& edges, std::vector<SymSuccessor>& out) const;

  void append_internal(const SymState& state, bool committed_only,
                       std::vector<SymSuccessor>& out) const;
  void append_binary(const SymState& state, bool committed_only,
                     std::vector<SymSuccessor>& out) const;
  void append_broadcast(const SymState& state, bool committed_only,
                        std::vector<SymSuccessor>& out) const;

  std::string edge_label(const EdgeRef& ref) const;

  const ta::Network& net_;
  std::vector<std::int32_t> lower_;  // L, indexed by DBM clock index (0..n)
  std::vector<std::int32_t> upper_;  // U, indexed by DBM clock index (0..n)
  bool capture_ = false;
  // Edge indices grouped for fast lookup.
  std::vector<EdgeRef> internal_edges_;
  std::vector<std::vector<EdgeRef>> send_edges_;  // per channel
  std::vector<std::vector<EdgeRef>> recv_edges_;  // per channel
};

}  // namespace psv::mc
