// Persistable passed-store exports for incremental (warm-start) exploration.
//
// A complete exploration can export its passed store: every stored symbolic
// state with its parent, participating edges, discrete parts, zone, the
// pre-extrapolation zone it was extrapolated from, and the states that
// subsumed its pruned successors. A later verification of a
// *skeleton-equal* network (same structure, possibly different clock
// constants — ta::skeleton_digest) imports the store, re-derives each
// state's zone under the new network (exactly: either by re-extrapolating
// the recorded pre-extrapolation zone, or by replaying the recorded
// transition), and seeds its exploration with the surviving prefix. States
// whose entire successor neighbourhood is provably unaffected by the edit
// are *closed* and never expanded again; everything else falls back to
// normal exploration. Results are bit-identical to a cold run.
//
// The serialized payload travels inside VerificationArtifact (mc/artifact.h)
// and is keyed there by the network's skeleton digest.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/succ.h"
#include "ta/model.h"
#include "util/hash.h"
#include "util/serde.h"

namespace psv::mc {

/// Parent ordinal marking the initial state (which has no parent).
inline constexpr std::uint64_t kNoStoreParent = ~std::uint64_t{0};

/// One exported symbolic state, in deterministic exploration (ordinal)
/// order: entry 0 is the initial state; every parent precedes its children.
struct StoreEntry {
  std::uint64_t parent = kNoStoreParent;  ///< ordinal of the parent entry
  /// Participating edges, firing order. Trace labels are rendered from them
  /// against the importing network, so a renamed location never shows up
  /// under its old name.
  std::vector<EdgeRef> edges;
  std::vector<ta::LocId> locs;
  std::vector<std::int64_t> vars;
  /// Stored (post-extrapolation) zone.
  dbm::Dbm zone{0};
  /// Zone before extrapolation; equals `zone` when !pre_differs (and is
  /// then left empty on the wire).
  dbm::Dbm pre_zone{0};
  bool pre_differs = false;
  /// Ordinals of states that subsumed successors generated from this entry
  /// (sorted, deduplicated). The closed-state rule needs them: a state may
  /// be skipped only if every cover of its pruned successors still stands.
  std::vector<std::uint64_t> covers;
};

/// A complete passed store plus the structural digests of the network that
/// produced it, for change detection against a skeleton-equal edit.
struct PassedStoreExport {
  /// Per-edge digest of the timing surface (clock guards + resets), raw
  /// declaration order: [automaton][edge].
  std::vector<std::vector<Digest128>> edge_digests;
  /// Per-location invariant digest, raw order: [automaton][location].
  std::vector<std::vector<Digest128>> inv_digests;
  /// Effective Extra_LU⁺ constants of the exporting run (network merged
  /// with query extras; SuccGen::lower_consts / upper_consts), indexed by
  /// DBM clock index (0..num_clocks).
  std::vector<std::int32_t> lower;
  std::vector<std::int32_t> upper;
  std::int32_t num_clocks = 0;
  std::int32_t num_vars = 0;
  std::int32_t num_automata = 0;
  std::vector<StoreEntry> entries;
};

/// Digest of each edge's clock guards and resets (the parts of an edge the
/// skeleton masks), raw order.
std::vector<std::vector<Digest128>> edge_timing_digests(const ta::Network& net);

/// Digest of each location's invariant, raw order.
std::vector<std::vector<Digest128>> invariant_digests(const ta::Network& net);

void write_passed_store(ByteWriter& out, const PassedStoreExport& store);

/// Bounds-checked inverse; throws psv::Error(kProtocol) on malformed input.
PassedStoreExport read_passed_store(ByteReader& in);

}  // namespace psv::mc
