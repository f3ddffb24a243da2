// Persistent, content-addressed verification artifacts.
//
// A VerificationArtifact is the externalized memo of a VerificationSession:
// every answered bound query (keyed by a query digest over raw ids) plus the
// shared C1–C4 flag/deadlock sweep. An ArtifactStore keeps artifacts in a
// cache directory, one file per key, where the key is composed of
//
//   { the exact network digest (ta::network_digest — names, notes and the
//     raw declaration and edge order included, because stored traces are
//     rendered text and the stored passed store is indexed by raw edge
//     order; probe instrumentation is part of the network, so the probe set
//     is part of the key; an edited, renamed or reordered network misses
//     and may still warm-start from a skeleton-equal ancestor's store),
//     the ExploreOptions knob that can affect results (max_states; jobs is
//     excluded — exploration is deterministic across thread counts),
//     the artifact format version }.
//
// A warm session therefore answers the whole §V query load of an unchanged
// model without exploring a single state, with results — bounds, witness
// traces, statistics — bit-identical to the cold run that stored them.
//
// Robustness: the on-disk format carries a magic, a format version, a native
// endianness marker, an echo of the key, and a 128-bit payload checksum.
// load() treats ANY mismatch — truncation, bit flips, version or endianness
// drift, a foreign key — as a miss: one warning line, no crash, and the
// caller falls back to exploration. Since format v4, the exported passed
// store that warm-starts skeleton-equal successors is persisted alongside
// the batch bounds and the shared flag sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mc/query.h"
#include "mc/store.h"
#include "util/hash.h"

namespace psv::mc {

/// Bumped whenever the artifact payload layout, the network or query digest
/// encoding, or the semantics of a stored field change; files with any
/// other version are ignored. Version 4: artifacts carry the network's
/// skeleton digest, memoized reachability and bounded-response results
/// (the failing-path witness searches a repeated FAIL request re-runs),
/// the exported passed store for warm-starting skeleton-equal successors,
/// and warm-start counters in every ExploreStats block. Version-3 files
/// lack all of these and are rejected by the version check — a warned miss
/// followed by re-exploration. Version 5: the key drops the bound-engine and
/// goal-pruning bytes, and passed-store entries no longer carry rendered
/// transition labels (traces render them from the edges on demand).
/// Version 6: the bounded-response memo is gone from the payload, and the
/// persisted statistics of goal searches and timelock-aborted sweeps follow
/// the single wave loop (a goal search stops before expanding the goal's
/// wave; a timelock commits none of its wave's successors).
/// Version 7: the key carries ta::names_digest, so a rename-only edit is a
/// miss instead of serving traces that name the old locations.
/// Version 8: the key is the exact ta::network_digest (the canonical
/// fingerprint and the names digest are gone), so an edge, conjunct, reset
/// or declaration reorder misses instead of serving a passed store indexed
/// by the old edge order; query digests and the flag sweep use raw ids.
/// Version 9: the memoized reachability results are gone from the payload
/// (every C1–C4 flag comes from the shared sweep, which a timelock no
/// longer ends), and a persisted flag sweep's deadlock statistics are the
/// full sweep's.
inline constexpr std::uint32_t kArtifactFormatVersion = 9;

/// Content-addressed cache key; hex() names the artifact file.
struct ArtifactKey {
  Digest128 digest;

  std::string hex() const { return digest.hex(); }
  friend bool operator==(const ArtifactKey& a, const ArtifactKey& b) {
    return a.digest == b.digest;
  }
};

/// Compose the cache key for a network with ta::network_digest `network`
/// under `opts`.
ArtifactKey artifact_key(const Digest128& network, const ExploreOptions& opts);

// Shared serde helpers for engine result payloads. Used by the artifact
// format below and by the report serialization of the wire protocol
// (core/report_serde.h); both encode traces and statistics identically, so
// a report travels the wire bit-exactly the way it is cached on disk.
void write_explore_stats(ByteWriter& out, const ExploreStats& stats);
ExploreStats read_explore_stats(ByteReader& in);
void write_trace(ByteWriter& out, const Trace& trace);
/// Throws psv::Error (kProtocol) on malformed input; never reads out of
/// bounds.
Trace read_trace(ByteReader& in);

/// Digest of one bound query, over raw ids: the artifact key's network
/// digest already pins every declaration and its order. The hint is
/// deliberately excluded: it cannot change a bound (only how much work
/// finding it costs), matching the in-session memoization semantics.
/// top_k IS encoded: it changes the ranked-trace payload a result carries,
/// so queries with different retention depths must not share a memo entry.
Digest128 bound_query_digest(const BoundQuery& query);

/// The serializable memo of a verification session.
struct VerificationArtifact {
  struct BoundEntry {
    Digest128 query;        ///< bound_query_digest of the answered query
    MaxClockResult result;  ///< served verbatim on a hit (incl. stats/trace)
  };
  /// Sorted by query digest so serialization is deterministic.
  std::vector<BoundEntry> bounds;

  /// The shared full-space C1–C4 flag + deadlock sweep, when it ran.
  bool has_flag_sweep = false;
  std::vector<std::uint8_t> var_seen_one;  ///< per raw VarId, 0/1
  DeadlockResult deadlock;

  // --- Format v4 ------------------------------------------------------------

  /// ta::skeleton_digest of the session network: the key under which
  /// this artifact's passed store is indexed as a warm-start ancestor for
  /// structurally-related verifications.
  Digest128 skeleton;

  /// Passed store of the session's last complete capture sweep (mc/store.h);
  /// absent when no capture sweep completed.
  std::optional<PassedStoreExport> store;

  /// Payload encoding (header-less; ArtifactStore adds framing + checksum).
  std::vector<std::uint8_t> serialize() const;
  /// Throws psv::Error on any malformed input; never reads out of bounds.
  static VerificationArtifact deserialize(ByteReader& in);
};

/// Directory-backed artifact store: one `<key-hex>.psvart` file per key.
/// Writes go through a temp file + rename, so concurrent writers of the
/// same key cannot tear each other's files.
class ArtifactStore {
 public:
  using WarnFn = std::function<void(const std::string&)>;

  /// `warn` receives one line per ignored (corrupt/mismatched) or unwritable
  /// artifact; the default prints to stderr.
  explicit ArtifactStore(std::string dir, WarnFn warn = {});

  const std::string& dir() const { return dir_; }
  std::string path_of(const ArtifactKey& key) const;

  /// Load the artifact for `key`. Missing file -> silent miss; invalid file
  /// (truncated, bit-flipped, wrong version/endianness/key) -> warned miss.
  std::optional<VerificationArtifact> load(const ArtifactKey& key) const;

  /// Persist `artifact` under `key` (creating the directory if needed).
  /// Returns false with a warning when the filesystem refuses.
  bool store(const ArtifactKey& key, const VerificationArtifact& artifact) const;

 private:
  void warn(const std::string& message) const;

  std::string dir_;
  WarnFn warn_;
};

}  // namespace psv::mc
