// Content digests of timed-automata networks.
//
// Both digests hash ONE raw walk of the network in declaration order, with
// raw clock, variable, channel, location and edge ids:
//
//   * network_digest() covers every field ta::network_text() prints — the
//     automaton, location, clock, variable and channel names and the edge
//     notes included — plus every field the model checker reads. The one
//     exception is the network's own name: no cached result renders it and
//     no id depends on it, and a PSM is named after its scheme, so keying
//     on it would only split equal PSMs of differently named schemes (a
//     synthesis candidate and the same scheme sent as a verify request).
//     Two networks share the digest only if they are the same network up
//     to that name, so it keys every cache whose entries are indexed by raw
//     ids (passed stores,
//     pooled sessions queried with raw ids) or carry rendered text (traces):
//     the persistent artifact store (src/mc/artifact.h) and the Verifier's
//     session pool (src/core/service.h). Any edit misses, including a
//     rename and a reorder of edges, conjuncts, resets or declarations.
//   * skeleton_digest() is the same walk with every clock-constraint bound
//     (guard and invariant constants) masked and names and notes skipped.
//     Two networks with equal skeletons differ at most in clock constants at
//     structurally identical positions (and in presentation), so raw edge
//     and location indices align between them; that is exactly the
//     compatibility contract of a passed-store warm start (mc/store.h), and
//     the digest keys the "compatible ancestor" index of the artifact cache.
#pragma once

#include "ta/model.h"
#include "util/hash.h"
#include "util/serde.h"

namespace psv::ta {

/// Exact digest of `net`: see the file comment.
Digest128 network_digest(const Network& net);

/// Structural skeleton digest of `net`: see the file comment.
Digest128 skeleton_digest(const Network& net);

// --- Raw-id encoders shared with query-key computation (src/mc) -----------

void encode_bool_expr(ByteWriter& out, const BoolExpr& e);
void encode_clock_constraint(ByteWriter& out, const ClockConstraint& cc);

}  // namespace psv::ta
