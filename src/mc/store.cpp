#include "mc/store.h"

#include "util/error.h"

namespace psv::mc {

namespace {

/// Version 2: entries no longer carry a rendered transition label.
/// Version 3: the L and U extrapolation constants replace the max constants.
constexpr std::uint32_t kStorePayloadVersion = 3;

void hash_cc(Hasher128& h, const ta::ClockConstraint& cc) {
  h.i32(cc.clock);
  h.u8(static_cast<std::uint8_t>(cc.op));
  h.i32(cc.bound);
}

void write_zone(ByteWriter& out, const dbm::Dbm& zone) {
  const auto dim = static_cast<std::size_t>(zone.dim());
  out.i32s(zone.raw(), dim * dim);  // row-major, as raw() holds it
}

dbm::Dbm read_zone(ByteReader& in, int num_clocks) {
  dbm::Dbm zone(num_clocks);
  const int dim = zone.dim();
  std::vector<dbm::raw_t> entries(static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim));
  in.i32s(entries.data(), entries.size());
  for (int i = 0; i < dim; ++i)
    for (int j = 0; j < dim; ++j) zone.set(i, j, entries[static_cast<std::size_t>(i * dim + j)]);
  zone.canonicalize();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, !zone.empty(),
                 "passed-store payload carries an empty zone");
  return zone;
}

void write_digest(ByteWriter& out, const Digest128& d) {
  out.u64(d.hi);
  out.u64(d.lo);
}

Digest128 read_digest(ByteReader& in) {
  Digest128 d;
  d.hi = in.u64();
  d.lo = in.u64();
  return d;
}

/// Exact byte count write_passed_store appends for `store`, so the 20+ MB
/// payload of a large store is written into a buffer sized once.
std::size_t encoded_size(const PassedStoreExport& store) {
  auto digest_table = [](const std::vector<std::vector<Digest128>>& table) {
    std::size_t n = 8;
    for (const auto& row : table) n += 8 + 16 * row.size();
    return n;
  };
  auto zone = [](const dbm::Dbm& z) {
    return 4 * static_cast<std::size_t>(z.dim()) * static_cast<std::size_t>(z.dim());
  };
  std::size_t n = 4 * 4 + 2 * 8 + 4 * (store.lower.size() + store.upper.size()) +
                  digest_table(store.edge_digests) + digest_table(store.inv_digests) + 8;
  for (const StoreEntry& entry : store.entries) {
    n += 8 + 8 + 8 * entry.edges.size() + 4 * entry.locs.size() + 8 * entry.vars.size() +
         zone(entry.zone) + 1 + (entry.pre_differs ? zone(entry.pre_zone) : 0) + 8 +
         8 * entry.covers.size();
  }
  return n;
}

}  // namespace

std::vector<std::vector<Digest128>> edge_timing_digests(const ta::Network& net) {
  std::vector<std::vector<Digest128>> out;
  out.reserve(static_cast<std::size_t>(net.num_automata()));
  for (const ta::Automaton& aut : net.automata()) {
    std::vector<Digest128> digests;
    digests.reserve(aut.edges().size());
    for (const ta::Edge& e : aut.edges()) {
      Hasher128 h;
      h.str("psv-edge-timing");
      h.u32(static_cast<std::uint32_t>(e.guard.clocks.size()));
      for (const auto& cc : e.guard.clocks) hash_cc(h, cc);
      h.u32(static_cast<std::uint32_t>(e.update.resets.size()));
      for (const auto& r : e.update.resets) {
        h.i32(r.clock);
        h.i32(r.value);
      }
      digests.push_back(h.digest());
    }
    out.push_back(std::move(digests));
  }
  return out;
}

std::vector<std::vector<Digest128>> invariant_digests(const ta::Network& net) {
  std::vector<std::vector<Digest128>> out;
  out.reserve(static_cast<std::size_t>(net.num_automata()));
  for (const ta::Automaton& aut : net.automata()) {
    std::vector<Digest128> digests;
    digests.reserve(aut.locations().size());
    for (const ta::Location& loc : aut.locations()) {
      Hasher128 h;
      h.str("psv-invariant");
      h.u32(static_cast<std::uint32_t>(loc.invariant.size()));
      for (const auto& cc : loc.invariant) hash_cc(h, cc);
      digests.push_back(h.digest());
    }
    out.push_back(std::move(digests));
  }
  return out;
}

void write_passed_store(ByteWriter& out, const PassedStoreExport& store) {
  out.reserve(encoded_size(store));
  out.u32(kStorePayloadVersion);
  out.i32(store.num_clocks);
  out.i32(store.num_vars);
  out.i32(store.num_automata);

  for (const std::vector<std::int32_t>* consts : {&store.lower, &store.upper}) {
    out.u64(consts->size());
    for (std::int32_t c : *consts) out.i32(c);
  }

  auto write_digest_table = [&out](const std::vector<std::vector<Digest128>>& table) {
    out.u64(table.size());
    for (const auto& row : table) {
      out.u64(row.size());
      for (const Digest128& d : row) write_digest(out, d);
    }
  };
  write_digest_table(store.edge_digests);
  write_digest_table(store.inv_digests);

  out.u64(store.entries.size());
  for (const StoreEntry& entry : store.entries) {
    out.u64(entry.parent);
    out.u64(entry.edges.size());
    for (const EdgeRef& ref : entry.edges) {
      out.i32(ref.automaton);
      out.i32(ref.edge_index);
    }
    for (ta::LocId loc : entry.locs) out.i32(loc);
    for (std::int64_t v : entry.vars) out.i64(v);
    write_zone(out, entry.zone);
    out.boolean(entry.pre_differs);
    if (entry.pre_differs) write_zone(out, entry.pre_zone);
    out.u64(entry.covers.size());
    for (std::uint64_t c : entry.covers) out.u64(c);
  }
}

PassedStoreExport read_passed_store(ByteReader& in) {
  const std::uint32_t version = in.u32();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, version == kStorePayloadVersion,
                 "unsupported passed-store payload version " + std::to_string(version));

  PassedStoreExport store;
  store.num_clocks = in.i32();
  store.num_vars = in.i32();
  store.num_automata = in.i32();
  PSV_REQUIRE_AS(ErrorCode::kProtocol,
                 store.num_clocks >= 0 && store.num_vars >= 0 && store.num_automata > 0,
                 "passed-store payload header out of range");

  for (std::vector<std::int32_t>* consts : {&store.lower, &store.upper}) {
    const std::size_t num_consts = in.length(4);
    PSV_REQUIRE_AS(ErrorCode::kProtocol,
                   num_consts == static_cast<std::size_t>(store.num_clocks) + 1,
                   "passed-store extrapolation-constant arity mismatch");
    consts->reserve(num_consts);
    for (std::size_t i = 0; i < num_consts; ++i) consts->push_back(in.i32());
  }

  auto read_digest_table = [&in, &store]() {
    std::vector<std::vector<Digest128>> table;
    const std::size_t rows = in.length(4);
    PSV_REQUIRE_AS(ErrorCode::kProtocol,
                   rows == static_cast<std::size_t>(store.num_automata),
                   "passed-store digest-table arity mismatch");
    table.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<Digest128> row;
      const std::size_t cols = in.length(16);
      row.reserve(cols);
      for (std::size_t c = 0; c < cols; ++c) row.push_back(read_digest(in));
      table.push_back(std::move(row));
    }
    return table;
  };
  store.edge_digests = read_digest_table();
  store.inv_digests = read_digest_table();

  const std::size_t num_entries = in.length(16);
  store.entries.reserve(num_entries);
  for (std::size_t i = 0; i < num_entries; ++i) {
    StoreEntry entry;
    entry.parent = in.u64();
    PSV_REQUIRE_AS(ErrorCode::kProtocol,
                   i == 0 ? entry.parent == kNoStoreParent : entry.parent < i,
                   "passed-store parent ordinal out of order");
    const std::size_t num_edges = in.length(8);
    entry.edges.reserve(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      EdgeRef ref;
      ref.automaton = in.i32();
      ref.edge_index = in.i32();
      PSV_REQUIRE_AS(ErrorCode::kProtocol,
                     ref.automaton >= 0 && ref.automaton < store.num_automata &&
                         ref.edge_index >= 0,
                     "passed-store edge reference out of range");
      entry.edges.push_back(ref);
    }
    entry.locs.reserve(static_cast<std::size_t>(store.num_automata));
    for (std::int32_t a = 0; a < store.num_automata; ++a) entry.locs.push_back(in.i32());
    entry.vars.reserve(static_cast<std::size_t>(store.num_vars));
    for (std::int32_t v = 0; v < store.num_vars; ++v) entry.vars.push_back(in.i64());
    entry.zone = read_zone(in, store.num_clocks);
    entry.pre_differs = in.boolean();
    if (entry.pre_differs) entry.pre_zone = read_zone(in, store.num_clocks);
    const std::size_t num_covers = in.length(8);
    entry.covers.reserve(num_covers);
    for (std::size_t c = 0; c < num_covers; ++c) {
      const std::uint64_t cover = in.u64();
      PSV_REQUIRE_AS(ErrorCode::kProtocol, cover < num_entries,
                     "passed-store cover ordinal out of range");
      entry.covers.push_back(cover);
    }
    store.entries.push_back(std::move(entry));
  }
  return store;
}

}  // namespace psv::mc
