#include "mc/artifact.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>

#include "ta/fingerprint.h"
#include "util/error.h"

namespace psv::mc {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'V', 'A'};
/// Written with native byte order (the one place memcpy of a host word is
/// intentional): a file produced on a foreign-endian machine shows up as
/// 0xFFFE and is rejected instead of being misread.
constexpr std::uint16_t kEndianMarker = 0xFEFF;

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

}  // namespace

void write_explore_stats(ByteWriter& out, const ExploreStats& s) {
  out.u64(s.states_stored);
  out.u64(s.states_explored);
  out.u64(s.transitions_fired);
  out.u64(s.subsumed);
  // Format v4: warm-start accounting.
  out.u64(s.warm_states_reused);
  out.u64(s.warm_states_revalidated);
  out.u64(s.warm_seed_expansions);
}

ExploreStats read_explore_stats(ByteReader& in) {
  ExploreStats s;
  s.states_stored = static_cast<std::size_t>(in.u64());
  s.states_explored = static_cast<std::size_t>(in.u64());
  s.transitions_fired = static_cast<std::size_t>(in.u64());
  s.subsumed = static_cast<std::size_t>(in.u64());
  s.warm_states_reused = static_cast<std::size_t>(in.u64());
  s.warm_states_revalidated = static_cast<std::size_t>(in.u64());
  s.warm_seed_expansions = static_cast<std::size_t>(in.u64());
  return s;
}

void write_trace(ByteWriter& out, const Trace& trace) {
  out.u64(trace.steps.size());
  for (const TraceStep& step : trace.steps) {
    out.str(step.label);
    out.str(step.state);
  }
}

Trace read_trace(ByteReader& in) {
  Trace trace;
  const std::size_t n = in.length(/*min_element_size=*/16);  // two length-prefixed strings
  trace.steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceStep step;
    step.label = in.str();
    step.state = in.str();
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

namespace {

void write_max_clock_result(ByteWriter& out, const MaxClockResult& r) {
  out.boolean(r.bounded);
  out.i64(r.bound);
  out.boolean(r.condition_unreachable);
  out.i32(r.probes);
  write_explore_stats(out, r.stats);
  write_trace(out, r.witness);
  // Format v3: ranked top-K witnesses + witness extrapolation constants.
  out.u64(r.ranked.size());
  for (const RankedWitness& w : r.ranked) {
    out.i64(w.value);
    write_trace(out, w.trace);
  }
  out.u64(r.witness_consts.size());
  for (const std::int32_t c : r.witness_consts) out.i32(c);
}

MaxClockResult read_max_clock_result(ByteReader& in) {
  MaxClockResult r;
  r.bounded = in.boolean();
  r.bound = in.i64();
  r.condition_unreachable = in.boolean();
  r.probes = in.i32();
  r.stats = read_explore_stats(in);
  r.witness = read_trace(in);
  const std::size_t ranked = in.length(/*min_element_size=*/8 + 8);  // value + trace length
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, ranked <= static_cast<std::size_t>(kMaxTopK),
              "corrupt artifact: ranked-witness count " + std::to_string(ranked));
  r.ranked.reserve(ranked);
  for (std::size_t i = 0; i < ranked; ++i) {
    RankedWitness w;
    w.value = in.i64();
    w.trace = read_trace(in);
    r.ranked.push_back(std::move(w));
  }
  const std::size_t consts = in.length(/*min_element_size=*/4);
  r.witness_consts.reserve(consts);
  for (std::size_t i = 0; i < consts; ++i) r.witness_consts.push_back(in.i32());
  return r;
}

}  // namespace

ArtifactKey artifact_key(const Digest128& network, const ExploreOptions& opts) {
  Hasher128 h;
  h.str("psv-artifact-key");
  h.u32(kArtifactFormatVersion);
  h.u64(network.hi).u64(network.lo);
  // Only the knob that can change results: the state cap can turn a run
  // into an error. jobs is excluded — exploration is deterministic across
  // thread counts by construction.
  h.u64(opts.max_states);
  return ArtifactKey{h.digest()};
}

namespace {

/// State-formula encoding shared by every query digest.
void encode_state_formula(ByteWriter& enc, const StateFormula& f) {
  // Location requirements are a conjunction: sort their encodings.
  std::vector<std::vector<std::uint8_t>> locs;
  locs.reserve(f.locs.size());
  for (const StateFormula::LocRequirement& lr : f.locs) {
    ByteWriter w;
    w.i32(lr.automaton);
    w.i32(lr.loc);
    w.boolean(lr.negated);
    locs.push_back(w.take());
  }
  std::sort(locs.begin(), locs.end());
  enc.u64(locs.size());
  for (const auto& l : locs) enc.raw(l.data(), l.size());

  ta::encode_bool_expr(enc, f.data);

  std::vector<std::vector<std::uint8_t>> ccs;
  ccs.reserve(f.clocks.size());
  for (const ta::ClockConstraint& cc : f.clocks) {
    ByteWriter w;
    ta::encode_clock_constraint(w, cc);
    ccs.push_back(w.take());
  }
  std::sort(ccs.begin(), ccs.end());
  enc.u64(ccs.size());
  for (const auto& c : ccs) enc.raw(c.data(), c.size());
}

}  // namespace

Digest128 bound_query_digest(const BoundQuery& query) {
  ByteWriter enc;
  enc.str("psv-bound-query");
  encode_state_formula(enc, query.pred);
  enc.i32(query.clock);
  enc.i64(query.limit);
  // The clamped retention depth is part of the result payload's identity;
  // query.hint deliberately not encoded (see header).
  enc.i32(std::clamp(query.top_k, 0, kMaxTopK));
  return digest128(enc.buffer().data(), enc.size());
}

std::vector<std::uint8_t> VerificationArtifact::serialize() const {
  ByteWriter out;
  out.u64(bounds.size());
  for (const BoundEntry& entry : bounds) {
    write_digest(out, entry.query);
    write_max_clock_result(out, entry.result);
  }
  out.boolean(has_flag_sweep);
  if (has_flag_sweep) {
    out.u64(var_seen_one.size());
    for (const std::uint8_t seen : var_seen_one) out.u8(seen);
    ByteWriter dl;
    dl.boolean(deadlock.found);
    dl.boolean(deadlock.timelock);
    write_trace(dl, deadlock.trace);
    write_explore_stats(dl, deadlock.stats);
    out.raw(dl.buffer().data(), dl.size());
  }
  // Format v4: skeleton digest, exported passed store.
  write_digest(out, skeleton);
  out.boolean(store.has_value());
  if (store.has_value()) write_passed_store(out, *store);
  return out.take();
}

VerificationArtifact VerificationArtifact::deserialize(ByteReader& in) {
  VerificationArtifact artifact;
  const std::size_t n = in.length(/*min_element_size=*/16 + 8);
  artifact.bounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BoundEntry entry;
    entry.query = read_digest(in);
    entry.result = read_max_clock_result(in);
    artifact.bounds.push_back(std::move(entry));
  }
  artifact.has_flag_sweep = in.boolean();
  if (artifact.has_flag_sweep) {
    const std::size_t vars = in.length(/*min_element_size=*/1);
    artifact.var_seen_one.reserve(vars);
    for (std::size_t i = 0; i < vars; ++i) {
      const std::uint8_t seen = in.u8();
      PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, seen <= 1, "corrupt artifact: flag byte " + std::to_string(seen));
      artifact.var_seen_one.push_back(seen);
    }
    artifact.deadlock.found = in.boolean();
    artifact.deadlock.timelock = in.boolean();
    artifact.deadlock.trace = read_trace(in);
    artifact.deadlock.stats = read_explore_stats(in);
  }
  // Format v4 payload.
  artifact.skeleton = read_digest(in);
  if (in.boolean()) artifact.store = read_passed_store(in);
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, in.at_end(), "corrupt artifact: trailing bytes after payload");
  return artifact;
}

ArtifactStore::ArtifactStore(std::string dir, WarnFn warn)
    : dir_(std::move(dir)), warn_(std::move(warn)) {}

void ArtifactStore::warn(const std::string& message) const {
  if (warn_) {
    warn_(message);
  } else {
    std::cerr << "psv cache: " << message << "\n";
  }
}

std::string ArtifactStore::path_of(const ArtifactKey& key) const {
  return (std::filesystem::path(dir_) / (key.hex() + ".psvart")).string();
}

std::optional<VerificationArtifact> ArtifactStore::load(const ArtifactKey& key) const {
  // magic + version + endian marker + key echo + payload size + checksum.
  constexpr std::size_t kHeaderSize = 4 + 4 + 2 + 16 + 8 + 16;
  const std::string path = path_of(key);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;  // plain miss: nothing cached yet
  try {
    // Validate the fixed-size header before reading anything else, so a
    // large garbage file at the artifact path is rejected after 50 bytes
    // instead of being slurped into memory wholesale.
    std::uint8_t header[kHeaderSize];
    in.read(reinterpret_cast<char*>(header), kHeaderSize);
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, in.gcount() == static_cast<std::streamsize>(kHeaderSize), "truncated header");
    ByteReader reader(header, kHeaderSize);
    char magic[4];
    reader.raw(magic, sizeof magic);
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, std::memcmp(magic, kMagic, sizeof kMagic) == 0, "bad magic");
    const std::uint32_t version = reader.u32();
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, version == kArtifactFormatVersion,
                "format version " + std::to_string(version) + ", expected " +
                    std::to_string(kArtifactFormatVersion));
    std::uint16_t endian = 0;
    reader.raw(&endian, sizeof endian);  // native order on purpose (see kEndianMarker)
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, endian == kEndianMarker, "foreign byte order");
    const Digest128 stored_key = read_digest(reader);
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, stored_key == key.digest, "key mismatch");
    const std::uint64_t payload_size = reader.u64();
    const Digest128 checksum = read_digest(reader);
    // The declared payload size must match the bytes actually on disk, so a
    // corrupted size field can neither over-allocate nor under-read. Sized
    // through the open stream — re-statting the path would race a
    // concurrent writer's rename-publish of a newer artifact.
    in.seekg(0, std::ios::end);
    const std::streampos stream_end = in.tellg();
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, stream_end >= 0 && static_cast<std::uint64_t>(stream_end) ==
                                       kHeaderSize + payload_size,
                "payload size mismatch");
    in.seekg(static_cast<std::streamoff>(kHeaderSize), std::ios::beg);

    std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, in.gcount() == static_cast<std::streamsize>(payload.size()),
                "truncated payload");
    PSV_REQUIRE_AS(::psv::ErrorCode::kIo, digest128(payload.data(), payload.size()) == checksum,
                "payload checksum mismatch");
    ByteReader payload_reader(payload);
    return VerificationArtifact::deserialize(payload_reader);
  } catch (const Error& e) {
    warn("ignoring invalid artifact '" + path + "' (" + e.what() + "); re-exploring");
    return std::nullopt;
  }
}

bool ArtifactStore::store(const ArtifactKey& key, const VerificationArtifact& artifact) const {
  const std::vector<std::uint8_t> payload = artifact.serialize();
  ByteWriter out;
  out.raw(kMagic, sizeof kMagic);
  out.u32(kArtifactFormatVersion);
  out.raw(&kEndianMarker, sizeof kEndianMarker);  // native order on purpose
  write_digest(out, key.digest);
  out.u64(payload.size());
  write_digest(out, digest128(payload.data(), payload.size()));
  out.raw(payload.data(), payload.size());

  std::string tmp;
  auto discard_tmp = [&tmp]() {
    if (tmp.empty()) return;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best effort; never escalate
  };
  try {
    std::filesystem::create_directories(dir_);
    const std::string path = path_of(key);
    // Unique temp name per writer so concurrent stores of the same key
    // cannot interleave into one file; the rename publishes atomically.
    tmp = path + ".tmp." + std::to_string(std::random_device{}());
    {
      std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
      if (!file.good()) {
        warn("cannot write artifact '" + tmp + "'");
        discard_tmp();
        return false;
      }
      file.write(reinterpret_cast<const char*>(out.buffer().data()),
                 static_cast<std::streamsize>(out.size()));
      if (!file.good()) {
        warn("short write on artifact '" + tmp + "'");
        discard_tmp();
        return false;
      }
    }
    std::filesystem::rename(tmp, path);
    return true;
  } catch (const std::filesystem::filesystem_error& e) {
    warn(std::string("cannot persist artifact: ") + e.what());
    discard_tmp();
    return false;
  }
}

}  // namespace psv::mc
