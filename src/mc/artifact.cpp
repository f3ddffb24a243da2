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
  write_digest(out, skeleton);
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
  artifact.skeleton = read_digest(in);
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, in.at_end(), "corrupt artifact: trailing bytes after memo");
  return artifact;
}

PassedStoreSource::PassedStoreSource(std::shared_ptr<const PassedStoreExport> store)
    : store_(std::move(store)) {}

PassedStoreSource::PassedStoreSource(Decode decode) : decode_(std::move(decode)) {}

std::shared_ptr<const PassedStoreExport> PassedStoreSource::get() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (decode_) {
    store_ = decode_();
    decode_ = nullptr;
    if (store_ == nullptr) failed_.store(true);
  }
  return store_;
}

namespace {

/// magic + version + endian marker + key echo + (size + checksum) for the
/// memo and the store section.
constexpr std::size_t kHeaderSize = 4 + 4 + 2 + 16 + 2 * (8 + 16);

/// The variable part of an artifact header.
struct Header {
  Digest128 key;
  std::uint64_t memo_size = 0;
  Digest128 memo_checksum;
  std::uint64_t store_size = 0;  ///< 0: the artifact has no passed store
  Digest128 store_checksum;

};

std::vector<std::uint8_t> encode_header(const Header& h) {
  ByteWriter out;
  out.reserve(kHeaderSize);
  out.raw(kMagic, sizeof kMagic);
  out.u32(kArtifactFormatVersion);
  out.raw(&kEndianMarker, sizeof kEndianMarker);  // native order on purpose
  write_digest(out, h.key);
  out.u64(h.memo_size);
  write_digest(out, h.memo_checksum);
  out.u64(h.store_size);
  write_digest(out, h.store_checksum);
  return out.take();
}

/// Read and validate the fixed-size header of an open artifact file before
/// anything else, so a large garbage file at the artifact path is rejected
/// after kHeaderSize bytes instead of being slurped into memory wholesale.
/// Throws psv::Error on any mismatch.
Header read_header(std::ifstream& in, const ArtifactKey& key) {
  std::uint8_t bytes[kHeaderSize];
  in.read(reinterpret_cast<char*>(bytes), kHeaderSize);
  PSV_REQUIRE_AS(ErrorCode::kIo, in.gcount() == static_cast<std::streamsize>(kHeaderSize),
                 "truncated header");
  ByteReader reader(bytes, kHeaderSize);
  char magic[4];
  reader.raw(magic, sizeof magic);
  PSV_REQUIRE_AS(ErrorCode::kIo, std::memcmp(magic, kMagic, sizeof kMagic) == 0, "bad magic");
  const std::uint32_t version = reader.u32();
  PSV_REQUIRE_AS(ErrorCode::kIo, version == kArtifactFormatVersion,
                 "format version " + std::to_string(version) + ", expected " +
                     std::to_string(kArtifactFormatVersion));
  std::uint16_t endian = 0;
  reader.raw(&endian, sizeof endian);  // native order on purpose (see kEndianMarker)
  PSV_REQUIRE_AS(ErrorCode::kIo, endian == kEndianMarker, "foreign byte order");
  Header h;
  h.key = read_digest(reader);
  PSV_REQUIRE_AS(ErrorCode::kIo, h.key == key.digest, "key mismatch");
  h.memo_size = reader.u64();
  h.memo_checksum = read_digest(reader);
  h.store_size = reader.u64();
  h.store_checksum = read_digest(reader);
  PSV_REQUIRE_AS(ErrorCode::kIo, h.store_size != 0 || h.store_checksum == Hasher128().digest(),
                 "store section checksum mismatch");
  // The declared section sizes must add up to the bytes actually on disk,
  // so a corrupted size field can neither over-allocate nor under-read.
  // Sized through the open stream — re-statting the path would race a
  // concurrent writer's rename-publish of a newer artifact.
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  PSV_REQUIRE_AS(ErrorCode::kIo,
                 end >= 0 && h.memo_size <= static_cast<std::uint64_t>(end) &&
                     h.store_size <= static_cast<std::uint64_t>(end) &&
                     static_cast<std::uint64_t>(end) == kHeaderSize + h.memo_size + h.store_size,
                 "section sizes do not match the file size");
  return h;
}

/// Read one section of `size` bytes at `offset` and verify its checksum.
std::vector<std::uint8_t> read_section(std::ifstream& in, std::uint64_t offset, std::uint64_t size,
                                       const Digest128& checksum, const char* name) {
  in.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  PSV_REQUIRE_AS(ErrorCode::kIo, in.gcount() == static_cast<std::streamsize>(bytes.size()),
                 std::string("truncated ") + name + " section");
  PSV_REQUIRE_AS(ErrorCode::kIo, digest128(bytes.data(), bytes.size()) == checksum,
                 std::string(name) + " section checksum mismatch");
  return bytes;
}

VerificationArtifact read_memo_section(std::ifstream& in, const Header& h) {
  const std::vector<std::uint8_t> bytes =
      read_section(in, kHeaderSize, h.memo_size, h.memo_checksum, "memo");
  ByteReader reader(bytes);
  return VerificationArtifact::deserialize(reader);
}

PassedStoreExport read_store_section(std::ifstream& in, const Header& h) {
  const std::vector<std::uint8_t> bytes =
      read_section(in, kHeaderSize + h.memo_size, h.store_size, h.store_checksum, "store");
  ByteReader reader(bytes);
  PassedStoreExport store = read_passed_store(reader);
  PSV_REQUIRE_AS(ErrorCode::kProtocol, reader.at_end(),
                 "corrupt artifact: trailing bytes after the passed store");
  return store;
}

}  // namespace

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
  const std::string path = path_of(key);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;  // plain miss: nothing cached yet
  try {
    const Header header = read_header(in, key);
    VerificationArtifact artifact = read_memo_section(in, header);
    if (header.store_size != 0) artifact.store = read_store_section(in, header);
    return artifact;
  } catch (const Error& e) {
    warn("ignoring invalid artifact '" + path + "' (" + e.what() + "); re-exploring");
    return std::nullopt;
  }
}

std::optional<ArtifactStore::Memo> ArtifactStore::load_memo(const ArtifactKey& key) const {
  const std::string path = path_of(key);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;  // plain miss: nothing cached yet
  try {
    const Header header = read_header(in, key);
    Memo memo{read_memo_section(in, header), nullptr};
    if (header.store_size == 0) return memo;
    // The store section is read on first use, through the header current
    // at that time: a writer may have replaced the file since (same key, so
    // the same network), and any verified store under this key is valid.
    memo.store = std::make_shared<const PassedStoreSource>(
        [store = *this, key, path]() -> std::shared_ptr<const PassedStoreExport> {
          try {
            std::ifstream file(path, std::ios::binary);
            PSV_REQUIRE_AS(ErrorCode::kIo, file.good(), "cannot reopen the artifact");
            const Header current = read_header(file, key);
            PSV_REQUIRE_AS(ErrorCode::kIo, current.store_size != 0, "no store section");
            return std::make_shared<const PassedStoreExport>(read_store_section(file, current));
          } catch (const Error& e) {
            store.warn("ignoring the passed store of invalid artifact '" + path + "' (" +
                       e.what() + "); no warm start from it");
            return nullptr;
          }
        });
    return memo;
  } catch (const Error& e) {
    warn("ignoring invalid artifact '" + path + "' (" + e.what() + "); re-exploring");
    return std::nullopt;
  }
}

bool ArtifactStore::store(const ArtifactKey& key, const VerificationArtifact& memo,
                          const PassedStoreExport* passed) const {
  const std::vector<std::uint8_t> memo_bytes = memo.serialize();
  ByteWriter store_bytes;
  if (passed != nullptr) write_passed_store(store_bytes, *passed);
  Header header;
  header.key = key.digest;
  header.memo_size = memo_bytes.size();
  header.memo_checksum = digest128(memo_bytes.data(), memo_bytes.size());
  header.store_size = store_bytes.size();
  header.store_checksum = digest128(store_bytes.buffer().data(), store_bytes.size());
  const std::vector<std::uint8_t> header_bytes = encode_header(header);

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
      for (const std::vector<std::uint8_t>* section :
           {&header_bytes, &memo_bytes, &store_bytes.buffer()}) {
        file.write(reinterpret_cast<const char*>(section->data()),
                   static_cast<std::streamsize>(section->size()));
      }
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
