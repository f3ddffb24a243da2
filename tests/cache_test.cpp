// Persistent verification-artifact cache: round-trips, hardened loading,
// and the warm-vs-cold differential guarantee.
//
// The cache must be invisible to correctness: a warm run serves bounds,
// witness traces, constraint verdicts and even exploration statistics
// bit-identical to the cold run that stored them, while exploring zero
// states. And it must be unbreakable from disk: a truncated, bit-flipped,
// version-bumped or foreign-endian artifact file is ignored with a warning
// and the session falls back to exploration — never a crash, never a wrong
// bound (every single-bit corruption of a stored file is exercised below).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "core/analysis.h"
#include "dbm/dbm.h"
#include "core/pim.h"
#include "core/report_serde.h"
#include "core/service.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/artifact.h"
#include "mc/session.h"
#include "model_paths.h"
#include "sim/replay.h"
#include "util/rng.h"

namespace psv {
namespace {

using namespace psv::ta;
using psv::testing::parse_model_file;
using psv::testing::parse_scheme_file;
using psv::testing::read_model;
using psv::testing::replace_all;

/// Self-cleaning unique temp directory for one test.
struct TempCacheDir {
  std::filesystem::path path;
  TempCacheDir() {
    Rng rng(::testing::UnitTest::GetInstance()->random_seed() + 7919u);
    path = std::filesystem::temp_directory_path() /
           ("psv-cache-test-" + std::to_string(rng.uniform_int(0, 1'000'000'000)));
    std::filesystem::create_directories(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

mc::VerificationArtifact sample_artifact() {
  mc::VerificationArtifact artifact;
  mc::VerificationArtifact::BoundEntry entry;
  entry.query = Digest128{0x1111, 0x2222};
  entry.result.bounded = true;
  entry.result.bound = 490;
  entry.result.probes = 2;
  entry.result.stats = {100, 90, 300, 12};
  entry.result.witness.steps = {{"P.L0->L1[ch!]", "(L1, M0) vars{a=1} zone{x<=5}"},
                                {"Q.M0->M1[ch?]", "(L1, M1) vars{a=1} zone{}"}};
  // v3 payload: the ranked critical traces and the extrapolation constants
  // that replay them. The fuzzing tests below corrupt these bytes too.
  entry.result.ranked.push_back({490, entry.result.witness});
  mc::Trace runner_up;
  runner_up.steps = {{"P.L0->L1[ch!]", "(L1, M0) vars{a=0} zone{x<=3}"}};
  entry.result.ranked.push_back({470, runner_up});
  entry.result.witness_consts = {500, -1, 489};
  artifact.bounds.push_back(entry);
  entry.query = Digest128{0x3333, 0x4444};
  entry.result.bounded = false;
  entry.result.bound = 0;
  entry.result.condition_unreachable = true;
  entry.result.witness.steps.clear();
  entry.result.ranked.clear();
  entry.result.witness_consts.clear();
  artifact.bounds.push_back(entry);
  artifact.has_flag_sweep = true;
  artifact.var_seen_one = {1, 0, 0, 1};
  artifact.deadlock.found = true;
  artifact.deadlock.timelock = false;
  artifact.deadlock.trace.steps = {{"delay", "(L0, M0) vars{} zone{}"}};
  artifact.deadlock.stats = {100, 90, 300, 12};

  // v4 payload: the skeleton digest and a small passed store. The fuzzing
  // tests below corrupt (and truncate inside) these bytes too.
  artifact.skeleton = Digest128{0xbbbb, 0xcccc};

  mc::PassedStoreExport store;
  store.num_clocks = 1;
  store.num_vars = 1;
  store.num_automata = 1;
  store.lower = {0, 30};
  store.upper = {0, 45};
  store.edge_digests = {{Digest128{0x1, 0x2}}};
  store.inv_digests = {{Digest128{0x3, 0x4}}};
  mc::StoreEntry initial;
  initial.locs = {0};
  initial.vars = {7};
  initial.zone = dbm::Dbm(1);
  store.entries.push_back(initial);
  mc::StoreEntry child;
  child.parent = 0;
  child.edges = {{0, 0}};
  child.locs = {1};
  child.vars = {8};
  child.zone = dbm::Dbm(1);
  child.zone.up();
  child.pre_zone = dbm::Dbm(1);
  child.pre_differs = true;
  child.covers = {0};
  store.entries.push_back(child);
  artifact.store = std::move(store);
  return artifact;
}

void expect_artifacts_equal(const mc::VerificationArtifact& a, const mc::VerificationArtifact& b) {
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    EXPECT_EQ(a.bounds[i].query, b.bounds[i].query);
    EXPECT_EQ(a.bounds[i].result.bounded, b.bounds[i].result.bounded);
    EXPECT_EQ(a.bounds[i].result.bound, b.bounds[i].result.bound);
    EXPECT_EQ(a.bounds[i].result.condition_unreachable, b.bounds[i].result.condition_unreachable);
    EXPECT_EQ(a.bounds[i].result.probes, b.bounds[i].result.probes);
    EXPECT_EQ(a.bounds[i].result.stats.states_explored, b.bounds[i].result.stats.states_explored);
    ASSERT_EQ(a.bounds[i].result.witness.steps.size(), b.bounds[i].result.witness.steps.size());
    for (std::size_t s = 0; s < a.bounds[i].result.witness.steps.size(); ++s) {
      EXPECT_EQ(a.bounds[i].result.witness.steps[s].label,
                b.bounds[i].result.witness.steps[s].label);
      EXPECT_EQ(a.bounds[i].result.witness.steps[s].state,
                b.bounds[i].result.witness.steps[s].state);
    }
    ASSERT_EQ(a.bounds[i].result.ranked.size(), b.bounds[i].result.ranked.size());
    for (std::size_t r = 0; r < a.bounds[i].result.ranked.size(); ++r) {
      EXPECT_EQ(a.bounds[i].result.ranked[r].value, b.bounds[i].result.ranked[r].value);
      EXPECT_EQ(a.bounds[i].result.ranked[r].trace.to_string(),
                b.bounds[i].result.ranked[r].trace.to_string());
    }
    EXPECT_EQ(a.bounds[i].result.witness_consts, b.bounds[i].result.witness_consts);
  }
  EXPECT_EQ(a.has_flag_sweep, b.has_flag_sweep);
  EXPECT_EQ(a.var_seen_one, b.var_seen_one);
  EXPECT_EQ(a.deadlock.found, b.deadlock.found);
  EXPECT_EQ(a.deadlock.timelock, b.deadlock.timelock);
  EXPECT_EQ(a.deadlock.stats.states_stored, b.deadlock.stats.states_stored);
  ASSERT_EQ(a.deadlock.trace.steps.size(), b.deadlock.trace.steps.size());

  EXPECT_EQ(a.skeleton, b.skeleton);
  ASSERT_EQ(a.store.has_value(), b.store.has_value());
  if (a.store.has_value()) {
    EXPECT_EQ(a.store->num_clocks, b.store->num_clocks);
    EXPECT_EQ(a.store->num_vars, b.store->num_vars);
    EXPECT_EQ(a.store->num_automata, b.store->num_automata);
    EXPECT_EQ(a.store->lower, b.store->lower);
    EXPECT_EQ(a.store->upper, b.store->upper);
    EXPECT_EQ(a.store->edge_digests, b.store->edge_digests);
    EXPECT_EQ(a.store->inv_digests, b.store->inv_digests);
    ASSERT_EQ(a.store->entries.size(), b.store->entries.size());
    for (std::size_t i = 0; i < a.store->entries.size(); ++i) {
      const mc::StoreEntry& x = a.store->entries[i];
      const mc::StoreEntry& y = b.store->entries[i];
      EXPECT_EQ(x.parent, y.parent);
      ASSERT_EQ(x.edges.size(), y.edges.size());
      for (std::size_t e = 0; e < x.edges.size(); ++e) {
        EXPECT_EQ(x.edges[e].automaton, y.edges[e].automaton);
        EXPECT_EQ(x.edges[e].edge_index, y.edges[e].edge_index);
      }
      EXPECT_EQ(x.locs, y.locs);
      EXPECT_EQ(x.vars, y.vars);
      EXPECT_EQ(x.pre_differs, y.pre_differs);
      EXPECT_EQ(x.covers, y.covers);
      ASSERT_EQ(x.zone.dim(), y.zone.dim());
      for (int r = 0; r < x.zone.dim(); ++r)
        for (int c = 0; c < x.zone.dim(); ++c)
          EXPECT_EQ(x.zone.at(r, c), y.zone.at(r, c)) << "zone[" << r << "][" << c << "]";
      if (x.pre_differs) {
        ASSERT_EQ(x.pre_zone.dim(), y.pre_zone.dim());
        for (int r = 0; r < x.pre_zone.dim(); ++r)
          for (int c = 0; c < x.pre_zone.dim(); ++c) EXPECT_EQ(x.pre_zone.at(r, c), y.pre_zone.at(r, c));
      }
    }
  }
}

/// Persist a whole artifact, its store included, under `key`.
bool store_artifact(const mc::ArtifactStore& store, const mc::ArtifactKey& key,
                    const mc::VerificationArtifact& artifact) {
  return store.store(key, artifact, artifact.store.has_value() ? &*artifact.store : nullptr);
}

TEST(Artifact, PayloadRoundTrip) {
  // Both sections: the memo (everything but the store) and the store.
  const mc::VerificationArtifact original = sample_artifact();
  const std::vector<std::uint8_t> memo = original.serialize();
  ByteReader memo_reader(memo);
  mc::VerificationArtifact restored = mc::VerificationArtifact::deserialize(memo_reader);
  EXPECT_FALSE(restored.store.has_value()) << "the store travels in its own section";
  ByteWriter store;
  mc::write_passed_store(store, *original.store);
  ByteReader store_reader(store.buffer());
  restored.store = mc::read_passed_store(store_reader);
  EXPECT_TRUE(store_reader.at_end());
  expect_artifacts_equal(original, restored);
}

TEST(Artifact, StoreLoadRoundTrip) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0xabcd, 0xef01}};
  EXPECT_FALSE(store.load(key).has_value()) << "missing file is a silent miss";
  EXPECT_EQ(warnings, 0);

  const mc::VerificationArtifact original = sample_artifact();
  ASSERT_TRUE(store_artifact(store, key, original));
  const auto restored = store.load(key);
  ASSERT_TRUE(restored.has_value());
  expect_artifacts_equal(original, *restored);
  EXPECT_EQ(warnings, 0);
}

// --- Hardened loading: every corruption is a warned miss, never a crash ----

std::vector<std::uint8_t> stored_file_bytes(const mc::ArtifactStore& store,
                                            const mc::ArtifactKey& key) {
  std::ifstream in(store.path_of(key), std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the memo-section size in an artifact header: magic, version,
/// endian marker and key echo precede it; the memo's checksum, the store's
/// size and checksum follow, then the memo and the store sections.
constexpr std::size_t kMemoSizeOffset = 4 + 4 + 2 + 16;
constexpr std::size_t kArtifactHeaderSize = kMemoSizeOffset + 2 * (8 + 16);

std::uint64_t memo_section_size(const std::vector<std::uint8_t>& file) {
  ByteReader in(file.data() + kMemoSizeOffset, 8);
  return in.u64();
}

TEST(ArtifactHardening, EverySingleBitFlipIsRejected) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0x5151, 0x2323}};
  ASSERT_TRUE(store_artifact(store, key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);
  ASSERT_LT(kArtifactHeaderSize + memo_section_size(pristine), pristine.size())
      << "the flips must cover a memo and a store section";

  std::vector<std::uint8_t> fuzzed = pristine;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      fuzzed[byte] = pristine[byte] ^ static_cast<std::uint8_t>(1u << bit);
      write_file_bytes(store.path_of(key), fuzzed);
      EXPECT_FALSE(store.load(key).has_value())
          << "bit " << bit << " of byte " << byte << " flipped but the artifact loaded";
      fuzzed[byte] = pristine[byte];
    }
  }
  EXPECT_GT(warnings, 0) << "corrupt files must warn";

  write_file_bytes(store.path_of(key), pristine);
  EXPECT_TRUE(store.load(key).has_value()) << "restored pristine bytes must load again";
}

// A memo load reads the header and the memo only: every flip it can see
// is a warned miss, and every flip it cannot see (in the store section or
// the store's checksum field) makes the store warn and decode to nothing —
// a corrupt byte is never served.
TEST(ArtifactHardening, MemoLoadNeverServesAFlippedByte) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0x6161, 0x4343}};
  ASSERT_TRUE(store_artifact(store, key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);
  const std::size_t store_start = kArtifactHeaderSize + memo_section_size(pristine);
  ASSERT_LT(store_start, pristine.size()) << "the sample carries a store section";

  std::vector<std::uint8_t> fuzzed = pristine;
  std::size_t deferred = 0;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      fuzzed[byte] = pristine[byte] ^ static_cast<std::uint8_t>(1u << bit);
      write_file_bytes(store.path_of(key), fuzzed);
      const int before = warnings;
      std::optional<mc::ArtifactStore::Memo> memo = store.load_memo(key);
      if (byte >= kArtifactHeaderSize && byte < store_start) {
        EXPECT_FALSE(memo.has_value()) << "memo byte " << byte << " bit " << bit << " loaded";
      }
      if (memo.has_value()) {
        ++deferred;
        EXPECT_EQ(warnings, before) << "a memo hit must not warn";
        ASSERT_NE(memo->store, nullptr);
        EXPECT_EQ(memo->store->get(), nullptr) << "byte " << byte << " bit " << bit;
        EXPECT_FALSE(memo->store->available());
        EXPECT_EQ(memo->store->get(), nullptr);
      }
      EXPECT_EQ(warnings, before + 1) << "byte " << byte << " bit " << bit << " warned "
                                      << warnings - before << " times";
      fuzzed[byte] = pristine[byte];
    }
  }
  EXPECT_GE(deferred, 8 * (pristine.size() - store_start)) << "store flips wait for the store";

  write_file_bytes(store.path_of(key), pristine);
  std::optional<mc::ArtifactStore::Memo> memo = store.load_memo(key);
  ASSERT_TRUE(memo.has_value());
  ASSERT_NE(memo->store, nullptr);
  ASSERT_NE(memo->store->get(), nullptr);
  mc::VerificationArtifact restored = memo->artifact;
  restored.store = *memo->store->get();
  expect_artifacts_equal(sample_artifact(), restored);
}

TEST(ArtifactHardening, EveryTruncationIsRejected) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0x7777, 0x8888}};
  ASSERT_TRUE(store_artifact(store, key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);

  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    write_file_bytes(store.path_of(key),
                     std::vector<std::uint8_t>(pristine.begin(),
                                               pristine.begin() + static_cast<long>(cut)));
    EXPECT_FALSE(store.load(key).has_value()) << "prefix of " << cut << " bytes loaded";
  }
  // Trailing garbage is rejected too (payload size no longer matches).
  std::vector<std::uint8_t> padded = pristine;
  padded.push_back(0);
  write_file_bytes(store.path_of(key), padded);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_GT(warnings, 0);
}

TEST(ArtifactHardening, VersionAndEndiannessMismatchesAreRejected) {
  TempCacheDir dir;
  std::vector<std::string> warnings;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string& w) { warnings.push_back(w); });
  const mc::ArtifactKey key{Digest128{0x9999, 0xaaaa}};
  ASSERT_TRUE(store_artifact(store, key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);

  // Format version lives right after the 4-byte magic, little-endian.
  std::vector<std::uint8_t> bumped = pristine;
  bumped[4] = static_cast<std::uint8_t>(mc::kArtifactFormatVersion + 1);
  write_file_bytes(store.path_of(key), bumped);
  EXPECT_FALSE(store.load(key).has_value());

  // A stale file of the previous version (v8: it still carries the
  // reachability memo) is rejected the same way: a warned miss that makes
  // the session re-explore and overwrite it with the current format.
  std::vector<std::uint8_t> stale = pristine;
  stale[4] = static_cast<std::uint8_t>(mc::kArtifactFormatVersion - 1);
  write_file_bytes(store.path_of(key), stale);
  EXPECT_FALSE(store.load(key).has_value());

  // The endianness marker follows the version; a byte swap simulates a file
  // written by a foreign-endian machine.
  std::vector<std::uint8_t> foreign = pristine;
  std::swap(foreign[8], foreign[9]);
  write_file_bytes(store.path_of(key), foreign);
  EXPECT_FALSE(store.load(key).has_value());

  ASSERT_EQ(warnings.size(), 3u);
  EXPECT_NE(warnings[0].find("version"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[1].find("version"), std::string::npos) << warnings[1];
  EXPECT_NE(warnings[2].find("byte order"), std::string::npos) << warnings[2];
}

// --- Session-level persistence ---------------------------------------------

/// Small two-automaton request/response network with an exact bound of 30.
Network tiny_net() {
  Network net("tiny");
  const ClockId t = net.add_clock("t");
  const ChanId req = net.add_channel("req", ChanKind::kBinary);
  const ChanId resp = net.add_channel("resp", ChanKind::kBinary);
  Automaton env("ENV");
  const LocId idle = env.add_location("Idle");
  const LocId await = env.add_location("Await");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req);
  send.update.resets = {{t, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp);
  env.add_edge(recv);
  net.add_automaton(std::move(env));
  Automaton m("M");
  const ClockId x = net.add_clock("x");
  const LocId midle = m.add_location("Idle");
  const LocId work = m.add_location("Work", LocKind::kNormal, {cc_le(x, 30)});
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req);
  take.update.resets = {{x, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x, 1)};
  give.sync = SyncLabel::send(resp);
  m.add_edge(give);
  net.add_automaton(std::move(m));
  return net;
}

mc::BoundQuery tiny_query(const Network& net) {
  mc::BoundQuery q;
  q.pred = mc::at(net, "ENV", "Await");
  q.clock = *net.clock_by_name("t");
  q.limit = 10'000;
  return q;
}

TEST(SessionPersistence, WarmSessionAnswersWithoutExploration) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();

  mc::VerificationSession cold(net, {});
  EXPECT_FALSE(cold.load(store)) << "first run must miss";
  const mc::MaxClockResult cold_result = cold.max_clock_value(tiny_query(net));
  const mc::VerificationSession::FlagReport cold_flags = cold.check_flags({});
  ASSERT_TRUE(cold_result.bounded);
  EXPECT_EQ(cold_result.bound, 30);
  EXPECT_GT(cold.stats().explorations, 0);
  ASSERT_TRUE(cold.store(store));

  mc::VerificationSession warm(net, {});
  EXPECT_TRUE(warm.load(store));
  EXPECT_TRUE(warm.warm_loaded());
  EXPECT_EQ(warm.stats().entries_loaded, 2) << "one bound entry + the flag sweep";
  const mc::MaxClockResult warm_result = warm.max_clock_value(tiny_query(net));
  const mc::VerificationSession::FlagReport warm_flags = warm.check_flags({});
  EXPECT_EQ(warm.stats().explorations, 0) << "warm session must not explore";
  EXPECT_EQ(warm.stats().explore.states_explored, 0u);

  // Bit-identical service: bounds, traces, and even stats match the cold run.
  EXPECT_EQ(warm_result.bounded, cold_result.bounded);
  EXPECT_EQ(warm_result.bound, cold_result.bound);
  EXPECT_EQ(warm_result.probes, cold_result.probes);
  EXPECT_EQ(warm_result.stats.states_explored, cold_result.stats.states_explored);
  EXPECT_EQ(warm_result.witness.to_string(), cold_result.witness.to_string());
  EXPECT_EQ(warm_flags.deadlock.found, cold_flags.deadlock.found);
  EXPECT_EQ(warm_flags.deadlock.stats.states_stored, cold_flags.deadlock.stats.states_stored);

  // Nothing fresh: store() must skip the write.
  EXPECT_FALSE(warm.store(store));
}

// Warm slack surface: a loaded v3 artifact serves ranked critical traces
// and byte-identical slack reports with ZERO exploration, and a different
// retention depth is a distinct query (its payload differs, so it must not
// share the memo entry).
TEST(SessionPersistence, WarmSlackQueriesServeRankedTracesWithoutExploration) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();
  mc::BoundQuery query = tiny_query(net);
  query.top_k = 3;
  const std::vector<core::TimingRequirement> reqs = {{"R", "req", "resp", 40}};

  mc::VerificationSession cold(net, {});
  const mc::MaxClockResult cold_result = cold.max_clock_value(query);
  ASSERT_TRUE(cold_result.bounded);
  ASSERT_FALSE(cold_result.ranked.empty());
  const core::SlackReport cold_slack = core::compute_slack_report(reqs, {cold_result}, 10'000);
  ASSERT_TRUE(cold.store(store));

  mc::VerificationSession warm(net, {});
  ASSERT_TRUE(warm.load(store));
  const std::vector<mc::RankedWitness> warm_traces = warm.max_clock_value(query).ranked;
  const mc::MaxClockResult warm_result = warm.max_clock_value(query);
  EXPECT_EQ(warm.stats().explorations, 0) << "warm slack queries must not explore";
  EXPECT_EQ(warm.stats().explore.states_explored, 0u);

  // Byte-identical ranked payload and slack report.
  ASSERT_EQ(warm_traces.size(), cold_result.ranked.size());
  for (std::size_t i = 0; i < warm_traces.size(); ++i) {
    EXPECT_EQ(warm_traces[i].value, cold_result.ranked[i].value);
    EXPECT_EQ(warm_traces[i].trace.to_string(), cold_result.ranked[i].trace.to_string());
  }
  EXPECT_EQ(warm_result.witness_consts, cold_result.witness_consts);
  const core::SlackReport warm_slack = core::compute_slack_report(reqs, {warm_result}, 10'000);
  EXPECT_EQ(warm_slack.to_string(3), cold_slack.to_string(3));
  EXPECT_EQ(warm_slack.min_slack_ms, 40 - cold_result.bound);

  // A different top_k is a different query: the memo must not serve the
  // 3-deep payload for it, so fresh exploration happens.
  mc::BoundQuery shallow = query;
  shallow.top_k = 1;
  const mc::MaxClockResult shallow_result = warm.max_clock_value(shallow);
  EXPECT_GT(warm.stats().explorations, 0) << "different retention depth must re-explore";
  EXPECT_EQ(shallow_result.bound, cold_result.bound);
  EXPECT_EQ(shallow_result.ranked.size(), 1u);
}

TEST(SessionPersistence, RenameAndDeclReorderMissWithEqualBounds) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();
  mc::VerificationSession cold(net, {});
  const mc::MaxClockResult cold_result = cold.max_clock_value(tiny_query(net));
  ASSERT_TRUE(cold.store(store));

  // The "edited" model: same semantics, new names. (tiny_net declares t
  // before x; here the declarations are reordered too.) Stored traces name
  // the old declarations, so the artifact key (the exact network digest)
  // must miss.
  Network edited("tiny-rewritten");
  const ClockId x2 = edited.add_clock("worker_clock");
  const ClockId t2 = edited.add_clock("probe_clock");
  const ChanId resp2 = edited.add_channel("response", ChanKind::kBinary);
  const ChanId req2 = edited.add_channel("request", ChanKind::kBinary);
  Automaton env("Environment");
  const LocId idle = env.add_location("Quiet");
  const LocId await = env.add_location("Waiting");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req2);
  send.update.resets = {{t2, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp2);
  env.add_edge(recv);
  edited.add_automaton(std::move(env));
  Automaton m("Machine");
  const LocId midle = m.add_location("Rest");
  const LocId work = m.add_location("Busy", LocKind::kNormal, {cc_le(x2, 30)});
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req2);
  take.update.resets = {{x2, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x2, 1)};
  give.sync = SyncLabel::send(resp2);
  m.add_edge(give);
  edited.add_automaton(std::move(m));

  mc::VerificationSession warm(edited, {});
  EXPECT_FALSE(warm.load(store)) << "a rename/reorder edit must not serve the old names";
  mc::BoundQuery q;
  q.pred = mc::at(edited, "Environment", "Waiting");
  q.clock = t2;
  q.limit = 10'000;
  const mc::MaxClockResult warm_result = warm.max_clock_value(q);
  EXPECT_GT(warm.stats().explorations, 0);
  EXPECT_EQ(warm_result.bound, cold_result.bound);
}

TEST(SessionPersistence, CorruptMemoSectionFallsBackToExploration) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const Network net = tiny_net();
  {
    mc::VerificationSession cold(net, {});
    cold.max_clock_value(tiny_query(net));
    ASSERT_TRUE(cold.store(store));
  }
  // Corrupt the stored file in the middle of the memo section.
  mc::VerificationSession probe_session(net, {});
  const std::string path = store.path_of(probe_session.cache_key());
  std::vector<std::uint8_t> bytes = stored_file_bytes(store, probe_session.cache_key());
  ASSERT_GT(bytes.size(), kArtifactHeaderSize);
  bytes[kArtifactHeaderSize + memo_section_size(bytes) / 2] ^= 0x10;
  write_file_bytes(path, bytes);

  EXPECT_FALSE(probe_session.load(store));
  EXPECT_EQ(warnings, 1);
  const mc::MaxClockResult result = probe_session.max_clock_value(tiny_query(net));
  ASSERT_TRUE(result.bounded);
  EXPECT_EQ(result.bound, 30);
  EXPECT_GT(probe_session.stats().explorations, 0) << "must have re-explored";
}

// A flip in the store section is invisible to a memo hit: the memo answers
// without exploring and without a warning, and only asking for the store
// reads the section, warns once and yields nothing.
TEST(SessionPersistence, CorruptStoreSectionServesTheMemo) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const Network net = tiny_net();
  mc::MaxClockResult cold_result;
  {
    mc::VerificationSession cold(net, {});
    cold_result = cold.max_clock_value(tiny_query(net));
    cold.check_flags({});
    ASSERT_NE(cold.exported_store(), nullptr);
    ASSERT_TRUE(cold.store(store));
  }
  mc::VerificationSession warm(net, {});
  std::vector<std::uint8_t> bytes = stored_file_bytes(store, warm.cache_key());
  ASSERT_GT(bytes.size(), kArtifactHeaderSize + memo_section_size(bytes)) << "no store section";
  bytes[bytes.size() - 3] ^= 0x04;
  write_file_bytes(store.path_of(warm.cache_key()), bytes);

  ASSERT_TRUE(warm.load(store));
  EXPECT_TRUE(warm.has_store()) << "the store is not read before it is asked for";
  const mc::MaxClockResult warm_result = warm.max_clock_value(tiny_query(net));
  warm.check_flags({});
  EXPECT_EQ(warm.stats().explorations, 0);
  EXPECT_EQ(warm_result.bound, cold_result.bound);
  EXPECT_EQ(warm_result.witness.to_string(), cold_result.witness.to_string());
  EXPECT_EQ(warnings, 0) << "a memo hit never reads the store section";

  EXPECT_EQ(warm.exported_store(), nullptr);
  EXPECT_EQ(warnings, 1);
  EXPECT_EQ(warm.exported_store(), nullptr);
  EXPECT_EQ(warnings, 1) << "the store section warns once";
  EXPECT_FALSE(warm.has_store());
}

// --- Pipeline-level warm/cold differential ---------------------------------

std::string summary_without_cache_lines(const std::string& summary) {
  std::istringstream in(summary);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("[cache]", 0) != 0) out << line << "\n";
  return out.str();
}

/// A one-scheme, one-requirement request.
core::VerifyRequest single_request(const Network& pim, const core::PimInfo& info,
                                   const core::ImplementationScheme& scheme,
                                   const core::TimingRequirement& req) {
  core::VerifyRequest request;
  request.pim = pim;
  request.info = info;
  request.schemes = {scheme};
  request.requirements = {req};
  return request;
}

/// The request through a Verifier caching in `dir`. A fresh Verifier per
/// call holds no pooled sessions, so every call after the first is served
/// from disk, like a new process.
core::VerifyReport run_cached(const std::string& dir, const core::VerifyRequest& request) {
  return core::Verifier(core::Verifier::Config{dir}).verify(request);
}

/// Stage-1 then per-scheme stages of the report's first scheme.
std::vector<core::VerifyStageStats> all_stages(const core::VerifyReport& report) {
  std::vector<core::VerifyStageStats> stages = report.pim_stages;
  for (const core::VerifyStageStats& s : report.schemes.at(0).stages) stages.push_back(s);
  return stages;
}

TEST(WarmColdDifferential, QuickstartPipelineIsBitIdenticalWarm) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  const core::VerifyRequest request =
      single_request(pim, info, scheme, {"QREQ", "Req", "Ack", 80});

  TempCacheDir dir;
  const core::VerifyReport cold = run_cached(dir.str(), request);
  const core::VerifyReport warm = run_cached(dir.str(), request);
  const core::SchemeVerification& cold_sv = cold.schemes.at(0);
  const core::SchemeVerification& warm_sv = warm.schemes.at(0);
  const core::RequirementResult& cold_r = cold_sv.requirements.at(0);
  const core::RequirementResult& warm_r = warm_sv.requirements.at(0);

  // Bit-identical bounds, traces (via the rendered report), and verdicts.
  EXPECT_EQ(summary_without_cache_lines(cold.requirement_summary(0, 0)),
            summary_without_cache_lines(warm.requirement_summary(0, 0)));
  EXPECT_EQ(cold_r.bounds.to_string(), warm_r.bounds.to_string());
  EXPECT_EQ(cold_sv.constraints.to_string(), warm_sv.constraints.to_string());
  EXPECT_EQ(cold_r.psm_meets_original, warm_r.psm_meets_original);
  EXPECT_EQ(cold_r.psm_meets_relaxed, warm_r.psm_meets_relaxed);
  EXPECT_EQ(cold_r.pim.max_delay, warm_r.pim.max_delay);

  // The warm run's exploring stages served everything from the cache.
  for (const core::VerifyStageStats& stage : all_stages(warm)) {
    if (stage.name == "transform") continue;
    EXPECT_EQ(stage.explore.states_explored, 0u) << stage.name;
    EXPECT_EQ(stage.explorations, 0) << stage.name;
    EXPECT_STREQ(stage.cache.state(), "warm") << stage.name;
    EXPECT_EQ(stage.cache.misses, 0) << stage.name;
  }
  // And the cold run reported cold stages with stores.
  int cold_stores = 0;
  for (const core::VerifyStageStats& stage : all_stages(cold)) {
    if (stage.name == "transform") continue;
    EXPECT_STREQ(stage.cache.state(), "cold") << stage.name;
    cold_stores += stage.cache.stores;
  }
  EXPECT_GT(cold_stores, 0);

  // A run without a cache dir reports disabled stages and no [cache] lines.
  const core::VerifyReport disabled = core::Verifier().verify(request);
  for (const core::VerifyStageStats& stage : all_stages(disabled))
    EXPECT_STREQ(stage.cache.state(), "disabled") << stage.name;
  const std::string disabled_summary = disabled.requirement_summary(0, 0);
  EXPECT_EQ(disabled_summary.find("[cache]"), std::string::npos);
  EXPECT_EQ(summary_without_cache_lines(cold.requirement_summary(0, 0)), disabled_summary);
}

TEST(WarmColdDifferential, SchemeEditOnlyInvalidatesDownstreamStages) {
  const Network pim = parse_model_file("quickstart.psv");
  const core::PimInfo info = core::analyze_pim(pim);
  core::ImplementationScheme scheme = parse_scheme_file("fast.pss");
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  TempCacheDir dir;
  run_cached(dir.str(), single_request(pim, info, scheme, req));

  // Edit the scheme: the PSM changes, the PIM does not.
  scheme.outputs.begin()->second.delay_max += 1;
  const core::VerifyReport rerun = run_cached(dir.str(), single_request(pim, info, scheme, req));
  int psm_explorations = 0;
  for (const core::VerifyStageStats& stage : all_stages(rerun)) {
    if (stage.name == "pim-verification") {
      EXPECT_STREQ(stage.cache.state(), "warm") << "PIM stage must survive a scheme edit";
      EXPECT_EQ(stage.explore.states_explored, 0u);
    } else if (stage.name == "constraints" || stage.name == "bounds") {
      EXPECT_STREQ(stage.cache.state(), "cold") << stage.name << " must re-verify";
      psm_explorations += stage.explorations;
    }
  }
  // The batch planner answers constraints AND bounds from one combined
  // sweep (attributed to the constraints stage), so the re-verification
  // shows up as fresh exploration across the two stages together.
  EXPECT_GT(psm_explorations, 0) << "scheme edit must re-explore the PSM";
}

// Regression: the pim-verification stage reports every warm-start counter
// of its session, not just the cold-run ones. A constant-only PIM edit keeps
// the skeleton, so the edited PIM warm-starts from the stored one and
// re-validates the states whose zones the new constants touch.
TEST(WarmColdDifferential, PimStageReportsWarmStartCounters) {
  const std::string model = read_model("quickstart.psv");
  const std::string edited_model =
      replace_all(replace_all(model, "x <= 80", "x <= 85"), "x >= 30", "x >= 35");
  ASSERT_NE(edited_model, model);
  auto request_for = [](const std::string& model_text) {
    core::SourceRequest source;
    source.model_source = model_text;
    source.scheme_sources = {read_model("fast.pss")};
    source.requirements = {{"QREQ", "Req", "Ack", 80}};
    return core::to_verify_request(source);
  };

  TempCacheDir dir;
  core::Verifier(core::Verifier::Config{dir.str()}).verify(request_for(model));
  const core::VerifyReport report =
      core::Verifier(core::Verifier::Config{dir.str()}).verify(request_for(edited_model));
  ASSERT_EQ(report.pim_stages.size(), 1u);
  const core::VerifyStageStats& pim = report.pim_stages.front();
  EXPECT_EQ(pim.name, "pim-verification");
  EXPECT_GT(pim.explore.warm_states_revalidated, 0u)
      << "the edited PIM must warm-start and re-validate states";
  EXPECT_GT(pim.explore.warm_seed_expansions, 0u);
}

core::VerifyRequest quickstart_request(const std::string& model_text,
                                       const std::string& scheme_text) {
  core::SourceRequest source;
  source.model_source = model_text;
  source.scheme_sources = {scheme_text};
  source.requirements = {{"QREQ", "Req", "Ack", 80}};
  return core::to_verify_request(source);
}

/// Inode of every `.psvanc` pointer in `dir`, by file name: a rewrite goes
/// through a temp file and a rename, so it always shows up as a new inode.
std::map<std::string, ino_t> pointer_inodes(const std::filesystem::path& dir) {
  std::map<std::string, ino_t> inodes;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".psvanc") continue;
    struct stat st {};
    EXPECT_EQ(::stat(file.path().c_str(), &st), 0) << file.path();
    inodes[file.path().filename().string()] = st.st_ino;
  }
  return inodes;
}

// Every stage publishes its store as its skeleton's ancestor, but a
// pointer that already names the stage's artifact is left alone: a warm
// repeat rewrites no pointer, and an edit rewrites only its own stage's.
TEST(WarmColdDifferential, PublishRewritesOnlyChangedAncestorPointers) {
  const std::string model = read_model("quickstart.psv");
  const std::string scheme = read_model("fast.pss");
  std::string edited_scheme = scheme;
  const std::size_t ack_delay = edited_scheme.find("delay 1 3", edited_scheme.find("output Ack"));
  ASSERT_NE(ack_delay, std::string::npos);
  edited_scheme.replace(ack_delay, 9, "delay 1 4");

  TempCacheDir dir;
  run_cached(dir.str(), quickstart_request(model, scheme));
  const std::map<std::string, ino_t> cold = pointer_inodes(dir.path);
  ASSERT_EQ(cold.size(), 2u) << "one pointer per skeleton: the PIM's and the PSM's";

  run_cached(dir.str(), quickstart_request(model, scheme));
  EXPECT_EQ(pointer_inodes(dir.path), cold) << "a warm repeat must not rewrite a pointer";

  run_cached(dir.str(), quickstart_request(model, edited_scheme));
  const std::map<std::string, ino_t> edited = pointer_inodes(dir.path);
  ASSERT_EQ(edited.size(), 2u);
  int rewritten = 0;
  for (const auto& [name, inode] : edited) rewritten += cold.at(name) != inode ? 1 : 0;
  EXPECT_EQ(rewritten, 1) << "the edited PSM's pointer, and only that one, names a new key";
}

// The warm repeat after a store-section flip is a memo hit that never reads
// the store: no warning, no exploration, the cold run's report. A
// skeleton-equal edit then finds the flipped store through the ancestor
// pointer, rejects it (one warning) and answers cold, exactly like a run
// without a cache.
TEST(WarmColdDifferential, CorruptStoreSectionWarmRepeatAndColdEdit) {
  const std::string model = read_model("quickstart.psv");
  const std::string scheme = read_model("fast.pss");
  // Raise the Ack output delay ceiling (the "delay 1 3" after output Ack).
  std::string edited_scheme = scheme;
  const std::size_t ack_delay = edited_scheme.find("delay 1 3", edited_scheme.find("output Ack"));
  ASSERT_NE(ack_delay, std::string::npos);
  edited_scheme.replace(ack_delay, 9, "delay 1 4");
  const core::VerifyRequest request = quickstart_request(model, scheme);
  const core::VerifyRequest edited = quickstart_request(model, edited_scheme);
  auto psm_reused = [](const core::VerifyReport& report) {
    std::size_t reused = 0;
    for (const core::VerifyStageStats& stage : report.schemes.at(0).stages)
      reused += stage.explore.warm_states_reused + stage.explore.warm_states_revalidated;
    return reused;
  };

  {
    // Control: with an intact cache the edit warm-starts from the stored
    // PSM. (TempCacheDir names are per test, hence the scope.)
    TempCacheDir intact;
    run_cached(intact.str(), request);
    ASSERT_GT(psm_reused(run_cached(intact.str(), edited)), 0u);
  }

  TempCacheDir dir;
  const core::VerifyReport cold = run_cached(dir.str(), request);
  int flipped = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir.path)) {
    if (file.path().extension() != ".psvart") continue;
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(file.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), kArtifactHeaderSize + memo_section_size(bytes)) << file.path();
    bytes.back() ^= 0x01;
    write_file_bytes(file.path().string(), bytes);
    ++flipped;
  }
  ASSERT_EQ(flipped, 2) << "the PIM and the PSM artifact";

  ::testing::internal::CaptureStderr();
  const core::VerifyReport warm = run_cached(dir.str(), request);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  for (const core::VerifyStageStats& stage : all_stages(warm)) {
    if (stage.name == "transform") continue;
    EXPECT_EQ(stage.explorations, 0) << stage.name;
    EXPECT_STREQ(stage.cache.state(), "warm") << stage.name;
  }
  EXPECT_EQ(summary_without_cache_lines(warm.requirement_summary(0, 0)),
            summary_without_cache_lines(cold.requirement_summary(0, 0)));

  ::testing::internal::CaptureStderr();
  const core::VerifyReport edit = run_cached(dir.str(), edited);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("store section"), std::string::npos)
      << "the edit's ancestor lookup must reject the flipped store";
  EXPECT_EQ(psm_reused(edit), 0u) << "no warm start from a flipped store";
  const core::VerifyReport no_cache = core::Verifier().verify(edited);
  EXPECT_EQ(summary_without_cache_lines(edit.requirement_summary(0, 0)),
            no_cache.requirement_summary(0, 0));
  EXPECT_EQ(edit.schemes.at(0).constraints.to_string(),
            no_cache.schemes.at(0).constraints.to_string());
}

// Every ranked critical trace of `report` replays against `request`'s PSM
// and never names `stale` (a location of an earlier model).
void expect_critical_traces_replay(const core::VerifyRequest& request,
                                   const core::VerifyReport& report, const std::string& stale) {
  const core::PsmArtifacts psm =
      core::transform(request.pim, *request.info, request.schemes.at(0));
  const core::InstrumentedPsmBatch instrumented =
      core::instrument_psm_for_requirements(psm, request.requirements);
  const core::RequirementSlack& slack = report.schemes.at(0).slack.requirements.at(0);
  ASSERT_FALSE(slack.critical.empty());
  for (std::size_t k = 0; k < slack.critical.size(); ++k) {
    const mc::Trace& trace = slack.critical[k].trace;
    const sim::ReplayResult replay = sim::replay_trace(instrumented.net, trace, slack.witness_consts);
    EXPECT_TRUE(replay.ok) << "critical trace " << k << ": " << replay.error;
    EXPECT_EQ(trace.to_string().find(stale), std::string::npos)
        << "critical trace " << k << " names a location of the ancestor model";
  }
}

std::size_t psm_warm_reused(const core::VerifyReport& report) {
  std::size_t reused = 0;
  for (const core::VerifyStageStats& stage : report.schemes.at(0).stages)
    reused += stage.explore.warm_states_reused;
  return reused;
}

// Regression: under a name-blind key a rename-only edit was a memo hit
// serving traces that named the old locations (and `--monitor-check` could
// not match their labels). The exact network digest sees names: the
// renamed model misses, warm-starts from the original's passed store, and
// renders its traces with the new names.
TEST(WarmColdDifferential, RenameOnlyEditMissesAndRendersNewNames) {
  const std::string model = read_model("quickstart.psv");
  const std::string scheme = read_model("fast.pss");
  const std::string renamed = replace_all(model, "Working", "Busy");
  ASSERT_NE(renamed, model);

  TempCacheDir dir;
  const core::VerifyReport cold =
      core::Verifier(core::Verifier::Config{dir.str()}).verify(quickstart_request(model, scheme));
  const core::VerifyRequest edited = quickstart_request(renamed, scheme);
  const core::VerifyReport report = core::Verifier(core::Verifier::Config{dir.str()}).verify(edited);

  EXPECT_GT(psm_warm_reused(report), 0u) << "the renamed PSM must warm-start, not hit the memo";
  EXPECT_EQ(report.schemes.at(0).slack.to_string(3),
            replace_all(cold.schemes.at(0).slack.to_string(3), "Working", "Busy"));
  expect_critical_traces_replay(edited, report, "Working");
}

// Regression: warm-started traces are rendered from the network that adopts
// the ancestor store, never copied from it. Ancestors are matched by
// skeleton, which masks names, so a model with a renamed location AND a
// re-timed scheme warm-starts from the original's store; every ranked
// critical trace must still replay against the EDITED network and name its
// locations as the edited model does.
TEST(WarmColdDifferential, RenamedAndEditedWarmStartTracesReplay) {
  const std::string model = read_model("quickstart.psv");
  const std::string scheme = read_model("fast.pss");
  const std::string renamed = replace_all(model, "Working", "Busy");
  // Raise the Ack output delay ceiling (the second "delay 1 3"), 3 -> 4.
  std::string edited_scheme = scheme;
  const std::size_t ack_delay = edited_scheme.find("delay 1 3", edited_scheme.find("output Ack"));
  ASSERT_NE(ack_delay, std::string::npos);
  edited_scheme.replace(ack_delay, 9, "delay 1 4");

  TempCacheDir dir;
  core::Verifier(core::Verifier::Config{dir.str()}).verify(quickstart_request(model, scheme));
  const core::VerifyRequest edited = quickstart_request(renamed, edited_scheme);
  const core::VerifyReport report = core::Verifier(core::Verifier::Config{dir.str()}).verify(edited);

  EXPECT_GT(psm_warm_reused(report), 0u) << "the edited PSM must warm-start from the stored one";
  expect_critical_traces_replay(edited, report, "Working");
}

// Regression: the reorder chain, on one Verifier with a cache dir. Under a
// reorder-blind key, the quickstart model with the edges of M and of ENV
// each listed in reverse was a memo hit on the original's artifact and
// published the original's passed store, indexed by the ORIGINAL edge
// order, as the ancestor of its own skeleton. A re-timed scheme on the
// reordered model then adopted that store, replayed the wrong edges and
// reported M-C 168 ms, FAIL, where a cold run proves 61 ms, PASS. Under the
// exact key the reordered model misses and exports its own store.
TEST(WarmColdDifferential, ReorderedEdgesMissAndWarmStartFromTheirOwnStore) {
  const std::string model = read_model("quickstart.psv");
  const std::string scheme = read_model("fast.pss");
  const std::string m_edges =
      "  Idle -> Working on m_Req? do x := 0\n"
      "  Working -> Idle when x >= 30 on c_Ack!\n";
  const std::string env_edges =
      "  Idle -> Await when env_x >= 100 on m_Req! do env_x := 0\n"
      "  Await -> Idle on c_Ack? do env_x := 0\n";
  const std::string reordered = replace_all(
      replace_all(model, m_edges,
                  "  Working -> Idle when x >= 30 on c_Ack!\n"
                  "  Idle -> Working on m_Req? do x := 0\n"),
      env_edges,
      "  Await -> Idle on c_Ack? do env_x := 0\n"
      "  Idle -> Await when env_x >= 100 on m_Req! do env_x := 0\n");
  ASSERT_EQ(reordered.size(), model.size());
  ASSERT_NE(reordered, model);
  // Raise the Ack output delay ceiling (the second "delay 1 3"), 3 -> 5.
  std::string edited_scheme = scheme;
  const std::size_t ack_delay = edited_scheme.find("delay 1 3", edited_scheme.find("output Ack"));
  ASSERT_NE(ack_delay, std::string::npos);
  edited_scheme.replace(ack_delay, 9, "delay 1 5");

  TempCacheDir dir;
  core::Verifier verifier(core::Verifier::Config{dir.str()});
  verifier.verify(quickstart_request(model, scheme));
  const core::VerifyReport job2 = verifier.verify(quickstart_request(reordered, scheme));
  int job2_explorations = 0;
  for (const core::VerifyStageStats& stage : all_stages(job2)) {
    EXPECT_STRNE(stage.cache.state(), "warm") << stage.name;
    job2_explorations += stage.explorations;
  }
  EXPECT_GT(job2_explorations, 0) << "a reordered model must miss the original's artifact";

  const core::VerifyRequest edited = quickstart_request(reordered, edited_scheme);
  const core::VerifyReport job3 = verifier.verify(edited);
  const core::VerifyReport cold = core::Verifier().verify(edited);
  const core::RequirementResult& warm_r = job3.schemes.at(0).requirements.at(0);
  const core::RequirementResult& cold_r = cold.schemes.at(0).requirements.at(0);
  EXPECT_EQ(warm_r.bounds.verified_mc_delay, 61);
  EXPECT_EQ(warm_r.bounds.to_string(), cold_r.bounds.to_string());
  EXPECT_EQ(warm_r.passed, cold_r.passed);
  EXPECT_TRUE(warm_r.passed);
  EXPECT_EQ(summary_without_cache_lines(job3.requirement_summary(0, 0)),
            cold.requirement_summary(0, 0));
  EXPECT_GT(psm_warm_reused(job3), 0u)
      << "the edited model must warm-start from the reordered model's own store";
}

}  // namespace
}  // namespace psv
