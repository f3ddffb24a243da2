// Tests for the shared utility library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace psv {
namespace {

TEST(Hash, EmptyInputIsTheFnvOffsetBasis) {
  // Pins the implementation to the published FNV-1a 128-bit parameters: the
  // digest of zero bytes is the offset basis. Any platform or refactor that
  // changes this silently invalidates every cache key.
  EXPECT_EQ(Hasher128().digest().hex(), "6c62272e07bb014262b821756295c58d");
}

TEST(Hash, KnownByteSequenceIsStable) {
  Hasher128 h;
  h.str("psv").u64(42).u8(7);
  const Digest128 d1 = h.digest();
  Hasher128 again;
  again.str("psv").u64(42).u8(7);
  EXPECT_EQ(d1, again.digest());
  EXPECT_NE(d1, Hasher128().str("psv").u64(42).u8(8).digest());
  EXPECT_EQ(d1.hex().size(), 32u);
}

TEST(Hash, TypedAppendersAreSelfDelimiting) {
  const Digest128 a = Hasher128().str("ab").str("c").digest();
  const Digest128 b = Hasher128().str("a").str("bc").digest();
  EXPECT_NE(a, b);
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

TEST(Hash, DigestIsAFunctionOfTheConcatenatedBytes) {
  // Whole words fold straight from the input and partial words are
  // buffered, so every split of a buffer into bytes() calls — across word
  // boundaries or not — digests the same.
  const std::vector<std::uint8_t> bytes = random_bytes(203, 11);
  const Digest128 whole = digest128(bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    Hasher128 h;
    h.bytes(bytes.data(), cut).bytes(bytes.data() + cut, bytes.size() - cut);
    ASSERT_EQ(h.digest(), whole) << "split at " << cut;
  }
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    Hasher128 h;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(
          bytes.size() - at, static_cast<std::size_t>(rng.uniform_int(0, 19)));
      h.bytes(bytes.data() + at, n);
      at += n;
    }
    ASSERT_EQ(h.digest(), whole) << "trial " << trial;
  }
  // The typed appenders are byte streams too.
  Hasher128 typed;
  typed.u8(1).u32(0x05040302u).u64(0x0d0c0b0a09080706ull);
  const std::uint8_t raw[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  EXPECT_EQ(typed.digest(), digest128(raw, sizeof raw));
  // digest() does not consume the stream: appending after it continues it.
  Hasher128 resumed;
  resumed.bytes(bytes.data(), 13);
  (void)resumed.digest();
  resumed.bytes(bytes.data() + 13, bytes.size() - 13);
  EXPECT_EQ(resumed.digest(), whole);
}

TEST(Hash, EverySingleBitFlipChangesTheDigest) {
  std::vector<std::uint8_t> bytes = random_bytes(4096, 21);
  const Digest128 pristine = digest128(bytes.data(), bytes.size());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_NE(digest128(bytes.data(), bytes.size()), pristine)
          << "bit " << bit << " of byte " << byte;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Hash, TrailingZerosAndLengthsAreDistinguished) {
  // A zero-padded partial word alone would make "a" and "a\0" collide; the
  // byte count folded at the end keeps every length distinct.
  const std::uint8_t zeros[17] = {};
  std::vector<Digest128> seen;
  for (std::size_t n = 0; n <= sizeof zeros; ++n) {
    const Digest128 d = digest128(zeros, n);
    for (const Digest128& other : seen) EXPECT_NE(d, other) << n << " zero bytes";
    seen.push_back(d);
  }
  EXPECT_NE(Hasher128().str("a").digest(), Hasher128().str(std::string("a\0", 2)).digest());
}

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape(std::string("nul\0l", 5)), "nul\\u0000l");
  EXPECT_EQ(json::escape("tab\there"), "tab\\u0009here");
  EXPECT_EQ(json::escape("newline\n"), "newline\\u000a");
}

TEST(Json, WriterNestsObjectsAndArrays) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("name", "pump");
  w.field("count", 3);
  w.field("ratio", 2.5);
  w.field("ok", true);
  w.key("stages");
  w.begin_array();
  w.begin_object();
  w.field("id", std::int64_t{-1});
  w.end_object();
  w.value("tail");
  w.end_array();
  w.key("empty");
  w.begin_array();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"pump\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 2.5,\n"
            "  \"ok\": true,\n"
            "  \"stages\": [\n"
            "    {\n"
            "      \"id\": -1\n"
            "    },\n"
            "    \"tail\"\n"
            "  ],\n"
            "  \"empty\": []\n"
            "}");
}

TEST(Json, CompactModeAndKeyEscaping) {
  std::ostringstream os;
  json::Writer w(os, 0);
  w.begin_object();
  w.field("a\"b", 1);
  w.end_object();
  EXPECT_EQ(os.str(), "{\"a\\\"b\":1}");
}

TEST(Json, WriterRejectsMisuse) {
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), Error) << "object value without a key";
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error) << "key inside an array";
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), Error) << "dangling key";
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), Error) << "mismatched container";
  }
}

TEST(Io, ReadFileRoundTripsAndReportsErrors) {
  const std::string path = ::testing::TempDir() + "psv_io_test.txt";
  util::write_file(path, "line1\nline2");
  EXPECT_EQ(util::read_file(path), "line1\nline2");
  ASSERT_TRUE(util::try_read_file(path).has_value());
  std::remove(path.c_str());

  const std::string missing = ::testing::TempDir() + "psv_io_test_missing.txt";
  EXPECT_FALSE(util::try_read_file(missing).has_value());
  try {
    util::read_file(missing);
    FAIL() << "read_file of a missing path must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << "error must name the offending path: " << e.what();
  }
}

TEST(Serde, RoundTripsEveryFieldKind) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xFEFF);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-17);
  w.boolean(true);
  w.str("hello\0world");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xFEFF);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -17);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), std::string("hello\0world", 5));  // literal ends at NUL
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.u64(7);
  w.str("payload");
  const std::vector<std::uint8_t>& bytes = w.buffer();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader r(bytes.data(), cut);
    EXPECT_THROW(
        {
          r.u64();
          r.str();
        },
        Error)
        << "prefix length " << cut;
  }
}

TEST(Serde, LengthPrefixValidatedAgainstRemainder) {
  ByteWriter w;
  w.u64(1'000'000'000);  // claims a billion 8-byte elements
  ByteReader r(w.buffer());
  EXPECT_THROW(r.length(8), Error);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    PSV_REQUIRE(false, "bad input");
    FAIL() << "expected psv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad input"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(PSV_REQUIRE(1 + 1 == 2, "unreachable"));
}

TEST(Error, AssertThrowsLogicError) {
  EXPECT_THROW(PSV_ASSERT(false, "broken invariant"), std::logic_error);
}

TEST(Stats, SummaryOfKnownSample) {
  Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, SingleObservation) {
  Summary s = summarize({7.5});
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, EmptySummaryThrows) {
  StatsAccumulator acc;
  EXPECT_THROW(acc.summarize(), Error);
}

TEST(Stats, MedianOfEvenSampleInterpolates) {
  Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, PrefixHelpers) {
  EXPECT_TRUE(starts_with("m_BolusReq", "m_"));
  EXPECT_FALSE(starts_with("c_Start", "m_"));
  EXPECT_EQ(replace_prefix("m_BolusReq", "m_", "i_"), "i_BolusReq");
  EXPECT_EQ(replace_prefix("c_Start", "m_", "i_"), "c_Start");
}

TEST(Strings, Padding) {
  EXPECT_EQ(lpad("ab", 4), "  ab");
  EXPECT_EQ(rpad("ab", 4), "ab  ");
  EXPECT_EQ(lpad("abcd", 2), "abcd");
}

TEST(Table, RendersHeaderAndRows) {
  TextTable t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  TextTable t("Demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, HeaderlessTableRenders) {
  TextTable t("NoHeader");
  t.add_row({"a", "bb"});
  t.add_row({"ccc", "d"});
  const std::string out = t.render();
  EXPECT_NE(out.find("ccc"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ms(610.4), "610ms");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, UniformIntStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(Rng, DegenerateRanges) {
  Rng r(1);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
  EXPECT_DOUBLE_EQ(r.uniform_real(2.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.triangular(3.0, 3.0, 3.0), 3.0);
}

TEST(Rng, TriangularStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.triangular(1.0, 2.0, 10.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(Rng, SplitDependsOnParentSeed) {
  // Regression: split() must incorporate the parent's seed, or every
  // scenario in a batch would replay the same platform randomness.
  Rng a = Rng(1).split("platform");
  Rng b = Rng(2).split("platform");
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    any_diff = any_diff || (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30));
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng root(42);
  Rng a = root.split("input-device");
  Rng b = root.split("output-device");
  // Streams should differ (overwhelmingly likely for distinct tags).
  bool any_diff = false;
  Rng a2 = root.split("input-device");
  for (int i = 0; i < 10; ++i) {
    const auto va = a.uniform_int(0, 1 << 30);
    const auto vb = b.uniform_int(0, 1 << 30);
    const auto va2 = a2.uniform_int(0, 1 << 30);
    EXPECT_EQ(va, va2) << "same tag must reproduce the same stream";
    any_diff = any_diff || (va != vb);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BadRangesThrow) {
  Rng r(1);
  EXPECT_THROW(r.uniform_int(3, 2), Error);
  EXPECT_THROW(r.triangular(1.0, 0.5, 2.0), Error);
}

}  // namespace
}  // namespace psv
