// Stable 128-bit content hashing for cache keys and artifact checksums.
//
// FNV-1a's xor-then-multiply step over 128 bits, folded a whole 8-byte
// little-endian word at a time (one 128-bit multiply per word instead of
// one per byte). Partial words are buffered, so the digest of a byte
// sequence is a pure function of the concatenated bytes — independent of
// how they were split across bytes() calls, of platform, process, pointer
// layout or std::hash salting — and digests computed in one run key
// artifacts that another run (or another machine) looks up. A non-empty
// stream ends with its zero-padded partial word (if any) and its byte
// count, so "a" and "a\0" differ; the empty stream is the FNV-1a offset
// basis. 128 bits keep accidental collisions out of reach for
// content-addressed storage.
//
// Callers feed structured data through the typed appenders (fixed-width
// little-endian integers, length-prefixed strings), which makes the stream
// self-delimiting: "ab" + "c" and "a" + "bc" hash differently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace psv {

/// A 128-bit digest, ordered and hashable so it can key maps and name
/// cache-artifact files (32-char lowercase hex).
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest128& a, const Digest128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Digest128& a, const Digest128& b) { return !(a == b); }
  friend bool operator<(const Digest128& a, const Digest128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  std::string hex() const;
};

/// std::hash-style functor so Digest128 can key unordered containers.
struct Digest128Hash {
  std::size_t operator()(const Digest128& d) const {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Streaming 128-bit word-at-a-time FNV-1a hasher with typed,
/// self-delimiting appenders.
class Hasher128 {
 public:
  Hasher128& bytes(const void* data, std::size_t size);
  Hasher128& u8(std::uint8_t v);
  Hasher128& u32(std::uint32_t v);
  Hasher128& u64(std::uint64_t v);
  Hasher128& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Hasher128& i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  /// Length-prefixed, so consecutive strings cannot alias each other.
  Hasher128& str(std::string_view s);

  Digest128 digest() const;

 private:
  /// One FNV-1a step over a whole word: xor into the low lane, multiply.
  void fold(std::uint64_t word);

  // FNV-1a 128-bit offset basis, split into 64-bit words.
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
  std::uint64_t lo_ = 0x62b821756295c58dull;
  std::uint64_t total_ = 0;  ///< bytes appended so far
  std::uint64_t tail_ = 0;   ///< buffered partial word, little-endian
};

/// One-shot digest of a byte buffer.
Digest128 digest128(const void* data, std::size_t size);

}  // namespace psv
