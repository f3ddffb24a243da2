#include "util/hash.h"

#include <cstring>

namespace psv {

namespace {

// FNV 128-bit prime 2^88 + 2^8 + 0x3b, split into 64-bit words.
constexpr std::uint64_t kPrimeHi = 0x0000000001000000ull;
constexpr std::uint64_t kPrimeLo = 0x000000000000013bull;

/// 64x64 -> 128 multiply.
inline void mul64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi, std::uint64_t& lo) {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  hi = static_cast<std::uint64_t>(p >> 64);
  lo = static_cast<std::uint64_t>(p);
#else
  const std::uint64_t a_lo = a & 0xffffffffull, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffull, b_hi = b >> 32;
  const std::uint64_t p0 = a_lo * b_lo;
  const std::uint64_t p1 = a_lo * b_hi;
  const std::uint64_t p2 = a_hi * b_lo;
  const std::uint64_t p3 = a_hi * b_hi;
  const std::uint64_t mid = (p0 >> 32) + (p1 & 0xffffffffull) + (p2 & 0xffffffffull);
  lo = (p0 & 0xffffffffull) | (mid << 32);
  hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
#endif
}

/// (hi, lo) *= FNV prime, mod 2^128.
inline void mul_prime(std::uint64_t& hi, std::uint64_t& lo) {
  std::uint64_t prod_hi = 0, prod_lo = 0;
  mul64(lo, kPrimeLo, prod_hi, prod_lo);
  prod_hi += lo * kPrimeHi;  // low word of lo * primeHi lands in the high lane
  prod_hi += hi * kPrimeLo;  // likewise for hi * primeLo
  hi = prod_hi;              // hi * primeHi overflows 2^128 entirely
  lo = prod_lo;
}

/// Little-endian 8-byte load.
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

constexpr char kHexDigits[] = "0123456789abcdef";

void append_hex64(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kHexDigits[(v >> shift) & 0xf]);
}

}  // namespace

std::string Digest128::hex() const {
  std::string out;
  out.reserve(32);
  append_hex64(out, hi);
  append_hex64(out, lo);
  return out;
}

void Hasher128::fold(std::uint64_t word) {
  lo_ ^= word;
  mul_prime(hi_, lo_);
}

Hasher128& Hasher128::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t have = static_cast<std::size_t>(total_ % 8);  // buffered tail bytes
  total_ += size;
  // Top up a buffered partial word first; whole words then fold straight
  // from the input, and what is left over becomes the new tail.
  for (; have != 0 && size != 0; ++p, --size) {
    tail_ |= static_cast<std::uint64_t>(*p) << (8 * have);
    if (++have == 8) {
      fold(tail_);
      tail_ = 0;
      have = 0;
    }
  }
  // The state lives in locals here: the input may alias it as far as the
  // compiler knows, and a store per word would serialize the loop.
  std::uint64_t hi = hi_, lo = lo_;
  for (; size >= 8; p += 8, size -= 8) {
    lo ^= load_le64(p);
    mul_prime(hi, lo);
  }
  hi_ = hi;
  lo_ = lo;
  for (std::size_t i = 0; i < size; ++i) tail_ |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return *this;
}

Hasher128& Hasher128::u8(std::uint8_t v) { return bytes(&v, 1); }

Hasher128& Hasher128::u32(std::uint32_t v) {
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher128& Hasher128::u64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher128& Hasher128::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Digest128 Hasher128::digest() const {
  if (total_ == 0) return {hi_, lo_};
  Hasher128 end = *this;
  if (total_ % 8 != 0) end.fold(tail_);
  end.fold(total_);
  return {end.hi_, end.lo_};
}

Digest128 digest128(const void* data, std::size_t size) {
  Hasher128 h;
  h.bytes(data, size);
  return h.digest();
}

}  // namespace psv
