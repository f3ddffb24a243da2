#include "dbm/dbm.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace psv::dbm {

std::string bound_str(raw_t b) {
  if (is_inf(b)) return "inf";
  std::ostringstream os;
  os << (is_weak(b) ? "<=" : "<") << bound_value(b);
  return os.str();
}

Dbm::Dbm(int num_clocks) : dim_(num_clocks + 1) {
  PSV_REQUIRE(num_clocks >= 0, "negative clock count");
  data_.assign(static_cast<std::size_t>(dim_) * static_cast<std::size_t>(dim_), kLeZero);
}

Dbm Dbm::zero(int num_clocks) { return Dbm(num_clocks); }

Dbm Dbm::universal(int num_clocks) {
  Dbm d(num_clocks);
  for (int i = 0; i < d.dim_; ++i)
    for (int j = 0; j < d.dim_; ++j)
      if (i != j) d.set(i, j, kInf);
  // Clocks are non-negative: x_0 - x_j <= 0.
  for (int j = 1; j < d.dim_; ++j) d.set(0, j, kLeZero);
  for (int i = 0; i < d.dim_; ++i) d.set(i, i, kLeZero);
  return d;
}

void Dbm::canonicalize() {
  // Floyd-Warshall over row pointers. The inner loop is branch-free: dik is
  // finite there, so add(dik, dkj) saturates exactly when dkj does, and the
  // relaxation is a plain min. Unsigned arithmetic keeps out-of-range input
  // (a corrupt artifact) defined; every in-range sum is exact.
  const std::size_t n = static_cast<std::size_t>(dim_);
  raw_t* const d = data_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const raw_t* const rk = d + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      raw_t* const ri = d + i * n;
      const raw_t dik = ri[k];
      if (is_inf(dik)) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const raw_t dkj = rk[j];
        const raw_t sum = static_cast<raw_t>(static_cast<std::uint32_t>(dik) +
                                             static_cast<std::uint32_t>(dkj) -
                                             static_cast<std::uint32_t>((dik | dkj) & 1));
        const raw_t via = dkj >= kInf ? kInf : sum;
        ri[j] = via < ri[j] ? via : ri[j];
      }
    }
  }
  empty_ = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i * n + i] < kLeZero) {
      empty_ = true;
      return;
    }
  }
}

bool Dbm::constrain(int i, int j, raw_t bound) {
  PSV_ASSERT(i >= 0 && i < dim_ && j >= 0 && j < dim_ && i != j, "constrain indices out of range");
  if (empty_) return false;
  // Immediate emptiness test: new bound contradicts the reverse bound.
  if (add(bound, at(j, i)) < kLeZero) {
    empty_ = true;
    return false;
  }
  if (bound < at(i, j)) {
    set(i, j, bound);
    // Incremental closure: only paths through the tightened edge can
    // improve, so relax all pairs via (i, j) once.
    for (int a = 0; a < dim_; ++a) {
      const raw_t dai = at(a, i);
      if (is_inf(dai)) continue;
      const raw_t via_i = add(dai, at(i, j));
      if (via_i < at(a, j)) set(a, j, via_i);
    }
    for (int a = 0; a < dim_; ++a) {
      const raw_t daj = at(a, j);
      if (is_inf(daj)) continue;
      for (int b = 0; b < dim_; ++b) {
        const raw_t via = add(daj, at(j, b));
        if (via < at(a, b)) set(a, b, via);
      }
    }
    for (int a = 0; a < dim_; ++a) {
      if (at(a, a) < kLeZero) {
        empty_ = true;
        return false;
      }
    }
  }
  return true;
}

void Dbm::up() {
  if (empty_) return;
  for (int i = 1; i < dim_; ++i) set(i, 0, kInf);
}

void Dbm::reset(int clock, std::int32_t value) {
  PSV_ASSERT(clock >= 1 && clock < dim_, "reset clock index out of range");
  PSV_REQUIRE(value >= 0, "clocks cannot be reset to negative values");
  if (empty_) return;
  const raw_t vle = bound_le(value);
  const raw_t nvle = bound_le(-value);
  for (int j = 0; j < dim_; ++j) {
    if (j == clock) continue;
    set(clock, j, add(vle, at(0, j)));
    set(j, clock, add(at(j, 0), nvle));
  }
}

void Dbm::free_clock(int clock) {
  PSV_ASSERT(clock >= 1 && clock < dim_, "free clock index out of range");
  if (empty_) return;
  for (int j = 0; j < dim_; ++j) {
    if (j == clock) continue;
    set(clock, j, kInf);
    set(j, clock, at(j, 0));
  }
  set(0, clock, kLeZero);
}

bool Dbm::includes(const Dbm& other) const {
  PSV_ASSERT(dim_ == other.dim_, "zone dimension mismatch");
  for (int i = 0; i < dim_; ++i)
    for (int j = 0; j < dim_; ++j)
      if (other.at(i, j) > at(i, j)) return false;
  return true;
}

Relation relation(const raw_t* a, const raw_t* b, int dim) {
  const std::size_t n = static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim);
  bool subset = true;    // every a entry <= its b entry: a ⊆ b
  bool superset = true;  // every a entry >= its b entry: a ⊇ b
  for (std::size_t k = 0; k < n; ++k) {
    subset = subset && a[k] <= b[k];
    superset = superset && a[k] >= b[k];
    if (!subset && !superset) return Relation::kDifferent;
  }
  return static_cast<Relation>((subset ? 1u : 0u) | (superset ? 2u : 0u));
}

Relation relation(const Dbm& a, const Dbm& b) {
  PSV_ASSERT(a.dim() == b.dim(), "zone dimension mismatch");
  return relation(a.raw(), b.raw(), a.dim());
}

bool Dbm::intersects(int i, int j, raw_t bound) const {
  if (empty_) return false;
  return add(bound, at(j, i)) >= kLeZero;
}

void Dbm::extrapolate_lu(const std::vector<std::int32_t>& lower,
                         const std::vector<std::int32_t>& upper) {
  PSV_ASSERT(static_cast<int>(lower.size()) == dim_ && static_cast<int>(upper.size()) == dim_,
             "LU constant vector arity mismatch");
  PSV_ASSERT(lower[0] == 0 && upper[0] == 0, "reference clock LU constants must be 0");
  if (empty_) return;
  // Row 0 holds the lower bounds every rule reads, so it is rewritten last:
  // the other rows still see the original matrix.
  const std::size_t n = static_cast<std::size_t>(dim_);
  raw_t* const d = data_.data();
  auto exceeds = [d](std::size_t k, std::int32_t c) { return -bound_value(d[k]) > c; };
  bool changed = false;
  for (std::size_t i = n; i-- > 1;) {
    raw_t* const row = d + i * n;
    const bool row_above_l = exceeds(i, lower[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || is_inf(row[j])) continue;
      if (row_above_l || bound_value(row[j]) > lower[i] || exceeds(j, upper[j])) {
        row[j] = kInf;
        changed = true;
      }
    }
  }
  for (std::size_t j = 1; j < n; ++j) {
    if (!exceeds(j, upper[j])) continue;
    d[j] = upper[j] >= 0 ? bound_lt(-upper[j]) : kLeZero;
    changed = true;
  }
  if (changed) canonicalize();
}

bool Dbm::operator==(const Dbm& other) const {
  return dim_ == other.dim_ && empty_ == other.empty_ && data_ == other.data_;
}

std::size_t Dbm::hash() const {
  std::size_t h = 1469598103934665603ull;
  for (raw_t b : data_) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(b));
    h *= 1099511628211ull;
  }
  return h;
}

std::string Dbm::to_string(const std::vector<std::string>& clock_names) const {
  PSV_REQUIRE(static_cast<int>(clock_names.size()) >= dim_ - 1,
              "clock name vector too short for zone dimension");
  if (empty_) return "false";
  std::vector<std::string> parts;
  auto name = [&](int i) { return clock_names[static_cast<std::size_t>(i - 1)]; };
  for (int i = 1; i < dim_; ++i) {
    const raw_t up_b = at(i, 0);
    if (!is_inf(up_b)) parts.push_back(name(i) + bound_str(up_b));
    const raw_t lo_b = at(0, i);
    if (lo_b < kLeZero || bound_value(lo_b) != 0)
      parts.push_back(name(i) + (is_weak(lo_b) ? ">=" : ">") + std::to_string(-bound_value(lo_b)));
  }
  for (int i = 1; i < dim_; ++i) {
    for (int j = 1; j < dim_; ++j) {
      if (i == j) continue;
      const raw_t b = at(i, j);
      if (!is_inf(b)) parts.push_back(name(i) + "-" + name(j) + bound_str(b));
    }
  }
  if (parts.empty()) return "true";
  std::string out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    if (k > 0) out += " && ";
    out += parts[k];
  }
  return out;
}

}  // namespace psv::dbm
