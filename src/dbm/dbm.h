// Difference bound matrices: the symbolic zone representation used by the
// model checker.
//
// A Dbm over n clocks is an (n+1)x(n+1) matrix D where entry (i,j) bounds
// x_i - x_j and index 0 is the constant-zero reference clock. A canonical
// (all-pairs-shortest-path closed) non-empty Dbm uniquely represents a
// convex clock zone. The model checker keeps zones finite in number with
// Extra_LU⁺ extrapolation (extrapolate_lu), under per-clock lower/upper
// comparison constants built by mc::SuccGen.
#pragma once

#include <string>
#include <vector>

#include "dbm/bound.h"

namespace psv::dbm {

/// A clock zone as a difference bound matrix.
///
/// Invariant maintained by all mutating operations except `set`: the matrix
/// is canonical, or `empty()` is true. Callers using raw `set` must call
/// `canonicalize` before relying on any query.
class Dbm {
 public:
  /// Zone over `num_clocks` real clocks (dimension num_clocks + 1).
  /// Initialized to the zone where all clocks equal zero.
  explicit Dbm(int num_clocks);

  /// The zone {all clocks = 0}.
  static Dbm zero(int num_clocks);
  /// The zone {all clocks >= 0} (otherwise unconstrained).
  static Dbm universal(int num_clocks);

  int num_clocks() const { return dim_ - 1; }
  int dim() const { return dim_; }

  raw_t at(int i, int j) const { return data_[static_cast<std::size_t>(i * dim_ + j)]; }
  /// The dim() x dim() entries, row-major. Moving the Dbm keeps the pointer
  /// valid; assigning to it or destroying it does not.
  const raw_t* raw() const { return data_.data(); }
  /// Raw entry write; invalidates canonical form until canonicalize().
  void set(int i, int j, raw_t b) { data_[static_cast<std::size_t>(i * dim_ + j)] = b; }

  /// True iff the zone contains no clock valuation.
  bool empty() const { return empty_; }

  /// Close the matrix (Floyd-Warshall) and detect emptiness.
  void canonicalize();

  /// Intersect with the constraint x_i - x_j <= / < bound. Keeps canonical
  /// form. Returns false iff the result is empty.
  bool constrain(int i, int j, raw_t bound);

  /// Delay closure ("up"): remove all upper bounds, letting time elapse.
  void up();

  /// Reset clock x to the constant `value` (x := value).
  void reset(int clock, std::int32_t value);

  /// Remove all constraints on `clock` except clock >= 0.
  void free_clock(int clock);

  /// True iff `other` is included in this zone (other ⊆ this). Both zones
  /// must be canonical and non-empty.
  bool includes(const Dbm& other) const;

  /// True iff intersecting with x_i - x_j ≺ bound would be non-empty.
  bool intersects(int i, int j, raw_t bound) const;

  /// Extra_LU⁺ extrapolation (Behrmann, Bouyer, Larsen & Pelánek, STTT
  /// 2006). `lower[i]` is the largest constant clock i is compared against
  /// from below (x > c, x >= c), `upper[i]` the largest from above (x < c,
  /// x <= c); index 0 must be 0 in both, and a negative entry means no such
  /// comparison exists. Every rule reads the original matrix:
  ///   D_ij := inf        when D_ij > (<=, L_i) or the lower bound of x_i
  ///                      exceeds L_i;
  ///   D_ij := inf        when the lower bound of x_j exceeds U_j (i != 0);
  ///   D_0j := (<, -U_j)  when the lower bound of x_j exceeds U_j ((<=, 0)
  ///                      when U_j < 0).
  /// Entries whose constants stay within L and U are kept exactly. The
  /// result includes the zone and is simulated by it (LU-simulation), so
  /// location reachability is preserved. Re-canonicalizes.
  void extrapolate_lu(const std::vector<std::int32_t>& lower,
                      const std::vector<std::int32_t>& upper);

  /// Upper bound entry of a clock (D[x][0]); kInf when unbounded above.
  raw_t upper(int clock) const { return at(clock, 0); }
  /// Lower bound entry of a clock (D[0][x] encodes -lower).
  raw_t lower(int clock) const { return at(0, clock); }

  /// Structural equality of canonical forms.
  bool operator==(const Dbm& other) const;

  /// Hash of the canonical matrix contents.
  std::size_t hash() const;

  /// Render constraints, e.g. "x<=5 && y-x<2". `names[i]` labels clock i+1.
  std::string to_string(const std::vector<std::string>& clock_names) const;

 private:
  int dim_;
  bool empty_ = false;
  std::vector<raw_t> data_;
};

/// Inclusion between two zones of one dimension, as bit flags.
enum class Relation : unsigned {
  kDifferent = 0,  ///< neither includes the other
  kSubset = 1,     ///< a ⊆ b
  kSuperset = 2,   ///< a ⊇ b
  kEqual = 3,      ///< a = b (both flags)
};

inline bool has(Relation r, Relation flag) {
  return (static_cast<unsigned>(r) & static_cast<unsigned>(flag)) != 0;
}

/// Both inclusion directions between two canonical, non-empty matrices of
/// dimension `dim` (row-major, as Dbm::raw) in one walk, which stops as
/// soon as neither direction can hold.
Relation relation(const raw_t* a, const raw_t* b, int dim);
Relation relation(const Dbm& a, const Dbm& b);

}  // namespace psv::dbm
