// Unit and property tests for the DBM zone library.
#include "dbm/dbm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <tuple>
#include <vector>

namespace psv::dbm {
namespace {

TEST(Bound, EncodingOrdersByTightness) {
  EXPECT_LT(bound_lt(5), bound_le(5));
  EXPECT_LT(bound_le(5), bound_lt(6));
  EXPECT_LT(bound_le(-3), bound_lt(0));
  EXPECT_LT(bound_le(1000000), kInf);
}

TEST(Bound, RoundTripValueAndStrictness) {
  for (std::int32_t v : {-100, -1, 0, 1, 7, 500, 123456}) {
    EXPECT_EQ(bound_value(bound_le(v)), v);
    EXPECT_EQ(bound_value(bound_lt(v)), v);
    EXPECT_TRUE(is_weak(bound_le(v)));
    EXPECT_FALSE(is_weak(bound_lt(v)));
  }
}

TEST(Bound, AdditionCombinesStrictness) {
  EXPECT_EQ(add(bound_le(2), bound_le(3)), bound_le(5));
  EXPECT_EQ(add(bound_le(2), bound_lt(3)), bound_lt(5));
  EXPECT_EQ(add(bound_lt(2), bound_lt(3)), bound_lt(5));
  EXPECT_EQ(add(bound_le(-2), bound_le(3)), bound_le(1));
  EXPECT_EQ(add(kInf, bound_le(3)), kInf);
  EXPECT_EQ(add(bound_lt(1), kInf), kInf);
}

TEST(Bound, NegationFlipsStrictness) {
  EXPECT_EQ(negate(bound_le(5)), bound_lt(-5));
  EXPECT_EQ(negate(bound_lt(5)), bound_le(-5));
  EXPECT_EQ(negate(negate(bound_le(7))), bound_le(7));
}

TEST(Bound, ToString) {
  EXPECT_EQ(bound_str(bound_le(5)), "<=5");
  EXPECT_EQ(bound_str(bound_lt(-2)), "<-2");
  EXPECT_EQ(bound_str(kInf), "inf");
}

TEST(Dbm, ZeroZoneContainsOnlyOrigin) {
  Dbm d = Dbm::zero(2);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.upper(1), bound_le(0));
  EXPECT_EQ(d.upper(2), bound_le(0));
  // Intersecting with x1 > 0 empties the zone.
  Dbm e = d;
  EXPECT_FALSE(e.constrain(0, 1, bound_lt(0)));
  EXPECT_TRUE(e.empty());
}

TEST(Dbm, UniversalZoneIncludesEverything) {
  Dbm u = Dbm::universal(3);
  Dbm z = Dbm::zero(3);
  z.up();
  EXPECT_TRUE(u.includes(z));
  EXPECT_TRUE(u.includes(Dbm::zero(3)));
  EXPECT_FALSE(Dbm::zero(3).includes(u));
}

TEST(Dbm, UpRemovesUpperBounds) {
  Dbm d = Dbm::zero(2);
  d.up();
  EXPECT_TRUE(is_inf(d.upper(1)));
  EXPECT_TRUE(is_inf(d.upper(2)));
  // Diagonal band: x1 - x2 == 0 is preserved by delay.
  EXPECT_EQ(d.at(1, 2), bound_le(0));
  EXPECT_EQ(d.at(2, 1), bound_le(0));
}

TEST(Dbm, ConstrainTightensAndPropagates) {
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(10)));  // x1 <= 10
  // Closure must propagate to x2 via x2 - x1 <= 0.
  EXPECT_EQ(d.upper(2), bound_le(10));
}

TEST(Dbm, ConstrainDetectsEmptiness) {
  Dbm d = Dbm::zero(1);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(5)));   // x <= 5
  EXPECT_FALSE(d.constrain(0, 1, bound_le(-6))); // x >= 6
  EXPECT_TRUE(d.empty());
}

TEST(Dbm, ResetSetsExactValue) {
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(100)));
  d.reset(2, 0);
  EXPECT_EQ(d.upper(2), bound_le(0));
  EXPECT_EQ(d.lower(2), bound_le(0));
  // x1 unaffected in its absolute bounds.
  EXPECT_EQ(d.upper(1), bound_le(100));
  // Difference bound: x1 - x2 <= 100 after reset.
  EXPECT_EQ(d.at(1, 2), bound_le(100));
}

TEST(Dbm, ResetToNonzeroValue) {
  Dbm d = Dbm::zero(1);
  d.up();
  d.reset(1, 7);
  EXPECT_EQ(d.upper(1), bound_le(7));
  EXPECT_EQ(d.lower(1), bound_le(-7));
}

TEST(Dbm, FreeClockRemovesConstraints) {
  Dbm d = Dbm::zero(2);
  ASSERT_FALSE(d.empty());
  d.free_clock(1);
  EXPECT_TRUE(is_inf(d.upper(1)));
  EXPECT_EQ(d.lower(1), bound_le(0));
  // x2 still pinned at zero.
  EXPECT_EQ(d.upper(2), bound_le(0));
}

TEST(Dbm, IncludesIsReflexiveAndAntisymmetricOnDistinctZones) {
  Dbm a = Dbm::zero(1);
  a.up();
  ASSERT_TRUE(a.constrain(1, 0, bound_le(10)));
  Dbm b = a;
  ASSERT_TRUE(b.constrain(1, 0, bound_le(5)));
  EXPECT_TRUE(a.includes(a));
  EXPECT_TRUE(a.includes(b));
  EXPECT_FALSE(b.includes(a));
}

TEST(Dbm, IntersectsChecksSatisfiability) {
  Dbm d = Dbm::zero(1);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(5)));  // 0 <= x <= 5
  EXPECT_TRUE(d.intersects(1, 0, bound_le(3)));   // x <= 3 feasible
  EXPECT_TRUE(d.intersects(0, 1, bound_le(-5)));  // x >= 5 feasible (boundary)
  EXPECT_FALSE(d.intersects(0, 1, bound_lt(-5))); // x > 5 infeasible
  EXPECT_FALSE(d.intersects(0, 1, bound_le(-6))); // x >= 6 infeasible
}

// Extra_LU⁺ rules, one at a time. Clocks x (1) and y (2); L and U are
// indexed by DBM clock index, 0 being the reference clock.

TEST(Dbm, LuDropsUpperBoundsAboveL) {
  // 0 <= x = y <= 50. L = 10 < 50 for both: the upper bounds go (rule 1);
  // the difference x - y = 0 and the lower bounds stay.
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(50)));
  Dbm one_side = d;
  d.extrapolate_lu({0, 10, 10}, {0, 100, 100});
  EXPECT_TRUE(is_inf(d.upper(1)));
  EXPECT_TRUE(is_inf(d.upper(2)));
  EXPECT_EQ(d.at(1, 2), bound_le(0));
  EXPECT_EQ(d.at(2, 1), bound_le(0));
  EXPECT_EQ(d.lower(1), bound_le(0));
  // Rules read the original matrix and the result is re-canonicalized: with
  // only L_x small, y <= 50 and x - y <= 0 bring x <= 50 back.
  one_side.extrapolate_lu({0, 10, 100}, {0, 100, 100});
  EXPECT_EQ(one_side.upper(1), bound_le(50));
}

TEST(Dbm, LuFreesTheRowOfAClockAboveL) {
  // x >= 20 (above L_x = 10): every bound x - z goes (rule 2), even the
  // upper bound x <= 30 that lies below U_x.
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(0, 1, bound_le(-20)));
  ASSERT_TRUE(d.constrain(1, 0, bound_le(30)));
  d.extrapolate_lu({0, 10, 100}, {0, 100, 100});
  EXPECT_TRUE(is_inf(d.upper(1)));
  EXPECT_TRUE(is_inf(d.at(1, 2)));
  EXPECT_EQ(d.lower(1), bound_le(-20));  // row 0 keeps x >= 20 (20 <= U_x)
}

TEST(Dbm, LuRelaxesLowerBoundsAboveU) {
  // y >= 40 with U_y = 25: bounds z - y go (rule 3) and y's lower bound
  // relaxes to y > 25 (rule 4).
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(0, 2, bound_le(-40)));
  ASSERT_TRUE(d.constrain(1, 2, bound_le(5)));  // x - y <= 5
  d.extrapolate_lu({0, 100, 100}, {0, 100, 25});
  EXPECT_EQ(d.lower(2), bound_lt(-25));
  EXPECT_TRUE(is_inf(d.at(1, 2)));
}

TEST(Dbm, LuAbstractsUncomparedClocksCompletely) {
  // A clock with no comparison on either side (-1) keeps only y >= 0.
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(0, 2, bound_le(-40)));
  ASSERT_TRUE(d.constrain(2, 0, bound_le(60)));
  d.extrapolate_lu({0, 100, -1}, {0, 100, -1});
  EXPECT_TRUE(is_inf(d.upper(2)));
  EXPECT_EQ(d.lower(2), bound_le(0));
}

TEST(Dbm, LuKeepsZonesWithinTheConstantsExact) {
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(50)));
  ASSERT_TRUE(d.constrain(0, 2, bound_lt(-3)));
  const Dbm before = d;
  d.extrapolate_lu({0, 50, 50}, {0, 50, 50});
  EXPECT_TRUE(d == before);
}

TEST(Dbm, ToStringRendersConstraints) {
  Dbm d = Dbm::zero(2);
  d.up();
  ASSERT_TRUE(d.constrain(1, 0, bound_le(5)));
  const std::string s = d.to_string({"x", "y"});
  EXPECT_NE(s.find("x<=5"), std::string::npos);
}

TEST(Dbm, HashDistinguishesZones) {
  Dbm a = Dbm::zero(1);
  a.up();
  Dbm b = a;
  ASSERT_TRUE(b.constrain(1, 0, bound_le(9)));
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), Dbm(a).hash());
}

// ---------------------------------------------------------------------------
// Property suite: random zones, checked against a brute-force point sampler.
// A DBM over small integer constants can be validated by enumerating integer
// points and checking membership consistency across operations.
// ---------------------------------------------------------------------------

class RandomZoneTest : public ::testing::TestWithParam<int> {};

namespace {

constexpr int kClocks = 3;
constexpr int kMaxConst = 6;

// Membership of an integer point in a canonical DBM.
bool contains_point(const Dbm& d, const std::vector<int>& pt) {
  auto value = [&](int i) { return i == 0 ? 0 : pt[static_cast<std::size_t>(i - 1)]; };
  for (int i = 0; i < d.dim(); ++i) {
    for (int j = 0; j < d.dim(); ++j) {
      if (i == j) continue;
      const raw_t b = d.at(i, j);
      if (is_inf(b)) continue;
      const int diff = value(i) - value(j);
      if (is_weak(b) ? diff > bound_value(b) : diff >= bound_value(b)) return false;
    }
  }
  return true;
}

std::vector<std::vector<int>> all_points(int max_value) {
  std::vector<std::vector<int>> pts;
  for (int a = 0; a <= max_value; ++a)
    for (int b = 0; b <= max_value; ++b)
      for (int c = 0; c <= max_value; ++c) pts.push_back({a, b, c});
  return pts;
}

Dbm random_zone(std::mt19937& gen) {
  Dbm d = Dbm::universal(kClocks);
  std::uniform_int_distribution<int> clock_dist(0, kClocks);
  std::uniform_int_distribution<int> const_dist(-kMaxConst, kMaxConst);
  std::uniform_int_distribution<int> strict_dist(0, 1);
  std::uniform_int_distribution<int> count_dist(2, 6);
  const int n = count_dist(gen);
  for (int k = 0; k < n; ++k) {
    const int i = clock_dist(gen);
    int j = clock_dist(gen);
    while (j == i) j = clock_dist(gen);
    d.constrain(i, j, make_bound(const_dist(gen), strict_dist(gen) == 1));
    if (d.empty()) break;
  }
  return d;
}

}  // namespace

TEST_P(RandomZoneTest, ConstrainMatchesPointwiseIntersection) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  Dbm d = random_zone(gen);
  if (d.empty()) GTEST_SKIP() << "empty zone drawn";
  std::uniform_int_distribution<int> clock_dist(0, kClocks);
  std::uniform_int_distribution<int> const_dist(-kMaxConst, kMaxConst);
  const int i = clock_dist(gen);
  int j = clock_dist(gen);
  while (j == i) j = clock_dist(gen);
  const raw_t b = make_bound(const_dist(gen), true);

  Dbm constrained = d;
  constrained.constrain(i, j, b);

  for (const auto& pt : all_points(2 * kMaxConst)) {
    auto value = [&](int k) { return k == 0 ? 0 : pt[static_cast<std::size_t>(k - 1)]; };
    const bool in_original = contains_point(d, pt);
    const bool meets_constraint = value(i) - value(j) <= bound_value(b);
    const bool expected = in_original && meets_constraint;
    if (constrained.empty()) {
      EXPECT_FALSE(expected) << "zone claims empty but point satisfies";
    } else {
      EXPECT_EQ(contains_point(constrained, pt), expected);
    }
  }
}

TEST_P(RandomZoneTest, UpMatchesPointwiseDelay) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 1000));
  Dbm d = random_zone(gen);
  if (d.empty()) GTEST_SKIP() << "empty zone drawn";
  Dbm delayed = d;
  delayed.up();

  // Every point in d shifted by any delta in [0, 4] must lie in delayed.
  for (const auto& pt : all_points(kMaxConst)) {
    if (!contains_point(d, pt)) continue;
    for (int delta = 0; delta <= 4; ++delta) {
      std::vector<int> shifted = pt;
      for (int& v : shifted) v += delta;
      EXPECT_TRUE(contains_point(delayed, shifted))
          << "delay closure lost a reachable valuation";
    }
  }
}

TEST_P(RandomZoneTest, ResetMatchesPointwiseProjection) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 2000));
  Dbm d = random_zone(gen);
  if (d.empty()) GTEST_SKIP() << "empty zone drawn";
  std::uniform_int_distribution<int> clock_dist(1, kClocks);
  const int x = clock_dist(gen);
  Dbm r = d;
  r.reset(x, 0);

  for (const auto& pt : all_points(2 * kMaxConst)) {
    if (!contains_point(d, pt)) continue;
    std::vector<int> projected = pt;
    projected[static_cast<std::size_t>(x - 1)] = 0;
    EXPECT_TRUE(contains_point(r, projected)) << "reset lost a projected valuation";
  }
}

TEST_P(RandomZoneTest, InclusionIsConsistentWithPoints) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 3000));
  Dbm a = random_zone(gen);
  Dbm b = random_zone(gen);
  if (a.empty() || b.empty()) GTEST_SKIP() << "empty zone drawn";
  if (a.includes(b)) {
    for (const auto& pt : all_points(2 * kMaxConst)) {
      if (contains_point(b, pt)) {
        EXPECT_TRUE(contains_point(a, pt)) << "includes() claimed superset but point escapes";
      }
    }
  }
}

TEST_P(RandomZoneTest, CanonicalFormIsIdempotent) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 4000));
  Dbm d = random_zone(gen);
  Dbm again = d;
  again.canonicalize();
  if (!d.empty()) {
    EXPECT_TRUE(d == again);
  }
}

Relation expected_relation(const Dbm& a, const Dbm& b) {
  return static_cast<Relation>((b.includes(a) ? 1u : 0u) | (a.includes(b) ? 2u : 0u));
}

// Random L/U constants in [-1, 2 * kMaxConst]: -1 marks a clock never
// compared from that side.
std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>> random_lu(std::mt19937& gen) {
  std::uniform_int_distribution<std::int32_t> dist(-1, 2 * kMaxConst);
  std::vector<std::int32_t> lower(kClocks + 1, 0);
  std::vector<std::int32_t> upper(kClocks + 1, 0);
  for (int c = 1; c <= kClocks; ++c) {
    lower[static_cast<std::size_t>(c)] = dist(gen);
    upper[static_cast<std::size_t>(c)] = dist(gen);
  }
  return {lower, upper};
}

// The LU properties draw 20 zones per seed (random_zone often empties).
TEST_P(RandomZoneTest, LuIncludesTheZoneAndKeepsUntouchedEntries) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 6000));
  for (int draw = 0; draw < 20; ++draw) {
    const Dbm d = random_zone(gen);
    if (d.empty()) continue;
    const auto [lower, upper] = random_lu(gen);
    Dbm lu = d;
    lu.extrapolate_lu(lower, upper);
    ASSERT_FALSE(lu.empty());
    EXPECT_TRUE(lu.includes(d));
    for (const auto& pt : all_points(kMaxConst)) {
      if (contains_point(d, pt)) {
        EXPECT_TRUE(contains_point(lu, pt));
      }
    }
    // Exactness below L/U: an entry no rule touches keeps its exact bound.
    auto above = [&d](int k, const std::vector<std::int32_t>& c) {
      return -bound_value(d.lower(k)) > c[static_cast<std::size_t>(k)];
    };
    for (int i = 0; i < d.dim(); ++i) {
      for (int j = 0; j < d.dim(); ++j) {
        if (i == j || is_inf(d.at(i, j))) continue;
        const bool rule_12 =
            i != 0 && (bound_value(d.at(i, j)) > lower[static_cast<std::size_t>(i)] ||
                       above(i, lower));
        if (!rule_12 && !above(j, upper)) {
          EXPECT_EQ(lu.at(i, j), d.at(i, j)) << "entry (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST_P(RandomZoneTest, LuIsExactWhenConstantsCoverTheZone) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 7000));
  for (int draw = 0; draw < 20; ++draw) {
    const Dbm d = random_zone(gen);
    if (d.empty()) continue;
    // L = U = the largest magnitude of any finite entry.
    std::int32_t largest = 0;
    for (int i = 0; i < d.dim(); ++i)
      for (int j = 0; j < d.dim(); ++j)
        if (!is_inf(d.at(i, j))) largest = std::max(largest, std::abs(bound_value(d.at(i, j))));
    std::vector<std::int32_t> consts(kClocks + 1, largest);
    consts[0] = 0;
    Dbm lu = d;
    lu.extrapolate_lu(consts, consts);
    EXPECT_TRUE(lu == d);
  }
}

TEST_P(RandomZoneTest, RelationMatchesIncludesBothWays) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 5000));
  for (int round = 0; round < 50; ++round) {
    const Dbm a = random_zone(gen);
    const Dbm b = random_zone(gen);
    if (a.empty() || b.empty()) continue;
    EXPECT_EQ(relation(a, b), expected_relation(a, b));
    EXPECT_EQ(relation(b, a), expected_relation(b, a));
    EXPECT_EQ(relation(a, a), Relation::kEqual);
    EXPECT_EQ(relation(a, Dbm(a)), Relation::kEqual);
    // A sub-zone (equal when a already bounds x1 this tightly).
    Dbm sub = a;
    sub.constrain(1, 0, bound_le(kMaxConst / 2));
    if (!sub.empty()) {
      EXPECT_EQ(relation(sub, a), expected_relation(sub, a));
      EXPECT_TRUE(has(relation(sub, a), Relation::kSubset));
    }
  }
}

// The textbook Floyd-Warshall closure, over a plain matrix: the reference
// Dbm::canonicalize must reproduce bit for bit on every non-empty result.
bool reference_close(std::vector<raw_t>& d, int dim) {
  auto at = [&](int i, int j) -> raw_t& { return d[static_cast<std::size_t>(i * dim + j)]; };
  for (int k = 0; k < dim; ++k)
    for (int i = 0; i < dim; ++i)
      for (int j = 0; j < dim; ++j)
        if (add(at(i, k), at(k, j)) < at(i, j)) at(i, j) = add(at(i, k), at(k, j));
  for (int i = 0; i < dim; ++i)
    if (at(i, i) < kLeZero) return false;
  return true;
}

TEST_P(RandomZoneTest, CanonicalizeMatchesTextbookClosure) {
  std::mt19937 gen(static_cast<unsigned>(GetParam() + 6000));
  std::uniform_int_distribution<int> clocks_dist(1, 6);
  std::uniform_int_distribution<int> const_dist(-kMaxConst, 2 * kMaxConst);
  std::uniform_int_distribution<int> kind_dist(0, 9);  // 0-2: kInf, 3-6: weak, 7-9: strict
  int nonempty = 0;
  int empty = 0;
  for (int round = 0; round < 100; ++round) {
    const int clocks = clocks_dist(gen);
    Dbm d(clocks);
    std::vector<raw_t> ref(static_cast<std::size_t>(d.dim() * d.dim()), kLeZero);
    for (int i = 0; i < d.dim(); ++i) {
      for (int j = 0; j < d.dim(); ++j) {
        if (i == j) continue;
        const int kind = kind_dist(gen);
        const raw_t b = kind < 3 ? kInf : make_bound(const_dist(gen), kind < 7);
        d.set(i, j, b);
        ref[static_cast<std::size_t>(i * d.dim() + j)] = b;
      }
    }
    d.canonicalize();
    const bool ref_nonempty = reference_close(ref, d.dim());
    ASSERT_EQ(!d.empty(), ref_nonempty) << "round " << round;
    if (!ref_nonempty) {
      ++empty;
      continue;
    }
    ++nonempty;
    for (int i = 0; i < d.dim(); ++i)
      for (int j = 0; j < d.dim(); ++j)
        EXPECT_EQ(d.at(i, j), ref[static_cast<std::size_t>(i * d.dim() + j)])
            << "round " << round << " entry (" << i << "," << j << ")";
  }
  EXPECT_GT(nonempty, 0) << "draw no non-empty matrices";
  EXPECT_GT(empty, 0) << "draw no empty matrices";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomZoneTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace psv::dbm
