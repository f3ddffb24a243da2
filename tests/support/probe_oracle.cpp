#include "support/probe_oracle.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <vector>

#include "mc/worker_pool.h"
#include "util/error.h"

namespace psv::testing {

using namespace psv::mc;

namespace {

/// Extra extrapolation constants of one probe run (pred && clock > d): what
/// a replayer must feed SuccGen to reproduce the probe's states bit-exactly.
std::vector<std::int32_t> probe_consts(const ta::Network& net, const StateFormula& pred,
                                       ta::ClockId clock, std::int64_t d) {
  StateFormula violated = pred;
  violated.and_clock(ta::cc_gt(clock, static_cast<std::int32_t>(d)));
  return formula_clock_constants(net, violated);
}

/// One probe: is (pred && clock > d) reachable?
ReachResult probe(const ta::Network& net, const StateFormula& pred, ta::ClockId clock,
                  std::int64_t d, ExploreOptions opts) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, d <= dbm::kMaxBoundValue, "clock bound exceeds representable range");
  StateFormula violated = pred;
  violated.and_clock(ta::cc_gt(clock, static_cast<std::int32_t>(d)));
  return reachable(net, violated, opts);
}

/// Thresholds probed speculatively per gallop round when threads are
/// available. Only the prefix up to the first unreachable threshold is ever
/// accounted (the legacy sequential gallop's exact work), so statistics,
/// probe counts, and surfaced errors stay bit-identical at every `jobs`
/// setting — speculation costs idle cores, never determinism.
constexpr std::size_t kGallopBatch = 4;

}  // namespace

MaxClockResult probe_max_clock_value(const ta::Network& net, const StateFormula& pred,
                                     ta::ClockId clock, std::int64_t limit, ExploreOptions opts,
                                     std::int64_t hint, int top_k) {
  MaxClockResult result;

  // Is the condition reachable at all?
  ReachResult any = reachable(net, pred, opts);
  accumulate_stats(result.stats, any.stats);
  ++result.probes;
  if (!any.reachable) {
    result.bounded = true;
    result.bound = 0;
    result.condition_unreachable = true;
    return result;
  }

  // Gallop geometrically from the hint to bracket the bound. Probing at
  // small thresholds first keeps each probe's extrapolation constants (and
  // so its state space) near the true bound instead of the search limit.
  // The hint is probed alone (it usually brackets the answer already);
  // afterwards rounds of doubled thresholds run as parallel speculative
  // batches, splitting the exploration thread budget across the probes.
  std::int64_t lo = 0;   // highest threshold known reachable, +1
  std::int64_t hi = -1;  // lowest threshold known unreachable
  Trace witness;
  std::int64_t witness_d = -1;  // threshold of the probe that found `witness`
  const std::int64_t d0 = std::max<std::int64_t>(1, std::min(hint, limit));
  ReachResult first = probe(net, pred, clock, d0, opts);
  accumulate_stats(result.stats, first.stats);
  ++result.probes;
  if (!first.reachable) {
    hi = d0;
  } else {
    witness = std::move(first.trace);
    witness_d = d0;
    lo = d0 + 1;
    if (d0 >= limit) {
      result.bounded = false;
      result.witness_consts = probe_consts(net, pred, clock, witness_d);
      result.witness = std::move(witness);
      return result;
    }
    std::int64_t base = d0;
    while (hi < 0) {
      std::vector<std::int64_t> thresholds;
      for (std::int64_t t = base; thresholds.size() < kGallopBatch && t < limit;)
        thresholds.push_back(t = std::min(limit, t * 2));
      std::vector<std::optional<ReachResult>> probed(thresholds.size());
      std::vector<std::exception_ptr> errors(thresholds.size());
      if (resolve_jobs(opts.jobs) <= 1 || thresholds.size() == 1) {
        // Sequential: run in threshold order, stop at the first
        // unreachable one — exactly the legacy gallop, no wasted probes.
        for (std::size_t i = 0; i < thresholds.size(); ++i) {
          try {
            probed[i].emplace(probe(net, pred, clock, thresholds[i], opts));
          } catch (...) {
            errors[i] = std::current_exception();
            break;
          }
          if (!probed[i]->reachable) break;
        }
      } else {
        WorkerPool pool(static_cast<unsigned>(thresholds.size()) - 1);
        pool.parallel_for(thresholds.size(), [&](std::size_t i) {
          try {
            probed[i].emplace(probe(net, pred, clock, thresholds[i], opts));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      // Account exactly the probes the sequential gallop runs: scan in
      // threshold order and stop after the first unreachable one; parallel
      // speculation past it is discarded unaccounted.
      bool bracketed = false;
      for (std::size_t i = 0; i < thresholds.size() && !bracketed; ++i) {
        if (errors[i]) std::rethrow_exception(errors[i]);
        accumulate_stats(result.stats, probed[i]->stats);
        ++result.probes;
        if (probed[i]->reachable) {
          witness = std::move(probed[i]->trace);
          witness_d = thresholds[i];
          lo = thresholds[i] + 1;
          if (thresholds[i] >= limit) {
            result.bounded = false;
            result.witness_consts = probe_consts(net, pred, clock, witness_d);
            result.witness = std::move(witness);
            return result;
          }
        } else {
          hi = thresholds[i];
          bracketed = true;
        }
      }
      if (!bracketed) base = thresholds.back();
    }
  }

  // Binary search the least D in [lo, hi] with (pred && clock > D)
  // unreachable.
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    ReachResult r = probe(net, pred, clock, mid, opts);
    accumulate_stats(result.stats, r.stats);
    ++result.probes;
    if (r.reachable) {
      witness = std::move(r.trace);
      witness_d = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  result.bounded = true;
  result.bound = lo;
  if (!witness.steps.empty()) {
    // The winning witness always comes from threshold bound - 1 (the last
    // reachable probe is the one that pushed `lo` to its final value).
    result.witness_consts = probe_consts(net, pred, clock, witness_d);
    if (top_k > 0) result.ranked.push_back({result.bound, witness});
  }
  result.witness = std::move(witness);
  return result;
}

}  // namespace psv::testing
