#include "mc/query.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <optional>

#include "mc/worker_pool.h"
#include "util/error.h"

namespace psv::mc {

namespace {

void validate_query(const ta::Network& net, ta::ClockId clock, std::int64_t limit) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, clock >= 0 && clock < net.num_clocks(), "max_clock_value: undeclared clock");
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, limit > 0 && limit <= dbm::kMaxBoundValue, "max_clock_value: bad limit");
}

/// Effective ranked-witness retention depth of a query.
int clamped_top_k(const BoundQuery& q) { return std::clamp(q.top_k, 0, kMaxTopK); }

/// One reachability check: is (pred && clock > d) reachable?
ReachResult probe(const ta::Network& net, const StateFormula& pred, ta::ClockId clock,
                  std::int64_t d, ExploreOptions opts) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, d <= dbm::kMaxBoundValue, "clock bound exceeds representable range");
  StateFormula violated = pred;
  violated.and_clock(ta::cc_gt(clock, static_cast<std::int32_t>(d)));
  return reachable(net, violated, opts);
}

/// Refine-loop widening factors tried speculatively (in parallel when
/// threads are available). Conclusive candidates agree (each is exact), so
/// only the candidate-order prefix that settles every target is accounted
/// — speculation never changes results or statistics.
constexpr std::int64_t kWidenFactors[] = {4, 16, 64};

/// Per-query bookkeeping of the sweep driver.
struct SweepTarget {
  std::size_t query = 0;     ///< index into the batch
  StateFormula discrete;     ///< pred without its clock constraints
  std::vector<ta::ClockConstraint> pred_clocks;
  int dbm_index = 0;         ///< probe clock's DBM row
  std::int64_t k = 1;        ///< current widening candidate
  /// Ranked states retained while sweeping: max(1, top_k) — at least the
  /// maximum itself, which doubles as the witness.
  std::size_t keep = 1;
};

/// What one exploration observed for one target.
struct SweepOutcome {
  bool reached = false;   ///< some stored state satisfies pred
  bool saw_inf = false;   ///< ...with the probe clock abstracted (ambiguous)
  /// The `keep` highest (value, store id) pairs seen so far, value
  /// descending; ties keep exploration order, so best.front() is the FIRST
  /// stored state attaining the maximum — the exact witness the
  /// single-max sweep reported, bit-identical at every thread count.
  std::vector<std::pair<std::int64_t, std::uint64_t>> best;
  std::uint64_t inf_id = 0;
  std::vector<RankedWitness> ranked;  ///< materialized before the engine dies
  Trace inf_trace;
};

struct SweepRound {
  std::vector<SweepOutcome> outcomes;  ///< parallel to the target list
  std::vector<std::int64_t> consts;    ///< effective candidate per target
  /// Extra extrapolation constants of this exploration (MaxClockResult::
  /// witness_consts for every target it resolves).
  std::vector<std::int32_t> extra;
  ExploreStats stats;
  /// Passed store of this sweep (capture mode).
  std::optional<PassedStoreExport> exported;
};

bool constrain_by(dbm::Dbm& zone, const ta::ClockConstraint& cc) {
  const int i = cc.clock + 1;
  switch (cc.op) {
    case ta::CmpOp::kLt:
      return zone.constrain(i, 0, dbm::bound_lt(cc.bound));
    case ta::CmpOp::kLe:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound));
    case ta::CmpOp::kGe:
      return zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kGt:
      return zone.constrain(0, i, dbm::bound_lt(-cc.bound));
    case ta::CmpOp::kEq:
      return zone.constrain(i, 0, dbm::bound_le(cc.bound)) &&
             zone.constrain(0, i, dbm::bound_le(-cc.bound));
    case ta::CmpOp::kNe:
      PSV_FAIL_AS(::psv::ErrorCode::kVerify, "clock constraints with != are not supported in state formulas");
  }
  return false;
}

/// One full-space exploration serving every target at candidate constant
/// min(limit, k * factor). Per stored state satisfying a target's pred, the
/// probe clock's upper bound is read off the zone: finite bounds are exact
/// under the candidate extrapolation constant, an abstracted (infinite)
/// bound means the maximum escaped the candidate.
///
/// With `flags`, the exploration additionally records per-variable ==1
/// reachability and hands over its deadlock result (combined batch sweep).
SweepRound sweep_once(const ta::Network& net, const std::vector<BoundQuery>& queries,
                      const std::vector<SweepTarget>& targets, std::int64_t factor,
                      ExploreOptions opts, FlagSweepOutcome* flags = nullptr,
                      const PassedStoreExport* ancestor = nullptr, bool capture = false) {
  SweepRound round;
  round.consts.resize(targets.size());
  round.outcomes.assign(targets.size(), SweepOutcome{});
  std::vector<std::int32_t> extra(static_cast<std::size_t>(net.num_clocks()), -1);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const BoundQuery& q = queries[targets[t].query];
    const std::int64_t k = std::min(q.limit, targets[t].k * factor);
    round.consts[t] = k;
    auto& cell = extra[static_cast<std::size_t>(q.clock)];
    cell = std::max(cell, static_cast<std::int32_t>(k));
    // Predicate clock constants must stay exact too.
    for (const ta::ClockConstraint& cc : targets[t].pred_clocks)
      extra[static_cast<std::size_t>(cc.clock)] =
          std::max(extra[static_cast<std::size_t>(cc.clock)], cc.bound);
  }
  round.extra = extra;
  Reachability engine(net, StateFormula{}, opts, std::move(extra));
  if (capture) engine.enable_capture();
  if (ancestor != nullptr) engine.set_ancestor(ancestor);
  if (flags != nullptr) flags->var_seen_one.assign(static_cast<std::size_t>(net.num_vars()), 0);
  const auto visit = [&](const SymState& state, std::uint64_t id) {
    if (flags != nullptr)
      for (std::size_t v = 0; v < state.vars.size(); ++v)
        if (state.vars[v] == 1) flags->var_seen_one[v] = 1;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const SweepTarget& target = targets[t];
      if (!satisfies(net, state, target.discrete)) continue;
      dbm::raw_t upper;
      if (target.pred_clocks.empty()) {
        upper = state.zone.upper(target.dbm_index);
      } else {
        dbm::Dbm zone = state.zone;
        bool nonempty = true;
        for (const ta::ClockConstraint& cc : target.pred_clocks)
          nonempty = nonempty && constrain_by(zone, cc);
        if (!nonempty) continue;
        upper = zone.upper(target.dbm_index);
      }
      SweepOutcome& o = round.outcomes[t];
      o.reached = true;
      if (dbm::is_inf(upper)) {
        if (!o.saw_inf) {
          o.saw_inf = true;
          o.inf_id = id;
        }
      } else {
        const std::int64_t value = dbm::bound_value(upper);
        // Keep the `keep` highest values, first-seen first among equals
        // (exploration order is deterministic, so the ranking is too).
        if (o.best.size() < target.keep || value > o.best.back().first) {
          std::size_t pos = o.best.size();
          while (pos > 0 && o.best[pos - 1].first < value) --pos;
          o.best.insert(o.best.begin() + static_cast<std::ptrdiff_t>(pos), {value, id});
          if (o.best.size() > target.keep) o.best.pop_back();
        }
      }
    }
  };
  DeadlockResult deadlock = engine.find_deadlock(visit);
  round.stats = deadlock.stats;
  if (flags != nullptr) {
    flags->ran = true;
    flags->deadlock = std::move(deadlock);
  }
  for (SweepOutcome& o : round.outcomes) {
    std::vector<std::uint64_t> ids;
    ids.reserve(o.best.size());
    for (const auto& [value, id] : o.best) ids.push_back(id);
    std::vector<Trace> traces = engine.traces_of(ids);
    o.ranked.reserve(o.best.size());
    for (std::size_t i = 0; i < o.best.size(); ++i)
      o.ranked.push_back({o.best[i].first, std::move(traces[i])});
    if (o.saw_inf) o.inf_trace = engine.trace_of(o.inf_id);
  }
  if (capture) round.exported = engine.take_export();
  return round;
}

/// True when the round settles the target (the answer can be read off).
bool conclusive(const BoundQuery& q, const SweepRound& round, std::size_t t) {
  const SweepOutcome& o = round.outcomes[t];
  return !o.reached || !o.saw_inf || round.consts[t] >= q.limit;
}

/// Interpret one round's outcome for one target; true when conclusive.
bool resolve_target(const BoundQuery& q, SweepRound& round, std::size_t t, MaxClockResult& out) {
  SweepOutcome& o = round.outcomes[t];
  if (!o.reached) {
    out.bounded = true;
    out.bound = 0;
    out.condition_unreachable = true;
    return true;
  }
  if (!o.saw_inf) {
    out.bounded = true;
    out.bound = o.ranked.front().value;
    out.condition_unreachable = false;
    out.witness = o.ranked.front().trace;
    if (clamped_top_k(q) > 0) out.ranked = std::move(o.ranked);
    out.witness_consts = round.extra;
    return true;
  }
  if (round.consts[t] >= q.limit) {
    // Ambiguous even at the search limit: the exact maximum exceeds it.
    out.bounded = false;
    out.witness = std::move(o.inf_trace);
    out.witness_consts = round.extra;
    return true;
  }
  return false;
}

}  // namespace

std::vector<MaxClockResult> max_clock_values(const ta::Network& net,
                                             const std::vector<BoundQuery>& queries,
                                             ExploreOptions opts, BatchQueryStats* batch_stats,
                                             FlagSweepOutcome* flags, WarmContext* warm) {
  for (const BoundQuery& q : queries) validate_query(net, q.clock, q.limit);
  const PassedStoreExport* ancestor = warm != nullptr ? warm->ancestor : nullptr;
  const bool capture = warm != nullptr;
  std::vector<MaxClockResult> results(queries.size());
  std::vector<SweepTarget> targets;
  targets.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SweepTarget target;
    target.query = q;
    target.discrete = queries[q].pred;
    target.discrete.clocks.clear();
    target.pred_clocks = queries[q].pred.clocks;
    target.dbm_index = queries[q].clock + 1;
    target.k = std::max<std::int64_t>(1, std::min(queries[q].hint, queries[q].limit));
    target.keep = static_cast<std::size_t>(std::max(1, clamped_top_k(queries[q])));
    targets.push_back(std::move(target));
  }

  // Round 0: one exploration at every query's hint answers the whole batch
  // whenever the hints are honest upper-bound estimates. With a flag
  // piggyback this same exploration also serves the C1–C4 flag recording
  // and the deadlock search.
  {
    SweepRound round = sweep_once(net, queries, targets, 1, opts, flags, ancestor, capture);
    if (batch_stats) {
      accumulate_stats(batch_stats->explore, round.stats);
      ++batch_stats->explorations;
    }
    if (warm != nullptr && round.exported.has_value()) warm->exported = std::move(round.exported);
    std::vector<SweepTarget> unresolved;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      MaxClockResult& out = results[targets[t].query];
      accumulate_stats(out.stats, round.stats);
      ++out.probes;
      if (!resolve_target(queries[targets[t].query], round, t, out)) {
        targets[t].k = round.consts[t];
        unresolved.push_back(std::move(targets[t]));
      }
    }
    targets.swap(unresolved);
  }

  // Widen-and-refine: re-explore the unresolved targets at geometrically
  // larger candidates. Sequentially the candidates run smallest-first and
  // stop once every target is settled; with threads they run speculatively
  // in parallel and only that same candidate-order prefix is accounted.
  while (!targets.empty()) {
    std::vector<std::int64_t> factors = {kWidenFactors[0]};
    for (std::size_t f = 1; f < std::size(kWidenFactors); ++f) {
      bool useful = false;
      for (const SweepTarget& t : targets)
        useful = useful || t.k * kWidenFactors[f - 1] < queries[t.query].limit;
      if (!useful) break;
      factors.push_back(kWidenFactors[f]);
    }
    std::vector<std::optional<SweepRound>> rounds(factors.size());
    std::vector<std::exception_ptr> errors(factors.size());
    if (resolve_jobs(opts.jobs) <= 1 || factors.size() == 1) {
      std::vector<char> done(targets.size(), 0);
      for (std::size_t f = 0; f < factors.size(); ++f) {
        try {
          rounds[f].emplace(
              sweep_once(net, queries, targets, factors[f], opts, nullptr, ancestor, capture));
        } catch (...) {
          errors[f] = std::current_exception();
          break;
        }
        bool all_done = true;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          done[t] = done[t] || conclusive(queries[targets[t].query], *rounds[f], t);
          all_done = all_done && done[t];
        }
        if (all_done) break;  // larger candidates are never needed
      }
    } else {
      WorkerPool pool(static_cast<unsigned>(factors.size()) - 1);
      pool.parallel_for(factors.size(), [&](std::size_t f) {
        try {
          rounds[f].emplace(
              sweep_once(net, queries, targets, factors[f], opts, nullptr, ancestor, capture));
        } catch (...) {
          errors[f] = std::current_exception();
        }
      });
    }
    // Count the candidate-order prefix that settles every target — the
    // rounds a sequential refine loop runs; speculative rounds past it are
    // discarded unaccounted, keeping statistics and surfaced errors
    // identical at every thread count.
    std::size_t counted = 0;
    {
      std::vector<char> done(targets.size(), 0);
      for (std::size_t f = 0; f < factors.size(); ++f) {
        if (errors[f]) std::rethrow_exception(errors[f]);
        ++counted;
        bool all_done = true;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          done[t] = done[t] || conclusive(queries[targets[t].query], *rounds[f], t);
          all_done = all_done && done[t];
        }
        if (all_done) break;
      }
    }
    if (batch_stats) {
      for (std::size_t f = 0; f < counted; ++f)
        accumulate_stats(batch_stats->explore, rounds[f]->stats);
      batch_stats->explorations += static_cast<int>(counted);
    }
    // Keep the last accounted complete sweep's store: its extrapolation
    // constants are the widest this batch needed, so it seeds the most of a
    // successor's state space.
    if (warm != nullptr) {
      for (std::size_t f = 0; f < counted; ++f)
        if (rounds[f]->exported.has_value()) warm->exported = std::move(rounds[f]->exported);
    }
    std::vector<SweepTarget> unresolved;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      MaxClockResult& out = results[targets[t].query];
      for (std::size_t f = 0; f < counted; ++f) accumulate_stats(out.stats, rounds[f]->stats);
      out.probes += static_cast<int>(counted);
      bool resolved = false;
      for (std::size_t f = 0; f < counted && !resolved; ++f)
        resolved = resolve_target(queries[targets[t].query], *rounds[f], t, out);
      if (!resolved) {
        targets[t].k = rounds[counted - 1]->consts[t];
        unresolved.push_back(std::move(targets[t]));
      }
    }
    targets.swap(unresolved);
  }
  return results;
}

MaxClockResult max_clock_value(const ta::Network& net, const StateFormula& pred,
                               ta::ClockId clock, std::int64_t limit, ExploreOptions opts,
                               std::int64_t hint) {
  std::vector<BoundQuery> queries(1);
  queries[0].pred = pred;
  queries[0].clock = clock;
  queries[0].limit = limit;
  queries[0].hint = hint;
  return std::move(max_clock_values(net, queries, opts).front());
}

BoundedResponseResult check_bounded_response(const ta::Network& net, const StateFormula& pending,
                                             ta::ClockId clock, std::int64_t delta,
                                             ExploreOptions opts) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, clock >= 0 && clock < net.num_clocks(), "check_bounded_response: undeclared clock");
  BoundedResponseResult result;
  ReachResult r = probe(net, pending, clock, delta, opts);
  result.stats = r.stats;
  result.holds = !r.reachable;
  if (r.reachable) result.violation = std::move(r.trace);
  return result;
}

}  // namespace psv::mc
