#include "mc/reach.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

#include "util/error.h"

namespace psv::mc {

namespace {

/// Frontier width from which spawning the worker pool pays for itself;
/// narrow explorations (unit-test sized models) stay threadless.
constexpr std::size_t kPoolSpawnWidth = 16;

/// Element-wise max of the goal formula's clock constants with the
/// caller-supplied extras (sweep widening candidates).
std::vector<std::int32_t> merge_clock_consts(std::vector<std::int32_t> base,
                                             const std::vector<std::int32_t>& extra) {
  if (extra.empty()) return base;
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, extra.size() == base.size(),
              "extra_clock_consts must have one entry per network clock");
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = std::max(base[i], extra[i]);
  return base;
}

/// Cooperative cancellation, honoured at wave barriers only — between
/// barriers a wave always completes, so a run either finishes a wave
/// deterministically or abandons the whole exploration.
void check_cancel(const ExploreOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))
    PSV_FAIL_AS(::psv::ErrorCode::kCancelled, "exploration cancelled by cooperative token");
}

}  // namespace

std::string Trace::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].label.empty()) os << "  [" << i << "] " << steps[i].label << "\n";
    os << "      " << steps[i].state << "\n";
  }
  return os.str();
}

Reachability::Reachability(const ta::Network& net, const StateFormula& goal, ExploreOptions opts,
                           std::vector<std::int32_t> extra_clock_consts)
    : net_(net),
      goal_(goal),
      opts_(opts),
      gen_(net, merge_clock_consts(formula_clock_constants(net, goal), extra_clock_consts)),
      shards_(kNumShards) {
  jobs_ = resolve_jobs(opts_.jobs);
  hard_state_limit_ = opts_.max_states > std::numeric_limits<std::size_t>::max() / 2
                          ? std::numeric_limits<std::size_t>::max()
                          : 2 * opts_.max_states;
}

Reachability::~Reachability() = default;

Reachability::Bucket& Reachability::bucket_of(Shard& shard, const SymState& state,
                                              std::size_t hash) {
  auto it = shard.passed.find(DiscreteProbe{state, hash});
  if (it == shard.passed.end())
    it = shard.passed.emplace(DiscreteKey{state.locs, state.vars, hash}, Bucket{}).first;
  return it->second;
}

std::optional<std::uint32_t> Reachability::cover_or_evict(Shard& shard, Bucket& bucket,
                                                          const dbm::Dbm& zone) {
  // One walk per live zone answers both inclusion directions. The live list
  // is an antichain, so a covered zone can have evicted nothing before its
  // cover is found, and the first cover is the first in insertion order.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < bucket.size(); ++k) {
    const LiveZone live = bucket[k];
    const dbm::Relation rel = dbm::relation(zone.raw(), live.matrix, zone.dim());
    if (dbm::has(rel, dbm::Relation::kSubset)) {
      PSV_ASSERT(kept == k, "the live zones of a bucket must form an antichain");
      return live.index;
    }
    if (dbm::has(rel, dbm::Relation::kSuperset)) {
      // The arena entry stays (parent chains, traces and the export need
      // it); the dead bit keeps it out of every frontier assembled from now
      // on.
      shard.arena[live.index].dead = true;
      continue;
    }
    bucket[kept++] = live;
  }
  bucket.resize(kept);
  return std::nullopt;
}

std::optional<std::uint64_t> Reachability::insert(GenSucc&& gs, std::uint64_t parent) {
  SymState& state = gs.state;
  const std::size_t shard_index = shard_of(gs.hash, kNumShards);
  Shard& shard = shards_[shard_index];
  Bucket& bucket = bucket_of(shard, state, gs.hash);
  if (const auto idx = cover_or_evict(shard, bucket, state.zone)) {
    ++shard.subsumed;
    // The subsumer now covers every behavior of the pruned successor; the
    // export records that obligation against the parent.
    if (capture_ && parent != kNoParent)
      shard.cover_events.emplace_back(parent, pack_id(shard_index, *idx));
    return std::nullopt;
  }

  // The cap itself is checked at the wave barrier in insert_wave() — a
  // check-then-act on the shared counter here would race — where it is
  // deterministic for every thread count. This hard backstop at twice the
  // cap bounds transient memory on extreme-fan-out waves; it can only fire
  // in a wave whose barrier check throws anyway, so the throw/no-throw
  // outcome stays deterministic.
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify,
                 total_stored_.load(std::memory_order_relaxed) < hard_state_limit_,
                 "state-space exploration exceeded the configured limit of " +
                     std::to_string(opts_.max_states) + " states");
  const std::size_t local = shard.arena.size();
  shard.arena.push_back(
      Stored{std::move(state), parent, std::move(gs.edges), std::move(gs.pre_zone), gs.pre_differs});
  bucket.push_back(
      LiveZone{shard.arena.back().state.zone.raw(), static_cast<std::uint32_t>(local)});
  total_stored_.fetch_add(1, std::memory_order_relaxed);
  return pack_id(shard_index, local);
}

void Reachability::seed_initial() {
  GenSucc init;
  init.state = gen_.initial();
  init.hash = init.state.discrete_hash();
  const auto id = insert(std::move(init), kNoParent);
  PSV_ASSERT(id.has_value(), "initial state must be stored");
  if (capture_) order_.push_back(*id);
  frontier_.assign(1, *id);
}

void Reachability::run_parallel(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (pool_ && n > 1) {
    pool_->parallel_for(n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

void Reachability::generate_wave() {
  const std::size_t n = frontier_.size();
  if (jobs_ > 1 && !pool_ && n >= kPoolSpawnWidth) {
    pool_ = std::make_unique<WorkerPool>(jobs_ - 1);
  }
  if (wave_succs_.size() < n) wave_succs_.resize(n);
  wave_blocked_.assign(n, 0);
  run_parallel(n, [&](std::size_t i) {
    const SymState& current = stored(frontier_[i]).state;
    std::vector<SymSuccessor> raw = gen_.successors(current);
    std::vector<GenSucc>& out = wave_succs_[i];
    out.clear();
    out.reserve(raw.size());
    for (SymSuccessor& succ : raw) {
      GenSucc gs;
      gs.hash = succ.state.discrete_hash();
      gs.state = std::move(succ.state);
      gs.edges = std::move(succ.edges);
      if (capture_) {
        gs.pre_zone = std::move(succ.pre_zone);
        gs.pre_differs = succ.pre_differs;
      }
      out.push_back(std::move(gs));
    }
    // Stored zones are delay-closed, so "no action successor" means no
    // action can ever be taken from any valuation in this state; it is a
    // timelock when the locations also stop time. LU-simulation preserves
    // whether a zone has a successor, and the locations decide whether time
    // is bounded, so the stored (abstracted) zone is not consulted.
    if (out.empty()) wave_blocked_[i] = gen_.time_bounded(current.locs) ? 1 : 0;
  });
}

void Reachability::insert_wave() {
  stats_.states_explored += frontier_.size();
  for (Shard& shard : shards_) {
    shard.pending.clear();
    shard.accepted.clear();
  }
  // Route every successor to its owning shard, in rank order. Rank order
  // per shard plus the fixed shard assignment makes each bucket see the
  // insertion sequence of a FIFO exploration, whatever the thread count.
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for (std::size_t j = 0; j < wave_succs_[i].size(); ++j) {
      ++stats_.transitions_fired;
      const std::uint64_t rank = (static_cast<std::uint64_t>(i) << 32) | j;
      shards_[shard_of(wave_succs_[i][j].hash, kNumShards)].pending.push_back(rank);
    }
  }
  run_parallel(kNumShards, [&](std::size_t s) {
    Shard& shard = shards_[s];
    for (const std::uint64_t rank : shard.pending) {
      const std::size_t i = static_cast<std::size_t>(rank >> 32);
      const std::size_t j = static_cast<std::size_t>(rank & 0xffffffffu);
      GenSucc& gs = wave_succs_[i][j];
      const auto id = insert(std::move(gs), frontier_[i]);
      if (id.has_value()) shard.accepted.emplace_back(rank, *id);
    }
  });
  // The accepted states are identical for every thread count, so a wave
  // that crosses the cap throws at this barrier whatever `jobs` is (memory
  // overshoot is bounded by one wave's accepted states).
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify,
                 total_stored_.load(std::memory_order_relaxed) <= opts_.max_states,
                 "state-space exploration exceeded the configured limit of " +
                     std::to_string(opts_.max_states) + " states");
  // Assemble the next frontier rank-sorted: the order of a FIFO waiting
  // queue.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.accepted.size();
  merged.reserve(total);
  for (const Shard& shard : shards_)
    merged.insert(merged.end(), shard.accepted.begin(), shard.accepted.end());
  std::sort(merged.begin(), merged.end());
  if (capture_)
    for (const auto& [rank, id] : merged) order_.push_back(id);
  // A zone evicted later in the same wave is covered by a live one with the
  // same discrete state: expanding it would only regenerate subsumed work.
  next_frontier_.clear();
  next_frontier_.reserve(merged.size());
  for (const auto& [rank, id] : merged)
    if (!stored(id).dead) next_frontier_.push_back(id);
  frontier_.swap(next_frontier_);
}

ExploreStats Reachability::snapshot_stats() const {
  ExploreStats stats = stats_;
  stats.states_stored = total_stored_.load(std::memory_order_relaxed);
  stats.subsumed = 0;
  for (const Shard& shard : shards_) stats.subsumed += shard.subsumed;
  return stats;
}

Trace Reachability::build_trace(std::uint64_t id) const {
  std::vector<std::uint64_t> chain;
  for (std::uint64_t cursor = id; cursor != kNoParent; cursor = stored(cursor).parent)
    chain.push_back(cursor);
  std::reverse(chain.begin(), chain.end());
  Trace trace;
  for (std::uint64_t link : chain) {
    const Stored& entry = stored(link);
    trace.steps.push_back(TraceStep{gen_.label(entry.edges), entry.state.to_string(net_)});
  }
  return trace;
}

std::vector<Trace> Reachability::traces_of(const std::vector<std::uint64_t>& ids) const {
  std::vector<Trace> traces;
  traces.reserve(ids.size());
  for (std::uint64_t id : ids) traces.push_back(build_trace(id));
  return traces;
}

Reachability::WaveEnd Reachability::run_waves(const Visitor& visit, Stop stop) {
  WaveEnd end;
  // Warm starts force childless cover-less seeds back into the frontier, so
  // quiescence and timelocks are always re-detected by fresh generation —
  // never trusted from the ancestor run. The import already visited every
  // live seed; the first wave must not visit them again.
  const bool warm = ancestor_ != nullptr && seed_from_store(visit);
  if (!warm) seed_initial();
  bool skip_visit = warm;
  bool first_warm_wave = warm;
  while (!frontier_.empty()) {
    check_cancel(opts_);
    if (stop == Stop::kGoal) {
      for (const std::uint64_t id : frontier_) {
        if (satisfies(net_, stored(id).state, goal_)) {
          end.goal = id;
          return end;
        }
      }
    }
    if (first_warm_wave) {
      stats_.warm_seed_expansions += frontier_.size();
      first_warm_wave = false;
    }
    generate_wave();
    // Scan the wave in rank (exploration) order: visit callbacks fire
    // sequentially, and the first timelock and the first quiescent state
    // are recorded where they occur. Neither ends the run.
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const std::uint64_t id = frontier_[i];
      if (visit && !skip_visit) visit(stored(id).state, id);
      if (!wave_succs_[i].empty()) continue;
      std::optional<std::uint64_t>& first = wave_blocked_[i] ? end.timelock : end.quiescent;
      if (!first) first = id;
    }
    skip_visit = false;
    insert_wave();
  }
  // Only complete explorations export: a goal search's store is a prefix.
  if (capture_) export_ = build_export();
  return end;
}

ExploreStats Reachability::explore_all(const Visitor& visit) {
  run_waves(visit, Stop::kNever);
  return snapshot_stats();
}

DeadlockResult Reachability::find_deadlock(const Visitor& visit) {
  const WaveEnd end = run_waves(visit, Stop::kNever);
  DeadlockResult result;
  if (const std::optional<std::uint64_t> id = end.timelock ? end.timelock : end.quiescent) {
    result.found = true;
    result.timelock = end.timelock.has_value();
    result.trace = build_trace(*id);
  }
  result.stats = snapshot_stats();
  return result;
}

std::vector<const SymState*> Reachability::live_states() const {
  std::vector<const SymState*> live;
  for (const Shard& shard : shards_)
    for (const auto& [key, bucket] : shard.passed)
      for (const LiveZone& zone : bucket) live.push_back(&shard.arena[zone.index].state);
  return live;
}

void Reachability::enable_capture() {
  capture_ = true;
  gen_.set_capture(true);
}

bool Reachability::seed_from_store(const Visitor& visit) {
  const PassedStoreExport& anc = *ancestor_;
  const std::size_t num_automata = static_cast<std::size_t>(net_.num_automata());

  // --- Fit checks. Everything is validated BEFORE the engine mutates, so
  // any mismatch cleanly falls back to a cold start.
  if (anc.num_clocks != net_.num_clocks() || anc.num_vars != net_.num_vars() ||
      anc.num_automata != net_.num_automata())
    return false;
  if (anc.entries.empty() || anc.entries.size() > opts_.max_states) return false;
  if (anc.edge_digests.size() != num_automata || anc.inv_digests.size() != num_automata)
    return false;
  const auto new_edge_digests = edge_timing_digests(net_);
  const auto new_inv_digests = invariant_digests(net_);
  for (std::size_t a = 0; a < num_automata; ++a) {
    if (anc.edge_digests[a].size() != new_edge_digests[a].size()) return false;
    if (anc.inv_digests[a].size() != new_inv_digests[a].size()) return false;
  }
  const std::vector<std::int32_t>& new_lower = gen_.lower_consts();
  const std::vector<std::int32_t>& new_upper = gen_.upper_consts();
  if (anc.lower.size() != new_lower.size() || anc.upper.size() != new_upper.size()) return false;
  SymState init = gen_.initial();
  if (anc.entries.front().locs != init.locs || anc.entries.front().vars != init.vars)
    return false;
  for (std::size_t i = 0; i < anc.entries.size(); ++i) {
    const StoreEntry& entry = anc.entries[i];
    if (entry.locs.size() != num_automata) return false;
    if (entry.vars.size() != static_cast<std::size_t>(net_.num_vars())) return false;
    if (entry.zone.num_clocks() != net_.num_clocks()) return false;
    if (entry.pre_differs && entry.pre_zone.num_clocks() != net_.num_clocks()) return false;
    if (i > 0 && entry.edges.empty()) return false;
    for (std::size_t a = 0; a < num_automata; ++a) {
      if (entry.locs[a] < 0 ||
          static_cast<std::size_t>(entry.locs[a]) >=
              net_.automaton(static_cast<ta::AutomatonId>(a)).locations().size())
        return false;
    }
    for (const EdgeRef& ref : entry.edges) {
      if (ref.automaton < 0 || ref.automaton >= net_.num_automata() || ref.edge_index < 0 ||
          static_cast<std::size_t>(ref.edge_index) >= net_.automaton(ref.automaton).edges().size())
        return false;
    }
  }

  // --- Change sets: which edges / invariants the edit touched, and from
  // which locations a timing change can originate.
  std::vector<std::vector<char>> edge_changed(num_automata);
  std::vector<std::vector<char>> inv_changed(num_automata);
  std::vector<std::vector<char>> calm(num_automata);
  for (std::size_t a = 0; a < num_automata; ++a) {
    const std::size_t num_edges = new_edge_digests[a].size();
    const std::size_t num_locs = new_inv_digests[a].size();
    edge_changed[a].resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e)
      edge_changed[a][e] = anc.edge_digests[a][e] == new_edge_digests[a][e] ? 0 : 1;
    inv_changed[a].resize(num_locs);
    for (std::size_t l = 0; l < num_locs; ++l)
      inv_changed[a][l] = anc.inv_digests[a][l] == new_inv_digests[a][l] ? 0 : 1;
    // calm[a][l]: nothing generated FROM l can differ — its own invariant,
    // every outgoing edge, and every destination invariant are untouched.
    calm[a].assign(num_locs, 1);
    for (std::size_t l = 0; l < num_locs; ++l)
      if (inv_changed[a][l]) calm[a][l] = 0;
    const auto& edges = net_.automaton(static_cast<ta::AutomatonId>(a)).edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edge_changed[a][e] || inv_changed[a][static_cast<std::size_t>(edges[e].dst)])
        calm[a][static_cast<std::size_t>(edges[e].src)] = 0;
    }
  }
  // Larger L and U constants only refine Extra_LU⁺ (entry-wise), so a
  // successor extrapolated under nondecreasing constants stays within the
  // one the ancestor recorded.
  const bool consts_equal = new_lower == anc.lower && new_upper == anc.upper;
  bool consts_nondecreasing = true;
  for (std::size_t c = 0; c < new_lower.size(); ++c) {
    if (new_lower[c] < anc.lower[c] || new_upper[c] < anc.upper[c]) consts_nondecreasing = false;
  }

  // --- Import pass, in ordinal (deterministic exploration) order: derive
  // each entry's zone EXACTLY under this network and seed the arena.
  // Dropped entries (parent dropped, or replay emptied the zone) drop their
  // whole subtree.
  const std::size_t n = anc.entries.size();
  std::vector<char> alive(n, 0);
  std::vector<char> unchanged(n, 0);
  std::vector<char> has_live_child(n, 0);
  std::vector<dbm::Dbm> zones(n, dbm::Dbm(0));
  std::vector<std::uint64_t> packed(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const StoreEntry& entry = anc.entries[i];
    SymState state;
    state.locs = entry.locs;
    state.vars = entry.vars;
    dbm::Dbm pre(0);
    bool pre_differs = false;
    if (i == 0) {
      // The initial state is always computed fresh (and matched against the
      // stored discrete parts above).
      state.zone = init.zone;
      ++stats_.warm_states_revalidated;
    } else {
      if (!alive[static_cast<std::size_t>(entry.parent)]) continue;
      // Creation-calm: the parent's zone is unchanged and nothing on this
      // entry's creation path (participating edges, successor invariants)
      // was touched — the recorded pre-extrapolation zone is exact under
      // this network, so only the extrapolation needs re-applying.
      bool creation_calm = unchanged[static_cast<std::size_t>(entry.parent)] != 0;
      if (creation_calm) {
        for (const EdgeRef& ref : entry.edges) {
          if (edge_changed[static_cast<std::size_t>(ref.automaton)]
                          [static_cast<std::size_t>(ref.edge_index)]) {
            creation_calm = false;
            break;
          }
        }
      }
      if (creation_calm) {
        for (std::size_t a = 0; a < num_automata; ++a) {
          if (inv_changed[a][static_cast<std::size_t>(entry.locs[a])]) {
            creation_calm = false;
            break;
          }
        }
      }
      if (creation_calm) {
        pre = entry.pre_differs ? entry.pre_zone : entry.zone;
        if (consts_equal) {
          state.zone = entry.zone;
        } else {
          state.zone = pre;
          gen_.extrapolate(state.zone);
        }
        pre_differs = !(pre == state.zone);
        ++stats_.warm_states_reused;
      } else {
        // Full replay of the recorded transition from the parent's NEW
        // zone; an emptied zone means the edit killed this state.
        state.zone = zones[static_cast<std::size_t>(entry.parent)];
        if (!gen_.replay(entry.edges, state, &pre, &pre_differs)) continue;
        ++stats_.warm_states_revalidated;
      }
    }
    alive[i] = 1;
    unchanged[i] = state.zone == entry.zone ? 1 : 0;
    zones[i] = state.zone;
    if (i > 0) has_live_child[static_cast<std::size_t>(entry.parent)] = 1;

    // Seed the arena unconditionally (seeds serve as parents even when
    // subsumed, which makes them dead on arrival); the inclusion bucket only
    // accepts non-subsumed zones, with the usual eviction discipline.
    const std::size_t hash = state.discrete_hash();
    const std::size_t shard_index = shard_of(hash, kNumShards);
    Shard& shard = shards_[shard_index];
    Bucket& bucket = bucket_of(shard, state, hash);
    const bool subsumed = cover_or_evict(shard, bucket, state.zone).has_value();
    if (subsumed) ++shard.subsumed;
    const std::size_t local = shard.arena.size();
    const std::uint64_t parent_id =
        i == 0 ? kNoParent : packed[static_cast<std::size_t>(entry.parent)];
    shard.arena.push_back(Stored{std::move(state), parent_id, entry.edges, std::move(pre),
                                 pre_differs, /*dead=*/subsumed});
    if (!subsumed)
      bucket.push_back(
          LiveZone{shard.arena.back().state.zone.raw(), static_cast<std::uint32_t>(local)});
    total_stored_.fetch_add(1, std::memory_order_relaxed);
    packed[i] = pack_id(shard_index, local);
    if (capture_) order_.push_back(packed[i]);
  }

  // Visit the seeds still live after the whole import, in ordinal order: a
  // seed covered at or after its arrival is represented by its coverer.
  if (visit) {
    for (std::size_t i = 0; i < n; ++i)
      if (alive[i] && !stored(packed[i]).dead) visit(stored(packed[i]).state, packed[i]);
  }

  // --- Cover carry-over for re-export: a pruned-successor obligation whose
  // parent and subsumer both survived still stands. A dropped subsumer
  // forces the parent out of the closed set below, so its coverage is
  // re-derived by fresh expansion instead.
  if (capture_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (const std::uint64_t o : anc.entries[i].covers) {
        if (!alive[static_cast<std::size_t>(o)]) continue;
        const std::size_t s = static_cast<std::size_t>(packed[o] & (kNumShards - 1));
        shards_[s].cover_events.emplace_back(packed[i], packed[o]);
      }
    }
  }

  // --- Closed states and the first frontier. A state is closed when its
  // whole successor neighbourhood provably regenerates identically: its own
  // zone is unchanged, no timing change can originate at any of its
  // locations, and every recorded cover of its pruned successors still
  // stands (alive, unchanged, and — since successors are compared after
  // extrapolation — the extrapolation did not shrink: consts nondecreasing).
  frontier_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i] || stored(packed[i]).dead) continue;
    const StoreEntry& entry = anc.entries[i];
    bool closed = unchanged[i] != 0;
    for (std::size_t a = 0; a < num_automata && closed; ++a)
      closed = calm[a][static_cast<std::size_t>(entry.locs[a])] != 0;
    if (closed && !entry.covers.empty()) {
      closed = consts_nondecreasing;
      for (std::size_t c = 0; c < entry.covers.size() && closed; ++c) {
        const std::size_t o = static_cast<std::size_t>(entry.covers[c]);
        closed = alive[o] != 0 && unchanged[o] != 0;
      }
    }
    // Childless cover-less seeds are always re-expanded. Such an entry is
    // either one the ancestor run never expanded (evicted by a larger zone
    // first, which the edit may have shrunk) or a quiescent/timelocked one,
    // which must be re-detected from this network's successor generation.
    if (!closed || (!has_live_child[i] && entry.covers.empty())) frontier_.push_back(packed[i]);
  }
  return true;
}

PassedStoreExport Reachability::build_export() const {
  PassedStoreExport out;
  out.edge_digests = edge_timing_digests(net_);
  out.inv_digests = invariant_digests(net_);
  out.lower = gen_.lower_consts();
  out.upper = gen_.upper_consts();
  out.num_clocks = net_.num_clocks();
  out.num_vars = net_.num_vars();
  out.num_automata = net_.num_automata();

  std::unordered_map<std::uint64_t, std::uint64_t> ordinal_of;
  ordinal_of.reserve(order_.size() * 2);
  for (std::size_t i = 0; i < order_.size(); ++i)
    ordinal_of.emplace(order_[i], static_cast<std::uint64_t>(i));

  out.entries.reserve(order_.size());
  for (const std::uint64_t id : order_) {
    const Stored& s = stored(id);
    StoreEntry entry;
    entry.parent = s.parent == kNoParent ? kNoStoreParent : ordinal_of.at(s.parent);
    entry.edges = s.edges;
    entry.locs = s.state.locs;
    entry.vars = s.state.vars;
    entry.zone = s.state.zone;
    entry.pre_differs = s.pre_differs;
    if (s.pre_differs) entry.pre_zone = s.pre_zone;
    out.entries.push_back(std::move(entry));
  }
  for (const Shard& shard : shards_) {
    for (const auto& [parent, subsumer] : shard.cover_events) {
      out.entries[static_cast<std::size_t>(ordinal_of.at(parent))].covers.push_back(
          ordinal_of.at(subsumer));
    }
  }
  for (StoreEntry& entry : out.entries) {
    std::sort(entry.covers.begin(), entry.covers.end());
    entry.covers.erase(std::unique(entry.covers.begin(), entry.covers.end()),
                       entry.covers.end());
  }
  return out;
}

ReachResult reachable(const ta::Network& net, const StateFormula& goal, ExploreOptions opts) {
  Reachability engine(net, goal, opts);
  const Reachability::WaveEnd end = engine.run_waves(nullptr, Reachability::Stop::kGoal);
  ReachResult result;
  result.reachable = end.goal.has_value();
  if (result.reachable) result.trace = engine.build_trace(*end.goal);
  result.stats = engine.snapshot_stats();
  return result;
}

}  // namespace psv::mc
