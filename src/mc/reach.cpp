#include "mc/reach.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace psv::mc {

namespace {

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

/// Cooperative cancellation, honoured between waves only, so a run either
/// finishes a wave or abandons the whole exploration.
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
      gen_(net, merge_clock_consts(formula_clock_constants(net, goal), extra_clock_consts)) {}

Reachability::Bucket& Reachability::bucket_of(const SymState& state) {
  const std::size_t hash = state.discrete_hash();
  auto it = passed_.find(DiscreteProbe{state, hash});
  if (it == passed_.end())
    it = passed_.emplace(DiscreteKey{state.locs, state.vars, hash}, Bucket{}).first;
  return it->second;
}

std::optional<std::uint32_t> Reachability::cover_or_evict(Bucket& bucket, const dbm::Dbm& zone) {
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
      arena_[live.index].dead = true;
      continue;
    }
    bucket[kept++] = live;
  }
  bucket.resize(kept);
  return std::nullopt;
}

std::optional<std::uint64_t> Reachability::insert(SymSuccessor&& succ, std::uint64_t parent) {
  Bucket& bucket = bucket_of(succ.state);
  if (const auto idx = cover_or_evict(bucket, succ.state.zone)) {
    ++stats_.subsumed;
    // The subsumer now covers every behavior of the pruned successor; the
    // export records that obligation against the parent.
    if (capture_ && parent != kNoParent) cover_events_.emplace_back(parent, *idx);
    return std::nullopt;
  }
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, arena_.size() < opts_.max_states,
                 "state-space exploration exceeded the configured limit of " +
                     std::to_string(opts_.max_states) + " states");
  const std::uint64_t id = arena_.size();
  arena_.push_back(Stored{std::move(succ.state), parent, std::move(succ.edges),
                          std::move(succ.pre_zone), succ.pre_differs});
  bucket.push_back(LiveZone{arena_.back().state.zone.raw(), static_cast<std::uint32_t>(id)});
  return id;
}

void Reachability::seed_initial() {
  SymSuccessor init;
  init.state = gen_.initial();
  const auto id = insert(std::move(init), kNoParent);
  PSV_ASSERT(id.has_value(), "initial state must be stored");
  frontier_.assign(1, *id);
}

ExploreStats Reachability::snapshot_stats() const {
  ExploreStats stats = stats_;
  stats.states_stored = arena_.size();
  return stats;
}

Trace Reachability::build_trace(std::uint64_t id) const {
  std::vector<std::uint64_t> chain;
  for (std::uint64_t cursor = id; cursor != kNoParent; cursor = arena_[cursor].parent)
    chain.push_back(cursor);
  std::reverse(chain.begin(), chain.end());
  Trace trace;
  for (std::uint64_t link : chain) {
    const Stored& entry = arena_[link];
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
        if (satisfies(net_, arena_[id].state, goal_)) {
          end.goal = id;
          return end;
        }
      }
    }
    if (first_warm_wave) {
      stats_.warm_seed_expansions += frontier_.size();
      first_warm_wave = false;
    }
    stats_.states_explored += frontier_.size();
    std::vector<std::uint64_t> next;
    for (const std::uint64_t id : frontier_) {
      if (visit && !skip_visit) visit(arena_[id].state, id);
      // Inserting grows the arena, so the successors are taken whole before
      // the first insert.
      std::vector<SymSuccessor> succs = gen_.successors(arena_[id].state);
      // Stored zones are delay-closed, so "no action successor" means no
      // action can ever be taken from any valuation in this state; it is a
      // timelock when the locations also stop time. LU-simulation preserves
      // whether a zone has a successor, and the locations decide whether
      // time is bounded, so the stored (abstracted) zone is not consulted.
      if (succs.empty()) {
        std::optional<std::uint64_t>& first =
            gen_.time_bounded(arena_[id].state.locs) ? end.timelock : end.quiescent;
        if (!first) first = id;
      }
      stats_.transitions_fired += succs.size();
      for (SymSuccessor& succ : succs)
        if (const auto child = insert(std::move(succ), id)) next.push_back(*child);
    }
    skip_visit = false;
    // A zone evicted later in the same wave is covered by a live one with
    // the same discrete state: expanding it would only regenerate subsumed
    // work.
    std::erase_if(next, [this](std::uint64_t id) { return arena_[id].dead; });
    frontier_ = std::move(next);
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
  for (const auto& [key, bucket] : passed_)
    for (const LiveZone& zone : bucket) live.push_back(&arena_[zone.index].state);
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
  std::vector<std::uint64_t> id_of(n, 0);

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
    Bucket& bucket = bucket_of(state);
    const bool subsumed = cover_or_evict(bucket, state.zone).has_value();
    if (subsumed) ++stats_.subsumed;
    id_of[i] = arena_.size();
    const std::uint64_t parent_id =
        i == 0 ? kNoParent : id_of[static_cast<std::size_t>(entry.parent)];
    arena_.push_back(Stored{std::move(state), parent_id, entry.edges, std::move(pre), pre_differs,
                            /*dead=*/subsumed});
    if (!subsumed)
      bucket.push_back(
          LiveZone{arena_.back().state.zone.raw(), static_cast<std::uint32_t>(id_of[i])});
  }

  // Visit the seeds still live after the whole import, in ordinal order: a
  // seed covered at or after its arrival is represented by its coverer.
  if (visit) {
    for (std::size_t i = 0; i < n; ++i)
      if (alive[i] && !arena_[id_of[i]].dead) visit(arena_[id_of[i]].state, id_of[i]);
  }

  // --- Cover carry-over for re-export: a pruned-successor obligation whose
  // parent and subsumer both survived still stands. A dropped subsumer
  // forces the parent out of the closed set below, so its coverage is
  // re-derived by fresh expansion instead.
  if (capture_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (const std::uint64_t o : anc.entries[i].covers) {
        if (alive[static_cast<std::size_t>(o)]) cover_events_.emplace_back(id_of[i], id_of[o]);
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
    if (!alive[i] || arena_[id_of[i]].dead) continue;
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
    if (!closed || (!has_live_child[i] && entry.covers.empty())) frontier_.push_back(id_of[i]);
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

  // Ids are arena indices, appended in exploration order: each one is its
  // entry's ordinal, and kNoParent is kNoStoreParent.
  out.entries.reserve(arena_.size());
  for (const Stored& s : arena_) {
    StoreEntry entry;
    entry.parent = s.parent;
    entry.edges = s.edges;
    entry.locs = s.state.locs;
    entry.vars = s.state.vars;
    entry.zone = s.state.zone;
    entry.pre_differs = s.pre_differs;
    if (s.pre_differs) entry.pre_zone = s.pre_zone;
    out.entries.push_back(std::move(entry));
  }
  for (const auto& [parent, subsumer] : cover_events_)
    out.entries[static_cast<std::size_t>(parent)].covers.push_back(subsumer);
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
