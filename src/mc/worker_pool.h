// A small persistent thread pool with a chunked work-stealing parallel_for.
//
// The bound sweep runs a widening round's speculative candidate explorations
// on it (mc/query.cpp). Workers park on a condition variable between
// batches. The calling thread participates in every batch, so WorkerPool(0
// extra threads) degenerates to a plain loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psv::mc {

/// Resolve an ExploreOptions::jobs value to an actual thread count: 0 means
/// one per hardware thread, clamped to the engine-wide ceiling.
unsigned resolve_jobs(unsigned jobs);

class WorkerPool {
 public:
  /// Spawns `extra_threads` workers (the caller of parallel_for is the
  /// remaining worker, so total parallelism is extra_threads + 1).
  explicit WorkerPool(unsigned extra_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs body(i) for every i in [0, n), distributing chunks of indices to
  /// the pool plus the calling thread via an atomic cursor (work stealing at
  /// chunk granularity). Returns after all indices completed.
  ///
  /// Exceptions: every index is attempted even if an earlier one threw; the
  /// exception raised at the smallest index is rethrown to the caller once
  /// the batch drains. Since body(i) is expected to be deterministic per
  /// index, the surfaced exception does not depend on thread interleaving.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Total parallelism of a batch (extra threads + the caller).
  unsigned width() const { return static_cast<unsigned>(threads_.size()) + 1; }

 private:
  void worker_loop();
  /// Drain chunks of the current batch; records the min-index exception.
  void drain();

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< bumped per batch; workers wake on change
  unsigned active_ = 0;           ///< workers still draining the batch
  bool stop_ = false;

  // Current batch (valid while active_ > 0 or the caller drains).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> cursor_{0};

  // Min-index exception of the batch (mutex_-protected).
  std::exception_ptr error_;
  std::size_t error_index_ = 0;

  std::vector<std::thread> threads_;
};

}  // namespace psv::mc
