// Persistent fork-join worker pool: the project's one thread runtime
// (DESIGN.md §2.8).
//
// SEAL scores every candidate link independently, so each parallel stage —
// dataset build, trainer batches, predict_links, the serving runtime, the
// WLNM / SimRank / pair-feature baselines — is a flat loop over independent
// items.  run() is a blocking fork-join over [0, n): items are claimed from a
// shared atomic counter (dynamic schedule), each item writes only its own
// outputs, and failures funnel through util::WorkerErrorCollector — after
// the join the lowest failing item is rethrown as util::WorkerError with
// stage context, deterministically for any worker count.
//
// The calling thread runs items as worker 0, so an N-worker pool spawns N-1
// threads (a 1-worker pool spawns none).  Between jobs the spawned workers
// spin for a bounded time before parking on a condition variable, so
// back-to-back jobs (trainer batches, serving requests) start without a
// wake-up while an idle pool costs no CPU once the bound has passed.  A
// spinner yields its core every few microseconds, so it never keeps a
// runnable thread (the Server's client, another process) off the CPU.
// Threads stay alive for the pool's lifetime, so everything a worker owns —
// its inference arena, its tensor buffer pool and its extraction scratch —
// stays warm from one job to the next.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel_error.h"

namespace amdgcnn::util {

/// Misuse of a pool or of a runtime built on one (run or submit after
/// shutdown, invalid sizes) — distinct from WorkerError, which wraps
/// failures raised by the work itself.
class PoolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WorkerPool {
 public:
  /// Worker function: invoked once per item with the claiming worker's index
  /// in [0, num_workers) — 0 is the thread that called run().  The index
  /// selects per-worker scratch; it must never influence output bytes (that
  /// is what keeps results identical for any worker count).
  using WorkFn = std::function<void(std::int64_t item, int worker)>;

  /// Spawns `num_workers` - 1 (>= 0) threads; throws PoolError when
  /// `num_workers` < 1.
  explicit WorkerPool(int num_workers);
  ~WorkerPool();  // implies shutdown()

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Blocking fork-join: run fn(item, worker) for every item in [0, n), the
  /// calling thread taking part as worker 0.  Exceptions thrown by fn are
  /// collected per item; after the join the failure with the LOWEST item
  /// index is rethrown as util::WorkerError ("<stage>: worker failed at item
  /// N: ...") with the original nested.  Calls from other threads wait for
  /// the job in flight.  A call made from inside a worker of any pool runs
  /// all n items inline on that thread as worker 0 (nested loops never wait
  /// on a pool).  Throws PoolError if the pool is shut down.
  void run(const char* stage, std::int64_t n, const WorkFn& fn);

  /// Stop and join the threads.  Waits for an in-flight run() to finish
  /// first (graceful); idempotent — a second call returns immediately.
  /// After shutdown, run() throws PoolError.
  void shutdown();
  bool closed() const { return stop_.load(std::memory_order_acquire); }

 private:
  void worker_loop(int id);

  const int num_workers_;
  std::mutex run_mu_;  // held by run() for a whole job: one job at a time

  // Parking.  job_seq_ and stop_ change only under mu_, so a parked thread's
  // predicate cannot miss an update; spinning threads read them lock-free.
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new job available / stop
  std::condition_variable done_cv_;  // caller: every worker left the job
  std::atomic<std::uint64_t> job_seq_{0};
  std::atomic<bool> stop_{false};

  // Current job: written by run() before open_ is set, read only by workers
  // that counted themselves in active_ and then found open_ set, stable
  // until run() has cleared open_ and seen active_ reach 0.
  std::int64_t job_n_ = 0;
  const WorkFn* job_fn_ = nullptr;
  WorkerErrorCollector* job_errors_ = nullptr;
  std::atomic<std::int64_t> next_{0};  // next unclaimed item
  std::atomic<bool> open_{false};      // job fields valid, items may remain
  std::atomic<int> active_{0};         // spawned workers inside the job

  std::vector<std::thread> threads_;  // last: started after the state above
};

/// Run fn(i) for every i in [0, n) on `threads` workers.
///   threads == 0: a plain serial loop on the calling thread; exceptions
///                 propagate unwrapped.
///   threads >= 1: WorkerPool::run on a process-wide pool of that many
///                 workers (created on first use, kept for the process
///                 lifetime), with its dynamic schedule and lowest-index
///                 WorkerError.  A call from inside a worker runs inline.
/// Negative `threads` throws std::invalid_argument.
void parallel_for(const char* stage, std::int64_t threads, std::int64_t n,
                  const std::function<void(std::int64_t)>& fn);

/// Hardware threads of this host (std::thread::hardware_concurrency, at
/// least 1): the worker count for callers that want "every core".
std::int64_t hardware_threads();

}  // namespace amdgcnn::util
