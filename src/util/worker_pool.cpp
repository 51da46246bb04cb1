#include "util/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

namespace amdgcnn::util {

namespace {

/// How long an idle thread spins before it parks: a spinning worker picks
/// up the next job in well under a microsecond, a parked one pays a futex
/// wake-up (tens of microseconds).  2 ms covers the serial gap between two
/// trainer batches and between two requests of a closed-loop client, and
/// caps the CPU an idle pool burns at 2 ms per worker per job.
constexpr auto kSpin = std::chrono::milliseconds(2);

/// True while this thread runs items of some pool's job (spawned workers
/// for their whole life, a run() caller while it takes part as worker 0).
thread_local bool t_in_worker = false;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin on `ready` for up to kSpin; true when it became true in time.
///
/// Every 256 pauses (a few microseconds) the spinner also yields its core.
/// A pool can have more runnable threads than cores: a Server's client
/// thread and its dispatcher (worker 0) take turns beside N-1 spinners, and
/// other processes share the host.  A thread woken onto a spinner's core
/// would otherwise wait out the spinner's time slice: with a plain pause
/// loop, one competing CPU-bound thread made serve-cold 3.3x slower, while
/// a parked pool lost about a quarter (DESIGN.md §2.8).  With nothing else
/// runnable the yield returns at once.
template <typename Ready>
bool spin_until(Ready&& ready) {
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned k = 1;; ++k) {
    if (ready()) return true;
    cpu_relax();
    if (k % 256 == 0) {
      if (std::chrono::steady_clock::now() - t0 > kSpin) return false;
      std::this_thread::yield();
    }
  }
}

/// Claim items from `next` until [0, n) is exhausted.
void drain(std::atomic<std::int64_t>& next, std::int64_t n,
           const WorkerPool::WorkFn& fn, WorkerErrorCollector& errors,
           int worker) {
  for (;;) {
    const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i, worker);
    } catch (...) {
      errors.capture(i);
    }
  }
}

}  // namespace

WorkerPool::WorkerPool(int num_workers) : num_workers_(num_workers) {
  if (num_workers < 1)
    throw PoolError("WorkerPool: num_workers must be >= 1");
  threads_.reserve(static_cast<std::size_t>(num_workers - 1));
  try {
    for (int id = 1; id < num_workers; ++id)
      threads_.emplace_back([this, id] { worker_loop(id); });
  } catch (...) {
    shutdown();  // join the threads already started
    throw;
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::run(const char* stage, std::int64_t n, const WorkFn& fn) {
  if (t_in_worker) {
    // Nested inside another job: every other worker may be busy in that
    // job, so waiting for one could deadlock.  Run the items here.
    if (closed()) throw PoolError("WorkerPool::run: pool is shut down");
    WorkerErrorCollector errors;
    std::atomic<std::int64_t> next{0};
    drain(next, n, fn, errors, 0);
    errors.rethrow(stage);
    return;
  }

  const std::lock_guard<std::mutex> job(run_mu_);
  if (closed()) throw PoolError("WorkerPool::run: pool is shut down");
  if (n <= 0) return;
  WorkerErrorCollector errors;
  job_n_ = n;
  job_fn_ = &fn;
  job_errors_ = &errors;
  next_.store(0, std::memory_order_relaxed);
  open_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_seq_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();  // parked workers; spinning ones see job_seq_

  t_in_worker = true;
  drain(next_, n, fn, errors, 0);
  t_in_worker = false;

  // Join: every item is claimed.  Close the job, then wait for the workers
  // inside it, which read it through pointers into this frame.  Closing and
  // entering are seq_cst on both sides (close, then read active_; count in
  // active_, then read open_), so a worker that enters after the caller saw
  // active_ at 0 finds the job closed and leaves without reading it.  A
  // worker that got no core while the items lasted never holds up the join.
  open_.store(false, std::memory_order_seq_cst);
  const auto joined = [&] {
    return active_.load(std::memory_order_seq_cst) == 0;
  };
  if (!spin_until(joined)) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, joined);
  }
  errors.rethrow(stage);
}

void WorkerPool::shutdown() {
  // run_mu_: let an in-flight job complete first.
  const std::lock_guard<std::mutex> job(run_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return;
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void WorkerPool::worker_loop(int id) {
  t_in_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t seq = seen;
    const auto woken = [&] {
      seq = job_seq_.load(std::memory_order_acquire);
      return seq != seen || stop_.load(std::memory_order_acquire);
    };
    if (!spin_until(woken)) {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, woken);
    }
    // run() holds run_mu_ until its job is closed and empty, and
    // shutdown() takes run_mu_ too, so stop_ is never set with a job
    // outstanding: an unchanged sequence number means stop.
    if (seq == seen) return;
    seen = seq;
    // The job open now may be a later one than `seq` (this worker was slow
    // to start); being counted in active_ first makes joining it safe.
    active_.fetch_add(1, std::memory_order_seq_cst);
    if (open_.load(std::memory_order_seq_cst))
      drain(next_, job_n_, *job_fn_, *job_errors_, id);
    if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Under mu_, so a caller that checked active_ and is about to park
      // cannot miss the notification.
      const std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

void parallel_for(const char* stage, std::int64_t threads, std::int64_t n,
                  const std::function<void(std::int64_t)>& fn) {
  if (threads < 0)
    throw std::invalid_argument("parallel_for: threads must be >= 0");
  if (threads == 0) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One pool per worker count, never destroyed: its threads' thread-local
  // state must outlive every static it might touch at exit.
  static std::mutex pools_mu;
  static auto* pools = new std::map<std::int64_t, std::unique_ptr<WorkerPool>>;
  WorkerPool* pool;
  {
    const std::lock_guard<std::mutex> lock(pools_mu);
    auto& slot = (*pools)[threads];
    if (!slot) slot = std::make_unique<WorkerPool>(static_cast<int>(threads));
    pool = slot.get();
  }
  pool->run(stage, n, [&fn](std::int64_t i, int) { fn(i); });
}

std::int64_t hardware_threads() {
  return std::max<std::int64_t>(1, std::thread::hardware_concurrency());
}

}  // namespace amdgcnn::util
