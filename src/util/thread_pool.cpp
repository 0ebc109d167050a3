#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>

namespace helios::util {
namespace {

/// Set on pool workers for their whole lifetime and on any thread while it
/// executes a parallel_region chunk.
thread_local bool t_in_parallel_region = false;

/// Sets t_in_parallel_region for a scope and restores the previous value on
/// any exit, a throwing body included.
class RegionFlag {
 public:
  RegionFlag() : saved_(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionFlag() { t_in_parallel_region = saved_; }
  RegionFlag(const RegionFlag&) = delete;
  RegionFlag& operator=(const RegionFlag&) = delete;

 private:
  bool saved_;
};

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int env_threads() {
  const char* s = std::getenv("HELIOS_THREADS");
  if (s && *s) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && *end == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, 1024));
    }
  }
  return hardware_threads();
}

struct GlobalPoolState {
  std::mutex mu;
  int override_threads = 0;  // 0 = no override
  std::unique_ptr<ThreadPool> pool;
};

GlobalPoolState& global_state() {
  static GlobalPoolState state;
  return state;
}

int resolved_threads(const GlobalPoolState& state) {
  return state.override_threads > 0 ? state.override_threads : env_threads();
}

/// Cached resolved thread count (0 = unresolved): global_thread_count sits
/// on the kernels' parallel-gating path, so the common case must be one
/// relaxed atomic load, not a mutex.
std::atomic<int> g_cached_threads{0};

}  // namespace

ThreadPool::ThreadPool(int threads)
    : size_(std::max(1, threads)),
      inboxes_(static_cast<std::size_t>(size_ - 1)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (std::size_t w = 0; w < inboxes_.size(); ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t w) {
  t_in_parallel_region = true;  // workers never open nested regions
  std::deque<std::function<void()>>& inbox = inboxes_[w];
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !inbox.empty(); });
      if (inbox.empty()) return;  // stop requested and inbox drained
      task = std::move(inbox.front());
      inbox.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_region(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  if (grain < 1) grain = 1;
  const std::int64_t max_chunks = (range + grain - 1) / grain;
  const int nchunks = static_cast<int>(
      std::min<std::int64_t>({max_chunks, size_, range}));
  if (nchunks <= 1 || t_in_parallel_region) {
    const RegionFlag flag;
    body(begin, end);
    return;
  }

  struct Region {
    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
    std::exception_ptr error;
  } region;

  auto run_chunk = [&](int c) {
    const std::int64_t lo = begin + range * c / nchunks;
    const std::int64_t hi = begin + range * (c + 1) / nchunks;
    try {
      const RegionFlag flag;
      if (lo < hi) body(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(region.mu);
      if (!region.error) region.error = std::current_exception();
    }
    // The notify must happen under the region lock: once `done` reaches
    // nchunks the caller may return and destroy `region`.
    std::lock_guard<std::mutex> lock(region.mu);
    if (++region.done == nchunks) region.cv.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Shutdown racing a new region: run it inline instead of enqueueing.
      for (int c = 1; c < nchunks; ++c) run_chunk(c);
    } else {
      // Chunk c goes to worker c - 1, so no thread runs two chunks of one
      // region (parallel_for_each caps work per participant).
      for (int c = 1; c < nchunks; ++c) {
        inboxes_[static_cast<std::size_t>(c - 1)].push_back(
            [&run_chunk, c] { run_chunk(c); });
      }
    }
  }
  cv_.notify_all();
  run_chunk(0);

  std::unique_lock<std::mutex> lock(region.mu);
  region.cv.wait(lock, [&] { return region.done == nchunks; });
  if (region.error) std::rethrow_exception(region.error);
}

int global_thread_count() {
  const int cached = g_cached_threads.load(std::memory_order_relaxed);
  if (cached > 0) return cached;
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mu);
  const int threads = resolved_threads(state);
  g_cached_threads.store(threads, std::memory_order_relaxed);
  return threads;
}

void set_global_threads(int n) {
  if (n < 0) throw std::invalid_argument("set_global_threads: negative n");
  GlobalPoolState& state = global_state();
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.override_threads = n;
    g_cached_threads.store(resolved_threads(state),
                           std::memory_order_relaxed);
    old = std::move(state.pool);  // rebuilt lazily at the new size
  }
  // Old pool (if any) drains and joins outside the state lock.
}

ThreadPool& global_pool() {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.pool) {
    state.pool = std::make_unique<ThreadPool>(resolved_threads(state));
  }
  return *state.pool;
}

namespace detail {

bool in_parallel_region() { return t_in_parallel_region; }

ThreadPool* pool_for_new_region() {
  if (global_thread_count() <= 1) return nullptr;  // never builds a pool
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.pool) {
    state.pool = std::make_unique<ThreadPool>(resolved_threads(state));
  }
  return state.pool->size() > 1 ? state.pool.get() : nullptr;
}

}  // namespace detail
}  // namespace helios::util
