// Thread pool, a deterministic parallel_for and a claimed parallel_for_each.
//
// Helios parallelizes at two levels (DESIGN.md, "Threading model"):
//   * item-level — parallel_for_each fans out independent items: a round's
//     client updates (Fleet::parallel_train), its wire encodes and decodes,
//     the aggregator tree's edge folds and regional merges,
//   * intra-op   — the matmul kernels in tensor/ops.cpp and the im2col
//     conv2d split output rows / filters / batch samples across the pool
//     with parallel_for's static chunks.
//
// Determinism contract: both loops only decide WHERE an index runs, never
// what it computes. parallel_for partitions the output index range into
// contiguous static chunks, each produced with the sequential loop's inner
// accumulation order; parallel_for_each runs each index once and its
// callers store results by index. Results are bit-identical for any thread
// count (HELIOS_THREADS=1 and =4 agree to the last bit; see
// tests/determinism_test.cpp).
//
// Claiming: items are uneven (a masked straggler trains a fraction of a
// full cycle, a lazy client first builds its replica and shard), so a
// static split leaves threads idle while the slowest slice finishes.
// parallel_for_each's participants instead take the next unclaimed index
// from a shared counter, each at most one index beyond its static share:
// a lazy client's replica and shard are allocated in the claiming thread's
// malloc arena, and uneven per-thread counts would grow every arena to its
// worst round. A region's chunks run on distinct threads (chunk c on worker
// c - 1), so the cap holds per thread.
//
// Sizing: the global pool reads HELIOS_THREADS (positive integer) once, or
// takes a programmatic override via set_global_threads(); it defaults to
// std::thread::hardware_concurrency(). A 1-thread configuration spawns no
// worker threads at all and both loops degenerate to inline calls.
//
// Nesting: a parallel_for or parallel_for_each issued from inside a pool
// worker — or from inside another region — runs inline (parallel_for_each
// in ascending index order). Inline nesting makes blocking on inner regions
// deadlock-free; a one-item parallel_for_each opens no region, so the
// kernels under a lone client still use the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace helios::util {

class ThreadPool {
 public:
  /// A pool of total concurrency `threads` (clamped to >= 1): the caller of
  /// parallel_region participates, so only `threads - 1` workers are
  /// spawned. ThreadPool(1) spawns no threads.
  explicit ThreadPool(int threads);
  /// Joins the workers once each has run the region chunks in its inbox.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }
  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Splits [begin, end) into at most size() contiguous chunks of at least
  /// `grain` elements, runs `body(lo, hi)` for each (chunk 0 on the calling
  /// thread, chunk c on worker c - 1), and blocks until all complete. The
  /// first exception thrown by any chunk is rethrown on the caller after the
  /// region finishes.
  void parallel_region(
      std::int64_t begin, std::int64_t end, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t)>& body);

 private:
  void worker_loop(std::size_t w);

  int size_;
  std::vector<std::thread> workers_;
  /// Region chunks, one queue per worker.
  std::vector<std::deque<std::function<void()>>> inboxes_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Thread count the global pool is (or will be) built with: the
/// set_global_threads override, else HELIOS_THREADS, else
/// hardware_concurrency.
int global_thread_count();

/// Overrides the global pool size (n >= 1), rebuilding the pool; n = 0
/// clears the override back to HELIOS_THREADS / hardware defaults. Call
/// only while no parallel work is in flight (tests and benches do this
/// between runs).
void set_global_threads(int n);

/// The lazily constructed process-wide pool (built on first parallel use).
ThreadPool& global_pool();

namespace detail {
/// True on pool workers and inside a region's chunks: nested regions run
/// inline there.
bool in_parallel_region();
/// Global pool if it should be used for a new region, else nullptr
/// (1-thread configuration — never constructs a pool in that case).
ThreadPool* pool_for_new_region();
}  // namespace detail

/// Deterministic static-chunk parallel loop over [begin, end): `body` is
/// invoked on contiguous sub-ranges that cover the range exactly once, in
/// parallel when the global pool has more than one thread and the range
/// exceeds `grain`, inline otherwise. Exceptions propagate to the caller.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Body&& body) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  if (grain < 1) grain = 1;
  if (range <= grain || detail::in_parallel_region()) {
    body(begin, end);
    return;
  }
  ThreadPool* pool = detail::pool_for_new_region();
  if (!pool) {
    body(begin, end);
    return;
  }
  Body& ref = body;  // materialize the forwarding reference once
  pool->parallel_region(
      begin, end, grain,
      [&ref](std::int64_t lo, std::int64_t hi) { ref(lo, hi); });
}

/// Claimed loop over [0, n): runs `fn(i)` exactly once for every i. With
/// more than one item and thread, min(n, threads) participants (the caller
/// among them) each take the next unclaimed index from a shared counter,
/// at most one beyond their static share of n, so an idle thread takes the
/// next item instead of waiting for the slowest static slice. Inside a
/// parallel region, and with one thread configured, runs inline in
/// ascending index order; a single item runs inline outside any region.
/// The first exception thrown reaches the caller after the region.
template <typename Fn>
void parallel_for_each(std::size_t n, Fn&& fn) {
  ThreadPool* pool = n > 1 && !detail::in_parallel_region()
                         ? detail::pool_for_new_region()
                         : nullptr;
  if (!pool) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const auto participants = static_cast<std::int64_t>(
      std::min<std::size_t>(n, static_cast<std::size_t>(pool->size())));
  const auto share_end = [&](std::int64_t p) {
    return n * static_cast<std::size_t>(p) /
           static_cast<std::size_t>(participants);
  };
  std::atomic<std::size_t> next{0};
  Fn& ref = fn;  // materialize the forwarding reference once
  pool->parallel_region(
      0, participants, 1, [&](std::int64_t p, std::int64_t) {
        const std::size_t cap = share_end(p + 1) - share_end(p) + 1;
        for (std::size_t taken = 0; taken < cap; ++taken) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          ref(i);
        }
      });
}

}  // namespace helios::util
