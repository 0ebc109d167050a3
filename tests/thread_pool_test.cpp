// ThreadPool / parallel_for / parallel_for_each unit tests: coverage,
// the claiming cap, exception propagation, nesting, roster-indexed
// fan-out results, and the bit-identity of parallelized kernels across
// thread counts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fl/fleet.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

using tensor::Tensor;

/// Restores the default global thread configuration when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadGuard guard;
  util::set_global_threads(4);
  int calls = 0;
  util::parallel_for(0, 0, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  util::parallel_for(5, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingletonRangeRunsInlineOnce) {
  ThreadGuard guard;
  util::set_global_threads(4);
  int calls = 0;
  const std::thread::id caller = std::this_thread::get_id();
  util::parallel_for(7, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 7);
    EXPECT_EQ(hi, 8);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, RangeIsCoveredExactlyOnce) {
  ThreadGuard guard;
  util::set_global_threads(4);
  constexpr int kN = 1000;
  std::vector<int> hits(kN, 0);  // chunks are disjoint: no data race
  util::parallel_for(0, kN, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)]++;
    }
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), kN);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  util::set_global_threads(4);
  EXPECT_THROW(
      util::parallel_for(0, 100, 1,
                         [&](std::int64_t lo, std::int64_t) {
                           if (lo >= 0) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must still be usable after an exceptional region.
  std::atomic<int> covered{0};
  util::parallel_for(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(covered.load(), 100);
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  ThreadGuard guard;
  util::set_global_threads(4);
  std::atomic<int> inner_chunks{0};
  util::parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    util::parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
      inner_chunks++;
      EXPECT_EQ(std::this_thread::get_id(), outer);
      EXPECT_EQ(lo, 0);
      EXPECT_EQ(hi, 64);
    });
  });
  // Each outer chunk saw exactly one (inline, full-range) inner call, so
  // the count equals the number of outer chunks: between 1 and 8.
  EXPECT_GE(inner_chunks.load(), 1);
  EXPECT_LE(inner_chunks.load(), 8);
}

TEST(ThreadPoolTest, OneThreadPoolSpawnsNoWorkers) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.worker_count(), 0);
  // A region runs as one full-range chunk on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  pool.parallel_region(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 64);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, GlobalThreadCountFollowsOverride) {
  ThreadGuard guard;
  util::set_global_threads(3);
  EXPECT_EQ(util::global_thread_count(), 3);
  util::set_global_threads(1);
  EXPECT_EQ(util::global_thread_count(), 1);
  // With one thread configured parallel_for must stay on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  util::parallel_for(0, 1 << 12, 1, [&](std::int64_t, std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// A throwing body in the inline branch (one chunk, or already inside a
// region) must not leave the caller flagged as inside a region: every later
// parallel_for on that thread would run serially.
TEST(ThreadPoolTest, ThrowingInlineRegionRestoresParallelism) {
  ThreadGuard guard;
  util::set_global_threads(4);
  EXPECT_THROW(util::global_pool().parallel_region(
                   0, 1, 1,
                   [](std::int64_t, std::int64_t) {
                     throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_FALSE(util::detail::in_parallel_region());
  std::atomic<int> chunks{0};
  util::parallel_for(0, 4, 1,
                     [&](std::int64_t, std::int64_t) { chunks++; });
  EXPECT_EQ(chunks.load(), 4);
}

TEST(ParallelForEachTest, EveryIndexRunsExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 4}) {
    util::set_global_threads(threads);
    for (std::size_t n : {0, 1, 3, 4, 5, 64, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      util::parallel_for_each(n, [&](std::size_t i) { hits[i]++; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << " at " << threads
            << " threads";
      }
    }
  }
}

// The cap is per thread: each participant takes at most one index beyond
// its static share, and no thread runs two participants of one region.
TEST(ParallelForEachTest, NoThreadRunsMoreThanItsShareAndOne) {
  ThreadGuard guard;
  auto check = [](int threads, std::size_t n, bool uneven) {
    std::mutex mu;
    std::map<std::thread::id, std::size_t> per_thread;
    util::parallel_for_each(n, [&](std::size_t i) {
      if (uneven && i < 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::lock_guard<std::mutex> lock(mu);
      per_thread[std::this_thread::get_id()]++;
    });
    const std::size_t participants =
        std::min(n, static_cast<std::size_t>(threads));
    const std::size_t largest_share = (n + participants - 1) / participants;
    EXPECT_LE(per_thread.size(), participants);
    std::size_t total = 0;
    for (const auto& [id, count] : per_thread) {
      EXPECT_LE(count, largest_share + 1)
          << n << " items at " << threads << " threads"
          << (uneven ? ", uneven" : "");
      total += count;
    }
    EXPECT_EQ(total, n);
  };
  for (int threads : {2, 4}) {
    util::set_global_threads(threads);
    for (std::size_t n : {3, 4, 5, 64, 1000}) {
      // Even, trivial items: a thread that wakes first can exhaust its cap
      // before the others wake, and must not take a second participant.
      check(threads, n, false);
      // Uneven items: the low indices are slow, so early claimers fall
      // behind and the others would take more than their share uncapped.
      check(threads, n, true);
    }
  }
}

TEST(ParallelForEachTest, FirstExceptionReachesCallerAfterRegion) {
  ThreadGuard guard;
  util::set_global_threads(4);
  std::atomic<int> in_flight{0};
  EXPECT_THROW(util::parallel_for_each(64,
                                       [&](std::size_t i) {
                                         if (i == 0) {
                                           throw std::runtime_error("boom");
                                         }
                                         in_flight++;
                                         std::this_thread::sleep_for(
                                             std::chrono::microseconds(200));
                                         in_flight--;
                                       }),
               std::runtime_error);
  // Every participant left its item before the exception reached here.
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_FALSE(util::detail::in_parallel_region());
  std::atomic<int> covered{0};
  util::parallel_for_each(100, [&](std::size_t) { covered++; });
  EXPECT_EQ(covered.load(), 100);
}

TEST(ParallelForEachTest, NestedCallRunsInlineInIndexOrder) {
  ThreadGuard guard;
  util::set_global_threads(4);
  std::vector<std::vector<std::size_t>> orders(8);
  util::parallel_for_each(8, [&](std::size_t outer) {
    const std::thread::id thread = std::this_thread::get_id();
    util::parallel_for_each(16, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), thread);
      orders[outer].push_back(i);
    });
  });
  std::vector<std::size_t> ascending(16);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  for (const std::vector<std::size_t>& order : orders) {
    EXPECT_EQ(order, ascending);
  }
}

// Claiming changes which thread trains a client and when it finishes, never
// where its update lands: with client 0 held back until every later client
// has finished, each update still sits at its roster index, bit-identical to
// a sequential loop's.
TEST(ParallelForEachTest, ParallelTrainKeepsRosterOrderWhenLaterClientsFinishFirst) {
  ThreadGuard guard;
  auto train_all = [](fl::Fleet& fleet, std::size_t i) {
    return fleet.client(i).train_cycle(fleet.server().global(),
                                       fleet.server().global_buffers(), {});
  };
  util::set_global_threads(1);
  fl::Fleet sequential_fleet = testing::make_fleet();
  std::vector<fl::ClientUpdate> expected;
  for (std::size_t i = 0; i < sequential_fleet.size(); ++i) {
    expected.push_back(train_all(sequential_fleet, i));
  }

  util::set_global_threads(4);
  fl::Fleet fleet = testing::make_fleet();
  std::vector<fl::Client*> roster;
  for (auto& c : fleet.clients()) roster.push_back(c.get());
  const std::size_t n = roster.size();
  std::mutex mu;
  std::vector<std::size_t> finish_order;
  std::atomic<std::size_t> later_done{0};
  const std::vector<fl::ClientUpdate> updates = fl::Fleet::parallel_train(
      roster, [&](fl::Client&, std::size_t i) {
        if (i == 0) {
          // Bounded, so a scheduling hiccup fails the order check below
          // instead of hanging.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (later_done.load() < n - 1 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        fl::ClientUpdate u = train_all(fleet, i);
        std::lock_guard<std::mutex> lock(mu);
        finish_order.push_back(i);
        if (i != 0) later_done++;
        return u;
      });
  ASSERT_EQ(finish_order.size(), n);
  EXPECT_EQ(finish_order.back(), 0u);
  ASSERT_EQ(updates.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(updates[i].client_id, roster[i]->id());
    EXPECT_TRUE(testing::bitwise_equal(updates[i].params, expected[i].params))
        << "update " << i;
    EXPECT_EQ(updates[i].mean_loss, expected[i].mean_loss) << "update " << i;
  }
}

/// Runs `fn()` under 1 and 4 global threads and EXPECTs bitwise-equal
/// tensor results.
template <typename Fn>
void expect_bit_identical(Fn fn) {
  util::set_global_threads(1);
  const Tensor sequential = fn();
  util::set_global_threads(4);
  const Tensor parallel = fn();
  ASSERT_EQ(sequential.shape(), parallel.shape());
  EXPECT_EQ(std::memcmp(sequential.data(), parallel.data(),
                        sequential.numel() * sizeof(float)),
            0);
}

TEST(ParallelKernelsTest, MatmulBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // 160^3 ≈ 4M MACs: comfortably past kIntraOpMinWork.
  util::Rng rng(123);
  const Tensor a = Tensor::randn({160, 160}, rng);
  const Tensor b = Tensor::randn({160, 160}, rng);
  std::vector<std::uint8_t> mask(160, 1);
  for (int i = 0; i < 160; i += 3) mask[static_cast<std::size_t>(i)] = 0;

  expect_bit_identical([&] { return tensor::matmul(a, b); });
  expect_bit_identical([&] {
    Tensor c({160, 160});
    tensor::matmul_masked_rows_into(a, b, mask, c);
    return c;
  });
  expect_bit_identical([&] {
    Tensor c = Tensor::zeros({160, 160});
    tensor::matmul_tn_masked_accumulate(a, b, mask, c);
    return c;
  });
  expect_bit_identical([&] {
    Tensor c({160, 160});
    tensor::matmul_nt_masked_cols_into(a, b, mask, c);
    return c;
  });
  expect_bit_identical([&] {
    Tensor c = Tensor::zeros({160, 160});
    tensor::matmul_nn_masked_inner_accumulate(a, b, mask, c);
    return c;
  });
  expect_bit_identical([&] {
    Tensor c({160, 160});
    tensor::matmul_tn_masked_out_rows_into(a, b, mask, c);
    return c;
  });
  expect_bit_identical([&] {
    Tensor c = Tensor::zeros({160, 160});
    tensor::matmul_nt_masked_rows_accumulate(a, b, mask, c);
    return c;
  });
}

TEST(ParallelKernelsTest, Conv2dForwardBackwardBitIdentical) {
  ThreadGuard guard;
  // 16 samples of 3x32x32 through 16 3x3 filters: past the intra-op gate
  // for both forward and the fixed-chunk backward.
  util::Rng data_rng(7);
  const Tensor x = Tensor::randn({16, 3, 32, 32}, data_rng);
  const Tensor gy = Tensor::randn({16, 16, 32, 32}, data_rng);

  auto run = [&](int threads, Tensor& dw, Tensor& db) {
    util::set_global_threads(threads);
    util::Rng rng(11);
    nn::Conv2d conv(3, 32, 32, 16, 3, 1, 1, &rng, /*maskable=*/true);
    Tensor y = conv.forward(x, /*training=*/true);
    Tensor dx = conv.backward(gy);
    dw = *conv.grads()[0];
    db = *conv.grads()[1];
    // Pack y and dx together so one comparison covers both.
    Tensor packed({static_cast<int>(y.numel() + dx.numel())});
    std::memcpy(packed.data(), y.data(), y.numel() * sizeof(float));
    std::memcpy(packed.data() + y.numel(), dx.data(),
                dx.numel() * sizeof(float));
    return packed;
  };

  Tensor dw1, db1, dw4, db4;
  util::set_global_threads(1);
  const Tensor seq = run(1, dw1, db1);
  const Tensor par = run(4, dw4, db4);
  EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                        seq.numel() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(dw1.data(), dw4.data(),
                        dw1.numel() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(db1.data(), db4.data(),
                        db1.numel() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace helios
