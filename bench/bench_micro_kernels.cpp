// Micro-kernel benchmarks (google-benchmark):
//  * the Sec. V footnote claim — the per-cycle top-K contribution sort is
//    negligible next to a training step (paper: ~18 ms vs ~12 min);
//  * masked vs dense matmul (soft-training's compute saving);
//  * conv forward, per-neuron aggregation, and cost-model evaluation;
//  * the two NT GEMMs and im2col on the shapes the benchmark's workloads
//    run (single thread; Args are m, k, n or the conv geometry);
//  * thread-scaling variants of the parallelized kernels at 1/2/4 threads.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/soft_training.h"
#include "data/loader.h"
#include "device/cost_model.h"
#include "fl/server.h"
#include "fl/submodel.h"
#include "nn/conv2d.h"
#include "nn/sgd.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace {

using namespace helios;

void BM_MatmulDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, {}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulDense)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulMaskedHalf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) mask[static_cast<std::size_t>(i)] = i % 2;
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, mask, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);  // half the MACs
}
BENCHMARK(BM_MatmulMaskedHalf)->Arg(128)->Arg(256);

void BM_LeNetTrainStep(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 3);
  nn::Sgd opt(0.05F);
  util::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::randn({16, 1, 28, 28}, rng);
  std::vector<int> labels(16);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_int(10));
  for (auto _ : state) {
    const auto r = nn::train_step(model, opt, x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
}
BENCHMARK(BM_LeNetTrainStep);

// The Sec. V footnote: per-cycle soft-training selection (contribution
// update + per-layer top-K sort + random fill) vs the training cost above.
void BM_SoftTrainingSelection(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 5);
  core::SoftTrainerConfig cfg;
  cfg.keep_ratio = 0.3;
  core::SoftTrainer trainer(model, cfg);
  auto before = model.params_flat();
  auto after = before;
  util::Rng rng(6);
  for (float& v : after) v += static_cast<float>(rng.normal()) * 0.01F;
  for (auto _ : state) {
    trainer.update_contributions(before, after, {});
    auto mask = trainer.select_mask();
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_SoftTrainingSelection);

void BM_ServerAggregate4Clients(benchmark::State& state) {
  fl::Server server(models::make_lenet({1, 28, 28, 10}, 7));
  util::Rng rng(8);
  std::vector<fl::ClientUpdate> updates(4);
  for (int i = 0; i < 4; ++i) {
    updates[static_cast<std::size_t>(i)].client_id = i;
    updates[static_cast<std::size_t>(i)].sample_count = 128;
    updates[static_cast<std::size_t>(i)].params.resize(server.param_count());
    for (float& v : updates[static_cast<std::size_t>(i)].params) {
      v = static_cast<float>(rng.normal());
    }
    if (i >= 2) {
      updates[static_cast<std::size_t>(i)].trained_mask =
          fl::random_volume_mask(server.reference_model(), 0.3, rng);
    }
  }
  fl::AggOptions opts;
  opts.hetero_volume_weights = true;
  for (auto _ : state) {
    server.aggregate(updates, opts);
    benchmark::DoNotOptimize(server.global().data());
  }
}
BENCHMARK(BM_ServerAggregate4Clients);

void BM_CostModelEvaluation(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 9);
  const auto profile = device::sim_scaled(device::deeplens_cpu());
  for (auto _ : state) {
    const auto w = device::estimate_workload(model, 128, 1);
    benchmark::DoNotOptimize(device::total_cycle_seconds(profile, w));
  }
}
BENCHMARK(BM_CostModelEvaluation);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(10);
  nn::Conv2d conv(3, 32, 32, 8, 3, 1, 1, &rng);
  tensor::Tensor x = tensor::Tensor::randn({8, 3, 32, 32}, rng);
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

// One unmasked NT GEMM, C[m,n] (+)= A[m,k] B[n,k]^T; Args are m, k, n.
// Single thread, as a pool worker runs it.
void run_nt(benchmark::State& state,
            void (*gemm)(const tensor::Tensor&, const tensor::Tensor&,
                         tensor::RowMask, tensor::Tensor&)) {
  util::set_global_threads(1);
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  util::Rng rng(12);
  tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, k}, rng);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    gemm(a, b, {}, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
  util::set_global_threads(0);
}

// Conv2d's dW GEMM (out channels x output plane x patch size).
void BM_NtRowsAcc(benchmark::State& state) {
  run_nt(state, tensor::matmul_nt_masked_rows_accumulate);
}
BENCHMARK(BM_NtRowsAcc)
    ->Args({6, 256, 25})    // LeNet-16 conv1
    ->Args({16, 16, 150})   // LeNet-16 conv2
    ->Args({8, 1024, 27})   // AlexNet-lite conv1
    ->Args({16, 256, 72})   // conv2
    ->Args({24, 64, 144})   // conv3
    ->Args({24, 64, 216})   // conv4
    ->Args({16, 64, 216});  // conv5

// Dense's forward (batch x in x out).
void BM_NtCols(benchmark::State& state) {
  run_nt(state, tensor::matmul_nt_masked_cols_into);
}
BENCHMARK(BM_NtCols)
    ->Args({8, 64, 120})    // LeNet-16 dense1
    ->Args({8, 120, 84})    // dense2
    ->Args({8, 84, 10})     // dense3
    ->Args({16, 256, 128})  // AlexNet-lite dense1
    ->Args({16, 128, 64})   // dense2
    ->Args({16, 64, 10});   // dense3

// One sample's im2col; Args are channels, height (= width), kernel, pad.
void BM_Im2col(benchmark::State& state) {
  tensor::Conv2dGeometry g;
  g.in_channels = static_cast<int>(state.range(0));
  g.in_h = g.in_w = static_cast<int>(state.range(1));
  g.kernel = static_cast<int>(state.range(2));
  g.pad = static_cast<int>(state.range(3));
  util::Rng rng(14);
  tensor::Tensor x = tensor::Tensor::randn({g.in_channels, g.in_h, g.in_w},
                                           rng);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) *
                          g.out_h() * g.out_w());
  for (auto _ : state) {
    tensor::im2col(x.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Im2col)
    ->Args({1, 16, 5, 2})   // LeNet-16 conv1
    ->Args({6, 8, 5, 0})    // LeNet-16 conv2: 4-float rows, no padding
    ->Args({3, 32, 3, 1})   // AlexNet-lite conv1
    ->Args({8, 16, 3, 1})   // conv2
    ->Args({16, 8, 3, 1})   // conv3
    ->Args({24, 8, 3, 1});  // conv4 and conv5

void BM_SyntheticGeneration(benchmark::State& state) {
  data::SyntheticSpec spec = data::mnist_like_spec(256);
  for (auto _ : state) {
    util::Rng rng(11);
    data::Dataset d = data::make_synthetic(spec, rng);
    benchmark::DoNotOptimize(d.images.data());
  }
}
BENCHMARK(BM_SyntheticGeneration);

// ---------------------------------------------------------------------------
// Thread-scaling variants: the same kernels with the global pool resized per
// run (Arg = thread count). Results are bit-identical across counts — only
// the wall clock moves.
// ---------------------------------------------------------------------------

void BM_MatmulDenseThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  const int n = 256;
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, {}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
  util::set_global_threads(0);
}
BENCHMARK(BM_MatmulDenseThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Conv2dForwardThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  util::Rng rng(10);
  nn::Conv2d conv(3, 32, 32, 16, 3, 1, 1, &rng);
  tensor::Tensor x = tensor::Tensor::randn({16, 3, 32, 32}, rng);
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  util::set_global_threads(0);
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_LeNetTrainStepThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 3);
  nn::Sgd opt(0.05F);
  util::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::randn({16, 1, 28, 28}, rng);
  std::vector<int> labels(16);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_int(10));
  for (auto _ : state) {
    const auto r = nn::train_step(model, opt, x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
  util::set_global_threads(0);
}
BENCHMARK(BM_LeNetTrainStepThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
