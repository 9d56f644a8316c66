// Micro-benchmarks (google-benchmark): the tensor/autograd substrate that
// carries pre-training and DPO — matmul, GELU, causal attention and
// layer-norm throughput, and a full TinyGpt forward/backward step at the
// pipeline's default size.
//
// The matmul, GELU, attention and GPT benches are parameterized over the
// compute backends (docs/BACKENDS.md): each backend row first asserts
// output equivalence against the scalar reference (within float
// tolerance) and only then times, so a kernel that drifts numerically can
// never post a throughput number. CI's bench-regression job runs the
// BM_Matmul and BM_Gelu rows under --benchmark_out and gates on their
// simd:scalar throughput ratios (scripts/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_metrics_main.hpp"
#include "nn/gpt.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace dpoaf;
using tensor::Tape;
using tensor::Tensor;
namespace ops = tensor::ops;
namespace backend = tensor::backend;

constexpr const char* kBackends[] = {"scalar", "simd"};
constexpr double kTolerance = 1e-4;  // max relative elementwise error

bool backend_available(const std::string& name) {
  return name != "simd" || backend::simd_supported();
}

// Largest elementwise difference, relative to max(|element|, tensor
// magnitude): near-zero elements (catastrophic cancellation in long dot
// products) are judged against the tensor's scale, not their own.
double max_rel_diff(const Tensor& got, const Tensor& want) {
  double scale = 1e-6;
  for (std::int64_t i = 0; i < want.numel(); ++i)
    scale = std::max(scale, std::abs(static_cast<double>(want.data()[i])));
  double worst = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double w = want.data()[i];
    const double d = std::abs(static_cast<double>(got.data()[i]) - w);
    worst = std::max(worst, d / std::max(std::abs(w), scale));
  }
  return worst;
}

// Skips the bench (with an error) unless `got` matches the scalar
// reference; returns false when timing must not proceed.
bool check_equivalent(benchmark::State& state, const Tensor& got,
                      const Tensor& want, const char* what) {
  const double diff = max_rel_diff(got, want);
  if (diff > kTolerance) {
    state.SkipWithError((std::string(what) + " diverged from scalar: max " +
                         "rel diff " + std::to_string(diff))
                            .c_str());
    return false;
  }
  return true;
}

void matmul_bench(benchmark::State& state, const std::string& be) {
  const auto n = state.range(0);
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  util::set_global_threads(1);  // serial kernel throughput; see …Threads
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  backend::select("scalar");
  Tensor ref = ops::matmul(nullptr, a, b);
  backend::select(be);
  if (!check_equivalent(state, ops::matmul(nullptr, a, b), ref, "matmul"))
    return;
  for (auto _ : state) {
    Tensor c = ops::matmul(nullptr, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  backend::select("");
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// Thread-count sweep at the figure/ablation hot-path size (256³), per
// backend: the speedup column is the GFLOP/s ratio against the threads=1
// row of the same backend.
void matmul_threads_bench(benchmark::State& state, const std::string& be) {
  const auto threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 256;
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  util::set_global_threads(threads);
  backend::select(be);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(nullptr, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  util::set_global_threads(1);
  backend::select("");
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// Backward accumulations under the same sweep (both dA and dB paths).
void matmul_backward_threads_bench(benchmark::State& state,
                                   const std::string& be) {
  const auto threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 256;
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  util::set_global_threads(threads);
  backend::select(be);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({n, n}, rng).set_requires_grad(true);
  for (auto _ : state) {
    Tape tape;
    Tensor c = ops::matmul(&tape, a, b);
    Tensor loss = ops::sum(&tape, c);
    tape.backward(loss);
    benchmark::DoNotOptimize(a.grad());
    a.zero_grad();
    b.zero_grad();
  }
  util::set_global_threads(1);
  backend::select("");
}

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::randn({64, 48}, rng);
  Tensor gamma = Tensor::full({1, 48}, 1.0f);
  Tensor beta = Tensor::zeros({1, 48});
  for (auto _ : state) {
    Tensor y = ops::layer_norm(nullptr, x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm);

// The shapes a seed-1 finetune_paper run trains on: vocab 76, max_seq 84,
// mean sequence length 45, d_model 48, 4 heads, d_ff 192. A DPO minibatch
// of 8 pairs runs 16 sequences.
constexpr std::int64_t kSeqLen = 45;
constexpr std::int64_t kDModel = 48;
constexpr std::int64_t kHeads = 4;
constexpr std::int64_t kDff = 192;

// GELU forward + backward over one minibatch's MLP activations
// [16·45, 192], through the backend kernels on one thread. Counter
// elem/s: elements through forward and backward per second.
void gelu_bench(benchmark::State& state, const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  util::set_global_threads(1);
  Rng rng(7);
  Tensor x = Tensor::randn({16 * kSeqLen, kDff}, rng, 2.0f);
  Tensor gy = Tensor::randn(x.shape(), rng);
  const std::int64_t n = x.numel();
  auto run = [&](const backend::ComputeBackend& kernels, Tensor& y,
                 Tensor& gx) {
    kernels.gelu_fwd(x.data(), y.data(), 0, n);
    kernels.gelu_bwd(x.data(), gy.data(), gx.data(), 0, n);
  };
  Tensor y = Tensor::zeros(x.shape()), gx = Tensor::zeros(x.shape());
  Tensor ref_y = Tensor::zeros(x.shape()), ref_gx = Tensor::zeros(x.shape());
  run(backend::scalar_backend(), ref_y, ref_gx);
  backend::select(be);
  const backend::ComputeBackend& kernels = backend::active();
  run(kernels, y, gx);
  if (!check_equivalent(state, y, ref_y, "gelu") ||
      !check_equivalent(state, gx, ref_gx, "gelu gradient"))
    return;
  for (auto _ : state) {
    run(kernels, y, gx);
    benchmark::DoNotOptimize(gx.data());
  }
  backend::select("");
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(2 * n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// One sequence's attention core, forward + backward through
// ops::causal_attention at T = 45, d = 48, 4 heads, one thread.
void causal_attention_bench(benchmark::State& state, const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  util::set_global_threads(1);
  Rng rng(8);
  Tensor qkv =
      Tensor::randn({kSeqLen, 3 * kDModel}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({kSeqLen, kDModel}, rng);
  // Forward + backward; returns the output, leaves the gradient in qkv.
  auto step = [&] {
    qkv.zero_grad();
    Tape tape;
    Tensor out = ops::causal_attention(&tape, qkv, kHeads);
    tape.backward(ops::sum(&tape, ops::mul(&tape, out, w)));
    return out;
  };
  auto grad_copy = [&] {
    return Tensor::from(qkv.shape(), std::vector<float>(
                                         qkv.grad(), qkv.grad() + qkv.numel()));
  };
  backend::select("scalar");
  const Tensor ref = step();
  const Tensor ref_grad = grad_copy();
  backend::select(be);
  if (!check_equivalent(state, step(), ref, "attention") ||
      !check_equivalent(state, grad_copy(), ref_grad, "attention qkv grad"))
    return;
  for (auto _ : state) {
    Tensor out = step();
    benchmark::DoNotOptimize(out.data());
  }
  backend::select("");
  state.counters["seq/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

nn::TinyGpt& pipeline_sized_model() {
  static nn::TinyGpt model = [] {
    nn::GptConfig cfg;
    cfg.vocab_size = 80;
    cfg.d_model = 48;
    cfg.n_heads = 4;
    cfg.n_layers = 2;
    cfg.d_ff = 192;
    cfg.max_seq = 96;
    Rng rng(4);
    return nn::TinyGpt(cfg, rng);
  }();
  return model;
}

void gpt_forward_bench(benchmark::State& state, const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  auto& model = pipeline_sized_model();
  std::vector<int> ids(64);
  Rng rng(5);
  for (auto& id : ids) id = static_cast<int>(rng.below(80));
  backend::select("scalar");
  Tensor ref = model.forward(nullptr, ids);
  backend::select(be);
  if (!check_equivalent(state, model.forward(nullptr, ids), ref,
                        "gpt forward logits"))
    return;
  for (auto _ : state) {
    Tensor logits = model.forward(nullptr, ids);
    benchmark::DoNotOptimize(logits.data());
  }
  backend::select("");
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(64 * state.iterations()), benchmark::Counter::kIsRate);
}

void gpt_forward_backward_bench(benchmark::State& state,
                                const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  backend::select(be);
  auto& model = pipeline_sized_model();
  std::vector<int> ids(64);
  Rng rng(6);
  for (auto& id : ids) id = static_cast<int>(rng.below(80));
  for (auto _ : state) {
    Tape tape;
    Tensor loss = model.nll_loss(&tape, ids);
    tape.backward(loss);
    benchmark::DoNotOptimize(loss.item());
    for (Tensor p : model.parameters()) p.zero_grad();
  }
  backend::select("");
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(64 * state.iterations()), benchmark::Counter::kIsRate);
}

void register_backend_benches() {
  for (const char* be : kBackends) {
    const std::string name(be);
    benchmark::RegisterBenchmark(
        ("BM_Matmul/" + name).c_str(),
        [name](benchmark::State& s) { matmul_bench(s, name); })
        ->Arg(48)
        ->Arg(96)
        ->Arg(192);
    benchmark::RegisterBenchmark(
        ("BM_MatmulThreads/" + name).c_str(),
        [name](benchmark::State& s) { matmul_threads_bench(s, name); })
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8)
        ->ArgName("threads");
    benchmark::RegisterBenchmark(
        ("BM_MatmulBackwardThreads/" + name).c_str(),
        [name](benchmark::State& s) {
          matmul_backward_threads_bench(s, name);
        })
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->ArgName("threads");
    benchmark::RegisterBenchmark(
        ("BM_Gelu/" + name).c_str(),
        [name](benchmark::State& s) { gelu_bench(s, name); });
    benchmark::RegisterBenchmark(
        ("BM_CausalAttention/" + name).c_str(),
        [name](benchmark::State& s) { causal_attention_bench(s, name); });
    benchmark::RegisterBenchmark(
        ("BM_GptForward/" + name).c_str(),
        [name](benchmark::State& s) { gpt_forward_bench(s, name); });
    benchmark::RegisterBenchmark(
        ("BM_GptForwardBackward/" + name).c_str(),
        [name](benchmark::State& s) { gpt_forward_backward_bench(s, name); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_benches();
  return dpoaf_benchmark_main(argc, argv, "micro_tensor");
}
