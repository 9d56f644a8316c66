// Compute-backend contract (docs/BACKENDS.md): selection precedence,
// cpuid dispatch, per-backend cross-thread bitwise determinism (on odd
// shapes, so microkernel remainder paths land on different rows as the
// chunk bounds move), scalar-vs-simd numerical tolerance for matmul,
// elementwise, GELU and attention kernels, and the per-backend
// observability counters/gauges.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using tensor::Tape;
using tensor::Tensor;
namespace ops = tensor::ops;
namespace backend = tensor::backend;

// Every test leaves the process on the scalar backend / serial pool so
// suite-internal ordering cannot leak state.
class BackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    backend::select("scalar");
    util::set_global_threads(1);
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
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

std::vector<std::string> available_backends() {
  std::vector<std::string> out = {"scalar"};
  if (backend::simd_supported()) out.push_back("simd");
  return out;
}

TEST_F(BackendTest, ScalarAlwaysAvailableAndSelectable) {
  backend::select("scalar");
  EXPECT_EQ(backend::active_kind(), backend::Kind::kScalar);
  EXPECT_STREQ(backend::active().name(), "scalar");
}

TEST_F(BackendTest, AutoResolvesToSimdExactlyWhenSupported) {
  backend::select("auto");
  const backend::Kind want = backend::simd_supported()
                                 ? backend::Kind::kSimd
                                 : backend::Kind::kScalar;
  EXPECT_EQ(backend::active_kind(), want);
}

TEST_F(BackendTest, ExplicitSimdSelectsOrFailsLoudly) {
  if (backend::simd_supported()) {
    backend::select("simd");
    EXPECT_EQ(backend::active_kind(), backend::Kind::kSimd);
    EXPECT_STREQ(backend::active().name(), "simd");
  } else {
    EXPECT_THROW(backend::select("simd"), ContractViolation);
  }
}

TEST_F(BackendTest, UnknownBackendNameIsRejected) {
  EXPECT_THROW(backend::select("gpu"), ContractViolation);
  EXPECT_THROW(backend::select("SIMD"), ContractViolation);
}

TEST_F(BackendTest, EmptySelectionDefersToEnvironment) {
  ASSERT_EQ(setenv("DPOAF_BACKEND", "scalar", 1), 0);
  backend::select("");
  EXPECT_EQ(backend::active_kind(), backend::Kind::kScalar);
  if (backend::simd_supported()) {
    ASSERT_EQ(setenv("DPOAF_BACKEND", "simd", 1), 0);
    backend::select("");
    EXPECT_EQ(backend::active_kind(), backend::Kind::kSimd);
  }
  ASSERT_EQ(setenv("DPOAF_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(backend::select(""), ContractViolation);
  ASSERT_EQ(unsetenv("DPOAF_BACKEND"), 0);
  backend::select("");  // no env ⇒ auto
  const backend::Kind want = backend::simd_supported()
                                 ? backend::Kind::kSimd
                                 : backend::Kind::kScalar;
  EXPECT_EQ(backend::active_kind(), want);
}

// Deliberately awkward shapes: odd dims exercise the 8-wide and scalar
// column tails, and rows that are remainder rows at one thread count are
// interior rows of a microkernel block at another.
struct MatmulCase {
  std::int64_t m, k, n;
};
const MatmulCase kShapes[] = {
    {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {61, 53, 67}, {96, 96, 96},
    {64, 96, 80}, {33, 257, 19},
};

TEST_F(BackendTest, SimdMatmulMatchesScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  for (const MatmulCase& shape : kShapes) {
    Rng rng(17);
    Tensor a = Tensor::randn({shape.m, shape.k}, rng);
    Tensor b = Tensor::randn({shape.k, shape.n}, rng);
    backend::select("scalar");
    Tensor want = ops::matmul(nullptr, a, b);
    backend::select("simd");
    Tensor got = ops::matmul(nullptr, a, b);
    EXPECT_LT(max_rel_diff(got, want), 1e-4)
        << shape.m << "x" << shape.k << "x" << shape.n;
  }
}

TEST_F(BackendTest, SimdMatmulGradsMatchScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  auto grads = [](const MatmulCase& shape) {
    Rng rng(19);
    Tensor a = Tensor::randn({shape.m, shape.k}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn({shape.k, shape.n}, rng).set_requires_grad(true);
    Tape tape;
    Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
    tape.backward(loss);
    Tensor ga = Tensor::from(
        a.shape(), std::vector<float>(a.grad(), a.grad() + a.numel()));
    Tensor gb = Tensor::from(
        b.shape(), std::vector<float>(b.grad(), b.grad() + b.numel()));
    return std::make_pair(ga, gb);
  };
  for (const MatmulCase& shape : kShapes) {
    backend::select("scalar");
    auto want = grads(shape);
    backend::select("simd");
    auto got = grads(shape);
    EXPECT_LT(max_rel_diff(got.first, want.first), 1e-4);
    EXPECT_LT(max_rel_diff(got.second, want.second), 1e-4);
  }
}

TEST_F(BackendTest, ElementwiseOpsMatchScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  auto run = [] {
    Rng rng(23);
    Tensor x = Tensor::randn({37, 41}, rng).set_requires_grad(true);
    Tensor y = Tensor::randn({37, 41}, rng).set_requires_grad(true);
    Tensor bias = Tensor::randn({1, 41}, rng);
    Tape tape;
    Tensor h = ops::add_rowwise(
        &tape, ops::add(&tape, ops::mul(&tape, x, y), ops::scale(&tape, y, 0.3f)),
        bias);
    Tensor loss = ops::sum(&tape, h);
    tape.backward(loss);
    Tensor gx = Tensor::from(
        x.shape(), std::vector<float>(x.grad(), x.grad() + x.numel()));
    return std::make_pair(h.clone(), gx);
  };
  backend::select("scalar");
  auto want = run();
  backend::select("simd");
  auto got = run();
  EXPECT_LT(max_rel_diff(got.first, want.first), 1e-5);
  EXPECT_LT(max_rel_diff(got.second, want.second), 1e-5);
}

// The determinism half of the contract: per backend, results are bitwise
// identical across thread counts. Thread counts 1/3/4 shift the chunk
// bounds through every remainder-path alignment of the 61/53/67 shapes.
TEST_F(BackendTest, MatmulBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    for (const MatmulCase& shape : kShapes) {
      auto run = [&shape] {
        Rng rng(29);
        Tensor a = Tensor::randn({shape.m, shape.k}, rng);
        Tensor b = Tensor::randn({shape.k, shape.n}, rng);
        // Grain 1: at 3/4 threads the row partition actually splits even
        // the tiny shapes.
        Tensor c = Tensor::zeros({shape.m, shape.n});
        util::parallel_for(0, shape.m, 1,
                           [&](std::int64_t i0, std::int64_t i1) {
          backend::active().matmul_fwd(a.data(), b.data(), c.data(), shape.k,
                                       shape.n, i0, i1);
        });
        return c;
      };
      util::set_global_threads(1);
      Tensor serial = run();
      for (int threads : {3, 4}) {
        util::set_global_threads(threads);
        Tensor parallel = run();
        expect_bitwise_equal(serial, parallel);
      }
    }
  }
}

TEST_F(BackendTest, MatmulGradsBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    auto run = [] {
      Rng rng(31);
      Tensor a = Tensor::randn({61, 53}, rng).set_requires_grad(true);
      Tensor b = Tensor::randn({53, 67}, rng).set_requires_grad(true);
      Tape tape;
      Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
      tape.backward(loss);
      Tensor ga = Tensor::from(
          a.shape(), std::vector<float>(a.grad(), a.grad() + a.numel()));
      Tensor gb = Tensor::from(
          b.shape(), std::vector<float>(b.grad(), b.grad() + b.numel()));
      return std::make_pair(ga, gb);
    };
    util::set_global_threads(1);
    auto serial = run();
    util::set_global_threads(4);
    auto parallel = run();
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  }
}

TEST_F(BackendTest, ElementwiseBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    auto run = [] {
      Rng rng(37);
      Tensor x = Tensor::randn({123, 131}, rng).set_requires_grad(true);
      Tensor y = Tensor::randn({123, 131}, rng).set_requires_grad(true);
      Tape tape;
      Tensor h = ops::add(&tape, ops::mul(&tape, x, y),
                          ops::scale(&tape, x, -0.7f));
      Tensor loss = ops::sum(&tape, h);
      tape.backward(loss);
      Tensor gx = Tensor::from(
          x.shape(), std::vector<float>(x.grad(), x.grad() + x.numel()));
      return std::make_pair(h.clone(), gx);
    };
    util::set_global_threads(1);
    auto serial = run();
    util::set_global_threads(4);
    auto parallel = run();
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  }
}

// ---- GELU --------------------------------------------------------------
//
// Lengths around the 8-wide vector body (1, 7, 8, 9, 17) and a long run;
// the inputs mix a N(0, 3²) spread with values past the simd tanh clamp
// (±10, ±1e3) and at the tiny-argument cut, where gelu′ must still be
// the plain 0 / 1 it is for std::tanh.
const std::int64_t kGeluLengths[] = {1, 7, 8, 9, 17, 1000};

std::vector<float> gelu_inputs(std::int64_t n) {
  const float special[] = {10.0f, -10.0f, 1e3f, -1e3f, 0.0f, 5e-4f, -3e-4f};
  Rng rng(static_cast<std::uint64_t>(43 + n));
  std::vector<float> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = i % 3 == 0 ? special[(i / 3) % 7]
                      : static_cast<float>(3.0 * rng.normal());
  return x;
}

// gelu_fwd and gelu_bwd (onto a non-zero gradient) over [0, n), split by
// the pool at grain 1 so chunk bounds land at every offset.
std::pair<std::vector<float>, std::vector<float>> run_gelu(
    const std::vector<float>& x) {
  const auto n = static_cast<std::int64_t>(x.size());
  std::vector<float> y(x.size()), gy(x.size()), gx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    gy[i] = 0.25f + 0.01f * static_cast<float>(i % 17);
    gx[i] = -0.5f;
  }
  const backend::ComputeBackend& be = backend::active();
  util::parallel_for(0, n, 1, [&](std::int64_t i0, std::int64_t i1) {
    be.gelu_fwd(x.data(), y.data(), i0, i1);
    be.gelu_bwd(x.data(), gy.data(), gx.data(), i0, i1);
  });
  return {y, gx};
}

TEST_F(BackendTest, SimdGeluMatchesScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  for (const std::int64_t n : kGeluLengths) {
    const std::vector<float> x = gelu_inputs(n);
    backend::select("scalar");
    const auto want = run_gelu(x);
    backend::select("simd");
    const auto got = run_gelu(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      SCOPED_TRACE("n=" + std::to_string(n) + " x=" + std::to_string(x[i]));
      EXPECT_NEAR(got.first[i], want.first[i],
                  1e-6 * std::max(1.0f, std::fabs(want.first[i])));
      EXPECT_NEAR(got.second[i], want.second[i],
                  2e-6 * std::max(1.0f, std::fabs(want.second[i])));
    }
  }
}

TEST_F(BackendTest, GeluBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    for (const std::int64_t n : kGeluLengths) {
      const std::vector<float> x = gelu_inputs(n);
      util::set_global_threads(1);
      const auto serial = run_gelu(x);
      for (int threads : {2, 3, 4}) {
        util::set_global_threads(threads);
        const auto parallel = run_gelu(x);
        EXPECT_EQ(serial, parallel) << be << " n=" << n << " threads="
                                    << threads;
      }
    }
  }
}

// In-place application (the KV decoder's use) equals out-of-place.
TEST_F(BackendTest, GeluInPlaceMatchesOutOfPlace) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    std::vector<float> x = gelu_inputs(37);
    std::vector<float> y(x.size());
    backend::active().gelu_fwd(x.data(), y.data(), 0, 37);
    backend::active().gelu_fwd(x.data(), x.data(), 0, 37);
    EXPECT_EQ(x, y) << be;
  }
}

// ---- causal attention --------------------------------------------------

// Output, forward probabilities and qkv gradient of one attention call
// through the kernels directly, heads split by the pool at grain 1.
struct AttentionRun {
  std::vector<float> out, probs, grad;
};

AttentionRun run_attention(std::int64_t t, std::int64_t d,
                           std::int64_t n_heads) {
  Rng rng(static_cast<std::uint64_t>(47 + t));
  const Tensor qkv = Tensor::randn({t, 3 * d}, rng);
  const Tensor gout = Tensor::randn({t, d}, rng);
  AttentionRun r{std::vector<float>(static_cast<std::size_t>(t * d)),
                 std::vector<float>(static_cast<std::size_t>(n_heads * t * t)),
                 std::vector<float>(static_cast<std::size_t>(t * 3 * d), 0.5f)};
  const backend::ComputeBackend& be = backend::active();
  util::parallel_for(0, n_heads, 1, [&](std::int64_t h0, std::int64_t h1) {
    be.attention_fwd(qkv.data(), r.out.data(), r.probs.data(), t, d, n_heads,
                     h0, h1);
  });
  util::parallel_for(0, n_heads, 1, [&](std::int64_t h0, std::int64_t h1) {
    be.attention_bwd(qkv.data(), r.probs.data(), gout.data(), r.grad.data(),
                     t, d, n_heads, h0, h1);
  });
  return r;
}

const std::int64_t kAttentionLengths[] = {1, 7, 8, 9, 47, 84};

double max_scaled_diff(const std::vector<float>& got,
                       const std::vector<float>& want) {
  double scale = 1e-6, worst = 0.0;
  for (const float w : want) scale = std::max(scale, std::fabs(double{w}));
  for (std::size_t i = 0; i < want.size(); ++i)
    worst = std::max(worst, std::fabs(double{got[i]} - want[i]) / scale);
  return worst;
}

TEST_F(BackendTest, SimdAttentionMatchesScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  for (const std::int64_t t : kAttentionLengths) {
    SCOPED_TRACE("T=" + std::to_string(t));
    backend::select("scalar");
    const AttentionRun want = run_attention(t, 48, 4);
    backend::select("simd");
    const AttentionRun got = run_attention(t, 48, 4);
    EXPECT_LT(max_scaled_diff(got.out, want.out), 1e-6);
    EXPECT_LT(max_scaled_diff(got.probs, want.probs), 1e-6);
    EXPECT_LT(max_scaled_diff(got.grad, want.grad), 2e-6);
    // Masked entries are exact zeros on both backends.
    for (std::int64_t h = 0; h < 4; ++h)
      for (std::int64_t i = 0; i < t; ++i)
        for (std::int64_t j = i + 1; j < t; ++j)
          ASSERT_EQ(got.probs[static_cast<std::size_t>((h * t + i) * t + j)],
                    0.0f);
  }
}

TEST_F(BackendTest, AttentionBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    for (const std::int64_t t : kAttentionLengths) {
      util::set_global_threads(1);
      const AttentionRun serial = run_attention(t, 48, 4);
      for (int threads : {2, 3, 4}) {
        util::set_global_threads(threads);
        const AttentionRun parallel = run_attention(t, 48, 4);
        EXPECT_EQ(serial.out, parallel.out) << be << " T=" << t;
        EXPECT_EQ(serial.grad, parallel.grad) << be << " T=" << t;
      }
    }
  }
}

// Per-backend matmul telemetry: calls/flops land on the selected
// backend's counters, and the active gauge tracks selection.
TEST_F(BackendTest, PerBackendCountersAndActiveGauge) {
  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  for (const std::string& be : available_backends()) {
    backend::select(be);
    obs::Counter& calls = registry.counter("tensor.matmul.calls." + be);
    obs::Counter& flops = registry.counter("tensor.matmul.flops." + be);
    obs::Counter& bwd_calls =
        registry.counter("tensor.matmul.bwd_calls." + be);
    const std::uint64_t calls0 = calls.value();
    const std::uint64_t flops0 = flops.value();
    const std::uint64_t bwd0 = bwd_calls.value();

    Rng rng(41);
    Tensor a = Tensor::randn({8, 8}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn({8, 8}, rng).set_requires_grad(true);
    Tape tape;
    Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
    tape.backward(loss);

    EXPECT_EQ(calls.value(), calls0 + 1);
    EXPECT_EQ(flops.value(), flops0 + 2 * 8 * 8 * 8);
    EXPECT_EQ(bwd_calls.value(), bwd0 + 1);
    EXPECT_EQ(registry.gauge("tensor.backend.active").value(),
              be == "simd" ? 1 : 0);
  }
  EXPECT_EQ(registry.gauge("tensor.backend.simd_supported").value(),
            backend::simd_supported() ? 1 : 0);
}

}  // namespace
}  // namespace dpoaf
