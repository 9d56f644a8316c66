#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dpoaf::tensor {
namespace {

namespace ops = dpoaf::tensor::ops;
namespace backend = dpoaf::tensor::backend;

// Central finite-difference check: analytic grad of `loss(inputs)` wrt each
// entry of each input vs (f(x+h)−f(x−h)) / 2h.
void check_gradients(std::vector<Tensor> inputs,
                     const std::function<Tensor(Tape*)>& loss_fn,
                     float h = 1e-3f, float tol = 2e-2f) {
  Tape tape;
  Tensor loss = loss_fn(&tape);
  ASSERT_EQ(loss.numel(), 1);
  tape.backward(loss);

  for (Tensor& input : inputs) {
    ASSERT_TRUE(input.requires_grad());
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      const float orig = input.data()[i];
      input.data()[i] = orig + h;
      const float up = loss_fn(nullptr).item();
      input.data()[i] = orig - h;
      const float down = loss_fn(nullptr).item();
      input.data()[i] = orig;
      const float numeric = (up - down) / (2.0f * h);
      const float analytic = input.grad()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::fabs(numeric)))
          << "input entry " << i;
    }
  }
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  t.at(0, 0) = 9.0f;
  EXPECT_EQ(t.data()[0], 9.0f);
  EXPECT_THROW((void)Tensor::from({2, 2}, {1, 2, 3}), ContractViolation);
}

TEST(Tensor, CopiesAliasCloneDoesNot) {
  Tensor a = Tensor::from({1, 2}, {1, 2});
  Tensor b = a;          // aliases
  Tensor c = a.clone();  // deep copy
  a.data()[0] = 7.0f;
  EXPECT_EQ(b.data()[0], 7.0f);
  EXPECT_EQ(c.data()[0], 1.0f);
  EXPECT_TRUE(a.same_storage(b));
  EXPECT_FALSE(a.same_storage(c));
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW((void)Tensor::zeros({2, 1}).item(), ContractViolation);
  EXPECT_EQ(Tensor::full({1, 1}, 3.0f).item(), 3.0f);
}

TEST(Tensor, GradLazyAllocationAndZero) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_FALSE(t.has_grad());
  t.grad()[0] = 5.0f;
  EXPECT_TRUE(t.has_grad());
  t.zero_grad();
  EXPECT_EQ(t.grad()[0], 0.0f);
}

TEST(Ops, MatmulForwardValues) {
  Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from({2, 2}, {5, 6, 7, 8});
  Tensor c = ops::matmul(nullptr, a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 3});
  EXPECT_THROW((void)ops::matmul(nullptr, a, b), ContractViolation);
}

TEST(Ops, MatmulGradients) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 4}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({4, 2}, rng).set_requires_grad(true);
  check_gradients({a, b}, [&](Tape* t) {
    return ops::sum(t, ops::matmul(t, a, b));
  });
}

TEST(Ops, AddMulSubScaleGradients) {
  Rng rng(2);
  Tensor a = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  check_gradients({a, b}, [&](Tape* t) {
    Tensor x = ops::add(t, a, b);
    Tensor y = ops::mul(t, x, ops::sub(t, a, b));
    return ops::sum(t, ops::scale(t, y, 0.5f));
  });
}

TEST(Ops, AddRowwiseGradients) {
  Rng rng(3);
  Tensor x = Tensor::randn({3, 4}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({1, 4}, rng).set_requires_grad(true);
  check_gradients({x, b}, [&](Tape* t) {
    return ops::sum(t, ops::add_rowwise(t, x, b));
  });
}

TEST(Ops, GeluGradientsAndValues) {
  // gelu(0) = 0; gelu(x) ≈ x for large x; gelu(x) ≈ 0 for very negative x.
  Tensor z = Tensor::from({1, 3}, {0.0f, 10.0f, -10.0f});
  Tensor g = ops::gelu(nullptr, z);
  EXPECT_NEAR(g.data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(g.data()[1], 10.0f, 1e-3f);
  EXPECT_NEAR(g.data()[2], 0.0f, 1e-3f);

  Rng rng(4);
  Tensor a = Tensor::randn({2, 5}, rng).set_requires_grad(true);
  check_gradients({a}, [&](Tape* t) { return ops::sum(t, ops::gelu(t, a)); });
}

TEST(Ops, LayerNormNormalizesRows) {
  Rng rng(5);
  Tensor x = Tensor::randn({4, 8}, rng, 3.0f);
  Tensor gamma = Tensor::full({1, 8}, 1.0f);
  Tensor beta = Tensor::zeros({1, 8});
  Tensor y = ops::layer_norm(nullptr, x, gamma, beta);
  for (std::int64_t i = 0; i < 4; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (std::int64_t j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8.0f;
    for (std::int64_t j = 0; j < 8; ++j)
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(Ops, LayerNormGradients) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 6}, rng).set_requires_grad(true);
  Tensor gamma = Tensor::randn({1, 6}, rng).set_requires_grad(true);
  Tensor beta = Tensor::randn({1, 6}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({3, 6}, rng);  // weighting makes the loss non-flat
  check_gradients({x, gamma, beta}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::layer_norm(t, x, gamma, beta), w));
  });
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor x = Tensor::randn({3, 5}, rng, 2.0f);
  Tensor y = ops::softmax_rows(nullptr, x);
  for (std::int64_t i = 0; i < 3; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 5; ++j) {
      s += y.at(i, j);
      EXPECT_GT(y.at(i, j), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxGradients) {
  Rng rng(8);
  Tensor x = Tensor::randn({2, 4}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({2, 4}, rng);
  check_gradients({x}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::softmax_rows(t, x), w));
  });
}

// ---- causal_attention ----------------------------------------------
//
// The causal softmax, head slicing and concatenation of the per-head op
// chain now live inside ops::causal_attention; these tests pin its
// masking, its head decomposition, its gradients and its values against a
// naive per-head reference, on every available backend.

std::vector<std::string> available_backends() {
  std::vector<std::string> out = {"scalar"};
  if (backend::simd_supported()) out.push_back("simd");
  return out;
}

template <typename Fn>
void for_each_backend(Fn fn) {
  for (const std::string& be : available_backends()) {
    SCOPED_TRACE("backend " + be);
    backend::select(be);
    fn();
  }
  backend::select("");
}

// Changing the keys and values of positions j > i never changes output
// row i: the softmax weights above the diagonal are exact zeros.
TEST(Ops, CausalSoftmaxMasksUpperTriangle) {
  for_each_backend([] {
    constexpr std::int64_t kT = 11, kD = 8, kHeads = 2;
    Rng rng(9);
    Tensor qkv = Tensor::randn({kT, 3 * kD}, rng);
    const Tensor before = ops::causal_attention(nullptr, qkv, kHeads);
    constexpr std::int64_t kCut = 4;  // perturb keys/values at j > kCut
    for (std::int64_t j = kCut + 1; j < kT; ++j)
      for (std::int64_t c = kD; c < 3 * kD; ++c) qkv.at(j, c) += 5.0f;
    const Tensor after = ops::causal_attention(nullptr, qkv, kHeads);
    for (std::int64_t i = 0; i <= kCut; ++i)
      for (std::int64_t c = 0; c < kD; ++c)
        EXPECT_EQ(after.at(i, c), before.at(i, c)) << "row " << i;
    // Row 0 attends to itself alone: its output is v₀.
    for (std::int64_t c = 0; c < kD; ++c)
      EXPECT_FLOAT_EQ(after.at(0, c), qkv.at(0, 2 * kD + c));
  });
}

TEST(Ops, CausalSoftmaxGradients) {
  for_each_backend([] {
    Rng rng(10);
    Tensor qkv = Tensor::randn({5, 12}, rng).set_requires_grad(true);
    Tensor w = Tensor::randn({5, 4}, rng);
    check_gradients({qkv}, [&](Tape* t) {
      return ops::sum(t, ops::mul(t, ops::causal_attention(t, qkv, 1), w));
    });
  });
}

// The multi-head op equals slicing each head's q|k|v columns out, running
// one single-head op per head, and concatenating the outputs — bitwise,
// gradients included (a head's arithmetic does not see the others).
TEST(Ops, SliceAndConcatRoundTrip) {
  for_each_backend([] {
    constexpr std::int64_t kT = 13, kHeads = 3, kDh = 4, kD = kHeads * kDh;
    Rng rng(11);
    Tensor qkv = Tensor::randn({kT, 3 * kD}, rng).set_requires_grad(true);
    Tensor w = Tensor::randn({kT, kD}, rng);
    Tape tape;
    const Tensor fused = ops::causal_attention(&tape, qkv, kHeads);
    tape.backward(ops::sum(&tape, ops::mul(&tape, fused, w)));
    for (std::int64_t h = 0; h < kHeads; ++h) {
      Tensor part = Tensor::zeros({kT, 3 * kDh}).set_requires_grad(true);
      Tensor wh = Tensor::zeros({kT, kDh});
      for (std::int64_t i = 0; i < kT; ++i)
        for (std::int64_t c = 0; c < kDh; ++c) {
          for (std::int64_t s = 0; s < 3; ++s)
            part.at(i, s * kDh + c) = qkv.at(i, s * kD + h * kDh + c);
          wh.at(i, c) = w.at(i, h * kDh + c);
        }
      Tape head_tape;
      const Tensor out = ops::causal_attention(&head_tape, part, 1);
      head_tape.backward(ops::sum(&head_tape, ops::mul(&head_tape, out, wh)));
      for (std::int64_t i = 0; i < kT; ++i)
        for (std::int64_t c = 0; c < kDh; ++c) {
          EXPECT_EQ(out.at(i, c), fused.at(i, h * kDh + c));
          for (std::int64_t s = 0; s < 3; ++s)
            EXPECT_EQ(part.grad()[i * 3 * kDh + s * kDh + c],
                      qkv.grad()[i * 3 * kD + s * kD + h * kDh + c]);
        }
    }
  });
}

// Four heads over 9 positions: the key dimension crosses an 8-lane block.
TEST(Ops, CausalAttentionMultiHeadGradients) {
  for_each_backend([] {
    Rng rng(12);
    Tensor qkv = Tensor::randn({9, 24}, rng).set_requires_grad(true);
    Tensor w = Tensor::randn({9, 8}, rng);
    check_gradients({qkv}, [&](Tape* t) {
      return ops::sum(t, ops::mul(t, ops::causal_attention(t, qkv, 4), w));
    });
  });
}

TEST(Ops, CausalAttentionRejectsIndivisibleHeads) {
  Tensor qkv = Tensor::zeros({3, 12});
  EXPECT_THROW((void)ops::causal_attention(nullptr, qkv, 3), ContractViolation);
  EXPECT_THROW((void)ops::causal_attention(nullptr, qkv, 0), ContractViolation);
}

// Naive per-head attention in double, straight from the definition, with
// the gradients of Σ out ⊙ w.
struct AttentionReference {
  std::vector<double> out, grad;
};

AttentionReference attention_reference(const Tensor& qkv, const Tensor& w,
                                       std::int64_t n_heads) {
  const std::int64_t t = qkv.rows(), d = qkv.cols() / 3, dh = d / n_heads;
  const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
  auto x = [&](std::int64_t i, std::int64_t c) {
    return static_cast<double>(qkv.at(i, c));
  };
  AttentionReference ref{
      std::vector<double>(static_cast<std::size_t>(t * d)),
      std::vector<double>(static_cast<std::size_t>(qkv.numel()))};
  auto g = [&](std::int64_t i, std::int64_t c) -> double& {
    return ref.grad[static_cast<std::size_t>(i * 3 * d + c)];
  };
  for (std::int64_t h = 0; h < n_heads; ++h) {
    const std::int64_t qc = h * dh, kc = d + h * dh, vc = 2 * d + h * dh;
    for (std::int64_t i = 0; i < t; ++i) {
      std::vector<double> p(static_cast<std::size_t>(i + 1));
      double mx = -1e300, z = 0.0;
      for (std::int64_t j = 0; j <= i; ++j) {
        double s = 0.0;
        for (std::int64_t c = 0; c < dh; ++c) s += x(i, qc + c) * x(j, kc + c);
        p[static_cast<std::size_t>(j)] = s * scale;
        mx = std::max(mx, s * scale);
      }
      for (double& pj : p) z += (pj = std::exp(pj - mx));
      for (double& pj : p) pj /= z;
      std::vector<double> dp(p.size());
      double dot = 0.0;
      for (std::int64_t j = 0; j <= i; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        for (std::int64_t c = 0; c < dh; ++c) {
          const double wc = w.at(i, h * dh + c);
          ref.out[static_cast<std::size_t>(i * d + h * dh + c)] +=
              p[ju] * x(j, vc + c);
          dp[ju] += wc * x(j, vc + c);
          g(j, vc + c) += p[ju] * wc;
        }
        dot += p[ju] * dp[ju];
      }
      for (std::int64_t j = 0; j <= i; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        const double ds = p[ju] * (dp[ju] - dot) * scale;
        for (std::int64_t c = 0; c < dh; ++c) {
          g(i, qc + c) += ds * x(j, kc + c);
          g(j, kc + c) += ds * x(i, qc + c);
        }
      }
    }
  }
  return ref;
}

double max_scaled_diff(const float* got, const std::vector<double>& want) {
  double scale = 1e-6;
  for (const double v : want) scale = std::max(scale, std::fabs(v));
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i)
    worst = std::max(worst, std::fabs(got[i] - want[i]) / scale);
  return worst;
}

// Values and gradients against the reference at the lengths around the
// 8-lane key blocks, 47 (a mid-size sequence) and the pipeline's max_seq.
TEST(Ops, CausalAttentionMatchesNaiveReference) {
  for_each_backend([] {
    for (const std::int64_t n_heads : {1, 4}) {
      for (const std::int64_t t : {1, 7, 8, 9, 47, 84}) {
        SCOPED_TRACE("T=" + std::to_string(t) +
                     " heads=" + std::to_string(n_heads));
        Rng rng(static_cast<std::uint64_t>(100 + t));
        Tensor qkv = Tensor::randn({t, 144}, rng).set_requires_grad(true);
        Tensor w = Tensor::randn({t, 48}, rng);
        Tape tape;
        const Tensor out = ops::causal_attention(&tape, qkv, n_heads);
        tape.backward(ops::sum(&tape, ops::mul(&tape, out, w)));
        const AttentionReference ref = attention_reference(qkv, w, n_heads);
        EXPECT_LT(max_scaled_diff(out.data(), ref.out), 2e-6);
        EXPECT_LT(max_scaled_diff(qkv.grad(), ref.grad), 2e-6);
      }
    }
  });
}

TEST(Ops, EmbeddingGatherAndScatter) {
  Tensor table =
      Tensor::from({3, 2}, {1, 2, 3, 4, 5, 6}).set_requires_grad(true);
  const std::vector<int> ids{2, 0, 2};
  Tensor out = ops::embedding(nullptr, table, ids);
  EXPECT_EQ(out.at(0, 0), 5.0f);
  EXPECT_EQ(out.at(1, 1), 2.0f);

  check_gradients({table}, [&](Tape* t) {
    return ops::sum(t, ops::embedding(t, table, ids));
  });
  // Row 2 gathered twice → gradient 2 per entry; row 1 never → 0.
  Tape tape;
  table.zero_grad();
  Tensor loss = ops::sum(&tape, ops::embedding(&tape, table, ids));
  tape.backward(loss);
  EXPECT_EQ(table.grad()[2 * 2], 2.0f);
  EXPECT_EQ(table.grad()[1 * 2], 0.0f);
}

TEST(Ops, EmbeddingOutOfRangeThrows) {
  Tensor table = Tensor::zeros({3, 2});
  EXPECT_THROW((void)ops::embedding(nullptr, table, {3}), ContractViolation);
}

TEST(Ops, CrossEntropyMatchesManualComputation) {
  // Uniform logits over V classes → CE = log V.
  Tensor logits = Tensor::zeros({2, 4});
  const std::vector<int> targets{1, 3};
  const float ce = ops::cross_entropy(nullptr, logits, targets).item();
  EXPECT_NEAR(ce, std::log(4.0f), 1e-5f);
}

TEST(Ops, CrossEntropyIgnoresNegativeTargets) {
  Tensor logits = Tensor::from({2, 2}, {100, 0, 0, 100});
  // Only position 1 scored; it predicts class 1 with ~certainty.
  const float ce = ops::cross_entropy(nullptr, logits, {-1, 1}).item();
  EXPECT_NEAR(ce, 0.0f, 1e-4f);
}

TEST(Ops, CrossEntropyGradients) {
  Rng rng(13);
  Tensor logits = Tensor::randn({3, 5}, rng).set_requires_grad(true);
  const std::vector<int> targets{4, -1, 0};
  check_gradients({logits}, [&](Tape* t) {
    return ops::cross_entropy(t, logits, targets);
  });
}

TEST(Ops, SumLogProbsEqualsNegativeCeTimesCount) {
  Rng rng(14);
  Tensor logits = Tensor::randn({4, 6}, rng);
  const std::vector<int> targets{1, 2, 3, -1};
  const float lp = ops::sum_log_probs(nullptr, logits, targets, 0).item();
  const float ce = ops::cross_entropy(nullptr, logits, targets).item();
  EXPECT_NEAR(lp, -3.0f * ce, 1e-4f);
}

TEST(Ops, SumLogProbsRespectsFrom) {
  Rng rng(15);
  Tensor logits = Tensor::randn({4, 6}, rng).set_requires_grad(true);
  const std::vector<int> targets{1, 2, 3, 4};
  const float all = ops::sum_log_probs(nullptr, logits, targets, 0).item();
  const float tail = ops::sum_log_probs(nullptr, logits, targets, 2).item();
  EXPECT_LT(tail, 0.0f);
  EXPECT_LT(all, tail);  // more (negative) terms
  check_gradients({logits}, [&](Tape* t) {
    return ops::sum_log_probs(t, logits, targets, 2);
  });
}

TEST(Ops, SoftplusValuesAndGradients) {
  Tensor x = Tensor::from({1, 3}, {0.0f, 20.0f, -20.0f});
  Tensor y = ops::softplus(nullptr, x);
  EXPECT_NEAR(y.data()[0], std::log(2.0f), 1e-6f);
  EXPECT_NEAR(y.data()[1], 20.0f, 1e-4f);
  EXPECT_NEAR(y.data()[2], 0.0f, 1e-4f);

  Rng rng(16);
  Tensor a = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  check_gradients({a}, [&](Tape* t) {
    return ops::sum(t, ops::softplus(t, a));
  });
}

TEST(Ops, NoTapeMeansNoGradFlow) {
  Tensor a = Tensor::from({1, 1}, {2.0f}).set_requires_grad(true);
  Tensor b = ops::scale(nullptr, a, 3.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(Ops, FrozenInputGetsNoGradient) {
  Tensor a = Tensor::from({1, 2}, {1, 2});  // requires_grad = false
  Tensor b = Tensor::from({1, 2}, {3, 4}).set_requires_grad(true);
  Tape tape;
  Tensor loss = ops::sum(&tape, ops::mul(&tape, a, b));
  tape.backward(loss);
  EXPECT_FALSE(a.has_grad());
  EXPECT_EQ(b.grad()[0], 1.0f);
}

TEST(Tape, BackwardAccumulatesAcrossUses) {
  // y = a + a → dy/da = 2.
  Tensor a = Tensor::from({1, 1}, {1.0f}).set_requires_grad(true);
  Tape tape;
  Tensor loss = ops::add(&tape, a, a);
  tape.backward(loss);
  EXPECT_EQ(a.grad()[0], 2.0f);
}

TEST(Tape, BackwardRequiresScalarSeed) {
  Tape tape;
  EXPECT_THROW(tape.backward(Tensor::zeros({2, 1})), ContractViolation);
}

}  // namespace
}  // namespace dpoaf::tensor
