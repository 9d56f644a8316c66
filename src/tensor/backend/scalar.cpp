// Scalar reference backend: the exact loops tensor/ops.cpp ran before the
// backend seam existed (GELU keeps its std::tanh loop), so "scalar"
// results stay byte-identical to the pre-backend library; attention is a
// plain per-head loop. Every other backend is judged against this one
// (tolerance cross-checks in tests/test_backend.cpp and micro_tensor).
#include "tensor/backend/backend.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dpoaf::tensor::backend {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // √(2/π)

class ScalarBackend final : public ComputeBackend {
 public:
  ScalarBackend() : ComputeBackend("scalar") {}

  [[nodiscard]] Kind kind() const override { return Kind::kScalar; }

  void matmul_fwd(const float* a, const float* b, float* c, std::int64_t k,
                  std::int64_t n, std::int64_t i0,
                  std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        const float* pbr = b + kk * n;
        float* pcr = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) pcr[j] += av * pbr[j];
      }
    }
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t k,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* gcr = gc + i * n;
        const float* pbr = b + kk * n;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < n; ++j) acc += gcr[j] * pbr[j];
        ga[i * k + kk] += acc;
      }
    }
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t k0,
                    std::int64_t k1) const override {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float av = a[i * k + kk];
        const float* gcr = gc + i * n;
        float* gbr = gb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) gbr[j] += av * gcr[j];
      }
    }
  }

  void ew_add(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] + b[i];
  }

  void ew_mul(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] * b[i];
  }

  void ew_scale(const float* a, float s, float* out, std::int64_t i0,
                std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = s * a[i];
  }

  void ew_axpy(float s, const float* a, float* out, std::int64_t i0,
               std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) out[i] += s * a[i];
  }

  void ew_mul_acc(const float* a, const float* b, float* out, std::int64_t i0,
                  std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) out[i] += a[i] * b[i];
  }

  void gelu_fwd(const float* x, float* out, std::int64_t i0,
                std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = x[i];
      const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
      out[i] = 0.5f * v * (1.0f + t);
    }
  }

  void gelu_bwd(const float* x, const float* gy, float* gx, std::int64_t i0,
                std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = x[i];
      const float u = kGeluC * (v + 0.044715f * v * v * v);
      const float t = std::tanh(u);
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
      gx[i] += gy[i] * d;
    }
  }

  void row_bias_add(const float* x, const float* bias, float* out,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < n; ++j)
        out[i * n + j] = x[i * n + j] + bias[j];
  }

  // Reference attention: per head and query row, the scores, masked
  // softmax and weighted sum the per-head op chain computed, each as a
  // plain ascending loop.
  void attention_fwd(const float* qkv, float* out, float* probs,
                     std::int64_t t, std::int64_t d, std::int64_t n_heads,
                     std::int64_t h0, std::int64_t h1) const override {
    const std::int64_t dh = d / n_heads, ld = 3 * d;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    for (std::int64_t h = h0; h < h1; ++h) {
      const float* q = qkv + h * dh;
      const float* k = qkv + d + h * dh;
      const float* v = qkv + 2 * d + h * dh;
      for (std::int64_t i = 0; i < t; ++i) {
        float* p = probs + (h * t + i) * t;
        float mx = -1e30f;
        for (std::int64_t j = 0; j <= i; ++j) {
          float acc = 0.0f;
          for (std::int64_t c = 0; c < dh; ++c)
            acc += q[i * ld + c] * k[j * ld + c];
          p[j] = acc * inv_sqrt;
          mx = std::max(mx, p[j]);
        }
        float z = 0.0f;
        for (std::int64_t j = 0; j <= i; ++j) {
          p[j] = std::exp(p[j] - mx);
          z += p[j];
        }
        const float inv = 1.0f / z;
        for (std::int64_t j = 0; j <= i; ++j) p[j] *= inv;
        for (std::int64_t j = i + 1; j < t; ++j) p[j] = 0.0f;
        float* o = out + i * d + h * dh;
        for (std::int64_t c = 0; c < dh; ++c) {
          float acc = 0.0f;
          for (std::int64_t j = 0; j <= i; ++j) acc += p[j] * v[j * ld + c];
          o[c] = acc;
        }
      }
    }
  }

  void attention_bwd(const float* qkv, const float* probs, const float* gout,
                     float* gqkv, std::int64_t t, std::int64_t d,
                     std::int64_t n_heads, std::int64_t h0,
                     std::int64_t h1) const override {
    const std::int64_t dh = d / n_heads, ld = 3 * d;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    std::vector<float> ds(static_cast<std::size_t>(t));
    for (std::int64_t h = h0; h < h1; ++h) {
      const float* q = qkv + h * dh;
      const float* k = qkv + d + h * dh;
      const float* v = qkv + 2 * d + h * dh;
      float* gq = gqkv + h * dh;
      float* gk = gqkv + d + h * dh;
      float* gv = gqkv + 2 * d + h * dh;
      for (std::int64_t i = 0; i < t; ++i) {
        const float* p = probs + (h * t + i) * t;
        const float* go = gout + i * d + h * dh;
        // dP[j] = go·v[j]; softmax backward: dS = P ⊙ (dP − ⟨P, dP⟩),
        // folded with the 1/√dh score scale.
        float dot = 0.0f;
        for (std::int64_t j = 0; j <= i; ++j) {
          float acc = 0.0f;
          for (std::int64_t c = 0; c < dh; ++c) acc += go[c] * v[j * ld + c];
          ds[static_cast<std::size_t>(j)] = acc;
          dot += acc * p[j];
        }
        for (std::int64_t j = 0; j <= i; ++j) {
          auto& s = ds[static_cast<std::size_t>(j)];
          s = p[j] * (s - dot) * inv_sqrt;
        }
        for (std::int64_t c = 0; c < dh; ++c) {
          float acc = 0.0f;
          for (std::int64_t j = 0; j <= i; ++j)
            acc += ds[static_cast<std::size_t>(j)] * k[j * ld + c];
          gq[i * ld + c] += acc;
        }
        for (std::int64_t j = 0; j <= i; ++j) {
          const float s = ds[static_cast<std::size_t>(j)];
          for (std::int64_t c = 0; c < dh; ++c) {
            gk[j * ld + c] += s * q[i * ld + c];
            gv[j * ld + c] += p[j] * go[c];
          }
        }
      }
    }
  }
};

}  // namespace

const ComputeBackend& scalar_backend() {
  static ScalarBackend backend;
  return backend;
}

}  // namespace dpoaf::tensor::backend
