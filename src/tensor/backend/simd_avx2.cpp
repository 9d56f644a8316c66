// AVX2/FMA backend: register-blocked, cache-tiled microkernels for the
// matmul paths plus 8-wide elementwise kernels. Compiled with
// -mavx2 -mfma on x86 (see src/tensor/CMakeLists.txt); execution is
// gated at runtime by cpuid in backend::simd_supported(), so carrying
// the code in a generic build is safe.
//
// Determinism (the contract tests/test_backend.cpp pins): every output
// element's arithmetic depends only on its absolute indices and the full
// operand shapes — never on the thread-pool chunk bounds. Concretely:
//  - each output row/cell owns its accumulator registers, and the
//    register-blocked (MR rows) and remainder (1 row) paths run the same
//    ascending-k FMA chain per element, so how rows group into blocks
//    (which chunk bounds shift) cannot change any value;
//  - column tiling (64/16/8-wide tiles, scalar tails) only groups
//    independent columns into registers — it never alters a column's own
//    FMA chain — and the scalar tails use std::fma, which rounds exactly
//    like a vector FMA lane;
//  - the K cache tiles spill accumulators to the float32 output between
//    tiles — a lossless round-trip, so tiling never reorders a rounding.
// Results *do* differ from the scalar backend (FMA fuses the multiply
// and add into one rounding); that is the allowed cross-backend delta.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

namespace dpoaf::tensor::backend {

namespace {

// Microkernel shape: MR output rows × NR output columns of C stay in
// registers across a K tile (MR·NR/8 = 8 accumulators + 2 B vectors +
// broadcasts fit the 16 ymm registers).
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 16;
// K cache tile: one B panel (kKC × kNR floats = 16 KiB) stays L1-resident
// while the microkernel sweeps its rows.
constexpr std::int64_t kKC = 256;

// Fixed-order horizontal sum of 8 lanes (pairwise tree, independent of
// call-site context).
float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// C rows [i, i+R) × columns [j, j+16) over K tile [kc0, kc1); the
// accumulators start from C (zero-filled by the caller, or the previous
// K tile's exact float32 spill).
template <std::int64_t R>
void fwd_tile16(const float* a, const float* b, float* c, std::int64_t k,
                std::int64_t n, std::int64_t i, std::int64_t j,
                std::int64_t kc0, std::int64_t kc1) {
  __m256 acc0[R], acc1[R];
  for (std::int64_t r = 0; r < R; ++r) {
    acc0[r] = _mm256_loadu_ps(c + (i + r) * n + j);
    acc1[r] = _mm256_loadu_ps(c + (i + r) * n + j + 8);
  }
  for (std::int64_t kk = kc0; kk < kc1; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
    const __m256 b1 = _mm256_loadu_ps(b + kk * n + j + 8);
    for (std::int64_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + (i + r) * k + kk);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (std::int64_t r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + (i + r) * n + j, acc0[r]);
    _mm256_storeu_ps(c + (i + r) * n + j + 8, acc1[r]);
  }
}

// Column tail: 8-wide then std::fma scalars; same per-element FMA chain
// as the 16-wide path, so which tile a column lands in (a function of N
// alone) is the only thing that varies.
template <std::int64_t R>
void fwd_tail(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t j0,
              std::int64_t kc0, std::int64_t kc1) {
  std::int64_t j = j0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (std::int64_t r = 0; r < R; ++r)
      acc[r] = _mm256_loadu_ps(c + (i + r) * n + j);
    for (std::int64_t kk = kc0; kk < kc1; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * n + j);
      for (std::int64_t r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i + r) * k + kk),
                                 bv, acc[r]);
    }
    for (std::int64_t r = 0; r < R; ++r)
      _mm256_storeu_ps(c + (i + r) * n + j, acc[r]);
  }
  for (; j < n; ++j) {
    for (std::int64_t r = 0; r < R; ++r) {
      float acc = c[(i + r) * n + j];
      for (std::int64_t kk = kc0; kk < kc1; ++kk)
        acc = std::fma(a[(i + r) * k + kk], b[kk * n + j], acc);
      c[(i + r) * n + j] = acc;
    }
  }
}

template <std::int64_t R>
void fwd_rows(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t kc0,
              std::int64_t kc1) {
  std::int64_t j = 0;
  for (; j + kNR <= n; j += kNR) fwd_tile16<R>(a, b, c, k, n, i, j, kc0, kc1);
  if (j < n) fwd_tail<R>(a, b, c, k, n, i, j, kc0, kc1);
}

// Single-row path (remainder rows, and the m=1 matvec the KV-cache
// decoder issues every token): with one row the 16-wide tile holds only
// 2 accumulator chains — too few to hide FMA latency — so tile 64
// columns (8 independent chains) first. Register grouping of independent
// columns never changes a column's own ascending-kk FMA chain, so a row
// computes the same bits here as inside a 4-row block.
void fwd_row1(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t kc0,
              std::int64_t kc1) {
  const float* ar = a + i * k;
  float* cr = c + i * n;
  std::int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m256 acc[8];
    for (int t = 0; t < 8; ++t) acc[t] = _mm256_loadu_ps(cr + j + 8 * t);
    for (std::int64_t kk = kc0; kk < kc1; ++kk) {
      const __m256 av = _mm256_broadcast_ss(ar + kk);
      const float* br = b + kk * n + j;
      for (int t = 0; t < 8; ++t)
        acc[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(br + 8 * t), acc[t]);
    }
    for (int t = 0; t < 8; ++t) _mm256_storeu_ps(cr + j + 8 * t, acc[t]);
  }
  for (; j + kNR <= n; j += kNR) fwd_tile16<1>(a, b, c, k, n, i, j, kc0, kc1);
  if (j < n) fwd_tail<1>(a, b, c, k, n, i, j, kc0, kc1);
}

// ---- GELU --------------------------------------------------------------
//
// tanh is Eigen's [13/6] odd/even rational approximation, evaluated with
// FMAs on u clamped to |u| ≤ 7.99881172 (Eigen's FMA clamp: the first
// point where this evaluation returns exactly ±1, so gelu′ gets 1 − t² = 0
// for large |x| just as std::tanh gives it; the non-FMA clamp 7.9053 stops
// at 1 − 2.4e-7 and inflates gelu′(1e3) to ~26), with tanh(u) = u for
// |u| < 4e-4. Against std::tanh it is within 5 ulp / 3.0e-7 absolute.
// Every multiply that feeds an add is an explicit FMA, and the scalar
// tail (gelu1/tanh1) runs the same std::fma chain and the same min/max
// operand order as a vector lane, so an element's bits do not depend on
// whether it lands in a vector or in a chunk's tail.
constexpr float kGeluC = 0.7978845608028654f;  // √(2/π)
constexpr float kGeluA = 0.044715f;
constexpr float kGelu3A = 3.0f * 0.044715f;
constexpr float kTanhClamp = 7.99881172180175781f;
constexpr float kTanhTiny = 0.0004f;
constexpr float kTanhP[] = {4.89352455891786e-03f,  6.37261928875436e-04f,
                            1.48572235717979e-05f,  5.12229709037114e-08f,
                            -8.60467152213735e-11f, 2.00018790482477e-13f,
                            -2.76076847742355e-16f};
constexpr float kTanhQ[] = {4.89352518554385e-03f, 2.26843463243900e-03f,
                            1.18534705686654e-04f, 1.19825839466702e-06f};

__m256 tanh8(__m256 u) {
  const __m256 x =
      _mm256_min_ps(_mm256_max_ps(u, _mm256_set1_ps(-kTanhClamp)),
                    _mm256_set1_ps(kTanhClamp));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_fmadd_ps(x2, _mm256_set1_ps(kTanhP[6]),
                             _mm256_set1_ps(kTanhP[5]));
  for (int c = 4; c >= 0; --c)
    p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(kTanhP[c]));
  p = _mm256_mul_ps(x, p);
  __m256 q = _mm256_fmadd_ps(x2, _mm256_set1_ps(kTanhQ[3]),
                             _mm256_set1_ps(kTanhQ[2]));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(kTanhQ[1]));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(kTanhQ[0]));
  const __m256 abs_u = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), u);
  const __m256 tiny =
      _mm256_cmp_ps(abs_u, _mm256_set1_ps(kTanhTiny), _CMP_LT_OQ);
  return _mm256_blendv_ps(_mm256_div_ps(p, q), u, tiny);
}

float tanh1(float u) {
  // Operand order of _mm256_max_ps/_mm256_min_ps (the second operand wins
  // on NaN and on ties).
  float x = u > -kTanhClamp ? u : -kTanhClamp;
  x = x < kTanhClamp ? x : kTanhClamp;
  const float x2 = x * x;
  float p = std::fma(x2, kTanhP[6], kTanhP[5]);
  for (int c = 4; c >= 0; --c) p = std::fma(x2, p, kTanhP[c]);
  p = x * p;
  float q = std::fma(x2, kTanhQ[3], kTanhQ[2]);
  q = std::fma(x2, q, kTanhQ[1]);
  q = std::fma(x2, q, kTanhQ[0]);
  return std::fabs(u) < kTanhTiny ? u : p / q;
}

// u = √(2/π)·x·(1 + a·x²), the tanh argument.
__m256 gelu_arg8(__m256 x) {
  const __m256 s = _mm256_fmadd_ps(_mm256_set1_ps(kGeluA), _mm256_mul_ps(x, x),
                                   _mm256_set1_ps(1.0f));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluC), x), s);
}

float gelu_arg1(float x) {
  const float s = std::fma(kGeluA, x * x, 1.0f);
  return (kGeluC * x) * s;
}

// gelu(x) = hx + hx·t with hx = x/2.
__m256 gelu8(__m256 x) {
  const __m256 hx = _mm256_mul_ps(_mm256_set1_ps(0.5f), x);
  return _mm256_fmadd_ps(hx, tanh8(gelu_arg8(x)), hx);
}

float gelu1(float x) {
  const float hx = 0.5f * x;
  return std::fma(hx, tanh1(gelu_arg1(x)), hx);
}

// gelu′(x) = (1 + t)/2 + hx·(1 − t²)·√(2/π)(1 + 3a·x²).
__m256 gelu_grad8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 t = tanh8(gelu_arg8(x));
  const __m256 hx = _mm256_mul_ps(half, x);
  const __m256 omt2 = _mm256_fnmadd_ps(t, t, one);
  const __m256 du = _mm256_mul_ps(
      _mm256_set1_ps(kGeluC),
      _mm256_fmadd_ps(_mm256_set1_ps(kGelu3A), _mm256_mul_ps(x, x), one));
  return _mm256_fmadd_ps(_mm256_mul_ps(hx, omt2), du,
                         _mm256_fmadd_ps(half, t, half));
}

float gelu_grad1(float x) {
  const float t = tanh1(gelu_arg1(x));
  const float hx = 0.5f * x;
  const float omt2 = std::fma(-t, t, 1.0f);
  const float du = kGeluC * std::fma(kGelu3A, x * x, 1.0f);
  return std::fma(hx * omt2, du, std::fma(0.5f, t, 0.5f));
}

// ---- attention ---------------------------------------------------------
//
// Vectorized over keys: each head's K and V are transposed into
// zero-padded [dh, Tpad] panels (Tpad = T rounded up to 8), so one
// 8-lane FMA chain over the head dimension yields 8 scores, and the
// probability-weighted sums read 8 keys per load. Lanes j > i are
// masked: their scores never reach the max, and their probabilities
// (and hence score gradients) are exact zeros, so padded lanes add
// nothing to any reduction. Every reduction runs in a fixed order that
// depends only on (i, j, T), and a head is one unit of work — so results
// are bitwise-identical under any head partition (thread count).

// e^x for x ≤ 0 (Cephes expf: 2ⁿ·e^r, r = x − n·ln2, degree-6
// polynomial; about 1 ulp). Inputs below −87.3 clamp to e^−87.3.
__m256 exp8(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.33654f));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 er = _mm256_add_ps(
      _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(er, _mm256_castsi256_ps(e));
}

// Fixed-order horizontal max of 8 lanes.
float hmax8(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x1));
  return _mm_cvtss_f32(m);
}

// All-ones in lanes jb..jb+7 that are ≤ i (keys visible from query i).
__m256 causal_mask(std::int64_t i, std::int64_t jb) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i limit = _mm256_set1_epi32(static_cast<int>(i - jb + 1));
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(limit, lane));
}

std::int64_t pad8(std::int64_t t) { return (t + 7) & ~std::int64_t{7}; }

// dst[c·tp + j] = src[j·ld + c] for j < t, c < dh; lanes j ≥ t stay zero.
void transpose_panel(const float* src, std::int64_t ld, std::int64_t t,
                     std::int64_t dh, std::int64_t tp,
                     std::vector<float>& dst) {
  dst.assign(static_cast<std::size_t>(dh * tp), 0.0f);
  for (std::int64_t j = 0; j < t; ++j)
    for (std::int64_t c = 0; c < dh; ++c)
      dst[static_cast<std::size_t>(c * tp + j)] = src[j * ld + c];
}

// out[c] (+)= Σ_{b<nb} ⟨row[8b..], panel[c·tp + 8b..]⟩ for c < dh: one
// 8-lane chain per c, summed by hsum8. Columns are grouped 8/4/1 at a
// time only to keep enough independent chains in flight; the grouping
// never changes a column's own chain.
template <bool kAccumulate>
void panel_dots(const float* row, const float* panel, std::int64_t tp,
                std::int64_t nb, std::int64_t dh, float* out) {
  auto group = [&](std::int64_t c0, auto width) {
    constexpr int kW = decltype(width)::value;
    __m256 acc[kW];
    for (int r = 0; r < kW; ++r) acc[r] = _mm256_setzero_ps();
    for (std::int64_t b = 0; b < nb; ++b) {
      const __m256 rv = _mm256_loadu_ps(row + 8 * b);
      for (int r = 0; r < kW; ++r)
        acc[r] = _mm256_fmadd_ps(
            rv, _mm256_loadu_ps(panel + (c0 + r) * tp + 8 * b), acc[r]);
    }
    for (int r = 0; r < kW; ++r) {
      if constexpr (kAccumulate) {
        out[c0 + r] += hsum8(acc[r]);
      } else {
        out[c0 + r] = hsum8(acc[r]);
      }
    }
  };
  std::int64_t c = 0;
  for (; c + 8 <= dh; c += 8) group(c, std::integral_constant<int, 8>{});
  for (; c + 4 <= dh; c += 4) group(c, std::integral_constant<int, 4>{});
  for (; c < dh; ++c) group(c, std::integral_constant<int, 1>{});
}

// One key block of 8 lanes: Σ_c vec[c]·panel[c·tp + 8b..], an FMA chain
// over c ascending.
__m256 panel_block(const float* vec, const float* panel, std::int64_t tp,
                   std::int64_t dh, std::int64_t b) {
  __m256 acc = _mm256_setzero_ps();
  for (std::int64_t c = 0; c < dh; ++c)
    acc = _mm256_fmadd_ps(_mm256_broadcast_ss(vec + c),
                          _mm256_loadu_ps(panel + c * tp + 8 * b), acc);
  return acc;
}

// g[j·gld + c] += Σ_{i ≥ 8b} rows[i·tp + 8b + lane]·vecs[i·vld + c] for
// the key block b (lanes j = 8b + lane < t): per cell an i-ascending
// chain; rows i < j contribute exact zeros (masked probabilities).
void key_block_grads(const float* rows, const float* vecs, std::int64_t vld,
                     std::int64_t t, std::int64_t tp, std::int64_t dh,
                     std::int64_t b, float* g, std::int64_t gld) {
  alignas(32) float lanes[8];
  const std::int64_t jn = std::min<std::int64_t>(8, t - 8 * b);
  auto group = [&](std::int64_t c0, auto width) {
    constexpr int kW = decltype(width)::value;
    __m256 acc[kW];
    for (int r = 0; r < kW; ++r) acc[r] = _mm256_setzero_ps();
    for (std::int64_t i = 8 * b; i < t; ++i) {
      const __m256 rv = _mm256_loadu_ps(rows + i * tp + 8 * b);
      for (int r = 0; r < kW; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(vecs + i * vld + c0 + r),
                                 rv, acc[r]);
    }
    for (int r = 0; r < kW; ++r) {
      _mm256_store_ps(lanes, acc[r]);
      for (std::int64_t l = 0; l < jn; ++l)
        g[(8 * b + l) * gld + c0 + r] += lanes[l];
    }
  };
  std::int64_t c = 0;
  for (; c + 8 <= dh; c += 8) group(c, std::integral_constant<int, 8>{});
  for (; c + 4 <= dh; c += 4) group(c, std::integral_constant<int, 4>{});
  for (; c < dh; ++c) group(c, std::integral_constant<int, 1>{});
}

class SimdBackend final : public ComputeBackend {
 public:
  SimdBackend() : ComputeBackend("simd") {}

  [[nodiscard]] Kind kind() const override { return Kind::kSimd; }

  void matmul_fwd(const float* a, const float* b, float* c, std::int64_t k,
                  std::int64_t n, std::int64_t i0,
                  std::int64_t i1) const override {
    for (std::int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const std::int64_t kc1 = kc0 + kKC < k ? kc0 + kKC : k;
      std::int64_t i = i0;
      for (; i + kMR <= i1; i += kMR)
        fwd_rows<kMR>(a, b, c, k, n, i, kc0, kc1);
      for (; i < i1; ++i) fwd_row1(a, b, c, k, n, i, kc0, kc1);
    }
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t k,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    // ga[i,kk] += ⟨gc[i,:], b[kk,:]⟩ — kk blocked by 4 to reuse each gc
    // vector across four B rows; per-(i,kk) the j-ascending FMA chain,
    // the hsum8 tree, and the scalar tail are identical in the blocked
    // and remainder paths.
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* gcr = gc + i * n;
      std::int64_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                         _mm256_setzero_ps(), _mm256_setzero_ps()};
        std::int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
          const __m256 g = _mm256_loadu_ps(gcr + j);
          for (std::int64_t r = 0; r < 4; ++r)
            acc[r] = _mm256_fmadd_ps(
                g, _mm256_loadu_ps(b + (kk + r) * n + j), acc[r]);
        }
        for (std::int64_t r = 0; r < 4; ++r) {
          float s = hsum8(acc[r]);
          for (std::int64_t jt = j; jt < n; ++jt)
            s = std::fma(gcr[jt], b[(kk + r) * n + jt], s);
          ga[i * k + kk + r] += s;
        }
      }
      for (; kk < k; ++kk) {
        __m256 acc = _mm256_setzero_ps();
        std::int64_t j = 0;
        for (; j + 8 <= n; j += 8)
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(gcr + j),
                                _mm256_loadu_ps(b + kk * n + j), acc);
        float s = hsum8(acc);
        for (; j < n; ++j) s = std::fma(gcr[j], b[kk * n + j], s);
        ga[i * k + kk] += s;
      }
    }
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t k0,
                    std::int64_t k1) const override {
    // gb[kk,j] += Σ_i a[i,kk]·gc[i,j]: a gb j-tile stays in registers
    // while i ascends (the accumulation order every backend preserves);
    // the i loop is innermost so each cell sees one fixed FMA chain.
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      float* gbr = gb + kk * n;
      std::int64_t j = 0;
      for (; j + kNR <= n; j += kNR) {
        __m256 acc0 = _mm256_loadu_ps(gbr + j);
        __m256 acc1 = _mm256_loadu_ps(gbr + j + 8);
        for (std::int64_t i = 0; i < m; ++i) {
          const __m256 av = _mm256_broadcast_ss(a + i * k + kk);
          acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(gc + i * n + j), acc0);
          acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(gc + i * n + j + 8),
                                 acc1);
        }
        _mm256_storeu_ps(gbr + j, acc0);
        _mm256_storeu_ps(gbr + j + 8, acc1);
      }
      for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_loadu_ps(gbr + j);
        for (std::int64_t i = 0; i < m; ++i)
          acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + i * k + kk),
                                _mm256_loadu_ps(gc + i * n + j), acc);
        _mm256_storeu_ps(gbr + j, acc);
      }
      for (; j < n; ++j) {
        float acc = gbr[j];
        for (std::int64_t i = 0; i < m; ++i)
          acc = std::fma(a[i * k + kk], gc[i * n + j], acc);
        gbr[j] = acc;
      }
    }
  }

  // The elementwise kernels are per-element (no reductions), so vector
  // grouping — which does shift with the chunk base — cannot change any
  // value; add/mul/scale round exactly like scalar, axpy/mul_acc fuse.
  void ew_add(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < i1; ++i) out[i] = a[i] + b[i];
  }

  void ew_mul(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < i1; ++i) out[i] = a[i] * b[i];
  }

  void ew_scale(const float* a, float s, float* out, std::int64_t i0,
                std::int64_t i1) const override {
    const __m256 sv = _mm256_set1_ps(s);
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(sv, _mm256_loadu_ps(a + i)));
    for (; i < i1; ++i) out[i] = s * a[i];
  }

  void ew_axpy(float s, const float* a, float* out, std::int64_t i0,
               std::int64_t i1) const override {
    const __m256 sv = _mm256_set1_ps(s);
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(sv, _mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < i1; ++i) out[i] = std::fma(s, a[i], out[i]);
  }

  void ew_mul_acc(const float* a, const float* b, float* out, std::int64_t i0,
                  std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < i1; ++i) out[i] = std::fma(a[i], b[i], out[i]);
  }

  void gelu_fwd(const float* x, float* out, std::int64_t i0,
                std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, gelu8(_mm256_loadu_ps(x + i)));
    for (; i < i1; ++i) out[i] = gelu1(x[i]);
  }

  void gelu_bwd(const float* x, const float* gy, float* gx, std::int64_t i0,
                std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(gx + i,
                       _mm256_fmadd_ps(_mm256_loadu_ps(gy + i),
                                       gelu_grad8(_mm256_loadu_ps(x + i)),
                                       _mm256_loadu_ps(gx + i)));
    for (; i < i1; ++i) gx[i] = std::fma(gy[i], gelu_grad1(x[i]), gx[i]);
  }

  void attention_fwd(const float* qkv, float* out, float* probs,
                     std::int64_t t, std::int64_t d, std::int64_t n_heads,
                     std::int64_t h0, std::int64_t h1) const override {
    const std::int64_t dh = d / n_heads, ld = 3 * d, tp = pad8(t);
    const __m256 inv_sqrt =
        _mm256_set1_ps(1.0f / std::sqrt(static_cast<float>(dh)));
    const __m256 neg_big = _mm256_set1_ps(-1e30f);
    std::vector<float> kt, vt;
    std::vector<float> row(static_cast<std::size_t>(tp));
    for (std::int64_t h = h0; h < h1; ++h) {
      const float* q = qkv + h * dh;
      transpose_panel(qkv + d + h * dh, ld, t, dh, tp, kt);
      transpose_panel(qkv + 2 * d + h * dh, ld, t, dh, tp, vt);
      for (std::int64_t i = 0; i < t; ++i) {
        const std::int64_t nb = i / 8 + 1;  // key blocks holding j ≤ i
        float* pr = row.data();
        __m256 vmax = neg_big;
        for (std::int64_t b = 0; b < nb; ++b) {
          __m256 s = _mm256_mul_ps(
              panel_block(q + i * ld, kt.data(), tp, dh, b), inv_sqrt);
          if (b == nb - 1)
            s = _mm256_blendv_ps(neg_big, s, causal_mask(i, 8 * b));
          _mm256_storeu_ps(pr + 8 * b, s);
          vmax = _mm256_max_ps(vmax, s);
        }
        const __m256 mx = _mm256_set1_ps(hmax8(vmax));
        __m256 vsum = _mm256_setzero_ps();
        for (std::int64_t b = 0; b < nb; ++b) {
          __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(pr + 8 * b), mx));
          if (b == nb - 1) e = _mm256_and_ps(e, causal_mask(i, 8 * b));
          _mm256_storeu_ps(pr + 8 * b, e);
          vsum = _mm256_add_ps(vsum, e);
        }
        const __m256 inv = _mm256_set1_ps(1.0f / hsum8(vsum));
        for (std::int64_t b = 0; b < nb; ++b)
          _mm256_storeu_ps(pr + 8 * b,
                           _mm256_mul_ps(_mm256_loadu_ps(pr + 8 * b), inv));
        float* prob_row = probs + (h * t + i) * t;
        std::copy(pr, pr + i + 1, prob_row);
        std::fill(prob_row + i + 1, prob_row + t, 0.0f);
        panel_dots<false>(pr, vt.data(), tp, nb, dh, out + i * d + h * dh);
      }
    }
  }

  void attention_bwd(const float* qkv, const float* probs, const float* gout,
                     float* gqkv, std::int64_t t, std::int64_t d,
                     std::int64_t n_heads, std::int64_t h0,
                     std::int64_t h1) const override {
    const std::int64_t dh = d / n_heads, ld = 3 * d, tp = pad8(t);
    const __m256 inv_sqrt =
        _mm256_set1_ps(1.0f / std::sqrt(static_cast<float>(dh)));
    std::vector<float> kt, vt;
    std::vector<float> p(static_cast<std::size_t>(t * tp));
    std::vector<float> ds(static_cast<std::size_t>(t * tp));
    for (std::int64_t h = h0; h < h1; ++h) {
      const float* q = qkv + h * dh;
      transpose_panel(qkv + d + h * dh, ld, t, dh, tp, kt);
      transpose_panel(qkv + 2 * d + h * dh, ld, t, dh, tp, vt);
      for (std::int64_t i = 0; i < t; ++i) {
        const float* src = probs + (h * t + i) * t;
        std::copy(src, src + t, p.data() + i * tp);
        std::fill(p.data() + i * tp + t, p.data() + (i + 1) * tp, 0.0f);
      }
      // Per query row: dP = gout·Vᵀ, dS = P ⊙ (dP − ⟨P, dP⟩) / √dh, and
      // dQ += dS·K.
      for (std::int64_t i = 0; i < t; ++i) {
        const std::int64_t nb = i / 8 + 1;
        const float* go = gout + i * d + h * dh;
        const float* pr = p.data() + i * tp;
        float* dsr = ds.data() + i * tp;
        __m256 vdot = _mm256_setzero_ps();
        for (std::int64_t b = 0; b < nb; ++b) {
          const __m256 dp = panel_block(go, vt.data(), tp, dh, b);
          _mm256_storeu_ps(dsr + 8 * b, dp);
          vdot = _mm256_fmadd_ps(_mm256_loadu_ps(pr + 8 * b), dp, vdot);
        }
        const __m256 dot = _mm256_set1_ps(hsum8(vdot));
        for (std::int64_t b = 0; b < nb; ++b)
          _mm256_storeu_ps(
              dsr + 8 * b,
              _mm256_mul_ps(
                  _mm256_mul_ps(
                      _mm256_sub_ps(_mm256_loadu_ps(dsr + 8 * b), dot),
                      _mm256_loadu_ps(pr + 8 * b)),
                  inv_sqrt));
        panel_dots<true>(dsr, kt.data(), tp, nb, dh, gqkv + i * ld + h * dh);
      }
      // Per key block: dK += dSᵀ·Q and dV += Pᵀ·gout.
      for (std::int64_t b = 0; b < tp / 8; ++b) {
        key_block_grads(ds.data(), q, ld, t, tp, dh, b, gqkv + d + h * dh,
                        ld);
        key_block_grads(p.data(), gout + h * dh, d, t, tp, dh, b,
                        gqkv + 2 * d + h * dh, ld);
      }
    }
  }

  void row_bias_add(const float* x, const float* bias, float* out,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* xr = x + i * n;
      float* outr = out + i * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(outr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                                 _mm256_loadu_ps(bias + j)));
      for (; j < n; ++j) outr[j] = xr[j] + bias[j];
    }
  }
};

}  // namespace

namespace detail {

const ComputeBackend* simd_backend_impl() {
  static SimdBackend backend;
  return &backend;
}

bool simd_compiled() { return true; }

}  // namespace detail

}  // namespace dpoaf::tensor::backend

#else  // !(__AVX2__ && __FMA__): generic build — stub out the backend.

namespace dpoaf::tensor::backend::detail {

const ComputeBackend* simd_backend_impl() { return nullptr; }

bool simd_compiled() { return false; }

}  // namespace dpoaf::tensor::backend::detail

#endif
