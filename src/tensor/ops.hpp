// Differentiable operations over Tensor. Every op takes an optional Tape*;
// passing nullptr runs inference-only (no backward closure recorded).
// Gradients flow only into inputs with requires_grad().
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace dpoaf::tensor::ops {

/// C[M,N] = A[M,K] · B[K,N]
Tensor matmul(Tape* tape, const Tensor& a, const Tensor& b);

/// Elementwise sum; shapes must match.
Tensor add(Tape* tape, const Tensor& a, const Tensor& b);

/// x[M,N] + bias broadcast over rows; bias is [1,N].
Tensor add_rowwise(Tape* tape, const Tensor& x, const Tensor& bias);

/// Elementwise product; shapes must match.
Tensor mul(Tape* tape, const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor sub(Tape* tape, const Tensor& a, const Tensor& b);

/// s · a
Tensor scale(Tape* tape, const Tensor& a, float s);

/// GELU (tanh approximation), elementwise.
Tensor gelu(Tape* tape, const Tensor& a);

/// Row-wise layer normalization with learnable gamma/beta ([1,N]).
Tensor layer_norm(Tape* tape, const Tensor& x, const Tensor& gamma,
                  const Tensor& beta, float eps = 1e-5f);

/// Row-wise softmax.
Tensor softmax_rows(Tape* tape, const Tensor& x);

/// Causal multi-head self-attention, all heads in one op. qkv is [T, 3d]
/// (query heads, then key heads, then value heads, each head dh = d /
/// n_heads columns wide); returns [T, d] with head h's output in columns
/// [h·dh, (h+1)·dh): row i is Σ_{j≤i} softmax_j(q_i·k_j / √dh) · v_j.
/// Backward accumulates straight into qkv's gradient.
Tensor causal_attention(Tape* tape, const Tensor& qkv, std::int64_t n_heads);

/// out[T,D] = table[ids[t], :]; backward scatter-adds into the table.
Tensor embedding(Tape* tape, const Tensor& table,
                 const std::vector<int>& ids);

/// Scalar sum of all entries.
Tensor sum(Tape* tape, const Tensor& x);

/// Mean cross-entropy of next-token prediction: logits[T,V] vs targets[T];
/// positions with target < 0 are ignored (e.g. prompt/padding).
Tensor cross_entropy(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets);

/// Scalar Σ_{t ≥ from} log softmax(logits[t])[targets[t]] — the sequence
/// log-probability of the response region, differentiable for DPO.
/// Positions with target < 0 are skipped.
Tensor sum_log_probs(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets, std::int64_t from);

/// softplus(x) = log(1 + eˣ), elementwise (numerically stable).
Tensor softplus(Tape* tape, const Tensor& x);

}  // namespace dpoaf::tensor::ops
