// Pre-training loop (next-token cross-entropy over the synthetic corpus)
// and response sampling — "querying the pre-trained model" in the paper's
// pipeline. After pre-training, sampled responses mirror the corpus's
// variant distribution, so the model starts with generic-but-imperfect
// domain behaviour exactly as the paper assumes of Llama2-7B.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lm/corpus.hpp"
#include "nn/gpt.hpp"

namespace dpoaf::lm {

using nn::TinyGpt;

struct PretrainConfig {
  int epochs = 12;
  int batch_size = 8;
  float lr = 3e-3f;
};

struct PretrainStats {
  std::vector<double> epoch_losses;  // mean CE per epoch
};

/// Resumable pre-training state captured at an epoch boundary: model
/// weights, AdamW moments, the caller's RNG stream (pretrain shuffles
/// consume it in place), the shuffle permutation, and losses so far.
struct PretrainState {
  int completed_epochs = 0;
  std::vector<float> model_state;
  std::vector<std::vector<float>> opt_m;
  std::vector<std::vector<float>> opt_v;
  std::int64_t opt_steps = 0;
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<std::uint64_t> order;
  std::vector<double> epoch_losses;
};

/// Snapshot hooks for pretrain(): `snapshot` fires every `snapshot_every`
/// completed epochs (and after the final epoch); 0 disables.
struct PretrainHooks {
  std::function<void(const PretrainState&)> snapshot;
  int snapshot_every = 0;
};

/// Train `model` in place; returns per-epoch losses.
PretrainStats pretrain(TinyGpt& model,
                       const std::vector<CorpusExample>& corpus,
                       const PretrainConfig& config, Rng& rng);

/// As above with snapshots and optional resume. With `resume` non-null
/// the model/optimizer/RNG/permutation are restored and training
/// continues at the next epoch; the final weights, losses, and the
/// caller's RNG stream end up bitwise-identical to an uninterrupted run.
PretrainStats pretrain(TinyGpt& model,
                       const std::vector<CorpusExample>& corpus,
                       const PretrainConfig& config, Rng& rng,
                       const PretrainHooks& hooks,
                       const PretrainState* resume);

struct SamplerConfig {
  int max_new_tokens = 72;
  float temperature = 0.7f;
  int top_k = 6;
};

/// Greedy (argmax) response for a task prompt — used to evaluate
/// checkpoints (Figure 9). Sets *truncated (when given) if the response
/// hit the context limit.
std::string greedy_response(const TinyGpt& model, const Tokenizer& tok,
                            const std::string& task_prompt,
                            int max_new_tokens = 72,
                            bool* truncated = nullptr);

}  // namespace dpoaf::lm
