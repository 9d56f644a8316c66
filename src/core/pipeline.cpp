#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/dataflow/channel.hpp"
#include "core/dataflow/reorder.hpp"
#include "core/dataflow/stage.hpp"
#include "modelcheck/buchi.hpp"
#include "monitor/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "tensor/backend/backend.hpp"
#include "util/check.hpp"
#include "util/threadpool.hpp"

namespace dpoaf::core {

namespace {

// CheckpointEval and ckpt::EvalRecord are field-for-field mirrors (ckpt
// sits below core in the dependency order); convert at the boundary.
ckpt::EvalRecord to_record(const CheckpointEval& e) {
  ckpt::EvalRecord r;
  r.epoch = e.epoch;
  r.train_mean_satisfied = e.train_mean_satisfied;
  r.val_mean_satisfied = e.val_mean_satisfied;
  r.train_alignment_failure_rate = e.train_alignment_failure_rate;
  r.val_alignment_failure_rate = e.val_alignment_failure_rate;
  r.truncated_responses = e.truncated_responses;
  r.per_task = e.per_task;
  r.per_task_alignment_failure = e.per_task_alignment_failure;
  return r;
}

CheckpointEval from_record(const ckpt::EvalRecord& r) {
  CheckpointEval e;
  e.epoch = r.epoch;
  e.train_mean_satisfied = r.train_mean_satisfied;
  e.val_mean_satisfied = r.val_mean_satisfied;
  e.train_alignment_failure_rate = r.train_alignment_failure_rate;
  e.val_alignment_failure_rate = r.val_alignment_failure_rate;
  e.truncated_responses = r.truncated_responses;
  e.per_task = r.per_task;
  e.per_task_alignment_failure = r.per_task_alignment_failure;
  return e;
}

driving::generator::GeneratorConfig make_generator_config(
    const PipelineConfig& config) {
  driving::generator::GeneratorConfig gen;
  gen.seed = config.generator_seed;
  gen.count = config.generated_scenarios;
  gen.holdout = config.holdout_scenarios;
  return gen;
}

// One generator per task, split from `parent` in serial task order: the
// stream each task sees is fixed before any worker runs, so every thread
// count yields identical results.
std::vector<Rng> split_per_task(Rng& parent, std::size_t tasks) {
  std::vector<Rng> rngs;
  rngs.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i) rngs.push_back(parent.split());
  return rngs;
}

lm::SamplerConfig eval_sampler(const PipelineConfig& config) {
  lm::SamplerConfig sampler;
  sampler.temperature = config.eval_temperature;
  sampler.top_k = config.eval_top_k;
  sampler.max_new_tokens = config.eval_max_new_tokens;
  return sampler;
}

serve::ServiceConfig make_serve_config(const PipelineConfig& config) {
  serve::ServiceConfig scfg;
  scfg.slots = config.serve_slots;
  scfg.queue_capacity = std::max(64, config.serve_slots * 4);
  scfg.deterministic = true;  // results must not depend on wall-clock
  scfg.seed = config.seed;
  return scfg;
}

}  // namespace

nn::Generation sample_direct(const TinyGpt& model, const Tokenizer& tokenizer,
                             const std::vector<int>& prompt,
                             const lm::SamplerConfig& sampler,
                             std::uint64_t service_seed,
                             std::uint64_t request_seed) {
  Rng rng = serve::request_rng(service_seed, request_seed);
  return model.generate(prompt, sampler.max_new_tokens, sampler.temperature,
                        sampler.top_k, tokenizer.eos(), rng);
}

DpoAfPipeline::DpoAfPipeline(PipelineConfig config)
    : config_(config),
      domain_(make_generator_config(config_)),
      tokenizer_(lm::build_tokenizer(domain_.tasks())),
      rng_(config.seed) {
  util::set_global_threads(config_.threads);
  tensor::backend::select(config_.backend);
  domain_.set_feedback_cache(config_.feedback_cache);
  // Enable-only: never turn off observability some other component (a
  // bench harness, the example binary) switched on for the process.
  if (config_.observability) obs::set_enabled(true);
  nn::GptConfig gpt_cfg;
  gpt_cfg.vocab_size = static_cast<std::int64_t>(tokenizer_.vocab_size());
  gpt_cfg.d_model = config_.d_model;
  gpt_cfg.n_heads = config_.n_heads;
  gpt_cfg.n_layers = config_.n_layers;
  gpt_cfg.d_ff = config_.d_ff;
  // Size the context to the longest catalog sequence plus slack for
  // sampled responses.
  std::int64_t longest = 0;
  for (const auto& task : domain_.tasks())
    for (const auto& variant : task.variants)
      longest = std::max(
          longest, static_cast<std::int64_t>(
                       lm::encode_example(tokenizer_, task.prompt,
                                          variant.text)
                           .size()));
  gpt_cfg.max_seq = longest + 16;
  model_ = TinyGpt(gpt_cfg, rng_);
  if (!config_.checkpoint_dir.empty())
    sink_ = std::make_shared<ckpt::CheckpointStore>(
        config_.checkpoint_dir, config_.checkpoint_retain_last);
}

ckpt::TrainingCheckpoint DpoAfPipeline::base_checkpoint() const {
  ckpt::TrainingCheckpoint c;
  c.pipeline_seed = config_.seed;
  c.model_config = model_.config();
  c.lora_rank = config_.dpo.lora_rank;
  c.lora_alpha = config_.dpo.lora_alpha;
  c.vocab.reserve(tokenizer_.vocab_size());
  for (std::size_t i = 0; i < tokenizer_.vocab_size(); ++i)
    c.vocab.push_back(tokenizer_.word_of(static_cast<int>(i)));
  return c;
}

void DpoAfPipeline::validate_checkpoint(
    const ckpt::TrainingCheckpoint& snap) const {
  if (snap.pipeline_seed != config_.seed)
    throw ckpt::CheckpointError(
        "checkpoint was produced with seed " +
        std::to_string(snap.pipeline_seed) +
        " but this pipeline is configured with seed " +
        std::to_string(config_.seed));
  const nn::GptConfig& want = model_.config();
  const nn::GptConfig& got = snap.model_config;
  if (got.vocab_size != want.vocab_size || got.d_model != want.d_model ||
      got.n_heads != want.n_heads || got.n_layers != want.n_layers ||
      got.d_ff != want.d_ff || got.max_seq != want.max_seq)
    throw ckpt::CheckpointError(
        "checkpoint model architecture does not match this pipeline's "
        "configuration");
  if (snap.lora_rank != config_.dpo.lora_rank ||
      snap.lora_alpha != config_.dpo.lora_alpha)
    throw ckpt::CheckpointError(
        "checkpoint LoRA layout (rank " + std::to_string(snap.lora_rank) +
        ") does not match this pipeline's configuration (rank " +
        std::to_string(config_.dpo.lora_rank) + ")");
  if (snap.vocab.size() != tokenizer_.vocab_size())
    throw ckpt::CheckpointError(
        "checkpoint vocabulary size does not match this pipeline's "
        "tokenizer — the task catalog changed");
  for (std::size_t i = 0; i < snap.vocab.size(); ++i)
    if (snap.vocab[i] != tokenizer_.word_of(static_cast<int>(i)))
      throw ckpt::CheckpointError(
          "checkpoint vocabulary differs from this pipeline's tokenizer at "
          "token id " + std::to_string(i) + " — the task catalog changed");
}

lm::PretrainStats DpoAfPipeline::pretrain_model() {
  return pretrain_model_impl(nullptr);
}

lm::PretrainStats DpoAfPipeline::pretrain_model_impl(
    const lm::PretrainState* resume) {
  // A resume at the final epoch boundary skips the stage entirely; without
  // the guard its span would still charge the corpus rebuild (needed only
  // for the RNG stream) to "pretrain" — wall time for a phase that did
  // not run.
  const bool will_train =
      (resume == nullptr ? 0 : resume->completed_epochs) <
      config_.pretrain.epochs;
  std::optional<obs::Span> span;
  if (will_train)
    span.emplace("pretrain", obs::histogram("pipeline.pretrain_ns"));
  // The corpus build consumes the pipeline RNG identically on fresh and
  // resumed runs; pretrain() then restores the RNG from the snapshot, so
  // by the end of the stage the stream matches an uninterrupted run.
  //
  // Held-out scenarios must leave no trace in the training signal: their
  // tasks are dropped from the corpus here (the tokenizer still covers
  // them, so held-out prompts stay encodable at eval time). Without any
  // holdout the task list passes through untouched.
  std::vector<driving::Task> visible_tasks;
  const std::vector<driving::Task>* corpus_tasks = &domain_.tasks();
  for (const auto& task : domain_.tasks())
    if (task.holdout) {
      for (const auto& t : domain_.tasks())
        if (!t.holdout) visible_tasks.push_back(t);
      corpus_tasks = &visible_tasks;
      break;
    }
  const auto corpus =
      lm::build_corpus(*corpus_tasks, tokenizer_,
                       config_.corpus_samples_per_task,
                       config_.corpus_weights, rng_);
  lm::PretrainHooks hooks;
  if (sink_ && config_.checkpoint_every_epochs > 0) {
    hooks.snapshot_every = config_.checkpoint_every_epochs;
    hooks.snapshot = [this](const lm::PretrainState& s) {
      ckpt::TrainingCheckpoint snap = base_checkpoint();
      snap.stage = ckpt::Stage::kPretrain;
      snap.completed_epochs = s.completed_epochs;
      snap.policy_state = s.model_state;
      snap.opt_m = s.opt_m;
      snap.opt_v = s.opt_v;
      snap.opt_steps = s.opt_steps;
      snap.rng_state = s.rng_state;
      snap.order = s.order;
      snap.pretrain_losses = s.epoch_losses;
      sink_->write(snap);
    };
  }
  auto stats =
      lm::pretrain(model_, corpus, config_.pretrain, rng_, hooks, resume);
  pretrained_ = true;
  return stats;
}

int DpoAfPipeline::score_response(const driving::Task& task,
                                  const std::string& response_text) const {
  return driving::formal_feedback(domain_, task.scenario, response_text)
      .score();
}

void DpoAfPipeline::stream_scored_responses(
    const std::vector<const driving::Task*>& tasks,
    const std::vector<int>& counts, const TinyGpt& model,
    const lm::SamplerConfig& sampler, SampleSource source,
    std::vector<Rng>& task_rngs,
    const std::function<void(ScoredItem&&)>& consume) const {
  const std::size_t n_tasks = tasks.size();
  // Sequence numbers are assigned at submission, task-major then
  // sample-minor, and every per-candidate RNG draw below comes from the
  // serially-split task_rngs, so reassembling by sequence number makes the
  // consumer's work independent of scheduling (docs/PIPELINE.md).
  std::vector<std::uint64_t> seq_base(n_tasks + 1, 0);
  for (std::size_t u = 0; u < n_tasks; ++u)
    seq_base[u + 1] = seq_base[u] + static_cast<std::uint64_t>(counts[u]);
  const std::uint64_t total = seq_base[n_tasks];

  struct WorkItem {
    std::uint64_t seq = 0;
    std::size_t task = 0;
    std::string text;
    bool truncated = false;
  };

  const auto capacity = static_cast<std::size_t>(
      config_.stage_queue_capacity < 1 ? 1 : config_.stage_queue_capacity);
  dataflow::Channel<WorkItem> work(capacity, "pipeline.candidates");
  dataflow::Reorder<ScoredItem> scored("pipeline.scored");
  // Overlap telemetry: scorings that complete while the sampler stage is
  // still producing — work a barrier between the stages would serialize.
  std::atomic<bool> sampling_open{true};
  std::atomic<std::uint64_t> scored_while_sampling{0};

  static obs::Counter& responses = obs::counter("lm.responses");
  static obs::Counter& tokens = obs::counter("lm.generated_tokens");
  static obs::Counter& truncations = obs::counter("lm.truncated_responses");
  obs::Histogram& gen_hist = obs::histogram("lm.sample_responses_ns");

  // In-flight serve submissions between the submitter and the harvester;
  // FIFO with one producer and one consumer, so submission order is
  // preserved. Declared before StageSet so workers outlive neither.
  struct Inflight {
    std::uint64_t seq = 0;
    std::size_t task = 0;
    serve::Submission submission;
  };
  const serve::ServiceConfig serve_config = make_serve_config(config_);
  std::unique_ptr<dataflow::Channel<Inflight>> inflight;
  std::unique_ptr<serve::GenerationService> service;
  if (source == SampleSource::kServe) {
    inflight = std::make_unique<dataflow::Channel<Inflight>>(
        capacity, "pipeline.inflight");
    service = std::make_unique<serve::GenerationService>(model, serve_config);
  }

  dataflow::StageSet stages([&] {
    if (inflight) inflight->fail();
    work.fail();
    scored.fail();
  });

  // --- sampler stage --------------------------------------------------
  if (source == SampleSource::kServe) {
    // Submitter: draw every per-request seed serially from the task RNGs
    // and let the service's bounded admission queue provide natural
    // backpressure.
    stages.spawn(
        "submit", 1,
        [&](int) {
          for (std::size_t u = 0; u < n_tasks; ++u) {
            const std::vector<int> prompt =
                lm::encode_prompt(tokenizer_, tasks[u]->prompt);
            for (int s = 0; s < counts[u]; ++s) {
              serve::GenerateRequest req;
              req.prompt = prompt;
              req.max_new_tokens = sampler.max_new_tokens;
              req.temperature = sampler.temperature;
              req.top_k = sampler.top_k;
              req.eos_id = tokenizer_.eos();
              req.seed = task_rngs[u]();
              const std::uint64_t seq =
                  seq_base[u] + static_cast<std::uint64_t>(s);
              if (!inflight->push({seq, u, service->submit(std::move(req))}))
                return;
            }
          }
        },
        [&] { inflight->close(); });
    // Harvester: resolve futures in submission order, decode, hand off.
    stages.spawn(
        "sample", 1,
        [&](int) {
          while (auto sub = inflight->pop()) {
            obs::Span span("generation", gen_hist);
            const serve::GenerateResult r = sub->submission.result.get();
            responses.add();
            tokens.add(r.ids.size());
            if (r.truncated) truncations.add();
            if (!work.push(
                    {sub->seq, sub->task, tokenizer_.decode(r.ids), r.truncated}))
              return;
          }
        },
        [&] {
          sampling_open.store(false, std::memory_order_relaxed);
          work.close();
        });
  } else {
    // Direct / catalog sampler: workers claim whole tasks (each task's
    // RNG stream is private, so the claim order is irrelevant) and decode
    // serially — the worker count is the stage's parallelism. Each sample
    // draws its request seed serially from the task RNG and decodes it
    // with sample_direct, the serve path's seed contract.
    const int gen_workers =
        source == SampleSource::kCatalog
            ? 1
            : static_cast<int>(std::min<std::size_t>(
                  n_tasks == 0 ? 1 : n_tasks,
                  static_cast<std::size_t>(util::global_threads())));
    auto next_task = std::make_shared<std::atomic<std::size_t>>(0);
    stages.spawn(
        "sample", gen_workers,
        [&, next_task](int) {
          util::InlineComputeGuard serial;
          for (;;) {
            const std::size_t u = next_task->fetch_add(1);
            if (u >= n_tasks) return;
            if (source == SampleSource::kCatalog) {
              std::uint64_t seq = seq_base[u];
              for (const auto& variant : tasks[u]->variants)
                if (!work.push({seq++, u, variant.text, false})) return;
            } else {
              const std::vector<int> prompt =
                  lm::encode_prompt(tokenizer_, tasks[u]->prompt);
              for (int s = 0; s < counts[u]; ++s) {
                obs::Span span("generation", gen_hist);
                const auto gen =
                    sample_direct(model, tokenizer_, prompt, sampler,
                                  serve_config.seed, task_rngs[u]());
                responses.add();
                tokens.add(gen.ids.size());
                if (gen.truncated) truncations.add();
                if (!work.push({seq_base[u] + static_cast<std::uint64_t>(s),
                                u, tokenizer_.decode(gen.ids), gen.truncated}))
                  return;
              }
            }
          }
        },
        [&] {
          sampling_open.store(false, std::memory_order_relaxed);
          work.close();
        });
  }

  // --- synthesis + verification stage ---------------------------------
  stages.spawn(
      "verify", util::global_threads(),
      [&](int) {
        util::InlineComputeGuard serial;
        while (auto item = work.pop()) {
          ScoredItem out;
          out.task_index = item->task;
          out.truncated = item->truncated;
          const int score = score_response(*tasks[item->task], item->text);
          out.candidate = {std::move(item->text), score};
          if (sampling_open.load(std::memory_order_relaxed))
            scored_while_sampling.fetch_add(1, std::memory_order_relaxed);
          if (!scored.push(item->seq, std::move(out))) return;
        }
      },
      [&] { scored.close(); });

  // --- consumer: the calling thread, in submission order ---------------
  std::uint64_t consumed = 0;
  while (auto item = scored.pop()) {
    consume(std::move(*item));
    ++consumed;
  }
  stages.join();  // rethrows the first stage error, if any
  DPOAF_CHECK_MSG(consumed == total,
                  "collection dataflow dropped scored candidates");
  if (obs::enabled()) {
    obs::gauge("dataflow.pipeline.scored_while_sampling")
        .record_max(static_cast<std::int64_t>(
            scored_while_sampling.load(std::memory_order_relaxed)));
    obs::gauge("dataflow.pipeline.items")
        .record_max(static_cast<std::int64_t>(total));
  }
}

std::vector<TaskCandidates> DpoAfPipeline::collect_candidates() {
  DPOAF_CHECK_MSG(pretrained_ || config_.candidates_from_catalog,
                  "call pretrain_model() before sampling candidates");
  std::vector<const driving::Task*> training;
  for (const auto& task : domain_.tasks())  // pairs: training, non-held-out
    if (task.training && !task.holdout) training.push_back(&task);
  std::vector<Rng> task_rngs = split_per_task(rng_, training.size());

  SampleSource source = SampleSource::kDirect;
  if (config_.candidates_from_catalog)
    source = SampleSource::kCatalog;
  else if (config_.serve)
    source = SampleSource::kServe;

  std::vector<int> counts(training.size(), config_.responses_per_task);
  std::vector<TaskCandidates> out(training.size());
  for (std::size_t u = 0; u < training.size(); ++u) {
    out[u].task_id = training[u]->id;
    if (source == SampleSource::kCatalog)
      counts[u] = static_cast<int>(training[u]->variants.size());
  }
  stream_scored_responses(training, counts, model_, config_.sampler, source,
                          task_rngs, [&](ScoredItem&& item) {
                            TaskCandidates& tc = out[item.task_index];
                            if (item.truncated) ++tc.truncated;
                            tc.candidates.push_back(std::move(item.candidate));
                          });
  return out;
}

std::vector<dpo::PreferencePair> DpoAfPipeline::build_pairs(
    const std::vector<TaskCandidates>& candidates) const {
  static obs::Counter& pair_counter = obs::counter("pipeline.pairs_built");
  std::vector<dpo::PreferencePair> pairs;
  // A phase that never ran must not appear in the trace: an empty input
  // would otherwise charge pure call overhead to "ranking" and the phase
  // rollup would double-count wall time that belongs elsewhere.
  if (candidates.empty()) return pairs;
  // "ranking" is the fourth of the five pipeline phases in the RunReport.
  obs::Span span("ranking", obs::histogram("pipeline.ranking_ns"));
  for (const auto& tc : candidates) {
    const auto& task = domain_.task_by_id(tc.task_id);
    const auto task_pairs = dpo::build_preference_pairs(
        task.id, task.prompt, tc.candidates, tokenizer_,
        model_.config().max_seq);
    pairs.insert(pairs.end(), task_pairs.begin(), task_pairs.end());
  }
  pair_counter.add(pairs.size());
  return pairs;
}

CheckpointEval DpoAfPipeline::evaluate_model(const TinyGpt& model,
                                             int epoch) const {
  // A zero sample count would divide by zero below and propagate NaN means
  // into every CheckpointEval consumer; fail loudly instead.
  DPOAF_CHECK_MSG(config_.eval_samples_per_task > 0,
                  "eval_samples_per_task must be > 0");
  obs::Span span("eval", obs::histogram("pipeline.eval_ns"));
  CheckpointEval eval;
  eval.epoch = epoch;
  // Deterministic per (seed, epoch) so evaluation noise is shared across
  // configurations being compared.
  Rng eval_rng(config_.seed * 0x9E3779B9ULL + static_cast<std::uint64_t>(epoch));

  // Held-out tasks never appear in checkpoint evaluation — they are
  // reserved for evaluate_generalization (and skipping them here keeps the
  // no-holdout RNG stream untouched: the split count only drops when a
  // holdout exists).
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks())
    if (!task.holdout) tasks.push_back(&task);
  std::vector<Rng> task_rngs = split_per_task(eval_rng, tasks.size());

  // The sequence-ordered consumer accumulates each task's scores in sample
  // order, so every mean below is the same at any thread count.
  const std::vector<int> counts(tasks.size(), config_.eval_samples_per_task);
  std::vector<double> score_sum(tasks.size(), 0.0);
  std::vector<int> failures(tasks.size(), 0);
  std::vector<int> per_task_truncated(tasks.size(), 0);
  stream_scored_responses(
      tasks, counts, model, eval_sampler(config_),
      config_.serve ? SampleSource::kServe : SampleSource::kDirect, task_rngs,
      [&](ScoredItem&& item) {
        const std::size_t u = item.task_index;
        if (item.truncated) ++per_task_truncated[u];
        // The mean counts an unalignable response as 0 satisfied specs;
        // the failure itself is tallied separately so the two outcomes
        // stay distinguishable.
        if (item.candidate.score < 0) ++failures[u];
        score_sum[u] += std::max(0, item.candidate.score);
      });
  const auto n = static_cast<double>(config_.eval_samples_per_task);
  eval.per_task.resize(tasks.size());
  eval.per_task_alignment_failure.resize(tasks.size());
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    eval.per_task[u] = {tasks[u]->id, score_sum[u] / n};
    eval.per_task_alignment_failure[u] = static_cast<double>(failures[u]) / n;
  }

  // Serial reduction in task order.
  double train_sum = 0.0, val_sum = 0.0;
  double train_fail = 0.0, val_fail = 0.0;
  std::size_t train_n = 0, val_n = 0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    const double score = eval.per_task[u].second;
    const double fail = eval.per_task_alignment_failure[u];
    eval.truncated_responses += per_task_truncated[u];
    if (tasks[u]->training) {
      train_sum += score;
      train_fail += fail;
      ++train_n;
    } else {
      val_sum += score;
      val_fail += fail;
      ++val_n;
    }
  }
  if (train_n > 0) {
    eval.train_mean_satisfied = train_sum / static_cast<double>(train_n);
    eval.train_alignment_failure_rate =
        train_fail / static_cast<double>(train_n);
  }
  if (val_n > 0) {
    eval.val_mean_satisfied = val_sum / static_cast<double>(val_n);
    eval.val_alignment_failure_rate = val_fail / static_cast<double>(val_n);
  }
  return eval;
}

GeneralizationEval DpoAfPipeline::evaluate_generalization() const {
  DPOAF_CHECK_MSG(config_.eval_samples_per_task > 0,
                  "eval_samples_per_task must be > 0");
  GeneralizationEval out;
  // A fixed offset of the pipeline seed — a private stream, so running (or
  // skipping) this eval never perturbs any other RNG consumer.
  Rng gen_rng(config_.seed * 0x9E3779B9ULL + 0xC0FFEEULL);
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks()) tasks.push_back(&task);
  std::vector<Rng> task_rngs = split_per_task(gen_rng, tasks.size());

  // Generated rulebooks differ in length, so satisfied counts are
  // normalized by the task's own rulebook size before averaging.
  std::vector<double> rulebook_size(tasks.size());
  for (std::size_t u = 0; u < tasks.size(); ++u)
    rulebook_size[u] =
        static_cast<double>(domain_.specs_for(tasks[u]->scenario).size());
  struct TaskScore {
    double satisfied_fraction = 0.0;
    double alignment_failure = 0.0;
    double violation = 0.0;
  };
  std::vector<TaskScore> scores(tasks.size());
  const std::vector<int> counts(tasks.size(), config_.eval_samples_per_task);
  stream_scored_responses(
      tasks, counts, model_, eval_sampler(config_),
      config_.serve ? SampleSource::kServe : SampleSource::kDirect, task_rngs,
      [&](ScoredItem&& item) {
        const std::size_t u = item.task_index;
        const int score = item.candidate.score;
        TaskScore& s = scores[u];
        if (score < 0)
          s.alignment_failure += 1.0;
        else if (static_cast<double>(score) < rulebook_size[u])
          s.violation += 1.0;
        s.satisfied_fraction += std::max(0, score) / rulebook_size[u];
      });
  const auto n = static_cast<double>(config_.eval_samples_per_task);
  for (TaskScore& s : scores) {
    s.satisfied_fraction /= n;
    s.alignment_failure /= n;
    s.violation /= n;
  }

  // Serial reduction in task order.
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    const TaskScore& s = scores[u];
    if (tasks[u]->holdout) {
      ++out.holdout_tasks;
      out.holdout_mean_satisfied_fraction += s.satisfied_fraction;
      out.holdout_alignment_failure_rate += s.alignment_failure;
      out.holdout_violation_rate += s.violation;
      out.per_holdout_task.emplace_back(tasks[u]->id, s.satisfied_fraction);
    } else {
      ++out.train_tasks;
      out.train_mean_satisfied_fraction += s.satisfied_fraction;
      out.train_alignment_failure_rate += s.alignment_failure;
      out.train_violation_rate += s.violation;
    }
  }
  if (out.train_tasks > 0) {
    const auto n = static_cast<double>(out.train_tasks);
    out.train_mean_satisfied_fraction /= n;
    out.train_alignment_failure_rate /= n;
    out.train_violation_rate /= n;
  }
  if (out.holdout_tasks > 0) {
    const auto n = static_cast<double>(out.holdout_tasks);
    out.holdout_mean_satisfied_fraction /= n;
    out.holdout_alignment_failure_rate /= n;
    out.holdout_violation_rate /= n;
  }
  return out;
}

RunResult DpoAfPipeline::run_dpo(
    const std::vector<dpo::PreferencePair>& pairs) {
  return run_dpo_impl(pairs, nullptr);
}

RunResult DpoAfPipeline::run_dpo_impl(
    const std::vector<dpo::PreferencePair>& pairs,
    const ckpt::TrainingCheckpoint* resume) {
  RunResult result;
  result.pair_count = pairs.size();

  dpo::TrainerCheckpointState trainer_resume;
  if (resume != nullptr) {
    // Splice the persisted history back in: metric rows come back through
    // the trainer (which extends them), evaluations directly here.
    trainer_resume.completed_epochs = resume->completed_epochs;
    trainer_resume.policy_state = resume->policy_state;
    trainer_resume.reference_state = resume->reference_state;
    trainer_resume.opt_m = resume->opt_m;
    trainer_resume.opt_v = resume->opt_v;
    trainer_resume.opt_steps = resume->opt_steps;
    trainer_resume.rng_state = resume->rng_state;
    trainer_resume.order = resume->order;
    trainer_resume.history = resume->dpo_history;
    result.checkpoints.reserve(resume->evals.size());
    for (const ckpt::EvalRecord& r : resume->evals)
      result.checkpoints.push_back(from_record(r));
  }

  {
    // "dpo" is the fifth of the five pipeline phases in the RunReport.
    // Skipped-stage guard: a resume that already completed every epoch
    // would otherwise charge the trainer setup (reference-model clone) to
    // a phase that never trained.
    const bool will_train =
        (resume == nullptr ? 0 : resume->completed_epochs) <
        config_.dpo.epochs;
    std::optional<obs::Span> span;
    if (will_train) span.emplace("dpo", obs::histogram("pipeline.dpo_ns"));
    dpo::DpoTrainer trainer(model_.clone(), config_.dpo, rng_);
    dpo::TrainHooks hooks;
    hooks.checkpoint = [this, &result](int epoch, const TinyGpt& policy) {
      result.checkpoints.push_back(evaluate_model(policy, epoch));
    };
    if (sink_ && config_.checkpoint_every_epochs > 0) {
      hooks.snapshot_every = config_.checkpoint_every_epochs;
      hooks.snapshot = [this, &result,
                        &pairs](const dpo::TrainerCheckpointState& s) {
        ckpt::TrainingCheckpoint snap = base_checkpoint();
        snap.stage = ckpt::Stage::kDpo;
        snap.completed_epochs = s.completed_epochs;
        snap.policy_state = s.policy_state;
        snap.reference_state = s.reference_state;
        snap.opt_m = s.opt_m;
        snap.opt_v = s.opt_v;
        snap.opt_steps = s.opt_steps;
        snap.rng_state = s.rng_state;
        snap.order = s.order;
        snap.dpo_history = s.history;
        snap.evals.reserve(result.checkpoints.size());
        for (const CheckpointEval& e : result.checkpoints)
          snap.evals.push_back(to_record(e));
        snap.pairs = pairs;
        sink_->write(snap);
      };
    }
    result.metrics = trainer.train(
        pairs, hooks, resume != nullptr ? &trainer_resume : nullptr);
    model_ = trainer.policy().clone();
  }
  result.generator_stats = domain_.generator_stats();
  for (const driving::Task& task : domain_.tasks())
    if (task.holdout) {
      // The fine-tuned policy against scenarios it never trained on —
      // the held-out generalization protocol of docs/GENERATOR.md.
      obs::Span span("generalization",
                     obs::histogram("pipeline.generalization_ns"));
      result.generalization = evaluate_generalization();
      result.has_generalization = true;
      break;
    }
  result.feedback_cache_stats = domain_.feedback_cache_stats();
  result.buchi_cache_stats = modelcheck::buchi_cache_stats();
  result.monitor_cache_stats = monitor::monitor_cache_stats();
  if (obs::enabled()) {
    // Mirror the cache counters into gauges so a MetricsSnapshot alone
    // (e.g. a bench's --metrics-json report) carries them too.
    const auto publish = [](const char* prefix, const util::CacheStats& s) {
      const auto as_i64 = [](std::uint64_t v) {
        return static_cast<std::int64_t>(v);
      };
      const std::string p(prefix);
      obs::gauge(p + ".hits").set(as_i64(s.hits));
      obs::gauge(p + ".misses").set(as_i64(s.misses));
      obs::gauge(p + ".inserts").set(as_i64(s.inserts));
      obs::gauge(p + ".evictions").set(as_i64(s.evictions));
    };
    publish("feedback_cache", result.feedback_cache_stats);
    publish("buchi_cache", result.buchi_cache_stats);
    publish("monitor_cache", result.monitor_cache_stats);
    result.phases = obs::aggregate_phases(obs::trace_snapshot());
  }
  return result;
}

RunResult DpoAfPipeline::run() {
  if (!config_.resume_from.empty()) {
    const auto path = ckpt::resolve_resume_path(config_.resume_from);
    const ckpt::TrainingCheckpoint snap = ckpt::load_checkpoint(path);
    validate_checkpoint(snap);
    if (snap.stage == ckpt::Stage::kDpo) {
      // The stored preference dataset makes stages 1–4 unnecessary; DPO
      // resumes directly and nothing downstream reads the pipeline RNG, so
      // the final RunResult is bitwise-identical to an uninterrupted run.
      return run_dpo_impl(snap.pairs, &snap);
    }
    lm::PretrainState state;
    state.completed_epochs = snap.completed_epochs;
    state.model_state = snap.policy_state;
    state.opt_m = snap.opt_m;
    state.opt_v = snap.opt_v;
    state.opt_steps = snap.opt_steps;
    state.rng_state = snap.rng_state;
    state.order = snap.order;
    state.epoch_losses = snap.pretrain_losses;
    pretrain_model_impl(&state);
  }
  if (!pretrained_) pretrain_model();
  return run_dpo(build_pairs(collect_candidates()));
}

}  // namespace dpoaf::core
