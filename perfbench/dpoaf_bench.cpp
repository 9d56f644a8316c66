// End-to-end benchmark of the DPO-AF system: three closed-loop workloads
// driven from one process through the public API (see README.md in this
// directory for why each workload exists and which layer metric should
// move which end-to-end metric).
//
//   dpoaf_perfbench --workload finetune_paper|collect_served|verify_generated
//                   --seed N --seconds S --trace 0|1
//
// Every call is made from this thread and waited for before the next one.
// Compute is pinned to one pool thread and the simd backend, because on a
// small shared machine extra pool threads make training slower and less
// steady. The last line of stdout is one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end set, measured with
// observability off. With --trace 1 the workload runs twice — untraced,
// then traced — and the metrics are the per-layer set plus
// obs.trace_overhead (traced run_s / untraced run_s - 1).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "driving/domain.hpp"
#include "modelcheck/buchi.hpp"
#include "monitor/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/empirical.hpp"

namespace {

using namespace dpoaf;
using Clock = std::chrono::steady_clock;

constexpr const char* kBackend = "simd";
constexpr int kThreads = 1;
// verify_generated: generated scenarios appended to the paper's five. The
// generator seed is fixed: different scenario sets differ several-fold in
// verification work, so --seed varies the call order and the sweep seed
// instead, and runs at different seeds stay comparable.
constexpr int kGeneratedScenarios = 64;
constexpr std::uint64_t kGeneratorSeed = 7;
// verify_generated: simulator rollouts per scenario in one sweep.
constexpr int kSweepRollouts = 256;
// Round-based workloads scale their fixed round count with --seconds by
// these nominal round times (measured on a 4-core Xeon at the commit that
// introduced the benchmark), so a run's work depends only on its
// arguments, never on how fast the machine happens to be.
constexpr double kCollectRoundNominalS = 0.085;
constexpr double kVerifyRoundNominalS = 2.5;
// collect_served: one checkpoint evaluation every this many rounds.
constexpr int kEvalEvery = 10;
// finetune_paper: pipeline constructions timed for the set-up median.
constexpr int kFinetuneSetupReps = 15;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Every public call is one attempted operation; a call that throws or whose
// output fails a check is one failed operation.
class Ledger {
 public:
  bool op(const char* what, const std::function<bool()>& body) {
    ++attempted_;
    bool ok = false;
    try {
      ok = body();
    } catch (const std::exception& e) {
      note(std::string(what) + " threw: " + e.what());
    }
    if (!ok) {
      ++failed_;
      note(std::string(what) + " failed its output check");
    }
    return ok;
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

 private:
  void note(const std::string& msg) {
    if (notes_++ < 20) std::cerr << "dpoaf_perfbench: " << msg << "\n";
  }
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int notes_ = 0;
};

// The benchmark's own spans around calls into each layer: wall time summed
// per name, and an obs trace span when observability is on.
class Spans {
 public:
  double time(const char* name, const std::function<void()>& body) {
    obs::Span span(name);
    const auto t0 = Clock::now();
    body();
    const double s = elapsed_s(t0);
    total_[name] += s;
    return s;
  }
  [[nodiscard]] double total(const std::string& name) const {
    const auto it = total_.find(name);
    return it == total_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> total_;
};

// One catalog text, its scenario, and its score in the warm pass.
struct ScoredText {
  std::string scenario;
  std::string text;
  int score = 0;
};

// What one pass of a workload measured.
struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::int64_t candidates = 0;  // responses scored in the main loop
  std::vector<double> feedback_ms;  // per formal_feedback call
  std::int64_t rollouts = 0;
  double sweep_s = 0.0;
  Spans spans;
  obs::MetricsSnapshot setup_snapshot;  // registry at the end of set-up
  obs::MetricsSnapshot snapshot;        // registry over the main loop
  std::map<std::string, double> outcome;  // workload-computed layer values
};

bool in_range(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

// Fresh verifier state for every pass: process-wide translation and
// monitor caches start empty, so set-up pays for first-time work.
void clear_process_caches() {
  modelcheck::clear_buchi_cache();
  monitor::clear_monitor_cache();
}

// Keep set-up's layer metrics apart, then count the main loop from zero.
void start_main_loop_metrics(Pass& pass) {
  pass.setup_snapshot = obs::MetricsRegistry::instance().snapshot();
  obs::MetricsRegistry::instance().reset();
}

core::PipelineConfig base_config(std::uint64_t seed) {
  core::PipelineConfig cfg;
  cfg.seed = seed;
  cfg.threads = kThreads;
  cfg.backend = kBackend;
  return cfg;
}

bool scores_in_range(const driving::DrivingDomain& domain,
                     const std::vector<core::TaskCandidates>& tcs) {
  for (const auto& tc : tcs) {
    const auto& task = domain.task_by_id(tc.task_id);
    const auto n = static_cast<double>(domain.specs_for(task.scenario).size());
    for (const auto& c : tc.candidates)
      if (!in_range(c.score, -1.0, n)) return false;
  }
  return !tcs.empty();
}

bool pairs_ordered(const std::vector<dpo::PreferencePair>& pairs) {
  for (const auto& p : pairs)
    if (p.score_chosen <= p.score_rejected) return false;
  return true;
}

bool eval_in_range(const core::CheckpointEval& e) {
  return in_range(e.train_mean_satisfied, 0.0, 15.0) &&
         in_range(e.val_mean_satisfied, 0.0, 15.0);
}

// A scenario registry with its whole response catalog, warmed: every
// catalog text verified once (first-time Büchi translations) and a short
// sweep run (first-time monitor compiles).
struct Registry {
  std::unique_ptr<driving::DrivingDomain> domain;
  std::vector<ScoredText> texts;
  std::uint64_t sweep_seed = 0;
  std::vector<sim::ScenarioSweepEntry> sweep;  // first timed sweep
};

// Rollouts per scenario of the warm-up sweep: enough to compile every
// spec's monitor, too few to make set-up time mostly simulation.
constexpr int kWarmRollouts = 8;

Registry warm_registry(const driving::generator::GeneratorConfig& gen,
                       std::uint64_t seed, Spans& spans) {
  Registry reg;
  reg.sweep_seed = seed;
  spans.time("driving.generator", [&] {
    reg.domain = std::make_unique<driving::DrivingDomain>(gen);
  });
  for (const auto& task : reg.domain->tasks())
    for (const auto& v : task.variants)
      reg.texts.push_back(
          {task.scenario, v.text,
           driving::formal_feedback(*reg.domain, task.scenario, v.text).score()});
  // The seed orders the calls; the set of calls is the catalog.
  Rng order(seed);
  order.shuffle(reg.texts);
  const auto warm = sim::empirical_scenario_sweep(*reg.domain, kWarmRollouts, seed);
  if (warm.size() != reg.domain->scenarios().size())
    throw std::runtime_error("warm-up sweep skipped scenarios");
  return reg;
}

bool warm_registry_valid(const Registry& reg) {
  bool ok = !reg.texts.empty();
  for (const auto& t : reg.texts)
    ok = ok && in_range(t.score, -1.0,
                        static_cast<double>(reg.domain->specs_for(t.scenario).size()));
  return ok;
}

// One feedback round: clear the feedback cache, then verify every catalog
// text once, timing each call; each score must equal the warm pass's.
void feedback_round(Registry& reg, Ledger& ledger, Pass& pass,
                    int* aligned = nullptr) {
  reg.domain->clear_feedback_cache();
  pass.spans.time("driving.feedback", [&] {
    for (const auto& t : reg.texts)
      ledger.op("formal_feedback", [&] {
        const auto t0 = Clock::now();
        const driving::FeedbackResult fb =
            driving::formal_feedback(*reg.domain, t.scenario, t.text);
        pass.feedback_ms.push_back(elapsed_s(t0) * 1e3);
        if (aligned != nullptr && fb.aligned) ++*aligned;
        return fb.score() == t.score;
      });
  });
}

bool same_sweep(const std::vector<sim::ScenarioSweepEntry>& a,
                const std::vector<sim::ScenarioSweepEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i].report.per_spec;
    const auto& y = b[i].report.per_spec;
    if (a[i].scenario_key != b[i].scenario_key || x.size() != y.size())
      return false;
    for (std::size_t j = 0; j < x.size(); ++j)
      if (x[j].spec_name != y[j].spec_name || x[j].probability != y[j].probability)
        return false;
  }
  return true;
}

// One timed empirical sweep over the whole registry. Every P_Φ must be in
// [0, 1], and every later sweep must reproduce the first exactly (same
// seed).
void sweep_round(Registry& reg, Ledger& ledger, Pass& pass) {
  ledger.op("empirical_scenario_sweep", [&] {
    std::vector<sim::ScenarioSweepEntry> sweep;
    pass.sweep_s += pass.spans.time("sim.sweep", [&] {
      sweep = sim::empirical_scenario_sweep(*reg.domain, kSweepRollouts,
                                            reg.sweep_seed);
    });
    pass.rollouts += static_cast<std::int64_t>(sweep.size()) * kSweepRollouts;
    if (sweep.size() != reg.domain->scenarios().size()) return false;
    for (const auto& entry : sweep)
      for (const auto& s : entry.report.per_spec)
        if (!in_range(s.probability, 0.0, 1.0)) return false;
    if (!reg.sweep.empty()) return same_sweep(sweep, reg.sweep);
    reg.sweep = std::move(sweep);
    return true;
  });
}

// Pre-train the pipeline's model: the stand-in for the pre-trained LLM that
// DPO-AF starts from.
void pretrain(core::DpoAfPipeline& pipe, Ledger& ledger, Pass& pass) {
  ledger.op("pretrain_model", [&] {
    lm::PretrainStats pt;
    pass.spans.time("lm.pretrain", [&] { pt = pipe.pretrain_model(); });
    return !pt.epoch_losses.empty() &&
           std::all_of(pt.epoch_losses.begin(), pt.epoch_losses.end(),
                       [](double l) { return std::isfinite(l); });
  });
}

// ---- finetune_paper ---------------------------------------------------
// The default examples/finetune_pipeline run on the paper's five scenarios:
// pretrain → collect → build pairs → DPO with checkpoint evals.
Pass finetune_paper(std::uint64_t seed, bool traced, Ledger& ledger) {
  Pass pass;
  core::PipelineConfig cfg = base_config(seed);
  cfg.dpo.epochs = 60;
  cfg.dpo.checkpoint_every = 20;
  cfg.dpo.pairs_per_epoch = 48;

  // Set-up is construction only (domain, tokenizer, model init): a few
  // milliseconds, so it is repeated and the median reported.
  std::unique_ptr<core::DpoAfPipeline> pipe;
  std::vector<double> setups;
  for (int rep = 0; rep < (traced ? 1 : kFinetuneSetupReps); ++rep) {
    clear_process_caches();
    pipe.reset();
    const auto s0 = Clock::now();
    pipe = std::make_unique<core::DpoAfPipeline>(cfg);
    setups.push_back(elapsed_s(s0));
  }
  pass.setup_s = median(setups);
  if (traced) start_main_loop_metrics(pass);

  std::vector<core::TaskCandidates> candidates;
  std::vector<dpo::PreferencePair> pairs;
  core::RunResult result;
  const auto t0 = Clock::now();
  pretrain(*pipe, ledger, pass);
  ledger.op("collect_candidates", [&] {
    pass.spans.time("core.collect",
                    [&] { candidates = pipe->collect_candidates(); });
    for (const auto& tc : candidates)
      pass.candidates += static_cast<std::int64_t>(tc.candidates.size());
    return scores_in_range(pipe->domain(), candidates);
  });
  ledger.op("build_pairs", [&] {
    pass.spans.time("core.build_pairs",
                    [&] { pairs = pipe->build_pairs(candidates); });
    return !pairs.empty() && pairs_ordered(pairs);
  });
  pass.outcome["core.pairs"] = static_cast<double>(pairs.size());
  // DPO trains on pairs_per_epoch pairs per epoch when there are at least
  // that many. A seed that yields fewer trains on its pairs repeated up to
  // that count, so every seed does the same number of DPO steps.
  for (std::size_t i = 0;
       !pairs.empty() && static_cast<int>(pairs.size()) < cfg.dpo.pairs_per_epoch; ++i)
    pairs.push_back(pairs[i]);
  ledger.op("run_dpo", [&] {
    pass.spans.time("dpo.run_dpo", [&] { result = pipe->run_dpo(pairs); });
    bool ok = !result.metrics.empty();
    for (const auto& m : result.metrics)
      ok = ok && std::isfinite(m.loss) && std::isfinite(m.margin);
    std::vector<int> epochs;
    for (const auto& e : result.checkpoints) {
      epochs.push_back(e.epoch);
      ok = ok && eval_in_range(e);
      pass.candidates += static_cast<std::int64_t>(
          e.per_task.size() * static_cast<std::size_t>(cfg.eval_samples_per_task));
    }
    return ok && epochs == std::vector<int>{0, 20, 40, 60};
  });
  pass.run_s = elapsed_s(t0);
  if (traced) pass.snapshot = obs::MetricsRegistry::instance().snapshot();

  pass.outcome["driving.feedback_hit_ratio"] =
      pipe->domain().feedback_cache_stats().hit_rate();
  if (!result.checkpoints.empty()) {
    const auto& before = result.checkpoints.front();
    const auto& after = result.checkpoints.back();
    pass.outcome["core.eval.train_sat_before"] = before.train_mean_satisfied;
    pass.outcome["core.eval.train_sat_after"] = after.train_mean_satisfied;
    pass.outcome["core.eval.val_sat_after"] = after.val_mean_satisfied;
    pass.outcome["core.eval.align_fail_after"] =
        after.train_alignment_failure_rate;
  }
  if (!result.metrics.empty()) {
    pass.outcome["dpo.final_loss"] = result.metrics.back().loss;
    pass.outcome["dpo.final_margin"] = result.metrics.back().margin;
  }
  return pass;
}

// ---- collect_served ---------------------------------------------------
// Everything but training: repeated collection rounds through the serve
// layer (paged KV cache, single-row decode) with pair building and a
// periodic checkpoint evaluation, on a model pre-trained in set-up.
Pass collect_served(std::uint64_t seed, int seconds, bool traced,
                    Ledger& ledger) {
  Pass pass;
  core::PipelineConfig cfg = base_config(seed);
  cfg.serve = true;
  const int rounds = std::max(
      kEvalEvery, static_cast<int>(std::lround(seconds / kCollectRoundNominalS)));

  // Set-up: pre-train, then run one untimed round so the feedback cache
  // and lazily built verifier state fill.
  clear_process_caches();
  const auto s0 = Clock::now();
  core::DpoAfPipeline pipe(cfg);
  pretrain(pipe, ledger, pass);
  ledger.op("collect_candidates", [&] {
    const auto warm = pipe.collect_candidates();
    return scores_in_range(pipe.domain(), warm) &&
           pairs_ordered(pipe.build_pairs(warm));
  });
  pass.setup_s = elapsed_s(s0);
  if (traced) start_main_loop_metrics(pass);

  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<core::TaskCandidates> candidates;
    ledger.op("collect_candidates", [&] {
      pass.spans.time("core.collect",
                      [&] { candidates = pipe.collect_candidates(); });
      for (const auto& tc : candidates)
        pass.candidates += static_cast<std::int64_t>(tc.candidates.size());
      return scores_in_range(pipe.domain(), candidates);
    });
    ledger.op("build_pairs", [&] {
      std::vector<dpo::PreferencePair> pairs;
      pass.spans.time("core.build_pairs",
                      [&] { pairs = pipe.build_pairs(candidates); });
      return pairs_ordered(pairs);
    });
    if ((r + 1) % kEvalEvery == 0) {
      ledger.op("evaluate_model", [&] {
        core::CheckpointEval eval;
        pass.spans.time("core.eval",
                        [&] { eval = pipe.evaluate_model(pipe.model(), r + 1); });
        pass.candidates += static_cast<std::int64_t>(
            eval.per_task.size() *
            static_cast<std::size_t>(cfg.eval_samples_per_task));
        return eval_in_range(eval);
      });
    }
  }
  pass.run_s = elapsed_s(t0);
  if (traced) pass.snapshot = obs::MetricsRegistry::instance().snapshot();
  pass.outcome["driving.feedback_hit_ratio"] =
      pipe.domain().feedback_cache_stats().hit_rate();
  return pass;
}

// ---- verify_generated -------------------------------------------------
// No language model: the formal-feedback engine and the simulator on a
// registry of 64 generated scenarios plus the paper's five.
Pass verify_generated(std::uint64_t seed, int seconds, bool traced,
                      Ledger& ledger) {
  Pass pass;
  driving::generator::GeneratorConfig gen;
  gen.seed = kGeneratorSeed;
  gen.count = kGeneratedScenarios;
  const int rounds = std::max(
      2, static_cast<int>(std::lround(seconds / kVerifyRoundNominalS)));

  // Set-up: build the registry and warm it, from empty process caches;
  // repeated, and the median reported.
  Registry reg;
  std::vector<double> setups;
  for (int rep = 0; rep < (traced ? 1 : 3); ++rep) {
    clear_process_caches();
    reg = Registry{};  // free the previous registry before the clock starts
    const auto s0 = Clock::now();
    reg = warm_registry(gen, seed, pass.spans);
    setups.push_back(elapsed_s(s0));
  }
  pass.setup_s = median(setups);
  ledger.op("warm registry", [&] { return warm_registry_valid(reg); });
  if (traced) start_main_loop_metrics(pass);

  int aligned = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    feedback_round(reg, ledger, pass, r == 0 ? &aligned : nullptr);
    pass.candidates += static_cast<std::int64_t>(reg.texts.size());
    sweep_round(reg, ledger, pass);
  }
  pass.run_s = elapsed_s(t0);
  if (traced) pass.snapshot = obs::MetricsRegistry::instance().snapshot();
  pass.outcome["glm2fsa.aligned_ratio"] =
      static_cast<double>(aligned) / static_cast<double>(reg.texts.size());
  pass.outcome["driving.feedback_hit_ratio"] =
      reg.domain->feedback_cache_stats().hit_rate();
  pass.outcome["monitor.cache_hit_ratio"] = monitor::monitor_cache_stats().hit_rate();
  return pass;
}

Pass run_pass(const std::string& workload, std::uint64_t seed, int seconds,
              bool traced, Ledger& ledger) {
  if (traced) {
    obs::MetricsRegistry::instance().reset();
    obs::clear_trace();
  }
  obs::set_enabled(traced);
  Pass pass;
  if (workload == "finetune_paper")
    pass = finetune_paper(seed, traced, ledger);
  else if (workload == "collect_served")
    pass = collect_served(seed, seconds, traced, ledger);
  else
    pass = verify_generated(seed, seconds, traced, ledger);
  obs::set_enabled(false);
  return pass;
}

// ---- reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> end_to_end(const Pass& p) {
  return {
      {"run_s", p.run_s, "s"},
      {"setup_s", p.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"candidates_per_s",
       p.run_s > 0 ? static_cast<double>(p.candidates) / p.run_s : 0.0, "1/s"},
  };
}

const obs::HistogramSnapshot* hist(const obs::MetricsSnapshot& s,
                                   std::string_view name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return &h.snapshot;
  return nullptr;
}
double hist_sum_s(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = hist(s, name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e9;
}
double hist_mean_ms(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = hist(s, name);
  return h == nullptr ? 0.0 : h->mean() / 1e6;
}
double hist_max_ms(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = hist(s, name);
  return h == nullptr ? 0.0 : static_cast<double>(h->max) / 1e6;
}
double counter(const obs::MetricsSnapshot& s, std::string_view name) {
  for (const auto& c : s.counters)
    if (c.name == name) return static_cast<double>(c.value);
  return 0.0;
}
double gauge(const obs::MetricsSnapshot& s, std::string_view name) {
  for (const auto& g : s.gauges)
    if (g.name == name) return static_cast<double>(g.value);
  return 0.0;
}
double gauge_suffix_sum(const obs::MetricsSnapshot& s, std::string_view suffix) {
  double sum = 0.0;
  for (const auto& g : s.gauges)
    if (g.name.size() >= suffix.size() &&
        g.name.compare(g.name.size() - suffix.size(), suffix.size(), suffix) == 0)
      sum += static_cast<double>(g.value);
  return sum;
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Layer metrics of the traced pass `t`, except the feedback latency and
// rollout rates, which are taken from the untraced pass `u`.
std::vector<Metric> per_layer(const Pass& t, const Pass& u) {
  const obs::MetricsSnapshot& s = t.snapshot;
  double feedback_s = 0.0;
  for (const double ms : u.feedback_ms) feedback_s += ms / 1e3;
  const auto outcome = [&](const char* name) {
    const auto it = t.outcome.find(name);
    return it == t.outcome.end() ? 0.0 : it->second;
  };
  const double gflop = (counter(s, "tensor.matmul.flops") +
                        counter(s, "tensor.matmul.bwd_flops")) / 1e9;
  const double serve_s = hist_sum_s(s, "serve.busy_ns");
  return {
      {"lm.pretrain_s", t.spans.total("lm.pretrain"), "s"},
      {"lm.pretrain_epoch_ms_mean",
       hist_mean_ms(t.setup_snapshot, "lm.pretrain.epoch_ns") +
           hist_mean_ms(s, "lm.pretrain.epoch_ns"),
       "ms"},
      {"dpo.run_dpo_s", t.spans.total("dpo.run_dpo"), "s"},
      {"dpo.epoch_ms_mean", hist_mean_ms(s, "dpo.epoch_ns"), "ms"},
      {"dpo.final_loss", outcome("dpo.final_loss"), "nats"},
      {"dpo.final_margin", outcome("dpo.final_margin"), "nats"},
      {"core.collect_s", t.spans.total("core.collect"), "s"},
      {"core.build_pairs_s", t.spans.total("core.build_pairs"), "s"},
      {"core.eval_s", hist_sum_s(s, "pipeline.eval_ns"), "s"},
      {"core.pairs", outcome("core.pairs"), "count"},
      {"core.eval.train_sat_before", outcome("core.eval.train_sat_before"), "specs"},
      {"core.eval.train_sat_after", outcome("core.eval.train_sat_after"), "specs"},
      {"core.eval.val_sat_after", outcome("core.eval.val_sat_after"), "specs"},
      {"core.eval.align_fail_after", outcome("core.eval.align_fail_after"), "ratio"},
      {"core.dataflow.overlap_ratio",
       ratio(gauge(s, "dataflow.pipeline.scored_while_sampling"),
             gauge(s, "dataflow.pipeline.items")),
       "ratio"},
      {"core.dataflow.backpressure_waits",
       gauge_suffix_sum(s, ".backpressure_waits"), "count"},
      {"tensor.matmul_calls",
       counter(s, "tensor.matmul.calls") + counter(s, "tensor.matmul.bwd_calls"),
       "count"},
      {"tensor.matmul_gflop", gflop, "GFLOP"},
      {"tensor.gflop_per_s", ratio(gflop, t.run_s), "GFLOP/s"},
      {"util.parallel_for_calls", counter(s, "threadpool.parallel_for.calls"),
       "count"},
      {"serve.generation_s", serve_s, "s"},
      {"serve.tok_per_s", ratio(counter(s, "serve.generated_tokens"), serve_s),
       "tok/s"},
      {"serve.prefix_hit_ratio",
       ratio(counter(s, "serve.prefix_hits"), counter(s, "serve.requests")),
       "ratio"},
      {"serve.evicted_blocks", counter(s, "serve.evicted_blocks"), "count"},
      {"serve.queue_depth_max", gauge(s, "serve.queue_depth.max"), "count"},
      {"driving.feedback_hit_ratio", outcome("driving.feedback_hit_ratio"), "ratio"},
      {"driving.feedback_s", t.spans.total("driving.feedback"), "s"},
      {"driving.feedback_per_s",
       ratio(static_cast<double>(u.feedback_ms.size()), feedback_s), "1/s"},
      {"driving.feedback_ms_p50", median(u.feedback_ms), "ms"},
      {"driving.feedback_ms_p99", percentile(u.feedback_ms, 0.99), "ms"},
      {"driving.generator_s", t.spans.total("driving.generator"), "s"},
      {"glm2fsa.synthesis_s", hist_sum_s(s, "glm2fsa.synthesis_ns"), "s"},
      {"glm2fsa.aligned_ratio", outcome("glm2fsa.aligned_ratio"), "ratio"},
      {"modelcheck.verify_s", hist_sum_s(s, "modelcheck.verify_ns"), "s"},
      {"modelcheck.checks", counter(s, "modelcheck.checks"), "count"},
      {"modelcheck.check_ms_max", hist_max_ms(s, "modelcheck.check_ns"), "ms"},
      {"modelcheck.buchi_translate_s",
       hist_sum_s(t.setup_snapshot, "modelcheck.buchi.translate_ns"), "s"},
      {"monitor.compile_s", hist_sum_s(t.setup_snapshot, "monitor.compile_ns"),
       "s"},
      {"monitor.cache_hit_ratio", outcome("monitor.cache_hit_ratio"), "ratio"},
      {"sim.sweep_s", t.spans.total("sim.sweep"), "s"},
      {"sim.rollouts_per_s", ratio(static_cast<double>(u.rollouts), u.sweep_s),
       "1/s"},
      {"obs.trace_overhead", ratio(t.run_s, u.run_s) - 1.0, "ratio"},
  };
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(ledger.attempted()),
              static_cast<long long>(ledger.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: dpoaf_perfbench --workload "
               "finetune_paper|collect_served|verify_generated --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stoi(value);
      else if (flag == "--trace") trace = value == "1";
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (workload != "finetune_paper" && workload != "collect_served" &&
      workload != "verify_generated")
    return usage();
  if (seconds < 1) return usage();

  // A failure outside any counted operation (set-up that cannot complete)
  // leaves nothing to report: exit non-zero without a result line.
  try {
    Ledger ledger;
    const Pass untraced = run_pass(workload, seed, seconds, false, ledger);
    // Human-readable echo on stderr, with the run's outcome values (such as
    // core.pairs, which sets finetune_paper's DPO work) next to run_s.
    for (const Metric& m : end_to_end(untraced))
      std::fprintf(stderr, "  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    for (const auto& [name, value] : untraced.outcome)
      std::fprintf(stderr, "  %-28s %14.6f\n", name.c_str(), value);
    if (!trace) {
      print_result(ledger, end_to_end(untraced));
    } else {
      const Pass traced = run_pass(workload, seed, seconds, true, ledger);
      print_result(ledger, per_layer(traced, untraced));
    }
    return ledger.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpoaf_perfbench: %s\n", e.what());
    return 1;
  }
}
