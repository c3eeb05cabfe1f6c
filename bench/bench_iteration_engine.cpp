// Iteration-engine benchmark: what does step-program replay buy over the
// eager TrainStep on the real fused training hot loop, and does the steady
// state stay allocation-free?
//
// Trains a fused MLP array at several array sizes B in two modes:
//   engine    TrainStep: pooled storage, uninitialized full-overwrite
//             allocs, reused ag::Engine — still re-records the tape
//   replay    TrainStep with step-program capture: the step is captured
//             once and replayed tape-free — no ag::Node constructions, no
//             backward closures, no topo sort, zero heap allocations
// and reports iterations/sec, tensor-storage heap allocations per
// iteration, and autograd Node constructions per iteration. The training
// math is bit-identical in both modes (step_program_test and the audit
// below assert replay == eager to the bit); only the iteration overhead
// differs.
//
// Flags (defaults keep CI smoke fast):
//   --steps N        timed iterations per measurement (default 200)
//   --warmup N       untimed warm-up iterations (default 10; replay mode
//                    captures during warm-up)
//   --repeats N      measurements per configuration; iterations/sec is the
//                    best of N (minimum-time estimator — on a shared/1-core
//                    host a single run is hostage to scheduler noise)
//   --json PATH      additionally write the table as JSON (CI artifact /
//                    BENCH_iteration_engine.json trajectory point)
//   --threads LIST   comma-separated worker counts for the scaling sweep
//                    (default "1,2,4,8"); each count re-runs the replay
//                    configuration at the largest B and the sweep also
//                    cross-checks that the final training loss is
//                    bit-identical at every thread count
//   --amp            additionally measure the replay configuration under
//                    f16 autocast + dynamic loss scaling (the paper's AMP
//                    recipe; F16C gives hardware conversion): AMP replay
//                    throughput per B (software-converted half on CPU —
//                    the measured cost of the casts, not the tensor-core
//                    win the sim prices), warm-step allocation counts
//                    (must stay 0), the measured AMP-vs-fp32 final-loss
//                    gap, and an exercised overflow-skip/backoff cycle
//                    (init scale 2^130 overflows float, so the first
//                    steps MUST skip and back off before training resumes)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/op_counters.h"
#include "core/vec.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_ops.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "nn/layers.h"
#include "tensor/ops.h"

using namespace hfta;
using Clock = std::chrono::steady_clock;

namespace {

// Deep-narrow MLP array: many small fused ops per iteration, the regime
// where per-iteration overhead (allocation, zero-fill, traversal scratch,
// tape re-recording) is a real fraction of the step — exactly what HFTA's
// small-model arrays look like.
struct FusedMlp : fused::FusedModule {
  FusedMlp(int64_t B, int64_t in, int64_t hidden, int64_t classes,
           int64_t depth, Rng& rng)
      : fused::FusedModule(B) {
    int64_t prev = in;
    for (int64_t d = 0; d < depth; ++d) {
      layers.push_back(register_module(
          "fc" + std::to_string(d),
          std::make_shared<fused::FusedLinear>(B, prev, hidden, true, rng)));
      prev = hidden;
    }
    head = register_module(
        "head",
        std::make_shared<fused::FusedLinear>(B, prev, classes, true, rng));
  }
  ag::Variable forward(const ag::Variable& x) override {
    ag::Variable h = x;
    for (auto& l : layers) h = ag::relu(l->forward(h));
    return head->forward(h);
  }
  std::vector<std::shared_ptr<fused::FusedLinear>> layers;
  std::shared_ptr<fused::FusedLinear> head;
};

enum class Mode { kEngine, kReplay };

struct Row {
  int64_t models;
  double engine_iters_per_sec;
  double replay_iters_per_sec;
  double allocs_per_iter_engine;  // steady-state heap allocs
  double allocs_per_iter_replay;  // must be 0: replay allocates nothing
  double nodes_per_iter_engine;   // ag::Node builds, eager tape
  double nodes_per_iter_replay;   // must be 0: replay is tape-free
};

struct Measurement {
  double iters_per_sec;
  double allocs_per_iter;
  double nodes_per_iter;
};

constexpr int64_t kIn = 16, kHidden = 16, kClasses = 4, kN = 8, kDepth = 8;

// One configuration: B fused models, `steps` timed iterations. With
// amp=true the TrainStep runs f16 autocast + loss scaling.
Measurement run_config(int64_t B, Mode mode, int steps, int warmup,
                       bool amp = false) {
  StoragePool::instance().trim();
  Rng rng(1);
  FusedMlp model(B, kIn, kHidden, kClasses, kDepth, rng);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3}});
  Rng data_rng(2);
  Tensor x = Tensor::randn({kN, kIn}, data_rng);
  Tensor labels({B, kN});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < kN; ++n)
      labels.at({b, n}) = static_cast<float>(n % kClasses);

  TrainStep step;
  if (mode == Mode::kReplay) step.enable_capture();
  if (amp) {
    TrainStep::AmpOptions ao;
    ao.dtype = DType::kF16;
    step.enable_amp(ao);
  }
  auto loss_fn = [&] {
    ag::Variable logits = model.forward(
        ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
    return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
  };
  auto one_iter = [&] { step.run(opt, loss_fn); };
  // Replay mode captures during warm-up (warmup eager step + capture step),
  // so every timed iteration is a pure replay.
  for (int s = 0; s < warmup; ++s) one_iter();

  const uint64_t allocs0 = StoragePool::instance().stats().heap_allocs;
  const uint64_t nodes0 = counters::node_constructions();
  const auto t0 = Clock::now();
  for (int s = 0; s < steps; ++s) one_iter();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const uint64_t allocs = StoragePool::instance().stats().heap_allocs - allocs0;
  const uint64_t nodes = counters::node_constructions() - nodes0;

  StoragePool::instance().trim();
  return {static_cast<double>(steps) / secs,
          static_cast<double>(allocs) / static_cast<double>(steps),
          static_cast<double>(nodes) / static_cast<double>(steps)};
}

// Replay-vs-eager bit-exactness audit: two identical configurations (same
// init and data seeds), one trained eagerly, one through captured replay,
// compared on every step's loss value. Any drift — a stale pinned buffer,
// a reordered accumulation — shows up as a nonzero max diff.
double replay_vs_eager_audit(int64_t B, int audit_steps) {
  struct Twin {
    std::unique_ptr<FusedMlp> model;
    std::unique_ptr<fused::FusedAdam> opt;
    Tensor x, labels;
    TrainStep step;
  };
  auto make = [&](Twin& t) {
    Rng rng(1);
    t.model = std::make_unique<FusedMlp>(B, kIn, kHidden, kClasses, kDepth, rng);
    t.opt = std::make_unique<fused::FusedAdam>(
        fused::collect_fused_parameters(*t.model, B), B,
        fused::FusedAdam::Options{.lr = {1e-3}});
    Rng data_rng(2);
    t.x = Tensor::randn({kN, kIn}, data_rng);
    t.labels = Tensor({B, kN});
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < kN; ++n)
        t.labels.at({b, n}) = static_cast<float>(n % kClasses);
  };
  Twin eager, replay;
  make(eager);
  make(replay);
  replay.step.enable_capture();
  double max_diff = 0.0;
  for (int s = 0; s < audit_steps; ++s) {
    auto loss_of = [](Twin& t) {
      return t.step.run(*t.opt, [&] {
        ag::Variable logits = t.model->forward(ag::Variable(
            fused::pack_model_major(std::vector<Tensor>(t.opt->array_size(),
                                                        t.x))));
        return fused::fused_cross_entropy(logits, t.labels,
                                          ag::Reduction::kMean);
      });
    };
    const double le = loss_of(eager).value().item();
    const double lr = loss_of(replay).value().item();
    max_diff = std::max(max_diff, std::fabs(le - lr));
  }
  return max_diff;
}

// One scaling-sweep measurement: replay mode at a fixed worker count.
struct ThreadRow {
  int threads;
  double replay_iters_per_sec;
  double allocs_per_iter;   // must stay 0: warm replay allocates nothing
  double final_loss;        // bit-compared across thread counts
};

// Trains a fresh captured/replayed configuration to completion at the
// current worker count and returns the final loss. Partition boundaries are
// a pure function of problem size, so this must be bit-identical for every
// thread count — the sweep asserts it.
double final_loss_at_current_threads(int64_t B, int train_steps) {
  StoragePool::instance().trim();
  Rng rng(1);
  FusedMlp model(B, kIn, kHidden, kClasses, kDepth, rng);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3}});
  Rng data_rng(2);
  Tensor x = Tensor::randn({kN, kIn}, data_rng);
  Tensor labels({B, kN});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < kN; ++n)
      labels.at({b, n}) = static_cast<float>(n % kClasses);
  TrainStep step;
  step.enable_capture();
  double last = 0.0;
  for (int s = 0; s < train_steps; ++s) {
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable logits = model.forward(
          ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
      return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
    });
    last = loss.value().item();
  }
  return last;
}

// ---- mixed precision (--amp) ----------------------------------------------

struct AmpRow {
  int64_t models;
  double amp_replay_iters_per_sec;
  double allocs_per_iter;  // must stay 0: quantizing GEMMs replay as thunks,
                           // the seed and unscale are in-place
  double nodes_per_iter;   // must stay 0: AMP replay is tape-free too
  double vs_fp32_replay;   // amp / fp32 replay throughput
};

struct AmpSummary {
  double final_loss_fp32 = 0;
  double final_loss_amp = 0;
  double loss_gap = 0;          // |amp - fp32|: real quantization error
  int64_t overflow_skips = 0;   // from the 2^130 exercise; must be >= 1
  double recovered_scale = 0;   // scale after the backoff cycle
  int64_t clean_skips = 0;      // skips in the normal run; should be 0
};

// Paired fp32-vs-AMP replay measurement: two identical configurations (one
// fp32, one AMP) run ALTERNATING kBlock-step slices over the same wall-clock
// window, and each side reports its median slice time. A hot loop's turbo
// clock decays over a multi-second bench run, so two sequentially-measured
// modes see different frequencies and their ratio measures the drift, not
// the work; fine-grained alternation hands both modes the same frequency
// profile, and medians shrug off scheduler spikes. AMP-side pool/node
// counters accumulate across the AMP slices only (must both stay 0).
struct AmpPairMeasurement {
  double fp32_iters_per_sec;
  double amp_iters_per_sec;
  double amp_allocs_per_iter;
  double amp_nodes_per_iter;
};

AmpPairMeasurement run_amp_pair(int64_t B, int total_steps, int warmup) {
  StoragePool::instance().trim();
  struct Side {
    std::unique_ptr<FusedMlp> model;
    std::unique_ptr<fused::FusedAdam> opt;
    Tensor x, labels;
    TrainStep step;
    std::function<ag::Variable()> loss_fn;
  };
  Side sides[2];
  for (int i = 0; i < 2; ++i) {
    Side& s = sides[i];
    Rng rng(1);
    s.model =
        std::make_unique<FusedMlp>(B, kIn, kHidden, kClasses, kDepth, rng);
    s.opt = std::make_unique<fused::FusedAdam>(
        fused::collect_fused_parameters(*s.model, B), B,
        fused::FusedAdam::Options{.lr = {1e-3}});
    Rng data_rng(2);
    s.x = Tensor::randn({kN, kIn}, data_rng);
    s.labels = Tensor({B, kN});
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < kN; ++n)
        s.labels.at({b, n}) = static_cast<float>(n % kClasses);
    s.step.enable_capture();
    if (i == 1) {
      TrainStep::AmpOptions ao;
      ao.dtype = DType::kF16;
      s.step.enable_amp(ao);
    }
    Side* sp = &s;
    s.loss_fn = [sp, B] {
      ag::Variable logits = sp->model->forward(ag::Variable(
          fused::pack_model_major(std::vector<Tensor>(B, sp->x))));
      return fused::fused_cross_entropy(logits, sp->labels,
                                        ag::Reduction::kMean);
    };
  }
  auto iters = [&](int side, int n) {
    for (int i = 0; i < n; ++i)
      sides[side].step.run(*sides[side].opt, sides[side].loss_fn);
  };
  iters(0, warmup + 1);
  iters(1, warmup + 1);

  const int kBlock = 50;
  const int rounds = std::max(1, total_steps / kBlock);
  std::vector<double> t_fp32, t_amp;
  uint64_t amp_allocs = 0, amp_nodes = 0;
  // Alternating the slice order as well as the slices removes any
  // within-round position bias (e.g. a turbo budget that decays over the
  // round would otherwise always penalize whichever side runs second).
  for (int r = 0; r < rounds; ++r) {
    const int first = r % 2;
    for (int s = 0; s < 2; ++s) {
      const int side = s == 0 ? first : 1 - first;
      const uint64_t a0 = StoragePool::instance().stats().heap_allocs;
      const uint64_t n0 = counters::node_constructions();
      const auto t0 = Clock::now();
      iters(side, kBlock);
      const auto t1 = Clock::now();
      if (side == 1) {
        amp_allocs += StoragePool::instance().stats().heap_allocs - a0;
        amp_nodes += counters::node_constructions() - n0;
        t_amp.push_back(std::chrono::duration<double>(t1 - t0).count());
      } else {
        t_fp32.push_back(std::chrono::duration<double>(t1 - t0).count());
      }
    }
  }
  std::sort(t_fp32.begin(), t_fp32.end());
  std::sort(t_amp.begin(), t_amp.end());
  const double med_fp32 = t_fp32[t_fp32.size() / 2];
  const double med_amp = t_amp[t_amp.size() / 2];
  StoragePool::instance().trim();
  const double total_amp_steps = static_cast<double>(rounds) * kBlock;
  return {static_cast<double>(kBlock) / med_fp32,
          static_cast<double>(kBlock) / med_amp,
          static_cast<double>(amp_allocs) / total_amp_steps,
          static_cast<double>(amp_nodes) / total_amp_steps};
}

// Same configuration as final_loss_at_current_threads but trained under
// AMP; also reports the scaler's skip counter.
double amp_final_loss(int64_t B, int train_steps, double init_scale,
                      int64_t* skips_out, double* scale_out) {
  StoragePool::instance().trim();
  Rng rng(1);
  FusedMlp model(B, kIn, kHidden, kClasses, kDepth, rng);
  fused::FusedAdam opt(fused::collect_fused_parameters(model, B), B,
                       {.lr = {1e-3}});
  Rng data_rng(2);
  Tensor x = Tensor::randn({kN, kIn}, data_rng);
  Tensor labels({B, kN});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < kN; ++n)
      labels.at({b, n}) = static_cast<float>(n % kClasses);
  TrainStep step;
  step.enable_capture();
  TrainStep::AmpOptions ao;
  ao.dtype = DType::kF16;
  ao.scaler.init_scale = init_scale;
  step.enable_amp(ao);
  double last = 0.0;
  for (int s = 0; s < train_steps; ++s) {
    ag::Variable loss = step.run(opt, [&] {
      ag::Variable logits = model.forward(
          ag::Variable(fused::pack_model_major(std::vector<Tensor>(B, x))));
      return fused::fused_cross_entropy(logits, labels, ag::Reduction::kMean);
    });
    last = loss.value().item();
  }
  if (skips_out != nullptr) *skips_out = step.scaler().overflow_skips();
  if (scale_out != nullptr) *scale_out = step.scaler().scale();
  return last;
}

void write_json(const char* path, int steps, const std::vector<Row>& rows,
                double audit_max_diff,
                const std::vector<ThreadRow>& sweep,
                double sweep_max_loss_diff,
                const std::vector<AmpRow>& amp_rows,
                const AmpSummary* amp) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"figure\": \"iteration_engine\",\n"
               "  \"steps\": %d,\n  \"simd\": \"%s\",\n"
               "  \"replay_vs_eager_max_diff\": %.2e,\n"
               "  \"rows\": [\n", steps, vec::simd_name(), audit_max_diff);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"models\": %ld, \"engine_iters_per_sec\": %.2f, "
                 "\"replay_iters_per_sec\": %.2f, "
                 "\"allocs_per_iter_engine\": %.2f, "
                 "\"allocs_per_iter_replay\": %.2f, "
                 "\"nodes_per_iter_engine\": %.2f, "
                 "\"nodes_per_iter_replay\": %.2f}%s\n",
                 r.models, r.engine_iters_per_sec, r.replay_iters_per_sec,
                 r.allocs_per_iter_engine, r.allocs_per_iter_replay,
                 r.nodes_per_iter_engine, r.nodes_per_iter_replay,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"threads_sweep_max_loss_diff\": %.2e,\n",
               sweep_max_loss_diff);
  std::fprintf(f, "  \"threads_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ThreadRow& t = sweep[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"replay_iters_per_sec\": %.2f, "
                 "\"allocs_per_iter\": %.2f, \"final_loss\": %.9e}%s\n",
                 t.threads, t.replay_iters_per_sec, t.allocs_per_iter,
                 t.final_loss, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (amp != nullptr) {
    std::fprintf(f, ",\n  \"amp\": {\n    \"dtype\": \"f16\",\n"
                 "    \"rows\": [\n");
    for (size_t i = 0; i < amp_rows.size(); ++i) {
      const AmpRow& r = amp_rows[i];
      std::fprintf(f,
                   "      {\"models\": %ld, \"amp_replay_iters_per_sec\": "
                   "%.2f, \"allocs_per_iter\": %.2f, \"nodes_per_iter\": "
                   "%.2f, \"vs_fp32_replay\": %.4f}%s\n",
                   r.models, r.amp_replay_iters_per_sec, r.allocs_per_iter,
                   r.nodes_per_iter, r.vs_fp32_replay,
                   i + 1 < amp_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "    ],\n"
                 "    \"final_loss_fp32\": %.9e,\n"
                 "    \"final_loss_amp\": %.9e,\n"
                 "    \"amp_vs_fp32_loss_gap\": %.2e,\n"
                 "    \"clean_run_overflow_skips\": %ld,\n"
                 "    \"overflow_exercise_skips\": %ld,\n"
                 "    \"overflow_exercise_recovered_scale\": %.6e\n  }",
                 amp->final_loss_fp32, amp->final_loss_amp, amp->loss_gap,
                 amp->clean_skips, amp->overflow_skips, amp->recovered_scale);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int steps = 200;
  int warmup = 10;
  int repeats = 3;
  bool amp = false;
  const char* json_path = nullptr;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [--steps N] [--warmup N] [--repeats N] "
                 "[--json PATH] [--threads N,N,...] [--amp]\n",
                 argv[0]);
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
      if (steps < 1) return usage();
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      warmup = std::atoi(argv[++i]);
      if (warmup < 1) return usage();
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) return usage();
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--amp") == 0) {
      amp = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v < 1) return usage();
        thread_counts.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
      }
      if (thread_counts.empty()) return usage();
    } else {
      return usage();
    }
  }

  std::printf("iteration engine: eager TrainStep (pooled storage + reused "
              "backward engine) vs step-program replay\n");
  std::printf("(fused MLP array, %d timed fwd+bwd+step iterations per "
              "configuration)\n\n", steps);
  std::printf("%-8s %14s %14s %11s %10s\n", "models", "engine it/s",
              "replay it/s", "allocs/it", "nodes/it");
  std::vector<Row> rows;
  for (int64_t B : {1, 2, 4, 8}) {
    // Alternate modes within each repeat so slow drift hits both equally.
    Measurement eng{0, 0, 0}, rep{0, 0, 0};
    for (int r = 0; r < repeats; ++r) {
      const Measurement e_i = run_config(B, Mode::kEngine, steps, warmup);
      const Measurement r_i = run_config(B, Mode::kReplay, steps, warmup);
      if (e_i.iters_per_sec > eng.iters_per_sec) eng = e_i;
      if (r_i.iters_per_sec > rep.iters_per_sec) rep = r_i;
    }
    const Row r{B,
                eng.iters_per_sec,
                rep.iters_per_sec,
                eng.allocs_per_iter,
                rep.allocs_per_iter,
                eng.nodes_per_iter,
                rep.nodes_per_iter};
    rows.push_back(r);
    std::printf("%-8ld %14.1f %14.1f %11.2f %10.2f\n", r.models,
                r.engine_iters_per_sec, r.replay_iters_per_sec,
                r.allocs_per_iter_replay, r.nodes_per_iter_replay);
  }
  std::printf("\n(allocs/it, nodes/it = replay mode's per-iteration heap "
              "allocations and autograd Node\nconstructions; both must be "
              "0.00 — a replayed step allocates and records nothing)\n");
  const double audit = replay_vs_eager_audit(/*B=*/4, /*audit_steps=*/20);
  std::printf("replay-vs-eager max |loss diff| over 20 steps at B=4: %.2e\n",
              audit);

  // Scaling sweep: replay mode at the largest B across worker counts.
  // Fixed partition boundaries mean the math cannot change with the worker
  // count — the final-loss column must agree to the bit on every row.
  const int default_threads = num_threads();
  std::printf("\nthread scaling, replay mode at B=8 (host has %u hardware "
              "threads)\n", std::thread::hardware_concurrency());
  std::printf("%-8s %14s %11s %16s\n", "threads", "replay it/s", "allocs/it",
              "final loss");
  std::vector<ThreadRow> sweep;
  double sweep_max_loss_diff = 0.0;
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    set_num_threads(thread_counts[ti]);
    Measurement best{0, 0, 0};
    for (int r = 0; r < repeats; ++r) {
      const Measurement m = run_config(8, Mode::kReplay, steps, warmup);
      if (m.iters_per_sec > best.iters_per_sec) best = m;
    }
    const double loss = final_loss_at_current_threads(/*B=*/8,
                                                      /*train_steps=*/20);
    sweep.push_back(ThreadRow{thread_counts[ti], best.iters_per_sec,
                              best.allocs_per_iter, loss});
    sweep_max_loss_diff =
        std::max(sweep_max_loss_diff, std::fabs(loss - sweep[0].final_loss));
    std::printf("%-8d %14.1f %11.2f %16.9e\n", thread_counts[ti],
                best.iters_per_sec, best.allocs_per_iter, loss);
  }
  set_num_threads(default_threads);
  std::printf("max |final loss diff| across thread counts: %.2e "
              "(must be 0.00e+00)\n", sweep_max_loss_diff);

  // Mixed precision: measured AMP replay next to the fp32 replay column.
  // f16 is the paper's AMP format and the one this host converts in
  // hardware (F16C); even so, CPU AMP does strictly more work than fp32
  // (quantize-on-pack + overflow scan with no half-precision FMA to pay
  // for it), so the honest ceiling is parity — the sim's tables 8/10
  // price the tensor-core win. What must hold regardless of speed: zero
  // allocations and zero node constructions per warm AMP step, and a
  // real (reported) loss gap.
  std::vector<AmpRow> amp_rows;
  AmpSummary amp_summary;
  if (amp) {
    std::printf("\nmixed precision: f16 autocast + dynamic loss scaling, "
                "replay mode\n");
    std::printf("%-8s %16s %16s %9s %11s %10s\n", "models", "fp32 replay it/s",
                "amp replay it/s", "vs fp32", "allocs/it", "nodes/it");
    for (size_t bi = 0; bi < rows.size(); ++bi) {
      const int64_t B = rows[bi].models;
      // Alternating-slice pairing (see run_amp_pair): the section-1 fp32
      // numbers were taken minutes earlier at a different turbo/thermal
      // state, and a ratio across that gap measures the host's frequency
      // decay, not the cost of mixed precision.
      const AmpPairMeasurement m = run_amp_pair(B, steps * repeats, warmup);
      const AmpRow ar{B, m.amp_iters_per_sec, m.amp_allocs_per_iter,
                      m.amp_nodes_per_iter,
                      m.amp_iters_per_sec / m.fp32_iters_per_sec};
      amp_rows.push_back(ar);
      std::printf("%-8ld %16.1f %16.1f %8.2fx %11.2f %10.2f\n", ar.models,
                  m.fp32_iters_per_sec, ar.amp_replay_iters_per_sec,
                  ar.vs_fp32_replay, ar.allocs_per_iter, ar.nodes_per_iter);
    }
    amp_summary.final_loss_fp32 =
        final_loss_at_current_threads(/*B=*/8, /*train_steps=*/20);
    amp_summary.final_loss_amp =
        amp_final_loss(/*B=*/8, /*train_steps=*/20, /*init_scale=*/65536.0,
                       &amp_summary.clean_skips, nullptr);
    amp_summary.loss_gap =
        std::fabs(amp_summary.final_loss_amp - amp_summary.final_loss_fp32);
    std::printf("amp vs fp32 |final loss gap| at B=8 over 20 steps: %.2e "
                "(f16 quantization error — measured, not hidden; clean-run "
                "overflow skips: %ld)\n",
                amp_summary.loss_gap, amp_summary.clean_skips);
    // Overflow exercise: 2^130 overflows float, so the first steps MUST
    // skip + back off before training resumes at a finite scale.
    amp_final_loss(/*B=*/8, /*train_steps=*/20,
                   /*init_scale=*/std::ldexp(1.0, 130),
                   &amp_summary.overflow_skips, &amp_summary.recovered_scale);
    std::printf("overflow exercise (init scale 2^130): skips: %ld, "
                "recovered scale: %.3e, training resumed\n",
                amp_summary.overflow_skips, amp_summary.recovered_scale);
  }

  if (json_path != nullptr) {
    write_json(json_path, steps, rows, audit, sweep, sweep_max_loss_diff,
               amp_rows, amp ? &amp_summary : nullptr);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
