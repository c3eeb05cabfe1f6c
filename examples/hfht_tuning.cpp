// HFHT end-to-end, in two acts.
//
// Act 1 (paper Fig. 8 shape): tune PointNet's 8 hyper-parameters (Table 12)
// with random search and Hyperband under the four job schedulers, reporting
// total GPU-hours from the synthetic cost model and the best configuration
// found — Algorithm 1 with the SyntheticExecutor.
//
// Act 2 (this repo's closing of the loop): the same Algorithm-1 control
// flow driving REAL fused training — for BOTH paper tasks. Every Hyperband
// round compiles its trial partition into a planner-built FusedArray,
// per-trial lr/betas/decay ride in the FusedAdam hyper-vectors, scores come
// from per-model cross-entropy on held-out data, and rung survivors are
// gathered — across every chunked array they trained in — into a smaller
// live array (FusionPlan::repack_multi + multi-source optimizer-state
// gather) that continues training bit-exactly. The executor also trains
// every model serially and prints the max per-model loss deviation:
// 0.00e+00, including across halving/repack and chunk-merge boundaries.
//
//   build/examples/hfht_tuning
//   build/examples/hfht_tuning --task mobilenet
//   build/examples/hfht_tuning --max-array-size 2 --json stats.json
#include <cstdio>
#include <cstring>
#include <string>

#include "hfht/executor.h"

using namespace hfta::hfht;

namespace {

void print_best(const SearchSpace& space, const ParamSet& best, Task task) {
  if (task == Task::kPointNet) {
    std::printf("  best config: lr=%.2e beta1=%.2f wd=%.3f batch=%g "
                "feature_transform=%g\n",
                space.get(best, "lr"), space.get(best, "adam_beta1"),
                space.get(best, "weight_decay"),
                space.get(best, "batch_size"),
                space.get(best, "feature_transform"));
  } else {
    std::printf("  best config: lr=%.2e beta1=%.2f wd=%.3f batch=%g "
                "version=V%g\n",
                space.get(best, "lr"), space.get(best, "adam_beta1"),
                space.get(best, "weight_decay"),
                space.get(best, "batch_size"), space.get(best, "version"));
  }
}

void synthetic_act(const hfta::sim::DeviceSpec& dev) {
  std::printf("HFHT: tuning PointNet classification (8 hyper-parameters, "
              "synthetic cost model)\n\n");
  const SearchSpace space = SearchSpace::pointnet();
  for (AlgorithmKind algo :
       {AlgorithmKind::kRandomSearch, AlgorithmKind::kHyperband}) {
    std::printf("%s:\n", algorithm_name(algo));
    double serial_hours = 0;
    using hfta::sim::Mode;
    for (Mode sched :
         {Mode::kSerial, Mode::kConcurrent, Mode::kMps, Mode::kHfta}) {
      const TuneResult r = run_tuning(Task::kPointNet, algo, sched, dev, 99);
      if (sched == Mode::kSerial) serial_hours = r.total_gpu_hours;
      std::printf("  %-11s %7.1f GPU-hours (%.2fx cheaper), best accuracy "
                  "%.3f over %ld trials\n",
                  hfta::sim::mode_name(sched), r.total_gpu_hours,
                  serial_hours / r.total_gpu_hours, r.best_accuracy,
                  r.total_trials);
    }
    // The winning configuration (identical across schedulers by design).
    auto tuning = make_algorithm(algo, Task::kPointNet, 99);
    SyntheticExecutor exec(Task::kPointNet, hfta::sim::Mode::kHfta, dev);
    run_tuning(*tuning, exec);
    print_best(space, tuning->best_params(), Task::kPointNet);
    std::printf("\n");
  }
}

struct RealActResult {
  TuneResult tune;
  int64_t compiled = 0, repacked = 0, merged_repacks = 0, merged_arrays = 0;
  int64_t post_repack = 0, post_merge = 0;
  double max_diff = 0;
};

RealActResult real_act(const hfta::sim::DeviceSpec& dev, Task task,
                       int64_t max_array_size) {
  std::printf("HFHT on real fused arrays: Hyperband (R=4, eta=2) over "
              "%s-tiny, max_array_size=%ld\n",
              task == Task::kPointNet ? "PointNet" : "MobileNet",
              max_array_size);
  std::printf("(trials train for real; rung survivors are repacked — "
              "merging across chunked\n arrays when a rung exceeded the "
              "array cap — into smaller live arrays)\n\n");
  // Pin the infusible choices so every round fuses into one partition —
  // the halving boundaries then exercise repack (and, with a small array
  // cap, the cross-chunk merge) rather than fresh compiles.
  SearchSpace space =
      task == Task::kPointNet ? SearchSpace::pointnet()
                              : SearchSpace::mobilenet();
  space.params[space.index_of("batch_size")].choices = {8};
  if (task == Task::kPointNet) {
    space.params[space.index_of("feature_transform")].choices = {0};
  } else {
    space.params[space.index_of("version")].choices = {3};
    space.params[space.index_of("width_mult")].choices = {0.25};
  }

  Hyperband hb(space, /*max_epochs_r=*/4, /*eta=*/2, /*skip_last=*/0,
               /*seed=*/17);
  FusedTrainingExecutor::Options opts;
  opts.dataset_size = 32;
  opts.eval_size = 8;
  opts.max_array_size = max_array_size;
  opts.seed = 17;
  opts.verify_against_serial = true;
  FusedTrainingExecutor exec(task, dev, opts);
  RealActResult out;
  out.tune = run_tuning(hb, exec);

  std::printf("  %ld trials over %ld rounds: %.2f simulated GPU-seconds "
              "(priced from the\n  actual tiny-%s traces, not the canned "
              "paper-scale ones)\n",
              out.tune.total_trials, out.tune.iterations,
              out.tune.total_gpu_hours * 3600.0,
              task == Task::kPointNet ? "PointNet" : "MobileNet");
  std::printf("  arrays compiled: %ld, halving repacks: %ld\n",
              exec.arrays_compiled(), exec.arrays_repacked());
  std::printf("  cross-chunk continuations: %ld multi-source repacks "
              "merging %ld arrays,\n  %ld per-model iterations verified "
              "after a merge\n",
              exec.multi_source_repacks(), exec.arrays_merged(),
              exec.iterations_verified_after_merge());
  std::printf("  best held-out score 1/(1+loss) = %.3f\n",
              out.tune.best_accuracy);
  print_best(space, hb.best_params(), task);
  std::printf("\n  max fused-vs-serial per-model loss diff: %.2e\n",
              exec.max_fused_vs_serial_diff());
  std::printf("  (%ld per-model iterations verified on repacked arrays — "
              "the fused run IS the\n  serial runs, across halving and "
              "chunk-merge boundaries included)\n",
              exec.iterations_verified_after_repack());

  out.compiled = exec.arrays_compiled();
  out.repacked = exec.arrays_repacked();
  out.merged_repacks = exec.multi_source_repacks();
  out.merged_arrays = exec.arrays_merged();
  out.post_repack = exec.iterations_verified_after_repack();
  out.post_merge = exec.iterations_verified_after_merge();
  out.max_diff = exec.max_fused_vs_serial_diff();
  return out;
}

void write_json(const char* path, Task task, int64_t max_array_size,
                const RealActResult& r) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"figure\": \"hfht_real_training\",\n"
      "  \"task\": \"%s\",\n"
      "  \"max_array_size\": %ld,\n"
      "  \"trials\": %ld,\n"
      "  \"rounds\": %ld,\n"
      "  \"gpu_hours\": %.6e,\n"
      "  \"best_score\": %.6f,\n"
      "  \"arrays_compiled\": %ld,\n"
      "  \"halving_repacks\": %ld,\n"
      "  \"multi_source_repacks\": %ld,\n"
      "  \"arrays_merged\": %ld,\n"
      "  \"iterations_verified_after_repack\": %ld,\n"
      "  \"iterations_verified_after_merge\": %ld,\n"
      "  \"max_fused_vs_serial_diff\": %.3e\n"
      "}\n",
      task == Task::kPointNet ? "pointnet" : "mobilenet", max_array_size,
      r.tune.total_trials, r.tune.iterations, r.tune.total_gpu_hours,
      r.tune.best_accuracy, r.compiled, r.repacked, r.merged_repacks,
      r.merged_arrays, r.post_repack, r.post_merge, r.max_diff);
  std::fclose(f);
  std::printf("\n  stats written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Task task = Task::kPointNet;
  int64_t max_array_size = 8;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--task") == 0 && i + 1 < argc) {
      task = std::strcmp(argv[++i], "mobilenet") == 0 ? Task::kMobileNet
                                                      : Task::kPointNet;
    } else if (std::strcmp(argv[i], "--max-array-size") == 0 && i + 1 < argc) {
      max_array_size = std::atol(argv[++i]);
      if (max_array_size < 1) {
        std::printf("--max-array-size must be a positive integer\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--task pointnet|mobilenet] "
                  "[--max-array-size N] [--json PATH]\n",
                  argv[0]);
      return 1;
    }
  }
  const auto dev = hfta::sim::v100();
  if (task == Task::kPointNet) synthetic_act(dev);
  const RealActResult r = real_act(dev, task, max_array_size);
  if (json_path != nullptr) write_json(json_path, task, max_array_size, r);
  return 0;
}
