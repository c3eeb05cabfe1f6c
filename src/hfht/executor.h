// The Algorithm-1 execution seam. HFHT's tuning loop (propose -> run ->
// update) talks to a TrialExecutor: the synthetic executor keeps the
// deterministic accuracy surface + cost model that reproduce Fig. 8's
// GPU-hour curves, and the fused-training executor runs every trial for
// real — each partition_by_infusible() group becomes a planner-compiled
// FusedArray driven by a FusedAdam with per-trial hyper-parameter vectors,
// scored from per-model cross-entropy and billed the measured time of its
// fused steps. Hyperband's successive halving maps
// onto FusionPlan::repack_multi: rung survivors — even survivors spread
// over several chunked arrays — are gathered into one fresh array that
// continues training bit-exactly.
#pragma once

#include <memory>
#include <utility>

#include "data/datasets.h"
#include "hfht/tuner.h"
#include "hfta/train.h"

namespace hfta::fused {
class FusedAdam;
}
namespace hfta::nn {
class Module;
}
namespace hfta::data {
class BatchSampler;  // data/loader.h
}

namespace hfta::hfht {

/// Result of executing one proposed batch: per-trial scores (aligned with
/// the batch; higher is better) and the device-hour bill.
struct ExecutionReport {
  std::vector<double> scores;
  CostReport cost;
};

/// Runs batches of trials for the tuning loop (Algorithm 1, lines 7-12).
class TrialExecutor {
 public:
  virtual ~TrialExecutor() = default;
  virtual ExecutionReport run(const std::vector<Trial>& batch) = 0;
};

/// The paper-figure executor: scores from the synthetic accuracy surface,
/// cost from the scheduler cost model (unchanged Fig. 8 behavior).
class SyntheticExecutor : public TrialExecutor {
 public:
  SyntheticExecutor(Task task, sim::Mode scheduler, sim::DeviceSpec dev);
  ExecutionReport run(const std::vector<Trial>& batch) override;

 private:
  Task task_;
  sim::Mode scheduler_;
  sim::DeviceSpec dev_;
  SearchSpace space_;
  sim::Workload workload_;
};

/// The real executor: trains every trial on an actual fused array. Both
/// paper tasks run for real — PointNet classification on synthetic point
/// clouds and MobileNet (V3-Large or V2, the infusible "version"
/// hyper-parameter) on synthetic images; each trial's per-model graph is a
/// pure function of its ParamSet, so serial reruns reproduce it exactly.
///
/// Each infusible partition (same batch size / structural params) compiles
/// into one FusedArray via the planner; per-trial lr/beta1/beta2/weight
/// decay ride in the FusedAdam's HyperVecs, and a FusedStepLR over it
/// applies each trial's StepLR decay epoch-wise. Scores come from per-model
/// cross-entropy on a held-out batch, mapped to 1/(1+loss). The bill is
/// measured: each training call adds the wall time of its fused steps
/// (batch build, staging and the fused TrainStep) times num_threads(), as
/// a GPU-hour bills the whole device however little of it a job uses. The
/// serial verification twins, their audit and scoring are not billed.
///
/// Arrays live across rung boundaries: when a later batch re-proposes
/// already-trained members with a larger epoch budget (Hyperband
/// survivors), the survivors are gathered — across ALL live arrays they
/// trained in, not just one — into a fresh array
/// (FusionPlan::repack_multi + the multi-source
/// FusedOptimizer::repack_state_from) and continue training exactly where
/// they stopped. This covers the paper-scale bracket case where a rung
/// exceeded max_array_size and was chunked: survivors spanning chunk
/// boundaries used to retrain from scratch, now they merge and continue.
class FusedTrainingExecutor : public TrialExecutor {
 public:
  struct Options {
    int64_t dataset_size = 64;   // synthetic training samples
    int64_t eval_size = 16;      // held-out scoring samples
    int64_t max_array_size = 8;  // fused-chunk cap (device-memory stand-in)
    uint64_t seed = 0x5EED;
    /// Additionally trains every group's B models serially (same data, same
    /// schedules) and records the max per-model loss deviation — the
    /// bit-exactness audit printed by examples/hfht_tuning.
    bool verify_against_serial = false;
    /// Mixed precision for trial training: autocast the GEMM/conv class to
    /// `amp_dtype` with dynamic loss scaling (TrainStep::enable_amp). One
    /// LossScaler lives on the executor's TrainStep, so its state survives
    /// Hyperband rungs and repacks. The serial verification twins share the
    /// TrainStep and therefore train under the same AMP policy — the
    /// fused-vs-serial audit stays meaningful (and exact) under AMP.
    bool amp = false;
    DType amp_dtype = DType::kBF16;
  };

  /// The DeviceSpec is unread (the bill is measured); it is kept until the
  /// benchmark's call site stops passing one.
  FusedTrainingExecutor(Task task, sim::DeviceSpec, Options opts);
  FusedTrainingExecutor(Task task, sim::DeviceSpec dev)
      : FusedTrainingExecutor(task, dev, Options()) {}
  ~FusedTrainingExecutor() override;
  ExecutionReport run(const std::vector<Trial>& batch) override;

  /// Max |fused - serial| per-model training loss over every iteration of
  /// every verified group (0.0 when fused training IS the serial runs).
  double max_fused_vs_serial_diff() const { return max_diff_; }
  int64_t arrays_compiled() const { return compiled_; }
  int64_t arrays_repacked() const { return repacked_; }
  /// Halving repacks whose survivors were gathered from >= 2 live arrays
  /// (a rung larger than max_array_size was chunked — the paper-scale
  /// bracket case).
  int64_t multi_source_repacks() const { return multi_repacked_; }
  /// Total source arrays merged across those multi-source repacks.
  int64_t arrays_merged() const { return arrays_merged_; }
  /// Iterations verified on arrays that had been repacked at least once
  /// (> 0 proves bit-exactness held across a halving boundary).
  int64_t iterations_verified_after_repack() const {
    return post_repack_verified_;
  }
  /// Iterations verified on arrays merged from >= 2 sources (> 0 proves
  /// bit-exactness held across a chunk boundary).
  int64_t iterations_verified_after_merge() const {
    return post_merge_verified_;
  }
  /// The executor's iteration engine (capture/replay statistics: replays,
  /// captures, last-step allocation and Node-construction counts).
  const TrainStep& train_step() const { return train_step_; }

 private:
  struct Group;
  struct Pick;  // (live group, slot) of one gathered survivor

  Group* find_or_create(const std::vector<ParamSet>& members,
                        int64_t epoch_budget);
  Group* repack_groups(const std::vector<ParamSet>& members,
                       const std::vector<Pick>& picks, int64_t src_epochs);
  /// The per-trial model graph: a pure function of the ParamSet (structure
  /// from the infusible params, weight init from the param-set hash).
  std::shared_ptr<nn::Module> build_trial_net(const ParamSet& p) const;
  std::pair<Tensor, Tensor> train_batch(const std::vector<int64_t>& idx) const;
  /// The group's shuffle stream, rebuilt at its current epoch (a pure
  /// function of the infusible values and epochs_trained, so no group
  /// stores one).
  data::BatchSampler make_sampler(const Group& g) const;
  /// Builds the group's FusedAdam and its per-trial StepLR over it.
  void make_optimizer(Group& g) const;
  /// Trains `delta_epochs` more epochs and bills their measured fused
  /// step time (x pool lanes) into `cost`.
  void train(Group& g, int64_t delta_epochs, CostReport& cost);
  /// Drops the step programs keyed by a dying group's optimizers (they
  /// would otherwise pin the captured graph until LRU eviction).
  void drop_group_programs(const Group& g);
  std::vector<double> score(Group& g);

  Task task_;
  Options opts_;
  SearchSpace space_;
  Rng rng_;
  /// One iteration engine for every group this executor ever trains (fused
  /// steps and serial verification twins alike): backward scratch and
  /// pooled tensor storage stay warm across trials, rungs, and repacks.
  TrainStep train_step_;
  std::unique_ptr<data::PointCloudDataset> cloud_ds_;  // kPointNet
  std::unique_ptr<data::ImageDataset> image_ds_;       // kMobileNet
  Tensor eval_x_, eval_y_;  // fixed held-out scoring batch
  std::vector<std::unique_ptr<Group>> groups_;

  int64_t compiled_ = 0;
  int64_t repacked_ = 0;
  int64_t multi_repacked_ = 0;
  int64_t arrays_merged_ = 0;
  int64_t post_repack_verified_ = 0;
  int64_t post_merge_verified_ = 0;
  double max_diff_ = 0.0;
};

}  // namespace hfta::hfht
