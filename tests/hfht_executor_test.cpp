// TrialExecutor seam tests: the synthetic executor reproduces the legacy
// accuracy/cost path exactly, and the real fused-training executor (a) runs
// each trial group as one planner-compiled array whose per-model loss
// trajectories equal B independent serial trainings to the last bit, and
// (b) repacks Hyperband rung survivors into a smaller array that continues
// training bit-exactly across the halving boundary.
#include <gtest/gtest.h>

#include "hfht/executor.h"

namespace hfta::hfht {
namespace {

// The PointNet space with its infusible choices pinned, so every proposed
// trial lands in ONE fused partition (and feature_transform=0 keeps the STN
// out of the bit-exactness audit).
SearchSpace single_partition_space() {
  SearchSpace s = SearchSpace::pointnet();
  s.params[s.index_of("batch_size")].choices = {8};
  s.params[s.index_of("feature_transform")].choices = {0};
  return s;
}

FusedTrainingExecutor::Options tiny_options(bool verify) {
  FusedTrainingExecutor::Options o;
  o.dataset_size = 16;
  o.eval_size = 8;
  o.max_array_size = 8;
  o.seed = 1234;
  o.verify_against_serial = verify;
  return o;
}

TEST(SpaceLookup, NamedIndexAndValueAccess) {
  const SearchSpace space = SearchSpace::pointnet();
  EXPECT_EQ(space.index_of("lr"), 0u);
  EXPECT_EQ(space.index_of("batch_size"), 6u);
  ParamSet p = {1e-3, 0.9, 0.99, 0.05, 0.5, 10, 16, 1};
  EXPECT_DOUBLE_EQ(space.get(p, "lr"), 1e-3);
  EXPECT_DOUBLE_EQ(space.get(p, "batch_size"), 16);
  EXPECT_DOUBLE_EQ(space.get(p, "feature_transform"), 1);
  EXPECT_THROW(space.index_of("nope"), Error);
}

TEST(SyntheticExecutorSeam, MatchesAccuracySurfaceAndCostModel) {
  const SearchSpace space = SearchSpace::pointnet();
  Rng rng(5);
  std::vector<Trial> batch;
  for (int i = 0; i < 6; ++i) batch.push_back({space.sample(rng), 10});
  const auto dev = sim::v100();
  SyntheticExecutor exec(Task::kPointNet, sim::Mode::kHfta, dev);
  const ExecutionReport rep = exec.run(batch);
  ASSERT_EQ(rep.scores.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i)
    EXPECT_DOUBLE_EQ(rep.scores[i],
                     synthetic_accuracy(space, batch[i].params, 10,
                                        Task::kPointNet));
  const CostReport want = schedule_cost(batch, space,
                                        sim::Workload::kPointNetCls, dev,
                                        sim::Mode::kHfta);
  EXPECT_DOUBLE_EQ(rep.cost.gpu_hours, want.gpu_hours);
  EXPECT_EQ(rep.cost.jobs_launched, want.jobs_launched);
}

TEST(SyntheticExecutorSeam, RunTuningWrapperIsUnchanged) {
  const auto dev = sim::v100();
  const TuneResult via_wrapper =
      run_tuning(Task::kPointNet, AlgorithmKind::kRandomSearch,
                 sim::Mode::kHfta, dev, 42);
  auto algo = make_algorithm(AlgorithmKind::kRandomSearch, Task::kPointNet, 42);
  SyntheticExecutor exec(Task::kPointNet, sim::Mode::kHfta, dev);
  const TuneResult via_seam = run_tuning(*algo, exec);
  EXPECT_DOUBLE_EQ(via_seam.total_gpu_hours, via_wrapper.total_gpu_hours);
  EXPECT_DOUBLE_EQ(via_seam.best_accuracy, via_wrapper.best_accuracy);
  EXPECT_EQ(via_seam.total_trials, via_wrapper.total_trials);
}

TEST(FusedExecutor, OneFusedGroupEqualsSerialTrainingsBitExactly) {
  RandomSearch rs(single_partition_space(), /*total_sets=*/4,
                  /*epochs_per_set=*/2, /*seed=*/7);
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  const TuneResult r = run_tuning(rs, exec);
  EXPECT_EQ(r.total_trials, 4);
  EXPECT_EQ(exec.arrays_compiled(), 1);       // one partition, one array
  EXPECT_EQ(exec.arrays_repacked(), 0);
  EXPECT_GT(r.best_accuracy, 0.0);            // real losses, real scores
  EXPECT_LE(r.best_accuracy, 1.0);
  EXPECT_GT(r.total_gpu_hours, 0.0);          // priced from the real trace
  // The fused run IS the serial runs: not one float bit of loss drift.
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, HyperbandSurvivorsRepackAndContinueBitExactly) {
  // R=4, eta=2, skip_last=0: bracket 2 runs 4 -> 2 -> 1 configs, so the
  // executor must repack the live array at every halving boundary.
  Hyperband hb(single_partition_space(), /*max_epochs_r=*/4, /*eta=*/2,
               /*skip_last=*/0, /*seed=*/9);
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  const TuneResult r = run_tuning(hb, exec);
  EXPECT_GT(r.total_trials, 4);
  EXPECT_GE(exec.arrays_repacked(), 2);
  EXPECT_GT(exec.iterations_verified_after_repack(), 0);
  // Survivors continue as if the killed trials never shared the array.
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, ReplayContinuesAcrossHyperbandRepack) {
  // The executor's TrainStep captures each group's step program; a halving
  // repack builds a new array + optimizer (new fingerprint), so training
  // must recapture and keep replaying — with the serial audit still at
  // zero drift on the post-repack iterations.
  Hyperband hb(single_partition_space(), /*max_epochs_r=*/4, /*eta=*/2,
               /*skip_last=*/0, /*seed=*/9);
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  run_tuning(hb, exec);
  const TrainStep::Stats& st = exec.train_step().stats();
  EXPECT_GT(st.replays, 0);   // steady-state steps were served tape-free
  EXPECT_GE(st.captures, 2);  // at least one pre- and one post-repack program
  EXPECT_GE(exec.arrays_repacked(), 2);
  EXPECT_GT(exec.iterations_verified_after_repack(), 0);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, AmpKeepsFusedVsSerialBitExactAcrossRepack) {
  // Mixed precision must not cost the executor its core invariant: with
  // amp=true the fused array AND each serial verification twin train under
  // the same autocast dtype and the same shared loss scale, so the per-model
  // trajectories still match bit for bit — including across Hyperband
  // halving repacks (the scaler lives on the executor's TrainStep, which
  // outlives every repack).
  Hyperband hb(single_partition_space(), /*max_epochs_r=*/4, /*eta=*/2,
               /*skip_last=*/0, /*seed=*/9);
  FusedTrainingExecutor::Options o = tiny_options(/*verify=*/true);
  o.amp = true;
  o.amp_dtype = DType::kBF16;
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(), o);
  run_tuning(hb, exec);
  EXPECT_TRUE(exec.train_step().amp_enabled());
  EXPECT_GE(exec.arrays_repacked(), 2);
  EXPECT_GT(exec.iterations_verified_after_repack(), 0);
  // bf16's f32-sized exponent cannot overflow this workload: every step
  // must have been taken (no silent skips hiding in the audit).
  EXPECT_EQ(exec.train_step().stats().amp_overflow_skips, 0);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, DuplicateSurvivorsRepackIntoDistinctSlots) {
  // Discrete choice lists make identical ParamSets possible; two surviving
  // copies of the same set must map to two distinct slots of the old array
  // (a non-injective match would move the same serial twin twice).
  const ParamSet p = {1e-3, 0.9, 0.99, 0.05, 0.5, 10, 8, 0};
  const ParamSet q = {2e-3, 0.8, 0.99, 0.10, 0.5, 10, 8, 0};
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  exec.run({{p, 1}, {p, 1}, {q, 1}});
  const ExecutionReport rep = exec.run({{p, 2}, {p, 2}});  // both survive
  EXPECT_EQ(exec.arrays_repacked(), 1);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
  ASSERT_EQ(rep.scores.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.scores[0], rep.scores[1]);  // identical trials
}

TEST(FusedExecutor, FeatureTransformGroupRepacksBitExactly) {
  // feature_transform=1 routes through the STN: exercises the STN at B
  // (its Linear head at array size B) and its state slices across a
  // halving repack.
  const ParamSet p = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 8, 1};
  const ParamSet q = {3e-3, 0.85, 0.99, 0.10, 0.5, 10, 8, 1};
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  exec.run({{p, 1}, {q, 1}});
  exec.run({{q, 2}});  // q survives the rung
  EXPECT_EQ(exec.arrays_repacked(), 1);
  EXPECT_GT(exec.iterations_verified_after_repack(), 0);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, OversizedPartitionIsChunked) {
  FusedTrainingExecutor::Options o = tiny_options(/*verify=*/false);
  o.max_array_size = 2;
  RandomSearch rs(single_partition_space(), 5, 1, 11);
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(), o);
  const TuneResult r = run_tuning(rs, exec);
  EXPECT_EQ(r.total_trials, 5);
  EXPECT_EQ(exec.arrays_compiled(), 3);  // 2 + 2 + 1
}

TEST(FusedExecutor, SurvivorsSpanningChunksMergeAndContinueBitExactly) {
  // Four trials with max_array_size=2 land in two chunked arrays (the
  // paper-scale bracket case: rung > device cap); the surviving pair draws
  // one member from EACH chunk, so continuing them requires the
  // multi-source gather — the single-source repack used to retrain these
  // from scratch.
  const ParamSet p1 = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 8, 0};
  const ParamSet p2 = {2e-3, 0.85, 0.99, 0.10, 0.5, 10, 8, 0};
  const ParamSet p3 = {3e-3, 0.80, 0.99, 0.15, 0.5, 10, 8, 0};
  const ParamSet p4 = {4e-3, 0.75, 0.99, 0.20, 0.5, 10, 8, 0};
  FusedTrainingExecutor::Options o = tiny_options(/*verify=*/true);
  o.max_array_size = 2;
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(), o);
  exec.run({{p1, 1}, {p2, 1}, {p3, 1}, {p4, 1}});
  EXPECT_EQ(exec.arrays_compiled(), 2);
  const ExecutionReport rep = exec.run({{p2, 3}, {p3, 3}});
  EXPECT_EQ(exec.arrays_compiled(), 2);  // no fresh retrain
  EXPECT_EQ(exec.multi_source_repacks(), 1);
  EXPECT_EQ(exec.arrays_merged(), 2);
  EXPECT_GT(exec.iterations_verified_after_merge(), 0);
  // The merged array's training equals the two serial runs to the last
  // bit, exactly as if p2 and p3 had always shared one array.
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
  ASSERT_EQ(rep.scores.size(), 2u);
  for (double s : rep.scores) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(FusedExecutor, LeftoverSlotOfADrainedGroupStillContinuesBitExactly) {
  // A repack moves the source group's sampler (and the picked serial
  // twins) but leaves non-surviving slots behind. If a later proposal
  // legitimately matches such a leftover slot — possible with duplicate
  // parameter sets from the discrete choice lists — the executor must
  // reconstruct the shuffle stream deterministically and continue
  // bit-exactly rather than dereference the moved-from sampler.
  const ParamSet p = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 8, 0};
  const ParamSet q = {2e-3, 0.85, 0.99, 0.10, 0.5, 10, 8, 0};
  FusedTrainingExecutor exec(Task::kPointNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  exec.run({{p, 1}, {q, 1}});  // one group {p, q}
  exec.run({{q, 2}});          // q survives: sampler moves, p's slot stays
  EXPECT_EQ(exec.arrays_repacked(), 1);
  // p resurfaces: its slot is un-retired, but the group's sampler is gone.
  const ExecutionReport rep = exec.run({{p, 2}});
  EXPECT_EQ(exec.arrays_repacked(), 2);
  EXPECT_EQ(exec.arrays_compiled(), 1);  // continued, not retrained
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
  ASSERT_EQ(rep.scores.size(), 1u);
  EXPECT_GT(rep.scores[0], 0.0);
}

// The MobileNet space with its infusible choices pinned to one partition
// at real-executor scale (tiny widths, batch 4).
SearchSpace mobilenet_single_partition_space() {
  SearchSpace s = SearchSpace::mobilenet();
  s.params[s.index_of("batch_size")].choices = {4};
  s.params[s.index_of("version")].choices = {3};
  s.params[s.index_of("width_mult")].choices = {0.25};
  return s;
}

TEST(FusedExecutor, MobileNetTrialsTrainForRealBitExactly) {
  // The second paper workload scores from REAL fused training now, not the
  // synthetic accuracy surface: one array planner-compiled from the
  // trials' MobileNetV3 graphs, whose per-model loss trajectories equal the
  // serial runs exactly.
  RandomSearch rs(mobilenet_single_partition_space(), /*total_sets=*/3,
                  /*epochs_per_set=*/1, /*seed=*/21);
  FusedTrainingExecutor exec(Task::kMobileNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  const TuneResult r = run_tuning(rs, exec);
  EXPECT_EQ(r.total_trials, 3);
  EXPECT_EQ(exec.arrays_compiled(), 1);
  EXPECT_GT(r.best_accuracy, 0.0);
  EXPECT_LE(r.best_accuracy, 1.0);
  EXPECT_GT(r.total_gpu_hours, 0.0);  // priced from the real MobileNet trace
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, MobileNetSurvivorRepacksBitExactly) {
  // Halving on a live MobileNet array: the survivor's weights, BN running
  // stats, and Adam state carry over through store_model.
  const ParamSet p = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 4, 3, 0.25};
  const ParamSet q = {2e-3, 0.85, 0.99, 0.10, 0.5, 10, 4, 3, 0.25};
  FusedTrainingExecutor exec(Task::kMobileNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  exec.run({{p, 1}, {q, 1}});
  exec.run({{q, 2}});  // q survives the rung
  EXPECT_EQ(exec.arrays_repacked(), 1);
  EXPECT_GT(exec.iterations_verified_after_repack(), 0);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
}

TEST(FusedExecutor, MobileNetVersionIsInfusible) {
  // V2 vs V3-Large differ structurally (paper Table 12's "version"), so
  // mixed proposals split into two fused partitions, each training for
  // real.
  const ParamSet v3 = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 4, 3, 0.25};
  const ParamSet v2 = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 4, 2, 0.25};
  FusedTrainingExecutor exec(Task::kMobileNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  const ExecutionReport rep = exec.run({{v3, 1}, {v2, 1}});
  EXPECT_EQ(exec.arrays_compiled(), 2);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
  ASSERT_EQ(rep.scores.size(), 2u);
}

TEST(FusedExecutor, MobileNetWidthMultIsInfusible) {
  // Trials that differ only in width_mult have different channel counts
  // everywhere, so the congruence check must split them into separate
  // fused partitions — each still training for real, bit-exactly.
  const ParamSet narrow = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 4, 3, 0.25};
  const ParamSet wide = {1e-3, 0.90, 0.99, 0.05, 0.5, 10, 4, 3, 0.5};
  FusedTrainingExecutor exec(Task::kMobileNet, sim::v100(),
                             tiny_options(/*verify=*/true));
  const ExecutionReport rep = exec.run({{narrow, 1}, {wide, 1}});
  EXPECT_EQ(exec.arrays_compiled(), 2);
  EXPECT_EQ(exec.max_fused_vs_serial_diff(), 0.0);
  ASSERT_EQ(rep.scores.size(), 2u);
  EXPECT_GT(rep.scores[0], 0.0);
  EXPECT_GT(rep.scores[1], 0.0);
}

}  // namespace
}  // namespace hfta::hfht
