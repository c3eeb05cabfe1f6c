// HFHT tests: search-space partitioning (Appendix E / Fig. 12), Hyperband
// bracket arithmetic, scheduler cost ordering, and the end-to-end Fig. 8
// claims (HFTA cheapest; random search benefits more than Hyperband).
#include <gtest/gtest.h>

#include "hfht/tuner.h"

namespace hfta::hfht {
namespace {

TEST(Space, SamplesRespectRangesAndChoices) {
  SearchSpace space = SearchSpace::pointnet();
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    ParamSet p = space.sample(rng);
    ASSERT_EQ(p.size(), 8u);
    EXPECT_GE(p[0], 1e-4);  // lr range
    EXPECT_LE(p[0], 1e-2);
    EXPECT_TRUE(p[6] == 8 || p[6] == 16 || p[6] == 32);  // batch size
    EXPECT_TRUE(p[7] == 0 || p[7] == 1);                 // feature transform
  }
}

TEST(Space, InfusibleIndices) {
  SearchSpace space = SearchSpace::pointnet();
  auto inf = space.infusible_indices();
  ASSERT_EQ(inf.size(), 2u);  // batch size + feature transform
  EXPECT_EQ(inf[0], 6u);
  EXPECT_EQ(inf[1], 7u);
}

TEST(Space, PartitionGroupsByInfusibleValues) {
  // Fig. 12's example: sets sharing infusible values fuse together.
  SearchSpace space = SearchSpace::pointnet();
  std::vector<ParamSet> sets = {
      {1e-3, 0.9, 0.99, 0.0, 0.5, 10, 8, 0},
      {2e-3, 0.8, 0.99, 0.1, 0.5, 10, 8, 0},   // same partition as #0
      {1e-3, 0.9, 0.99, 0.0, 0.5, 10, 16, 0},  // batch differs
      {5e-4, 0.7, 0.99, 0.0, 0.5, 10, 8, 1},   // transform differs
      {9e-4, 0.6, 0.99, 0.2, 0.5, 20, 8, 0},   // same as #0
  };
  auto partitions = partition_by_infusible(space, sets);
  ASSERT_EQ(partitions.size(), 3u);
  size_t largest = 0;
  for (const auto& p : partitions) largest = std::max(largest, p.size());
  EXPECT_EQ(largest, 3u);  // {0, 1, 4}
}

TEST(Space, UnfuseAndReorderRestoresOrder) {
  SearchSpace space = SearchSpace::pointnet();
  std::vector<ParamSet> sets;
  Rng rng(2);
  for (int i = 0; i < 12; ++i) sets.push_back(space.sample(rng));
  auto partitions = partition_by_infusible(space, sets);
  // results = original index (as a value) scattered through partitions
  std::vector<std::vector<double>> partition_results;
  for (const auto& p : partitions) {
    std::vector<double> r;
    for (size_t idx : p) r.push_back(static_cast<double>(idx));
    partition_results.push_back(r);
  }
  auto restored = unfuse_and_reorder(partitions, partition_results, 12);
  for (size_t i = 0; i < 12; ++i)
    EXPECT_DOUBLE_EQ(restored[i], static_cast<double>(i));
}

TEST(RandomSearchAlgo, ProposesConfiguredBudgetOnce) {
  RandomSearch rs(SearchSpace::pointnet(), 60, 25, 3);
  auto batch = rs.propose();
  ASSERT_EQ(batch.size(), 60u);
  for (const Trial& t : batch) EXPECT_EQ(t.epochs, 25);
  std::vector<double> acc(batch.size(), 0.5);
  acc[17] = 0.9;
  rs.update(batch, acc);
  EXPECT_DOUBLE_EQ(rs.best_accuracy(), 0.9);
  EXPECT_TRUE(rs.propose().empty());
}

TEST(HyperbandAlgo, BracketScheduleArithmetic) {
  // PointNet config: R=250, eta=5 -> s_max = 3.
  Hyperband hb(SearchSpace::pointnet(), 250, 5, /*skip_last=*/1, 4);
  EXPECT_EQ(hb.s_max(), 3);
  auto rounds = hb.bracket_schedule(3);
  // skip_last=1: bracket 3 has s+1-1 = 3 rounds; first: n = ceil(4/4*125)
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].configs, 125);
  EXPECT_EQ(rounds[0].epochs, 2);  // R * eta^-3 = 250/125 = 2
  EXPECT_EQ(rounds[1].configs, 25);
  EXPECT_EQ(rounds[1].epochs, 10);
  EXPECT_EQ(rounds[2].configs, 5);
  EXPECT_EQ(rounds[2].epochs, 50);
}

TEST(HyperbandAlgo, KeepsTopConfigsBetweenRounds) {
  Hyperband hb(SearchSpace::pointnet(), 25, 5, 0, 5);  // s_max = 2
  auto r0 = hb.propose();
  ASSERT_GT(r0.size(), 1u);
  // Give the first trial the best accuracy; it must survive.
  std::vector<double> acc(r0.size(), 0.1);
  acc[0] = 0.99;
  hb.update(r0, acc);
  auto r1 = hb.propose();
  ASSERT_FALSE(r1.empty());
  EXPECT_LT(r1.size(), r0.size());
  EXPECT_EQ(r1[0].params, r0[0].params);
  EXPECT_GT(r1[0].epochs, r0[0].epochs);
}

TEST(HyperbandAlgo, TerminatesAfterAllBrackets) {
  Hyperband hb(SearchSpace::pointnet(), 25, 5, 0, 6);
  int iterations = 0;
  while (true) {
    auto batch = hb.propose();
    if (batch.empty()) break;
    std::vector<double> acc(batch.size(), 0.5);
    hb.update(batch, acc);
    ASSERT_LT(++iterations, 100) << "Hyperband failed to terminate";
  }
  EXPECT_GT(iterations, 2);
}

TEST(Accuracy, SurfaceIsDeterministicAndEpochMonotone) {
  SearchSpace space = SearchSpace::pointnet();
  ParamSet p = {1e-3, 0.9, 0.99, 0.05, 0.5, 10, 8, 1};
  const double a1 = synthetic_accuracy(space, p, 10, Task::kPointNet);
  const double a2 = synthetic_accuracy(space, p, 10, Task::kPointNet);
  EXPECT_DOUBLE_EQ(a1, a2);
  const double a_more = synthetic_accuracy(space, p, 100, Task::kPointNet);
  EXPECT_GT(a_more, a1);
  // a good lr beats a terrible one
  ParamSet bad = p;
  bad[0] = 1e-2;
  bad[3] = 0.5;
  EXPECT_GT(synthetic_accuracy(space, p, 50, Task::kPointNet),
            synthetic_accuracy(space, bad, 50, Task::kPointNet));
}

TEST(Scheduler, HftaCheaperThanSerialOnABatch) {
  SearchSpace space = SearchSpace::pointnet();
  Rng rng(7);
  std::vector<Trial> trials;
  for (int i = 0; i < 24; ++i) trials.push_back({space.sample(rng), 10});
  const auto dev = sim::v100();
  const auto serial = schedule_cost(trials, space, sim::Workload::kPointNetCls,
                                    dev, sim::Mode::kSerial);
  const auto hfta = schedule_cost(trials, space, sim::Workload::kPointNetCls,
                                  dev, sim::Mode::kHfta);
  EXPECT_GT(serial.gpu_hours, hfta.gpu_hours * 1.5);
  EXPECT_LT(hfta.jobs_launched, serial.jobs_launched);
}

TEST(Scheduler, SingleTrialCostsTheSameEverywhere) {
  SearchSpace space = SearchSpace::pointnet();
  Rng rng(8);
  std::vector<Trial> one = {{space.sample(rng), 5}};
  const auto dev = sim::v100();
  const auto a = schedule_cost(one, space, sim::Workload::kPointNetCls, dev,
                               sim::Mode::kSerial);
  const auto b = schedule_cost(one, space, sim::Workload::kPointNetCls, dev,
                               sim::Mode::kHfta);
  EXPECT_NEAR(a.gpu_hours, b.gpu_hours, 1e-9);
}

TEST(EndToEnd, Fig8CostOrderingAndSavings) {
  const auto dev = sim::v100();
  for (Task task : {Task::kPointNet, Task::kMobileNet}) {
    for (AlgorithmKind algo :
         {AlgorithmKind::kRandomSearch, AlgorithmKind::kHyperband}) {
      const auto serial =
          run_tuning(task, algo, sim::Mode::kSerial, dev, 42);
      const auto hfta = run_tuning(task, algo, sim::Mode::kHfta, dev, 42);
      // HFTA always cheapest (Fig. 8); savings can reach ~5x.
      EXPECT_LT(hfta.total_gpu_hours, serial.total_gpu_hours)
          << task_name(task) << "/" << algorithm_name(algo);
      // identical tuning decisions (same seed, same algorithm)
      EXPECT_DOUBLE_EQ(hfta.best_accuracy, serial.best_accuracy);
      EXPECT_EQ(hfta.total_trials, serial.total_trials);
    }
  }
}

TEST(EndToEnd, RandomSearchBenefitsMoreThanHyperband) {
  // §5.4 second observation: Hyperband's few-jobs-many-epochs iterations
  // leave less fusion opportunity.
  const auto dev = sim::v100();
  const auto rs_serial = run_tuning(Task::kPointNet,
                                    AlgorithmKind::kRandomSearch,
                                    sim::Mode::kSerial, dev, 11);
  const auto rs_hfta = run_tuning(Task::kPointNet,
                                  AlgorithmKind::kRandomSearch,
                                  sim::Mode::kHfta, dev, 11);
  const auto hb_serial = run_tuning(Task::kPointNet,
                                    AlgorithmKind::kHyperband,
                                    sim::Mode::kSerial, dev, 11);
  const auto hb_hfta = run_tuning(Task::kPointNet, AlgorithmKind::kHyperband,
                                  sim::Mode::kHfta, dev, 11);
  const double rs_saving = rs_serial.total_gpu_hours / rs_hfta.total_gpu_hours;
  const double hb_saving = hb_serial.total_gpu_hours / hb_hfta.total_gpu_hours;
  EXPECT_GT(rs_saving, hb_saving);
  EXPECT_GT(rs_saving, 2.0);  // paper: up to 5.10x
}

}  // namespace
}  // namespace hfta::hfht
