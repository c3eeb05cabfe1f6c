// HFHT job schedulers (Algorithm 1, lines 7-12): given a batch of trials,
// schedule them under serial / concurrent / MPS / HFTA sharing and account
// the GPU-hours each choice costs (Fig. 8's y-axis). Costs come from the
// accelerator simulator; HFTA partitions by infusible hyper-parameters and
// fuses each partition (capped by device memory).
#pragma once

#include "hfht/algorithms.h"
#include "sim/counters.h"

namespace hfta::hfht {

struct CostReport {
  double gpu_hours = 0;
  int64_t jobs_launched = 0;  // processes (or fused jobs) started
};

/// Iterations per epoch for the tuning tasks (dataset size / batch size,
/// fixed at the paper's defaults).
int64_t iterations_per_epoch(sim::Workload w);

/// Cost of running `trials` (each with its own epoch budget) under the
/// given sharing mode on one device. For HFTA, `space` provides the
/// fusible/infusible split.
CostReport schedule_cost(const std::vector<Trial>& trials,
                         const SearchSpace& space, sim::Workload w,
                         const sim::DeviceSpec& dev, sim::Mode mode);

}  // namespace hfta::hfht
