// The benchmark's workloads. Each one trains B per-model jobs of one paper
// model two ways on identical seeded inputs: as one fused array (the HFTA
// way) and as B serial models (the paper's baseline), and audits that the
// two produce the same bits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hfta/train.h"
#include "sim/workloads.h"

namespace bench {

/// What a workload runs; recorded with every result.
struct WorkloadInfo {
  std::string name;
  int64_t B = 0;                // models per fused array
  int64_t N = 0;                // per-model batch size
  std::string dtype = "f32";    // "f16" = f16 autocast + dynamic loss scaling
  int64_t steps_per_side = 0;   // K: steps each side takes per timed slice
  hfta::sim::Workload sim = hfta::sim::Workload::kPointNetCls;
};

/// B per-model training jobs of one model, held two ways: a fused array
/// driven by one TrainStep, and B serial models sharing a second TrainStep.
/// The constructor builds both from the seed; nothing is warm yet.
class Trainer {
 public:
  virtual ~Trainer() = default;

  /// One fresh fused set-up, destroyed on return: B per-model graphs,
  /// FusionPlan::compile, the fused optimizer, the eager warm-up step and,
  /// when the workload replays, the capture step; then `extra_steps` more.
  virtual void fused_setup_probe(int extra_steps) = 0;
  /// The serial counterpart, for memory: B fresh models and optimizers,
  /// each taking the warm-up (and capture) step and one more, destroyed on
  /// return.
  virtual void serial_setup_probe() = 0;

  /// The next fused step (batch staging + TrainStep::run).
  virtual void fused_step() = 0;
  /// The next step of serial model b.
  virtual void serial_step(int64_t b) = 0;
  /// Fused-vs-serial audit, valid when both sides took the same steps:
  /// every model's logits are bitwise equal and every loss is finite.
  virtual bool audit() const = 0;
  /// Per-model losses of each side's last step (one routine for both).
  virtual std::vector<double> losses(bool fused) const = 0;

  /// One eager fused step assembled by the benchmark from public calls,
  /// with a span per layer under the root "train.eager_step". With `check`,
  /// the assembled forward is first compared bit for bit with the library's
  /// own forward; returns false on a mismatch.
  virtual bool traced_eager_step(bool check) = 0;
  /// One eager step of every serial model, spans under "serial.round".
  virtual void traced_serial_round() = 0;

  /// Whether fused steps replay a captured step program (false = eager).
  virtual bool replays() const = 0;
  virtual hfta::TrainStep& fused_train_step() = 0;
};

/// What the harness times: paired fused and serial slices over one Trainer.
class Workload {
 public:
  Workload(WorkloadInfo info, std::unique_ptr<Trainer> trainer)
      : info_(std::move(info)), trainer_(std::move(trainer)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const WorkloadInfo& info() const { return info_; }
  Trainer& trainer() { return *trainer_; }

  /// Per-model training samples one slice processes (the same on both
  /// sides).
  virtual double samples_per_slice() {
    return static_cast<double>(info_.B * info_.N * info_.steps_per_side);
  }
  /// K fused steps.
  virtual void fused_slice() {
    for (int64_t k = 0; k < info_.steps_per_side; ++k) trainer_->fused_step();
  }
  /// K steps of each serial model, one model after the other.
  virtual void serial_slice() {
    for (int64_t b = 0; b < info_.B; ++b)
      for (int64_t k = 0; k < info_.steps_per_side; ++k)
        trainer_->serial_step(b);
  }
  virtual bool audit() { return trainer_->audit(); }
  /// Report-only per-model values after a fixed number of slices.
  virtual std::vector<double> final_values(bool fused) {
    return trainer_->losses(fused);
  }
  /// Workload-specific per-layer metrics of the traced run.
  virtual void traced_extra(std::map<std::string, double>* /*metrics*/) {}

 private:
  WorkloadInfo info_;
  std::unique_ptr<Trainer> trainer_;
};

/// The workload names, in the order the benchmark declares them.
const std::vector<std::string>& workload_names();

/// Builds a workload by name; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);

}  // namespace bench
