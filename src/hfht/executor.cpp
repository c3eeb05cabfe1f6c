#include "hfht/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "core/check.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "data/loader.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "nn/optim.h"

namespace hfta::hfht {

namespace {

// Exact (bit-pattern) hash of a parameter set, used to derive each trial's
// deterministic weight-init stream and each group's data-shuffle stream.
uint64_t param_key(const ParamSet& p, uint64_t seed) {
  uint64_t key = seed;
  for (double v : p) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    key = hash_combine(key, bits);
  }
  return key;
}

models::MobileNetV3Config mobilenet_config(const SearchSpace& space,
                                           const ParamSet& p) {
  // A pure function of the ParamSet: the infusible "version" picks V2 vs
  // V3-Large (paper Table 12) and the infusible "width_mult" scales every
  // channel count — two structural axes the congruence check partitions on.
  models::MobileNetV3Config cfg = space.get(p, "version") == 2.0
                                      ? models::MobileNetV3Config::tiny_v2()
                                      : models::MobileNetV3Config::tiny();
  cfg.width_mult = static_cast<float>(space.get(p, "width_mult"));
  return cfg;
}

}  // namespace

// ---- SyntheticExecutor -----------------------------------------------------

SyntheticExecutor::SyntheticExecutor(Task task, sim::Mode scheduler,
                                     sim::DeviceSpec dev)
    : task_(task),
      scheduler_(scheduler),
      dev_(dev),
      space_(task == Task::kPointNet ? SearchSpace::pointnet()
                                     : SearchSpace::mobilenet()),
      workload_(task == Task::kPointNet ? sim::Workload::kPointNetCls
                                        : sim::Workload::kMobileNetV3) {}

ExecutionReport SyntheticExecutor::run(const std::vector<Trial>& batch) {
  ExecutionReport rep;
  rep.cost = schedule_cost(batch, space_, workload_, dev_, scheduler_);
  rep.scores.reserve(batch.size());
  for (const Trial& t : batch)
    rep.scores.push_back(synthetic_accuracy(space_, t.params, t.epochs, task_));
  return rep;
}

// ---- FusedTrainingExecutor -------------------------------------------------

/// One live fused array: the planner-compiled trials of one infusible
/// partition, with the optimizer, the epoch count its shuffle stream is
/// rebuilt at (so rung survivors resume mid-stream), and — under
/// verify_against_serial — the B independently trained twin models the
/// array must match bit-for-bit.
struct FusedTrainingExecutor::Group {
  std::vector<ParamSet> members;  // slot b trains members[b]
  int64_t batch_size = 0;
  // Congruent per-model graph kept as the repack clone template (its weight
  // values are irrelevant — store_model overwrites every survivor clone).
  std::shared_ptr<nn::Module> tmpl;
  std::shared_ptr<fused::FusedArray> array;
  std::unique_ptr<fused::FusedAdam> opt;
  std::unique_ptr<fused::FusedStepLR> sched;  // per-trial StepLR over opt
  int64_t epochs_trained = 0;
  bool ever_repacked = false;
  bool ever_merged = false;  // lineage crossed a chunk boundary
  // Slot state moved into a repacked array: the weights left behind are
  // stale, so retired slots never match a later proposal. A group whose
  // slots all retire is dropped; one left with only killed-trial slots
  // ages out of the bounded live-group cache.
  std::vector<bool> retired;
  // serial verification twins (empty unless verify_against_serial)
  std::vector<std::shared_ptr<nn::Module>> serial;
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  // Step-program staging (TrainStep::stage): per-batch data is copied in
  // place into these so a replayed program — which never re-runs the loss
  // builder — reads current data through its pinned input buffers.
  Tensor staged_x;       // packed fused input [N, B*C, ...]
  Tensor staged_labels;  // fused labels [B, N]
  Tensor staged_serial_x, staged_serial_y;  // twins' shared batch
  // The last loss graphs' logits, held so the serial-verification audit
  // can read them after the step (backward/step never mutates activation
  // values); on replay the underlying pinned buffers are refreshed.
  ag::Variable logits_hold;
  std::vector<ag::Variable> serial_hold;

  int64_t B() const { return static_cast<int64_t>(members.size()); }

  fused::HyperVec hyper(const SearchSpace& space, const char* name) const {
    fused::HyperVec v;
    v.reserve(members.size());
    for (const ParamSet& p : members) v.push_back(space.get(p, name));
    return v;
  }
};

/// One gathered survivor: slot `slot` of live group `group`.
struct FusedTrainingExecutor::Pick {
  size_t group = 0;
  int64_t slot = 0;
};

FusedTrainingExecutor::FusedTrainingExecutor(Task task, sim::DeviceSpec,
                                             Options opts)
    : task_(task),
      opts_(opts),
      space_(task == Task::kPointNet ? SearchSpace::pointnet()
                                     : SearchSpace::mobilenet()),
      rng_(opts.seed) {
  HFTA_CHECK(opts_.max_array_size >= 1,
             "FusedTrainingExecutor: max_array_size must be >= 1, got ",
             opts_.max_array_size);
  HFTA_CHECK(opts_.dataset_size >= 1 && opts_.eval_size >= 1,
             "FusedTrainingExecutor: dataset/eval sizes must be >= 1");
  // Trial steps are captured into replayable step programs: train() stages
  // each batch in place, so after one eager warmup + one capture step per
  // optimizer every iteration runs tape-free. A program lives in its
  // optimizer, so a repack's new optimizer starts cold and captures anew.
  train_step_.enable_capture();
  if (opts_.amp) {
    TrainStep::AmpOptions amp;
    amp.dtype = opts_.amp_dtype;
    // Short rungs + a shared scaler (the serial twins update it too): keep
    // the scale fixed unless an overflow forces a backoff, so fused and
    // serial runs see identical scales at every logical step.
    amp.scaler.growth_interval = 1 << 30;
    train_step_.enable_amp(amp);
  }
  // The held-out scoring batch is fixed for the executor's lifetime.
  std::vector<int64_t> idx(static_cast<size_t>(opts_.eval_size));
  for (int64_t i = 0; i < opts_.eval_size; ++i)
    idx[static_cast<size_t>(i)] = i;
  if (task_ == Task::kPointNet) {
    const models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cloud_ds_ = std::make_unique<data::PointCloudDataset>(
        opts_.dataset_size, cfg.num_points, cfg.num_classes, cfg.num_parts,
        opts_.seed);
    const data::PointCloudDataset eval_ds(opts_.eval_size, cfg.num_points,
                                          cfg.num_classes, cfg.num_parts,
                                          opts_.seed + 1);
    std::tie(eval_x_, eval_y_) = eval_ds.batch_cls(idx);
  } else {
    // Structural widths are shared across versions at the tiny scale, so
    // one image set scores both V2 and V3-Large trials.
    const models::MobileNetV3Config cfg = models::MobileNetV3Config::tiny();
    image_ds_ = std::make_unique<data::ImageDataset>(
        opts_.dataset_size, cfg.image_size, 3, cfg.num_classes, opts_.seed);
    const data::ImageDataset eval_ds(opts_.eval_size, cfg.image_size, 3,
                                     cfg.num_classes, opts_.seed + 1);
    std::tie(eval_x_, eval_y_) = eval_ds.batch(idx);
  }
}

FusedTrainingExecutor::~FusedTrainingExecutor() = default;

std::shared_ptr<nn::Module> FusedTrainingExecutor::build_trial_net(
    const ParamSet& p) const {
  Rng donor_rng(param_key(p, opts_.seed ^ 0xD0));
  // Each model's Sequential graph is the per-model tree (the PointNetCls
  // and MobileNetV3 wrappers only forward to it).
  if (task_ == Task::kPointNet) {
    models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cfg.input_transform = space_.get(p, "feature_transform") != 0.0;
    return models::PointNetCls(cfg, donor_rng).net;
  }
  return models::MobileNetV3(mobilenet_config(space_, p), donor_rng).net;
}

std::pair<Tensor, Tensor> FusedTrainingExecutor::train_batch(
    const std::vector<int64_t>& idx) const {
  return task_ == Task::kPointNet ? cloud_ds_->batch_cls(idx)
                                  : image_ds_->batch(idx);
}

data::BatchSampler FusedTrainingExecutor::make_sampler(const Group& g) const {
  // The shuffle stream is a pure function of the partition's infusible
  // values, so it is rebuilt and fast-forwarded to the group's epoch count
  // whenever the group trains — a repacked group, whose sources all sat at
  // the same epoch of the same stream, draws the exact batches the serial
  // reruns do without any sampler being kept or moved.
  std::vector<double> inf_vals;
  for (size_t i : space_.infusible_indices())
    inf_vals.push_back(g.members[0][i]);
  const int64_t ds_size =
      task_ == Task::kPointNet ? cloud_ds_->size() : image_ds_->size();
  data::BatchSampler s(ds_size, g.batch_size, /*shuffle=*/true,
                       param_key(inf_vals, opts_.seed ^ 0xDA7A));
  for (int64_t e = 0; e < g.epochs_trained; ++e) s.epoch();  // fast-forward
  return s;
}

void FusedTrainingExecutor::make_optimizer(Group& g) const {
  const int64_t B = g.B();
  g.opt = std::make_unique<fused::FusedAdam>(
      fused::collect_fused_parameters(*g.array, B), B,
      fused::FusedAdam::Options{g.hyper(space_, "lr"),
                                g.hyper(space_, "adam_beta1"),
                                g.hyper(space_, "adam_beta2"),
                                {1e-8},
                                g.hyper(space_, "weight_decay")});
  // The decay periods are integers, so the scheduler's integer epoch
  // division is exactly floor(epoch / period).
  std::vector<int64_t> period;
  for (double p : g.hyper(space_, "lr_decay_period"))
    period.push_back(static_cast<int64_t>(p));
  g.sched = std::make_unique<fused::FusedStepLR>(
      *g.opt, std::move(period), g.hyper(space_, "lr_decay_factor"));
}

FusedTrainingExecutor::Group* FusedTrainingExecutor::repack_groups(
    const std::vector<ParamSet>& members, const std::vector<Pick>& picks,
    int64_t src_epochs) {
  // Unique source groups in first-appearance order; picks re-indexed onto
  // them so FusionPlan::repack_multi and the optimizer gather agree.
  std::vector<size_t> gidx;
  std::vector<fused::RepackPick> rp;
  rp.reserve(picks.size());
  for (const Pick& p : picks) {
    size_t si = gidx.size();
    for (size_t i = 0; i < gidx.size(); ++i)
      if (gidx[i] == p.group) {
        si = i;
        break;
      }
    if (si == gidx.size()) gidx.push_back(p.group);
    rp.push_back(fused::RepackPick{si, p.slot});
  }

  const int64_t newB = static_cast<int64_t>(members.size());
  fused::FusionOptions fopts;
  fopts.output_layout = fused::Layout::kModelMajor;
  const fused::FusionPlan plan(newB, fopts);
  std::vector<const fused::FusedArray*> arrays;
  std::vector<const fused::FusedOptimizer*> opt_srcs;
  for (size_t gi : gidx) {
    arrays.push_back(groups_[gi]->array.get());
    opt_srcs.push_back(groups_[gi]->opt.get());
  }

  auto merged = std::make_unique<Group>();
  merged->members = members;
  merged->batch_size = groups_[gidx[0]]->batch_size;
  merged->tmpl = groups_[gidx[0]]->tmpl;
  merged->array = plan.repack_multi(arrays, rp, *merged->tmpl, rng_);
  make_optimizer(*merged);
  merged->opt->repack_state_from(opt_srcs, rp);
  merged->epochs_trained = src_epochs;
  merged->ever_repacked = true;
  merged->ever_merged = gidx.size() > 1;
  for (size_t gi : gidx) merged->ever_merged |= groups_[gi]->ever_merged;
  merged->retired.assign(static_cast<size_t>(newB), false);
  // A source group keeps a retired slot from now on, so it never again
  // trains in place, and a moved twin's program reads the source group's
  // staged buffers, which stop being updated. Free every source program:
  // the twins recapture under the merged group's staging.
  for (size_t gi : gidx) {
    groups_[gi]->opt->release_program();
    for (const auto& so : groups_[gi]->serial_opts)
      if (so != nullptr) so->release_program();
  }
  for (const Pick& p : picks) {
    Group& src = *groups_[p.group];
    src.retired[static_cast<size_t>(p.slot)] = true;
    if (!src.serial.empty()) {
      merged->serial.push_back(
          std::move(src.serial[static_cast<size_t>(p.slot)]));
      merged->serial_opts.push_back(
          std::move(src.serial_opts[static_cast<size_t>(p.slot)]));
    }
  }
  ++repacked_;
  if (gidx.size() > 1) {
    ++multi_repacked_;
    arrays_merged_ += static_cast<int64_t>(gidx.size());
  }
  // Fully consumed sources can never match a later proposal; free them,
  // and hand their parked storage back to the OS — a halving boundary is
  // exactly where the working set shrinks, so without the trim the pool
  // would pin the union of every retired array's peak for the process
  // lifetime. The live arrays re-warm the pool within one iteration.
  const size_t before = groups_.size();
  const auto fully_retired = [](const std::unique_ptr<Group>& g) {
    return !g->retired.empty() &&
           std::all_of(g->retired.begin(), g->retired.end(),
                       [](bool r) { return r; });
  };
  groups_.erase(std::remove_if(groups_.begin(), groups_.end(), fully_retired),
                groups_.end());
  if (groups_.size() != before) StoragePool::instance().trim();
  groups_.push_back(std::move(merged));
  return groups_.back().get();
}

FusedTrainingExecutor::Group* FusedTrainingExecutor::find_or_create(
    const std::vector<ParamSet>& members, int64_t epoch_budget) {
  // Gather the requested members across ALL live arrays, not just one:
  // slot-injective (duplicate parameter sets map to distinct slots),
  // skipping retired slots, with every source pinned to one shared
  // epochs_trained <= budget (survivors of one rung trained equally).
  // Epoch counts are tried from most-trained down, so the gather always
  // continues the furthest-progressed copies.
  std::set<int64_t, std::greater<int64_t>> epoch_candidates;
  for (const auto& gp : groups_)
    if (gp->epochs_trained <= epoch_budget)
      epoch_candidates.insert(gp->epochs_trained);

  for (int64_t src_epochs : epoch_candidates) {
    std::vector<Pick> picks;
    auto taken = [&](size_t gi, int64_t slot) {
      for (const Pick& p : picks)
        if (p.group == gi && p.slot == slot) return true;
      return false;
    };
    for (const ParamSet& want : members) {
      bool found = false;
      for (size_t gi = 0; gi < groups_.size() && !found; ++gi) {
        Group& g = *groups_[gi];
        if (g.epochs_trained != src_epochs) continue;
        for (int64_t s = 0; s < g.B(); ++s) {
          if (g.retired[static_cast<size_t>(s)] || taken(gi, s)) continue;
          if (g.members[static_cast<size_t>(s)] == want) {
            picks.push_back(Pick{gi, s});
            found = true;
            break;
          }
        }
      }
      if (!found) {
        picks.clear();
        break;
      }
    }
    if (picks.empty()) continue;

    // Identity — one group, same order, full size: continue in place.
    const size_t gi0 = picks[0].group;
    bool identity = groups_[gi0]->B() == static_cast<int64_t>(members.size());
    for (size_t j = 0; identity && j < picks.size(); ++j)
      identity =
          picks[j].group == gi0 && picks[j].slot == static_cast<int64_t>(j);
    if (identity) return groups_[gi0].get();

    // Halving boundary: gather the survivors — possibly from several
    // chunked arrays — into one fresh array and continue.
    return repack_groups(members, picks, src_epochs);
  }

  // Fresh partition: build one congruent per-model graph per trial (each
  // trial's weight init is a pure function of its parameter set, so serial
  // reruns reproduce it) and compile them into a fused array.
  auto g = std::make_unique<Group>();
  g->members = members;
  g->batch_size = static_cast<int64_t>(space_.get(members[0], "batch_size"));
  const int64_t ds_size =
      task_ == Task::kPointNet ? cloud_ds_->size() : image_ds_->size();
  HFTA_CHECK(g->batch_size >= 1 && g->batch_size <= ds_size,
             "FusedTrainingExecutor: batch size ", g->batch_size,
             " does not fit the dataset (", ds_size, " samples)");
  const int64_t B = g->B();
  std::vector<std::shared_ptr<nn::Module>> nets;
  nets.reserve(members.size());
  for (const ParamSet& p : members) nets.push_back(build_trial_net(p));
  g->tmpl = nets[0];  // doubles as the future repack clone template
  fused::FusionOptions fopts;
  fopts.output_layout = fused::Layout::kModelMajor;
  g->array = fused::FusionPlan(B, fopts).compile(nets, rng_);
  make_optimizer(*g);
  g->retired.assign(static_cast<size_t>(B), false);
  if (opts_.verify_against_serial) {
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      g->serial.push_back(nets[ub]);
      g->serial_opts.push_back(std::make_unique<nn::Adam>(
          nets[ub]->parameters(),
          nn::Adam::Options{space_.get(members[ub], "lr"),
                            space_.get(members[ub], "adam_beta1"),
                            space_.get(members[ub], "adam_beta2"),
                            1e-8,
                            space_.get(members[ub], "weight_decay")}));
    }
  }
  ++compiled_;
  groups_.push_back(std::move(g));
  // Bound the live-array cache: fresh brackets sample fresh parameter sets,
  // so the oldest groups can never be continued and are safe to drop. The
  // cap comfortably exceeds the chunks of any single proposal round.
  constexpr size_t kMaxLiveGroups = 64;
  if (groups_.size() > kMaxLiveGroups) {
    groups_.erase(groups_.begin());
    StoragePool::instance().trim();  // the evicted array's storage with it
  }
  return groups_.back().get();
}

void FusedTrainingExecutor::train(Group& g, int64_t delta_epochs,
                                  CostReport& cost) {
  using Clock = std::chrono::steady_clock;
  data::BatchSampler sampler = make_sampler(g);
  const int64_t B = g.B();
  const int64_t N = g.batch_size;
  // The bill's clock: batch build + staging + the fused step, never the
  // serial verification twins or their audit.
  Clock::duration fused_time{0};
  for (int64_t e = 0; e < delta_epochs; ++e) {
    // Per-trial StepLR, computed once in double and fed to both the fused
    // lr vector and the serial twins so the float paths are identical.
    const fused::HyperVec lrs = g.sched->lr_at(g.epochs_trained + e);
    g.opt->set_lr(lrs);
    for (size_t b = 0; b < g.serial_opts.size(); ++b)
      g.serial_opts[b]->set_lr({lrs[b]});

    for (const auto& bidx : sampler.epoch()) {
      const Clock::time_point t0 = Clock::now();
      auto [x, y] = train_batch(bidx);
      std::vector<Tensor> xs(static_cast<size_t>(B), x);
      Tensor labels({B, N});
      for (int64_t b = 0; b < B; ++b)
        for (int64_t n = 0; n < N; ++n) labels.at({b, n}) = y.at({n});
      // Stage the batch in place: a captured program replays without
      // calling the loss builder, reading this data through its pinned
      // input buffers.
      train_step_.stage(&g.staged_x, fused::pack_channel_fused(xs));
      train_step_.stage(&g.staged_labels, labels);
      train_step_.run(*g.opt, [&] {
        ag::Variable logits = g.array->forward(ag::Variable(g.staged_x));
        g.logits_hold = logits;
        // Per-model mean CE: the gradients match the B serial kMean runs
        // bit for bit (loss_scaling.h).
        return fused::fused_cross_entropy(logits, g.staged_labels,
                                          ag::Reduction::kMean);
      });
      fused_time += Clock::now() - t0;
      // Only the serial-verification audit reads the per-model losses —
      // skip the extra softmax pass on plain tuning runs. Runs after the
      // step (not inside the loss builder, which replay skips): the logits
      // values it reads are untouched by backward/step, and a replay has
      // refreshed logits_hold's pinned buffer.
      std::vector<double> fused_losses;
      if (!g.serial.empty())
        fused_losses = fused::per_model_cross_entropy(g.logits_hold.value(),
                                                      g.staged_labels);

      if (!g.serial.empty()) {
        train_step_.stage(&g.staged_serial_x, x);
        train_step_.stage(&g.staged_serial_y, y);
        g.serial_hold.resize(g.serial.size());
      }
      for (size_t b = 0; b < g.serial.size(); ++b) {
        train_step_.run(*g.serial_opts[b], [&] {
          ag::Variable sl =
              g.serial[b]->forward(ag::Variable(g.staged_serial_x));
          g.serial_hold[b] = sl;
          return ag::cross_entropy(sl, g.staged_serial_y,
                                   ag::Reduction::kMean);
        });
        // Same per-model reduction routine on both sides: the comparison
        // detects logits drift, not reduction-order noise.
        const Tensor& slv = g.serial_hold[b].value();
        const double serial_loss = fused::per_model_cross_entropy(
            slv.reshape({1, N, slv.size(1)}),
            g.staged_serial_y.reshape({1, N}))[0];
        max_diff_ = std::max(max_diff_,
                             std::fabs(fused_losses[b] - serial_loss));
        if (g.ever_repacked) ++post_repack_verified_;
        if (g.ever_merged) ++post_merge_verified_;
      }
    }
  }
  if (delta_epochs > 0) {
    // Every pool lane is billed for the whole step, as a GPU-hour bills the
    // whole device however little of it one job uses.
    cost.device_hours += std::chrono::duration<double>(fused_time).count() *
                         num_threads() / 3600.0;
    ++cost.jobs_launched;
  }
  g.epochs_trained += delta_epochs;
}

std::vector<double> FusedTrainingExecutor::score(Group& g) {
  // Held-out score on the fixed eval batch: per-model CE mapped to
  // 1/(1+loss) so higher is better and values live in (0, 1].
  const int64_t B = g.B();
  const int64_t N = eval_x_.size(0);
  std::vector<Tensor> xs(static_cast<size_t>(B), eval_x_);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n) labels.at({b, n}) = eval_y_.at({n});
  g.array->eval();
  ag::Variable logits =
      g.array->forward(ag::Variable(fused::pack_channel_fused(xs)));
  g.array->train();
  std::vector<double> losses =
      fused::per_model_cross_entropy(logits.value(), labels);
  std::vector<double> scores;
  scores.reserve(losses.size());
  for (double l : losses) scores.push_back(1.0 / (1.0 + l));
  return scores;
}

ExecutionReport FusedTrainingExecutor::run(const std::vector<Trial>& batch) {
  ExecutionReport rep;
  rep.scores.assign(batch.size(), 0.0);
  if (batch.empty()) return rep;
  std::vector<ParamSet> sets;
  sets.reserve(batch.size());
  for (const Trial& t : batch) sets.push_back(t.params);
  const auto partitions = partition_by_infusible(space_, sets);
  for (const auto& part : partitions) {
    // Chunk oversized partitions (stand-in for the device-memory cap).
    for (size_t start = 0; start < part.size();) {
      const size_t n = std::min<size_t>(
          static_cast<size_t>(opts_.max_array_size), part.size() - start);
      std::vector<size_t> chunk(part.begin() + start, part.begin() + start + n);
      start += n;
      const int64_t epochs = batch[chunk[0]].epochs;
      std::vector<ParamSet> members;
      members.reserve(chunk.size());
      for (size_t i : chunk) {
        HFTA_CHECK(batch[i].epochs == epochs,
                   "FusedTrainingExecutor: mixed epoch budgets in one batch");
        members.push_back(batch[i].params);
      }
      Group* g = find_or_create(members, epochs);
      if (epochs > g->epochs_trained)
        train(*g, epochs - g->epochs_trained, rep.cost);
      const std::vector<double> s = score(*g);
      for (size_t j = 0; j < chunk.size(); ++j) rep.scores[chunk[j]] = s[j];
    }
  }
  return rep;
}

}  // namespace hfta::hfht
