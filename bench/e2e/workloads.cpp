#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/datasets.h"
#include "hfht/algorithms.h"
#include "hfht/executor.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/dcgan.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/optim.h"
#include "sim/device.h"
#include "trace.h"

namespace bench {

using namespace hfta;

namespace {

// Pre-generated batches per workload; step s trains on batch s mod 8, so
// data generation stays out of the timed steps.
constexpr int64_t kBatches = 8;

// Per-model learning rates 1e-3 * 2^(b - B/2): B distinct jobs of one
// hyper-parameter sweep, as in the paper's HFHT use case.
double lr_for(int64_t b, int64_t B) {
  return 1e-3 * std::ldexp(1.0, static_cast<int>(b - B / 2));
}

fused::HyperVec lrs_for(int64_t B) {
  fused::HyperVec v;
  for (int64_t b = 0; b < B; ++b) v.push_back(lr_for(b, B));
  return v;
}

bool same_bits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         same_bits(a.data(), b.data(), a.numel());
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return !v.empty();
}

std::string kind_span(const std::string& kind) {
  const std::string prefix = "models::";
  return "fwd." + (kind.compare(0, prefix.size(), prefix) == 0
                       ? kind.substr(prefix.size())
                       : kind);
}

// FusedArray::forward re-assembled from the array's public steps, with a
// span per lowered step ("fwd.<kind>") and per layout conversion.
ag::Variable traced_forward(const fused::FusedArray& a, ag::Variable h) {
  using fused::Layout;
  Layout cur = Layout::kChannelFused;
  auto convert_to = [&](Layout want) {
    if (want == Layout::kAny || want == cur) return;
    Span s("fwd.layout");
    h = want == Layout::kModelMajor ? fused::to_model_major(h, a.array_size())
                                    : fused::to_channel_fused(h);
    cur = want;
  };
  for (const fused::FusedArray::Step& st : a.steps()) {
    convert_to(st.in);
    {
      Span s(kind_span(st.kind));
      h = st.module->forward(h);
    }
    if (st.out != Layout::kAny) cur = st.out;
  }
  convert_to(a.output_layout());
  return h;
}

std::vector<ag::Variable> params_of(const fused::FusedOptimizer& opt) {
  std::vector<ag::Variable> out;
  for (const fused::FusedParam& p : opt.fused_params()) out.push_back(p.var);
  return out;
}

std::vector<ag::Variable> params_of(const nn::Optimizer& opt) {
  return opt.params();
}

// Backward seed of an assembled eager step: the loss scale under AMP (as
// TrainStep seeds it), ones otherwise.
Tensor seed_for(TrainStep& ts) {
  if (!ts.amp_enabled()) return Tensor();
  return Tensor::full(Shape{}, static_cast<float>(ts.scaler().scale()));
}

// Optimizer step of an assembled eager step. Under AMP it follows
// TrainStep's contract with public calls: a finiteness scan of the
// unscaled gradients (TrainStep's own scan is private; this one reads the
// same values), step(1/S) when clean, and the scaler update either way.
template <typename Opt>
void optimizer_step(Opt& opt, TrainStep& ts) {
  if (!ts.amp_enabled()) {
    opt.step();
    return;
  }
  const double inv = 1.0 / ts.scaler().scale();
  const float finv = static_cast<float>(inv);
  bool finite = true;
  for (ag::Variable v : params_of(opt)) {
    const Tensor& g = v.grad();
    if (!g.defined()) continue;
    const float* p = g.data();
    for (int64_t i = 0; i < g.numel(); ++i)
      finite = finite && std::isfinite(p[i] * finv);
  }
  if (finite) opt.step(inv);
  ts.scaler().update(!finite);
}

// ---- classifiers: PointNet, ResNet-18, Transformer LM ---------------------

enum class Model { kPointNet, kResNet, kTransformer };

// B classifiers of one model kind trained with capture + replay (and f16
// autocast when `amp`). The fused array is planner-compiled from the same
// per-model graphs the serial side then trains, so both start from the
// same weights. Losses are per-model means over `rows` predictions; the
// fused loss is built as (1/rows) * sum so its backward scales every row by
// the same float the serial mean uses (bit-exact for any B and rows).
class ClassifierTrainer : public Trainer {
 public:
  ClassifierTrainer(Model model, int64_t B, int64_t N, bool amp,
                    uint64_t seed)
      : model_(model), B_(B), N_(N), amp_(amp), seed_(seed) {
    make_batches();
    std::vector<std::shared_ptr<nn::Module>> nets = make_nets();
    fused_ = make_fused(nets);
    serial_ = make_serial(std::move(nets));
  }

  void fused_setup_probe(int extra_steps) override {
    std::vector<std::shared_ptr<nn::Module>> nets;
    {
      Span s("setup.graphs");
      nets = make_nets();
    }
    std::unique_ptr<Fused> f = make_fused(nets);
    {
      Span s("train.warmup");
      run_fused(*f);
    }
    {
      Span s("train.capture");
      run_fused(*f);
    }
    for (int i = 0; i < extra_steps; ++i) run_fused(*f);
  }

  void serial_setup_probe() override {
    std::unique_ptr<Serial> s = make_serial(make_nets());
    for (int64_t b = 0; b < B_; ++b)
      for (int i = 0; i < 3; ++i) run_serial(*s, b);  // warm-up, capture, +1
  }

  void fused_step() override { run_fused(*fused_); }
  void serial_step(int64_t b) override { run_serial(*serial_, b); }

  bool audit() const override {
    const Fused& f = *fused_;
    const Serial& s = *serial_;
    if (f.steps == 0) return false;
    const int64_t block = rows_ * classes_;
    const Tensor& fl = f.logits.value();
    if (fl.numel() != B_ * block) return false;
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      if (s.steps[ub] != f.steps) return false;
      const Tensor& sl = s.logits[ub].value();
      if (sl.numel() != block ||
          !same_bits(fl.data() + b * block, sl.data(), block))
        return false;
    }
    return all_finite(losses(true)) && all_finite(losses(false));
  }

  std::vector<double> losses(bool fused) const override {
    if (fused) {
      const Fused& f = *fused_;
      if (f.steps == 0) return {};
      return fused::per_model_cross_entropy(
          f.logits.value(), batches_[last(f.steps)].fused_y);
    }
    const Serial& s = *serial_;
    std::vector<double> out;
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      if (s.steps[ub] == 0) return {};
      out.push_back(fused::per_model_cross_entropy(
          s.logits[ub].value().reshape({1, rows_, classes_}),
          batches_[last(s.steps[ub])].y.reshape({1, rows_}))[0]);
    }
    return out;
  }

  bool traced_eager_step(bool check) override {
    Fused& f = *fused_;
    const Batch& bt = batches_[f.steps % kBatches];
    f.step.stage(&f.x, bt.fused_x);
    f.step.stage(&f.labels, bt.fused_y);
    const DType cast = amp_ ? DType::kF16 : DType::kF32;
    Tensor ref;
    if (check) {
      ag::AutocastGuard guard(cast);
      ref = library_logits(f, bt).value();
    }
    Span root("train.eager_step");
    {
      Span s("optim.zero_grad");
      f.opt->zero_grad();
    }
    ag::Variable logits, loss;
    {
      ag::AutocastGuard guard(cast);
      {
        Span s("fwd.total");
        logits = fused_logits(f, /*traced=*/true);
      }
      Span s("loss.fwd");
      loss = fused_loss(logits, f.labels);
    }
    {
      Span s("autograd.backward");
      f.step.backward(loss, seed_for(f.step));
    }
    {
      Span s("optim.step");
      optimizer_step(*f.opt, f.step);
    }
    f.logits = logits;
    ++f.steps;
    return !check || same_bits(ref, logits.value());
  }

  void traced_serial_round() override {
    Serial& s = *serial_;
    const DType cast = amp_ ? DType::kF16 : DType::kF32;
    Span root("serial.round");
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      const Batch& bt = batches_[s.steps[ub] % kBatches];
      {
        Span sp("data.stage");
        s.step.stage(&s.x, bt.x);
        s.step.stage(&s.y, bt.y);
      }
      {
        Span sp("optim.serial_zero_grad");
        s.opts[ub]->zero_grad();
      }
      ag::Variable loss;
      {
        ag::AutocastGuard guard(cast);
        Span sp("serial.fwd");
        s.logits[ub] = serial_logits(s, b);
        loss = ag::cross_entropy(s.logits[ub], s.y, ag::Reduction::kMean);
      }
      {
        Span sp("serial.backward");
        s.step.backward(loss, seed_for(s.step));
      }
      {
        Span sp("optim.serial_step");
        optimizer_step(*s.opts[ub], s.step);
      }
      ++s.steps[ub];
    }
  }

  bool replays() const override { return true; }
  TrainStep& fused_train_step() override { return fused_->step; }

 private:
  struct Batch {
    Tensor fused_x, fused_y;  // the array's packed inputs, labels [B, rows]
    Tensor x, y;              // one model's inputs, labels [rows]
    Tensor fused_tokens;      // Transformer: packed ids before the offset
  };
  struct Fused {
    std::shared_ptr<fused::FusedArray> array;
    std::unique_ptr<fused::FusedAdam> opt;
    TrainStep step;
    Tensor x, labels;     // staged: the captured program reads these
    ag::Variable logits;  // last step's [B, rows, classes]; pinned on replay
    int64_t steps = 0;
  };
  struct Serial {
    std::vector<std::shared_ptr<nn::Module>> nets;
    std::vector<std::unique_ptr<nn::Adam>> opts;
    TrainStep step;  // shared by the B models, as B jobs on one host
    Tensor x, y;
    std::vector<ag::Variable> logits;  // per model [rows, classes]
    std::vector<int64_t> steps;
  };

  static size_t last(int64_t steps) {
    return static_cast<size_t>((steps - 1) % kBatches);
  }

  void make_batches() {
    auto add = [&](const Tensor& x, const Tensor& y) {
      Batch bt;
      const std::vector<Tensor> xs(static_cast<size_t>(B_), x);
      const std::vector<Tensor> ys(static_cast<size_t>(B_), y);
      if (model_ == Model::kTransformer) {
        // Model b's ids index block b of the stacked embedding table (see
        // lm_forward for why the offset is applied here).
        bt.fused_tokens = fused::pack_model_major(xs);
        bt.fused_x = bt.fused_tokens.clone();
        const int64_t per_model = x.numel();
        for (int64_t b = 0; b < B_; ++b)
          for (int64_t i = 0; i < per_model; ++i)
            bt.fused_x.data()[b * per_model + i] +=
                static_cast<float>(b * classes_);
      } else {
        bt.fused_x = fused::pack_channel_fused(xs);
      }
      bt.fused_y = fused::pack_model_major(ys);
      bt.x = x;
      bt.y = y;
      batches_.push_back(bt);
    };
    std::vector<int64_t> idx(static_cast<size_t>(N_));
    auto indices = [&](int64_t i) {
      for (int64_t n = 0; n < N_; ++n) idx[static_cast<size_t>(n)] = i * N_ + n;
      return idx;
    };
    const uint64_t data_seed = seed_ ^ 0xDA7Aull;
    switch (model_) {
      case Model::kPointNet: {
        const models::PointNetConfig cfg = models::PointNetConfig::tiny();
        rows_ = N_;
        classes_ = cfg.num_classes;
        const data::PointCloudDataset ds(kBatches * N_, cfg.num_points,
                                         cfg.num_classes, cfg.num_parts,
                                         data_seed);
        for (int64_t i = 0; i < kBatches; ++i) {
          auto [x, y] = ds.batch_cls(indices(i));
          add(x, y);
        }
        break;
      }
      case Model::kResNet: {
        const models::ResNetConfig cfg = models::ResNetConfig::tiny();
        rows_ = N_;
        classes_ = cfg.num_classes;
        const data::ImageDataset ds(kBatches * N_, cfg.image_size,
                                    cfg.in_channels, cfg.num_classes,
                                    data_seed);
        for (int64_t i = 0; i < kBatches; ++i) {
          auto [x, y] = ds.batch(indices(i));
          add(x, y);
        }
        break;
      }
      case Model::kTransformer: {
        const models::TransformerConfig cfg =
            models::TransformerConfig::tiny();
        const int64_t S = cfg.seq_len;
        rows_ = N_ * S;
        classes_ = cfg.vocab;
        const data::TextDataset ds(kBatches * N_ * S + S + 2, cfg.vocab,
                                   data_seed);
        for (int64_t i = 0; i < kBatches; ++i) {
          auto [x, y] = ds.batch_lm(N_, S, i * N_ * S);
          add(x, y.reshape({rows_}));
        }
        break;
      }
    }
  }

  std::vector<std::shared_ptr<nn::Module>> make_nets() const {
    Rng rng(seed_ ^ 0x4E455453ull);
    std::vector<std::shared_ptr<nn::Module>> nets;
    for (int64_t b = 0; b < B_; ++b) {
      switch (model_) {
        case Model::kPointNet:
          nets.push_back(
              models::PointNetCls(models::PointNetConfig::tiny(), rng).net);
          break;
        case Model::kResNet:
          nets.push_back(
              models::ResNet18(models::ResNetConfig::tiny(), rng).net);
          break;
        case Model::kTransformer:
          nets.push_back(std::make_shared<models::TransformerLM>(
              models::TransformerConfig::tiny(), rng));
          break;
      }
    }
    return nets;
  }

  void configure(TrainStep& ts) const {
    ts.enable_capture();
    if (amp_) {
      TrainStep::AmpOptions ao;
      ao.dtype = DType::kF16;
      ts.enable_amp(ao);
    }
  }

  std::unique_ptr<Fused> make_fused(
      const std::vector<std::shared_ptr<nn::Module>>& nets) const {
    auto f = std::make_unique<Fused>();
    fused::FusionOptions opts;
    opts.output_layout = fused::Layout::kModelMajor;
    Rng rng(seed_ ^ 0xF5EDull);
    {
      Span s("fusion.compile");
      f->array = fused::FusionPlan(B_, opts).compile(nets, rng);
    }
    {
      Span s("setup.optimizer");
      fused::FusedAdam::Options o;
      o.lr = lrs_for(B_);
      f->opt = std::make_unique<fused::FusedAdam>(
          fused::collect_fused_parameters(*f->array, B_), B_, o);
    }
    configure(f->step);
    return f;
  }

  std::unique_ptr<Serial> make_serial(
      std::vector<std::shared_ptr<nn::Module>> nets) const {
    auto s = std::make_unique<Serial>();
    s->nets = std::move(nets);
    for (int64_t b = 0; b < B_; ++b) {
      nn::Adam::Options o;
      o.lr = lr_for(b, B_);
      s->opts.push_back(std::make_unique<nn::Adam>(
          s->nets[static_cast<size_t>(b)]->parameters(), o));
    }
    s->logits.resize(static_cast<size_t>(B_));
    s->steps.assign(static_cast<size_t>(B_), 0);
    configure(s->step);
    return s;
  }

  // Fused logits [B, rows, classes] from the staged inputs. The traced
  // variant spans every lowered step.
  ag::Variable fused_logits(Fused& f, bool traced) const {
    if (model_ == Model::kTransformer)
      return ag::reshape(lm_forward(fused_lm(f), f.x), {B_, rows_, classes_});
    return traced ? traced_forward(*f.array, ag::Variable(f.x))
                  : f.array->forward(ag::Variable(f.x));
  }

  // The library's own fused forward, for the traced run's bit-for-bit check.
  ag::Variable library_logits(Fused& f, const Batch& bt) const {
    if (model_ != Model::kTransformer)
      return f.array->forward(ag::Variable(f.x));
    return ag::reshape(fused_lm(f).forward_tokens(bt.fused_tokens),
                       {B_, rows_, classes_});
  }

  // The Transformer LM lowers to a single array step driven through
  // forward_tokens.
  static models::FusedTransformerLM& fused_lm(Fused& f) {
    return static_cast<models::FusedTransformerLM&>(
        *f.array->steps()[0].module);
  }

  // FusedTransformerLM::forward_tokens re-assembled from the fused LM's
  // public members, with a span per layer, and with one difference: `ids`
  // already carry the per-model offset into the stacked embedding table.
  // FusedEmbedding::lookup applies that offset to a private copy of the ids
  // outside any recorded op, so a replayed step program would keep reading
  // the ids of its capture step; staging pre-offset ids in place lets each
  // replay read its own batch. Bit-identical to forward_tokens (the traced
  // run checks it).
  ag::Variable lm_forward(models::FusedTransformerLM& lm,
                          const Tensor& ids) const {
    const int64_t N = ids.size(1), S = ids.size(2);
    const int64_t E = lm.cfg.embed_dim;
    ag::Variable h;
    Tensor mask;
    {
      Span s("fwd.Embedding");
      h = ag::embedding(ids, lm.embed->weight);
      h = ag::mul_scalar(h, std::sqrt(static_cast<float>(E)));
      const Tensor pe = models::sinusoidal_positions(S, E);
      h = ag::add(h, ag::constant(pe.reshape({1, 1, S, E})));
      mask = models::causal_mask(S);
    }
    for (auto& layer : lm.layers) {
      Span s("fwd.TransformerEncoderLayer");
      h = layer->forward_masked(h, mask);
    }
    {
      Span s("fwd.layout");
      h = ag::reshape(h, {B_, N * S, E});
    }
    {
      Span s("fwd.Linear");
      h = lm.decoder->forward(h);
    }
    Span s("fwd.layout");
    return ag::reshape(h, {B_, N, S, lm.cfg.vocab});
  }

  ag::Variable serial_logits(Serial& s, int64_t b) const {
    nn::Module& net = *s.nets[static_cast<size_t>(b)];
    if (model_ != Model::kTransformer) return net.forward(ag::Variable(s.x));
    return ag::reshape(
        static_cast<models::TransformerLM&>(net).forward_tokens(s.x),
        {rows_, classes_});
  }

  ag::Variable fused_loss(const ag::Variable& logits,
                          const Tensor& labels) const {
    return ag::mul_scalar(
        fused::fused_cross_entropy(logits, labels, ag::Reduction::kSum),
        1.f / static_cast<float>(rows_));
  }

  void run_fused(Fused& f) const {
    const Batch& bt = batches_[f.steps % kBatches];
    {
      Span s("data.stage");
      f.step.stage(&f.x, bt.fused_x);
      f.step.stage(&f.labels, bt.fused_y);
    }
    f.step.run(*f.opt, [this, &f] {
      f.logits = fused_logits(f, /*traced=*/false);
      return fused_loss(f.logits, f.labels);
    });
    ++f.steps;
  }

  void run_serial(Serial& s, int64_t b) const {
    const size_t ub = static_cast<size_t>(b);
    const Batch& bt = batches_[s.steps[ub] % kBatches];
    {
      Span sp("data.stage");
      s.step.stage(&s.x, bt.x);
      s.step.stage(&s.y, bt.y);
    }
    s.step.run(*s.opts[ub], [this, &s, b, ub] {
      s.logits[ub] = serial_logits(s, b);
      return ag::cross_entropy(s.logits[ub], s.y, ag::Reduction::kMean);
    });
    ++s.steps[ub];
  }

  Model model_;
  int64_t B_, N_;
  int64_t rows_ = 0, classes_ = 0;
  bool amp_;
  uint64_t seed_;
  std::vector<Batch> batches_;
  std::unique_ptr<Fused> fused_;
  std::unique_ptr<Serial> serial_;
};

// ---- DCGAN ------------------------------------------------------------------

// B GANs, eager: a step is the multi-loss discriminator step (real up, fake
// down) plus the generator step, with a fresh z per step and model. Multi-
// loss steps never capture, so this workload bypasses step-program replay:
// the autograd engine, node construction and pool recycling do all the work.
class DcganTrainer : public Trainer {
 public:
  DcganTrainer(int64_t B, int64_t N, uint64_t seed)
      : B_(B), N_(N), seed_(seed), cfg_(models::DCGANConfig::tiny()) {
    const data::ImageDataset ds(kBatches * N_, cfg_.image_size, cfg_.nc, 2,
                                seed_ ^ 0xDA7Aull);
    std::vector<int64_t> idx(static_cast<size_t>(N_));
    for (int64_t i = 0; i < kBatches; ++i) {
      for (int64_t n = 0; n < N_; ++n) idx[static_cast<size_t>(n)] = i * N_ + n;
      Tensor x = ds.batch(idx).first;
      reals_.push_back(x);
      fused_reals_.push_back(
          fused::pack_channel_fused(std::vector<Tensor>(static_cast<size_t>(B_), x)));
    }
    ones_ = Tensor::ones({B_, N_});
    zeros_ = Tensor::zeros({B_, N_});
    ones_n_ = Tensor::ones({N_});
    zeros_n_ = Tensor::zeros({N_});
    Models m = make_models();
    fused_ = make_fused(m);
    serial_ = make_serial(std::move(m));
  }

  void fused_setup_probe(int extra_steps) override {
    Models m;
    {
      Span s("setup.graphs");
      m = make_models();
    }
    std::unique_ptr<Fused> f = make_fused(m);
    {
      Span s("train.warmup");
      run_fused(*f);
    }
    for (int i = 0; i < extra_steps; ++i) run_fused(*f);
  }

  void serial_setup_probe() override {
    std::unique_ptr<Serial> s = make_serial(make_models());
    for (int64_t b = 0; b < B_; ++b)
      for (int i = 0; i < 2; ++i) run_serial(*s, b);  // warm-up, +1
  }

  void fused_step() override { run_fused(*fused_); }
  void serial_step(int64_t b) override { run_serial(*serial_, b); }

  bool audit() const override {
    const Fused& f = *fused_;
    const Serial& s = *serial_;
    if (f.steps == 0 || f.d_real.numel() != B_ * N_ ||
        f.d_gen.numel() != B_ * N_)
      return false;
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      if (s.steps[ub] != f.steps || s.d_real[ub].numel() != N_ ||
          s.d_gen[ub].numel() != N_)
        return false;
      if (!same_bits(f.d_real.value().data() + b * N_,
                     s.d_real[ub].value().data(), N_) ||
          !same_bits(f.d_gen.value().data() + b * N_,
                     s.d_gen[ub].value().data(), N_))
        return false;
    }
    return all_finite(losses(true)) && all_finite(losses(false));
  }

  // Per-model discriminator loss on real data, mean BCE in double.
  std::vector<double> losses(bool fused) const override {
    std::vector<double> out;
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      const ag::Variable& d = fused ? fused_->d_real : serial_->d_real[ub];
      if (!d.defined()) return {};
      const float* p = d.value().data() + (fused ? b * N_ : 0);
      double acc = 0.0;
      for (int64_t n = 0; n < N_; ++n)
        acc += std::max(p[n], 0.f) - p[n] +
               std::log1p(std::exp(-std::fabs(p[n])));
      out.push_back(acc / static_cast<double>(N_));
    }
    return out;
  }

  bool traced_eager_step(bool check) override {
    Fused& f = *fused_;
    const ag::Variable real(fused_reals_[static_cast<size_t>(f.steps % kBatches)]);
    const ag::Variable z(fused_z(f.steps));
    Tensor ref_d, ref_g;
    if (check) {
      ref_d = d_logits(f, real, /*traced=*/false).value();
      ref_g = f.gen->forward(z).value();
    }
    Span root("train.eager_step");
    // Discriminator step: real up, fake (detached) down.
    {
      Span s("optim.zero_grad");
      f.d_opt->zero_grad();
    }
    ag::Variable d_real, fake, d_fake, loss_real, loss_fake;
    {
      Span s("fwd.total");
      d_real = d_logits(f, real, /*traced=*/true);
    }
    {
      Span s("loss.fwd");
      loss_real = fused_loss(d_real, ones_);
    }
    {
      Span s("fwd.total");
      fake = traced_forward(*f.gen, z);
      d_fake = d_logits(f, ag::Variable(fake.value()), /*traced=*/true);
    }
    {
      Span s("loss.fwd");
      loss_fake = fused_loss(d_fake, zeros_);
    }
    {
      Span s("autograd.backward");
      f.step.backward(loss_real);
      f.step.backward(loss_fake);
    }
    {
      Span s("optim.step");
      f.d_opt->step();
    }
    // Generator step: make D call the fakes real.
    {
      Span s("optim.zero_grad");
      f.g_opt->zero_grad();
    }
    ag::Variable d_gen, loss_g;
    {
      Span s("fwd.total");
      d_gen = d_logits(f, traced_forward(*f.gen, z), /*traced=*/true);
    }
    {
      Span s("loss.fwd");
      loss_g = fused_loss(d_gen, ones_);
    }
    {
      Span s("autograd.backward");
      f.step.backward(loss_g);
    }
    {
      Span s("optim.step");
      f.g_opt->step();
    }
    f.d_real = d_real;
    f.d_gen = d_gen;
    ++f.steps;
    return !check ||
           (same_bits(ref_d, d_real.value()) && same_bits(ref_g, fake.value()));
  }

  void traced_serial_round() override {
    Serial& s = *serial_;
    Span root("serial.round");
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      models::DCGANGenerator& gen = *s.m.gens[ub];
      models::DCGANDiscriminator& disc = *s.m.discs[ub];
      const ag::Variable real(reals_[static_cast<size_t>(s.steps[ub] % kBatches)]);
      ag::Variable z;
      {
        Span sp("data.stage");
        z = ag::Variable(model_z(s.steps[ub], b));
      }
      {
        Span sp("optim.serial_zero_grad");
        s.d_opts[ub]->zero_grad();
      }
      ag::Variable loss_real, loss_fake;
      {
        Span sp("serial.fwd");
        s.d_real[ub] = disc.forward(real);
        loss_real = serial_loss(s.d_real[ub], ones_n_);
        loss_fake = serial_loss(
            disc.forward(ag::Variable(gen.forward(z).value())), zeros_n_);
      }
      {
        Span sp("serial.backward");
        s.step.backward(loss_real);
        s.step.backward(loss_fake);
      }
      {
        Span sp("optim.serial_step");
        s.d_opts[ub]->step();
      }
      {
        Span sp("optim.serial_zero_grad");
        s.g_opts[ub]->zero_grad();
      }
      ag::Variable loss_g;
      {
        Span sp("serial.fwd");
        s.d_gen[ub] = disc.forward(gen.forward(z));
        loss_g = serial_loss(s.d_gen[ub], ones_n_);
      }
      {
        Span sp("serial.backward");
        s.step.backward(loss_g);
      }
      {
        Span sp("optim.serial_step");
        s.g_opts[ub]->step();
      }
      ++s.steps[ub];
    }
  }

  bool replays() const override { return false; }
  TrainStep& fused_train_step() override { return fused_->step; }

 private:
  struct Models {
    std::vector<std::shared_ptr<models::DCGANGenerator>> gens;
    std::vector<std::shared_ptr<models::DCGANDiscriminator>> discs;
  };
  struct Fused {
    std::shared_ptr<fused::FusedArray> gen, disc;
    std::unique_ptr<fused::FusedAdam> g_opt, d_opt;
    TrainStep step;
    ag::Variable d_real, d_gen;  // D logits [B, N]: real data; G's fakes
    int64_t steps = 0;
  };
  struct Serial {
    Models m;
    std::vector<std::unique_ptr<nn::Adam>> g_opts, d_opts;
    TrainStep step;
    std::vector<ag::Variable> d_real, d_gen;  // per model [N]
    std::vector<int64_t> steps;
  };

  Models make_models() const {
    Rng rng(seed_ ^ 0x4E455453ull);
    Models m;
    for (int64_t b = 0; b < B_; ++b) {
      m.gens.push_back(std::make_shared<models::DCGANGenerator>(cfg_, rng));
      m.discs.push_back(
          std::make_shared<models::DCGANDiscriminator>(cfg_, rng));
    }
    return m;
  }

  static nn::Adam::Options adam(double lr) {
    nn::Adam::Options o;
    o.lr = lr;
    o.beta1 = 0.5;  // the DCGAN reference setting
    return o;
  }

  std::unique_ptr<Fused> make_fused(const Models& m) const {
    auto f = std::make_unique<Fused>();
    std::vector<std::shared_ptr<nn::Module>> gnets, dnets;
    for (int64_t b = 0; b < B_; ++b) {
      gnets.push_back(m.gens[static_cast<size_t>(b)]->net);
      dnets.push_back(m.discs[static_cast<size_t>(b)]->net);
    }
    Rng rng(seed_ ^ 0xF5EDull);
    {
      Span s("fusion.compile");
      f->gen = fused::FusionPlan(B_).compile(gnets, rng);
      fused::FusionOptions opts;
      opts.output_layout = fused::Layout::kModelMajor;
      f->disc = fused::FusionPlan(B_, opts).compile(dnets, rng);
    }
    {
      Span s("setup.optimizer");
      fused::FusedAdam::Options o;
      o.lr = lrs_for(B_);
      o.beta1 = {0.5};
      f->g_opt = std::make_unique<fused::FusedAdam>(
          fused::collect_fused_parameters(*f->gen, B_), B_, o);
      f->d_opt = std::make_unique<fused::FusedAdam>(
          fused::collect_fused_parameters(*f->disc, B_), B_, o);
    }
    return f;
  }

  std::unique_ptr<Serial> make_serial(Models m) const {
    auto s = std::make_unique<Serial>();
    s->m = std::move(m);
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      s->g_opts.push_back(std::make_unique<nn::Adam>(
          s->m.gens[ub]->parameters(), adam(lr_for(b, B_))));
      s->d_opts.push_back(std::make_unique<nn::Adam>(
          s->m.discs[ub]->parameters(), adam(lr_for(b, B_))));
    }
    s->d_real.resize(static_cast<size_t>(B_));
    s->d_gen.resize(static_cast<size_t>(B_));
    s->steps.assign(static_cast<size_t>(B_), 0);
    return s;
  }

  // z for (step, model): a pure function of the seed, so both sides draw
  // the same latents in any order.
  Tensor model_z(int64_t step, int64_t b) const {
    Rng rng(hash_combine(hash_combine(seed_ ^ 0x2ull,
                                      static_cast<uint64_t>(step)),
                         static_cast<uint64_t>(b)));
    return Tensor::randn({N_, cfg_.nz, 1, 1}, rng);
  }

  Tensor fused_z(int64_t step) const {
    std::vector<Tensor> zs;
    for (int64_t b = 0; b < B_; ++b) zs.push_back(model_z(step, b));
    return fused::pack_channel_fused(zs);
  }

  ag::Variable d_logits(Fused& f, const ag::Variable& x, bool traced) const {
    return ag::reshape(traced ? traced_forward(*f.disc, x) : f.disc->forward(x),
                       {B_, N_});
  }

  ag::Variable fused_loss(const ag::Variable& logits,
                          const Tensor& target) const {
    return ag::mul_scalar(
        ag::bce_with_logits(logits, target, ag::Reduction::kSum),
        1.f / static_cast<float>(N_));
  }

  static ag::Variable serial_loss(const ag::Variable& logits,
                                  const Tensor& target) {
    return ag::bce_with_logits(logits, target, ag::Reduction::kMean);
  }

  void run_fused(Fused& f) const {
    const ag::Variable real(fused_reals_[static_cast<size_t>(f.steps % kBatches)]);
    ag::Variable z;
    {
      Span s("data.stage");
      z = ag::Variable(fused_z(f.steps));
    }
    f.step.run(*f.d_opt, [&]() -> std::vector<ag::Variable> {
      f.d_real = d_logits(f, real, false);
      const ag::Variable fake(f.gen->forward(z).value());
      return {fused_loss(f.d_real, ones_),
              fused_loss(d_logits(f, fake, false), zeros_)};
    });
    f.step.run(*f.g_opt, [&] {
      f.d_gen = d_logits(f, f.gen->forward(z), false);
      return fused_loss(f.d_gen, ones_);
    });
    ++f.steps;
  }

  void run_serial(Serial& s, int64_t b) const {
    const size_t ub = static_cast<size_t>(b);
    models::DCGANGenerator& gen = *s.m.gens[ub];
    models::DCGANDiscriminator& disc = *s.m.discs[ub];
    const ag::Variable real(reals_[static_cast<size_t>(s.steps[ub] % kBatches)]);
    ag::Variable z;
    {
      Span sp("data.stage");
      z = ag::Variable(model_z(s.steps[ub], b));
    }
    s.step.run(*s.d_opts[ub], [&]() -> std::vector<ag::Variable> {
      s.d_real[ub] = disc.forward(real);
      const ag::Variable fake(gen.forward(z).value());
      return {serial_loss(s.d_real[ub], ones_n_),
              serial_loss(disc.forward(fake), zeros_n_)};
    });
    s.step.run(*s.g_opts[ub], [&] {
      s.d_gen[ub] = disc.forward(gen.forward(z));
      return serial_loss(s.d_gen[ub], ones_n_);
    });
    ++s.steps[ub];
  }

  int64_t B_, N_;
  uint64_t seed_;
  models::DCGANConfig cfg_;
  std::vector<Tensor> reals_, fused_reals_;
  Tensor ones_, zeros_, ones_n_, zeros_n_;
  std::unique_ptr<Fused> fused_;
  std::unique_ptr<Serial> serial_;
};

// ---- Hyperband on fused arrays ----------------------------------------------

// Passes each round of trials through to the real executor, spanning it
// ("hfht.round") and recording scores and the training samples it added.
class RecordingExecutor : public hfht::TrialExecutor {
 public:
  RecordingExecutor(hfht::TrialExecutor& inner, int64_t samples_per_epoch)
      : inner_(inner), samples_per_epoch_(samples_per_epoch) {}

  hfht::ExecutionReport run(const std::vector<hfht::Trial>& batch) override {
    Span s("hfht.round");
    hfht::ExecutionReport rep = inner_.run(batch);
    scores.insert(scores.end(), rep.scores.begin(), rep.scores.end());
    for (const hfht::Trial& t : batch) {
      // Survivors continue from their trained epochs, so only the epochs a
      // round adds are new work.
      int64_t& done = epochs_[t.params];
      if (t.epochs > done) {
        samples += static_cast<double>((t.epochs - done) * samples_per_epoch_);
        done = t.epochs;
      }
    }
    trials += static_cast<int64_t>(batch.size());
    return rep;
  }

  std::vector<double> scores;
  double samples = 0;
  int64_t trials = 0;

 private:
  hfht::TrialExecutor& inner_;
  int64_t samples_per_epoch_;
  std::map<hfht::ParamSet, int64_t> epochs_;
};

// A full Hyperband run over PointNet on real fused arrays — dominated by
// set-up churn (compiles, halving repacks, multi-source merges, captures)
// rather than steady-state replay. The serial side is the same run with a
// one-model array cap: every trial trains alone, as B separate jobs would.
// Set-up probes and the traced layer breakdown use a PointNet array at the
// workload's array cap and batch size.
class HyperbandWorkload : public Workload {
 public:
  HyperbandWorkload(WorkloadInfo info, uint64_t seed)
      : Workload(info, std::make_unique<ClassifierTrainer>(
                           Model::kPointNet, info.B, info.N, false, seed)),
        seed_(seed) {}

  double samples_per_slice() override { return fused_.samples; }
  void fused_slice() override { fused_ = tune(info().B, false); }
  void serial_slice() override { serial_ = tune(1, false); }

  // Scores are per-model functions of the trained weights, so the fused
  // and serial runs must agree bit for bit. The first audit also runs the
  // executor's own per-step fused-vs-serial verification once.
  bool audit() override {
    if (!verified_) {
      verified_ = true;
      const Run v = tune(info().B, true);
      verify_ok_ = v.max_serial_diff == 0.0 && same_scores(v, fused_);
    }
    return verify_ok_ && all_finite(fused_.scores) &&
           same_scores(fused_, serial_);
  }

  std::vector<double> final_values(bool fused) override {
    return fused ? fused_.scores : serial_.scores;
  }

  void traced_extra(std::map<std::string, double>* m) override {
    Run r;
    {
      Span s("hfht.run");
      r = tune(info().B, false);
    }
    (*m)["hfht.trials"] = static_cast<double>(r.trials);
    (*m)["hfht.compiles"] = static_cast<double>(r.compiles);
    (*m)["hfht.repacks"] = static_cast<double>(r.repacks);
    (*m)["hfht.merges"] = static_cast<double>(r.merges);
    (*m)["hfht.captures"] = static_cast<double>(r.captures);
    (*m)["hfht.replay_share"] =
        r.steps > 0 ? static_cast<double>(r.replays) / static_cast<double>(r.steps)
                    : 0.0;
  }

 private:
  static constexpr int64_t kMaxEpochs = 8;  // Hyperband R
  static constexpr int64_t kEta = 2;
  static constexpr int64_t kDatasetSize = 16;

  struct Run {
    std::vector<double> scores;  // every trial's score, in proposal order
    double samples = 0;
    int64_t trials = 0, compiles = 0, repacks = 0, merges = 0, captures = 0;
    int64_t steps = 0, replays = 0;
    double max_serial_diff = 0.0;
  };

  static bool same_scores(const Run& a, const Run& b) {
    return a.scores.size() == b.scores.size() &&
           std::memcmp(a.scores.data(), b.scores.data(),
                       a.scores.size() * sizeof(double)) == 0;
  }

  Run tune(int64_t max_array_size, bool verify) const {
    const int64_t N = info().N;
    hfht::SearchSpace space = hfht::SearchSpace::pointnet();
    // One infusible partition: halving boundaries then repack and merge
    // live arrays instead of compiling fresh ones.
    space.params[space.index_of("batch_size")].choices = {
        static_cast<double>(N)};
    space.params[space.index_of("feature_transform")].choices = {0};
    hfht::Hyperband hb(space, kMaxEpochs, kEta, /*skip_last=*/0, seed_);
    hfht::FusedTrainingExecutor::Options o;
    o.dataset_size = kDatasetSize;
    o.eval_size = 8;
    o.max_array_size = max_array_size;
    o.seed = seed_;
    o.verify_against_serial = verify;
    hfht::FusedTrainingExecutor exec(hfht::Task::kPointNet, sim::v100(), o);
    RecordingExecutor rec(exec, (kDatasetSize / N) * N);
    hfht::run_tuning(hb, rec);
    Run r;
    r.scores = std::move(rec.scores);
    r.samples = rec.samples;
    r.trials = rec.trials;
    r.compiles = exec.arrays_compiled();
    r.repacks = exec.arrays_repacked();
    r.merges = exec.multi_source_repacks();
    const TrainStep::Stats& st = exec.train_step().stats();
    r.captures = st.captures;
    r.steps = st.steps;
    r.replays = st.replays;
    r.max_serial_diff = exec.max_fused_vs_serial_diff();
    return r;
  }

  uint64_t seed_;
  Run fused_, serial_;
  bool verified_ = false;
  bool verify_ok_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pointnet_b8", "transformer_b8", "dcgan_b8", "resnet18_b4_f16",
      "hyperband_pointnet"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  using Sim = sim::Workload;
  if (name == "pointnet_b8")
    return std::make_unique<Workload>(
        WorkloadInfo{name, 8, 16, "f32", 5, Sim::kPointNetCls},
        std::make_unique<ClassifierTrainer>(Model::kPointNet, 8, 16, false,
                                            seed));
  if (name == "transformer_b8")
    return std::make_unique<Workload>(
        WorkloadInfo{name, 8, 16, "f32", 5, Sim::kTransformer},
        std::make_unique<ClassifierTrainer>(Model::kTransformer, 8, 16, false,
                                            seed));
  if (name == "dcgan_b8")
    return std::make_unique<Workload>(
        WorkloadInfo{name, 8, 16, "f32", 4, Sim::kDCGAN},
        std::make_unique<DcganTrainer>(8, 16, seed));
  if (name == "resnet18_b4_f16")
    return std::make_unique<Workload>(
        WorkloadInfo{name, 4, 16, "f16", 4, Sim::kResNet18},
        std::make_unique<ClassifierTrainer>(Model::kResNet, 4, 16, true,
                                            seed));
  if (name == "hyperband_pointnet")
    return std::make_unique<HyperbandWorkload>(
        WorkloadInfo{name, 4, 8, "f32", 1, Sim::kPointNetCls}, seed);
  return nullptr;
}

}  // namespace bench
