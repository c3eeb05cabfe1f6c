// Standard (unfused) layers — the per-job operators that HFTA fuses.
// Each class mirrors its PyTorch namesake's constructor and semantics; an
// operator that PyTorch splits by spatial rank (Conv1d/Conv2d,
// ConvTranspose1d/2d) is one class template over the rank R, and the
// torch names are aliases of its two instances.
#pragma once

#include "nn/module.h"
#include "tensor/conv.h"
#include "tensor/pool.h"

namespace hfta::nn {

// Linear, Embedding and (in nn/norm.h) LayerNorm take an array size `B`
// the way nn::Conv2d takes `groups`: B > 1 builds B independent layers side
// by side, which is exactly the fused form of B such layers (paper
// Appendix B). Every parameter is the per-model one with dim 0 scaled by B
// (block b is model b's tensor, byte for byte), the input is read as B
// equal runs of rows [B, ...], and config() reports the per-model
// constructor arguments whatever B is.

class Linear : public Module {
 public:
  Linear(int64_t in, int64_t out, bool bias, Rng& rng, int64_t B = 1);
  /// x: [.., in] -> [.., out]; with B > 1, [B, .., in] -> [B, .., out].
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "Linear"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kModelMajor;
  }
  ModuleConfig config() const override;

  ag::Variable weight;  // [B*out, in]
  ag::Variable bias;    // [B*out] or undefined
  int64_t in_features;
  int64_t out_features;
  int64_t array_size;
};

// The conv family over R spatial dims: R = 1 reads [N, C, L] (torch's
// Conv1d/ConvTranspose1d), R = 2 reads [N, C, H, W]. R sets only the
// kernel's shape ([.., k] or [.., k, k]), the fan-in and the kind; both
// ranks run the one op pair ag::conv / ag::conv_transpose, which also
// checks that the input's rank matches the weight's. Stride and pad
// apply to every spatial dim.

template <int R>
class Conv : public Module {
 public:
  Conv(int64_t in, int64_t out, int64_t kernel, int64_t stride, int64_t pad,
       int64_t groups, bool bias, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override {
    return R == 1 ? "Conv1d" : "Conv2d";
  }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
  ModuleConfig config() const override;

  ag::Variable weight;  // [out, in/groups, k] or [out, in/groups, k, k]
  ag::Variable bias;    // [out] or undefined
  ops::ConvArgs args;
};
using Conv1d = Conv<1>;
using Conv2d = Conv<2>;

template <int R>
class ConvTranspose : public Module {
 public:
  ConvTranspose(int64_t in, int64_t out, int64_t kernel, int64_t stride,
                int64_t pad, int64_t out_pad, int64_t groups, bool bias,
                Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override {
    return R == 1 ? "ConvTranspose1d" : "ConvTranspose2d";
  }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
  ModuleConfig config() const override;

  ag::Variable weight;  // [in, out/groups, k] or [in, out/groups, k, k]
  ag::Variable bias;    // [out] or undefined
  ops::ConvTransposeArgs args;
};
using ConvTranspose1d = ConvTranspose<1>;
using ConvTranspose2d = ConvTranspose<2>;

class Embedding : public Module {
 public:
  Embedding(int64_t vocab, int64_t dim, Rng& rng, int64_t B = 1);
  /// Not usable through the single-input interface; call lookup().
  ag::Variable forward(const ag::Variable&) override;
  /// indices: per-model integer ids ([B, ...] with B > 1) -> [..., E].
  /// Model b's ids read block b of the table; the offset is applied inside
  /// the recorded op, so a replayed step reads the ids staged for it.
  ag::Variable lookup(const Tensor& indices);
  std::string kind_name() const override { return "Embedding"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kModelMajor;
  }
  ModuleConfig config() const override;

  ag::Variable weight;  // [B*V, E]
  int64_t vocab, dim, array_size;
};

class MaxPool2d : public Module {
 public:
  MaxPool2d(int64_t kernel, int64_t stride, int64_t pad = 0);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "MaxPool2d"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
  ModuleConfig config() const override;
  ops::PoolArgs args;
};

class AdaptiveAvgPool2d : public Module {
 public:
  AdaptiveAvgPool2d(int64_t out_h, int64_t out_w);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "AdaptiveAvgPool2d"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
  ModuleConfig config() const override;
  int64_t out_h, out_w;
};

/// Elementwise dropout; identity in eval mode. Deterministic given seed.
class Dropout : public Module {
 public:
  Dropout(float p, uint64_t seed = 0x5eed);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "Dropout"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ModuleConfig config() const override;
  float p;

 private:
  Rng rng_;
};

/// Channel dropout for [N, C, H, W] (zeroes whole channels).
class Dropout2d : public Module {
 public:
  Dropout2d(float p, uint64_t seed = 0x5eed2d);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "Dropout2d"; }
  std::shared_ptr<Module> make_array(int64_t B, Rng& rng) const override;
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
  ModuleConfig config() const override;
  float p;

 private:
  Rng rng_;
};

/// Flattens all trailing dims into one: [N, d1, d2, ...] -> [N, d1*d2*...].
/// The canonical bridge between the conv/pool family and a Linear head.
class Flatten : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "Flatten"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<Flatten>();
  }
  ArrayLayout array_layout() const override {
    return ArrayLayout::kChannelFused;
  }
};

/// Max over the last (length) dim: [N, C, L] -> [N, C]. PointNet's global
/// feature pooling as a module, so module graphs stay planner-walkable.
class GlobalMaxPool1d : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "GlobalMaxPool1d"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<GlobalMaxPool1d>();
  }
};

// -- activation modules -------------------------------------------------------

class ReLU : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override { return ag::relu(x); }
  std::string kind_name() const override { return "ReLU"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<ReLU>();
  }
};
class ReLU6 : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override { return ag::relu6(x); }
  std::string kind_name() const override { return "ReLU6"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<ReLU6>();
  }
};
class LeakyReLU : public Module {
 public:
  explicit LeakyReLU(float slope) : slope(slope) {}
  ag::Variable forward(const ag::Variable& x) override {
    return ag::leaky_relu(x, slope);
  }
  std::string kind_name() const override { return "LeakyReLU"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<LeakyReLU>(slope);
  }
  ModuleConfig config() const override {
    ModuleConfig c;
    c.set("slope", static_cast<double>(slope));
    return c;
  }
  float slope;
};
class Tanh : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override { return ag::tanh(x); }
  std::string kind_name() const override { return "Tanh"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<Tanh>();
  }
};
class Sigmoid : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override {
    return ag::sigmoid(x);
  }
  std::string kind_name() const override { return "Sigmoid"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<Sigmoid>();
  }
};
class Hardswish : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override {
    return ag::hardswish(x);
  }
  std::string kind_name() const override { return "Hardswish"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<Hardswish>();
  }
};
class GELU : public Module {
 public:
  ag::Variable forward(const ag::Variable& x) override { return ag::gelu(x); }
  std::string kind_name() const override { return "GELU"; }
  std::shared_ptr<Module> make_array(int64_t, Rng&) const override {
    return std::make_shared<GELU>();
  }
};

}  // namespace hfta::nn
