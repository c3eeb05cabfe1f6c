#include "sim/workloads.h"

#include <cmath>

#include "core/check.h"

namespace hfta::sim {

namespace {

constexpr double kGB = 1e9;
// Optimizer state factor: weight + grad + 2 Adam moments (floats).
constexpr double kStateFactor = 4.0;

// Accumulates layer shapes into kernels + memory accounting. `stash` is the
// per-workload activation multiplier (forward stash + gradients + cuDNN
// workspace + allocator fragmentation) calibrated so the max-model counts
// match the paper's curve stop points (e.g. 9 AMP PointNet models on V100,
// 25 on A100).
struct Builder {
  IterationTrace t;
  int64_t B;
  double params = 0;  // per-model parameter count
  double stash;

  Builder(int64_t B, double batch, double host_us, double stash,
          double gap_scale)
      : B(B), stash(stash) {
    t.array_size = B;
    t.samples = batch;
    t.host_us = host_us;
    t.gap_scale = gap_scale;
  }

  // Fused grouped conv2d: per-model [Cin -> Cout, kxk, stride s, groups g]
  // on [N, *, H, W]; fused trace has B*g groups.
  void conv2d(int64_t N, int64_t Cin, int64_t H, int64_t W, int64_t Cout,
              int64_t k, int64_t s, int64_t g = 1,
              bool amp_fallback_bwd = false) {
    const int64_t Ho = H / s, Wo = W / s;
    const double io =
        static_cast<double>(B) *
        (static_cast<double>(N) * Cin * H * W +
         static_cast<double>(N) * Cout * Ho * Wo +
         static_cast<double>(Cout) * (Cin / g) * k * k);
    add_gemm_fwd_bwd(t, Cout / g, N * Ho * Wo, (Cin / g) * k * k, B * g, true,
                     amp_fallback_bwd, io);
    params += static_cast<double>(Cout) * (Cin / g) * k * k;
    act(static_cast<double>(N) * Cout * Ho * Wo);
  }

  void conv1d(int64_t N, int64_t Cin, int64_t L, int64_t Cout, int64_t k = 1) {
    const double io = static_cast<double>(B) *
                      (static_cast<double>(N) * (Cin + Cout) * L +
                       static_cast<double>(Cout) * Cin * k);
    add_gemm_fwd_bwd(t, Cout, N * L, Cin * k, B, true, false, io);
    params += static_cast<double>(Cout) * Cin * k;
    act(static_cast<double>(N) * Cout * L);
  }

  // Transposed conv (DCGAN): same GEMM volume as conv at output resolution.
  void conv_transpose2d(int64_t N, int64_t Cin, int64_t Hout, int64_t Cout,
                        int64_t k, bool amp_fallback_bwd = false) {
    const int64_t Hin = Hout / 2 > 0 ? Hout / 2 : 1;
    const double io = static_cast<double>(B) *
                      (static_cast<double>(N) * Cin * Hin * Hin +
                       static_cast<double>(N) * Cout * Hout * Hout +
                       static_cast<double>(Cout) * Cin * k * k);
    add_gemm_fwd_bwd(t, Cout, N * Hout * Hout, Cin * k * k, B, true,
                     amp_fallback_bwd, io);
    params += static_cast<double>(Cout) * Cin * k * k;
    act(static_cast<double>(N) * Cout * Hout * Hout);
  }

  // Fused linear = one batched GEMM over B model-blocks.
  void linear(int64_t M, int64_t in, int64_t out) {
    const double io = static_cast<double>(B) *
                      (static_cast<double>(M) * (in + out) +
                       static_cast<double>(in) * out);
    add_gemm_fwd_bwd(t, M, out, in, B, true, false, io);
    params += static_cast<double>(in) * out;
    act(static_cast<double>(M) * out);
  }

  void batchnorm(double elems_per_model) {
    add_norm_fwd_bwd(t, elems_per_model * B);
  }
  void layernorm(double elems_per_model) {
    add_norm_fwd_bwd(t, elems_per_model * B);
  }
  void activation(double elems_per_model) {
    add_elementwise_fwd_bwd(t, elems_per_model * B);
  }
  void pool(double elems_per_model) { add_pool_fwd_bwd(t, elems_per_model * B); }
  void gather(double elems_per_model) {
    add_gather_fwd_bwd(t, elems_per_model * B);
  }
  void residual_add(double elems_per_model) {
    add_elementwise_fwd_bwd(t, elems_per_model * B);
  }

  void act(double elems_per_model) {
    t.activation_gb += elems_per_model * 4.0 * stash / kGB;
  }

  IterationTrace finish() {
    add_optimizer(t, params * B);
    t.model_state_gb = params * 4.0 * kStateFactor / kGB;
    return t;
  }
};

// ---- PointNet (batch 32, 2500 points, widths 64/128/1024) ---------------------

IterationTrace pointnet_cls(int64_t B) {
  const int64_t N = 32, L = 2500;
  Builder b(B, N, /*host_us=*/1500, /*stash=*/6.0, /*gap_scale=*/3.5);
  // input STN
  b.conv1d(N, 3, L, 64);
  b.batchnorm(static_cast<double>(N) * 64 * L);
  b.activation(static_cast<double>(N) * 64 * L);
  b.conv1d(N, 64, L, 128);
  b.batchnorm(static_cast<double>(N) * 128 * L);
  b.activation(static_cast<double>(N) * 128 * L);
  b.pool(static_cast<double>(N) * 128 * L);
  b.linear(N, 128, 64);
  b.linear(N, 64, 9);
  b.gather(static_cast<double>(N) * 3 * L);  // apply transform
  // trunk
  b.conv1d(N, 3, L, 64);
  b.batchnorm(static_cast<double>(N) * 64 * L);
  b.activation(static_cast<double>(N) * 64 * L);
  b.conv1d(N, 64, L, 128);
  b.batchnorm(static_cast<double>(N) * 128 * L);
  b.activation(static_cast<double>(N) * 128 * L);
  b.conv1d(N, 128, L, 1024);
  b.batchnorm(static_cast<double>(N) * 1024 * L);
  b.pool(static_cast<double>(N) * 1024 * L);
  // classifier MLP
  b.linear(N, 1024, 512);
  b.batchnorm(static_cast<double>(N) * 512);
  b.activation(static_cast<double>(N) * 512);
  b.linear(N, 512, 256);
  b.batchnorm(static_cast<double>(N) * 256);
  b.activation(static_cast<double>(N) * 256);
  b.linear(N, 256, 16);
  return b.finish();
}

IterationTrace pointnet_seg(int64_t B) {
  const int64_t N = 32, L = 2500;
  Builder b(B, N, /*host_us=*/2000, /*stash=*/6.0, /*gap_scale=*/4.5);
  // trunk (with STN as in cls)
  b.conv1d(N, 3, L, 64);
  b.batchnorm(static_cast<double>(N) * 64 * L);
  b.activation(static_cast<double>(N) * 64 * L);
  b.conv1d(N, 64, L, 128);
  b.batchnorm(static_cast<double>(N) * 128 * L);
  b.activation(static_cast<double>(N) * 128 * L);
  b.conv1d(N, 128, L, 1024);
  b.batchnorm(static_cast<double>(N) * 1024 * L);
  b.pool(static_cast<double>(N) * 1024 * L);
  // per-point head: concat global [1024] with pointfeat [64] at every point
  b.gather(static_cast<double>(N) * 1088 * L);  // broadcast + concat
  b.conv1d(N, 1088, L, 512);
  b.batchnorm(static_cast<double>(N) * 512 * L);
  b.activation(static_cast<double>(N) * 512 * L);
  b.conv1d(N, 512, L, 256);
  b.batchnorm(static_cast<double>(N) * 256 * L);
  b.activation(static_cast<double>(N) * 256 * L);
  b.conv1d(N, 256, L, 128);
  b.batchnorm(static_cast<double>(N) * 128 * L);
  b.activation(static_cast<double>(N) * 128 * L);
  b.conv1d(N, 128, L, 50);
  b.gather(static_cast<double>(N) * 50 * L);  // per-point log-softmax/labels
  return b.finish();
}

// ---- DCGAN (batch 64, 64x64 LSUN, nz=100, ngf=ndf=64) --------------------------

void dcgan_generator(Builder& b, int64_t N) {
  b.conv_transpose2d(N, 100, 4, 512, 4, true);
  b.batchnorm(static_cast<double>(N) * 512 * 4 * 4);
  b.activation(static_cast<double>(N) * 512 * 4 * 4);
  b.conv_transpose2d(N, 512, 8, 256, 4, true);
  b.batchnorm(static_cast<double>(N) * 256 * 8 * 8);
  b.activation(static_cast<double>(N) * 256 * 8 * 8);
  b.conv_transpose2d(N, 256, 16, 128, 4, true);
  b.batchnorm(static_cast<double>(N) * 128 * 16 * 16);
  b.activation(static_cast<double>(N) * 128 * 16 * 16);
  b.conv_transpose2d(N, 128, 32, 64, 4, true);
  b.batchnorm(static_cast<double>(N) * 64 * 32 * 32);
  b.activation(static_cast<double>(N) * 64 * 32 * 32);
  b.conv_transpose2d(N, 64, 64, 3, 4, true);
  b.activation(static_cast<double>(N) * 3 * 64 * 64);
}

void dcgan_discriminator(Builder& b, int64_t N) {
  b.conv2d(N, 3, 64, 64, 64, 4, 2, 1, true);
  b.activation(static_cast<double>(N) * 64 * 32 * 32);
  b.conv2d(N, 64, 32, 32, 128, 4, 2, 1, true);
  b.batchnorm(static_cast<double>(N) * 128 * 16 * 16);
  b.activation(static_cast<double>(N) * 128 * 16 * 16);
  b.conv2d(N, 128, 16, 16, 256, 4, 2, 1, true);
  b.batchnorm(static_cast<double>(N) * 256 * 8 * 8);
  b.activation(static_cast<double>(N) * 256 * 8 * 8);
  b.conv2d(N, 256, 8, 8, 512, 4, 2, 1, true);
  b.batchnorm(static_cast<double>(N) * 512 * 4 * 4);
  b.activation(static_cast<double>(N) * 512 * 4 * 4);
  b.conv2d(N, 512, 4, 4, 1, 4, 4, 1, true);
}

IterationTrace dcgan(int64_t B) {
  const int64_t N = 64;
  // LSUN 64x64 JPEG decode + augmentation is host-heavy — this drives the
  // concurrent baseline's gains (and its contention collapse) in Fig. 4c.
  Builder b(B, N, /*host_us=*/130000, /*stash=*/2.0, /*gap_scale=*/1.0);
  // Two loss materializations + generator/discriminator graph breaks per
  // iteration make DCGAN's per-step XLA overhead unusually large.
  b.t.xla_step_us = 40000;
  // One GAN iteration: D(real), D(fake), G — ~2x G and 2x D passes.
  dcgan_discriminator(b, N);
  dcgan_generator(b, N);
  dcgan_discriminator(b, N);
  dcgan_generator(b, N);
  return b.finish();
}

// ---- ResNet-18 (CIFAR-10, batch 128) ------------------------------------------

IterationTrace resnet18(int64_t B) {
  const int64_t N = 128, S = 32;
  Builder b(B, N, /*host_us=*/4000, /*stash=*/1.2, /*gap_scale=*/0.5);
  b.conv2d(N, 3, S, S, 64, 3, 1);
  b.batchnorm(static_cast<double>(N) * 64 * S * S);
  b.activation(static_cast<double>(N) * 64 * S * S);
  int64_t in = 64, sz = S;
  for (int64_t stage = 0; stage < 4; ++stage) {
    const int64_t out = 64 << stage;
    for (int64_t blk = 0; blk < 2; ++blk) {
      const int64_t stride = (blk == 0 && stage > 0) ? 2 : 1;
      const int64_t so = sz / stride;
      b.conv2d(N, in, sz, sz, out, 3, stride);
      b.batchnorm(static_cast<double>(N) * out * so * so);
      b.activation(static_cast<double>(N) * out * so * so);
      b.conv2d(N, out, so, so, out, 3, 1);
      b.batchnorm(static_cast<double>(N) * out * so * so);
      if (stride != 1 || in != out) b.conv2d(N, in, sz, sz, out, 1, stride);
      b.residual_add(static_cast<double>(N) * out * so * so);
      in = out;
      sz = so;
    }
  }
  b.pool(static_cast<double>(N) * 512 * sz * sz);
  b.linear(N, 512, 10);
  return b.finish();
}

// ---- MobileNetV3-Large (CIFAR-10, batch 1024) ---------------------------------

IterationTrace mobilenetv3(int64_t B) {
  const int64_t N = 1024, S = 32, stem = 16, last = 960, head = 1280;
  struct Row {
    int64_t kernel, expand, out, stride;
    bool se;
  };
  // The published V3-Large bneck table at width 1.0.
  const Row rows[] = {{3, 16, 16, 1, false},  {3, 64, 24, 2, false},
                      {3, 72, 24, 1, false},  {5, 72, 40, 2, true},
                      {5, 120, 40, 1, true},  {5, 120, 40, 1, true},
                      {3, 240, 80, 2, false}, {3, 200, 80, 1, false},
                      {3, 184, 80, 1, false}, {3, 184, 80, 1, false},
                      {3, 480, 112, 1, true}, {3, 672, 112, 1, true},
                      {5, 672, 160, 2, true}, {5, 960, 160, 1, true},
                      {5, 960, 160, 1, true}};
  Builder b(B, N, /*host_us=*/35000, /*stash=*/4.5, /*gap_scale=*/0.3);
  int64_t sz = S / 2;  // stride-2 stem
  b.conv2d(N, 3, S, S, stem, 3, 2);
  b.batchnorm(static_cast<double>(N) * stem * sz * sz);
  b.activation(static_cast<double>(N) * stem * sz * sz);
  int64_t in = stem;
  for (const Row& r : rows) {
    const int64_t so = sz / r.stride;
    if (r.expand != in) {
      b.conv2d(N, in, sz, sz, r.expand, 1, 1);
      b.batchnorm(static_cast<double>(N) * r.expand * sz * sz);
      b.activation(static_cast<double>(N) * r.expand * sz * sz);
    }
    // depthwise: per-model groups = expand channels
    b.conv2d(N, r.expand, sz, sz, r.expand, r.kernel, r.stride, /*g=*/r.expand);
    b.batchnorm(static_cast<double>(N) * r.expand * so * so);
    b.activation(static_cast<double>(N) * r.expand * so * so);
    if (r.se) {
      const int64_t squeeze = std::max<int64_t>(4, r.expand / 4);
      b.pool(static_cast<double>(N) * r.expand * so * so);
      b.linear(N, r.expand, squeeze);
      b.linear(N, squeeze, r.expand);
      b.activation(static_cast<double>(N) * r.expand * so * so);
    }
    b.conv2d(N, r.expand, so, so, r.out, 1, 1);
    b.batchnorm(static_cast<double>(N) * r.out * so * so);
    if (r.stride == 1 && in == r.out)
      b.residual_add(static_cast<double>(N) * r.out * so * so);
    in = r.out;
    sz = so;
  }
  b.conv2d(N, in, sz, sz, last, 1, 1);
  b.batchnorm(static_cast<double>(N) * last * sz * sz);
  b.activation(static_cast<double>(N) * last * sz * sz);
  b.pool(static_cast<double>(N) * last * sz * sz);
  b.linear(N, last, head);
  b.activation(static_cast<double>(N) * head);
  b.linear(N, head, 10);
  return b.finish();
}

// ---- Transformer-LM (2 layers, 2 heads, d=128, batch=seq=32, WikiText-2) ---------

void encoder_layer(Builder& b, int64_t tokens, int64_t E, int64_t H,
                   int64_t FF, int64_t S) {
  b.linear(tokens, E, 3 * E);                       // qkv projection
  // attention scores + context: per (head) GEMMs over S
  const int64_t Dh = E / H;
  add_gemm_fwd_bwd(b.t, S, S, Dh, b.B * (tokens / S) * H, true, false);
  b.act(static_cast<double>(tokens) * S * H);
  add_gemm_fwd_bwd(b.t, S, Dh, S, b.B * (tokens / S) * H, true, false);
  b.act(static_cast<double>(tokens) * E);
  b.gather(static_cast<double>(tokens) * S * H);    // softmax over scores
  b.linear(tokens, E, E);                           // out projection
  b.layernorm(static_cast<double>(tokens) * E);
  b.linear(tokens, E, FF);
  b.activation(static_cast<double>(tokens) * FF);
  b.linear(tokens, FF, E);
  b.layernorm(static_cast<double>(tokens) * E);
}

IterationTrace transformer(int64_t B) {
  const int64_t N = 32, S = 32, E = 128, H = 2, FF = 128, V = 33278;
  const int64_t tokens = N * S;
  Builder b(B, N, /*host_us=*/800, /*stash=*/14.0, /*gap_scale=*/0.25);
  b.gather(static_cast<double>(tokens) * E);  // embedding
  for (int l = 0; l < 2; ++l) encoder_layer(b, tokens, E, H, FF, S);
  b.linear(tokens, E, V);  // decoder
  // embedding + decoder params
  b.params += static_cast<double>(V) * E;
  return b.finish();
}

IterationTrace bert_medium(int64_t B) {
  const int64_t N = 32, S = 32, E = 512, H = 8, FF = 2048, V = 30522;
  const int64_t tokens = N * S;
  Builder b(B, N, /*host_us=*/1200, /*stash=*/8.0, /*gap_scale=*/0.5);
  b.gather(static_cast<double>(tokens) * E);
  b.layernorm(static_cast<double>(tokens) * E);
  for (int l = 0; l < 8; ++l) encoder_layer(b, tokens, E, H, FF, S);
  b.linear(tokens, E, V);
  b.params += static_cast<double>(V) * E;
  return b.finish();
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPointNetCls: return "PointNet-Cls";
    case Workload::kPointNetSeg: return "PointNet-Seg";
    case Workload::kDCGAN: return "DCGAN";
    case Workload::kResNet18: return "ResNet-18";
    case Workload::kMobileNetV3: return "MobileNetV3-Large";
    case Workload::kTransformer: return "Transformer";
    case Workload::kBertMedium: return "BERT-Medium";
  }
  return "?";
}

IterationTrace build_trace(Workload w, int64_t B) {
  HFTA_CHECK(B >= 1, "build_trace: B must be >= 1");
  switch (w) {
    case Workload::kPointNetCls: return pointnet_cls(B);
    case Workload::kPointNetSeg: return pointnet_seg(B);
    case Workload::kDCGAN: return dcgan(B);
    case Workload::kResNet18: return resnet18(B);
    case Workload::kMobileNetV3: return mobilenetv3(B);
    case Workload::kTransformer: return transformer(B);
    case Workload::kBertMedium: return bert_medium(B);
  }
  HFTA_CHECK(false, "unknown workload");
  return {};
}

IterationTrace build_resnet_partial_trace(int64_t B, int64_t fused_units) {
  HFTA_CHECK(fused_units >= 0 && fused_units <= 10,
             "ResNet-18 has 10 fusion units");
  // Fused portion: one trace at array size B for the fused units; unfused
  // portion: B repetitions of the per-model kernels. We approximate by
  // splitting the full trace's kernels proportionally by unit count —
  // ResNet-18's 10 units have roughly comparable kernel mixes (Fig. 17's
  // near-linear decay).
  IterationTrace fused_all = build_trace(Workload::kResNet18, B);
  IterationTrace single = build_trace(Workload::kResNet18, 1);
  IterationTrace out;
  out.array_size = B;
  out.samples = fused_all.samples;
  out.host_us = fused_all.host_us;
  out.model_state_gb = fused_all.model_state_gb;
  out.activation_gb = fused_all.activation_gb;
  const double frac = static_cast<double>(fused_units) / 10.0;
  const size_t fused_count =
      static_cast<size_t>(frac * static_cast<double>(fused_all.kernels.size()));
  for (size_t i = 0; i < fused_all.kernels.size(); ++i) {
    if (i < fused_count) {
      out.kernels.push_back(fused_all.kernels[i]);
    } else {
      // unfused: B separate per-model kernels
      for (int64_t b = 0; b < B; ++b)
        out.kernels.push_back(single.kernels[i]);
    }
  }
  return out;
}

}  // namespace hfta::sim
