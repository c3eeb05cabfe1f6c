#include "models/pointnet.h"

namespace hfta::models {

namespace {
// Flattened identity matrix, used to initialize STN outputs near identity.
Tensor flat_identity(int64_t C) {
  Tensor t({C * C});
  for (int64_t i = 0; i < C; ++i) t.data()[i * C + i] = 1.f;
  return t;
}
}  // namespace

// ---- STN ----------------------------------------------------------------------

STN::STN(int64_t channels, const PointNetConfig& cfg, Rng& rng, int64_t B)
    : channels(channels), array_size(B) {
  conv1 = register_module("conv1", std::make_shared<nn::Conv1d>(
                                       B * channels, B * cfg.w1, 1, 1, 0, B,
                                       true, rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       B * cfg.w1, B * cfg.w2, 1, 1, 0, B,
                                       true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(B * cfg.w1));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(B * cfg.w2));
  fc1 = register_module(
      "fc1", std::make_shared<nn::Linear>(cfg.w2, cfg.fc1, true, rng, B));
  fc2 = register_module(
      "fc2", std::make_shared<nn::Linear>(cfg.fc1, channels * channels, true,
                                          rng, B));
}

ag::Variable STN::forward(const ag::Variable& x) {
  const int64_t N = x.size(0);
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  ag::Variable g = fused::to_model_major(ag::global_max_pool1d(h),
                                         array_size);  // [B, N, w2]
  h = ag::relu(fc1->forward(g));
  h = fc2->forward(h);  // [B, N, C*C]
  h = ag::add(h, ag::constant(flat_identity(channels)));
  return ag::reshape(h, {array_size * N, channels, channels});
}

// ---- trunk ---------------------------------------------------------------------

PointNetTrunk::PointNetTrunk(const PointNetConfig& cfg, Rng& rng, int64_t B)
    : cfg(cfg), array_size(B) {
  if (cfg.input_transform)
    stn = register_module("stn", std::make_shared<STN>(3, cfg, rng, B));
  conv1 = register_module("conv1", std::make_shared<nn::Conv1d>(
                                       B * 3, B * cfg.w1, 1, 1, 0, B, true,
                                       rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       B * cfg.w1, B * cfg.w2, 1, 1, 0, B,
                                       true, rng));
  conv3 = register_module("conv3", std::make_shared<nn::Conv1d>(
                                       B * cfg.w2, B * cfg.w3, 1, 1, 0, B,
                                       true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(B * cfg.w1));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(B * cfg.w2));
  bn3 = register_module("bn3", std::make_shared<nn::BatchNorm1d>(B * cfg.w3));
}

std::pair<ag::Variable, ag::Variable> PointNetTrunk::forward_both(
    const ag::Variable& x) {
  const int64_t B = array_size, N = x.size(0), L = x.size(2);
  ag::Variable h = x;
  if (stn) {
    // Per cloud, x' = T^T x, computed as (x^T T)^T — matches
    // pointnet.pytorch.
    ag::Variable t = stn->forward(x);  // [B*N, 3, 3]
    ag::Variable xm =
        ag::reshape(fused::to_model_major(x, B), {B * N, 3, L});
    ag::Variable y =
        ag::transpose(ag::matmul(ag::transpose(xm, 1, 2), t), 1, 2);
    h = fused::to_channel_fused(ag::reshape(y, {B, N, 3, L}));
  }
  ag::Variable pointfeat = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(pointfeat)));
  h = bn3->forward(conv3->forward(h));
  ag::Variable global = ag::global_max_pool1d(h);  // [N, B*w3]
  return {pointfeat, global};
}

ag::Variable PointNetTrunk::forward(const ag::Variable& x) {
  return forward_both(x).second;
}

nn::ModuleConfig PointNetTrunk::config() const {
  nn::ModuleConfig c;
  c.set("w1", cfg.w1);
  c.set("w2", cfg.w2);
  c.set("w3", cfg.w3);
  c.set("fc1", cfg.fc1);
  c.set("input_transform", static_cast<int64_t>(cfg.input_transform));
  return c;
}

std::shared_ptr<nn::Module> PointNetTrunk::make_array(int64_t B,
                                                      Rng& rng) const {
  return std::make_shared<PointNetTrunk>(cfg, rng, B * array_size);
}

// ---- classification head ----------------------------------------------------------

PointNetCls::PointNetCls(const PointNetConfig& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  // The trunk and the three Linears draw their init from rng in this order.
  auto trunk = std::make_shared<PointNetTrunk>(cfg, rng);
  auto fc1 = std::make_shared<nn::Linear>(cfg.w3, cfg.fc1, true, rng);
  auto fc2 = std::make_shared<nn::Linear>(cfg.fc1, cfg.fc2, true, rng);
  auto fc3 = std::make_shared<nn::Linear>(cfg.fc2, cfg.num_classes, true, rng);
  net->push_back("trunk", trunk);
  net->push_back("fc1", fc1);
  net->push_back("bn1", std::make_shared<nn::BatchNorm1d>(cfg.fc1));
  net->push_back("relu1", std::make_shared<nn::ReLU>());
  net->push_back("fc2", fc2);
  net->push_back("bn2", std::make_shared<nn::BatchNorm1d>(cfg.fc2));
  net->push_back("relu2", std::make_shared<nn::ReLU>());
  net->push_back("drop", std::make_shared<nn::Dropout>(cfg.dropout_p));
  net->push_back("fc3", fc3);
}

ag::Variable PointNetCls::forward(const ag::Variable& x) {
  return net->forward(x);  // [N, classes]
}

std::shared_ptr<nn::Module> PointNetCls::make_array(int64_t B,
                                                    Rng& rng) const {
  return B == 1 ? std::make_shared<PointNetCls>(cfg, rng) : nullptr;
}

// ---- segmentation head ----------------------------------------------------------------

PointNetSeg::PointNetSeg(const PointNetConfig& cfg, Rng& rng, int64_t B)
    : cfg(cfg), array_size(B) {
  trunk = register_module("trunk",
                          std::make_shared<PointNetTrunk>(cfg, rng, B));
  conv1 = register_module(
      "conv1", std::make_shared<nn::Conv1d>(B * (cfg.w1 + cfg.w3), B * cfg.w2,
                                            1, 1, 0, B, true, rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       B * cfg.w2, B * cfg.w1, 1, 1, 0, B,
                                       true, rng));
  conv3 = register_module(
      "conv3", std::make_shared<nn::Conv1d>(B * cfg.w1, B * cfg.num_parts, 1,
                                            1, 0, B, true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(B * cfg.w2));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(B * cfg.w1));
}

ag::Variable PointNetSeg::forward(const ag::Variable& x) {
  const int64_t B = array_size, N = x.size(0), L = x.size(2);
  auto [pointfeat, global] = trunk->forward_both(x);
  // Broadcast the global feature along the points and concat it after
  // each model's point features, so that model's (w1 + w3) channels stay
  // contiguous for the grouped conv: [N,B,w1,L] ++ [N,B,w3,L] on dim 2.
  ag::Variable g4 = ag::reshape(global, {N, B, cfg.w3, 1});
  ag::Variable gexp = ag::mul(g4, ag::constant(Tensor::ones({1, 1, 1, L})));
  ag::Variable pf = ag::reshape(pointfeat, {N, B, cfg.w1, L});
  ag::Variable h = ag::reshape(ag::concat({pf, gexp}, 2),
                               {N, B * (cfg.w1 + cfg.w3), L});
  h = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  return conv3->forward(h);  // [N, B*parts, L]
}

}  // namespace hfta::models
