#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/parallel.h"
#include "core/vec.h"

namespace hfta::ops {

namespace {

// Fixed bound on tensor rank so parallel kernels can keep their mixed-radix
// counters in stack arrays (no per-chunk heap traffic).
constexpr int64_t kMaxRank = 16;

// Pads `s` on the left with 1s to rank `nd`.
Shape pad_shape(const Shape& s, int64_t nd) {
  Shape out(static_cast<size_t>(nd), 1);
  std::copy(s.begin(), s.end(), out.end() - static_cast<int64_t>(s.size()));
  return out;
}

// Row-major strides; stride 0 where the dim is broadcast (size 1 vs out > 1).
std::vector<int64_t> broadcast_strides(const Shape& padded, const Shape& out) {
  const size_t nd = out.size();
  std::vector<int64_t> strides(nd, 0);
  int64_t s = 1;
  for (int64_t i = static_cast<int64_t>(nd) - 1; i >= 0; --i) {
    const size_t ui = static_cast<size_t>(i);
    if (padded[ui] == out[ui]) {
      strides[ui] = (padded[ui] == 1) ? 0 : s;
    } else {
      strides[ui] = 0;  // padded[ui] == 1, broadcast
    }
    s *= padded[ui];
  }
  return strides;
}

// The broadcast walk of an elementwise binary op (binary_vec takes every
// same-shape pair).
Tensor broadcast_binary(const Tensor& a, const Tensor& b,
                        float (*fn)(float, float), const Tensor& out) {
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  const int64_t nd = static_cast<int64_t>(out_shape.size());
  HFTA_CHECK(nd <= kMaxRank, "binary op: rank ", nd, " exceeds ", kMaxRank);
  const auto sa = broadcast_strides(pad_shape(a.shape(), nd), out_shape);
  const auto sb = broadcast_strides(pad_shape(b.shape(), nd), out_shape);
  Tensor y = Tensor::empty_or(out, out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = y.data();
  const int64_t n = y.numel();
  // Pure map: each output element reads fixed source offsets, so chunks are
  // independent. Each chunk seeds the mixed-radix counter from its first
  // flat index and then walks exactly like the old serial loop.
  parallel_for(Partition::elems(n), [&](int64_t lo, int64_t hi) {
    int64_t idx[kMaxRank] = {0};
    int64_t oa = 0, ob = 0;
    int64_t rem = lo;
    for (int64_t d = nd - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      idx[ud] = rem % out_shape[ud];
      rem /= out_shape[ud];
      oa += idx[ud] * sa[ud];
      ob += idx[ud] * sb[ud];
    }
    for (int64_t flat = lo; flat < hi; ++flat) {
      po[flat] = fn(pa[oa], pb[ob]);
      for (int64_t d = nd - 1; d >= 0; --d) {
        const size_t ud = static_cast<size_t>(d);
        oa += sa[ud];
        ob += sb[ud];
        if (++idx[ud] < out_shape[ud]) break;
        idx[ud] = 0;
        oa -= sa[ud] * out_shape[ud];
        ob -= sb[ud] * out_shape[ud];
      }
    }
  });
  return y;
}

// Same-shape fast path through the vec layer: contiguous [lo, hi) slices of
// one elementwise map, chunked exactly like the scalar loop it replaces.
// These ops are single-rounding IEEE maps, so vectorization cannot change
// any output bit. Broadcast shapes fall back to the generic strided walk.
Tensor binary_vec(const Tensor& a, const Tensor& b, vec::BinOp op,
                  float (*fn)(float, float), const Tensor& out = Tensor()) {
  HFTA_CHECK(a.defined() && b.defined(), "binary op on undefined tensor");
  if (a.shape() == b.shape()) {
    Tensor y = Tensor::empty_or(out, a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = y.data();
    parallel_for(Partition::elems(y.numel()), [&](int64_t lo, int64_t hi) {
      vec::binary(op, pa + lo, pb + lo, po + lo, hi - lo);
    });
    return y;
  }
  return broadcast_binary(a, b, fn, out);
}

Tensor unary_vec(const Tensor& a, vec::UnOp op, float p0, float p1 = 0.f,
                 const Tensor& out = Tensor()) {
  Tensor y = Tensor::empty_or(out, a.shape());
  const float* pa = a.data();
  float* po = y.data();
  parallel_for(Partition::elems(a.numel()), [&](int64_t lo, int64_t hi) {
    vec::unary(op, p0, p1, pa + lo, po + lo, hi - lo);
  });
  return y;
}

// x viewed as [N, C, S] (channel c is N runs of S contiguous floats, run n
// starting at (n * C + c) * S), walked in blocks of vec::kLanes channels:
// block k is channels [k * kLanes, k * kLanes + lanes(k)). Each vec channel
// kernel runs one chain per channel in ascending (n, s) order from +0 —
// the order ops::sum reduces a channel in.
struct ChannelView {
  int64_t N, C, S;

  explicit ChannelView(const Tensor& x)
      : N(x.dim() >= 2 ? x.size(0) : 0),
        C(x.dim() >= 2 ? x.size(1) : 0),
        S(N * C > 0 ? x.numel() / (N * C) : 0) {
    HFTA_CHECK(x.dim() >= 2 && N * S > 0,
               "expected a non-empty [N, C, *] tensor, got ",
               shape_str(x.shape()));
  }

  int64_t blocks() const { return (C + vec::kLanes - 1) / vec::kLanes; }
  int64_t lanes(int64_t k) const {
    return std::min<int64_t>(vec::kLanes, C - k * vec::kLanes);
  }
  /// Block k of x (and gy) as a vec::ChannelBlock, lane parameters unset.
  vec::ChannelBlock block(int64_t k, const float* x,
                          const float* gy = nullptr,
                          float* out = nullptr) const {
    vec::ChannelBlock b;
    b.x = x;
    b.gy = gy;
    b.out = out;
    b.N = N;
    b.C = C;
    b.S = S;
    b.c0 = k * vec::kLanes;
    return b;
  }
  /// Partition over blocks; a block's work is `passes` visits of each of
  /// its kLanes channels' N * S elements.
  Partition partition(int64_t passes) const {
    return Partition::work(blocks(), vec::kLanes * passes * N * S);
  }
};

}  // namespace

Shape broadcast_shapes(const Shape& a, const Shape& b) {
  const int64_t nd = std::max<int64_t>(static_cast<int64_t>(a.size()),
                                       static_cast<int64_t>(b.size()));
  const Shape pa = pad_shape(a, nd);
  const Shape pb = pad_shape(b, nd);
  Shape out(static_cast<size_t>(nd));
  for (int64_t i = 0; i < nd; ++i) {
    const size_t ui = static_cast<size_t>(i);
    HFTA_CHECK(pa[ui] == pb[ui] || pa[ui] == 1 || pb[ui] == 1,
               "cannot broadcast ", shape_str(a), " with ", shape_str(b));
    out[ui] = std::max(pa[ui], pb[ui]);
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b, const Tensor& out) {
  return binary_vec(a, b, vec::BinOp::kAdd,
                    [](float x, float y) { return x + y; }, out);
}
Tensor sub(const Tensor& a, const Tensor& b, const Tensor& out) {
  return binary_vec(a, b, vec::BinOp::kSub,
                    [](float x, float y) { return x - y; }, out);
}
Tensor mul(const Tensor& a, const Tensor& b, const Tensor& out) {
  return binary_vec(a, b, vec::BinOp::kMul,
                    [](float x, float y) { return x * y; }, out);
}
Tensor div(const Tensor& a, const Tensor& b, const Tensor& out) {
  return binary_vec(a, b, vec::BinOp::kDiv,
                    [](float x, float y) { return x / y; }, out);
}
Tensor reduce_to_shape(const Tensor& grad, const Shape& shape) {
  if (grad.shape() == shape) return grad;
  const int64_t nd = grad.dim();
  const Shape padded = pad_shape(shape, nd);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < nd; ++i) {
    if (padded[static_cast<size_t>(i)] == 1 && grad.size(i) != 1)
      dims.push_back(i);
  }
  Tensor r = dims.empty() ? grad : sum(grad, dims, /*keepdim=*/true);
  return r.reshape(shape);
}

Tensor add_scalar(const Tensor& a, float s, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kAddScalar, s, 0.f, out);
}
Tensor mul_scalar(const Tensor& a, float s, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kMulScalar, s, 0.f, out);
}

Tensor unary(const Tensor& a, FunctionRef<float(float)> fn,
             const Tensor& out) {
  Tensor y = Tensor::empty_or(out, a.shape());
  const float* pa = a.data();
  float* po = y.data();
  const int64_t n = a.numel();
  parallel_for(Partition::elems(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
  return y;
}

Tensor neg(const Tensor& a, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kNeg, 0.f, 0.f, out);
}
Tensor exp(const Tensor& a, const Tensor& out) {
  return unary(a, [](float x) { return std::exp(x); }, out);
}
Tensor log(const Tensor& a, const Tensor& out) {
  return unary(a, [](float x) { return std::log(x); }, out);
}
Tensor sqrt(const Tensor& a, const Tensor& out) {
  return unary(a, [](float x) { return std::sqrt(x); }, out);
}
Tensor tanh(const Tensor& a, const Tensor& out) {
  return unary(a, [](float x) { return std::tanh(x); }, out);
}
Tensor sigmoid(const Tensor& a, const Tensor& out) {
  return unary(a, [](float x) { return 1.f / (1.f + std::exp(-x)); }, out);
}
Tensor relu(const Tensor& a, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kRelu, 0.f, 0.f, out);
}
Tensor relu_backward(const Tensor& gy, const Tensor& x) {
  return binary_vec(gy, x, vec::BinOp::kReluBwd, [](float g, float v) {
    return g * (v > 0.f ? 1.f : 0.f);
  });
}
Tensor clamp(const Tensor& a, float lo, float hi, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kClamp, lo, hi, out);
}
Tensor leaky_relu(const Tensor& a, float slope, const Tensor& out) {
  return unary_vec(a, vec::UnOp::kLeakyRelu, slope, 0.f, out);
}
Tensor pow_scalar(const Tensor& a, float p, const Tensor& out) {
  return unary(a, [p](float x) { return std::pow(x, p); }, out);
}

Tensor sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim,
           const Tensor& out) {
  const int64_t nd = a.dim();
  std::vector<bool> reduce(static_cast<size_t>(nd), false);
  for (int64_t d : dims) {
    const int64_t named = d;
    if (d < 0) d += nd;
    HFTA_CHECK(d >= 0 && d < nd, "sum: dim ", named, " out of range for ",
               shape_str(a.shape()));
    HFTA_CHECK(!reduce[static_cast<size_t>(d)], "sum: dim ", d,
               " is named twice (as ", named, ")");
    reduce[static_cast<size_t>(d)] = true;
  }
  Shape out_shape;
  for (int64_t i = 0; i < nd; ++i) {
    const bool r = reduce[static_cast<size_t>(i)];
    if (r && keepdim) out_shape.push_back(1);
    if (!r) out_shape.push_back(a.size(i));
  }
  HFTA_CHECK(nd <= kMaxRank, "sum: rank ", nd, " exceeds ", kMaxRank);
  Tensor y = Tensor::empty_or(out, out_shape);
  const float* pa = a.data();
  float* po = y.data();
  // Every dim but dim 1 (every conv's bias gradient): a per-channel sum of
  // an [N, C, S] view, one chain per channel in ascending (n, s) — the flat
  // order of the generic walk below — run a block of channels per vector.
  const bool all_but_1 =
      nd >= 3 && a.numel() > 0 && !reduce[1] &&
      std::count(reduce.begin(), reduce.end(), true) == nd - 1;
  if (all_but_1) {
    const ChannelView cv(a);
    parallel_for(cv.partition(1), [&](int64_t lo, int64_t hi) {
      for (int64_t k = lo; k < hi; ++k) {
        float s[vec::kLanes];
        vec::channel_reduce(vec::ChanReduce::kSum, cv.block(k, pa), s);
        std::copy(s, s + cv.lanes(k), po + k * vec::kLanes);
      }
    });
    return y;
  }
  // Row-major strides of the input, then split dims into kept / reduced
  // (original order preserved in both lists).
  std::vector<int64_t> in_strides(static_cast<size_t>(nd), 1);
  for (int64_t i = nd - 2; i >= 0; --i)
    in_strides[static_cast<size_t>(i)] =
        in_strides[static_cast<size_t>(i + 1)] * a.size(i + 1);
  std::vector<int64_t> kept_size, kept_stride, red_size, red_stride;
  int64_t red_count = 1;
  for (int64_t i = 0; i < nd; ++i) {
    if (reduce[static_cast<size_t>(i)]) {
      red_size.push_back(a.size(i));
      red_stride.push_back(in_strides[static_cast<size_t>(i)]);
      red_count *= a.size(i);
    } else {
      kept_size.push_back(a.size(i));
      kept_stride.push_back(in_strides[static_cast<size_t>(i)]);
    }
  }
  const int64_t out_n = y.numel();
  // Fast path: when the reduced dims form one contiguous block, the input is
  // a [outer, red_count, inner] view with unit-stride inner, and each output
  // element's chain is a per-column ascending-r sum — exactly vec::col_sum's
  // contract, so this path is bit-identical to the generic walk below.
  // (Hot case: bias gradients, sum over the row dim of a [rows, out] view.)
  if (!red_size.empty()) {
    bool consec = true;
    int64_t d0 = -1, dprev = -1;
    for (int64_t i = 0; i < nd; ++i) {
      if (!reduce[static_cast<size_t>(i)]) continue;
      if (d0 < 0) d0 = i;
      else if (i != dprev + 1) { consec = false; break; }
      dprev = i;
    }
    if (consec) {
      int64_t outer = 1, inner = 1;
      for (int64_t i = 0; i < d0; ++i) outer *= a.size(i);
      for (int64_t i = dprev < 0 ? d0 + 1 : dprev + 1; i < nd; ++i)
        inner *= a.size(i);
      if (inner > 1) {
        parallel_for(Partition::work(outer, red_count * inner),
                     [&](int64_t lo, int64_t hi) {
          for (int64_t o = lo; o < hi; ++o)
            vec::col_sum(pa + o * red_count * inner, po + o * inner, red_count,
                         inner, /*accumulate=*/false);
        });
        return y;
      }
    }
  }
  // Output-parallel reduction: each output element owns one accumulation
  // chain that visits its inputs in ascending flat order — the same order
  // the old serial flat walk used — so no chain is ever split and the
  // result is bit-identical at every thread count.
  parallel_for(Partition::work(out_n, red_count), [&](int64_t lo, int64_t hi) {
    const size_t nk = kept_size.size();
    const size_t nr = red_size.size();
    for (int64_t of = lo; of < hi; ++of) {
      int64_t rem = of, base = 0;
      for (size_t k = nk; k-- > 0;) {
        base += (rem % kept_size[k]) * kept_stride[k];
        rem /= kept_size[k];
      }
      int64_t ridx[kMaxRank] = {0};
      int64_t roff = 0;
      float acc = 0.f;
      for (int64_t r = 0; r < red_count; ++r) {
        acc += pa[base + roff];
        for (size_t d = nr; d-- > 0;) {
          roff += red_stride[d];
          if (++ridx[d] < red_size[d]) break;
          ridx[d] = 0;
          roff -= red_stride[d] * red_size[d];
        }
      }
      po[of] = acc;
    }
  });
  return y;
}

Tensor sum_all(const Tensor& a, const Tensor& out) {
  // Deliberately serial: a single double-precision chain over the whole
  // tensor. Splitting it would need a combine step whose float result
  // depends on the partition, and this sits on loss paths where the
  // bit-exactness audits would notice.
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  Tensor y = Tensor::empty_or(out, Shape{});
  y.data()[0] = static_cast<float>(acc);
  return y;
}

Tensor mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  // sum first: it rejects a dim out of range or named twice.
  Tensor s = sum(a, dims, keepdim);
  int64_t count = 1;
  for (int64_t d : dims) count *= a.size(d);
  s.mul_(1.f / static_cast<float>(count));
  return s;
}

Tensor mean_all(const Tensor& a) {
  Tensor s = sum_all(a);
  s.mul_(1.f / static_cast<float>(a.numel()));
  return s;
}

std::pair<Tensor, Tensor> max_dim(const Tensor& a, int64_t dim, bool keepdim) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  HFTA_CHECK(dim >= 0 && dim < nd, "max_dim: dim out of range");
  int64_t outer = 1, inner = 1;
  const int64_t n = a.size(dim);
  for (int64_t i = 0; i < dim; ++i) outer *= a.size(i);
  for (int64_t i = dim + 1; i < nd; ++i) inner *= a.size(i);
  Shape out_shape;
  for (int64_t i = 0; i < nd; ++i) {
    if (i == dim) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(i));
    }
  }
  Tensor values = Tensor::empty(out_shape.empty() ? Shape{} : out_shape);
  Tensor indices = Tensor::empty(values.shape());
  const float* pa = a.data();
  float* pv = values.data();
  float* pi = indices.data();
  parallel_for(Partition::rows(outer), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t in = 0; in < inner; ++in) {
        float best = pa[(o * n) * inner + in];
        int64_t best_i = 0;
        for (int64_t k = 1; k < n; ++k) {
          const float v = pa[(o * n + k) * inner + in];
          if (v > best) {
            best = v;
            best_i = k;
          }
        }
        pv[o * inner + in] = best;
        pi[o * inner + in] = static_cast<float>(best_i);
      }
    }
  });
  return {values, indices};
}

Tensor argmax(const Tensor& a, int64_t dim) {
  return max_dim(a, dim, /*keepdim=*/false).second;
}

Tensor concat(const std::vector<Tensor>& ts, int64_t dim, const Tensor& out) {
  HFTA_CHECK(!ts.empty(), "concat of empty list");
  const int64_t nd = ts[0].dim();
  if (dim < 0) dim += nd;
  HFTA_CHECK(dim >= 0 && dim < nd, "concat: dim out of range");
  Shape out_shape = ts[0].shape();
  int64_t total = 0;
  for (const Tensor& t : ts) {
    HFTA_CHECK(t.dim() == nd, "concat: rank mismatch");
    for (int64_t i = 0; i < nd; ++i) {
      if (i != dim)
        HFTA_CHECK(t.size(i) == out_shape[static_cast<size_t>(i)],
                   "concat: shape mismatch at dim ", i);
    }
    total += t.size(dim);
  }
  out_shape[static_cast<size_t>(dim)] = total;
  Tensor y = Tensor::empty_or(out, out_shape);
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= out_shape[static_cast<size_t>(i)];
  for (int64_t i = dim + 1; i < nd; ++i) inner *= out_shape[static_cast<size_t>(i)];
  float* dst = y.data();
  int64_t row_off = 0;
  for (const Tensor& t : ts) {
    const int64_t rows = t.size(dim);
    const float* src = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(dst + (o * total + row_off) * inner, src + o * rows * inner,
                  sizeof(float) * static_cast<size_t>(rows * inner));
    }
    row_off += rows;
  }
  return y;
}

std::vector<Tensor> split(const Tensor& t, const std::vector<int64_t>& sizes,
                          int64_t dim) {
  const int64_t nd = t.dim();
  if (dim < 0) dim += nd;
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  HFTA_CHECK(total == t.size(dim), "split: sizes sum ", total, " != dim size ",
             t.size(dim));
  std::vector<Tensor> out;
  int64_t start = 0;
  for (int64_t s : sizes) {
    out.push_back(t.slice(dim, start, start + s));
    start += s;
  }
  return out;
}

std::vector<Tensor> chunk(const Tensor& t, int64_t chunks, int64_t dim) {
  const int64_t nd = t.dim();
  int64_t d = dim < 0 ? dim + nd : dim;
  HFTA_CHECK(t.size(d) % chunks == 0, "chunk: ", t.size(d),
             " not divisible by ", chunks);
  return split(t, std::vector<int64_t>(static_cast<size_t>(chunks),
                                       t.size(d) / chunks), d);
}

namespace {
// Applies fn(off, n, st) over the rows of a's [outer, n, inner] view along
// dim: row element i sits at flat offset off + i * st (st == inner). The row
// bodies visit each element in up to three passes (max, exp-sum, scale).
template <typename Fn>
void rowwise(const Tensor& a, int64_t dim, Fn fn) {
  const int64_t nd = a.dim();
  int64_t outer = 1, inner = 1;
  const int64_t n = a.size(dim);
  for (int64_t i = 0; i < dim; ++i) outer *= a.size(i);
  for (int64_t i = dim + 1; i < nd; ++i) inner *= a.size(i);
  parallel_for(Partition::work(outer * inner, 3 * n),
               [&](int64_t lo, int64_t hi) {
    for (int64_t oi = lo; oi < hi; ++oi) {
      const int64_t o = oi / inner;
      const int64_t in = oi % inner;
      fn((o * n) * inner + in, n, inner);
    }
  });
}
}  // namespace

// softmax / log_softmax run on the vec row reductions: fixed 8-lane strips
// with the fixed cross-lane tree and the shared polynomial exp — the SAME
// strip/tree shape on every backend and at every thread count, so fused ==
// serial == scalar-build holds bitwise (see DESIGN.md §11).

void softmax_row(const float* x, float* y, int64_t n, int64_t st) {
  const float mx = vec::row_max(x, st, n);
  const float z = vec::row_sumexp(x, st, n, mx, y);
  const float inv = 1.f / z;
  if (st == 1) {
    vec::unary(vec::UnOp::kMulScalar, inv, 0.f, y, y, n);
  } else {
    for (int64_t i = 0; i < n; ++i) y[i * st] *= inv;
  }
}

Tensor softmax(const Tensor& a, int64_t dim, const Tensor& out) {
  if (dim < 0) dim += a.dim();
  Tensor result = Tensor::empty_or(out, a.shape());
  const float* pa = a.data();
  float* po = result.data();
  rowwise(a, dim, [&](int64_t off, int64_t n, int64_t st) {
    softmax_row(pa + off, po + off, n, st);
  });
  return result;
}

Tensor log_softmax(const Tensor& a, int64_t dim, const Tensor& out) {
  if (dim < 0) dim += a.dim();
  Tensor result = Tensor::empty_or(out, a.shape());
  const float* pa = a.data();
  float* po = result.data();
  rowwise(a, dim, [&](int64_t off, int64_t n, int64_t st) {
    const float* x = pa + off;
    float* y = po + off;
    const float mx = vec::row_max(x, st, n);
    const float z = vec::row_sumexp(x, st, n, mx, nullptr);
    const float lse = mx + std::log(z);
    if (st == 1) {
      // x - lse == x + (-lse) exactly (negation is exact).
      vec::unary(vec::UnOp::kAddScalar, -lse, 0.f, x, y, n);
    } else {
      for (int64_t i = 0; i < n; ++i) y[i * st] = x[i * st] - lse;
    }
  });
  return result;
}

Tensor log_softmax_backward(const Tensor& gy, const Tensor& log_probs,
                            int64_t dim) {
  if (dim < 0) dim += gy.dim();
  Tensor sum_gy = sum(gy, {dim}, /*keepdim=*/true);
  // gx = gy - exp(log_probs) * sum(gy)
  return sub(gy, mul(exp(log_probs), sum_gy));
}

void softmax_backward_row(const float* gy, const float* y, float* gx,
                          int64_t n, int64_t st) {
  // The roundings of the composed mul(y, sub(gy, sum(mul(gy, y), {dim}))):
  // sum's chain is ascending from +0 along the row (its generic walk and
  // vec::col_sum agree on that), and each output is one subtract and one
  // multiply.
  float dot = 0.f;
  for (int64_t i = 0; i < n; ++i) dot += gy[i * st] * y[i * st];
  for (int64_t i = 0; i < n; ++i) gx[i * st] = y[i * st] * (gy[i * st] - dot);
}

Tensor softmax_backward(const Tensor& gy, const Tensor& y, int64_t dim) {
  if (dim < 0) dim += gy.dim();
  HFTA_CHECK(gy.shape() == y.shape(), "softmax_backward: gy ",
             shape_str(gy.shape()), " vs y ", shape_str(y.shape()));
  Tensor gx = Tensor::empty(y.shape());
  const float* pg = gy.data();
  const float* py = y.data();
  float* px = gx.data();
  rowwise(y, dim, [&](int64_t off, int64_t n, int64_t st) {
    softmax_backward_row(pg + off, py + off, px + off, n, st);
  });
  return gx;
}

namespace {
void check_per_channel(const ChannelView& v,
                       std::initializer_list<const Tensor*> ts) {
  for (const Tensor* t : ts)
    HFTA_CHECK(t->numel() == v.C, "batch_norm: per-channel tensor has ",
               t->numel(), " elements for ", v.C, " channels");
}
}  // namespace

Tensor batch_norm_forward(const Tensor& x, const Tensor& weight,
                          const Tensor& bias, Tensor& mean, Tensor& var,
                          bool training, float eps, const Tensor& out) {
  const ChannelView cv(x);
  check_per_channel(cv, {&weight, &bias, &mean, &var});
  // mean = sum * (1/count), as ag::mean computes it.
  const float inv = 1.f / static_cast<float>(cv.N * cv.S);
  Tensor y = Tensor::empty_or(out, x.shape());
  const float* px = x.data();
  const float* pw = weight.data();
  const float* pb = bias.data();
  float* pm = mean.data();
  float* pv = var.data();
  float* py = y.data();
  // Training makes three passes over a channel (sum, variance, y), eval one.
  parallel_for(cv.partition(training ? 3 : 1), [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      vec::ChannelBlock b = cv.block(k, px, nullptr, py);
      const int64_t c0 = b.c0, nc = cv.lanes(k);
      if (training) {
        float s[vec::kLanes];
        vec::channel_reduce(vec::ChanReduce::kSum, b, s);
        for (int64_t l = 0; l < nc; ++l) pm[c0 + l] = s[l] * inv;
        b.mean = pm + c0;
        vec::channel_reduce(vec::ChanReduce::kSqDev, b, s);
        for (int64_t l = 0; l < nc; ++l) pv[c0 + l] = s[l] * inv;
      }
      float r[vec::kLanes];
      for (int64_t l = 0; l < nc; ++l)
        r[l] = std::pow(pv[c0 + l] + eps, -0.5f);
      b.mean = pm + c0;
      b.rstd = r;
      b.weight = pw + c0;
      b.bias = pb + c0;
      vec::channel_map(vec::ChanMap::kBnY, b);
    }
  });
  return y;
}

NormGrads batch_norm_backward(const Tensor& gy, const Tensor& x,
                              const Tensor& weight, const Tensor& mean,
                              const Tensor& var, bool training, float eps) {
  const ChannelView cv(x);
  check_per_channel(cv, {&weight, &mean, &var});
  HFTA_CHECK(gy.numel() == x.numel(), "batch_norm_backward: gy numel ",
             gy.numel(), " vs x numel ", x.numel());
  const float inv = 1.f / static_cast<float>(cv.N * cv.S);
  NormGrads g;
  g.weight = Tensor::empty({cv.C});
  g.bias = Tensor::empty({cv.C});
  g.x = Tensor::empty(x.shape());
  const float* pg = gy.data();
  const float* px = x.data();
  const float* pw = weight.data();
  const float* pm = mean.data();
  const float* pv = var.data();
  float* pgw = g.weight.data();
  float* pgb = g.bias.data();
  float* pgx = g.x.data();
  // Bit-identical to the engine differentiating the composed chain
  //   m = sum(x) * inv, d = x - m, v = sum(d * d) * inv,
  //   r = pow(v + eps, -0.5), y = ((d * r) * w) + b,
  // whose backward visits y, b, t = xhat * w, w, xhat = d * r, r, v + eps,
  // v, sum(d * d), d * d, the first d, the second d, m, sum(x). Every
  // "0 +" in the vec kernels and below is the engine's first write of a
  // gradient (x + 0) (or sum's add(zeros, g) broadcast), every sum a chain
  // from +0 in (n, s) order. Three passes over each channel: kBnGrads,
  // kBnGradM1 and kBnGxTrain (eval: kBnGrads and kBnGxEval).
  parallel_for(cv.partition(3), [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      vec::ChannelBlock b = cv.block(k, px, pg, pgx);
      const int64_t c0 = b.c0, nc = cv.lanes(k);
      float a[vec::kLanes], r[vec::kLanes];
      for (int64_t l = 0; l < nc; ++l) {
        a[l] = pv[c0 + l] + eps;
        r[l] = std::pow(a[l], -0.5f);
      }
      b.mean = pm + c0;
      b.rstd = r;
      b.weight = pw + c0;
      // Per channel: sum of gy, of gy * xhat, of r's grad terms and of
      // m's grad through the second sub (sums[0..3][l]).
      float sums[4][vec::kLanes];
      vec::channel_reduce(vec::ChanReduce::kBnGrads, b, sums[0]);
      for (int64_t l = 0; l < nc; ++l) {
        pgb[c0 + l] = 0.f + sums[0][l];
        pgw[c0 + l] = 0.f + sums[1][l];
      }
      if (!training) {
        // Running stats are constants: x's only path is the second sub.
        vec::channel_map(vec::ChanMap::kBnGxEval, b);
        continue;
      }
      // r's grad through pow_scalar(-0.5), add_scalar, mul_scalar(inv) and
      // sum's broadcast reaches d * d as one per-channel value g_sq; d * d's
      // backward adds g_sq * d twice into the first sub's grad.
      float g_sq[vec::kLanes], g_s1[vec::kLanes], sum_gm1[vec::kLanes];
      for (int64_t l = 0; l < nc; ++l) {
        const float g_a =
            0.f + (0.f + sums[2][l]) * (std::pow(a[l], -1.5f) * -0.5f);
        const float g_s2 = 0.f + (0.f + g_a) * inv;
        g_sq[l] = 0.f + (0.f + g_s2);
      }
      b.g_sq = g_sq;
      vec::channel_reduce(vec::ChanReduce::kBnGradM1, b, sum_gm1);
      for (int64_t l = 0; l < nc; ++l)
        g_s1[l] = 0.f + ((0.f + sum_gm1[l]) + sums[3][l]) * inv;
      b.g_s1 = g_s1;
      vec::channel_map(vec::ChanMap::kBnGxTrain, b);
    }
  });
  return g;
}

namespace {
// x viewed as [rows, E], the rows split into G runs of `per` rows; run g
// uses row g of the [G, E] affine.
struct RowGroups {
  int64_t rows, E, G, per;

  RowGroups(const Tensor& x, const Tensor& weight, int64_t groups)
      : rows(0), E(0), G(groups), per(0) {
    HFTA_CHECK(groups > 0 && weight.numel() > 0 &&
                   weight.numel() % groups == 0,
               "layer_norm: weight numel ", weight.numel(),
               " is not a positive multiple of ", groups, " groups");
    E = weight.numel() / groups;
    HFTA_CHECK(x.numel() > 0 && x.numel() % (E * groups) == 0,
               "layer_norm: x ", shape_str(x.shape()), " does not split into ",
               groups, " groups of rows of ", E);
    rows = x.numel() / E;
    per = rows / groups;
  }

  void check_stats(const Tensor& mean, const Tensor& var) const {
    HFTA_CHECK(mean.numel() == rows && var.numel() == rows,
               "layer_norm: row statistics have ", mean.numel(), " and ",
               var.numel(), " elements for ", rows, " rows");
  }
};
}  // namespace

Tensor layer_norm_forward(const Tensor& x, const Tensor& weight,
                          const Tensor& bias, int64_t groups, Tensor& mean,
                          Tensor& var, float eps, const Tensor& out) {
  const RowGroups rg(x, weight, groups);
  rg.check_stats(mean, var);
  HFTA_CHECK(bias.numel() == weight.numel(), "layer_norm: bias has ",
             bias.numel(), " elements, weight ", weight.numel());
  const int64_t E = rg.E;
  // mean = sum * (1/E), as ag::mean computes it.
  const float inv = 1.f / static_cast<float>(E);
  Tensor y = Tensor::empty_or(out, x.shape());
  const float* px = x.data();
  const float* pw = weight.data();
  const float* pb = bias.data();
  float* pm = mean.data();
  float* pv = var.data();
  float* py = y.data();
  // Three passes over each row (sum, variance, y).
  parallel_for(Partition::work(rg.rows, 3 * E), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * E;
      float s1 = 0.f;
      for (int64_t e = 0; e < E; ++e) s1 += xr[e];
      const float m = s1 * inv;
      float s2 = 0.f;
      for (int64_t e = 0; e < E; ++e) {
        const float d = xr[e] - m;
        s2 += d * d;
      }
      pm[r] = m;
      pv[r] = s2 * inv;
      const float rs = std::pow(pv[r] + eps, -0.5f);
      const float* w = pw + (r / rg.per) * E;
      const float* b = pb + (r / rg.per) * E;
      float* yr = py + r * E;
      for (int64_t e = 0; e < E; ++e) yr[e] = ((xr[e] - m) * rs) * w[e] + b[e];
    }
  });
  return y;
}

NormGrads layer_norm_backward(const Tensor& gy, const Tensor& x,
                              const Tensor& weight, const Tensor& mean,
                              const Tensor& var, int64_t groups, float eps) {
  const RowGroups rg(x, weight, groups);
  rg.check_stats(mean, var);
  HFTA_CHECK(gy.numel() == x.numel(), "layer_norm_backward: gy numel ",
             gy.numel(), " vs x numel ", x.numel());
  const int64_t E = rg.E;
  const float inv = 1.f / static_cast<float>(E);
  NormGrads g;
  g.x = Tensor::empty(x.shape());
  g.weight = Tensor::empty(weight.shape());
  g.bias = Tensor::empty(weight.shape());
  Tensor rstd = Tensor::empty({rg.rows});
  const float* pg = gy.data();
  const float* px = x.data();
  const float* pw = weight.data();
  const float* pm = mean.data();
  const float* pv = var.data();
  float* prs = rstd.data();
  float* pgx = g.x.data();
  float* pgw = g.weight.data();
  float* pgb = g.bias.data();
  // Bit-identical to the engine differentiating the composed chain
  //   m = sum(x) * inv, c = x - m, v = sum(c * c) * inv,
  //   r = pow(v + eps, -0.5), y = ((c * r) * w) + b,
  // whose backward visits y, t = xhat * w, xhat = c * r, r, v + eps, v,
  // sum(c * c), c * c, c, m, sum(x). c collects three contributions (from
  // xhat, then twice from c * c) and x two (from c, then from sum(x)).
  // Every "0.f +" is the engine's first write of a gradient (x + 0) (or
  // sum's add(zeros, g) broadcast), every row sum a chain from +0. Three
  // passes over each row.
  parallel_for(Partition::work(rg.rows, 3 * E), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* gr = pg + r * E;
      const float* xr = px + r * E;
      const float* w = pw + (r / rg.per) * E;
      float* gxr = pgx + r * E;
      const float m = pm[r];
      const float a = pv[r] + eps;
      const float rs = std::pow(a, -0.5f);
      prs[r] = rs;
      // xhat's grad: through y and t.
      auto g_xh = [&](int64_t e) { return 0.f + (0.f + gr[e]) * w[e]; };
      float sum_gr = 0.f;
      for (int64_t e = 0; e < E; ++e) sum_gr += g_xh(e) * (xr[e] - m);
      // r's grad through pow_scalar(-0.5), add_scalar, mul_scalar(inv) and
      // sum's broadcast reaches c * c as one per-row value.
      const float g_a =
          0.f + (0.f + sum_gr) * (std::pow(a, -1.5f) * -0.5f);
      const float g_s2 = 0.f + (0.f + g_a) * inv;
      const float g_sq = 0.f + (0.f + g_s2);
      float sum_gm = 0.f;
      for (int64_t e = 0; e < E; ++e) {
        const float t = g_sq * (xr[e] - m);
        const float gc = ((0.f + g_xh(e) * rs) + t) + t;
        gxr[e] = gc;
        sum_gm += -gc;
      }
      const float g_s1 = 0.f + (0.f + sum_gm) * inv;
      for (int64_t e = 0; e < E; ++e)
        gxr[e] = (0.f + gxr[e]) + (0.f + g_s1);
    }
  });
  // weight/bias: per group and column, one ascending-row chain from +0 (the
  // order of reduce_to_shape's col_sum) over gy and (0 + gy) * xhat.
  parallel_for(Partition::work(rg.G, rg.per * E), [&](int64_t lo, int64_t hi) {
    for (int64_t gi = lo; gi < hi; ++gi) {
      float* gw = pgw + gi * E;
      float* gb = pgb + gi * E;
      std::fill(gw, gw + E, 0.f);
      std::fill(gb, gb + E, 0.f);
      for (int64_t r = gi * rg.per; r < (gi + 1) * rg.per; ++r) {
        const float* gr = pg + r * E;
        const float* xr = px + r * E;
        const float m = pm[r];
        const float rs = prs[r];
        for (int64_t e = 0; e < E; ++e) {
          gb[e] += gr[e];
          gw[e] += (0.f + gr[e]) * ((xr[e] - m) * rs);
        }
      }
    }
  });
  return g;
}

namespace {
// Table row read by entry i of `indices`: its id, plus g * block_vocab for
// the g-th of `groups` equal runs of ids (per_run entries each), which reads
// block g of a stacked table. A stacked id is checked against its own
// block, so an out-of-range id throws (as the per-model table would)
// instead of reaching model g+1's rows.
inline int64_t embedding_row(const float* pi, int64_t i, int64_t per_run,
                             int64_t block_vocab, int64_t groups) {
  const int64_t v = static_cast<int64_t>(pi[i]);
  if (groups == 1) return v;
  HFTA_CHECK(v >= 0 && v < block_vocab, "embedding: index ", v,
             " out of per-model vocab ", block_vocab);
  return v + (i / per_run) * block_vocab;
}

int64_t embedding_per_run(const Tensor& indices, int64_t vocab,
                          int64_t groups) {
  HFTA_CHECK(groups >= 1 && vocab % groups == 0 &&
                 indices.numel() % groups == 0,
             "embedding: ", groups, " groups for ", indices.numel(),
             " ids and a table of ", vocab, " rows");
  return indices.numel() / groups;
}
}  // namespace

Tensor embedding(const Tensor& indices, const Tensor& weight, int64_t groups,
                 const Tensor& out) {
  HFTA_CHECK(weight.dim() == 2, "embedding weight must be [V, E]");
  const int64_t V = weight.size(0);
  const int64_t E = weight.size(1);
  Shape out_shape = indices.shape();
  out_shape.push_back(E);
  Tensor y = Tensor::empty_or(out, out_shape);
  const float* pi = indices.data();
  const float* pw = weight.data();
  float* po = y.data();
  const int64_t n = indices.numel();
  const int64_t per_run = embedding_per_run(indices, V, groups);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = embedding_row(pi, i, per_run, V / groups, groups);
    HFTA_CHECK(v >= 0 && v < V, "embedding: index ", v, " out of vocab ", V);
    std::memcpy(po + i * E, pw + v * E, sizeof(float) * static_cast<size_t>(E));
  }
  return y;
}

Tensor embedding_backward(const Tensor& grad_out, const Tensor& indices,
                          int64_t vocab, int64_t groups) {
  const int64_t E = grad_out.size(-1);
  Tensor gw({vocab, E});
  const float* pg = grad_out.data();
  const float* pi = indices.data();
  float* pw = gw.data();
  const int64_t n = indices.numel();
  const int64_t per_run = embedding_per_run(indices, vocab, groups);
  const int64_t block_vocab = vocab / groups;
  // Validate the ids here: parallel bodies must not throw.
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = embedding_row(pi, i, per_run, block_vocab, groups);
    HFTA_CHECK(v >= 0 && v < vocab, "embedding: index ", v, " out of vocab ",
               vocab);
  }
  // Vocab-row-parallel scatter: each chunk owns rows [lo, hi) and scans the
  // whole index list, so no two chunks write the same row and every row's
  // adds happen in ascending i — the exact serial chain. A row's work is its
  // share of the n x E adds.
  parallel_for(Partition::work(vocab, n * E / std::max<int64_t>(vocab, 1)),
               [&](int64_t lo, int64_t hi) {
    for (int64_t i = 0; i < n; ++i) {
      const int64_t v = embedding_row(pi, i, per_run, block_vocab, groups);
      if (v < lo || v >= hi) continue;
      float* row = pw + v * E;
      vec::binary(vec::BinOp::kAdd, row, pg + i * E, row, E);
    }
  });
  return gw;
}

double accuracy(const Tensor& logits, const Tensor& labels) {
  Tensor pred = argmax(logits, -1);
  HFTA_CHECK(pred.numel() == labels.numel(), "accuracy: shape mismatch");
  const float* pp = pred.data();
  const float* pl = labels.data();
  int64_t hit = 0;
  for (int64_t i = 0; i < pred.numel(); ++i) {
    if (static_cast<int64_t>(pp[i]) == static_cast<int64_t>(pl[i])) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(pred.numel());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  HFTA_CHECK(a.numel() == b.numel(), "max_abs_diff: numel mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float m = 0.f;
  for (int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

}  // namespace hfta::ops
