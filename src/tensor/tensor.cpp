#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"

namespace hfta {

std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << s[i];
  }
  os << "]";
  return os.str();
}

int64_t shape_numel(const Shape& s) {
  int64_t n = 1;
  for (int64_t d : s) n *= d;
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  for (int64_t d : shape_) HFTA_CHECK(d >= 0, "negative dim in ", shape_str(shape_));
  numel_ = shape_numel(shape_);
  storage_ = StoragePool::instance().acquire(numel_, /*zeroed=*/true);
}

Tensor Tensor::empty(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  for (int64_t d : t.shape_)
    HFTA_CHECK(d >= 0, "negative dim in ", shape_str(t.shape_));
  t.numel_ = shape_numel(t.shape_);
  t.storage_ = StoragePool::instance().acquire(t.numel_, /*zeroed=*/false);
  return t;
}

Tensor Tensor::empty_or(const Tensor& dst, Shape shape) {
  if (!dst.defined()) return empty(std::move(shape));
  HFTA_CHECK(dst.shape_ == shape, "destination ", shape_str(dst.shape_),
             " for a result of shape ", shape_str(shape));
  return dst;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = empty(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng) {
  Tensor t = empty(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = static_cast<float>(rng.normal());
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = empty(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::arange(int64_t n) {
  Tensor t = empty({n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::from_data(Shape shape, const std::vector<float>& values) {
  Tensor t = empty(std::move(shape));
  HFTA_CHECK(static_cast<int64_t>(values.size()) == t.numel(),
             "from_data: ", values.size(), " values for shape ",
             shape_str(t.shape()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

int64_t Tensor::size(int64_t d) const {
  const int64_t nd = dim();
  if (d < 0) d += nd;
  HFTA_CHECK(d >= 0 && d < nd, "size(", d, ") on rank-", nd, " tensor");
  return shape_[static_cast<size_t>(d)];
}

int64_t Tensor::flat_index(std::initializer_list<int64_t> idx) const {
  HFTA_CHECK(static_cast<int64_t>(idx.size()) == dim(), "at(): rank mismatch");
  int64_t flat = 0;
  size_t k = 0;
  for (int64_t i : idx) {
    HFTA_CHECK(i >= 0 && i < shape_[k], "at(): index ", i, " out of bounds for dim ",
               k, " of ", shape_str(shape_));
    flat = flat * shape_[k] + i;
    ++k;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data()[flat_index(idx)];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data()[flat_index(idx)];
}

float Tensor::item() const {
  HFTA_CHECK(numel_ == 1, "item() on tensor with ", numel_, " elements");
  return data()[0];
}

Tensor Tensor::reshape(Shape shape) const {
  HFTA_CHECK(defined(), "reshape of undefined tensor");
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      HFTA_CHECK(infer == -1, "reshape: more than one -1 in ", shape_str(shape));
      infer = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    HFTA_CHECK(known > 0 && numel_ % known == 0, "reshape: cannot infer dim for ",
               shape_str(shape), " from numel ", numel_);
    shape[static_cast<size_t>(infer)] = numel_ / known;
  }
  HFTA_CHECK(shape_numel(shape) == numel_, "reshape ", shape_str(shape_), " -> ",
             shape_str(shape), ": numel mismatch");
  Tensor t;
  t.storage_ = storage_;
  t.shape_ = std::move(shape);
  t.numel_ = numel_;
  return t;
}

Tensor Tensor::unsqueeze(int64_t d) const {
  Shape s = shape_;
  if (d < 0) d += dim() + 1;
  HFTA_CHECK(d >= 0 && d <= dim(), "unsqueeze(", d, ") on rank-", dim());
  s.insert(s.begin() + d, 1);
  return reshape(std::move(s));
}

Tensor Tensor::squeeze(int64_t d) const {
  if (d < 0) d += dim();
  HFTA_CHECK(d >= 0 && d < dim() && shape_[static_cast<size_t>(d)] == 1,
             "squeeze(", d, ") on ", shape_str(shape_));
  Shape s = shape_;
  s.erase(s.begin() + d);
  return reshape(std::move(s));
}

Tensor Tensor::clone() const {
  HFTA_CHECK(defined(), "clone of undefined tensor");
  Tensor t = empty(shape_);
  std::memcpy(t.storage_.data(), storage_.data(),
              sizeof(float) * static_cast<size_t>(numel_));
  return t;
}

Tensor Tensor::permute(const std::vector<int64_t>& perm,
                       const Tensor& out) const {
  const int64_t nd = dim();
  HFTA_CHECK(static_cast<int64_t>(perm.size()) == nd, "permute rank mismatch");
  std::vector<bool> seen(static_cast<size_t>(nd), false);
  Shape out_shape(static_cast<size_t>(nd));
  for (int64_t i = 0; i < nd; ++i) {
    const int64_t p = perm[static_cast<size_t>(i)];
    HFTA_CHECK(p >= 0 && p < nd && !seen[static_cast<size_t>(p)],
               "permute: invalid permutation");
    seen[static_cast<size_t>(p)] = true;
    out_shape[static_cast<size_t>(i)] = shape_[static_cast<size_t>(p)];
  }
  // Strides of the source in its own layout.
  std::vector<int64_t> src_strides(static_cast<size_t>(nd), 1);
  for (int64_t i = nd - 2; i >= 0; --i)
    src_strides[static_cast<size_t>(i)] =
        src_strides[static_cast<size_t>(i + 1)] * shape_[static_cast<size_t>(i + 1)];

  Tensor y = empty_or(out, out_shape);
  const float* src = data();
  float* dst = y.data();
  // Each chunk derives its start as a mixed-radix index over out_shape,
  // then walks its outputs in order (one copy each). The index slots are
  // allocated here, one per chunk, so the body allocates nothing.
  const Partition part = Partition::elems(numel_);
  std::vector<int64_t> idx_all(static_cast<size_t>(part.num_chunks() * nd));
  parallel_for(part, [&](int64_t lo, int64_t hi) {
    int64_t* idx = idx_all.data() + part.chunk_index(lo) * nd;
    for (int64_t i = nd - 1, rest = lo; i >= 0; --i) {
      idx[i] = rest % out_shape[static_cast<size_t>(i)];
      rest /= out_shape[static_cast<size_t>(i)];
    }
    for (int64_t flat = lo; flat < hi; ++flat) {
      int64_t src_off = 0;
      for (int64_t i = 0; i < nd; ++i)
        src_off += idx[i] * src_strides[static_cast<size_t>(
                                perm[static_cast<size_t>(i)])];
      dst[flat] = src[src_off];
      // increment mixed-radix index over out_shape
      for (int64_t i = nd - 1; i >= 0; --i) {
        if (++idx[i] < out_shape[static_cast<size_t>(i)]) break;
        idx[i] = 0;
      }
    }
  });
  return y;
}

Tensor Tensor::transpose(int64_t a, int64_t b, const Tensor& out) const {
  const int64_t nd = dim();
  if (a < 0) a += nd;
  if (b < 0) b += nd;
  HFTA_CHECK(a >= 0 && a < nd && b >= 0 && b < nd, "transpose dims out of range");
  std::vector<int64_t> perm(static_cast<size_t>(nd));
  std::iota(perm.begin(), perm.end(), 0);
  std::swap(perm[static_cast<size_t>(a)], perm[static_cast<size_t>(b)]);
  return permute(perm, out);
}

Tensor Tensor::slice(int64_t d, int64_t start, int64_t end,
                     const Tensor& out) const {
  const int64_t nd = dim();
  if (d < 0) d += nd;
  HFTA_CHECK(d >= 0 && d < nd, "slice dim out of range");
  const int64_t n = shape_[static_cast<size_t>(d)];
  HFTA_CHECK(0 <= start && start <= end && end <= n, "slice [", start, ", ", end,
             ") out of range for dim of size ", n);
  Shape out_shape = shape_;
  out_shape[static_cast<size_t>(d)] = end - start;
  Tensor y = empty_or(out, out_shape);
  // View the tensor as [outer, n, inner]; copy rows [start, end).
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < d; ++i) outer *= shape_[static_cast<size_t>(i)];
  for (int64_t i = d + 1; i < nd; ++i) inner *= shape_[static_cast<size_t>(i)];
  const float* src = data();
  float* dst = y.data();
  const int64_t len = end - start;
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(dst + o * len * inner, src + (o * n + start) * inner,
                sizeof(float) * static_cast<size_t>(len * inner));
  }
  return y;
}

// The in-place ops are elementwise maps, one operation per element, run
// over the same size-only partition as ops::unary: no split moves a bit.
void Tensor::fill_(float v) {
  float* p = data();
  parallel_for(Partition::elems(numel_), [&](int64_t lo, int64_t hi) {
    vec::fill(v, p + lo, hi - lo);
  });
}

void Tensor::add_(const Tensor& other, float alpha) {
  HFTA_CHECK(numel_ == other.numel_, "add_: numel mismatch ", numel_, " vs ",
             other.numel_);
  // p[i] += alpha * o[i], separate mul + add (vec::axpy's exact contract).
  const float* po = other.data();
  float* p = data();
  parallel_for(Partition::elems(numel_), [&](int64_t lo, int64_t hi) {
    vec::axpy(alpha, po + lo, p + lo, hi - lo);
  });
}

void Tensor::mul_(float s) {
  float* p = data();
  parallel_for(Partition::elems(numel_), [&](int64_t lo, int64_t hi) {
    vec::unary(vec::UnOp::kMulScalar, s, 0.f, p + lo, p + lo, hi - lo);
  });
}

void Tensor::copy_(const Tensor& other) {
  HFTA_CHECK(numel_ == other.numel_, "copy_: numel mismatch");
  const float* po = other.data();
  float* p = data();
  parallel_for(Partition::elems(numel_), [&](int64_t lo, int64_t hi) {
    std::memcpy(p + lo, po + lo, sizeof(float) * static_cast<size_t>(hi - lo));
  });
}

std::vector<float> Tensor::to_vector() const {
  return std::vector<float>(data(), data() + numel_);
}

}  // namespace hfta
