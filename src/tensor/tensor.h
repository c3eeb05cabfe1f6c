// Dense N-d float32 tensor.
//
// Design: tensors are always contiguous row-major. Copying a Tensor is a
// shallow copy (shared storage, like torch.Tensor); clone() deep-copies.
// reshape() shares storage; transpose()/permute() materialize a contiguous
// result (simplicity over view tricks — all kernels then run on contiguous
// memory). Every tensor stores f32: mixed precision is a quantize policy
// the GEMM/conv kernels apply while packing their operands (see
// autograd/autocast.h), not a storage type. Integer data (labels, token
// ids, pooling indices) is stored in f32 tensors holding exact small
// integers.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "core/storage_pool.h"

namespace hfta {

using Shape = std::vector<int64_t>;

/// Returns a human-readable "[2, 3, 4]" rendering of a shape.
std::string shape_str(const Shape& s);

/// Product of all dims (1 for rank-0 / empty shape).
int64_t shape_numel(const Shape& s);

class Tensor {
 public:
  /// Undefined tensor (no storage). defined() == false. User-provided, not
  /// `= default`: the default arguments below construct a Tensor inside
  /// the class, before its member initializers are complete.
  Tensor() {}

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // -- factories ------------------------------------------------------------
  static Tensor zeros(Shape shape);
  /// UNINITIALIZED storage of the given shape: the caller must overwrite
  /// every element before reading any. This is the fast path for kernels
  /// and factories whose output is fully written (no zero-fill, and a
  /// recycled pool buffer is handed over as-is).
  static Tensor empty(Shape shape);
  /// A kernel's output buffer: `dst` itself when it is defined (its shape
  /// must equal `shape`), else empty(shape). Kernels take an optional
  /// destination this way so a replayed step program can hand each op its
  /// pinned output; either way the storage is uninitialized to the kernel.
  static Tensor empty_or(const Tensor& dst, Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Standard-normal entries drawn from `rng`.
  static Tensor randn(Shape shape, Rng& rng);
  /// Uniform [lo, hi) entries drawn from `rng`.
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.f, float hi = 1.f);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(int64_t n);
  /// Copies `values` (size must equal shape_numel(shape)).
  static Tensor from_data(Shape shape, const std::vector<float>& values);

  // -- metadata -------------------------------------------------------------
  bool defined() const { return static_cast<bool>(storage_); }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  const Shape& shape() const { return shape_; }
  /// Size along dim `d`; negative d counts from the end.
  int64_t size(int64_t d) const;
  int64_t numel() const { return numel_; }

  // -- raw access -----------------------------------------------------------
  float* data() { return storage_.data(); }
  const float* data() const { return storage_.data(); }
  /// Element accessor for tests / debugging (slow).
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;
  /// Value of a single-element tensor.
  float item() const;

  // -- shape manipulation (storage-sharing unless noted) ---------------------
  /// Same storage, new shape; one dim may be -1 (inferred).
  Tensor reshape(Shape shape) const;
  /// reshape with a leading dim inserted.
  Tensor unsqueeze(int64_t d) const;
  /// remove a size-1 dim.
  Tensor squeeze(int64_t d) const;
  /// Deep copy.
  Tensor clone() const;
  // The materializing ops below write into `out` when it is defined (see
  // empty_or).
  /// Materialized transpose of dims a, b.
  Tensor transpose(int64_t a, int64_t b, const Tensor& out = Tensor()) const;
  /// Materialized permutation; perm must be a permutation of 0..dim-1.
  Tensor permute(const std::vector<int64_t>& perm,
                 const Tensor& out = Tensor()) const;
  /// Materialized copy of rows [start, end) along `d`.
  Tensor slice(int64_t d, int64_t start, int64_t end,
               const Tensor& out = Tensor()) const;

  // -- in-place helpers -------------------------------------------------------
  void fill_(float v);
  void zero_() { fill_(0.f); }
  /// this += alpha * other (same shape).
  void add_(const Tensor& other, float alpha = 1.f);
  /// this *= s.
  void mul_(float s);
  /// Copies values from `other` (same numel) into this tensor's storage.
  void copy_(const Tensor& other);

  /// True when the two tensors share the same storage buffer.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  /// Flattened contents as a vector (for tests).
  std::vector<float> to_vector() const;

  // Allocation instrumentation lives on StoragePool::stats() and
  // IterationScope::Stats (one snapshot struct), not on Tensor.

 private:
  StorageRef storage_;  // pool-recycled block with intrusive refcount
  Shape shape_;
  int64_t numel_ = 0;

  int64_t flat_index(std::initializer_list<int64_t> idx) const;
};

}  // namespace hfta
