// Dense n-dimensional array with shared, immutable-by-convention storage.
//
// Tensors are cheap to copy (shared buffer). Kernels allocate fresh output
// buffers; in-place mutation is reserved for variable storage, which always
// owns a unique buffer (see clone()).
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/shape.h"
#include "util/errors.h"

namespace rlgraph {

class Tensor {
 public:
  // Default: empty float scalar-less tensor (rank-0 with one element 0).
  Tensor();

  // Uninitialized tensor of the given dtype/shape (shape must be fully
  // specified).
  Tensor(DType dtype, const Shape& shape);

  // Zero-filled factory.
  static Tensor zeros(DType dtype, const Shape& shape);
  static Tensor filled(DType dtype, const Shape& shape, double value);

  // Scalar factories.
  static Tensor scalar(float v);
  static Tensor scalar_int(int32_t v);
  static Tensor scalar_bool(bool v);

  // Build from a flat vector (row-major); size must match shape.
  static Tensor from_floats(const Shape& shape, std::vector<float> values);
  static Tensor from_ints(const Shape& shape, std::vector<int32_t> values);
  static Tensor from_bools(const Shape& shape, const std::vector<bool>& values);

  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  int64_t num_elements() const { return num_elements_; }
  size_t byte_size() const {
    return static_cast<size_t>(num_elements_) * dtype_size(dtype_);
  }

  // Typed element access. T must match dtype (checked).
  template <typename T>
  const T* data() const {
    check_type<T>();
    return static_cast<const T*>(buffer_.get());
  }
  template <typename T>
  T* mutable_data() {
    check_type<T>();
    return static_cast<T*>(buffer_.get());
  }
  const void* raw() const { return buffer_.get(); }
  void* mutable_raw() { return buffer_.get(); }

  // Convenience scalar extraction (converts across numeric dtypes).
  double scalar_value() const;
  // Element i (flat index) converted to double.
  double at_flat(int64_t i) const;
  void set_flat(int64_t i, double v);

  // Deep copy with a freshly owned buffer.
  Tensor clone() const;

  // Same buffer, different shape (element count must match).
  Tensor reshaped(const Shape& shape) const;

  // Same buffer, only the first `rows` rows along dim 0 (0 <= rows <=
  // dim(0)). Row-major storage makes the prefix contiguous.
  Tensor leading_rows(int64_t rows) const;

  // Converts to the target dtype (element-wise cast).
  Tensor cast(DType target) const;

  // Flat copies out / in.
  std::vector<float> to_floats() const;
  std::vector<int32_t> to_ints() const;

  // True if same dtype/shape and bitwise-equal contents.
  bool equals(const Tensor& other) const;
  // True if same dtype/shape and max abs diff <= tol (numeric dtypes).
  bool all_close(const Tensor& other, double tol = 1e-6) const;

  std::string to_string(int64_t max_elements = 16) const;

 private:
  template <typename T>
  void check_type() const {
    constexpr DType want = DTypeOf<std::remove_cv_t<T>>::value;
    // Bool tensors are stored as bytes and may be accessed as uint8_t.
    RLG_REQUIRE(want == dtype_ ||
                    (want == DType::kUInt8 && dtype_ == DType::kBool),
                "tensor dtype mismatch: have " << dtype_name(dtype_));
  }

  DType dtype_;
  Shape shape_;
  int64_t num_elements_;
  std::shared_ptr<void> buffer_;
};

// Checked shape/dtype assertion helpers for kernels.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);
void check_dtype(const Tensor& t, DType expected, const char* op);

// --- batching by leading dimension -------------------------------------------
// The serving batcher coalesces per-request tensors into one batched plan
// run with these: stack_leading([x_1..x_n]) -> [n, ...] and
// unstack_leading([n, ...]) -> n tensors of shape [...]. All parts must
// share dtype and shape (ValueError otherwise).
Tensor stack_leading(const std::vector<Tensor>& parts);
std::vector<Tensor> unstack_leading(const Tensor& batch);

}  // namespace rlgraph
