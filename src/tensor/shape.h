// Tensor shapes, with support for unspecified ("wildcard") dimensions.
//
// Spaces describe tensors whose batch/time extents are unknown until runtime;
// those ranks are represented as -1 (kUnknownDim). Concrete tensors always
// have fully-specified shapes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace rlgraph {

inline constexpr int64_t kUnknownDim = -1;

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }
  const std::vector<int64_t>& dims() const { return dims_; }

  bool is_scalar() const { return dims_.empty(); }
  // True iff no dimension is kUnknownDim.
  bool fully_specified() const;
  // Number of elements; requires fully_specified().
  int64_t num_elements() const;

  // Structural equality (unknown dims must match exactly).
  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // True if `concrete` (fully specified) is an instance of this possibly
  // partial shape: same rank, and every known dim matches.
  bool matches(const Shape& concrete) const;

  // Returns a copy with dimension `axis` replaced.
  Shape with_dim(int axis, int64_t value) const;
  // Returns a copy with a new dimension inserted at the front.
  Shape prepend(int64_t value) const;
  // Concatenate two shapes.
  Shape concat(const Shape& other) const;
  // Drop the first `n` dimensions.
  Shape drop_front(int n) const;

  std::string to_string() const;

 private:
  std::vector<int64_t> dims_;
};

// Result shape of broadcasting two shapes together (numpy rules restricted to
// "same rank, or one side has size-1/missing leading dims").
Shape broadcast_shapes(const Shape& a, const Shape& b);

// True if `prefix` has at most `shape`'s rank and its dims equal `shape`'s
// leading dims; an unknown dim on either side matches any dim.
bool is_leading_prefix(const Shape& prefix, const Shape& shape);

}  // namespace rlgraph
