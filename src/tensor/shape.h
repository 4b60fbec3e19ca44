// Tensor shapes, with support for unspecified ("wildcard") dimensions.
//
// Spaces describe tensors whose batch/time extents are unknown until runtime;
// those ranks are represented as -1 (kUnknownDim). Concrete tensors always
// have fully-specified shapes.
//
// Up to kInlineRank dims are stored inside the Shape itself, so copying,
// comparing and deriving the shapes every kernel produces never touches the
// heap; only a shape of higher rank spills its dims to a heap array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace rlgraph {

inline constexpr int64_t kUnknownDim = -1;

// Read-only view of a shape's dims; valid while the shape is alive and not
// assigned to.
class DimsView {
 public:
  DimsView(const int64_t* data, int size) : data_(data), size_(size) {}
  const int64_t* begin() const { return data_; }
  const int64_t* end() const { return data_ + size_; }
  size_t size() const { return static_cast<size_t>(size_); }
  bool empty() const { return size_ == 0; }
  int64_t operator[](size_t i) const { return data_[i]; }
  std::vector<int64_t> to_vector() const { return {begin(), end()}; }

 private:
  const int64_t* data_;
  int size_;
};

class Shape {
 public:
  // Dims stored inline; higher ranks spill to the heap.
  static constexpr int kInlineRank = 8;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(const std::vector<int64_t>& dims);
  Shape(const int64_t* dims, int rank);
  Shape(const Shape& other);
  Shape(Shape&& other) noexcept;
  Shape& operator=(const Shape& other);
  Shape& operator=(Shape&& other) noexcept;
  ~Shape() { release(); }

  int rank() const { return rank_; }
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }
  DimsView dims() const { return DimsView(data(), rank_); }

  bool is_scalar() const { return rank_ == 0; }
  // True iff no dimension is kUnknownDim.
  bool fully_specified() const;
  // Number of elements; requires fully_specified().
  int64_t num_elements() const;

  // Structural equality (unknown dims must match exactly).
  bool operator==(const Shape& other) const;
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // True if `concrete` (fully specified) is an instance of this possibly
  // partial shape: same rank, and every known dim matches.
  bool matches(const Shape& concrete) const;

  // Returns a copy with dimension `axis` replaced.
  Shape with_dim(int axis, int64_t value) const;
  // Returns a copy with a new dimension inserted at the front.
  Shape prepend(int64_t value) const;
  // Returns a copy with a new dimension inserted before `axis`
  // (0 <= axis <= rank).
  Shape insert_dim(int axis, int64_t value) const;
  // Returns a copy without dimension `axis`.
  Shape remove_dim(int axis) const;
  // Concatenate two shapes.
  Shape concat(const Shape& other) const;
  // Drop the first `n` dimensions.
  Shape drop_front(int n) const;

  std::string to_string() const;

 private:
  const int64_t* data() const {
    return rank_ <= kInlineRank ? inline_ : heap_;
  }
  int64_t* data() { return rank_ <= kInlineRank ? inline_ : heap_; }
  // Sets the rank, spilling to the heap above kInlineRank; dims are left
  // for the caller to fill. Requires an empty (rank-0) shape.
  void allocate(int rank);
  void release();

  int rank_ = 0;
  union {
    int64_t inline_[kInlineRank];
    int64_t* heap_;
  };
};

// Result shape of broadcasting two shapes together (numpy rules restricted to
// "same rank, or one side has size-1/missing leading dims").
Shape broadcast_shapes(const Shape& a, const Shape& b);

// True if `prefix` has at most `shape`'s rank and its dims equal `shape`'s
// leading dims; an unknown dim on either side matches any dim.
bool is_leading_prefix(const Shape& prefix, const Shape& shape);

}  // namespace rlgraph
