#include "tensor/shape.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/errors.h"

namespace rlgraph {

void Shape::allocate(int rank) {
  if (rank > kInlineRank) heap_ = new int64_t[static_cast<size_t>(rank)];
  rank_ = rank;
}

void Shape::release() {
  if (rank_ > kInlineRank) delete[] heap_;
  rank_ = 0;
}

Shape::Shape(const int64_t* dims, int rank) {
  allocate(rank);
  if (rank > 0) std::memcpy(data(), dims, sizeof(int64_t) * rank);
}

Shape::Shape(std::initializer_list<int64_t> dims)
    : Shape(dims.begin(), static_cast<int>(dims.size())) {}

Shape::Shape(const std::vector<int64_t>& dims)
    : Shape(dims.data(), static_cast<int>(dims.size())) {}

Shape::Shape(const Shape& other) : Shape(other.data(), other.rank_) {}

Shape::Shape(Shape&& other) noexcept : rank_(other.rank_) {
  if (rank_ > kInlineRank) {
    heap_ = other.heap_;
  } else if (rank_ > 0) {
    std::memcpy(inline_, other.inline_, sizeof(int64_t) * rank_);
  }
  other.rank_ = 0;
}

Shape& Shape::operator=(const Shape& other) {
  if (this == &other) return *this;
  if (rank_ != other.rank_) {
    release();
    allocate(other.rank_);
  }
  if (rank_ > 0) std::memcpy(data(), other.data(), sizeof(int64_t) * rank_);
  return *this;
}

Shape& Shape::operator=(Shape&& other) noexcept {
  if (this == &other) return *this;
  release();
  rank_ = other.rank_;
  if (rank_ > kInlineRank) {
    heap_ = other.heap_;
  } else if (rank_ > 0) {
    std::memcpy(inline_, other.inline_, sizeof(int64_t) * rank_);
  }
  other.rank_ = 0;
  return *this;
}

int64_t Shape::dim(int i) const {
  RLG_REQUIRE(i >= 0 && i < rank_,
              "shape dim index " << i << " out of range for rank " << rank_);
  return data()[i];
}

bool Shape::fully_specified() const {
  const int64_t* d = data();
  return std::all_of(d, d + rank_, [](int64_t x) { return x >= 0; });
}

int64_t Shape::num_elements() const {
  RLG_REQUIRE(fully_specified(),
              "num_elements on partial shape " << to_string());
  const int64_t* d = data();
  int64_t n = 1;
  for (int i = 0; i < rank_; ++i) n *= d[i];
  return n;
}

bool Shape::operator==(const Shape& other) const {
  return rank_ == other.rank_ &&
         std::equal(data(), data() + rank_, other.data());
}

bool Shape::matches(const Shape& concrete) const {
  if (rank_ != concrete.rank_) return false;
  const int64_t* d = data();
  const int64_t* c = concrete.data();
  for (int i = 0; i < rank_; ++i) {
    if (d[i] != kUnknownDim && d[i] != c[i]) return false;
  }
  return true;
}

Shape Shape::with_dim(int axis, int64_t value) const {
  RLG_REQUIRE(axis >= 0 && axis < rank(),
              "with_dim axis " << axis << " out of range");
  Shape s = *this;
  s.data()[axis] = value;
  return s;
}

Shape Shape::prepend(int64_t value) const { return insert_dim(0, value); }

Shape Shape::insert_dim(int axis, int64_t value) const {
  RLG_REQUIRE(axis >= 0 && axis <= rank_,
              "insert_dim axis " << axis << " out of range for rank "
                                 << rank_);
  Shape s;
  s.allocate(rank_ + 1);
  const int64_t* src = data();
  int64_t* dst = s.data();
  std::copy(src, src + axis, dst);
  dst[axis] = value;
  std::copy(src + axis, src + rank_, dst + axis + 1);
  return s;
}

Shape Shape::remove_dim(int axis) const {
  RLG_REQUIRE(axis >= 0 && axis < rank_,
              "remove_dim axis " << axis << " out of range for rank "
                                 << rank_);
  Shape s;
  s.allocate(rank_ - 1);
  const int64_t* src = data();
  int64_t* dst = s.data();
  std::copy(src, src + axis, dst);
  std::copy(src + axis + 1, src + rank_, dst + axis);
  return s;
}

Shape Shape::concat(const Shape& other) const {
  Shape s;
  s.allocate(rank_ + other.rank_);
  std::copy(data(), data() + rank_, s.data());
  std::copy(other.data(), other.data() + other.rank_, s.data() + rank_);
  return s;
}

Shape Shape::drop_front(int n) const {
  RLG_REQUIRE(n >= 0 && n <= rank(), "drop_front(" << n << ") on rank "
                                                   << rank());
  return Shape(data() + n, rank_ - n);
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << "(";
  const int64_t* d = data();
  for (int i = 0; i < rank_; ++i) {
    if (i > 0) os << ", ";
    if (d[i] == kUnknownDim) {
      os << "?";
    } else {
      os << d[i];
    }
  }
  os << ")";
  return os.str();
}

Shape broadcast_shapes(const Shape& a, const Shape& b) {
  // Align trailing dimensions.
  const Shape& longer = a.rank() >= b.rank() ? a : b;
  Shape out = longer;
  const int rank = out.rank();
  for (int i = 0; i < rank; ++i) {
    int ai = a.rank() - 1 - i;
    int bi = b.rank() - 1 - i;
    int64_t da = ai >= 0 ? a.dim(ai) : 1;
    int64_t db = bi >= 0 ? b.dim(bi) : 1;
    int64_t d;
    if (da == db) {
      d = da;
    } else if (da == 1) {
      d = db;
    } else if (db == 1) {
      d = da;
    } else if (da == kUnknownDim || db == kUnknownDim) {
      d = kUnknownDim;
    } else {
      throw ValueError("cannot broadcast shapes " + a.to_string() + " and " +
                       b.to_string());
    }
    if (out.dim(rank - 1 - i) != d) out = out.with_dim(rank - 1 - i, d);
  }
  return out;
}

bool is_leading_prefix(const Shape& prefix, const Shape& shape) {
  if (prefix.rank() > shape.rank()) return false;
  for (int i = 0; i < prefix.rank(); ++i) {
    int64_t p = prefix.dim(i);
    int64_t s = shape.dim(i);
    if (p != s && p != kUnknownDim && s != kUnknownDim) return false;
  }
  return true;
}

}  // namespace rlgraph
