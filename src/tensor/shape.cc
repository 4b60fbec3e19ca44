#include "tensor/shape.h"

#include <algorithm>
#include <sstream>

#include "util/errors.h"

namespace rlgraph {

int64_t Shape::dim(int i) const {
  RLG_REQUIRE(i >= 0 && i < rank(),
              "shape dim index " << i << " out of range for rank " << rank());
  return dims_[static_cast<size_t>(i)];
}

bool Shape::fully_specified() const {
  return std::all_of(dims_.begin(), dims_.end(),
                     [](int64_t d) { return d >= 0; });
}

int64_t Shape::num_elements() const {
  RLG_REQUIRE(fully_specified(),
              "num_elements on partial shape " << to_string());
  int64_t n = 1;
  for (int64_t d : dims_) n *= d;
  return n;
}

bool Shape::matches(const Shape& concrete) const {
  if (rank() != concrete.rank()) return false;
  for (int i = 0; i < rank(); ++i) {
    if (dims_[static_cast<size_t>(i)] != kUnknownDim &&
        dims_[static_cast<size_t>(i)] != concrete.dims_[static_cast<size_t>(i)]) {
      return false;
    }
  }
  return true;
}

Shape Shape::with_dim(int axis, int64_t value) const {
  RLG_REQUIRE(axis >= 0 && axis < rank(),
              "with_dim axis " << axis << " out of range");
  Shape s = *this;
  s.dims_[static_cast<size_t>(axis)] = value;
  return s;
}

Shape Shape::prepend(int64_t value) const {
  Shape s;
  s.dims_.reserve(dims_.size() + 1);
  s.dims_.push_back(value);
  s.dims_.insert(s.dims_.end(), dims_.begin(), dims_.end());
  return s;
}

Shape Shape::concat(const Shape& other) const {
  Shape s = *this;
  s.dims_.insert(s.dims_.end(), other.dims_.begin(), other.dims_.end());
  return s;
}

Shape Shape::drop_front(int n) const {
  RLG_REQUIRE(n >= 0 && n <= rank(), "drop_front(" << n << ") on rank "
                                                   << rank());
  Shape s;
  s.dims_.assign(dims_.begin() + n, dims_.end());
  return s;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << ", ";
    if (dims_[i] == kUnknownDim) {
      os << "?";
    } else {
      os << dims_[i];
    }
  }
  os << ")";
  return os.str();
}

Shape broadcast_shapes(const Shape& a, const Shape& b) {
  // Align trailing dimensions.
  int rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> out(static_cast<size_t>(rank));
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
    out[static_cast<size_t>(rank - 1 - i)] = d;
  }
  return Shape(std::move(out));
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
