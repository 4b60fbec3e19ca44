#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/thread_pool.h"

namespace rlgraph {
namespace kernels {

namespace {

// --- intra-op sharding -------------------------------------------------------
//
// Grain sizes are the cost thresholds of the parallel_for cost model:
// elements (or flops) per shard below which forking is not worth a wakeup.
// Every sharded kernel writes disjoint output ranges per shard (or combines
// per-shard partials in a fixed tree), so parallel results are bitwise
// identical to the serial path at any thread count.
constexpr int64_t kCheapGrain = 1 << 14;  // streaming arithmetic: add, relu
constexpr int64_t kMathGrain = 1 << 12;   // transcendental maps: exp, tanh
constexpr int64_t kGrainFlops = 1 << 16;  // matmul/conv: flops per shard

// Serial ops skip the type-erased dispatch entirely: a single shard is
// bitwise identical to the unsharded loop for disjoint-write bodies.
template <typename Body>
void shard_range(int64_t grain, int64_t n, Body&& body) {
  if (n <= 0) return;
  if (n <= grain || global_parallelism() <= 1) {
    body(int64_t{0}, n);
    return;
  }
  parallel_for(grain, n, std::forward<Body>(body));
}

// Rows-of-work variant: `cost` is the per-row work estimate used to derive
// the grain so that one shard carries at least kGrainFlops worth of work.
inline int64_t rows_grain(int64_t flops_per_row) {
  return std::max<int64_t>(1, kGrainFlops / std::max<int64_t>(1, flops_per_row));
}

// --- coalesced broadcast walk ------------------------------------------------
//
// Every elementwise kernel writes its output in flat order and reads each
// operand through per-dimension strides, 0 on a dimension it broadcasts
// over. Before iterating, the dimensions are coalesced: size-1 dimensions
// are dropped, and adjacent dimensions merge when every operand is
// contiguous across the boundary. (4,7,7,4)+(4) walks [196]x[4] with
// strides a = (4, 1), b = (0, 1); a scalar operand is one dimension of
// stride 0; same-shape operands are one contiguous run. The walk state
// lives in fixed-size arrays, so iterating allocates nothing.
constexpr int kMaxWalkDims = 8;

// Coalesced geometry of an output and N operands, innermost dim first;
// always at least two dims (padded with size 1, stride 0).
template <int N>
struct Walk {
  int rank = 0;
  int64_t dim[kMaxWalkDims];
  int64_t stride[N][kMaxWalkDims];
};

// One operand of a walk: its shape aligned to the output's trailing dims,
// as if followed by `trailing_ones` size-1 dims (where's cond aligns to the
// leading dims). Every dim must be 1 or the output's; callers check that.
struct WalkOperand {
  const Shape* shape = nullptr;
  int trailing_ones = 0;
};

[[noreturn]] void throw_rank_cap(const char* op, const Shape& out,
                                 const WalkOperand* in, int count) {
  std::string shapes;
  for (int j = 0; j < count; ++j) {
    if (j > 0) shapes += " and ";
    shapes += in[j].shape->to_string();
  }
  throw ValueError(std::string(op) + ": broadcasting " + shapes + " into " +
                   out.to_string() + " leaves more than " +
                   std::to_string(kMaxWalkDims) +
                   " dimensions after coalescing");
}

// Operands past `count` read nothing (stride 0 everywhere).
template <int N>
Walk<N> coalesce(const char* op, const Shape& out, const WalkOperand* in,
                 int count) {
  Walk<N> w;
  int64_t contiguous[N];  // operand j's row-major stride at out dim i
  for (int j = 0; j < N; ++j) contiguous[j] = 1;
  const DimsView dims = out.dims();
  for (int i = out.rank() - 1; i >= 0; --i) {
    int64_t s[N];
    for (int j = 0; j < N; ++j) {
      s[j] = 0;
      if (j >= count) continue;
      const DimsView in_dims = in[j].shape->dims();
      int rank = static_cast<int>(in_dims.size());
      int k = rank + in[j].trailing_ones - out.rank() + i;
      if (k < 0 || k >= rank || in_dims[static_cast<size_t>(k)] == 1) continue;
      s[j] = contiguous[j];
      contiguous[j] *= in_dims[static_cast<size_t>(k)];
    }
    int64_t d = dims[static_cast<size_t>(i)];
    if (d == 1) continue;
    if (w.rank > 0) {
      int r = w.rank - 1;
      bool merge = true;
      for (int j = 0; j < N; ++j) merge &= s[j] == w.stride[j][r] * w.dim[r];
      if (merge) {
        w.dim[r] *= d;
        continue;
      }
    }
    if (w.rank == kMaxWalkDims) throw_rank_cap(op, out, in, count);
    for (int j = 0; j < N; ++j) w.stride[j][w.rank] = s[j];
    w.dim[w.rank++] = d;
  }
  while (w.rank < 2) {
    for (int j = 0; j < N; ++j) w.stride[j][w.rank] = 0;
    w.dim[w.rank++] = 1;
  }
  return w;
}

// Calls row(flat, off, len) for every run of the innermost dim within the
// output elements [begin, end): `flat` is the output index of the run's
// first element, off[j] operand j's, and len <= dim[0] (only a range's first
// and last run can be partial). The two innermost dims are a nested loop,
// so a short row pays no carry; the carry through the outer dims runs once
// per dim[0] * dim[1] elements.
template <int N, typename Row>
void walk(const Walk<N>& w, int64_t begin, int64_t end, Row&& row) {
  if (begin >= end) return;
  int64_t coord[kMaxWalkDims];
  int64_t base[N] = {};  // operand offsets at coord[0] = 0 of the current row
  int64_t rem = begin;
  for (int k = 0; k < w.rank; ++k) {
    coord[k] = rem % w.dim[k];
    rem /= w.dim[k];
    if (k == 0) continue;
    for (int j = 0; j < N; ++j) base[j] += coord[k] * w.stride[j][k];
  }
  int64_t flat = begin;
  int64_t c0 = coord[0];
  while (true) {
    for (int64_t c1 = coord[1]; c1 < w.dim[1]; ++c1) {
      int64_t len = std::min(w.dim[0] - c0, end - flat);
      int64_t off[N];
      for (int j = 0; j < N; ++j) off[j] = base[j] + c0 * w.stride[j][0];
      row(flat, static_cast<const int64_t*>(off), len);
      flat += len;
      if (flat == end) return;
      c0 = 0;
      for (int j = 0; j < N; ++j) base[j] += w.stride[j][1];
    }
    for (int j = 0; j < N; ++j) base[j] -= w.dim[1] * w.stride[j][1];
    coord[1] = 0;
    for (int k = 2; k < w.rank; ++k) {
      for (int j = 0; j < N; ++j) base[j] += w.stride[j][k];
      if (++coord[k] < w.dim[k]) break;
      for (int j = 0; j < N; ++j) base[j] -= w.dim[k] * w.stride[j][k];
      coord[k] = 0;
    }
  }
}

// Runs row over all n output elements, sharded like every streaming kernel.
template <int N, typename Row>
void walk_all(const Walk<N>& w, int64_t grain, int64_t n, const Row& row) {
  shard_range(grain, n, [&w, &row](int64_t begin, int64_t end) {
    walk(w, begin, end, row);
  });
}

// Apply binary fn elementwise with broadcasting; Fa is the input element
// type, Fo the output's. The innermost run is specialized on its stride
// pattern: (1, 1), (1, 0) and (0, 1) are plain contiguous loops the
// compiler vectorizes. Each output element is fn(a[i], b[j]) on the same
// pair as a per-element loop, so the bits do not depend on the walk.
template <typename Fa, typename Fo, typename Fn>
Tensor binary_broadcast(const Tensor& a, const Tensor& b, DType out_dtype,
                        Fn fn, const char* op) {
  Tensor out = a.shape() == b.shape()
                   ? Tensor(out_dtype, a.shape())
                   : Tensor(out_dtype, broadcast_shapes(a.shape(), b.shape()));
  const WalkOperand in[2] = {{&a.shape()}, {&b.shape()}};
  const Walk<2> w = coalesce<2>(op, out.shape(), in, 2);
  const Fa* pa = a.data<Fa>();
  const Fa* pb = b.data<Fa>();
  Fo* po = out.mutable_data<Fo>();
  const int64_t sa = w.stride[0][0];
  const int64_t sb = w.stride[1][0];
  const int64_t n = out.num_elements();
  auto run = [&w, n](const auto& row) { walk_all(w, kCheapGrain, n, row); };
  if (sa == 1 && sb == 1) {
    run([=](int64_t o, const int64_t* off, int64_t len) {
      const Fa* x = pa + off[0];
      const Fa* y = pb + off[1];
      for (int64_t i = 0; i < len; ++i) po[o + i] = fn(x[i], y[i]);
    });
  } else if (sa == 1 && sb == 0) {
    run([=](int64_t o, const int64_t* off, int64_t len) {
      const Fa* x = pa + off[0];
      const Fa y = pb[off[1]];
      for (int64_t i = 0; i < len; ++i) po[o + i] = fn(x[i], y);
    });
  } else if (sa == 0 && sb == 1) {
    run([=](int64_t o, const int64_t* off, int64_t len) {
      const Fa x = pa[off[0]];
      const Fa* y = pb + off[1];
      for (int64_t i = 0; i < len; ++i) po[o + i] = fn(x, y[i]);
    });
  } else {
    run([=](int64_t o, const int64_t* off, int64_t len) {
      for (int64_t i = 0; i < len; ++i) {
        po[o + i] = fn(pa[off[0] + i * sa], pb[off[1] + i * sb]);
      }
    });
  }
  return out;
}

template <typename Fn>
Tensor binary_numeric(const Tensor& a, const Tensor& b, Fn fn,
                      const char* op) {
  RLG_REQUIRE(a.dtype() == b.dtype(), op << ": dtype mismatch "
                                         << dtype_name(a.dtype()) << " vs "
                                         << dtype_name(b.dtype()));
  if (a.dtype() == DType::kFloat32) {
    return binary_broadcast<float, float>(a, b, DType::kFloat32, fn, op);
  }
  if (a.dtype() == DType::kInt32) {
    return binary_broadcast<int32_t, int32_t>(a, b, DType::kInt32, fn, op);
  }
  throw ValueError(std::string(op) + ": unsupported dtype " +
                   dtype_name(a.dtype()));
}

template <typename Fn>
Tensor compare(const Tensor& a, const Tensor& b, Fn fn, const char* op) {
  RLG_REQUIRE(a.dtype() == b.dtype(), op << ": dtype mismatch");
  if (a.dtype() == DType::kFloat32) {
    return binary_broadcast<float, uint8_t>(a, b, DType::kBool, fn, op);
  }
  if (a.dtype() == DType::kInt32) {
    return binary_broadcast<int32_t, uint8_t>(a, b, DType::kBool, fn, op);
  }
  throw ValueError(std::string(op) + ": unsupported dtype");
}

template <typename Fn>
Tensor unary_float(const Tensor& a, Fn fn, const char* op) {
  check_dtype(a, DType::kFloat32, op);
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(kMathGrain, a.num_elements(),
              [pa, po, fn](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) po[i] = fn(pa[i]);
              });
  return out;
}

// out[o + i] = c[i] ? a[o + i] : b[o + i] for elements of T's size, as a
// mask select on the element bits: no branch, and fixed-size copies the
// compiler turns into plain loads and stores.
template <typename T>
void select_bits(const uint8_t* c, const uint8_t* a, const uint8_t* b,
                 uint8_t* out, int64_t o, int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    size_t at = static_cast<size_t>(o + i) * sizeof(T);
    T x, y;
    std::memcpy(&x, a + at, sizeof x);
    std::memcpy(&y, b + at, sizeof y);
    T m = static_cast<T>(T{0} - T{c[i] != 0});
    T z = static_cast<T>((x & m) | (y & static_cast<T>(~m)));
    std::memcpy(out + at, &z, sizeof z);
  }
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, [](auto x, auto y) { return x + y; }, "add");
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, [](auto x, auto y) { return x - y; }, "sub");
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, [](auto x, auto y) { return x * y; }, "mul");
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, [](auto x, auto y) { return x / y; }, "div");
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  return binary_numeric(
      a, b, [](auto x, auto y) { return x < y ? x : y; }, "minimum");
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  return binary_numeric(
      a, b, [](auto x, auto y) { return x > y ? x : y; }, "maximum");
}

Tensor equal(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x == y ? 1 : 0; }, "equal");
}

Tensor greater(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x > y ? 1 : 0; },
      "greater");
}

Tensor less(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x < y ? 1 : 0; }, "less");
}

Tensor logical_and(const Tensor& a, const Tensor& b) {
  check_dtype(a, DType::kBool, "logical_and");
  check_dtype(b, DType::kBool, "logical_and");
  return binary_broadcast<uint8_t, uint8_t>(
      a, b, DType::kBool,
      [](uint8_t x, uint8_t y) -> uint8_t { return (x && y) ? 1 : 0; },
      "logical_and");
}

Tensor logical_or(const Tensor& a, const Tensor& b) {
  check_dtype(a, DType::kBool, "logical_or");
  check_dtype(b, DType::kBool, "logical_or");
  return binary_broadcast<uint8_t, uint8_t>(
      a, b, DType::kBool,
      [](uint8_t x, uint8_t y) -> uint8_t { return (x || y) ? 1 : 0; },
      "logical_or");
}

Tensor logical_not(const Tensor& a) {
  check_dtype(a, DType::kBool, "logical_not");
  Tensor out(DType::kBool, a.shape());
  const uint8_t* pa = a.data<uint8_t>();
  uint8_t* po = out.mutable_data<uint8_t>();
  for (int64_t i = 0; i < a.num_elements(); ++i) po[i] = pa[i] ? 0 : 1;
  return out;
}

Tensor neg(const Tensor& a) {
  return unary_float(a, [](float x) { return -x; }, "neg");
}
Tensor exp(const Tensor& a) {
  return unary_float(a, [](float x) { return std::exp(x); }, "exp");
}
Tensor log(const Tensor& a) {
  return unary_float(a, [](float x) { return std::log(x); }, "log");
}
Tensor sqrt(const Tensor& a) {
  return unary_float(a, [](float x) { return std::sqrt(x); }, "sqrt");
}
Tensor square(const Tensor& a) {
  return unary_float(a, [](float x) { return x * x; }, "square");
}
Tensor abs(const Tensor& a) {
  return unary_float(a, [](float x) { return std::fabs(x); }, "abs");
}
Tensor relu(const Tensor& a) {
  return unary_float(a, [](float x) { return x > 0.0f ? x : 0.0f; }, "relu");
}
Tensor sigmoid(const Tensor& a) {
  return unary_float(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); }, "sigmoid");
}
Tensor tanh(const Tensor& a) {
  return unary_float(a, [](float x) { return std::tanh(x); }, "tanh");
}
Tensor softplus(const Tensor& a) {
  // max(x, 0) + log1p(exp(-|x|)): never overflows, and keeps full float
  // precision for large |x| where the naive log(1 + exp(x)) saturates.
  return unary_float(
      a,
      [](float x) {
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
      },
      "softplus");
}
Tensor clip(const Tensor& a, double lo, double hi) {
  float flo = static_cast<float>(lo);
  float fhi = static_cast<float>(hi);
  return unary_float(
      a, [flo, fhi](float x) { return std::min(fhi, std::max(flo, x)); },
      "clip");
}

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  check_dtype(cond, DType::kBool, "where");
  check_same_shape(a, b, "where");
  RLG_REQUIRE(a.dtype() == b.dtype(), "where: branch dtype mismatch");
  RLG_REQUIRE(is_leading_prefix(cond.shape(), a.shape()),
              "where: cond shape " << cond.shape().to_string()
                                   << " must equal or be a leading prefix of "
                                   << a.shape().to_string());
  Tensor out(a.dtype(), a.shape());
  int64_t n = a.num_elements();
  if (n == 0) return out;
  // cond broadcasts over the values' trailing dims, so its innermost
  // coalesced stride is 0 (one cond per row: copy the row) or 1 (one per
  // element: select bits).
  const WalkOperand in[1] = {{&cond.shape(), a.shape().rank() -
                                                 cond.shape().rank()}};
  const Walk<1> w = coalesce<1>("where", a.shape(), in, 1);
  const uint8_t* pc = cond.data<uint8_t>();
  const auto* pa = static_cast<const uint8_t*>(a.raw());
  const auto* pb = static_cast<const uint8_t*>(b.raw());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  size_t esize = dtype_size(a.dtype());
  int64_t cn = cond.num_elements();
  int64_t inner = n / cn;
  auto rows = [&](const auto& row) {
    shard_range(rows_grain(inner), cn, [&](int64_t c0, int64_t c1) {
      walk(w, c0 * inner, c1 * inner, row);
    });
  };
  if (w.stride[0][0] == 0) {
    rows([=](int64_t o, const int64_t* off, int64_t len) {
      const uint8_t* src = pc[off[0]] ? pa : pb;
      std::memcpy(po + static_cast<size_t>(o) * esize,
                  src + static_cast<size_t>(o) * esize,
                  static_cast<size_t>(len) * esize);
    });
  } else if (esize == 4) {
    rows([=](int64_t o, const int64_t* off, int64_t len) {
      select_bits<uint32_t>(pc + off[0], pa, pb, po, o, len);
    });
  } else {
    rows([=](int64_t o, const int64_t* off, int64_t len) {
      select_bits<uint8_t>(pc + off[0], pa, pb, po, o, len);
    });
  }
  return out;
}

namespace {

// --- register-tiled float kernels --------------------------------------------
//
// The convolutions (forward, both backprops) and the dense products run on
// 4-lane float vectors written with GCC/Clang vector extensions: no
// intrinsics, no target flags, no runtime CPU dispatch. Every lane does the
// same IEEE single-precision multiply and add as the scalar expression, kept
// apart (the library builds with -ffp-contract=off, so no FMA), and every
// output element accumulates its products in the same order as a plain
// scalar loop, so the results are bitwise those of that loop at any thread
// count. DESIGN.md §4i spells out the loops and orders.
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));
constexpr int kLanes = 4;

inline v4f splat(float x) { return v4f{x, x, x, x}; }

inline v4f load(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Lanes [0, n) of v to p, n in [1, kLanes); out of line so that the
// full-vector path of store() keeps v in a register.
[[gnu::noinline]] void store_partial(float* p, v4f v, int n) {
  float lanes[kLanes];
  std::memcpy(lanes, &v, sizeof v);
  for (int l = 0; l < n; ++l) p[l] = lanes[l];
}

inline void store(float* p, v4f v, int n = kLanes) {
  if (n != kLanes) return store_partial(p, v, n);
  std::memcpy(p, &v, sizeof v);
}

// p[l] += v[l] for l in [0, n).
inline void add_to(float* p, v4f v, int n) {
  if (n == kLanes) return store(p, load(p) + v);
  float lanes[kLanes];
  std::memcpy(lanes, &v, sizeof v);
  for (int l = 0; l < n; ++l) p[l] += lanes[l];
}

// acc + x * w, where the scalar loop this replaces skips a zero x. Adding
// the product anyway is the same bit for bit when w is finite: x * w is then
// a signed zero, and the accumulator, which starts at +0 and can never
// become -0, does not change. A NaN or infinite weight would turn it into
// NaN, so kMask (chosen once per call, when some weight is not finite)
// masks the product of a zero x to +0 instead of branching on it.
template <bool kMask>
inline v4f mul_add(v4f acc, v4f x, v4f w) {
  if constexpr (kMask) {
    v4i keep = x != splat(0.0f);
    return acc + (v4f)((v4i)(x * w) & keep);
  } else {
    return acc + x * w;
  }
}

// No NaN or infinity in p[0, n): x - x is +0 exactly for every finite x and
// NaN otherwise, and a NaN survives any sum.
bool all_finite(const float* p, int64_t n) {
  v4f acc[4] = {splat(0.0f), splat(0.0f), splat(0.0f), splat(0.0f)};
  int64_t i = 0;
  for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
    for (int u = 0; u < 4; ++u) {
      v4f v = load(p + i + u * kLanes);
      acc[u] += v - v;
    }
  }
  float sum = 0.0f;
  for (; i < n; ++i) sum += p[i] - p[i];
  v4f total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (int l = 0; l < kLanes; ++l) sum += total[l];
  return sum == 0.0f;
}

// Per-call float buffer: on the stack up to kStackFloats, on the heap
// beyond. Kernels run inside plan steps thousands of times a second, and a
// heap allocation there brings the allocator's housekeeping into the
// kernel: in the Ape-X learn loop a 1.4 KB std::vector per call took about
// 80 us, three times the kernel's own work.
class StackBuffer {
 public:
  explicit StackBuffer(int64_t n) {
    if (n > kStackFloats) {
      heap_.resize(static_cast<size_t>(n));
      p_ = heap_.data();
    }
  }
  StackBuffer(const StackBuffer&) = delete;
  StackBuffer& operator=(const StackBuffer&) = delete;

  float* data() { return p_; }

 private:
  static constexpr int64_t kStackFloats = 1024;
  float stack_[kStackFloats];
  std::vector<float> heap_;
  float* p_ = stack_;
};

// The operand a kernel loads as vectors along its output channels: `rows`
// rows of n floats, each padded with +0 to whole vectors (a copy only when
// n is not a multiple of kLanes), so tiles never load a partial vector.
struct VectorRows {
  int64_t stride;  // floats per padded row
  bool finite;     // no NaN or infinity: zero inputs need no mask
  StackBuffer copy;
  const float* p;

  VectorRows(const float* src, int64_t rows, int64_t n)
      : stride((n + kLanes - 1) / kLanes * kLanes),
        finite(all_finite(src, rows * n)),
        copy(stride == n ? 0 : rows * stride),
        p(src) {
    if (stride == n) return;
    float* dst = copy.data();
    for (int64_t r = 0; r < rows; ++r, dst += stride) {
      std::memcpy(dst, src + r * n, static_cast<size_t>(n) * sizeof(float));
      std::fill(dst + n, dst + stride, 0.0f);
    }
    p = copy.data();
  }
};

// Splits [0, n) into register groups of one or two vectors and calls
// fn(std::integral_constant<int, NV>, std::bool_constant<kMask>, first,
// last_lanes) for each; only the last vector of the last group is partial.
template <typename Fn>
void for_each_vector_group(int64_t n, bool mask, Fn&& fn) {
  auto call = [&](auto nv, int64_t j0, int last) {
    if (mask) {
      fn(nv, std::true_type{}, j0, last);
    } else {
      fn(nv, std::false_type{}, j0, last);
    }
  };
  for (int64_t j0 = 0; j0 < n; j0 += 2 * kLanes) {
    int64_t rem = n - j0;
    if (rem > kLanes) {
      call(std::integral_constant<int, 2>{}, j0,
           static_cast<int>(std::min<int64_t>(rem - kLanes, kLanes)));
    } else {
      call(std::integral_constant<int, 1>{}, j0, static_cast<int>(rem));
    }
  }
}

// Lane count of vector v of an NV-vector group whose last vector has `last`.
template <int NV>
constexpr int lanes_of(int v, int last) {
  return v + 1 < NV ? kLanes : last;
}

constexpr int kDenseRows = 4;  // rows per dense register tile

// Rows [i0, i0 + R) x columns [j0, j0 + (NV - 1) * kLanes + last) of
// a[m, k] * b[k, n], accumulated in registers over ascending k.
template <int R, int NV, bool kMask>
void dense_tile(const float* pa, const VectorRows& b, float* po, int64_t k,
                int64_t n, int64_t i0, int64_t j0, int last) {
  v4f acc[R][NV];
  for (auto& row : acc) {
    for (v4f& a : row) a = splat(0.0f);
  }
  const float* brow = b.p + j0;
  for (int64_t kk = 0; kk < k; ++kk, brow += b.stride) {
    v4f w[NV];
    for (int v = 0; v < NV; ++v) w[v] = load(brow + v * kLanes);
    for (int r = 0; r < R; ++r) {
      v4f x = splat(pa[(i0 + r) * k + kk]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = mul_add<kMask>(acc[r][v], x, w[v]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* orow = po + (i0 + r) * n + j0;
    for (int v = 0; v < NV; ++v) {
      store(orow + v * kLanes, acc[r][v], lanes_of<NV>(v, last));
    }
  }
}

// The product shared by matmul and fused_dense: shards over output rows
// (disjoint writes); `epilogue(orow, rows)` finishes the shard's rows of n
// outputs after the whole k loop.
template <typename Epilogue>
void dense_forward(const float* pa, const float* pb, float* po, int64_t m,
                   int64_t k, int64_t n, Epilogue epilogue) {
  VectorRows b(pb, k, n);
  shard_range(rows_grain(2 * k * n), m, [&](int64_t r0, int64_t r1) {
    // Column groups outside, rows inside: one group's panel of b stays in
    // cache across the shard's row tiles.
    for_each_vector_group(n, !b.finite, [&](auto nv, auto mask, int64_t j0,
                                            int last) {
      constexpr int NV = decltype(nv)::value;
      constexpr bool kMask = decltype(mask)::value;
      int64_t i = r0;
      for (; i + kDenseRows <= r1; i += kDenseRows) {
        dense_tile<kDenseRows, NV, kMask>(pa, b, po, k, n, i, j0, last);
      }
      for (; i < r1; ++i) {
        dense_tile<1, NV, kMask>(pa, b, po, k, n, i, j0, last);
      }
    });
    epilogue(po + r0 * n, r1 - r0);
  });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_dtype(a, DType::kFloat32, "matmul");
  check_dtype(b, DType::kFloat32, "matmul");
  RLG_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2,
              "matmul requires rank-2 operands, got "
                  << a.shape().to_string() << " x " << b.shape().to_string());
  int64_t m = a.shape().dim(0), k = a.shape().dim(1);
  int64_t k2 = b.shape().dim(0), n = b.shape().dim(1);
  RLG_REQUIRE(k == k2, "matmul inner dims mismatch: " << k << " vs " << k2);
  Tensor out(DType::kFloat32, Shape{m, n});
  dense_forward(a.data<float>(), b.data<float>(), out.mutable_data<float>(), m,
                k, n, [](float*, int64_t) {});
  return out;
}

Tensor transpose2d(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "transpose2d");
  RLG_REQUIRE(a.shape().rank() == 2, "transpose2d requires rank 2");
  int64_t m = a.shape().dim(0), n = a.shape().dim(1);
  Tensor out(DType::kFloat32, Shape{n, m});
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  // Blocked transpose: both the reads (pa rows) and the column-strided
  // writes (po) stay within one kTile x kTile block that fits in L1, instead
  // of striding the full output column per element. Shards take disjoint
  // row ranges of the input.
  constexpr int64_t kTile = 32;
  shard_range(rows_grain(n), m, [pa, po, m, n](int64_t r0, int64_t r1) {
    for (int64_t i0 = r0; i0 < r1; i0 += kTile) {
      int64_t i1 = std::min(r1, i0 + kTile);
      for (int64_t j0 = 0; j0 < n; j0 += kTile) {
        int64_t j1 = std::min(n, j0 + kTile);
        for (int64_t j = j0; j < j1; ++j) {
          for (int64_t i = i0; i < i1; ++i) po[j * m + i] = pa[i * n + j];
        }
      }
    }
  });
  return out;
}

namespace {
struct ConvDims {
  int64_t batch, in_h, in_w, in_c;
  int64_t kh, kw, out_c;
  int64_t out_h, out_w;
  int64_t pad_h, pad_w;  // top/left padding
};

ConvDims conv_dims(const Shape& input, const Shape& filter, int stride,
                   bool same_padding) {
  RLG_REQUIRE(input.rank() == 4 && filter.rank() == 4,
              "conv2d expects NHWC input and [kh,kw,cin,cout] filter");
  ConvDims d;
  d.batch = input.dim(0);
  d.in_h = input.dim(1);
  d.in_w = input.dim(2);
  d.in_c = input.dim(3);
  d.kh = filter.dim(0);
  d.kw = filter.dim(1);
  RLG_REQUIRE(filter.dim(2) == d.in_c, "conv2d filter cin mismatch");
  d.out_c = filter.dim(3);
  if (same_padding) {
    d.out_h = (d.in_h + stride - 1) / stride;
    d.out_w = (d.in_w + stride - 1) / stride;
    int64_t pad_total_h =
        std::max<int64_t>(0, (d.out_h - 1) * stride + d.kh - d.in_h);
    int64_t pad_total_w =
        std::max<int64_t>(0, (d.out_w - 1) * stride + d.kw - d.in_w);
    d.pad_h = pad_total_h / 2;
    d.pad_w = pad_total_w / 2;
  } else {
    RLG_REQUIRE(d.in_h >= d.kh && d.in_w >= d.kw,
                "conv2d valid padding: kernel larger than input");
    d.out_h = (d.in_h - d.kh) / stride + 1;
    d.out_w = (d.in_w - d.kw) / stride + 1;
    d.pad_h = 0;
    d.pad_w = 0;
  }
  return d;
}

// [lo, hi): the output positions o in [0, out) whose input indices
// o * stride + first and o * stride + last both lie in [0, in).
struct Span {
  int64_t lo, hi;
};
Span span_inside(int64_t out, int64_t in, int64_t first, int64_t last,
                 int stride) {
  Span s{0, out};
  while (s.lo < s.hi && s.lo * stride + first < 0) ++s.lo;
  while (s.hi > s.lo && (s.hi - 1) * stride + last >= in) --s.hi;
  return s;
}

// Output columns per forward register tile: eight accumulators either way.
template <int NV>
constexpr int kConvCols = 8 / NV;

// Output columns [ow0, ow0 + cols) of row (b, oh) x output channels
// [oc0, oc0 + (NV - 1) * kLanes + last), accumulated in registers over the
// taps in ascending (fh, fw, c). The (fw, c) taps of one filter row are
// contiguous both in the filter and along the input row, so each column
// walks them as one run r = fw * in_c + c. Where a tile's columns reach into
// the padding, they read from `window`, a zero-filled copy of the input
// span, so a padding tap is a zero input; a column past `cols` repeats
// column 0 and is never stored.
template <int NV, bool kMask>
void conv_forward_tile(const ConvDims& d, int stride, const float* pi,
                       const VectorRows& f, float* po, float* window,
                       int64_t b, int64_t oh,
                       int64_t ow0, int cols, int64_t oc0, int last) {
  constexpr int T = kConvCols<NV>;
  v4f acc[T][NV];
  for (auto& col : acc) {
    for (v4f& a : col) a = splat(0.0f);
  }
  const int64_t taps = d.kw * d.in_c;
  const int64_t iw0 = ow0 * stride - d.pad_w;  // first input column read
  const int64_t span = (cols - 1) * stride + d.kw;
  for (int64_t fh = 0; fh < d.kh; ++fh) {
    int64_t ih = oh * stride + fh - d.pad_h;
    if (ih < 0 || ih >= d.in_h) continue;  // a padding row: +0 for every tap
    const float* irow = pi + (b * d.in_h + ih) * d.in_w * d.in_c;
    const float* x0 = window;
    if (iw0 >= 0 && iw0 + span <= d.in_w) {
      x0 = irow + iw0 * d.in_c;
    } else {
      for (int64_t p = 0; p < span; ++p) {
        int64_t iw = iw0 + p;
        float* dst = window + p * d.in_c;
        if (iw >= 0 && iw < d.in_w) {
          std::memcpy(dst, irow + iw * d.in_c,
                      static_cast<size_t>(d.in_c) * sizeof(float));
        } else {
          std::fill(dst, dst + d.in_c, 0.0f);
        }
      }
    }
    const float* xcol[T];
    for (int t = 0; t < T; ++t) {
      xcol[t] = x0 + (t < cols ? t : 0) * stride * d.in_c;
    }
    const float* frow = f.p + fh * taps * f.stride + oc0;
    for (int64_t r = 0; r < taps; ++r, frow += f.stride) {
      v4f w[NV];
      for (int v = 0; v < NV; ++v) w[v] = load(frow + v * kLanes);
      for (int t = 0; t < T; ++t) {
        v4f x = splat(xcol[t][r]);
        for (int v = 0; v < NV; ++v) {
          acc[t][v] = mul_add<kMask>(acc[t][v], x, w[v]);
        }
      }
    }
  }
  for (int t = 0; t < cols; ++t) {
    float* opix = po + ((b * d.out_h + oh) * d.out_w + ow0 + t) * d.out_c + oc0;
    for (int v = 0; v < NV; ++v) {
      store(opix + v * kLanes, acc[t][v], lanes_of<NV>(v, last));
    }
  }
}

// The forward convolution shared by conv2d and fused_conv2d. Shards over
// batch x out_h rows (each owns a disjoint slice of the output);
// `epilogue(orow, pixels)` finishes each finished output row.
template <typename Epilogue>
void conv_forward(const ConvDims& d, int stride, const float* pi,
                  const float* pf, float* po, Epilogue epilogue) {
  VectorRows f(pf, d.kh * d.kw * d.in_c, d.out_c);
  int64_t conv_row_flops = 2 * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  shard_range(rows_grain(conv_row_flops), d.batch * d.out_h,
              [&](int64_t row0, int64_t row1) {
    // Only same padding has tiles whose input span leaves the input.
    bool padded = d.pad_w > 0 || (d.out_w - 1) * stride + d.kw > d.in_w;
    StackBuffer window(
        padded ? ((kConvCols<1> - 1) * stride + d.kw) * d.in_c : 0);
    for (int64_t row = row0; row < row1; ++row) {
      int64_t b = row / d.out_h;
      int64_t oh = row % d.out_h;
      for_each_vector_group(d.out_c, !f.finite, [&](auto nv, auto mask,
                                                    int64_t oc0, int last) {
        constexpr int NV = decltype(nv)::value;
        for (int64_t ow0 = 0; ow0 < d.out_w; ow0 += kConvCols<NV>) {
          int cols = static_cast<int>(
              std::min<int64_t>(kConvCols<NV>, d.out_w - ow0));
          conv_forward_tile<NV, decltype(mask)::value>(
              d, stride, pi, f, po, window.data(), b, oh, ow0, cols, oc0,
              last);
        }
      });
      epilogue(po + row * d.out_w * d.out_c, d.out_w);
    }
  });
}

void check_grad_out(const Tensor& grad_out, const ConvDims& d,
                    const char* op) {
  check_dtype(grad_out, DType::kFloat32, op);
  Shape want{d.batch, d.out_h, d.out_w, d.out_c};
  RLG_REQUIRE(grad_out.shape() == want,
              op << ": grad_out must be " << want.to_string() << ", got "
                 << grad_out.shape().to_string());
}

// Filter-gradient rows [r0, r0 + R) of filter row fh, where row r is tap
// fw = r / in_c, channel c = r % in_c (contiguous in the filter and along
// an input row), x output channels [oc0, oc0 + (NV - 1) * kLanes + last).
// Each element sums over images [b0, b1) in ascending (b, oh, ow), in
// registers. Positions where none of the tile's taps is inside the input
// add nothing and are skipped; elsewhere a padding tap reads as a zero
// input.
template <int R, int NV, bool kMask>
void filter_grad_tile(const ConvDims& d, int stride, const float* pi,
                      const VectorRows& g, float* po, int64_t b0, int64_t b1,
                      int64_t fh, int64_t r0, int64_t oc0, int last) {
  int64_t fw_first = r0 / d.in_c;
  int64_t fw_last = (r0 + R - 1) / d.in_c;
  Span rows = span_inside(d.out_h, d.in_h, fh - d.pad_h, fh - d.pad_h, stride);
  // Positions where some tap of the tile is inside, and where all are.
  Span any = span_inside(d.out_w, d.in_w, fw_last - d.pad_w,
                         fw_first - d.pad_w, stride);
  Span all = span_inside(d.out_w, d.in_w, fw_first - d.pad_w,
                         fw_last - d.pad_w, stride);
  v4f acc[R][NV];
  for (auto& row : acc) {
    for (v4f& a : row) a = splat(0.0f);
  }
  for (int64_t b = b0; b < b1; ++b) {
    for (int64_t oh = rows.lo; oh < rows.hi; ++oh) {
      int64_t ih = oh * stride + fh - d.pad_h;
      const float* grow = g.p + (b * d.out_h + oh) * d.out_w * g.stride + oc0;
      const float* irow = pi + (b * d.in_h + ih) * d.in_w * d.in_c;
      for (int64_t ow = any.lo; ow < any.hi; ++ow) {
        // Input offset of tap (fw = 0, c = 0); negative left of the input.
        int64_t base = (ow * stride - d.pad_w) * d.in_c + r0;
        float xs[R];
        if (ow >= all.lo && ow < all.hi) {
          for (int r = 0; r < R; ++r) xs[r] = irow[base + r];
        } else {
          for (int r = 0; r < R; ++r) {
            int64_t iw = ow * stride + (r0 + r) / d.in_c - d.pad_w;
            xs[r] = iw >= 0 && iw < d.in_w ? irow[base + r] : 0.0f;
          }
        }
        const float* gpix = grow + ow * g.stride;
        v4f gv[NV];
        for (int v = 0; v < NV; ++v) gv[v] = load(gpix + v * kLanes);
        for (int r = 0; r < R; ++r) {
          v4f x = splat(xs[r]);
          for (int v = 0; v < NV; ++v) {
            acc[r][v] = mul_add<kMask>(acc[r][v], x, gv[v]);
          }
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* frow = po + (fh * d.kw * d.in_c + r0 + r) * d.out_c + oc0;
    for (int v = 0; v < NV; ++v) {
      store(frow + v * kLanes, acc[r][v], lanes_of<NV>(v, last));
    }
  }
}

constexpr int kFilterRows = 4;  // (fw, c) filter rows per gradient tile

// Overwrites po with the filter gradient of images [b0, b1).
void filter_grad(const ConvDims& d, int stride, const float* pi,
                 const VectorRows& g, float* po, int64_t b0, int64_t b1) {
  int64_t taps = d.kw * d.in_c;
  for (int64_t fh = 0; fh < d.kh; ++fh) {
    for_each_vector_group(d.out_c, !g.finite, [&](auto nv, auto mask,
                                                  int64_t oc0, int last) {
      constexpr int NV = decltype(nv)::value;
      constexpr bool kMask = decltype(mask)::value;
      int64_t r = 0;
      for (; r + kFilterRows <= taps; r += kFilterRows) {
        filter_grad_tile<kFilterRows, NV, kMask>(d, stride, pi, g, po, b0, b1,
                                                 fh, r, oc0, last);
      }
      for (; r < taps; ++r) {
        filter_grad_tile<1, NV, kMask>(d, stride, pi, g, po, b0, b1, fh, r,
                                       oc0, last);
      }
    });
  }
}

// Input-gradient run of NV vectors for one (output pixel, filter row):
// lanes are (fw, c) taps r (contiguous in the input gradient row), each the
// ascending-oc dot product of grad_out pixel gpix with the [fh][oc][r]
// filter transpose ft, started from +0, then added to its input element.
template <int NV>
void input_grad_run(int64_t out_c, const float* gpix, const float* ft,
                    int64_t ft_stride, float* ip, int last) {
  v4f acc[NV];
  for (v4f& a : acc) a = splat(0.0f);
  for (int64_t oc = 0; oc < out_c; ++oc, ft += ft_stride) {
    v4f g = splat(gpix[oc]);
    for (int v = 0; v < NV; ++v) acc[v] = acc[v] + g * load(ft + v * kLanes);
  }
  for (int v = 0; v < NV; ++v) {
    add_to(ip + v * kLanes, acc[v], lanes_of<NV>(v, last));
  }
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& filter, int stride,
              bool same_padding) {
  check_dtype(input, DType::kFloat32, "conv2d");
  check_dtype(filter, DType::kFloat32, "conv2d");
  ConvDims d = conv_dims(input.shape(), filter.shape(), stride, same_padding);
  Tensor out(DType::kFloat32, Shape{d.batch, d.out_h, d.out_w, d.out_c});
  conv_forward(d, stride, input.data<float>(), filter.data<float>(),
               out.mutable_data<float>(), [](float*, int64_t) {});
  return out;
}

Tensor conv2d_backprop_input(const Shape& input_shape, const Tensor& filter,
                             const Tensor& grad_out, int stride,
                             bool same_padding) {
  check_dtype(filter, DType::kFloat32, "conv2d_backprop_input");
  ConvDims d = conv_dims(input_shape, filter.shape(), stride, same_padding);
  check_grad_out(grad_out, d, "conv2d_backprop_input");
  Tensor grad_in = Tensor::zeros(DType::kFloat32, input_shape);
  // Filter transposed to [fh][oc][fw * in_c + c]: one filter row's taps are
  // contiguous per output channel, as they are along an input row. Rows
  // carry kLanes - 1 zeros of slack so a run may start at any tap.
  const int64_t taps = d.kw * d.in_c;
  const int64_t ft_stride = taps + kLanes - 1;
  StackBuffer ft(d.kh * d.out_c * ft_stride);
  float* pt = ft.data();
  std::fill(pt, pt + d.kh * d.out_c * ft_stride, 0.0f);
  const float* pf = filter.data<float>();
  for (int64_t fh = 0; fh < d.kh; ++fh) {
    for (int64_t r = 0; r < taps; ++r) {
      for (int64_t oc = 0; oc < d.out_c; ++oc) {
        pt[(fh * d.out_c + oc) * ft_stride + r] =
            pf[(fh * taps + r) * d.out_c + oc];
      }
    }
  }
  const float* pg = grad_out.data<float>();
  float* po = grad_in.mutable_data<float>();
  // Output rows (oh) with stride < kernel height scatter into overlapping
  // input rows, so the finest race-free shard is one batch image. Within
  // it every input element takes its taps' sums in ascending (oh, ow, fh,
  // fw): one (oh, ow, fh) adds to each element at most once.
  int64_t image_flops = 2 * d.out_h * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  shard_range(rows_grain(image_flops), d.batch,
              [&d, pt, pg, po, taps, ft_stride, stride](int64_t b0,
                                                        int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      for (int64_t oh = 0; oh < d.out_h; ++oh) {
        for (int64_t ow = 0; ow < d.out_w; ++ow) {
          const float* gpix =
              pg + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
          // The taps inside the input: fw in fws, so r in [r_lo, r_hi).
          int64_t iw0 = ow * stride - d.pad_w;
          Span fws = span_inside(d.kw, d.in_w, iw0, iw0, 1);
          int64_t r_lo = fws.lo * d.in_c, r_hi = fws.hi * d.in_c;
          for (int64_t fh = 0; fh < d.kh; ++fh) {
            int64_t ih = oh * stride + fh - d.pad_h;
            if (ih < 0 || ih >= d.in_h) continue;
            float* irow = po + (b * d.in_h + ih) * d.in_w * d.in_c;
            const float* ft_row = pt + fh * d.out_c * ft_stride;
            for (int64_t r = r_lo; r < r_hi; r += 2 * kLanes) {
              int64_t len = std::min<int64_t>(2 * kLanes, r_hi - r);
              float* ip = irow + (iw0 * d.in_c + r);  // tap r's element
              if (len > kLanes) {
                input_grad_run<2>(d.out_c, gpix, ft_row + r, ft_stride, ip,
                                  static_cast<int>(len - kLanes));
              } else {
                input_grad_run<1>(d.out_c, gpix, ft_row + r, ft_stride, ip,
                                  static_cast<int>(len));
              }
            }
          }
        }
      }
    }
  });
  return grad_in;
}

Tensor conv2d_backprop_filter(const Tensor& input, const Shape& filter_shape,
                              const Tensor& grad_out, int stride,
                              bool same_padding) {
  check_dtype(input, DType::kFloat32, "conv2d_backprop_filter");
  ConvDims d = conv_dims(input.shape(), filter_shape, stride, same_padding);
  check_grad_out(grad_out, d, "conv2d_backprop_filter");
  const float* pi = input.data<float>();
  VectorRows g(grad_out.data<float>(), d.batch * d.out_h * d.out_w, d.out_c);
  // Every batch image scatters into the whole filter, so shards accumulate
  // private partial gradients over disjoint batch ranges, combined below in
  // a fixed pairwise tree — shard boundaries and tree shape depend only on
  // the problem size, never the thread count.
  int64_t image_flops = 2 * d.out_h * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  ShardBounds sb = shard_bounds(rows_grain(image_flops), d.batch);
  if (sb.num_shards <= 1) {
    Tensor grad_f(DType::kFloat32, filter_shape);
    filter_grad(d, stride, pi, g, grad_f.mutable_data<float>(), 0, d.batch);
    return grad_f;
  }
  std::vector<Tensor> partials(static_cast<size_t>(sb.num_shards));
  parallel_shards(rows_grain(image_flops), d.batch,
                  [&](int64_t shard, int64_t b0, int64_t b1) {
                    Tensor p(DType::kFloat32, filter_shape);
                    filter_grad(d, stride, pi, g, p.mutable_data<float>(), b0,
                                b1);
                    partials[static_cast<size_t>(shard)] = std::move(p);
                  });
  int64_t filter_elems = partials[0].num_elements();
  for (int64_t step = 1; step < sb.num_shards; step *= 2) {
    for (int64_t i = 0; i + step < sb.num_shards; i += 2 * step) {
      float* dst = partials[static_cast<size_t>(i)].mutable_data<float>();
      const float* src = partials[static_cast<size_t>(i + step)].data<float>();
      for (int64_t e = 0; e < filter_elems; ++e) dst[e] += src[e];
    }
  }
  return partials[0];
}

namespace {
// Generic reduction over one axis (or all). Combine must be associative.
template <typename Fn>
Tensor reduce(const Tensor& a, int axis, bool keep_dims, float init, Fn fn,
              bool mean) {
  check_dtype(a, DType::kFloat32, "reduce");
  const float* pa = a.data<float>();
  if (axis == -1) {
    // Full reduction: per-shard linear folds combined in a fixed pairwise
    // tree. Shard boundaries depend only on the element count, so the
    // result is bitwise identical at any thread count (a single shard is
    // exactly the classic serial fold).
    int64_t n = a.num_elements();
    ShardBounds sb = shard_bounds(kCheapGrain, n);
    float acc = init;
    if (sb.num_shards <= 1) {
      for (int64_t i = 0; i < n; ++i) acc = fn(acc, pa[i]);
    } else {
      std::vector<float> partials(static_cast<size_t>(sb.num_shards), init);
      parallel_shards(kCheapGrain, n,
                      [&partials, pa, init, fn](int64_t shard, int64_t begin,
                                                int64_t end) {
                        float p = init;
                        for (int64_t i = begin; i < end; ++i) p = fn(p, pa[i]);
                        partials[static_cast<size_t>(shard)] = p;
                      });
      for (int64_t step = 1; step < sb.num_shards; step *= 2) {
        for (int64_t i = 0; i + step < sb.num_shards; i += 2 * step) {
          partials[static_cast<size_t>(i)] =
              fn(partials[static_cast<size_t>(i)],
                 partials[static_cast<size_t>(i + step)]);
        }
      }
      acc = partials[0];
    }
    if (mean && n > 0) {
      acc /= static_cast<float>(n);
    }
    if (!keep_dims) return Tensor::scalar(acc);
    Shape ones;
    for (int i = 0; i < a.shape().rank(); ++i) ones = ones.prepend(1);
    return Tensor::filled(DType::kFloat32, ones, acc);
  }
  RLG_REQUIRE(axis >= 0 && axis < a.shape().rank(),
              "reduce axis " << axis << " out of range for "
                             << a.shape().to_string());
  int64_t outer = 1, inner = 1;
  int64_t extent = a.shape().dim(axis);
  for (int i = 0; i < axis; ++i) outer *= a.shape().dim(i);
  for (int i = axis + 1; i < a.shape().rank(); ++i) inner *= a.shape().dim(i);
  Tensor out(DType::kFloat32, keep_dims ? a.shape().with_dim(axis, 1)
                                        : a.shape().remove_dim(axis));
  float* po = out.mutable_data<float>();
  // Axis reduction: every output element folds its own extent, so sharding
  // over the flat output index writes disjoint ranges and is trivially
  // bitwise-stable.
  shard_range(rows_grain(extent), outer * inner,
              [pa, po, inner, extent, init, fn, mean](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                  int64_t o = t / inner;
                  int64_t in = t % inner;
                  float acc = init;
                  for (int64_t e = 0; e < extent; ++e) {
                    acc = fn(acc, pa[(o * extent + e) * inner + in]);
                  }
                  if (mean && extent > 0) acc /= static_cast<float>(extent);
                  po[t] = acc;
                }
              });
  return out;
}
}  // namespace

Tensor reduce_sum(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, 0.0f, [](float acc, float v) { return acc + v; },
      /*mean=*/false);
}

Tensor reduce_mean(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, 0.0f, [](float acc, float v) { return acc + v; },
      /*mean=*/true);
}

Tensor reduce_max(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, -std::numeric_limits<float>::infinity(),
      [](float acc, float v) { return v > acc ? v : acc; }, /*mean=*/false);
}

Tensor sum_to_shape(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  check_dtype(a, DType::kFloat32, "sum_to_shape");
  RLG_REQUIRE(target.fully_specified(), "sum_to_shape needs concrete target");
  // Reduce leading extra dims, then any dims where target is 1.
  Tensor cur = a;
  while (cur.shape().rank() > target.rank()) {
    cur = reduce_sum(cur, 0, /*keep_dims=*/false);
  }
  for (int i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && cur.shape().dim(i) != 1) {
      cur = reduce_sum(cur, i, /*keep_dims=*/true);
    }
  }
  RLG_REQUIRE(cur.shape() == target, "sum_to_shape: cannot reduce "
                                         << a.shape().to_string() << " to "
                                         << target.to_string());
  return cur;
}

Tensor softmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "softmax");
  RLG_REQUIRE(a.shape().rank() >= 1, "softmax requires rank >= 1");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      float* orow = po + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(row[c] - mx);
        sum += orow[c];
      }
      for (int64_t c = 0; c < cols; ++c) orow[c] /= sum;
    }
  });
  return out;
}

Tensor log_softmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "log_softmax");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      float* orow = po + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) sum += std::exp(row[c] - mx);
      float lse = mx + std::log(sum);
      for (int64_t c = 0; c < cols; ++c) orow[c] = row[c] - lse;
    }
  });
  return out;
}

Tensor argmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "argmax");
  RLG_REQUIRE(a.shape().rank() >= 1, "argmax requires rank >= 1");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Tensor out(DType::kInt32, a.shape().remove_dim(a.shape().rank() - 1));
  const float* pa = a.data<float>();
  int32_t* po = out.mutable_data<int32_t>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      int64_t best = 0;
      for (int64_t c = 1; c < cols; ++c) {
        if (row[c] > row[best]) best = c;
      }
      po[r] = static_cast<int32_t>(best);
    }
  });
  return out;
}

Tensor one_hot(const Tensor& indices, int64_t depth) {
  check_dtype(indices, DType::kInt32, "one_hot");
  Shape out_shape = indices.shape().concat(Shape{depth});
  Tensor out = Tensor::zeros(DType::kFloat32, out_shape);
  const int32_t* pi = indices.data<int32_t>();
  float* po = out.mutable_data<float>();
  for (int64_t i = 0; i < indices.num_elements(); ++i) {
    int32_t idx = pi[i];
    RLG_REQUIRE(idx >= 0 && idx < depth,
                "one_hot index " << idx << " out of range [0, " << depth
                                 << ")");
    po[i * depth + idx] = 1.0f;
  }
  return out;
}

Tensor gather_rows(const Tensor& params, const Tensor& indices) {
  check_dtype(indices, DType::kInt32, "gather_rows");
  RLG_REQUIRE(params.shape().rank() >= 1, "gather_rows requires rank >= 1");
  RLG_REQUIRE(indices.shape().rank() == 1, "gather_rows indices must be 1-D");
  int64_t n = params.shape().dim(0);
  int64_t row_elems = params.num_elements() / std::max<int64_t>(n, 1);
  size_t row_bytes = static_cast<size_t>(row_elems) * dtype_size(params.dtype());
  Shape out_shape =
      Shape{indices.shape().dim(0)}.concat(params.shape().drop_front(1));
  Tensor out(params.dtype(), out_shape);
  const int32_t* pi = indices.data<int32_t>();
  const auto* pp = static_cast<const uint8_t*>(params.raw());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  for (int64_t i = 0; i < indices.num_elements(); ++i) {
    int32_t idx = pi[i];
    RLG_REQUIRE(idx >= 0 && idx < n, "gather_rows index out of range");
    std::memcpy(po + static_cast<size_t>(i) * row_bytes,
                pp + static_cast<size_t>(idx) * row_bytes, row_bytes);
  }
  return out;
}

Tensor select_columns(const Tensor& values, const Tensor& indices) {
  check_dtype(values, DType::kFloat32, "select_columns");
  check_dtype(indices, DType::kInt32, "select_columns");
  RLG_REQUIRE(values.shape().rank() == 2, "select_columns values must be 2-D");
  RLG_REQUIRE(indices.shape().rank() == 1 &&
                  indices.shape().dim(0) == values.shape().dim(0),
              "select_columns indices must be [batch]");
  int64_t batch = values.shape().dim(0);
  int64_t cols = values.shape().dim(1);
  Tensor out(DType::kFloat32, Shape{batch});
  const float* pv = values.data<float>();
  const int32_t* pi = indices.data<int32_t>();
  float* po = out.mutable_data<float>();
  for (int64_t b = 0; b < batch; ++b) {
    int32_t c = pi[b];
    RLG_REQUIRE(c >= 0 && c < cols, "select_columns index out of range");
    po[b] = pv[b * cols + c];
  }
  return out;
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  RLG_REQUIRE(!parts.empty(), "concat of zero tensors");
  const Shape& first = parts[0].shape();
  RLG_REQUIRE(axis >= 0 && axis < first.rank(), "concat axis out of range");
  int64_t total_axis = 0;
  for (const Tensor& p : parts) {
    RLG_REQUIRE(p.dtype() == parts[0].dtype(), "concat dtype mismatch");
    RLG_REQUIRE(p.shape().rank() == first.rank(), "concat rank mismatch");
    for (int i = 0; i < first.rank(); ++i) {
      if (i != axis) {
        RLG_REQUIRE(p.shape().dim(i) == first.dim(i),
                    "concat non-axis dim mismatch at axis " << i);
      }
    }
    total_axis += p.shape().dim(axis);
  }
  Shape out_shape = first.with_dim(axis, total_axis);
  Tensor out(parts[0].dtype(), out_shape);
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= first.dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < first.rank(); ++i) inner *= first.dim(i);
  size_t esize = dtype_size(parts[0].dtype());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  size_t out_row = static_cast<size_t>(total_axis * inner) * esize;
  size_t offset = 0;
  for (const Tensor& p : parts) {
    size_t p_row = static_cast<size_t>(p.shape().dim(axis) * inner) * esize;
    const auto* pp = static_cast<const uint8_t*>(p.raw());
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + static_cast<size_t>(o) * out_row + offset,
                  pp + static_cast<size_t>(o) * p_row, p_row);
    }
    offset += p_row;
  }
  return out;
}

std::vector<Tensor> split(const Tensor& t, int axis,
                          const std::vector<int64_t>& sizes) {
  RLG_REQUIRE(axis >= 0 && axis < t.shape().rank(), "split axis out of range");
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  RLG_REQUIRE(total == t.shape().dim(axis),
              "split sizes sum " << total << " != dim " << t.shape().dim(axis));
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= t.shape().dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < t.shape().rank(); ++i) inner *= t.shape().dim(i);
  size_t esize = dtype_size(t.dtype());
  const auto* pt = static_cast<const uint8_t*>(t.raw());
  size_t in_row = static_cast<size_t>(total * inner) * esize;
  std::vector<Tensor> out;
  out.reserve(sizes.size());
  size_t offset = 0;
  for (int64_t s : sizes) {
    Shape shape = t.shape().with_dim(axis, s);
    Tensor part(t.dtype(), shape);
    auto* pp = static_cast<uint8_t*>(part.mutable_raw());
    size_t p_row = static_cast<size_t>(s * inner) * esize;
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(pp + static_cast<size_t>(o) * p_row,
                  pt + static_cast<size_t>(o) * in_row + offset, p_row);
    }
    offset += p_row;
    out.push_back(std::move(part));
  }
  return out;
}

Tensor slice_rows(const Tensor& t, int64_t begin, int64_t size) {
  RLG_REQUIRE(t.shape().rank() >= 1, "slice_rows requires rank >= 1");
  int64_t n = t.shape().dim(0);
  RLG_REQUIRE(begin >= 0 && size >= 0 && begin + size <= n,
              "slice_rows [" << begin << ", " << begin + size
                             << ") out of range for " << n << " rows");
  int64_t row_elems = n == 0 ? 0 : t.num_elements() / n;
  size_t row_bytes = static_cast<size_t>(row_elems) * dtype_size(t.dtype());
  Shape out_shape = Shape{size}.concat(t.shape().drop_front(1));
  Tensor out(t.dtype(), out_shape);
  std::memcpy(out.mutable_raw(),
              static_cast<const uint8_t*>(t.raw()) +
                  static_cast<size_t>(begin) * row_bytes,
              static_cast<size_t>(size) * row_bytes);
  return out;
}

Tensor stack_rows(const std::vector<Tensor>& parts) {
  RLG_REQUIRE(!parts.empty(), "stack_rows of zero tensors");
  const Shape& s = parts[0].shape();
  Shape out_shape = s.prepend(static_cast<int64_t>(parts.size()));
  Tensor out(parts[0].dtype(), out_shape);
  size_t row_bytes = parts[0].byte_size();
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  for (size_t i = 0; i < parts.size(); ++i) {
    RLG_REQUIRE(parts[i].shape() == s && parts[i].dtype() == parts[0].dtype(),
                "stack_rows: inhomogeneous parts");
    std::memcpy(po + i * row_bytes, parts[i].raw(), row_bytes);
  }
  return out;
}

Tensor random_uniform(const Shape& shape, double lo, double hi, Rng& rng) {
  Tensor t(DType::kFloat32, shape);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor random_normal(const Shape& shape, double mean, double stddev, Rng& rng) {
  Tensor t(DType::kFloat32, shape);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor random_int(const Shape& shape, int64_t n, Rng& rng) {
  Tensor t(DType::kInt32, shape);
  int32_t* p = t.mutable_data<int32_t>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<int32_t>(rng.uniform_int(n));
  }
  return t;
}

namespace {
template <typename Act>
void bias_activation_rows(float* p, int64_t rows, int64_t n,
                          const float* bias, Act act) {
  for (int64_t i = 0; i < rows; ++i, p += n) {
    for (int64_t j = 0; j < n; ++j) p[j] = act(p[j] + bias[j]);
  }
}

// p[i][j] = act(p[i][j] + bias[j]) over `rows` rows of n, with exactly the
// activation expressions of the standalone unary kernels, so a fused
// epilogue produces bit-identical results to the unfused ops.
void bias_activation(float* p, int64_t rows, int64_t n, const float* bias,
                     FusedActivation act) {
  switch (act) {
    case FusedActivation::kNone:
      return bias_activation_rows(p, rows, n, bias, [](float v) { return v; });
    case FusedActivation::kRelu:
      return bias_activation_rows(p, rows, n, bias, [](float v) {
        return v > 0.0f ? v : 0.0f;
      });
    case FusedActivation::kTanh:
      return bias_activation_rows(p, rows, n, bias,
                                  [](float v) { return std::tanh(v); });
    case FusedActivation::kSigmoid:
      return bias_activation_rows(p, rows, n, bias, [](float v) {
        return 1.0f / (1.0f + std::exp(-v));
      });
  }
}
}  // namespace

FusedActivation fused_activation_from_string(const std::string& name) {
  if (name.empty() || name == "none" || name == "linear") {
    return FusedActivation::kNone;
  }
  if (name == "relu") return FusedActivation::kRelu;
  if (name == "tanh") return FusedActivation::kTanh;
  if (name == "sigmoid") return FusedActivation::kSigmoid;
  throw ValueError("fused activation: unsupported \"" + name + "\"");
}

Tensor fused_dense(const Tensor& x, const Tensor& w, const Tensor& bias,
                   FusedActivation act) {
  check_dtype(x, DType::kFloat32, "fused_dense");
  check_dtype(w, DType::kFloat32, "fused_dense");
  check_dtype(bias, DType::kFloat32, "fused_dense");
  RLG_REQUIRE(x.shape().rank() == 2 && w.shape().rank() == 2,
              "fused_dense requires rank-2 operands, got "
                  << x.shape().to_string() << " x " << w.shape().to_string());
  int64_t m = x.shape().dim(0), k = x.shape().dim(1);
  int64_t k2 = w.shape().dim(0), n = w.shape().dim(1);
  RLG_REQUIRE(k == k2,
              "fused_dense inner dims mismatch: " << k << " vs " << k2);
  RLG_REQUIRE(bias.shape().rank() == 1 && bias.shape().dim(0) == n,
              "fused_dense bias must be [" << n << "], got "
                                           << bias.shape().to_string());
  Tensor out(DType::kFloat32, Shape{m, n});
  // matmul's body; the bias + activation epilogue runs on the shard's own
  // rows after the full k loop, so fused == MatMul -> Add -> act bit for bit.
  const float* pbias = bias.data<float>();
  dense_forward(x.data<float>(), w.data<float>(), out.mutable_data<float>(), m,
                k, n, [pbias, n, act](float* rows, int64_t count) {
                  bias_activation(rows, count, n, pbias, act);
                });
  return out;
}

Tensor fused_conv2d(const Tensor& input, const Tensor& filter,
                    const Tensor& bias, int stride, bool same_padding,
                    FusedActivation act) {
  check_dtype(input, DType::kFloat32, "fused_conv2d");
  check_dtype(filter, DType::kFloat32, "fused_conv2d");
  check_dtype(bias, DType::kFloat32, "fused_conv2d");
  ConvDims d = conv_dims(input.shape(), filter.shape(), stride, same_padding);
  RLG_REQUIRE(bias.shape().rank() == 1 && bias.shape().dim(0) == d.out_c,
              "fused_conv2d bias must be [" << d.out_c << "], got "
                                            << bias.shape().to_string());
  Tensor out(DType::kFloat32, Shape{d.batch, d.out_h, d.out_w, d.out_c});
  // conv2d's body, plus a bias + activation epilogue on each output row the
  // shard finishes.
  const float* pbias = bias.data<float>();
  int64_t out_c = d.out_c;
  conv_forward(d, stride, input.data<float>(), filter.data<float>(),
               out.mutable_data<float>(),
               [pbias, out_c, act](float* pixels, int64_t count) {
                 bias_activation(pixels, count, out_c, pbias, act);
               });
  return out;
}

namespace {
struct CompiledLink {
  float (*un)(float) = nullptr;
  float (*bin)(float, float) = nullptr;
  bool chain_left = true;
  int extra = -1;
  int read = -1;  // slot of `extra` in its segment's walk
};

// Extras one walk of fused_elementwise reads.
constexpr int kMaxFusedReads = 4;

CompiledLink compile_link(const EwiseLink& link, size_t num_extras) {
  CompiledLink c;
  if (link.binary) {
    c.chain_left = link.chain_left;
    c.extra = link.extra;
    RLG_REQUIRE(link.extra >= 0 &&
                    static_cast<size_t>(link.extra) < num_extras,
                "fused_elementwise: extra index " << link.extra
                                                  << " out of range");
    // Same lambdas as the standalone binary kernels.
    if (link.op == "Add") c.bin = +[](float x, float y) { return x + y; };
    else if (link.op == "Sub") c.bin = +[](float x, float y) { return x - y; };
    else if (link.op == "Mul") c.bin = +[](float x, float y) { return x * y; };
    else if (link.op == "Div") c.bin = +[](float x, float y) { return x / y; };
    else if (link.op == "Minimum")
      c.bin = +[](float x, float y) { return x < y ? x : y; };
    else if (link.op == "Maximum")
      c.bin = +[](float x, float y) { return x > y ? x : y; };
    else
      throw ValueError("fused_elementwise: unsupported binary op " + link.op);
  } else {
    // Same lambdas as the standalone unary kernels.
    if (link.op == "Neg") c.un = +[](float x) { return -x; };
    else if (link.op == "Exp") c.un = +[](float x) { return std::exp(x); };
    else if (link.op == "Log") c.un = +[](float x) { return std::log(x); };
    else if (link.op == "Sqrt") c.un = +[](float x) { return std::sqrt(x); };
    else if (link.op == "Square") c.un = +[](float x) { return x * x; };
    else if (link.op == "Abs") c.un = +[](float x) { return std::fabs(x); };
    else if (link.op == "Relu")
      c.un = +[](float x) { return x > 0.0f ? x : 0.0f; };
    else if (link.op == "Sigmoid")
      c.un = +[](float x) { return 1.0f / (1.0f + std::exp(-x)); };
    else if (link.op == "Tanh") c.un = +[](float x) { return std::tanh(x); };
    else
      throw ValueError("fused_elementwise: unsupported unary op " + link.op);
  }
  return c;
}
}  // namespace

Tensor fused_elementwise(const Tensor& x, const std::vector<Tensor>& extras,
                         const std::vector<EwiseLink>& links) {
  check_dtype(x, DType::kFloat32, "fused_elementwise");
  for (const Tensor& e : extras) {
    check_dtype(e, DType::kFloat32, "fused_elementwise");
  }
  std::vector<CompiledLink> steps;
  steps.reserve(links.size());
  for (const EwiseLink& l : links) steps.push_back(compile_link(l, extras.size()));
  const Shape& oshape = x.shape();
  for (const Tensor& e : extras) {
    const Shape& es = e.shape();
    bool fits = es.rank() <= oshape.rank();
    for (int i = 0; fits && i < es.rank(); ++i) {
      int64_t d = es.dim(i);
      fits = d == 1 || d == oshape.dim(oshape.rank() - es.rank() + i);
    }
    RLG_REQUIRE(fits, "fused_elementwise: extra " << es.to_string()
                                                  << " does not broadcast into "
                                                  << oshape.to_string());
  }
  Tensor out(DType::kFloat32, oshape);
  float* po = out.mutable_data<float>();
  int64_t n = oshape.num_elements();
  // The links run in segments that each read at most kMaxFusedReads extras
  // through one coalesced walk (each extra element pairs with the same chain
  // element as in the unfused broadcast op). A longer chain carries the
  // running value through the output between segments: every element still
  // sees the same ops in the same order.
  const float* src = x.data<float>();
  size_t first = 0;
  do {
    WalkOperand in[kMaxFusedReads];
    const float* pext[kMaxFusedReads];
    int reads = 0;
    size_t last = first;
    for (; last < steps.size(); ++last) {
      CompiledLink& s = steps[last];
      if (s.un) continue;
      if (reads == kMaxFusedReads) break;
      const Tensor& e = extras[static_cast<size_t>(s.extra)];
      s.read = reads;
      in[reads] = {&e.shape()};
      pext[reads++] = e.data<float>();
    }
    const Walk<kMaxFusedReads> w =
        coalesce<kMaxFusedReads>("fused_elementwise", oshape, in, reads);
    const CompiledLink* seg = steps.data() + first;
    const size_t seg_len = last - first;
    walk_all(w, kMathGrain, n,
             [&](int64_t o, const int64_t* off, int64_t len) {
               for (int64_t i = 0; i < len; ++i) {
                 float v = src[o + i];
                 for (size_t k = 0; k < seg_len; ++k) {
                   const CompiledLink& s = seg[k];
                   if (s.un) {
                     v = s.un(v);
                   } else {
                     float e = pext[s.read][off[s.read] +
                                            i * w.stride[s.read][0]];
                     v = s.chain_left ? s.bin(v, e) : s.bin(e, v);
                   }
                 }
                 po[o + i] = v;
               }
             });
    src = po;
    first = last;
  } while (first < steps.size());
  return out;
}

Tensor quantize_linear(const Tensor& a, float scale) {
  check_dtype(a, DType::kFloat32, "quantize_linear");
  RLG_REQUIRE(std::isfinite(scale) && scale > 0.0f,
              "quantize_linear: scale must be finite and positive, got "
                  << scale);
  Tensor out(DType::kInt8, a.shape());
  const float* pa = a.data<float>();
  int8_t* po = out.mutable_data<int8_t>();
  shard_range(kCheapGrain, a.num_elements(),
              [pa, po, scale](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  float q = std::round(pa[i] / scale);
                  if (q > 127.0f) q = 127.0f;
                  if (q < -127.0f) q = -127.0f;
                  po[i] = static_cast<int8_t>(q);
                }
              });
  return out;
}

Tensor dequantize_linear(const Tensor& a, float scale) {
  check_dtype(a, DType::kInt8, "dequantize_linear");
  RLG_REQUIRE(std::isfinite(scale) && scale > 0.0f,
              "dequantize_linear: scale must be finite and positive, got "
                  << scale);
  Tensor out(DType::kFloat32, a.shape());
  const int8_t* pa = a.data<int8_t>();
  float* po = out.mutable_data<float>();
  shard_range(kCheapGrain, a.num_elements(),
              [pa, po, scale](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  po[i] = static_cast<float>(pa[i]) * scale;
                }
              });
  return out;
}

Tensor matmul_int8(const Tensor& a, const Tensor& b, float rescale) {
  check_dtype(a, DType::kInt8, "matmul_int8");
  check_dtype(b, DType::kInt8, "matmul_int8");
  RLG_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2,
              "matmul_int8 requires rank-2 operands, got "
                  << a.shape().to_string() << " x " << b.shape().to_string());
  int64_t m = a.shape().dim(0), k = a.shape().dim(1);
  int64_t k2 = b.shape().dim(0), n = b.shape().dim(1);
  RLG_REQUIRE(k == k2,
              "matmul_int8 inner dims mismatch: " << k << " vs " << k2);
  Tensor out(DType::kFloat32, Shape{m, n});
  const int8_t* pa = a.data<int8_t>();
  const int8_t* pb = b.data<int8_t>();
  float* po = out.mutable_data<float>();
  // Integer accumulation is exact and associative, so sharding only needs
  // disjoint output rows; each row accumulates into an int32 scratch vector
  // and converts once at the end (single rounding step per element).
  shard_range(rows_grain(2 * k * n), m,
              [pa, pb, po, k, n, rescale](int64_t r0, int64_t r1) {
                std::vector<int32_t> acc(static_cast<size_t>(n));
                for (int64_t i = r0; i < r1; ++i) {
                  std::fill(acc.begin(), acc.end(), 0);
                  const int8_t* arow = pa + i * k;
                  for (int64_t kk = 0; kk < k; ++kk) {
                    int32_t av = arow[kk];
                    if (av == 0) continue;
                    const int8_t* brow = pb + kk * n;
                    for (int64_t j = 0; j < n; ++j) {
                      acc[static_cast<size_t>(j)] +=
                          av * static_cast<int32_t>(brow[j]);
                    }
                  }
                  float* orow = po + i * n;
                  for (int64_t j = 0; j < n; ++j) {
                    orow[j] = static_cast<float>(acc[static_cast<size_t>(j)]) *
                              rescale;
                  }
                }
              });
  return out;
}

Tensor cast(const Tensor& a, DType target) { return a.cast(target); }

}  // namespace kernels
}  // namespace rlgraph
