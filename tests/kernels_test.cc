// Tests for the numeric kernels, including parameterized broadcasting sweeps,
// convolution forward/backward checks against naive references, and bitwise
// checks of the conv and dense kernels against scalar reference loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <type_traits>

#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

using kernels::add;
using kernels::FusedActivation;
using kernels::mul;

Tensor floats(const Shape& s, std::vector<float> v) {
  return Tensor::from_floats(s, std::move(v));
}

TEST(KernelsTest, ElementwiseBinary) {
  Tensor a = floats(Shape{3}, {1, 2, 3});
  Tensor b = floats(Shape{3}, {10, 20, 30});
  EXPECT_EQ(add(a, b).to_floats(), (std::vector<float>{11, 22, 33}));
  EXPECT_EQ(kernels::sub(b, a).to_floats(), (std::vector<float>{9, 18, 27}));
  EXPECT_EQ(mul(a, b).to_floats(), (std::vector<float>{10, 40, 90}));
  EXPECT_EQ(kernels::div(b, a).to_floats(),
            (std::vector<float>{10, 10, 10}));
  EXPECT_EQ(kernels::minimum(a, floats(Shape{3}, {2, 1, 5})).to_floats(),
            (std::vector<float>{1, 1, 3}));
  EXPECT_EQ(kernels::maximum(a, floats(Shape{3}, {2, 1, 5})).to_floats(),
            (std::vector<float>{2, 2, 5}));
}

TEST(KernelsTest, IntElementwise) {
  Tensor a = Tensor::from_ints(Shape{2}, {3, 4});
  Tensor b = Tensor::from_ints(Shape{2}, {1, 2});
  EXPECT_EQ(add(a, b).to_ints(), (std::vector<int32_t>{4, 6}));
  EXPECT_THROW(add(a, floats(Shape{2}, {1, 2})), ValueError);
}

// Parameterized broadcasting sweep: (a shape, b shape, expected shape).
struct BroadcastCase {
  Shape a, b, expected;
};
class BroadcastTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastTest, AddMatchesPerElementReference) {
  const BroadcastCase& c = GetParam();
  Rng rng(77);
  Tensor a = kernels::random_uniform(c.a, -2, 2, rng);
  Tensor b = kernels::random_uniform(c.b, -2, 2, rng);
  Tensor out = add(a, b);
  ASSERT_EQ(out.shape(), c.expected);
  // Reference: compute via explicit multi-index arithmetic.
  int rank = c.expected.rank();
  std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
  for (int64_t flat = 0; flat < out.num_elements(); ++flat) {
    auto source_index = [&](const Shape& s) {
      int64_t si = 0, stride = 1;
      for (int d = s.rank() - 1, od = rank - 1; d >= 0; --d, --od) {
        int64_t coord = s.dim(d) == 1 ? 0 : idx[static_cast<size_t>(od)];
        si += coord * stride;
        stride *= s.dim(d);
      }
      return si;
    };
    float expected = a.data<float>()[source_index(c.a)] +
                     b.data<float>()[source_index(c.b)];
    EXPECT_FLOAT_EQ(out.data<float>()[flat], expected) << "flat=" << flat;
    for (int d = rank - 1; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < c.expected.dim(d)) break;
      idx[static_cast<size_t>(d)] = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastTest,
    ::testing::Values(
        BroadcastCase{Shape{4}, Shape{4}, Shape{4}},
        BroadcastCase{Shape{2, 3}, Shape{3}, Shape{2, 3}},
        BroadcastCase{Shape{2, 3}, Shape{}, Shape{2, 3}},
        BroadcastCase{Shape{2, 1}, Shape{1, 5}, Shape{2, 5}},
        BroadcastCase{Shape{3, 1, 2}, Shape{4, 1}, Shape{3, 4, 2}},
        BroadcastCase{Shape{1}, Shape{5}, Shape{5}},
        BroadcastCase{Shape{2, 2, 2}, Shape{2, 2, 2}, Shape{2, 2, 2}}));

TEST(KernelsTest, UnaryOps) {
  Tensor x = floats(Shape{4}, {-1, 0, 2, -3});
  EXPECT_EQ(kernels::relu(x).to_floats(), (std::vector<float>{0, 0, 2, 0}));
  EXPECT_EQ(kernels::neg(x).to_floats(), (std::vector<float>{1, 0, -2, 3}));
  EXPECT_EQ(kernels::abs(x).to_floats(), (std::vector<float>{1, 0, 2, 3}));
  EXPECT_EQ(kernels::square(x).to_floats(),
            (std::vector<float>{1, 0, 4, 9}));
  EXPECT_FLOAT_EQ(kernels::sigmoid(floats(Shape{1}, {0})).to_floats()[0],
                  0.5f);
  EXPECT_EQ(kernels::clip(x, -1.5, 1.5).to_floats(),
            (std::vector<float>{-1, 0, 1.5, -1.5}));
}

TEST(KernelsTest, Comparisons) {
  Tensor a = floats(Shape{3}, {1, 2, 3});
  Tensor b = floats(Shape{3}, {2, 2, 2});
  Tensor g = kernels::greater(a, b);
  EXPECT_EQ(g.dtype(), DType::kBool);
  EXPECT_EQ(g.data<uint8_t>()[0], 0);
  EXPECT_EQ(g.data<uint8_t>()[2], 1);
  Tensor e = kernels::equal(a, b);
  EXPECT_EQ(e.data<uint8_t>()[1], 1);
  Tensor l = kernels::less(a, b);
  EXPECT_EQ(l.data<uint8_t>()[0], 1);
  Tensor both = kernels::logical_and(g, kernels::logical_not(l));
  EXPECT_EQ(both.data<uint8_t>()[2], 1);
}

TEST(KernelsTest, Where) {
  Tensor cond = Tensor::from_bools(Shape{2}, {true, false});
  Tensor a = floats(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = floats(Shape{2, 2}, {9, 9, 9, 9});
  // Per-row select: cond [2] against values [2, 2].
  EXPECT_EQ(kernels::where(cond, a, b).to_floats(),
            (std::vector<float>{1, 2, 9, 9}));
}

TEST(KernelsTest, MatMul) {
  Tensor a = floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = floats(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = kernels::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.to_floats(), (std::vector<float>{58, 64, 139, 154}));
  EXPECT_THROW(kernels::matmul(a, a), ValueError);
}

TEST(KernelsTest, Transpose2D) {
  Tensor a = floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(kernels::transpose2d(a).to_floats(),
            (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

// Naive conv reference for validation.
Tensor naive_conv(const Tensor& in, const Tensor& f, int stride, bool same) {
  int64_t B = in.shape().dim(0), H = in.shape().dim(1), W = in.shape().dim(2),
          C = in.shape().dim(3);
  int64_t kh = f.shape().dim(0), kw = f.shape().dim(1),
          O = f.shape().dim(3);
  int64_t oh, ow, ph = 0, pw = 0;
  if (same) {
    oh = (H + stride - 1) / stride;
    ow = (W + stride - 1) / stride;
    ph = std::max<int64_t>(0, ((oh - 1) * stride + kh - H)) / 2;
    pw = std::max<int64_t>(0, ((ow - 1) * stride + kw - W)) / 2;
  } else {
    oh = (H - kh) / stride + 1;
    ow = (W - kw) / stride + 1;
  }
  Tensor out = Tensor::zeros(DType::kFloat32, Shape{B, oh, ow, O});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t y = 0; y < oh; ++y)
      for (int64_t x = 0; x < ow; ++x)
        for (int64_t o = 0; o < O; ++o) {
          double acc = 0;
          for (int64_t fy = 0; fy < kh; ++fy)
            for (int64_t fx = 0; fx < kw; ++fx)
              for (int64_t c = 0; c < C; ++c) {
                int64_t iy = y * stride + fy - ph;
                int64_t ix = x * stride + fx - pw;
                if (iy < 0 || iy >= H || ix < 0 || ix >= W) continue;
                acc += in.at_flat(((b * H + iy) * W + ix) * C + c) *
                       f.at_flat(((fy * kw + fx) * C + c) * O + o);
              }
          out.set_flat(((b * oh + y) * ow + x) * O + o, acc);
        }
  return out;
}

struct ConvCase {
  int64_t h, w, c, k, filters;
  int stride;
  bool same;
};
class ConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvTest, MatchesNaiveReference) {
  const ConvCase& p = GetParam();
  Rng rng(123);
  Tensor in = kernels::random_uniform(Shape{2, p.h, p.w, p.c}, -1, 1, rng);
  Tensor f =
      kernels::random_uniform(Shape{p.k, p.k, p.c, p.filters}, -1, 1, rng);
  Tensor got = kernels::conv2d(in, f, p.stride, p.same);
  Tensor want = naive_conv(in, f, p.stride, p.same);
  EXPECT_TRUE(got.all_close(want, 1e-4))
      << got.to_string() << " vs " << want.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvTest,
    ::testing::Values(ConvCase{5, 5, 1, 3, 2, 1, false},
                      ConvCase{8, 8, 3, 3, 4, 2, false},
                      ConvCase{6, 6, 2, 2, 3, 2, false},
                      ConvCase{5, 5, 1, 3, 2, 1, true},
                      ConvCase{7, 9, 2, 3, 2, 2, true}));

TEST(KernelsTest, ConvBackwardShapesAndFiniteDiff) {
  Rng rng(9);
  Shape in_shape{1, 4, 4, 1};
  Shape f_shape{2, 2, 1, 2};
  Tensor in = kernels::random_uniform(in_shape, -1, 1, rng);
  Tensor f = kernels::random_uniform(f_shape, -1, 1, rng);
  Tensor out = kernels::conv2d(in, f, 1, false);
  // Loss = sum(out); grad_out = ones.
  Tensor gout = Tensor::filled(DType::kFloat32, out.shape(), 1.0);
  Tensor gin = kernels::conv2d_backprop_input(in_shape, f, gout, 1, false);
  Tensor gf = kernels::conv2d_backprop_filter(in, f_shape, gout, 1, false);
  ASSERT_EQ(gin.shape(), in_shape);
  ASSERT_EQ(gf.shape(), f_shape);
  auto loss = [&](const Tensor& input, const Tensor& filter) {
    Tensor o = kernels::conv2d(input, filter, 1, false);
    double s = 0;
    for (int64_t i = 0; i < o.num_elements(); ++i) s += o.at_flat(i);
    return s;
  };
  const double eps = 1e-3;
  for (int64_t i = 0; i < in.num_elements(); i += 3) {
    Tensor p = in.clone(), m = in.clone();
    p.set_flat(i, in.at_flat(i) + eps);
    m.set_flat(i, in.at_flat(i) - eps);
    double fd = (loss(p, f) - loss(m, f)) / (2 * eps);
    EXPECT_NEAR(gin.at_flat(i), fd, 1e-2);
  }
  for (int64_t i = 0; i < f.num_elements(); ++i) {
    Tensor p = f.clone(), m = f.clone();
    p.set_flat(i, f.at_flat(i) + eps);
    m.set_flat(i, f.at_flat(i) - eps);
    double fd = (loss(in, p) - loss(in, m)) / (2 * eps);
    EXPECT_NEAR(gf.at_flat(i), fd, 1e-2);
  }
}

// --- bitwise order ----------------------------------------------------------
//
// The conv and dense kernels promise results bitwise equal to plain scalar
// loops that accumulate each output element in a fixed order and skip
// exact-zero inputs. These are those loops, written as plain scalar code and
// run serially; the kernels must match them byte for byte (memcmp), not
// within a tolerance.

struct RefConvDims {
  int64_t batch, in_h, in_w, in_c, kh, kw, out_c, out_h, out_w, pad_h, pad_w;
};

RefConvDims ref_dims(const Shape& in, const Shape& f, int stride, bool same) {
  RefConvDims d{in.dim(0), in.dim(1), in.dim(2), in.dim(3), f.dim(0),
                f.dim(1),  f.dim(3),  0,         0,         0,  0};
  if (same) {
    d.out_h = (d.in_h + stride - 1) / stride;
    d.out_w = (d.in_w + stride - 1) / stride;
    d.pad_h = std::max<int64_t>(0, (d.out_h - 1) * stride + d.kh - d.in_h) / 2;
    d.pad_w = std::max<int64_t>(0, (d.out_w - 1) * stride + d.kw - d.in_w) / 2;
  } else {
    d.out_h = (d.in_h - d.kh) / stride + 1;
    d.out_w = (d.in_w - d.kw) / stride + 1;
  }
  return d;
}

float ref_activation(float v, FusedActivation act) {
  switch (act) {
    case FusedActivation::kNone: return v;
    case FusedActivation::kRelu: return v > 0.0f ? v : 0.0f;
    case FusedActivation::kTanh: return std::tanh(v);
    case FusedActivation::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

// Per output element: ascending (fh, fw, c), zero inputs and padding taps
// skipped; then bias + activation when `bias` is given.
Tensor ref_conv2d(const Tensor& input, const Tensor& filter, int stride,
                  bool same, const Tensor* bias = nullptr,
                  FusedActivation act = FusedActivation::kNone) {
  RefConvDims d = ref_dims(input.shape(), filter.shape(), stride, same);
  Tensor out =
      Tensor::zeros(DType::kFloat32, Shape{d.batch, d.out_h, d.out_w, d.out_c});
  const float* pi = input.data<float>();
  const float* pf = filter.data<float>();
  float* po = out.mutable_data<float>();
  for (int64_t b = 0; b < d.batch; ++b) {
    for (int64_t oh = 0; oh < d.out_h; ++oh) {
      for (int64_t ow = 0; ow < d.out_w; ++ow) {
        float* opix = po + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
        for (int64_t fh = 0; fh < d.kh; ++fh) {
          int64_t ih = oh * stride + fh - d.pad_h;
          if (ih < 0 || ih >= d.in_h) continue;
          for (int64_t fw = 0; fw < d.kw; ++fw) {
            int64_t iw = ow * stride + fw - d.pad_w;
            if (iw < 0 || iw >= d.in_w) continue;
            const float* ipix = pi + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
            const float* fpix = pf + (fh * d.kw + fw) * d.in_c * d.out_c;
            for (int64_t c = 0; c < d.in_c; ++c) {
              float iv = ipix[c];
              if (iv == 0.0f) continue;
              const float* frow = fpix + c * d.out_c;
              for (int64_t oc = 0; oc < d.out_c; ++oc) {
                opix[oc] += iv * frow[oc];
              }
            }
          }
        }
        if (bias != nullptr) {
          for (int64_t oc = 0; oc < d.out_c; ++oc) {
            opix[oc] = ref_activation(opix[oc] + bias->data<float>()[oc], act);
          }
        }
      }
    }
  }
  return out;
}

// Per input element: taps in ascending (oh, ow, fh, fw), each the ascending-oc
// dot product of grad_out and the filter, started from +0.
Tensor ref_conv2d_backprop_input(const Shape& input_shape,
                                 const Tensor& filter, const Tensor& grad_out,
                                 int stride, bool same) {
  RefConvDims d = ref_dims(input_shape, filter.shape(), stride, same);
  Tensor grad_in = Tensor::zeros(DType::kFloat32, input_shape);
  const float* pf = filter.data<float>();
  const float* pg = grad_out.data<float>();
  float* po = grad_in.mutable_data<float>();
  for (int64_t b = 0; b < d.batch; ++b) {
    for (int64_t oh = 0; oh < d.out_h; ++oh) {
      for (int64_t ow = 0; ow < d.out_w; ++ow) {
        const float* gpix = pg + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
        for (int64_t fh = 0; fh < d.kh; ++fh) {
          int64_t ih = oh * stride + fh - d.pad_h;
          if (ih < 0 || ih >= d.in_h) continue;
          for (int64_t fw = 0; fw < d.kw; ++fw) {
            int64_t iw = ow * stride + fw - d.pad_w;
            if (iw < 0 || iw >= d.in_w) continue;
            float* ipix = po + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
            const float* fpix = pf + (fh * d.kw + fw) * d.in_c * d.out_c;
            for (int64_t c = 0; c < d.in_c; ++c) {
              const float* frow = fpix + c * d.out_c;
              float acc = 0.0f;
              for (int64_t oc = 0; oc < d.out_c; ++oc) {
                acc += gpix[oc] * frow[oc];
              }
              ipix[c] += acc;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

// Per filter element and shard of images: ascending (b, oh, ow), zero inputs
// and padding taps skipped.
Tensor ref_conv2d_backprop_filter(const Tensor& input, const Shape& f_shape,
                                  const Tensor& grad_out, int stride,
                                  bool same) {
  RefConvDims d = ref_dims(input.shape(), f_shape, stride, same);
  const float* pi = input.data<float>();
  const float* pg = grad_out.data<float>();
  auto accumulate = [&](float* po, int64_t b0, int64_t b1) {
  for (int64_t b = b0; b < b1; ++b) {
    for (int64_t oh = 0; oh < d.out_h; ++oh) {
      for (int64_t ow = 0; ow < d.out_w; ++ow) {
        const float* gpix = pg + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
        for (int64_t fh = 0; fh < d.kh; ++fh) {
          int64_t ih = oh * stride + fh - d.pad_h;
          if (ih < 0 || ih >= d.in_h) continue;
          for (int64_t fw = 0; fw < d.kw; ++fw) {
            int64_t iw = ow * stride + fw - d.pad_w;
            if (iw < 0 || iw >= d.in_w) continue;
            const float* ipix = pi + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
            float* fpix = po + (fh * d.kw + fw) * d.in_c * d.out_c;
            for (int64_t c = 0; c < d.in_c; ++c) {
              float iv = ipix[c];
              if (iv == 0.0f) continue;
              float* frow = fpix + c * d.out_c;
              for (int64_t oc = 0; oc < d.out_c; ++oc) {
                frow[oc] += iv * gpix[oc];
              }
            }
          }
        }
      }
    }
  }
  };
  // Images are split into shards by problem size alone (the same bounds as
  // the kernel's, at any thread count); each shard's partial gradient sums
  // its images in order, and the partials combine in a fixed pairwise tree.
  int64_t image_flops = 2 * d.out_h * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  int64_t grain = std::max<int64_t>(1, (int64_t{1} << 16) / image_flops);
  ShardBounds sb = shard_bounds(grain, d.batch);
  std::vector<Tensor> partials;
  for (int64_t s = 0; s < std::max<int64_t>(1, sb.num_shards); ++s) {
    partials.push_back(Tensor::zeros(DType::kFloat32, f_shape));
    int64_t b0 = sb.num_shards <= 1 ? 0 : s * sb.shard_size;
    int64_t b1 = sb.num_shards <= 1 ? d.batch
                                    : std::min(d.batch, b0 + sb.shard_size);
    accumulate(partials.back().mutable_data<float>(), b0, b1);
  }
  int64_t n = static_cast<int64_t>(partials.size());
  for (int64_t step = 1; step < n; step *= 2) {
    for (int64_t i = 0; i + step < n; i += 2 * step) {
      float* dst = partials[static_cast<size_t>(i)].mutable_data<float>();
      const float* src = partials[static_cast<size_t>(i + step)].data<float>();
      for (int64_t e = 0; e < partials[0].num_elements(); ++e) dst[e] += src[e];
    }
  }
  return partials[0];
}

// Per output element: ascending k, zero entries of a skipped; then bias +
// activation when `bias` is given.
Tensor ref_matmul(const Tensor& a, const Tensor& b,
                  const Tensor* bias = nullptr,
                  FusedActivation act = FusedActivation::kNone) {
  int64_t m = a.shape().dim(0), k = a.shape().dim(1), n = b.shape().dim(1);
  Tensor out = Tensor::zeros(DType::kFloat32, Shape{m, n});
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.mutable_data<float>();
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * pb[kk * n + j];
    }
    if (bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = ref_activation(orow[j] + bias->data<float>()[j], act);
      }
    }
  }
  return out;
}

// Values that stress the zero mask: +0, -0, subnormals of both signs, and
// normal values of mixed magnitude.
Tensor tricky(const Shape& shape, uint64_t seed) {
  std::mt19937 gen(static_cast<uint32_t>(seed));
  std::uniform_int_distribution<int> kind(0, 9);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  Tensor t(DType::kFloat32, shape);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    switch (kind(gen)) {
      case 0: case 1: case 2: p[i] = 0.0f; break;
      case 3: p[i] = -0.0f; break;
      case 4: p[i] = (i % 2 ? -1.0f : 1.0f) * 3e-39f; break;
      case 5: p[i] = std::numeric_limits<float>::denorm_min(); break;
      default: p[i] = normal(gen) * (i % 3 ? 1.0f : 1e3f); break;
    }
  }
  return t;
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(got.dtype(), want.dtype()) << what;
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), want.byte_size()), 0)
      << what << "\n got " << got.to_string() << "\nwant " << want.to_string();
}

const FusedActivation kActivations[] = {
    FusedActivation::kNone, FusedActivation::kRelu, FusedActivation::kTanh,
    FusedActivation::kSigmoid};

// with_input_grad = false leaves out conv2d_backprop_input, which has no
// zero skip to match: a non-finite filter reaches its output either way,
// and which NaN payload wins an add is up to operand order.
void check_conv_bitwise(const Tensor& in, const Tensor& f, int stride,
                        bool same, uint64_t seed,
                        bool with_input_grad = true) {
  std::string what = "in " + in.shape().to_string() + " f " +
                     f.shape().to_string() + " stride " +
                     std::to_string(stride) + (same ? " same" : " valid");
  expect_bitwise(kernels::conv2d(in, f, stride, same),
                 ref_conv2d(in, f, stride, same), "conv2d " + what);
  Tensor bias = tricky(Shape{f.shape().dim(3)}, seed + 1);
  for (FusedActivation act : kActivations) {
    expect_bitwise(kernels::fused_conv2d(in, f, bias, stride, same, act),
                   ref_conv2d(in, f, stride, same, &bias, act),
                   "fused_conv2d act " +
                       std::to_string(static_cast<int>(act)) + " " + what);
  }
  Shape out_shape = ref_conv2d(in, f, stride, same).shape();
  Tensor g = tricky(out_shape, seed + 2);
  if (with_input_grad) {
    expect_bitwise(
        kernels::conv2d_backprop_input(in.shape(), f, g, stride, same),
        ref_conv2d_backprop_input(in.shape(), f, g, stride, same),
        "conv2d_backprop_input " + what);
  }
  expect_bitwise(
      kernels::conv2d_backprop_filter(in, f.shape(), g, stride, same),
      ref_conv2d_backprop_filter(in, f.shape(), g, stride, same),
      "conv2d_backprop_filter " + what);
}

void check_dense_bitwise(const Tensor& a, const Tensor& b, uint64_t seed) {
  std::string what = a.shape().to_string() + " x " + b.shape().to_string();
  expect_bitwise(kernels::matmul(a, b), ref_matmul(a, b), "matmul " + what);
  Tensor bias = tricky(Shape{b.shape().dim(1)}, seed + 1);
  for (FusedActivation act : kActivations) {
    expect_bitwise(kernels::fused_dense(a, b, bias, act),
                   ref_matmul(a, b, &bias, act),
                   "fused_dense act " + std::to_string(static_cast<int>(act)) +
                       " " + what);
  }
}

TEST(KernelsBitwiseTest, PongLayers) {
  for (int64_t batch : {1, 4, 33}) {
    uint64_t seed = static_cast<uint64_t>(batch) * 100;
    check_conv_bitwise(tricky(Shape{batch, 16, 16, 1}, seed),
                       tricky(Shape{4, 4, 1, 4}, seed + 10), 2, false, seed);
    check_conv_bitwise(tricky(Shape{batch, 7, 7, 4}, seed + 20),
                       tricky(Shape{3, 3, 4, 8}, seed + 30), 2, false, seed);
    check_dense_bitwise(tricky(Shape{batch, 72}, seed + 40),
                        tricky(Shape{72, 32}, seed + 50), seed);
    for (int64_t heads : {1, 3}) {
      check_dense_bitwise(tricky(Shape{batch, 32}, seed + 60),
                          tricky(Shape{32, heads}, seed + 70), seed);
    }
    // The backward matmuls: dy W^T and x^T dy.
    check_dense_bitwise(tricky(Shape{batch, 32}, seed + 80),
                        tricky(Shape{32, 72}, seed + 90), seed);
    check_dense_bitwise(tricky(Shape{72, batch}, seed + 95),
                        tricky(Shape{batch, 32}, seed + 99), seed);
  }
}

TEST(KernelsBitwiseTest, ConvGeometrySweep) {
  struct Geometry {
    int64_t h, w, kh, kw;
  };
  // Output widths 1 to 9, so column tiles end full and partial; the last
  // geometry's kernel is larger than its input (same padding only).
  const Geometry geometries[] = {{5, 6, 3, 3}, {7, 9, 2, 4}, {2, 3, 3, 3}};
  uint64_t seed = 1;
  for (const Geometry& g : geometries) {
    for (int stride : {1, 2}) {
      for (bool same : {false, true}) {
        if (!same && (g.h < g.kh || g.w < g.kw)) continue;
        for (int64_t cin : {1, 3, 4}) {
          for (int64_t cout : {1, 3, 4, 5, 8, 12}) {
            seed += 7;
            check_conv_bitwise(tricky(Shape{2, g.h, g.w, cin}, seed),
                               tricky(Shape{g.kh, g.kw, cin, cout}, seed + 3),
                               stride, same, seed);
          }
        }
      }
    }
  }
}

TEST(KernelsBitwiseTest, DenseShapeSweep) {
  uint64_t seed = 5;
  for (int64_t m : {1, 3, 4, 5, 9, 33}) {
    for (int64_t k : {1, 7, 72}) {
      for (int64_t n : {1, 3, 4, 5, 8, 12, 32, 33}) {
        seed += 11;
        check_dense_bitwise(tricky(Shape{m, k}, seed),
                            tricky(Shape{k, n}, seed + 3), seed);
      }
    }
  }
}

// A NaN or infinite weight under an input that is always zero never reaches
// the output: the scalar loop skips the zero, the vector body masks it.
TEST(KernelsBitwiseTest, NonFiniteWeightUnderZeroInput) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (bool same : {false, true}) {
    Tensor in = tricky(Shape{3, 6, 7, 3}, 41);
    float* pi = in.mutable_data<float>();
    for (int64_t i = 1; i < in.num_elements(); i += 3) {
      pi[i] = (i / 3) % 2 ? -0.0f : 0.0f;  // channel 1: all +-0
    }
    Tensor f = tricky(Shape{3, 3, 3, 5}, 42);
    float* pf = f.mutable_data<float>();
    for (int64_t tap = 0; tap < 9; ++tap) {
      pf[(tap * 3 + 1) * 5 + tap % 5] = tap % 2 ? nan : -inf;
    }
    check_conv_bitwise(in, f, 1, same, 43, /*with_input_grad=*/false);
    for (FusedActivation act : kActivations) {
      Tensor out = kernels::fused_conv2d(in, f, tricky(Shape{5}, 44), 1, same,
                                         act);
      for (float v : out.to_floats()) EXPECT_FALSE(std::isnan(v));
    }
  }
  Tensor a = tricky(Shape{9, 6}, 45);
  float* pa = a.mutable_data<float>();
  for (int64_t i = 0; i < 9; ++i) pa[i * 6 + 2] = i % 2 ? -0.0f : 0.0f;
  Tensor b = tricky(Shape{6, 10}, 46);
  float* pb = b.mutable_data<float>();
  for (int64_t j = 0; j < 10; ++j) pb[2 * 10 + j] = j % 2 ? nan : inf;
  check_dense_bitwise(a, b, 47);
  for (float v : kernels::matmul(a, b).to_floats()) {
    EXPECT_FALSE(std::isnan(v));
  }
}

// Both backprops read grad_out as [B, Ho, Wo, Cout] float32; anything else
// is rejected before a single element is read.
TEST(KernelsTest, ConvBackpropRejectsMismatchedGradOut) {
  Rng rng(3);
  Shape in_shape{2, 6, 6, 3};
  Shape f_shape{3, 3, 3, 4};
  Tensor in = kernels::random_uniform(in_shape, -1, 1, rng);
  Tensor f = kernels::random_uniform(f_shape, -1, 1, rng);
  // conv2d(in, f, 1, valid) is [2, 4, 4, 4].
  const Tensor bad[] = {
      Tensor::zeros(DType::kFloat32, Shape{1, 4, 4, 4}),  // batch
      Tensor::zeros(DType::kFloat32, Shape{2, 3, 4, 4}),  // height
      Tensor::zeros(DType::kFloat32, Shape{2, 4, 2, 4}),  // width
      Tensor::zeros(DType::kFloat32, Shape{2, 4, 4, 2}),  // channels
      Tensor::zeros(DType::kFloat32, Shape{2, 16, 4}),    // rank
      Tensor::zeros(DType::kInt32, Shape{2, 4, 4, 4}),    // dtype
  };
  for (const Tensor& g : bad) {
    EXPECT_THROW(kernels::conv2d_backprop_input(in_shape, f, g, 1, false),
                 ValueError)
        << g.shape().to_string();
    EXPECT_THROW(kernels::conv2d_backprop_filter(in, f_shape, g, 1, false),
                 ValueError)
        << g.shape().to_string();
  }
  Tensor good = Tensor::zeros(DType::kFloat32, Shape{2, 4, 4, 4});
  EXPECT_NO_THROW(kernels::conv2d_backprop_input(in_shape, f, good, 1, false));
  EXPECT_NO_THROW(kernels::conv2d_backprop_filter(in, f_shape, good, 1, false));
}

// --- bitwise broadcast ------------------------------------------------------
//
// Every elementwise kernel promises that each output element is fn(a[i],
// b[j]) on the pair a per-element broadcast loop picks, with the same scalar
// op. These references are that loop: an odometer over the output dims with
// per-operand strides (0 on broadcast dims), run serially. The kernels must
// match them byte for byte at every thread count.

// Per-dim strides of `s` against an output of rank `rank`, right-aligned
// after `trailing_ones` size-1 dims are appended to s; 0 where s is 1.
std::vector<int64_t> ref_strides(const Shape& s, int rank,
                                 int trailing_ones = 0) {
  std::vector<int64_t> st(static_cast<size_t>(rank), 0);
  int64_t acc = 1;
  for (int i = s.rank() - 1; i >= 0; --i) {
    int oi = rank - trailing_ones - s.rank() + i;
    if (s.dim(i) != 1) st[static_cast<size_t>(oi)] = acc;
    acc *= s.dim(i);
  }
  return st;
}

// Calls visit(flat, offsets) for every output element in flat order, where
// offsets[j] indexes operand j.
template <typename Visit>
void ref_odometer(const Shape& out,
                  const std::vector<std::vector<int64_t>>& strides,
                  Visit visit) {
  int rank = out.rank();
  std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
  std::vector<int64_t> off(strides.size(), 0);
  for (int64_t flat = 0; flat < out.num_elements(); ++flat) {
    visit(flat, off);
    for (int d = rank - 1; d >= 0; --d) {
      auto du = static_cast<size_t>(d);
      ++idx[du];
      for (size_t j = 0; j < off.size(); ++j) off[j] += strides[j][du];
      if (idx[du] < out.dim(d)) break;
      for (size_t j = 0; j < off.size(); ++j) {
        off[j] -= strides[j][du] * idx[du];
      }
      idx[du] = 0;
    }
  }
}

template <typename T, typename Out, typename Fn>
Tensor ref_broadcast(const Tensor& a, const Tensor& b, DType out_dtype,
                     Fn fn) {
  Shape shape = broadcast_shapes(a.shape(), b.shape());
  Tensor out(out_dtype, shape);
  const T* pa = a.data<T>();
  const T* pb = b.data<T>();
  Out* po = out.mutable_data<Out>();
  ref_odometer(shape,
               {ref_strides(a.shape(), shape.rank()),
                ref_strides(b.shape(), shape.rank())},
               [&](int64_t flat, const std::vector<int64_t>& off) {
                 po[flat] = fn(pa[off[0]], pb[off[1]]);
               });
  return out;
}

// tricky() plus NaNs with distinct payloads of both signs and infinities.
Tensor tricky_nan(const Shape& shape, uint64_t seed) {
  Tensor t = tricky(shape, seed);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    uint32_t bits;
    switch ((i * 7 + static_cast<int64_t>(seed)) % 11) {
      case 0: bits = 0x7fc00000u | static_cast<uint32_t>(i & 0xffff); break;
      case 1: bits = 0xffc00000u | static_cast<uint32_t>((i * 31) & 0xffff);
        break;
      case 2: bits = i % 2 ? 0x7f800000u : 0xff800000u; break;
      default: continue;
    }
    std::memcpy(&p[i], &bits, sizeof bits);
  }
  return t;
}

// Nonzero ints (so every int32 div is defined) of both signs.
Tensor nonzero_ints(const Shape& shape, uint64_t seed) {
  std::mt19937 gen(static_cast<uint32_t>(seed));
  std::uniform_int_distribution<int32_t> dist(-40, 40);
  Tensor t(DType::kInt32, shape);
  int32_t* p = t.mutable_data<int32_t>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    int32_t v = dist(gen);
    p[i] = v == 0 ? 7 : v;
  }
  return t;
}

Tensor random_bools(const Shape& shape, uint64_t seed) {
  std::mt19937 gen(static_cast<uint32_t>(seed));
  Tensor t(DType::kBool, shape);
  uint8_t* p = t.mutable_data<uint8_t>();
  for (int64_t i = 0; i < t.num_elements(); ++i) p[i] = gen() % 2;
  return t;
}

uint32_t float_bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// Byte equality with one exception for the commutative float ops: C++
// lets the compiler swap the operands of + and *, and when both are NaN
// the operand order decides which payload propagates (IEEE 754 leaves that
// choice open). There the result must be one of the two NaNs, quieted.
template <typename T, typename Fn>
void expect_commutative(const Tensor& got, const Tensor& a, const Tensor& b,
                        Fn fn, const std::string& what) {
  Tensor want = ref_broadcast<T, T>(a, b, a.dtype(), fn);
  if constexpr (!std::is_same_v<T, float>) {
    expect_bitwise(got, want, what);
  } else {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    Tensor left = ref_broadcast<float, float>(a, b, DType::kFloat32,
                                              [](float x, float) { return x; });
    Tensor right = ref_broadcast<float, float>(
        a, b, DType::kFloat32, [](float, float y) { return y; });
    for (int64_t i = 0; i < got.num_elements(); ++i) {
      uint32_t g = float_bits(got.data<float>()[i]);
      if (g == float_bits(want.data<float>()[i])) continue;
      float l = left.data<float>()[i];
      float r = right.data<float>()[i];
      constexpr uint32_t kQuiet = 0x00400000u;
      bool nan_pair = std::isnan(l) && std::isnan(r) &&
                      (g == (float_bits(l) | kQuiet) ||
                       g == (float_bits(r) | kQuiet));
      EXPECT_TRUE(nan_pair) << what << " element " << i << ": got 0x"
                            << std::hex << g << ", want 0x"
                            << float_bits(want.data<float>()[i]);
    }
  }
}

template <typename T>
void check_numeric_bitwise(const Tensor& a, const Tensor& b,
                           const std::string& what) {
  DType dt = a.dtype();
  expect_commutative<T>(kernels::add(a, b), a, b,
                        [](T x, T y) { return x + y; }, "add " + what);
  expect_bitwise(kernels::sub(a, b),
                 ref_broadcast<T, T>(a, b, dt, [](T x, T y) { return x - y; }),
                 "sub " + what);
  expect_commutative<T>(kernels::mul(a, b), a, b,
                        [](T x, T y) { return x * y; }, "mul " + what);
  expect_bitwise(kernels::div(a, b),
                 ref_broadcast<T, T>(a, b, dt, [](T x, T y) { return x / y; }),
                 "div " + what);
  expect_bitwise(
      kernels::minimum(a, b),
      ref_broadcast<T, T>(a, b, dt, [](T x, T y) { return x < y ? x : y; }),
      "minimum " + what);
  expect_bitwise(
      kernels::maximum(a, b),
      ref_broadcast<T, T>(a, b, dt, [](T x, T y) { return x > y ? x : y; }),
      "maximum " + what);
  auto cmp = [&](Tensor got, auto fn, const char* name) {
    expect_bitwise(got, ref_broadcast<T, uint8_t>(a, b, DType::kBool, fn),
                   name + (" " + what));
  };
  cmp(kernels::equal(a, b),
      [](T x, T y) -> uint8_t { return x == y ? 1 : 0; }, "equal");
  cmp(kernels::greater(a, b),
      [](T x, T y) -> uint8_t { return x > y ? 1 : 0; }, "greater");
  cmp(kernels::less(a, b),
      [](T x, T y) -> uint8_t { return x < y ? 1 : 0; }, "less");
}

void check_logical_bitwise(const Tensor& a, const Tensor& b,
                           const std::string& what) {
  expect_bitwise(kernels::logical_and(a, b),
                 ref_broadcast<uint8_t, uint8_t>(
                     a, b, DType::kBool,
                     [](uint8_t x, uint8_t y) -> uint8_t {
                       return (x && y) ? 1 : 0;
                     }),
                 "logical_and " + what);
  expect_bitwise(kernels::logical_or(a, b),
                 ref_broadcast<uint8_t, uint8_t>(
                     a, b, DType::kBool,
                     [](uint8_t x, uint8_t y) -> uint8_t {
                       return (x || y) ? 1 : 0;
                     }),
                 "logical_or " + what);
}

// Every binary kernel on one pair of operand shapes, both ways round.
void check_binary_bitwise(const Shape& sa, const Shape& sb, uint64_t seed) {
  for (int flip = 0; flip < 2; ++flip) {
    const Shape& l = flip ? sb : sa;
    const Shape& r = flip ? sa : sb;
    std::string what = l.to_string() + " op " + r.to_string();
    check_numeric_bitwise<float>(tricky_nan(l, seed), tricky_nan(r, seed + 1),
                                 what);
    check_numeric_bitwise<int32_t>(nonzero_ints(l, seed + 2),
                                   nonzero_ints(r, seed + 3), what);
    check_logical_bitwise(random_bools(l, seed + 4),
                          random_bools(r, seed + 5), what);
  }
}

// Serial, then 2- and 4-thread pools; restores the pool size it found.
template <typename Body>
void at_thread_counts(Body body) {
  size_t before = global_parallelism();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    set_global_parallelism(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    body();
  }
  set_global_parallelism(before);
}

TEST(KernelsBitwiseTest, BroadcastBinaryOps) {
  const std::pair<Shape, Shape> cases[] = {
      {Shape{4, 5}, Shape{}},               // scalar (and flipped: on the left)
      {Shape{}, Shape{}},                   // rank-0 output
      {Shape{1}, Shape{}},                  // all size-1 dims
      {Shape{6, 7}, Shape{6, 7}},           // same shape
      {Shape{4, 1, 3}, Shape{1, 5, 1}},     // middle-dim broadcast, both sides
      {Shape{2, 1, 4, 1}, Shape{3, 1, 5}},  // both sides, rank mismatch
      {Shape{3, 1, 6}, Shape{1, 4, 6}},     // both sides, shared inner row
      {Shape{5, 1}, Shape{5, 9}},           // column
      {Shape{0, 4}, Shape{4}},              // zero-size dims
      {Shape{3, 0, 2}, Shape{1, 1, 2}},
      {Shape{0}, Shape{}},
      // Eight coalesced dims: the most the walk takes.
      {Shape{2, 1, 2, 1, 2, 1, 2, 1}, Shape{1, 3, 1, 3, 1, 3, 1, 3}},
      // Above kCheapGrain (16384): two shards of 18482, the boundary 19
      // elements into a 37-element row.
      {Shape{999, 37}, Shape{37}},
      {Shape{999, 1, 37}, Shape{1, 2, 37}},
      {Shape{40000}, Shape{}},
  };
  std::vector<Shape> bias_shapes;
  for (int64_t c : {1, 3, 4, 5, 8, 32}) {
    bias_shapes.push_back(Shape{4, 7, 7, c});
    bias_shapes.push_back(Shape{c});
    bias_shapes.push_back(Shape{3, c});
    bias_shapes.push_back(Shape{c});
  }
  at_thread_counts([&] {
    uint64_t seed = 1000;
    for (const auto& [a, b] : cases) check_binary_bitwise(a, b, seed += 10);
    for (size_t i = 0; i < bias_shapes.size(); i += 2) {
      check_binary_bitwise(bias_shapes[i], bias_shapes[i + 1], seed += 10);
    }
  });
}

// Reference where: per-element pick of a's or b's element bits by the cond
// element covering it (cond is a leading prefix of the value shape).
Tensor ref_where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  Tensor out(a.dtype(), a.shape());
  size_t esize = dtype_size(a.dtype());
  int64_t inner = a.num_elements() / std::max<int64_t>(1, cond.num_elements());
  const uint8_t* pc = cond.data<uint8_t>();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    const Tensor& src = pc[i / inner] ? a : b;
    std::memcpy(static_cast<uint8_t*>(out.mutable_raw()) + i * esize,
                static_cast<const uint8_t*>(src.raw()) + i * esize, esize);
  }
  return out;
}

TEST(KernelsBitwiseTest, WherePerElementAndPerRow) {
  const std::pair<Shape, Shape> cases[] = {
      {Shape{32, 7, 7, 4}, Shape{32, 7, 7, 4}},  // per element
      {Shape{5}, Shape{5}},
      {Shape{}, Shape{}},
      {Shape{3, 4}, Shape{3, 4, 1}},  // per element, trailing size-1 dim
      {Shape{32}, Shape{32, 7, 7, 4}},  // per row
      {Shape{6, 2}, Shape{6, 2, 9}},
      {Shape{}, Shape{4, 5}},           // one cond for everything
      {Shape{0}, Shape{0, 3}},          // zero-size
      {Shape{300, 200}, Shape{300, 200}},  // above the row grain
      {Shape{70000}, Shape{70000, 2}},
  };
  at_thread_counts([&] {
    uint64_t seed = 2000;
    for (const auto& [cs, vs] : cases) {
      std::string what = cs.to_string() + " over " + vs.to_string();
      Tensor cond = random_bools(cs, seed += 10);
      Tensor fa = tricky_nan(vs, seed + 1), fb = tricky_nan(vs, seed + 2);
      expect_bitwise(kernels::where(cond, fa, fb), ref_where(cond, fa, fb),
                     "where float32 " + what);
      Tensor ia = nonzero_ints(vs, seed + 3), ib = nonzero_ints(vs, seed + 4);
      expect_bitwise(kernels::where(cond, ia, ib), ref_where(cond, ia, ib),
                     "where int32 " + what);
      Tensor ba = random_bools(vs, seed + 5), bb = random_bools(vs, seed + 6);
      expect_bitwise(kernels::where(cond, ba, bb), ref_where(cond, ba, bb),
                     "where bool " + what);
    }
  });
}

// The op lambdas fused_elementwise's links stand for.
float ref_unary(const std::string& op, float x) {
  if (op == "Relu") return x > 0.0f ? x : 0.0f;
  if (op == "Tanh") return std::tanh(x);
  if (op == "Neg") return -x;
  if (op == "Square") return x * x;
  ADD_FAILURE() << "no reference for " << op;
  return x;
}

float ref_binary(const std::string& op, float x, float y) {
  if (op == "Add") return x + y;
  if (op == "Sub") return x - y;
  if (op == "Mul") return x * y;
  if (op == "Div") return x / y;
  if (op == "Minimum") return x < y ? x : y;
  if (op == "Maximum") return x > y ? x : y;
  ADD_FAILURE() << "no reference for " << op;
  return x;
}

Tensor ref_fused(const Tensor& x, const std::vector<Tensor>& extras,
                 const std::vector<kernels::EwiseLink>& links) {
  const Shape& shape = x.shape();
  std::vector<std::vector<int64_t>> strides;
  for (const Tensor& e : extras) {
    strides.push_back(ref_strides(e.shape(), shape.rank()));
  }
  Tensor out(DType::kFloat32, shape);
  float* po = out.mutable_data<float>();
  ref_odometer(shape, strides,
               [&](int64_t flat, const std::vector<int64_t>& off) {
                 float v = x.data<float>()[flat];
                 for (const kernels::EwiseLink& l : links) {
                   if (!l.binary) {
                     v = ref_unary(l.op, v);
                     continue;
                   }
                   auto e = static_cast<size_t>(l.extra);
                   float o = extras[e].data<float>()[off[e]];
                   v = l.chain_left ? ref_binary(l.op, v, o)
                                    : ref_binary(l.op, o, v);
                 }
                 po[flat] = v;
               });
  return out;
}

TEST(KernelsBitwiseTest, FusedElementwiseChains) {
  using L = kernels::EwiseLink;
  auto bin = [](const char* op, bool left, int extra) {
    return L{op, true, left, extra};
  };
  auto un = [](const char* op) { return L{op, false, true, -1}; };
  struct Case {
    Shape x;
    std::vector<Shape> extras;
    std::vector<L> links;
  };
  const std::vector<Case> cases = {
      // conv bias + relu
      {Shape{4, 7, 7, 4}, {Shape{4}}, {bin("Add", true, 0), un("Relu")}},
      {Shape{4, 32}, {Shape{32}, Shape{}},
       {bin("Add", true, 0), un("Relu"), bin("Mul", false, 1)}},
      {Shape{4, 1, 3}, {Shape{4, 1, 1}, Shape{1, 1, 3}, Shape{}},
       {bin("Sub", false, 0), un("Tanh"), bin("Maximum", true, 1),
        bin("Div", true, 2)}},
      {Shape{2, 5, 3}, {Shape{5, 1}, Shape{2, 1, 3}, Shape{3}},
       {un("Square"), bin("Minimum", false, 0), bin("Mul", true, 1),
        un("Neg"), bin("Add", false, 2)}},
      // More extras than one walk reads: the chain runs in segments.
      {Shape{6, 8}, {Shape{8}, Shape{6, 1}, Shape{}, Shape{6, 8}, Shape{8},
                     Shape{1, 1}},
       {bin("Add", true, 0), bin("Mul", true, 1), un("Relu"),
        bin("Sub", false, 2), bin("Maximum", true, 3), bin("Div", true, 4),
        un("Tanh"), bin("Add", false, 5)}},
      {Shape{3, 3}, {}, {}},       // no links: a copy
      {Shape{}, {Shape{}}, {bin("Mul", true, 0)}},
      {Shape{0, 4}, {Shape{4}}, {bin("Add", true, 0)}},
      // Above kMathGrain (4096): shard boundaries fall mid-row.
      {Shape{333, 37}, {Shape{37}, Shape{333, 1}},
       {bin("Add", true, 0), un("Relu"), bin("Mul", false, 1)}},
  };
  at_thread_counts([&] {
    uint64_t seed = 3000;
    for (const Case& c : cases) {
      Tensor x = tricky_nan(c.x, seed += 10);
      std::vector<Tensor> extras;
      for (const Shape& s : c.extras) extras.push_back(tricky_nan(s, ++seed));
      expect_bitwise(kernels::fused_elementwise(x, extras, c.links),
                     ref_fused(x, extras, c.links),
                     "fused_elementwise " + c.x.to_string());
    }
  });
}

// Nine dims that do not coalesce: every adjacent pair switches which side
// broadcasts. The walk keeps at most eight and says which shapes overflowed.
TEST(KernelsTest, BroadcastAboveCoalescedRankCapThrows) {
  Shape a{2, 1, 2, 1, 2, 1, 2, 1, 2};
  Shape b{1, 2, 1, 2, 1, 2, 1, 2, 1};
  Tensor ta = Tensor::zeros(DType::kFloat32, a);
  Tensor tb = Tensor::zeros(DType::kFloat32, b);
  try {
    kernels::add(ta, tb);
    ADD_FAILURE() << "add did not throw";
  } catch (const ValueError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(a.to_string()), std::string::npos) << msg;
    EXPECT_NE(msg.find(b.to_string()), std::string::npos) << msg;
  }
  EXPECT_THROW(kernels::greater(ta, tb), ValueError);
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{2, 2, 2, 2, 2, 2, 2, 2, 2});
  const std::vector<kernels::EwiseLink> links = {{"Add", true, true, 0},
                                                 {"Mul", true, true, 1}};
  EXPECT_THROW(kernels::fused_elementwise(x, {ta, tb}, links), ValueError);
}

// cond must equal the value shape or be a leading prefix of it; a cond whose
// element count merely divides the values' is rejected, naming both shapes.
TEST(KernelsTest, WhereRequiresLeadingPrefixCond) {
  Tensor a = Tensor::zeros(DType::kFloat32, Shape{2, 7});
  Tensor c7 = Tensor::from_bools(Shape{7}, std::vector<bool>(7, true));
  try {
    kernels::where(c7, a, a);
    ADD_FAILURE() << "where(cond[7], a[2,7]) did not throw";
  } catch (const ValueError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(Shape{7}.to_string()), std::string::npos) << msg;
    EXPECT_NE(msg.find(Shape{2, 7}.to_string()), std::string::npos) << msg;
  }
  Tensor v = Tensor::zeros(DType::kFloat32, Shape{1, 2});
  Tensor c21 = Tensor::from_bools(Shape{2, 1}, {true, false});
  EXPECT_THROW(kernels::where(c21, v, v), ValueError);
  Tensor c3 = Tensor::from_bools(Shape{2, 7, 1}, std::vector<bool>(14, true));
  EXPECT_THROW(kernels::where(c3, a, a), ValueError);  // longer than values
  EXPECT_NO_THROW(kernels::where(
      Tensor::from_bools(Shape{2}, {true, false}), a, a));
  EXPECT_NO_THROW(kernels::where(Tensor::scalar_bool(true), a, a));
}

TEST(KernelsTest, Reductions) {
  Tensor x = floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(kernels::reduce_sum(x, -1, false).scalar_value(), 21.0);
  EXPECT_FLOAT_EQ(kernels::reduce_mean(x, -1, false).scalar_value(), 3.5);
  EXPECT_FLOAT_EQ(kernels::reduce_max(x, -1, false).scalar_value(), 6.0);
  EXPECT_EQ(kernels::reduce_sum(x, 0, false).to_floats(),
            (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(kernels::reduce_sum(x, 1, false).to_floats(),
            (std::vector<float>{6, 15}));
  EXPECT_EQ(kernels::reduce_mean(x, 1, true).shape(), (Shape{2, 1}));
  EXPECT_EQ(kernels::reduce_max(x, 0, false).to_floats(),
            (std::vector<float>{4, 5, 6}));
}

TEST(KernelsTest, SumToShape) {
  Tensor x = floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(kernels::sum_to_shape(x, Shape{3}).to_floats(),
            (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(kernels::sum_to_shape(x, Shape{2, 1}).to_floats(),
            (std::vector<float>{6, 15}));
  EXPECT_FLOAT_EQ(kernels::sum_to_shape(x, Shape{}).scalar_value(), 21.0);
  EXPECT_TRUE(kernels::sum_to_shape(x, Shape{2, 3}).equals(x));
}

TEST(KernelsTest, SoftmaxProperties) {
  Tensor x = floats(Shape{2, 3}, {1, 2, 3, 1000, 1000, 1000});
  Tensor s = kernels::softmax(x);
  // Rows sum to 1, even in the numerically-extreme row.
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.data<float>()[r * 3 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_NEAR(s.data<float>()[3], 1.0f / 3, 1e-5);
  // log_softmax = log(softmax).
  Tensor ls = kernels::log_softmax(x);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(ls.data<float>()[i], std::log(s.data<float>()[i]), 1e-5);
  }
}

TEST(KernelsTest, ArgmaxOneHotSelect) {
  Tensor q = floats(Shape{2, 3}, {1, 5, 2, 9, 0, 3});
  Tensor am = kernels::argmax(q);
  EXPECT_EQ(am.to_ints(), (std::vector<int32_t>{1, 0}));
  Tensor oh = kernels::one_hot(am, 3);
  EXPECT_EQ(oh.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(oh.data<float>()[1], 1.0f);
  EXPECT_FLOAT_EQ(oh.data<float>()[3], 1.0f);
  Tensor sel = kernels::select_columns(q, am);
  EXPECT_EQ(sel.to_floats(), (std::vector<float>{5, 9}));
  EXPECT_THROW(kernels::one_hot(Tensor::from_ints(Shape{1}, {5}), 3),
               ValueError);
}

TEST(KernelsTest, GatherRows) {
  Tensor params = floats(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor idx = Tensor::from_ints(Shape{2}, {2, 0});
  Tensor out = kernels::gather_rows(params, idx);
  EXPECT_EQ(out.to_floats(), (std::vector<float>{5, 6, 1, 2}));
  EXPECT_THROW(
      kernels::gather_rows(params, Tensor::from_ints(Shape{1}, {3})),
      ValueError);
}

TEST(KernelsTest, ConcatSplitSlice) {
  Tensor a = floats(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = floats(Shape{1, 2}, {5, 6});
  Tensor cat0 = kernels::concat({a, b}, 0);
  EXPECT_EQ(cat0.shape(), (Shape{3, 2}));
  EXPECT_EQ(cat0.to_floats(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
  Tensor c = floats(Shape{2, 1}, {9, 10});
  Tensor cat1 = kernels::concat({a, c}, 1);
  EXPECT_EQ(cat1.to_floats(), (std::vector<float>{1, 2, 9, 3, 4, 10}));
  auto parts = kernels::split(cat1, 1, {2, 1});
  EXPECT_TRUE(parts[0].equals(a));
  EXPECT_TRUE(parts[1].equals(c));
  Tensor sl = kernels::slice_rows(cat0, 1, 2);
  EXPECT_EQ(sl.to_floats(), (std::vector<float>{3, 4, 5, 6}));
  EXPECT_THROW(kernels::slice_rows(cat0, 2, 2), ValueError);
}

TEST(KernelsTest, StackRows) {
  Tensor a = floats(Shape{2}, {1, 2});
  Tensor b = floats(Shape{2}, {3, 4});
  Tensor s = kernels::stack_rows({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.to_floats(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(KernelsTest, RandomKernels) {
  Rng rng(42);
  Tensor u = kernels::random_uniform(Shape{100}, 2, 3, rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(u.data<float>()[i], 2.0f);
    EXPECT_LT(u.data<float>()[i], 3.0f);
  }
  Tensor ri = kernels::random_int(Shape{100}, 4, rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(ri.data<int32_t>()[i], 0);
    EXPECT_LT(ri.data<int32_t>()[i], 4);
  }
}

}  // namespace
}  // namespace rlgraph
