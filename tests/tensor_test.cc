// Tests for Shape and Tensor.
#include <gtest/gtest.h>

#include <vector>

#include "tensor/tensor.h"

namespace rlgraph {
namespace {

TEST(ShapeTest, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_TRUE(s.fully_specified());
  EXPECT_FALSE(s.is_scalar());
  EXPECT_TRUE(Shape{}.is_scalar());
  EXPECT_EQ(Shape{}.num_elements(), 1);
}

TEST(ShapeTest, PartialShapes) {
  Shape s{kUnknownDim, 5};
  EXPECT_FALSE(s.fully_specified());
  EXPECT_THROW(s.num_elements(), ValueError);
  EXPECT_TRUE(s.matches(Shape{7, 5}));
  EXPECT_TRUE(s.matches(Shape{1, 5}));
  EXPECT_FALSE(s.matches(Shape{7, 6}));
  EXPECT_FALSE(s.matches(Shape{5}));
}

TEST(ShapeTest, Manipulation) {
  Shape s{3, 4};
  EXPECT_EQ(s.prepend(2), (Shape{2, 3, 4}));
  EXPECT_EQ(s.with_dim(0, 9), (Shape{9, 4}));
  EXPECT_EQ(s.concat(Shape{5}), (Shape{3, 4, 5}));
  EXPECT_EQ(s.drop_front(1), (Shape{4}));
  EXPECT_EQ(s.drop_front(2), Shape{});
  EXPECT_THROW(s.drop_front(3), ValueError);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ((Shape{kUnknownDim, 3}).to_string(), "(?, 3)");
  EXPECT_EQ(Shape{}.to_string(), "()");
}

TEST(ShapeTest, Broadcasting) {
  EXPECT_EQ(broadcast_shapes(Shape{2, 3}, Shape{2, 3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shapes(Shape{2, 3}, Shape{3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shapes(Shape{2, 1}, Shape{1, 5}), (Shape{2, 5}));
  EXPECT_EQ(broadcast_shapes(Shape{}, Shape{4, 4}), (Shape{4, 4}));
  EXPECT_EQ(broadcast_shapes(Shape{kUnknownDim, 3}, Shape{3}),
            (Shape{kUnknownDim, 3}));
  EXPECT_THROW(broadcast_shapes(Shape{2}, Shape{3}), ValueError);
}

// Dims 2, 3, 4, ... of the given rank: distinct values, so a dim copied to
// the wrong place shows.
Shape shape_of_rank(int rank) {
  std::vector<int64_t> dims;
  for (int i = 0; i < rank; ++i) dims.push_back(i + 2);
  return Shape(dims);
}

std::vector<int64_t> dims_of(const Shape& s) { return s.dims().to_vector(); }

// Ranks on both sides of the inline capacity (Shape::kInlineRank == 8):
// 0 and 8 stay inline, 9 and 12 spill to the heap.
class ShapeStorageTest : public ::testing::TestWithParam<int> {};

TEST_P(ShapeStorageTest, CopyAndMoveKeepDims) {
  const int rank = GetParam();
  const Shape original = shape_of_rank(rank);
  ASSERT_EQ(original.rank(), rank);

  Shape copy = original;
  EXPECT_EQ(copy, original);
  EXPECT_EQ(dims_of(copy), dims_of(original));

  Shape assigned = Shape{7};
  assigned = original;
  EXPECT_EQ(assigned, original);
  assigned = shape_of_rank(12);  // reassign across the boundary
  EXPECT_EQ(assigned, shape_of_rank(12));
  assigned = original;
  EXPECT_EQ(assigned, original);

  Shape moved = std::move(copy);
  EXPECT_EQ(moved, original);
  Shape move_assigned = Shape{1, 2, 3};
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned, original);
  EXPECT_EQ(move_assigned.num_elements(), original.num_elements());
}

TEST_P(ShapeStorageTest, EqualityAndMatches) {
  const int rank = GetParam();
  const Shape s = shape_of_rank(rank);
  EXPECT_EQ(s, shape_of_rank(rank));
  EXPECT_NE(s, shape_of_rank(rank + 1));
  EXPECT_TRUE(s.matches(s));
  if (rank > 0) {
    const Shape other = s.with_dim(rank - 1, 99);
    EXPECT_NE(s, other);
    EXPECT_FALSE(s.matches(other));
    const Shape partial = s.with_dim(0, kUnknownDim);
    EXPECT_FALSE(partial.fully_specified());
    EXPECT_TRUE(partial.matches(s));
    EXPECT_TRUE(partial.matches(s.with_dim(0, 1000)));
    EXPECT_FALSE(partial.matches(other));
  }
  EXPECT_FALSE(s.matches(shape_of_rank(rank + 1)));
}

TEST_P(ShapeStorageTest, DerivedShapes) {
  const int rank = GetParam();
  const Shape s = shape_of_rank(rank);
  std::vector<int64_t> want = dims_of(s);

  if (rank > 0) {
    std::vector<int64_t> w = want;
    w[static_cast<size_t>(rank / 2)] = 42;
    EXPECT_EQ(dims_of(s.with_dim(rank / 2, 42)), w);
  }

  std::vector<int64_t> pre = want;
  pre.insert(pre.begin(), 5);
  const Shape prepended = s.prepend(5);
  EXPECT_EQ(prepended.rank(), rank + 1);
  EXPECT_EQ(dims_of(prepended), pre);

  for (int n : {0, 1, rank}) {
    if (n > rank) continue;
    std::vector<int64_t> rest(want.begin() + n, want.end());
    EXPECT_EQ(dims_of(s.drop_front(n)), rest) << "drop_front(" << n << ")";
  }
  EXPECT_EQ(dims_of(prepended.drop_front(1)), want);
  EXPECT_EQ(s.to_string(), Shape(want).to_string());
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, ShapeStorageTest,
                         ::testing::Values(0, 8, 9, 12));

TEST(ShapeTest, ConcatCrossesTheInlineCapacity) {
  const Shape a = shape_of_rank(5);
  const Shape b{11, 12, 13, 14, 15};
  const Shape ab = a.concat(b);  // rank 10: spilled
  ASSERT_EQ(ab.rank(), 10);
  std::vector<int64_t> want = dims_of(a);
  for (int64_t d : b.dims()) want.push_back(d);
  EXPECT_EQ(dims_of(ab), want);
  EXPECT_EQ(ab.drop_front(5), b);     // back inline
  EXPECT_EQ(ab.drop_front(2).rank(), 8);
  EXPECT_EQ(Shape{}.concat(shape_of_rank(9)), shape_of_rank(9));
  EXPECT_EQ(shape_of_rank(8).concat(Shape{}), shape_of_rank(8));
}

TEST(ShapeTest, InsertAndRemoveDim) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.insert_dim(0, 1), (Shape{1, 2, 3, 4}));
  EXPECT_EQ(s.insert_dim(3, 1), (Shape{2, 3, 4, 1}));
  EXPECT_EQ(s.remove_dim(1), (Shape{2, 4}));
  EXPECT_EQ(shape_of_rank(9).remove_dim(8), shape_of_rank(8));
  EXPECT_THROW(s.insert_dim(4, 1), ValueError);
  EXPECT_THROW(s.remove_dim(3), ValueError);
}

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t = Tensor::zeros(DType::kFloat32, Shape{2, 2});
  EXPECT_EQ(t.num_elements(), 4);
  EXPECT_EQ(t.byte_size(), 16u);
  t.mutable_data<float>()[3] = 7.0f;
  EXPECT_FLOAT_EQ(t.data<float>()[3], 7.0f);
  EXPECT_DOUBLE_EQ(t.at_flat(3), 7.0);
  EXPECT_THROW(t.data<int32_t>(), ValueError);
}

TEST(TensorTest, ScalarFactories) {
  EXPECT_DOUBLE_EQ(Tensor::scalar(2.5f).scalar_value(), 2.5);
  EXPECT_DOUBLE_EQ(Tensor::scalar_int(-3).scalar_value(), -3.0);
  EXPECT_DOUBLE_EQ(Tensor::scalar_bool(true).scalar_value(), 1.0);
  EXPECT_THROW(Tensor::zeros(DType::kFloat32, Shape{2}).scalar_value(),
               ValueError);
}

TEST(TensorTest, FromVectors) {
  Tensor f = Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(f.data<float>()[2], 3.0f);
  Tensor i = Tensor::from_ints(Shape{3}, {5, 6, 7});
  EXPECT_EQ(i.data<int32_t>()[1], 6);
  Tensor b = Tensor::from_bools(Shape{2}, {true, false});
  EXPECT_EQ(b.data<uint8_t>()[0], 1);
  EXPECT_THROW(Tensor::from_floats(Shape{2}, {1, 2, 3}), ValueError);
}

TEST(TensorTest, SharedBufferSemanticsAndClone) {
  Tensor a = Tensor::from_floats(Shape{2}, {1, 2});
  Tensor b = a;  // shares the buffer
  b.mutable_data<float>()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.data<float>()[0], 9.0f);
  Tensor c = a.clone();
  c.mutable_data<float>()[0] = 5.0f;
  EXPECT_FLOAT_EQ(a.data<float>()[0], 9.0f);
}

TEST(TensorTest, Reshape) {
  Tensor t = Tensor::from_floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(r.data<float>()[4], 5.0f);  // same underlying order
  EXPECT_THROW(t.reshaped(Shape{4}), ValueError);
}

TEST(TensorTest, Cast) {
  Tensor f = Tensor::from_floats(Shape{3}, {1.7f, -2.3f, 0.0f});
  Tensor i = f.cast(DType::kInt32);
  EXPECT_EQ(i.to_ints(), (std::vector<int32_t>{1, -2, 0}));
  Tensor b = Tensor::from_bools(Shape{2}, {true, false});
  Tensor bf = b.cast(DType::kFloat32);
  EXPECT_FLOAT_EQ(bf.data<float>()[0], 1.0f);
}

TEST(TensorTest, EqualsAndAllClose) {
  Tensor a = Tensor::from_floats(Shape{2}, {1.0f, 2.0f});
  Tensor b = Tensor::from_floats(Shape{2}, {1.0f, 2.0f});
  Tensor c = Tensor::from_floats(Shape{2}, {1.0f, 2.000001f});
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_TRUE(a.all_close(c, 1e-5));
  EXPECT_FALSE(a.all_close(Tensor::from_floats(Shape{2}, {1.0f, 3.0f})));
  EXPECT_FALSE(a.all_close(Tensor::from_floats(Shape{1, 2}, {1.0f, 2.0f})));
}

TEST(TensorTest, BoolAccessibleAsUint8) {
  Tensor b = Tensor::from_bools(Shape{2}, {true, false});
  EXPECT_EQ(b.data<uint8_t>()[0], 1);  // kBool readable as uint8
}

TEST(TensorTest, ZeroElementTensor) {
  Tensor t = Tensor::zeros(DType::kFloat32, Shape{0, 4});
  EXPECT_EQ(t.num_elements(), 0);
  EXPECT_TRUE(t.equals(t.clone()));
}

TEST(TensorTest, StackLeadingRejectsMismatchedParts) {
  std::vector<Tensor> dtype_mismatch{
      Tensor::from_floats(Shape{2}, {1.0f, 2.0f}),
      Tensor::from_ints(Shape{2}, {3, 4}),
  };
  EXPECT_THROW(stack_leading(dtype_mismatch), ValueError);
  std::vector<Tensor> shape_mismatch{
      Tensor::from_floats(Shape{2}, {1.0f, 2.0f}),
      Tensor::from_floats(Shape{3}, {3.0f, 4.0f, 5.0f}),
  };
  EXPECT_THROW(stack_leading(shape_mismatch), ValueError);
  EXPECT_THROW(stack_leading({}), ValueError);
}

TEST(TensorTest, StackLeadingRankOneAndSinglePart) {
  // Rank-1 parts stack into a matrix.
  Tensor m = stack_leading({Tensor::from_floats(Shape{2}, {1.0f, 2.0f}),
                            Tensor::from_floats(Shape{2}, {3.0f, 4.0f})});
  EXPECT_EQ(m.shape(), (Shape{2, 2}));
  EXPECT_EQ(m.to_floats(), (std::vector<float>{1, 2, 3, 4}));
  // A single part just gains a leading batch dim of 1.
  Tensor one = stack_leading({Tensor::from_ints(Shape{3}, {7, 8, 9})});
  EXPECT_EQ(one.dtype(), DType::kInt32);
  EXPECT_EQ(one.shape(), (Shape{1, 3}));
  EXPECT_EQ(one.to_ints(), (std::vector<int32_t>{7, 8, 9}));
  // Scalar parts stack into a vector.
  Tensor v = stack_leading({Tensor::scalar(1.5f), Tensor::scalar(2.5f)});
  EXPECT_EQ(v.shape(), Shape{2});
  EXPECT_EQ(v.to_floats(), (std::vector<float>{1.5f, 2.5f}));
}

TEST(TensorTest, UnstackLeadingEdgeCases) {
  EXPECT_THROW(unstack_leading(Tensor::scalar(1.0f)), ValueError);
  // Rank-1 unstacks into scalars.
  std::vector<Tensor> scalars =
      unstack_leading(Tensor::from_floats(Shape{3}, {1.0f, 2.0f, 3.0f}));
  ASSERT_EQ(scalars.size(), 3u);
  EXPECT_EQ(scalars[1].shape(), Shape{});
  EXPECT_DOUBLE_EQ(scalars[1].scalar_value(), 2.0);
  // Leading dim of zero yields no parts.
  EXPECT_TRUE(
      unstack_leading(Tensor::zeros(DType::kFloat32, Shape{0, 4})).empty());
  // Parts own their storage: mutating the batch later must not alias.
  Tensor batch = Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4});
  std::vector<Tensor> parts = unstack_leading(batch);
  batch.mutable_data<float>()[0] = 99.0f;
  EXPECT_EQ(parts[0].to_floats(), (std::vector<float>{1, 2}));
}

TEST(TensorTest, StackUnstackRoundTrip) {
  std::vector<Tensor> parts{
      Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4}),
      Tensor::from_floats(Shape{2, 2}, {5, 6, 7, 8}),
      Tensor::from_floats(Shape{2, 2}, {9, 10, 11, 12}),
  };
  Tensor batch = stack_leading(parts);
  EXPECT_EQ(batch.shape(), (Shape{3, 2, 2}));
  std::vector<Tensor> back = unstack_leading(batch);
  ASSERT_EQ(back.size(), parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    EXPECT_TRUE(back[i].equals(parts[i])) << "part " << i;
  }
  // And the other direction: unstack then stack reproduces the batch.
  EXPECT_TRUE(stack_leading(back).equals(batch));
}

}  // namespace
}  // namespace rlgraph
