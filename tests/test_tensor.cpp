#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tensor/rng.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace nb {
namespace {

TEST(Tensor, ConstructionZeroFills) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FromValuesRoundTrips) {
  Tensor t = Tensor::from({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, FromRejectsWrongCount) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.0f}), std::runtime_error);
}

TEST(Tensor, CopySharesBufferCloneDoesNot) {
  Tensor a = Tensor::full({4}, 2.0f);
  Tensor shared = a;
  Tensor deep = a.clone();
  a.at(0) = 9.0f;
  EXPECT_EQ(shared.at(0), 9.0f);
  EXPECT_EQ(deep.at(0), 2.0f);
}

TEST(Tensor, ReshapeSharesAndChecksNumel) {
  Tensor a = Tensor::arange(6);
  Tensor b = a.reshape({2, 3});
  b.at(1, 2) = 42.0f;
  EXPECT_EQ(a.at(5), 42.0f);
  EXPECT_THROW(a.reshape({4}), std::runtime_error);
}

TEST(Tensor, Narrow0CopiesRows) {
  Tensor a = Tensor::arange(12).reshape({4, 3});
  Tensor mid = a.narrow0(1, 3);
  EXPECT_EQ(mid.size(0), 2);
  EXPECT_EQ(mid.at(0, 0), 3.0f);
  EXPECT_EQ(mid.at(1, 2), 8.0f);
  mid.at(0, 0) = -1.0f;
  EXPECT_EQ(a.at(1, 0), 3.0f) << "narrow0 must not alias";
}

TEST(Tensor, ArithmeticOps) {
  Tensor a = Tensor::from({3}, {1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::from({3}, {10.0f, 20.0f, 30.0f});
  EXPECT_EQ(a.add(b).at(1), 22.0f);
  EXPECT_EQ(b.sub(a).at(2), 27.0f);
  EXPECT_EQ(a.mul(b).at(0), 10.0f);
  EXPECT_EQ(a.scale(-2.0f).at(2), -6.0f);
  Tensor c = a.clone();
  c.add_scaled_(b, 0.5f);
  EXPECT_EQ(c.at(0), 6.0f);
}

TEST(Tensor, Reductions) {
  Tensor a = Tensor::from({4}, {-3.0f, 1.0f, 2.0f, 0.0f});
  EXPECT_FLOAT_EQ(a.sum(), 0.0f);
  EXPECT_FLOAT_EQ(a.mean(), 0.0f);
  EXPECT_FLOAT_EQ(a.min_value(), -3.0f);
  EXPECT_FLOAT_EQ(a.max_value(), 2.0f);
  EXPECT_FLOAT_EQ(a.abs_max(), 3.0f);
  EXPECT_NEAR(a.norm(), std::sqrt(14.0f), 1e-5f);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a = Tensor::from({2}, {1.0f, 5.0f});
  Tensor b = Tensor::from({2}, {1.5f, 4.0f});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
}

TEST(TensorOps, MatmulMatchesManual) {
  Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor logits({5, 7});
  fill_normal(logits, rng, 0.0f, 3.0f);
  Tensor p = softmax_rows(logits);
  for (int64_t i = 0; i < 5; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      s += p.at(i, j);
      EXPECT_GT(p.at(i, j), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(TensorOps, SoftmaxTemperatureFlattens) {
  Tensor logits = Tensor::from({1, 3}, {0.0f, 1.0f, 2.0f});
  Tensor sharp = softmax_rows(logits, 0.5f);
  Tensor flat = softmax_rows(logits, 4.0f);
  EXPECT_GT(sharp.at(0, 2), flat.at(0, 2));
  EXPECT_LT(sharp.at(0, 0), flat.at(0, 0));
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(2);
  Tensor logits({3, 5});
  fill_normal(logits, rng, 0.0f, 2.0f);
  Tensor p = softmax_rows(logits);
  Tensor lp = log_softmax_rows(logits);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(lp.at(i, j), std::log(p.at(i, j)), 1e-4f);
    }
  }
}

TEST(TensorOps, ArgmaxRows) {
  Tensor t = Tensor::from({2, 3}, {1, 9, 2, 8, 3, 4});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOps, Transpose2d) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = transpose2d(t);
  EXPECT_EQ(tt.size(0), 3);
  EXPECT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_EQ(tt.at(0, 1), 4.0f);
}

TEST(TensorOps, Cat0) {
  Tensor a = Tensor::full({2, 3}, 1.0f);
  Tensor b = Tensor::full({1, 3}, 2.0f);
  Tensor c = cat0({a, b});
  EXPECT_EQ(c.size(0), 3);
  EXPECT_EQ(c.at(2, 0), 2.0f);
}

TEST(Rng, Deterministic) {
  Rng a(42, 7);
  Rng b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, StreamsDiffer) {
  Rng a(42, 7);
  Rng b(42, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal();
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, RandintBounds) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[static_cast<size_t>(rng.randint(7))];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, SplitIndependence) {
  Rng parent(7);
  Rng child = parent.split();
  // Child continues deterministically regardless of further parent draws.
  Rng parent2(7);
  Rng child2 = parent2.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.next_u32(), child2.next_u32());
}

// The contract a kernel caching per-shape data in its slot relies on:
// zeros when fresh, contents kept across acquires and across growth.
TEST(Scratch, SlotKeepsContentsAcrossAcquiresAndGrowth) {
  scratch_release();
  const ScratchSlot slot = ScratchSlot::kDepthwiseStage;
  float* a = scratch_acquire(slot, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i], 0.0f);
  for (int i = 0; i < 8; ++i) a[i] = static_cast<float>(i + 1);
  float* b = scratch_acquire(slot, 4);
  EXPECT_EQ(b, a);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[i], static_cast<float>(i + 1));
  const size_t big = scratch_reserved() * 4;
  float* c = scratch_acquire(slot, big);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(c[i], static_cast<float>(i + 1));
  for (size_t i = 8; i < big; ++i) ASSERT_EQ(c[i], 0.0f);
  scratch_release();
  EXPECT_EQ(scratch_acquire(slot, 8)[0], 0.0f);
  scratch_release();
}

}  // namespace
}  // namespace nb
