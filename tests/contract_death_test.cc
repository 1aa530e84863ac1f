// Contract tests: invalid API usage must abort with a PMM_CHECK message
// (the library's no-exceptions error model for programming errors).

#include <vector>

#include <gtest/gtest.h>

#include "data/batcher.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "utils/rng.h"

namespace pmmrec {
namespace {

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, MatMulShapeMismatchAborts) {
  Rng rng(1);
  Tensor a = Tensor::Randn(Shape{2, 3}, rng);
  Tensor b = Tensor::Randn(Shape{4, 5}, rng);
  EXPECT_DEATH(MatMul(a, b), "PMM_CHECK");
}

TEST(ContractDeathTest, MatMulBatchMismatchAborts) {
  Rng rng(2);
  Tensor a = Tensor::Randn(Shape{2, 3, 4}, rng);
  Tensor b = Tensor::Randn(Shape{3, 4, 5}, rng);
  EXPECT_DEATH(MatMul(a, b), "batch mismatch");
}

TEST(ContractDeathTest, BroadcastIncompatibleAborts) {
  Tensor a = Tensor::Zeros(Shape{2, 3});
  Tensor b = Tensor::Zeros(Shape{4});
  EXPECT_DEATH(Add(a, b), "incompatible broadcast");
}

TEST(ContractDeathTest, EmbeddingIndexOutOfRangeAborts) {
  Rng rng(3);
  Tensor weight = Tensor::Randn(Shape{4, 2}, rng);
  EXPECT_DEATH(EmbeddingLookup(weight, {5}), "PMM_CHECK");
  EXPECT_DEATH(EmbeddingLookup(weight, {-1}), "PMM_CHECK");
}

TEST(ContractDeathTest, SliceOutOfBoundsAborts) {
  Tensor a = Tensor::Zeros(Shape{3, 4});
  EXPECT_DEATH(Slice(a, 1, 2, 5), "PMM_CHECK");
}

TEST(ContractDeathTest, BackwardOnNonScalarAborts) {
  Tensor a = Tensor::Zeros(Shape{3}, /*requires_grad=*/true);
  Tensor y = MulScalar(a, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(ContractDeathTest, BackwardUnderInferenceModeAborts) {
  Tensor a = Tensor::Zeros(Shape{1}, /*requires_grad=*/true);
  Tensor y = MulScalar(a, 2.0f);
  InferenceMode inference;
  EXPECT_DEATH(y.Backward(), "InferenceMode");
}

TEST(ContractDeathTest, TrainingModeDropoutUnderInferenceModeAborts) {
  Rng rng(4);
  Tensor a = Tensor::Randn(Shape{4, 4}, rng);
  InferenceMode inference;
  // Eval-mode dropout is the identity and stays legal under the guard;
  // training-mode dropout would sample, which inference must never do.
  (void)Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_DEATH(Dropout(a, 0.5f, rng, /*training=*/true), "InferenceMode");
}

TEST(ContractDeathTest, ItemAccessOutOfRangeAborts) {
  Tensor a = Tensor::Zeros(Shape{2, 2});
  EXPECT_DEATH(a.item(), "PMM_CHECK");
  EXPECT_DEATH(a.at({2, 0}), "PMM_CHECK");
}

TEST(ContractDeathTest, UndefinedTensorAccessAborts) {
  Tensor undefined;
  EXPECT_DEATH(undefined.shape(), "PMM_CHECK");
}

TEST(ContractDeathTest, CrossEntropyAllIgnoredAborts) {
  Tensor logits = Tensor::Zeros(Shape{2, 3});
  EXPECT_DEATH(CrossEntropy(logits, {-1, -1}, -1), "all targets ignored");
}

TEST(ContractDeathTest, LinearWrongInputWidthAborts) {
  Rng rng(4);
  Linear lin(4, 2, rng);
  Tensor x = Tensor::Zeros(Shape{3, 5});
  EXPECT_DEATH(lin.Forward(x), "PMM_CHECK");
}

TEST(ContractDeathTest, BatcherRejectsEmptyInput) {
  EXPECT_DEATH(MakeBatchFromSequences({}, 4), "PMM_CHECK");
}

TEST(ContractDeathTest, ReshapeNumelMismatchAborts) {
  Tensor a = Tensor::Zeros(Shape{2, 3});
  EXPECT_DEATH(Reshape(a, Shape{7}), "PMM_CHECK");
}

}  // namespace
}  // namespace pmmrec
