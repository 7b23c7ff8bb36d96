#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace serd::nn {
namespace {

/// Checks analytic gradients of `graph` (inputs -> scalar loss) against
/// central finite differences on every element of every input tensor.
void CheckGradients(
    const std::vector<TensorPtr>& inputs,
    const std::function<TensorPtr(Tape*)>& graph, float tolerance = 2e-2f,
    float eps = 1e-3f) {
  // Analytic pass.
  for (auto& in : inputs) {
    in->EnsureGrad();
    in->ZeroGrad();
  }
  Tape tape;
  TensorPtr loss = graph(&tape);
  ASSERT_EQ(loss->size(), 1u);
  tape.Backward(loss);

  for (auto& in : inputs) {
    for (size_t i = 0; i < in->size(); ++i) {
      float saved = in->value()[i];
      in->value()[i] = saved + eps;
      Tape t_plus;
      float f_plus = graph(&t_plus)->value()[0];
      in->value()[i] = saved - eps;
      Tape t_minus;
      float f_minus = graph(&t_minus)->value()[0];
      in->value()[i] = saved;
      float numeric = (f_plus - f_minus) / (2 * eps);
      float analytic = in->grad()[i];
      EXPECT_NEAR(analytic, numeric,
                  tolerance * std::max(1.0f, std::fabs(numeric)))
          << "element " << i;
    }
  }
}

TensorPtr RandomTensor(size_t r, size_t c, uint64_t seed, float scale = 1.0f) {
  auto t = MakeTensor(r, c);
  Rng rng(seed);
  t->FillUniform(&rng, scale);
  return t;
}

// ---------------------------------------------------------- gradient checks

TEST(TapeGradTest, MatMul) {
  auto a = RandomTensor(3, 4, 1);
  auto b = RandomTensor(4, 2, 2);
  CheckGradients({a, b}, [&](Tape* t) {
    return t->MeanAll(t->MatMul(a, b));
  });
}

TEST(TapeGradTest, AddAndScale) {
  auto a = RandomTensor(2, 3, 3);
  auto b = RandomTensor(2, 3, 4);
  CheckGradients({a, b}, [&](Tape* t) {
    return t->MeanAll(t->Scale(t->Add(a, b), 2.5f));
  });
}

TEST(TapeGradTest, AddRowBroadcast) {
  auto x = RandomTensor(3, 4, 5);
  auto bias = RandomTensor(1, 4, 6);
  CheckGradients({x, bias}, [&](Tape* t) {
    return t->MeanAll(t->AddRowBroadcast(x, bias));
  });
}

TEST(TapeGradTest, ElementwiseMul) {
  auto a = RandomTensor(2, 2, 7);
  auto b = RandomTensor(2, 2, 8);
  CheckGradients({a, b}, [&](Tape* t) {
    return t->MeanAll(t->Mul(a, b));
  });
}

TEST(TapeGradTest, Transpose) {
  auto x = RandomTensor(2, 3, 9);
  auto w = RandomTensor(2, 2, 10);
  CheckGradients({x, w}, [&](Tape* t) {
    return t->MeanAll(t->MatMul(t->Transpose(x), w));
  });
}

TEST(TapeGradTest, RowSoftmaxThroughWeightedSum) {
  auto x = RandomTensor(2, 4, 11);
  auto w = RandomTensor(2, 4, 12);  // weights for a non-uniform reduction
  CheckGradients({x}, [&](Tape* t) {
    return t->MeanAll(t->Mul(t->RowSoftmax(x), w));
  });
}

TEST(TapeGradTest, RowSoftmaxWithMask) {
  auto x = RandomTensor(2, 3, 13);
  auto w = RandomTensor(2, 3, 20);
  std::vector<float> mask = {0, -1e9f, 0, 0, 0, -1e9f};
  CheckGradients({x}, [&](Tape* t) {
    return t->MeanAll(t->Mul(t->RowSoftmax(x, &mask), w));
  });
}

TEST(TapeGradTest, LayerNorm) {
  auto x = RandomTensor(3, 4, 14);
  auto gamma = RandomTensor(1, 4, 15);
  auto beta = RandomTensor(1, 4, 16);
  auto w = RandomTensor(3, 4, 21);
  CheckGradients({x, gamma, beta}, [&](Tape* t) {
    return t->MeanAll(t->Mul(t->LayerNorm(x, gamma, beta), w));
  }, 5e-2f);
}

TEST(TapeGradTest, Activations) {
  // Spans the saturated tails (|v| up to 10) as well as the bend near 0.
  auto x = MakeTensor(3, 6);
  x->value() = {-10.0f, -7.5f, -5.0f, -3.5f, -2.25f, -1.5f,
                -0.9f,  -0.4f, -0.1f, 0.15f, 0.6f,   1.1f,
                1.8f,   2.6f,  4.0f,  5.5f,  8.0f,   10.0f};
  CheckGradients({x}, [&](Tape* t) { return t->MeanAll(t->Gelu(x)); });
  CheckGradients({x}, [&](Tape* t) { return t->MeanAll(t->Sigmoid(x)); });
  CheckGradients({x}, [&](Tape* t) { return t->MeanAll(t->Tanh(x)); });
}

TEST(TapeGradTest, ReluGradientAwayFromKink) {
  auto x = MakeTensor(1, 4);
  x->value() = {-1.5f, -0.5f, 0.5f, 1.5f};
  CheckGradients({x}, [&](Tape* t) { return t->MeanAll(t->Relu(x)); });
}

TEST(TapeGradTest, EmbeddingLookup) {
  auto table = RandomTensor(5, 3, 18);
  std::vector<int> ids = {0, 2, 2, 4};
  auto w = RandomTensor(4, 3, 22);
  CheckGradients({table}, [&](Tape* t) {
    return t->MeanAll(t->Mul(t->EmbeddingLookup(table, ids), w));
  });
}

TEST(TapeGradTest, SliceAndConcat) {
  auto x = RandomTensor(2, 6, 19);
  CheckGradients({x}, [&](Tape* t) {
    auto left = t->SliceCols(x, 0, 3);
    auto right = t->SliceCols(x, 3, 3);
    return t->MeanAll(t->ConcatCols({right, left}));
  });
}

TEST(TapeGradTest, CrossEntropy) {
  auto logits = RandomTensor(3, 4, 23, 2.0f);
  std::vector<int> targets = {0, 3, 1};
  CheckGradients({logits}, [&](Tape* t) {
    return t->CrossEntropy(logits, targets);
  });
}

TEST(TapeGradTest, CrossEntropyIgnoreIndex) {
  auto logits = RandomTensor(3, 4, 24, 2.0f);
  std::vector<int> targets = {0, -1, 2};
  CheckGradients({logits}, [&](Tape* t) {
    return t->CrossEntropy(logits, targets, -1);
  });
}

TEST(TapeGradTest, BceWithLogits) {
  auto logits = RandomTensor(2, 2, 25, 2.0f);
  CheckGradients({logits},
                 [&](Tape* t) { return t->BceWithLogits(logits, 1.0f); });
  CheckGradients({logits},
                 [&](Tape* t) { return t->BceWithLogits(logits, 0.0f); });
}

// -------------------------------------------------------- forward behavior

TEST(TapeTest, SoftmaxRowsSumToOne) {
  auto x = RandomTensor(4, 5, 26, 3.0f);
  Tape tape;
  auto y = tape.RowSoftmax(x);
  for (size_t r = 0; r < 4; ++r) {
    double total = 0;
    for (size_t c = 0; c < 5; ++c) total += y->at(r, c);
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(TapeTest, MaskZeroesBlockedPositions) {
  auto x = MakeTensor(1, 3, 0.0f);
  std::vector<float> mask = {0.0f, -1e9f, 0.0f};
  Tape tape;
  auto y = tape.RowSoftmax(x, &mask);
  EXPECT_NEAR(y->at(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(y->at(0, 0), 0.5, 1e-5);
}

TEST(TapeTest, LayerNormNormalizesRows) {
  auto x = RandomTensor(3, 8, 27, 4.0f);
  auto gamma = MakeTensor(1, 8, 1.0f);
  auto beta = MakeTensor(1, 8, 0.0f);
  Tape tape;
  auto y = tape.LayerNorm(x, gamma, beta);
  for (size_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (size_t c = 0; c < 8; ++c) mean += y->at(r, c);
    mean /= 8;
    for (size_t c = 0; c < 8; ++c) {
      var += (y->at(r, c) - mean) * (y->at(r, c) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(TapeTest, DropoutZeroProbIsIdentity) {
  auto x = RandomTensor(2, 3, 28);
  Rng rng(1);
  Tape tape;
  auto y = tape.Dropout(x, 0.0f, &rng);
  EXPECT_EQ(y.get(), x.get());
}

TEST(TapeTest, DropoutKeepsExpectedScale) {
  auto x = MakeTensor(1, 10000, 1.0f);
  Rng rng(2);
  Tape tape;
  auto y = tape.Dropout(x, 0.3f, &rng);
  double total = 0;
  for (float v : y->value()) total += v;
  EXPECT_NEAR(total / 10000.0, 1.0, 0.05);
}

TEST(TapeTest, SharedSubexpressionAccumulatesGrads) {
  auto x = MakeTensor(1, 1, 2.0f);
  Tape tape;
  auto y = tape.Add(x, x);  // dy/dx = 2
  tape.Backward(tape.MeanAll(y));
  EXPECT_NEAR(x->grad()[0], 2.0f, 1e-6);
}

// ----------------------------------------------------------------- modules

TEST(ModulesTest, LinearShapesAndParams) {
  Rng rng(3);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.parameters().size(), 2u);
  EXPECT_EQ(layer.NumParameters(), 4u * 3u + 3u);
  Tape tape;
  auto x = RandomTensor(5, 4, 30);
  auto y = layer.Forward(&tape, x);
  EXPECT_EQ(y->rows(), 5u);
  EXPECT_EQ(y->cols(), 3u);
}

TEST(ModulesTest, LinearNoBias) {
  Rng rng(4);
  Linear layer(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
}

TEST(ModulesTest, EmbeddingForward) {
  Rng rng(5);
  Embedding emb(10, 4, &rng);
  Tape tape;
  auto y = emb.Forward(&tape, {1, 1, 7});
  EXPECT_EQ(y->rows(), 3u);
  EXPECT_EQ(y->cols(), 4u);
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(y->at(0, c), y->at(1, c));
}

TEST(ModulesTest, GradHelpers) {
  Rng rng(6);
  Linear layer(2, 2, &rng);
  for (auto& p : layer.parameters()) {
    p->EnsureGrad();
    for (auto& g : p->grad()) g = 3.0f;
  }
  double norm = GradNorm(layer.parameters());
  EXPECT_NEAR(norm, 3.0 * std::sqrt(6.0), 1e-5);
  ScaleGrads(layer.parameters(), 0.5);
  EXPECT_NEAR(GradNorm(layer.parameters()), 1.5 * std::sqrt(6.0), 1e-5);
  auto flat = FlattenGrads(layer.parameters());
  EXPECT_EQ(flat.size(), 6u);
}

// -------------------------------------------------------------- optimizers

TEST(OptimizerTest, SgdDescendsQuadratic) {
  auto w = MakeTensor(1, 1, 5.0f);
  w->EnsureGrad();
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    w->grad()[0] = 2.0f * w->value()[0];  // d/dw of w^2
    opt.Step();
  }
  EXPECT_NEAR(w->value()[0], 0.0f, 1e-4);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  auto w = MakeTensor(1, 1, 5.0f);
  w->EnsureGrad();
  Adam opt({w}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    w->grad()[0] = 2.0f * w->value()[0];
    opt.Step();
  }
  EXPECT_NEAR(w->value()[0], 0.0f, 1e-2);
}

TEST(OptimizerTest, LearnsLinearRegression) {
  // y = 2 x0 - x1 + 0.5 with an MLP-free linear model.
  Rng rng(7);
  Linear model(2, 1, &rng);
  Adam opt(model.parameters(), 0.05f);
  for (int step = 0; step < 400; ++step) {
    Tape tape;
    auto x = MakeTensor(8, 2);
    auto target = MakeTensor(8, 1);
    for (size_t r = 0; r < 8; ++r) {
      float x0 = static_cast<float>(rng.Uniform(-1, 1));
      float x1 = static_cast<float>(rng.Uniform(-1, 1));
      x->at(r, 0) = x0;
      x->at(r, 1) = x1;
      target->at(r, 0) = 2.0f * x0 - x1 + 0.5f;
    }
    auto pred = model.Forward(&tape, x);
    auto diff = tape.Add(pred, tape.Scale(target, -1.0f));
    auto loss = tape.MeanAll(tape.Mul(diff, diff));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(model.weight()->value()[0], 2.0f, 0.05f);
  EXPECT_NEAR(model.weight()->value()[1], -1.0f, 0.05f);
  EXPECT_NEAR(model.bias()->value()[0], 0.5f, 0.05f);
}

}  // namespace
}  // namespace serd::nn
