#include <gtest/gtest.h>

#include <cmath>

#include "dp/accountant.h"
#include "dp/dp_sgd.h"

namespace serd {
namespace {

using nn::MakeTensor;
using nn::TensorPtr;

// ----------------------------------------------------------------- DP-SGD

class DpSgdTest : public testing::Test {
 protected:
  void SetUp() override {
    p_ = MakeTensor(1, 4);
    p_->EnsureGrad();
  }

  void SetGrad(std::vector<float> g) {
    for (size_t i = 0; i < g.size(); ++i) p_->grad()[i] = g[i];
  }

  /// Clips p_'s current gradient into a slot of its own, as one example
  /// of the lot; returns the pre-clip norm.
  double AddExample(const PerExampleGradAccumulator& acc) {
    slots_.emplace_back();
    return acc.ClipInto({p_}, &slots_.back());
  }

  /// Draws the lot's noise and writes g~ for the examples added so far.
  void FinishLot(PerExampleGradAccumulator* acc, Rng* rng) {
    acc->DrawNoise(rng);
    acc->FinishLot(slots_, slots_.size(), nullptr);
    slots_.clear();
  }

  TensorPtr p_;
  std::vector<PerExampleGradAccumulator::ClippedGrad> slots_;
};

TEST_F(DpSgdTest, ClipsLargeGradient) {
  DpSgdConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  SetGrad({3.0f, 0.0f, 4.0f, 0.0f});  // norm 5 -> scaled by 1/5
  double norm = AddExample(acc);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  Rng rng(1);
  FinishLot(&acc, &rng);
  EXPECT_NEAR(p_->grad()[0], 0.6f, 1e-6);
  EXPECT_NEAR(p_->grad()[2], 0.8f, 1e-6);
}

TEST_F(DpSgdTest, SmallGradientNotScaledUp) {
  DpSgdConfig cfg;
  cfg.clip_norm = 10.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  SetGrad({1.0f, 0.0f, 0.0f, 0.0f});
  AddExample(acc);
  Rng rng(2);
  FinishLot(&acc, &rng);
  EXPECT_NEAR(p_->grad()[0], 1.0f, 1e-6);  // max(1, 0.1) = 1: unchanged
}

TEST_F(DpSgdTest, AveragesOverBatch) {
  DpSgdConfig cfg;
  cfg.clip_norm = 100.0;
  cfg.noise_multiplier = 0.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  SetGrad({2.0f, 0, 0, 0});
  AddExample(acc);
  SetGrad({4.0f, 0, 0, 0});
  AddExample(acc);
  Rng rng(3);
  FinishLot(&acc, &rng);
  EXPECT_NEAR(p_->grad()[0], 3.0f, 1e-6);
}

TEST_F(DpSgdTest, AccumulateClearsPerExampleGrads) {
  DpSgdConfig cfg;
  PerExampleGradAccumulator acc({p_}, cfg);
  SetGrad({1, 1, 1, 1});
  AddExample(acc);
  for (float g : p_->grad()) EXPECT_EQ(g, 0.0f);
}

TEST_F(DpSgdTest, NoiseHasExpectedScale) {
  DpSgdConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 2.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  Rng rng(5);
  // With zero gradients the output is pure noise / batch.
  const int trials = 4000;
  double sum_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    SetGrad({0, 0, 0, 0});
    AddExample(acc);
    FinishLot(&acc, &rng);
    sum_sq += static_cast<double>(p_->grad()[0]) * p_->grad()[0];
  }
  // Var = (sigma * V)^2 = 4.
  EXPECT_NEAR(sum_sq / trials, 4.0, 0.3);
}

TEST_F(DpSgdTest, DisabledMeansNoClipNoNoise) {
  DpSgdConfig cfg;
  cfg.enabled = false;
  cfg.clip_norm = 0.001;  // would clip hard if enabled
  cfg.noise_multiplier = 100.0;
  PerExampleGradAccumulator acc({p_}, cfg);
  SetGrad({3.0f, 0, 4.0f, 0});
  AddExample(acc);
  Rng rng(7);
  FinishLot(&acc, &rng);
  EXPECT_NEAR(p_->grad()[0], 3.0f, 1e-6);
  EXPECT_NEAR(p_->grad()[2], 4.0f, 1e-6);
}

// ------------------------------------------------------------- Accountant

TEST(AccountantTest, ZeroStepsZeroEpsilon) {
  RdpAccountant acc(0.01, 1.0);
  EXPECT_DOUBLE_EQ(acc.Epsilon(1e-5), 0.0);
}

TEST(AccountantTest, EpsilonGrowsWithSteps) {
  RdpAccountant acc(0.05, 1.0);
  acc.AddSteps(100);
  double e100 = acc.Epsilon(1e-5);
  acc.AddSteps(900);
  double e1000 = acc.Epsilon(1e-5);
  EXPECT_GT(e1000, e100);
  EXPECT_GT(e100, 0.0);
}

TEST(AccountantTest, MoreNoiseLessEpsilon) {
  RdpAccountant low_noise(0.05, 0.8);
  RdpAccountant high_noise(0.05, 4.0);
  low_noise.AddSteps(200);
  high_noise.AddSteps(200);
  EXPECT_GT(low_noise.Epsilon(1e-5), high_noise.Epsilon(1e-5));
}

TEST(AccountantTest, SmallerSamplingRateLessEpsilon) {
  RdpAccountant big_q(0.5, 1.0);
  RdpAccountant small_q(0.01, 1.0);
  big_q.AddSteps(100);
  small_q.AddSteps(100);
  EXPECT_GT(big_q.Epsilon(1e-5), small_q.Epsilon(1e-5));
}

TEST(AccountantTest, FullBatchMatchesGaussianMechanism) {
  RdpAccountant acc(1.0, 2.0);
  // RDP of the plain Gaussian mechanism at order alpha: alpha / (2 sigma^2).
  EXPECT_NEAR(acc.SingleStepRdp(8), 8.0 / (2.0 * 4.0), 1e-12);
}

TEST(AccountantTest, SubsampledRdpBelowFullBatch) {
  RdpAccountant sub(0.1, 1.0);
  RdpAccountant full(1.0, 1.0);
  EXPECT_LT(sub.SingleStepRdp(4), full.SingleStepRdp(4));
}

TEST(AccountantTest, KnownRegimeSanity) {
  // sigma=1, q=0.01, 1000 steps is a classic "single digit epsilon" regime.
  RdpAccountant acc(0.01, 1.0);
  acc.AddSteps(1000);
  double eps = acc.Epsilon(1e-5);
  EXPECT_GT(eps, 0.1);
  EXPECT_LT(eps, 5.0);
}

TEST(AccountantTest, NoiseForTargetInverse) {
  auto sigma = RdpAccountant::NoiseForTarget(0.02, 500, 1.0, 1e-5);
  ASSERT_TRUE(sigma.ok());
  RdpAccountant acc(0.02, sigma.value());
  acc.AddSteps(500);
  EXPECT_LE(acc.Epsilon(1e-5), 1.0 + 1e-6);
  // Slightly less noise should overshoot the target.
  RdpAccountant tighter(0.02, std::max(0.3, sigma.value() - 0.05));
  tighter.AddSteps(500);
  EXPECT_GT(tighter.Epsilon(1e-5), 1.0 - 0.1);
}

TEST(AccountantTest, NoiseForTargetUnreachable) {
  // Absurdly tight target with huge sampling rate and many steps.
  auto sigma = RdpAccountant::NoiseForTarget(1.0, 1000000, 1e-6, 1e-9);
  EXPECT_FALSE(sigma.ok());
}

}  // namespace
}  // namespace serd
