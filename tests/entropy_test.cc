// Min-entropy machinery tests (Section 6.2): H∞ / smooth H∞ / Shannon,
// statistical distance, the inner-product extractor (Theorem H.9), and the
// matrix-vector min-entropy propagation experiment (Theorem 6.3).
#include <gtest/gtest.h>

#include <cmath>

#include "entropy/distribution.h"
#include "entropy/extractor.h"
#include "entropy/matrix_entropy.h"

namespace topofaq {
namespace {

TEST(BitDist, UniformEntropies) {
  BitDist d = BitDist::Uniform(8);
  EXPECT_NEAR(d.MinEntropy(), 8.0, 1e-9);
  EXPECT_NEAR(d.ShannonEntropy(), 8.0, 1e-9);
}

TEST(BitDist, PointMassEntropies) {
  BitDist d = BitDist::PointMass(8, 42);
  EXPECT_NEAR(d.MinEntropy(), 0.0, 1e-9);
  EXPECT_NEAR(d.ShannonEntropy(), 0.0, 1e-9);
}

TEST(BitDist, MinEntropyIsAtMostShannon) {
  Rng rng(1);
  for (int iter = 0; iter < 20; ++iter) {
    BitDist d(6);
    for (uint64_t x = 0; x < d.size(); ++x) d.set_p(x, rng.NextDouble());
    d.Normalize();
    EXPECT_LE(d.MinEntropy(), d.ShannonEntropy() + 1e-9);
  }
}

TEST(BitDist, UniformOnSetHasLogSupportEntropy) {
  BitDist d = BitDist::UniformOnSet(8, {1, 2, 3, 4});
  EXPECT_NEAR(d.MinEntropy(), 2.0, 1e-9);
}

TEST(BitDist, SmoothingIncreasesMinEntropy) {
  // Spike + uniform: smoothing removes the spike.
  BitDist d(6);
  for (uint64_t x = 0; x < d.size(); ++x) d.set_p(x, 1.0);
  d.set_p(0, 100.0);
  d.Normalize();
  const double h0 = d.MinEntropy();
  const double h_smooth = d.SmoothMinEntropy(0.7);
  EXPECT_GT(h_smooth, h0 + 1.0);
  // Monotone in eps.
  EXPECT_LE(d.SmoothMinEntropy(0.1), d.SmoothMinEntropy(0.5) + 1e-9);
}

TEST(BitDist, SmoothingWithZeroEpsIsPlain) {
  BitDist d = BitDist::Uniform(5);
  EXPECT_NEAR(d.SmoothMinEntropy(0), d.MinEntropy(), 1e-9);
}

TEST(StatDistance, IdenticalAndDisjoint) {
  BitDist a = BitDist::PointMass(4, 1);
  BitDist b = BitDist::PointMass(4, 2);
  EXPECT_NEAR(StatDistance(a, a), 0.0, 1e-12);
  EXPECT_NEAR(StatDistance(a, b), 1.0, 1e-12);
  BitDist u = BitDist::Uniform(4);
  EXPECT_NEAR(StatDistance(u, a), 1.0 - 1.0 / 16, 1e-12);
}

TEST(Guessing, Lemma63Shape) {
  // Pr[guess] = 2^{-H∞}: the Lemma 6.3 bound with eps = 0.
  BitDist d = BitDist::UniformOnSet(8, {3, 7, 9, 11, 200, 201, 202, 203});
  EXPECT_NEAR(GuessingProbability(d), std::pow(2.0, -d.MinEntropy()), 1e-12);
}

TEST(Extractor, FullEntropySourcesAreNearUniform) {
  Rng rng(2);
  ExtractorResult r = InnerProductExperiment(/*n=*/10, /*k1=*/10, /*k2=*/10, &rng);
  EXPECT_NEAR(r.delta, 1.0, 1e-9);
  // Bound 2^{-n/2-1} ≈ 0.015; the exact distance should comply.
  EXPECT_LE(r.distance, r.theorem_bound + 1e-9);
}

TEST(Extractor, TheoremBoundHoldsAcrossDeltas) {
  Rng rng(3);
  for (int k = 6; k <= 10; ++k) {
    ExtractorResult r = InnerProductExperiment(10, k, 10, &rng);
    if (r.delta > 0) {
      EXPECT_LE(r.distance, r.theorem_bound + 1e-9)
          << "k1=" << k << " delta=" << r.delta;
    }
  }
}

TEST(Extractor, DistanceDecaysWithDelta) {
  Rng rng(4);
  ExtractorResult low = InnerProductExperiment(12, 7, 7, &rng);
  ExtractorResult high = InnerProductExperiment(12, 11, 11, &rng);
  EXPECT_GT(low.distance, high.distance);
}

TEST(Extractor, LowEntropyCanFail) {
  // A dimension-k subspace source with z in its orthogonal complement makes
  // <y,z> constant: distance 1/2. We emulate the worst case analytically:
  // with k1 + k2 <= n the theorem gives no guarantee; just document that
  // the bound reported is vacuous (>= 1) there.
  Rng rng(5);
  ExtractorResult r = InnerProductExperiment(10, 4, 4, &rng);
  EXPECT_GE(r.theorem_bound, 1.0);
}

TEST(MatrixEntropy, NoLeakGivesNearFullEntropy) {
  Rng rng(6);
  auto r = MatrixVectorExperiment(/*m=*/8, /*n=*/10, /*gamma=*/0.0,
                                  /*support_log2=*/6, &rng);
  // x is never 0, A fully uniform: Ax is exactly uniform on F2^m.
  EXPECT_NEAR(r.hinf_ax, 8.0, 1e-9);
  EXPECT_NEAR(r.theorem_floor, 8.0, 1e-9);
}

TEST(MatrixEntropy, TheoremFloorHolds) {
  Rng rng(7);
  for (double gamma : {0.02, 0.05, 0.1}) {
    auto r = MatrixVectorExperiment(10, 12, gamma, 7, &rng);
    EXPECT_GE(r.hinf_ax + 1e-6, r.theorem_floor)
        << "gamma=" << gamma << " H(Ax)=" << r.hinf_ax;
  }
}

TEST(MatrixEntropy, EntropyDegradesGracefullyWithLeak) {
  Rng rng(8);
  auto lo = MatrixVectorExperiment(10, 12, 0.05, 7, &rng);
  auto hi = MatrixVectorExperiment(10, 12, 0.6, 7, &rng);
  EXPECT_GE(lo.hinf_ax, hi.hinf_ax - 1e-9);
}

TEST(MatrixEntropy, OutputDistributionIsNormalized) {
  Rng rng(9);
  auto r = MatrixVectorExperiment(8, 10, 0.1, 6, &rng);
  EXPECT_NEAR(r.ax_dist.TotalMass(), 1.0, 1e-9);
}

TEST(ShannonCounterexample, FactorTwoDrop) {
  // Appendix I.3: H(x) ≈ 2α(1-α)n but H(Ax | f(A)) <= αn — the conditional
  // Shannon entropy can halve, breaking the inductive argument.
  auto c = ShannonCounterexampleNumbers(/*n=*/100, /*alpha=*/0.25);
  EXPECT_NEAR(c.h_x, 0.75 * 25 + 0.25 * 75, 1e-9);
  EXPECT_NEAR(c.h_ax_given_leak, 25.0, 1e-9);
  EXPECT_LT(c.h_ax_given_leak, c.h_x / 1.4);
}

class ExtractorSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExtractorSweep, BoundHoldsOnRandomSources) {
  Rng rng(100 + GetParam());
  const int n = 8 + GetParam() % 4;
  const int k1 = n - GetParam() % 2;
  const int k2 = n - 1;
  ExtractorResult r = InnerProductExperiment(n, k1, k2, &rng);
  if (r.delta > 0) {
    EXPECT_LE(r.distance, r.theorem_bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtractorSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace topofaq
