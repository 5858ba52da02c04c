#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cordial::ml {
namespace {

std::vector<std::size_t> AllIndices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// Two Gaussian blobs separated along feature 0, plus a noise feature.
Dataset Blobs(std::size_t n_per_class, Rng& rng) {
  Dataset data(2, 2);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double a[] = {rng.Normal(-2.0, 0.5), rng.Normal(0.0, 1.0)};
    data.AddRow(std::span<const double>(a, 2), 0);
    const double b[] = {rng.Normal(2.0, 0.5), rng.Normal(0.0, 1.0)};
    data.AddRow(std::span<const double>(b, 2), 1);
  }
  return data;
}

// --------------------------------------------------- classification tree

TEST(ClassificationTree, LearnsAxisAlignedSplit) {
  Rng rng(1);
  const Dataset data = Blobs(100, rng);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += tree.Predict(data.row(i)) == data.label(i);
  }
  EXPECT_EQ(correct, static_cast<int>(data.size()));
}

TEST(ClassificationTree, LearnsXorWithDepthTwo) {
  // XOR needs two levels of splits; a depth-1 stump cannot fit it.
  Dataset data(2, 2);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double row[] = {x + rng.Normal(0, 0.05), y + rng.Normal(0, 0.05)};
    data.AddRow(std::span<const double>(row, 2), x * y > 0 ? 1 : 0);
  }
  ClassificationTree deep;
  deep.Fit(data, AllIndices(data.size()), rng);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += deep.Predict(data.row(i)) == data.label(i);
  }
  EXPECT_GT(correct, 195);

  ClassificationTreeOptions stump_options;
  stump_options.max_depth = 1;
  ClassificationTree stump(stump_options);
  stump.Fit(data, AllIndices(data.size()), rng);
  int stump_correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    stump_correct += stump.Predict(data.row(i)) == data.label(i);
  }
  EXPECT_LT(stump_correct, 140);  // ~chance for XOR
  EXPECT_LE(stump.depth(), 1);
}

TEST(ClassificationTree, PureNodeBecomesLeafImmediately) {
  Dataset data(1, 2);
  for (int i = 0; i < 10; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 1);
  }
  Rng rng(3);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  EXPECT_EQ(tree.node_count(), 1u);
  const double x = 100.0;
  EXPECT_EQ(tree.Predict(std::span<const double>(&x, 1)), 1);
}

TEST(ClassificationTree, ProbaIsLeafFrequencyAndSumsToOne) {
  Dataset data(1, 2);
  // One region: 3 of class 0, 1 of class 1, not separable (same feature).
  for (int i = 0; i < 4; ++i) {
    const double x = 1.0;
    data.AddRow(std::span<const double>(&x, 1), i == 0 ? 1 : 0);
  }
  Rng rng(4);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  const double q = 1.0;
  const auto proba = tree.PredictProba(std::span<const double>(&q, 1));
  EXPECT_NEAR(proba[0], 0.75, 1e-12);
  EXPECT_NEAR(proba[1], 0.25, 1e-12);
}

TEST(ClassificationTree, MinSamplesLeafIsHonored) {
  Rng rng(5);
  const Dataset data = Blobs(50, rng);
  ClassificationTreeOptions options;
  options.min_samples_leaf = 40;
  ClassificationTree tree(options);
  tree.Fit(data, AllIndices(data.size()), rng);
  // With 100 samples and a 40-sample floor, at most one split is possible
  // per path; the tree stays tiny.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(ClassificationTree, BootstrapIndicesWithDuplicatesWork) {
  Rng rng(6);
  const Dataset data = Blobs(30, rng);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < data.size(); ++i) {
    indices.push_back(i / 2 * 2);  // duplicates, subset
  }
  ClassificationTree tree;
  tree.Fit(data, indices, rng);
  EXPECT_GE(tree.node_count(), 1u);
}

TEST(ClassificationTree, UnfittedPredictThrows) {
  ClassificationTree tree;
  const double x = 0.0;
  EXPECT_THROW(tree.Predict(std::span<const double>(&x, 1)),
               ContractViolation);
}

TEST(ClassificationTree, EmptyFitThrows) {
  Rng rng(7);
  const Dataset data = Blobs(5, rng);
  ClassificationTree tree;
  EXPECT_THROW(tree.Fit(data, {}, rng), ContractViolation);
}

TEST(ClassificationTree, OverflowingMidpointStillSplits) {
  // 1e308 + 1.5e308 overflows; the threshold must still fall between them.
  Dataset data(1, 2);
  for (int i = 0; i < 4; ++i) {
    const double x = i % 2 == 0 ? 1e308 : 1.5e308;
    data.AddRow(std::span<const double>(&x, 1), i % 2);
  }
  Rng rng(8);
  ClassificationTree tree;
  tree.Fit(data, AllIndices(data.size()), rng);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_GT(tree.feature_importance()[0], 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(tree.Predict(data.row(i)), data.label(i));
  }
}

TEST(ClassificationTree, SplitThatCannotBeMadeEarnsNoImportance) {
  // The best boundary's midpoint equals the upper value, so "value <=
  // threshold" keeps every row on the left: the node stays a leaf, and a
  // leaf credits no impurity decrease. Once through an overflow to +inf,
  // once through rounding between adjacent doubles.
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::ldexp(1.0, -52);
  const std::pair<double, double> cases[] = {{1e308, inf},
                                             {1.0 + tiny, 1.0 + 2 * tiny}};
  for (const auto& [low, high] : cases) {
    Dataset data(1, 2);
    for (int i = 0; i < 4; ++i) {
      const double x = i % 2 == 0 ? low : high;
      data.AddRow(std::span<const double>(&x, 1), i % 2);
    }
    Rng rng(9);
    ClassificationTree tree;
    tree.Fit(data, AllIndices(data.size()), rng);
    EXPECT_EQ(tree.node_count(), 1u) << low;
    EXPECT_EQ(tree.feature_importance()[0], 0.0) << low;
  }
}

// ------------------------------------------------------ regression tree

TEST(RegressionTree, NewtonLeafValueOnSingleLeaf) {
  // All samples in one leaf: value = -G/(H+lambda).
  Dataset data(1, 2);
  for (int i = 0; i < 4; ++i) {
    const double x = 1.0;  // constant feature -> no split possible
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  const std::vector<double> grad = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> hess = {1.0, 1.0, 1.0, 1.0};
  RegressionTreeOptions options;
  options.lambda = 1.0;
  RegressionTree tree(options);
  Rng rng(8);
  tree.Fit(data, AllIndices(4), grad, hess, rng, nullptr);
  const double x = 1.0;
  EXPECT_NEAR(tree.Predict(std::span<const double>(&x, 1)), -4.0 / 5.0, 1e-12);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, SplitsOnStepFunction) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 20; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(i < 10 ? 1.0 : -1.0);
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.lambda = 0.0;
  options.max_depth = 1;
  RegressionTree tree(options);
  Rng rng(9);
  tree.Fit(data, AllIndices(20), grad, hess, rng, nullptr);
  EXPECT_EQ(tree.leaf_count(), 2u);
  const double lo = 3.0, hi = 15.0;
  EXPECT_NEAR(tree.Predict(std::span<const double>(&lo, 1)), -1.0, 1e-9);
  EXPECT_NEAR(tree.Predict(std::span<const double>(&hi, 1)), 1.0, 1e-9);
}

TEST(RegressionTree, GammaSuppressesWeakSplits) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  Rng noise(10);
  for (int i = 0; i < 50; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(noise.Normal(0.0, 0.01));  // nearly no signal
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.gamma = 10.0;  // demands large gain
  RegressionTree tree(options);
  Rng rng(11);
  tree.Fit(data, AllIndices(50), grad, hess, rng, nullptr);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, MaxLeavesCapsLeafWiseGrowth) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 64; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(std::sin(i * 0.7));  // rich structure
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.max_depth = 0;
  options.max_leaves = 4;
  RegressionTree tree(options);
  Rng rng(12);
  tree.Fit(data, AllIndices(64), grad, hess, rng, nullptr);
  EXPECT_LE(tree.leaf_count(), 4u);
  EXPECT_GE(tree.leaf_count(), 2u);
}

TEST(RegressionTree, HistogramApproximatesExactOnStep) {
  Dataset data(1, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 100; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), 0);
    grad.push_back(i < 50 ? 2.0 : -2.0);
    hess.push_back(1.0);
  }
  RegressionTreeOptions options;
  options.max_bins = 16;
  options.max_depth = 2;
  options.lambda = 0.0;
  FeatureBinner binner(data, {}, 16);
  RegressionTree tree(options);
  Rng rng(13);
  tree.Fit(data, AllIndices(100), grad, hess, rng, &binner);
  const double lo = 10.0, hi = 90.0;
  EXPECT_LT(tree.Predict(std::span<const double>(&lo, 1)), -1.5);
  EXPECT_GT(tree.Predict(std::span<const double>(&hi, 1)), 1.5);
}

TEST(RegressionTree, BinnerRequiredIffHistogramMode) {
  Dataset data(1, 2);
  const double x = 1.0;
  data.AddRow(std::span<const double>(&x, 1), 0);
  const std::vector<double> g = {1.0}, h = {1.0};
  Rng rng(14);
  RegressionTreeOptions hist_options;
  hist_options.max_bins = 8;
  RegressionTree hist_tree(hist_options);
  EXPECT_THROW(hist_tree.Fit(data, {0}, g, h, rng, nullptr),
               ContractViolation);

  FeatureBinner binner(data, {}, 8);
  RegressionTree exact_tree;
  EXPECT_THROW(exact_tree.Fit(data, {0}, g, h, rng, &binner),
               ContractViolation);
}

// ------------------------------------------------------------- binner

TEST(FeatureBinner, ConstantFeatureHasOneBin) {
  Dataset data(1, 2);
  for (int i = 0; i < 10; ++i) {
    const double x = 7.0;
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  FeatureBinner binner(data, {}, 16);
  EXPECT_EQ(binner.NumBins(0), 1);
  EXPECT_EQ(binner.BinOf(0, 7.0), 0);
  EXPECT_EQ(binner.BinOf(0, -100.0), 0);
}

TEST(FeatureBinner, FewDistinctValuesGetExactBins) {
  Dataset data(1, 2);
  for (double v : {1.0, 2.0, 3.0, 1.0, 2.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  FeatureBinner binner(data, {}, 16);
  EXPECT_EQ(binner.NumBins(0), 3);
  EXPECT_EQ(binner.BinOf(0, 1.0), 0);
  EXPECT_EQ(binner.BinOf(0, 2.0), 1);
  EXPECT_EQ(binner.BinOf(0, 3.0), 2);
  EXPECT_EQ(binner.BinOf(0, 0.0), 0);
  EXPECT_EQ(binner.BinOf(0, 99.0), 2);
}

TEST(FeatureBinner, BinOfIsMonotone) {
  Dataset data(1, 2);
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 10);
    data.AddRow(std::span<const double>(&x, 1), 0);
  }
  FeatureBinner binner(data, {}, 32);
  int prev = 0;
  for (double x = -40.0; x <= 40.0; x += 0.5) {
    const int bin = binner.BinOf(0, x);
    EXPECT_GE(bin, prev);
    EXPECT_LT(bin, binner.NumBins(0));
    prev = bin;
  }
}

TEST(FeatureBinner, UpperEdgeConsistentWithBinOf) {
  Dataset data(1, 2);
  for (double v : {0.0, 10.0, 20.0, 30.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  FeatureBinner binner(data, {}, 8);
  for (int b = 0; b + 1 < binner.NumBins(0); ++b) {
    const double edge = binner.BinUpperEdge(0, b);
    EXPECT_EQ(binner.BinOf(0, edge), b);          // value <= edge -> bin b
    EXPECT_EQ(binner.BinOf(0, edge + 1e-9), b + 1);
  }
  EXPECT_TRUE(std::isinf(
      binner.BinUpperEdge(0, binner.NumBins(0) - 1)));
}

TEST(FeatureBinner, RespectsIndexSubset) {
  Dataset data(1, 2);
  for (double v : {1.0, 2.0, 1000.0}) {
    data.AddRow(std::span<const double>(&v, 1), 0);
  }
  // Build only from the first two rows.
  FeatureBinner binner(data, {0, 1}, 8);
  EXPECT_EQ(binner.NumBins(0), 2);
}

TEST(FeatureBinner, RejectsTooFewBins) {
  Dataset data(1, 2);
  const double x = 0.0;
  data.AddRow(std::span<const double>(&x, 1), 0);
  EXPECT_THROW(FeatureBinner(data, {}, 1), ContractViolation);
}

}  // namespace
}  // namespace cordial::ml
