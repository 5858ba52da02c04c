#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/check.hpp"

namespace cordial::ml {
namespace {

Dataset TinyDataset() {
  Dataset data(2, 3, {"x", "y"});
  const double rows[][2] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  const int labels[] = {0, 1, 2, 1};
  for (int i = 0; i < 4; ++i) {
    data.AddRow(std::span<const double>(rows[i], 2), labels[i]);
  }
  return data;
}

TEST(Dataset, StoresRowsAndLabels) {
  const Dataset data = TinyDataset();
  EXPECT_EQ(data.size(), 4u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.num_classes(), 3);
  EXPECT_DOUBLE_EQ(data.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(data.at(2, 1), 6.0);
  EXPECT_EQ(data.label(3), 1);
  EXPECT_EQ(data.row(0).size(), 2u);
  EXPECT_DOUBLE_EQ(data.row(0)[1], 2.0);
}

TEST(Dataset, FeatureNamesDefaultAndCustom) {
  const Dataset named = TinyDataset();
  EXPECT_EQ(named.feature_names()[0], "x");
  Dataset anonymous(3, 2);
  EXPECT_EQ(anonymous.feature_names()[2], "f2");
}

TEST(Dataset, ClassCounts) {
  const auto counts = TinyDataset().ClassCounts();
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(Dataset, SubsetAllowsDuplicates) {
  const Dataset data = TinyDataset();
  const Dataset sub = data.Subset({1, 1, 3});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 3.0);
  EXPECT_EQ(sub.label(2), 1);
}

TEST(Dataset, RejectsBadInput) {
  Dataset data(2, 2);
  const double row[] = {1.0};
  EXPECT_THROW(data.AddRow(std::span<const double>(row, 1), 0),
               ContractViolation);
  const double ok[] = {1.0, 2.0};
  EXPECT_THROW(data.AddRow(std::span<const double>(ok, 2), 2),
               ContractViolation);
  EXPECT_THROW(data.AddRow(std::span<const double>(ok, 2), -1),
               ContractViolation);
  EXPECT_THROW(Dataset(0, 2), ContractViolation);
  EXPECT_THROW(Dataset(2, 1), ContractViolation);
  EXPECT_THROW(data.at(0, 0), ContractViolation);  // empty dataset
}

TEST(Dataset, RejectsNaNFeaturesButKeepsInfinities) {
  // The tree learners sort rows by value; NaN would break that order.
  Dataset data(2, 2);
  const double nan_row[] = {1.0, std::nan("")};
  EXPECT_THROW(data.AddRow(std::span<const double>(nan_row, 2), 0),
               ContractViolation);
  EXPECT_TRUE(data.empty());
  const double inf_row[] = {-std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity()};
  data.AddRow(std::span<const double>(inf_row, 2), 1);
  EXPECT_EQ(data.size(), 1u);
}

TEST(StratifiedSplit, PartitionsWithoutOverlap) {
  Dataset data(1, 2);
  for (int i = 0; i < 100; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), i < 70 ? 0 : 1);
  }
  Rng rng(1);
  const TrainTestSplit split = StratifiedSplit(data, 0.3, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), 100u);
  std::set<std::size_t> seen(split.train.begin(), split.train.end());
  seen.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(StratifiedSplit, PreservesClassProportions) {
  Dataset data(1, 3);
  for (int i = 0; i < 300; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), i % 3);
  }
  Rng rng(2);
  const TrainTestSplit split = StratifiedSplit(data, 0.3, rng);
  std::vector<int> test_counts(3, 0);
  for (std::size_t i : split.test) ++test_counts[data.label(i) % 3];
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(test_counts[static_cast<std::size_t>(c)], 30);
  }
}

TEST(StratifiedSplit, TinyClassStillRepresentedInTest) {
  Dataset data(1, 2);
  for (int i = 0; i < 50; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), i < 48 ? 0 : 1);
  }
  Rng rng(3);
  const TrainTestSplit split = StratifiedSplit(data, 0.1, rng);
  int tiny_in_test = 0;
  for (std::size_t i : split.test) tiny_in_test += data.label(i) == 1;
  EXPECT_EQ(tiny_in_test, 1);
}

TEST(StratifiedSplit, DeterministicGivenSeed) {
  Dataset data(1, 2);
  for (int i = 0; i < 40; ++i) {
    const double x = i;
    data.AddRow(std::span<const double>(&x, 1), i % 2);
  }
  Rng a(9), b(9);
  EXPECT_EQ(StratifiedSplit(data, 0.25, a).test,
            StratifiedSplit(data, 0.25, b).test);
}

TEST(StratifiedSplit, RejectsBadFraction) {
  Dataset data = TinyDataset();
  Rng rng(4);
  EXPECT_THROW(StratifiedSplit(data, 0.0, rng), ContractViolation);
  EXPECT_THROW(StratifiedSplit(data, 1.0, rng), ContractViolation);
}

TEST(RandomSplit, SizesAndDisjointness) {
  Rng rng(5);
  const TrainTestSplit split = RandomSplit(100, 0.3, rng);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_EQ(split.train.size(), 70u);
  std::set<std::size_t> seen(split.train.begin(), split.train.end());
  seen.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(seen.size(), 100u);
}

}  // namespace
}  // namespace cordial::ml
