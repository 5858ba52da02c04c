// Dense labelled dataset for the tree learners, plus split utilities.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace cordial::ml {

/// Row-major dense feature matrix with integer class labels.
class Dataset {
 public:
  Dataset(std::size_t num_features, int num_classes,
          std::vector<std::string> feature_names = {});

  /// Appends a row; every value must be a number (infinities are fine,
  /// NaN is rejected).
  void AddRow(std::span<const double> features, int label);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }

  std::span<const double> row(std::size_t i) const;
  double at(std::size_t i, std::size_t feature) const;
  int label(std::size_t i) const;

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Per-class sample counts.
  std::vector<std::size_t> ClassCounts() const;

  /// New dataset containing the given rows (duplicates allowed — used for
  /// bootstrap resampling).
  Dataset Subset(const std::vector<std::size_t>& indices) const;

 private:
  std::size_t num_features_;
  int num_classes_;
  std::vector<std::string> feature_names_;
  std::vector<double> x_;  // row-major
  std::vector<int> labels_;
};

/// Index split of a dataset into train/test.
struct TrainTestSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Stratified split: each class contributes ~test_fraction of its samples to
/// the test set (at least one test sample per class with >=2 samples).
/// Mirrors the paper's 7:3 split (§V-A).
TrainTestSplit StratifiedSplit(const Dataset& data, double test_fraction,
                               Rng& rng);

/// Plain random (non-stratified) split.
TrainTestSplit RandomSplit(std::size_t n, double test_fraction, Rng& rng);

}  // namespace cordial::ml
