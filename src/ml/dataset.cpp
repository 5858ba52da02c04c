#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace cordial::ml {

Dataset::Dataset(std::size_t num_features, int num_classes,
                 std::vector<std::string> feature_names)
    : num_features_(num_features),
      num_classes_(num_classes),
      feature_names_(std::move(feature_names)) {
  CORDIAL_CHECK_MSG(num_features_ > 0, "dataset needs at least one feature");
  CORDIAL_CHECK_MSG(num_classes_ >= 2, "dataset needs at least two classes");
  if (feature_names_.empty()) {
    feature_names_.reserve(num_features_);
    for (std::size_t i = 0; i < num_features_; ++i) {
      feature_names_.push_back("f" + std::to_string(i));
    }
  }
  CORDIAL_CHECK_MSG(feature_names_.size() == num_features_,
                    "feature name count must match feature count");
}

void Dataset::AddRow(std::span<const double> features, int label) {
  CORDIAL_CHECK_MSG(features.size() == num_features_,
                    "feature vector width mismatch");
  CORDIAL_CHECK_MSG(label >= 0 && label < num_classes_, "label out of range");
  // The tree learners order rows by value; NaN has no place in that order.
  CORDIAL_CHECK_MSG(std::none_of(features.begin(), features.end(),
                                 [](double v) { return std::isnan(v); }),
                    "feature value is NaN");
  x_.insert(x_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

std::span<const double> Dataset::row(std::size_t i) const {
  CORDIAL_CHECK_MSG(i < size(), "row index out of range");
  return {x_.data() + i * num_features_, num_features_};
}

double Dataset::at(std::size_t i, std::size_t feature) const {
  CORDIAL_CHECK_MSG(i < size() && feature < num_features_,
                    "dataset index out of range");
  return x_[i * num_features_ + feature];
}

int Dataset::label(std::size_t i) const {
  CORDIAL_CHECK_MSG(i < size(), "label index out of range");
  return labels_[i];
}

std::vector<std::size_t> Dataset::ClassCounts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (int label : labels_) ++counts[static_cast<std::size_t>(label)];
  return counts;
}

Dataset Dataset::Subset(const std::vector<std::size_t>& indices) const {
  Dataset out(num_features_, num_classes_, feature_names_);
  for (std::size_t i : indices) {
    out.AddRow(row(i), label(i));
  }
  return out;
}

TrainTestSplit StratifiedSplit(const Dataset& data, double test_fraction,
                               Rng& rng) {
  CORDIAL_CHECK_MSG(test_fraction > 0.0 && test_fraction < 1.0,
                    "test_fraction must be in (0,1)");
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(data.num_classes()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    by_class[static_cast<std::size_t>(data.label(i))].push_back(i);
  }
  TrainTestSplit split;
  for (auto& members : by_class) {
    rng.Shuffle(members);
    std::size_t n_test = static_cast<std::size_t>(
        static_cast<double>(members.size()) * test_fraction);
    if (members.size() >= 2 && n_test == 0) n_test = 1;
    for (std::size_t i = 0; i < members.size(); ++i) {
      (i < n_test ? split.test : split.train).push_back(members[i]);
    }
  }
  rng.Shuffle(split.train);
  rng.Shuffle(split.test);
  return split;
}

TrainTestSplit RandomSplit(std::size_t n, double test_fraction, Rng& rng) {
  CORDIAL_CHECK_MSG(test_fraction > 0.0 && test_fraction < 1.0,
                    "test_fraction must be in (0,1)");
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  const auto n_test =
      static_cast<std::size_t>(static_cast<double>(n) * test_fraction);
  TrainTestSplit split;
  split.test.assign(order.begin(), order.begin() + static_cast<long>(n_test));
  split.train.assign(order.begin() + static_cast<long>(n_test), order.end());
  return split;
}

}  // namespace cordial::ml
