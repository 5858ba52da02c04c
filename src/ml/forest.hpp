// Random Forest classifier: bootstrap-bagged CART trees with per-split
// feature subsampling and probability averaging.
#pragma once

#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace cordial::ml {

class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(RandomForestOptions options = {});

  void Fit(const Dataset& train, Rng& rng) override;
  std::vector<double> PredictProba(
      std::span<const double> features) const override;
  const std::string& name() const override { return name_; }
  std::vector<double> FeatureImportance() const override;
  void Serialize(std::ostream& out) const override;
  static std::unique_ptr<RandomForestClassifier> Deserialize(
      std::istream& in, std::size_t num_features);
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RandomForestClassifier>(*this);
  }

  std::size_t tree_count() const { return trees_.size(); }

 private:
  RandomForestOptions options_;
  std::vector<ClassificationTree> trees_;
  int num_classes_ = 0;
  std::string name_ = "RandomForest";
};

}  // namespace cordial::ml
