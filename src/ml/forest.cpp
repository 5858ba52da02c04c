#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace cordial::ml {

int Classifier::Predict(std::span<const double> features) const {
  const std::vector<double> proba = PredictProba(features);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

RandomForestClassifier::RandomForestClassifier(RandomForestOptions options)
    : options_(options) {
  CORDIAL_CHECK_MSG(options_.n_trees > 0, "forest needs at least one tree");
}

void RandomForestClassifier::Fit(const Dataset& train, Rng& rng) {
  CORDIAL_CHECK_MSG(!train.empty(), "cannot fit on an empty dataset");
  trees_.clear();
  num_classes_ = train.num_classes();

  ClassificationTreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features =
      options_.max_features > 0
          ? options_.max_features
          : static_cast<std::size_t>(std::max(
                1.0, std::floor(std::sqrt(
                         static_cast<double>(train.num_features())))));

  const std::size_t n = train.size();
  const RankTable table(train);
  // One draw advances the caller's stream (so back-to-back fits differ);
  // every tree then forks the resulting stream at its own index. Bootstrap
  // indices come from the fork, not the shared stream, which makes each
  // tree a pure function of (salt, t) — trainable on any thread in any
  // order with a bit-identical forest.
  const Rng forker(rng.Next());
  trees_.assign(static_cast<std::size_t>(options_.n_trees),
                ClassificationTree(tree_options));
  ParallelFor(trees_.size(), 1, [&](std::size_t t) {
    Rng tree_rng = forker.Fork(t);
    std::vector<std::uint32_t> rows(n);
    if (options_.bootstrap) {
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<std::uint32_t>(tree_rng.UniformU64(n));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<std::uint32_t>(i);
      }
    }
    trees_[t].Fit(table, std::move(rows), tree_rng);
  });
}

std::vector<double> RandomForestClassifier::PredictProba(
    std::span<const double> features) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "forest not fitted");
  std::vector<double> avg(static_cast<std::size_t>(num_classes_), 0.0);
  for (const ClassificationTree& tree : trees_) {
    tree.PredictProbaInto(features, avg);
  }
  for (double& p : avg) p /= static_cast<double>(trees_.size());
  return avg;
}

std::vector<double> RandomForestClassifier::FeatureImportance() const {
  std::vector<double> total;
  for (const ClassificationTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importance();
    if (total.empty()) total.assign(imp.size(), 0.0);
    for (std::size_t f = 0; f < imp.size(); ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

void RandomForestClassifier::Serialize(std::ostream& out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "cannot serialize an unfitted forest");
  out << "random_forest v1\nclasses " << num_classes_ << " trees "
      << trees_.size() << "\n";
  for (const ClassificationTree& tree : trees_) tree.Serialize(out);
}

std::unique_ptr<RandomForestClassifier> RandomForestClassifier::Deserialize(
    std::istream& in, std::size_t num_features) {
  std::string token;
  in >> token;
  if (token != "random_forest") {
    throw ParseError("forest: bad magic '" + token + "'");
  }
  in >> token;
  if (token != "v1") throw ParseError("forest: unsupported version");
  long classes = 0, trees = 0;
  in >> token >> classes >> token >> trees;
  if (!in || classes < 2 || trees < 1) {
    throw ParseError("forest: malformed header");
  }
  auto forest = std::make_unique<RandomForestClassifier>();
  forest->num_classes_ = static_cast<int>(classes);
  forest->trees_.reserve(static_cast<std::size_t>(trees));
  for (long t = 0; t < trees; ++t) {
    forest->trees_.push_back(ClassificationTree::Deserialize(in, num_features));
    if (forest->trees_.back().num_classes() != forest->num_classes_) {
      throw ParseError("forest: tree " + std::to_string(t) + " has " +
                       std::to_string(forest->trees_.back().num_classes()) +
                       " classes, the forest " + std::to_string(classes));
    }
  }
  return forest;
}

}  // namespace cordial::ml
