#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"

namespace cordial::ml {
namespace {

Dataset Blobs(std::size_t n_per_class, int classes, Rng& rng) {
  Dataset data(3, classes);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (int cls = 0; cls < classes; ++cls) {
      const double row[] = {static_cast<double>(cls) * 3.0 + rng.Normal(0, 0.7),
                            rng.Normal(0, 1.0), rng.Normal(0, 1.0)};
      data.AddRow(std::span<const double>(row, 3), cls);
    }
  }
  return data;
}

template <typename Model>
void ExpectIdenticalProba(const Model& a, const Classifier& b,
                          const Dataset& data) {
  for (std::size_t i = 0; i < data.size(); i += 3) {
    EXPECT_EQ(a.PredictProba(data.row(i)), b.PredictProba(data.row(i)))
        << "row " << i;
  }
}

TEST(Serialize, ClassificationTreeRoundTrip) {
  Rng rng(1);
  const Dataset data = Blobs(60, 3, rng);
  ClassificationTree tree;
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  tree.Fit(data, all, rng);

  std::stringstream buffer;
  tree.Serialize(buffer);
  const ClassificationTree restored = ClassificationTree::Deserialize(buffer, data.num_features());
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 5) {
    EXPECT_EQ(restored.PredictProba(data.row(i)), tree.PredictProba(data.row(i)));
  }
  EXPECT_EQ(restored.feature_importance(), tree.feature_importance());
}

TEST(Serialize, RegressionTreeRoundTrip) {
  Rng rng(2);
  Dataset data(2, 2);
  std::vector<double> grad, hess;
  for (int i = 0; i < 100; ++i) {
    const double row[] = {static_cast<double>(i), rng.Normal(0, 1)};
    data.AddRow(std::span<const double>(row, 2), 0);
    grad.push_back(i < 50 ? 1.0 : -1.0);
    hess.push_back(1.0);
  }
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  RegressionTree tree;
  tree.Fit(data, all, grad, hess, rng, nullptr);

  std::stringstream buffer;
  tree.Serialize(buffer);
  const RegressionTree restored = RegressionTree::Deserialize(buffer, data.num_features());
  EXPECT_EQ(restored.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); i += 7) {
    EXPECT_EQ(restored.Predict(data.row(i)), tree.Predict(data.row(i)));
  }
}

TEST(Serialize, RandomForestRoundTrip) {
  Rng rng(3);
  const Dataset data = Blobs(50, 3, rng);
  RandomForestOptions options;
  options.n_trees = 15;
  RandomForestClassifier forest(options);
  Rng fit_rng(4);
  forest.Fit(data, fit_rng);

  std::stringstream buffer;
  SaveClassifier(forest, buffer);
  const auto restored = LoadClassifier(buffer, data.num_features());
  ExpectIdenticalProba(forest, *restored, data);
}

TEST(Serialize, XgbStyleBoosterRoundTrip) {
  Rng rng(5);
  const Dataset data = Blobs(60, 2, rng);
  BoosterOptions options;
  options.n_rounds = 12;
  auto booster = MakeXgbStyleBooster(options);
  Rng fit_rng(6);
  booster->Fit(data, fit_rng);

  std::stringstream buffer;
  SaveClassifier(*booster, buffer);
  const auto restored = LoadClassifier(buffer, data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
}

TEST(Serialize, LgbmStyleBoosterRoundTrip) {
  Rng rng(7);
  const Dataset data = Blobs(60, 3, rng);
  auto booster = MakeClassifier(LearnerKind::kLgbmStyle);
  Rng fit_rng(8);
  booster->Fit(data, fit_rng);

  std::stringstream buffer;
  SaveClassifier(*booster, buffer);
  const auto restored = LoadClassifier(buffer, data.num_features());
  ExpectIdenticalProba(*booster, *restored, data);
}

TEST(Serialize, RoundTripSurvivesDoubleSerialization) {
  Rng rng(9);
  const Dataset data = Blobs(40, 2, rng);
  auto model = MakeRandomForest(RandomForestOptions{.n_trees = 5});
  Rng fit_rng(10);
  model->Fit(data, fit_rng);
  std::stringstream first, second;
  SaveClassifier(*model, first);
  const auto once = LoadClassifier(first, data.num_features());
  SaveClassifier(*once, second);
  EXPECT_NO_THROW(LoadClassifier(second, data.num_features()));
}

TEST(Serialize, UnfittedModelsRefuseToSerialize) {
  std::stringstream buffer;
  RandomForestClassifier forest;
  EXPECT_THROW(forest.Serialize(buffer), ContractViolation);
  auto booster = MakeXgbStyleBooster();
  EXPECT_THROW(booster->Serialize(buffer), ContractViolation);
}

TEST(Serialize, LoadRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(LoadClassifier(empty, 3), ParseError);
  std::istringstream junk("not_a_model v1");
  EXPECT_THROW(LoadClassifier(junk, 3), ParseError);
  std::istringstream truncated("random_forest v1\nclasses 3 trees 5\n");
  EXPECT_THROW(LoadClassifier(truncated, 3), ParseError);
  std::istringstream bad_header("random_forest v2\n");
  EXPECT_THROW(LoadClassifier(bad_header, 3), ParseError);
}

TEST(Serialize, TreeDeserializeValidatesChildren) {
  // A decision node whose child index points past the node table.
  std::istringstream evil(
      "classification_tree v1\nclasses 2 nodes 1 importance 1\n"
      "0 0.5 5 6\n");
  EXPECT_THROW(ClassificationTree::Deserialize(evil, 1), ParseError);
}

TEST(Serialize, TreeDeserializeRejectsANodeThatIsItsOwnChild) {
  // Loaded, this node would send every prediction back to itself forever.
  std::istringstream evil(
      "classification_tree v1\nclasses 2 nodes 1 importance 1\n"
      "0 0.5 0 0\n0\n");
  EXPECT_THROW(ClassificationTree::Deserialize(evil, 1), ParseError);
  // A right child that points back up the tree is a loop too.
  std::istringstream backwards(
      "classification_tree v1\nclasses 2 nodes 3 importance 1\n"
      "0 0.5 1 2\n0 0.5 2 0\n-1 0 -1 -1 1 0\n0\n");
  EXPECT_THROW(ClassificationTree::Deserialize(backwards, 1), ParseError);
  std::istringstream regression(
      "regression_tree v1\nnodes 1 importance 1\n0 0.5 0 0 0\n0\n");
  EXPECT_THROW(RegressionTree::Deserialize(regression, 1), ParseError);
}

TEST(Serialize, TreeDeserializeRejectsAFeatureOutsideTheModel) {
  // Loaded, this split would read 800 MB past a 3-wide feature vector.
  const std::string tree =
      "classification_tree v1\nclasses 2 nodes 3 importance 3\n"
      "100000000 0.5 1 2\n-1 0 -1 -1 1 0\n-1 0 -1 -1 0 1\n0\n0\n0\n";
  std::istringstream evil(tree);
  EXPECT_THROW(ClassificationTree::Deserialize(evil, 3), ParseError);
  std::istringstream forest("random_forest v1\nclasses 2 trees 1\n" + tree);
  EXPECT_THROW(LoadClassifier(forest, 3), ParseError);
  std::istringstream regression(
      "regression_tree v1\nnodes 3 importance 3\n"
      "3 0.5 1 2 0\n-1 0 -1 -1 1\n-1 0 -1 -1 2\n0\n0\n0\n");
  EXPECT_THROW(RegressionTree::Deserialize(regression, 3), ParseError);

  // The same tree on feature 2 of 3 loads and predicts.
  std::istringstream fine(
      "classification_tree v1\nclasses 2 nodes 3 importance 3\n"
      "2 0.5 1 2\n-1 0 -1 -1 1 0\n-1 0 -1 -1 0 1\n0\n0\n0\n");
  const ClassificationTree loaded = ClassificationTree::Deserialize(fine, 3);
  const double x[] = {0.0, 0.0, 1.0};
  EXPECT_EQ(loaded.Predict(x), 1);
}

TEST(Serialize, ForestDeserializeRejectsATreeWithAnotherClassCount) {
  // A 3-class tree in a 2-class forest would add past the forest's
  // probability vector.
  std::istringstream evil(
      "random_forest v1\nclasses 2 trees 1\n"
      "classification_tree v1\nclasses 3 nodes 1 importance 1\n"
      "-1 0 -1 -1 0.2 0.3 0.5\n0\n");
  EXPECT_THROW(LoadClassifier(evil, 1), ParseError);
}

}  // namespace
}  // namespace cordial::ml
