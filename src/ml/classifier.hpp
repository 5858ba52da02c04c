// Uniform classifier interface over the three tree learners the paper
// evaluates (Random Forest, XGBoost, LightGBM — §IV-C), plus factories.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace cordial::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the full dataset. `rng` drives all stochastic choices so a
  /// (data, seed) pair determines the model exactly.
  virtual void Fit(const Dataset& train, Rng& rng) = 0;

  /// Class-probability vector, size = num_classes of the training data.
  virtual std::vector<double> PredictProba(
      std::span<const double> features) const = 0;

  /// Argmax class.
  virtual int Predict(std::span<const double> features) const;

  virtual const std::string& name() const = 0;

  /// Per-feature importance normalized to sum 1 (empty before fitting).
  /// Forest: total Gini decrease; boosters: total split gain.
  virtual std::vector<double> FeatureImportance() const = 0;

  /// Text serialization of the fitted model (predict-path state only).
  virtual void Serialize(std::ostream& out) const = 0;

  /// Deep copy of the fitted model. Predictions of the clone are
  /// bit-identical to the original's, and the two are fully independent —
  /// the online refresh loop clones the champion so a challenger can train
  /// and evaluate concurrently with serving, without re-parsing a
  /// serialized stream on every evaluation round.
  virtual std::unique_ptr<Classifier> Clone() const = 0;
};

/// Persist / restore a fitted classifier with a type tag, so deployment
/// code can load whatever the training side produced. The loader takes the
/// feature count the model is declared to read and throws ParseError for a
/// model that splits on any other feature or whose trees could not be
/// walked to a leaf.
void SaveClassifier(const Classifier& model, std::ostream& out);
std::unique_ptr<Classifier> LoadClassifier(std::istream& in,
                                           std::size_t num_features);

/// The three learner families from the paper.
enum class LearnerKind {
  kRandomForest,  ///< bagged CART ensemble ("Random Forest")
  kXgbStyle,      ///< Newton boosting, exact level-wise trees ("XGBoost")
  kLgbmStyle,     ///< Newton boosting, histogram leaf-wise trees ("LightGBM")
};

const char* LearnerKindName(LearnerKind kind);

struct RandomForestOptions {
  int n_trees = 100;
  int max_depth = 24;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 = floor(sqrt(d)).
  std::size_t max_features = 0;
  bool bootstrap = true;
};

struct BoosterOptions {
  int n_rounds = 120;
  double learning_rate = 0.1;
  int max_depth = 6;    ///< level-wise cap (XGB-style)
  int max_leaves = 31;  ///< leaf-wise cap (LGBM-style); 0 for level-wise
  int max_bins = 0;     ///< 0 = exact splits; >0 = histogram
  double lambda = 1.0;
  double gamma = 0.0;
  double min_child_weight = 1e-3;
  std::size_t min_samples_leaf = 1;
  double subsample = 0.9;  ///< row subsampling per boosting round

  /// Gradient-based One-Side Sampling (the LightGBM paper's trick): keep
  /// the goss_top_rate largest-gradient rows, sample goss_other_rate of the
  /// rest and up-weight them by (1-top)/other. Replaces plain subsampling.
  bool goss = false;
  double goss_top_rate = 0.2;
  double goss_other_rate = 0.2;
};

std::unique_ptr<Classifier> MakeRandomForest(RandomForestOptions options = {});
std::unique_ptr<Classifier> MakeXgbStyleBooster(BoosterOptions options = {});
std::unique_ptr<Classifier> MakeLgbmStyleBooster(BoosterOptions options = {});

/// Factory with per-kind tuned defaults.
std::unique_ptr<Classifier> MakeClassifier(LearnerKind kind);

}  // namespace cordial::ml
