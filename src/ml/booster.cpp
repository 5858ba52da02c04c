#include "ml/booster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "ml/forest.hpp"

namespace cordial::ml {

std::vector<double> Softmax(std::span<const double> scores) {
  CORDIAL_CHECK_MSG(!scores.empty(), "softmax of empty vector");
  const double max_score = *std::max_element(scores.begin(), scores.end());
  std::vector<double> out(scores.size());
  double total = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    out[i] = std::exp(scores[i] - max_score);
    total += out[i];
  }
  for (double& p : out) p /= total;
  return out;
}

GradientBoostedClassifier::GradientBoostedClassifier(std::string name,
                                                     BoosterOptions options,
                                                     bool histogram_leafwise)
    : name_(std::move(name)),
      options_(options),
      histogram_leafwise_(histogram_leafwise) {
  CORDIAL_CHECK_MSG(options_.n_rounds > 0, "booster needs at least one round");
  CORDIAL_CHECK_MSG(options_.learning_rate > 0.0,
                    "learning rate must be positive");
  CORDIAL_CHECK_MSG(options_.subsample > 0.0 && options_.subsample <= 1.0,
                    "subsample must be in (0,1]");
}

void GradientBoostedClassifier::Fit(const Dataset& train, Rng& rng) {
  CORDIAL_CHECK_MSG(!train.empty(), "cannot fit on an empty dataset");
  trees_.clear();
  num_classes_ = train.num_classes();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t n = train.size();

  // Base score: log class prior (with +1 smoothing so empty classes are
  // representable).
  base_scores_.assign(k, 0.0);
  const std::vector<std::size_t> counts = train.ClassCounts();
  for (std::size_t c = 0; c < k; ++c) {
    base_scores_[c] = std::log((static_cast<double>(counts[c]) + 1.0) /
                               (static_cast<double>(n) + static_cast<double>(k)));
  }

  RegressionTreeOptions tree_options;
  tree_options.lambda = options_.lambda;
  tree_options.gamma = options_.gamma;
  tree_options.min_child_weight = options_.min_child_weight;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  if (histogram_leafwise_) {
    tree_options.max_depth = 0;  // LightGBM default: depth-unbounded
    tree_options.max_leaves = options_.max_leaves;
    tree_options.max_bins = options_.max_bins > 0 ? options_.max_bins : 256;
  } else {
    tree_options.max_depth = options_.max_depth;
    tree_options.max_leaves = 0;
    tree_options.max_bins = options_.max_bins;  // usually 0 -> exact
  }

  std::unique_ptr<FeatureBinner> binner;
  if (tree_options.max_bins > 0) {
    binner = std::make_unique<FeatureBinner>(train, std::vector<std::size_t>{},
                                             tree_options.max_bins);
  }

  // Current raw scores F[i][c], initialized to the base scores.
  std::vector<double> scores(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) scores[i * k + c] = base_scores_[c];
  }

  std::vector<double> grad(n), hess(n);
  // Row selection for one round: GOSS (which mutates grad/hess weights) or
  // plain Bernoulli subsampling.
  const auto select_rows = [&](std::vector<double>& g, std::vector<double>& h,
                               Rng& round_rng) {
    if (options_.goss) return GossSelect(g, h, round_rng);
    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < n; ++i) {
      if (options_.subsample >= 1.0 ||
          round_rng.Bernoulli(options_.subsample)) {
        selected.push_back(i);
      }
    }
    if (selected.empty()) selected.push_back(round_rng.UniformU64(n));
    return selected;
  };

  for (int round = 0; round < options_.n_rounds; ++round) {
    // Per-sample gradient and score-update loops fan out over rows: every
    // iteration writes only its own slot, so any thread count gives the
    // same result bit-for-bit.
    if (num_classes_ == 2) {
      // Binary logistic fast path: one tree per round on the class-1 score.
      ParallelFor(n, 0, [&](std::size_t i) {
        const double margin = scores[i * k + 1] - scores[i * k + 0];
        const double p = 1.0 / (1.0 + std::exp(-margin));
        const double y = train.label(i) == 1 ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-9);
      });
      const std::vector<std::size_t> round_indices =
          select_rows(grad, hess, rng);
      RegressionTree tree(tree_options);
      tree.Fit(train, round_indices, grad, hess, rng, binner.get());
      ParallelFor(n, 0, [&](std::size_t i) {
        scores[i * k + 1] += options_.learning_rate * tree.Predict(train.row(i));
      });
      trees_.push_back(std::move(tree));
      continue;
    }

    for (std::size_t c = 0; c < k; ++c) {
      ParallelFor(n, 0, [&](std::size_t i) {
        const std::span<const double> row_scores(&scores[i * k], k);
        const std::vector<double> p = Softmax(row_scores);
        const double y = train.label(i) == static_cast<int>(c) ? 1.0 : 0.0;
        grad[i] = p[c] - y;
        hess[i] = std::max(p[c] * (1.0 - p[c]), 1e-9);
      });
      const std::vector<std::size_t> round_indices =
          select_rows(grad, hess, rng);
      RegressionTree tree(tree_options);
      tree.Fit(train, round_indices, grad, hess, rng, binner.get());
      ParallelFor(n, 0, [&](std::size_t i) {
        scores[i * k + c] += options_.learning_rate * tree.Predict(train.row(i));
      });
      trees_.push_back(std::move(tree));
    }
  }
}

std::vector<std::size_t> GradientBoostedClassifier::GossSelect(
    std::vector<double>& gradients, std::vector<double>& hessians,
    Rng& rng) const {
  const std::size_t n = gradients.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::fabs(gradients[a]) > std::fabs(gradients[b]);
  });
  const std::size_t top_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.goss_top_rate *
                                  static_cast<double>(n)));
  std::vector<std::size_t> selected(order.begin(),
                                    order.begin() + std::min(top_n, n));
  const double weight =
      (1.0 - options_.goss_top_rate) / options_.goss_other_rate;
  for (std::size_t i = top_n; i < n; ++i) {
    if (!rng.Bernoulli(options_.goss_other_rate)) continue;
    const std::size_t sample = order[i];
    gradients[sample] *= weight;
    hessians[sample] *= weight;
    selected.push_back(sample);
  }
  return selected;
}

std::vector<double> GradientBoostedClassifier::FeatureImportance() const {
  std::vector<double> total;
  for (const RegressionTree& tree : trees_) {
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

void GradientBoostedClassifier::Serialize(std::ostream& out) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "cannot serialize an unfitted booster");
  out << "gbdt v1\nname " << name_ << "\nclasses " << num_classes_
      << " learning_rate ";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", options_.learning_rate);
    out << buf;
  }
  out << " trees " << trees_.size() << "\nbase";
  for (double s : base_scores_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", s);
    out << ' ' << buf;
  }
  out << '\n';
  for (const RegressionTree& tree : trees_) tree.Serialize(out);
}

std::unique_ptr<GradientBoostedClassifier>
GradientBoostedClassifier::Deserialize(std::istream& in,
                                       std::size_t num_features) {
  std::string token;
  in >> token;
  if (token != "gbdt") throw ParseError("booster: bad magic '" + token + "'");
  in >> token;
  if (token != "v1") throw ParseError("booster: unsupported version");
  std::string name;
  in >> token >> name;
  long classes = 0, trees = 0;
  double learning_rate = 0.0;
  in >> token >> classes >> token >> learning_rate >> token >> trees;
  if (!in || classes < 2 || trees < 1 || learning_rate <= 0.0) {
    throw ParseError("booster: malformed header");
  }
  BoosterOptions options;
  options.learning_rate = learning_rate;
  auto booster = std::make_unique<GradientBoostedClassifier>(
      name, options, /*histogram_leafwise=*/false);
  booster->num_classes_ = static_cast<int>(classes);
  in >> token;  // "base"
  booster->base_scores_.resize(static_cast<std::size_t>(classes));
  for (double& s : booster->base_scores_) {
    if (!(in >> s)) throw ParseError("booster: malformed base scores");
  }
  booster->trees_.reserve(static_cast<std::size_t>(trees));
  for (long t = 0; t < trees; ++t) {
    booster->trees_.push_back(RegressionTree::Deserialize(in, num_features));
  }
  return booster;
}

std::vector<double> GradientBoostedClassifier::Scores(
    std::span<const double> features) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> scores(base_scores_);
  if (num_classes_ == 2) {
    // Binary fast path: all trees contribute to the class-1 score.
    for (const RegressionTree& tree : trees_) {
      scores[1] += options_.learning_rate * tree.Predict(features);
    }
    return scores;
  }
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    scores[t % k] += options_.learning_rate * trees_[t].Predict(features);
  }
  return scores;
}

std::vector<double> GradientBoostedClassifier::PredictProba(
    std::span<const double> features) const {
  CORDIAL_CHECK_MSG(!trees_.empty(), "booster not fitted");
  return Softmax(Scores(features));
}

const char* LearnerKindName(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kRandomForest: return "Random Forest";
    case LearnerKind::kXgbStyle: return "XGBoost";
    case LearnerKind::kLgbmStyle: return "LightGBM";
  }
  return "?";
}

std::unique_ptr<Classifier> MakeRandomForest(RandomForestOptions options) {
  return std::make_unique<RandomForestClassifier>(options);
}

std::unique_ptr<Classifier> MakeXgbStyleBooster(BoosterOptions options) {
  return std::make_unique<GradientBoostedClassifier>("XGBoost-style", options,
                                                     /*histogram_leafwise=*/false);
}

std::unique_ptr<Classifier> MakeLgbmStyleBooster(BoosterOptions options) {
  return std::make_unique<GradientBoostedClassifier>("LightGBM-style", options,
                                                     /*histogram_leafwise=*/true);
}

void SaveClassifier(const Classifier& model, std::ostream& out) {
  model.Serialize(out);
}

std::unique_ptr<Classifier> LoadClassifier(std::istream& in,
                                           std::size_t num_features) {
  // Peek the magic token without consuming it.
  const auto start = in.tellg();
  std::string magic;
  if (!(in >> magic)) throw ParseError("classifier: empty stream");
  in.seekg(start);
  if (magic == "random_forest") {
    return RandomForestClassifier::Deserialize(in, num_features);
  }
  if (magic == "gbdt") {
    return GradientBoostedClassifier::Deserialize(in, num_features);
  }
  throw ParseError("classifier: unknown model type '" + magic + "'");
}

std::unique_ptr<Classifier> MakeClassifier(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kRandomForest:
      return MakeRandomForest();
    case LearnerKind::kXgbStyle: {
      BoosterOptions options;
      options.max_depth = 6;
      options.n_rounds = 120;
      return MakeXgbStyleBooster(options);
    }
    case LearnerKind::kLgbmStyle: {
      BoosterOptions options;
      options.max_leaves = 31;
      options.n_rounds = 120;
      options.goss = true;
      return MakeLgbmStyleBooster(options);
    }
  }
  CORDIAL_CHECK_MSG(false, "unknown learner kind");
  return nullptr;
}

}  // namespace cordial::ml
