// Decision trees.
//
// Two tree species cover the paper's three learners (§IV-C):
//   - ClassificationTree: CART with Gini impurity and per-node feature
//     subsampling — the Random Forest base learner.
//   - RegressionTree: second-order (Newton) gradient tree with L2-regularized
//     leaf values, supporting exact or histogram split finding and level-wise
//     or best-first (leaf-wise) growth — the base learner for both the
//     XGBoost-style and the LightGBM-style boosters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace cordial::ml {

// ---------------------------------------------------------------- binning

/// Per-feature quantile binning for histogram split finding. Thresholds are
/// chosen from training-data quantiles; lookup is a binary search.
class FeatureBinner {
 public:
  /// Build from the rows of `data` indexed by `indices` (empty = all rows).
  FeatureBinner(const Dataset& data, const std::vector<std::size_t>& indices,
                int max_bins);

  int max_bins() const { return max_bins_; }
  /// Bin index of `value` for `feature`, in [0, NumBins(feature)).
  int BinOf(std::size_t feature, double value) const;
  int NumBins(std::size_t feature) const;
  /// Upper edge of bin b (split "value <= edge"); +inf for the last bin.
  double BinUpperEdge(std::size_t feature, int bin) const;

 private:
  int max_bins_;
  std::vector<std::vector<double>> edges_;  // per feature, ascending
};

// ----------------------------------------------------- classification tree

/// Per-feature value ranks of every row of a dataset, built once per fit
/// and read by every tree of it. Tied values share a rank, and rank r of a
/// feature stands for its r-th smallest distinct value, so comparing ranks
/// orders rows exactly as comparing values does.
class RankTable {
 public:
  explicit RankTable(const Dataset& data);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_features() const { return values_.size(); }
  int num_classes() const { return num_classes_; }

  /// Rank of every row for `feature`, indexed by row.
  std::span<const std::uint32_t> ranks(std::size_t feature) const {
    return {ranks_.data() + feature * size(), size()};
  }
  /// The feature's distinct values, ascending; values(f)[ranks(f)[i]] is
  /// row i's value.
  std::span<const double> values(std::size_t feature) const {
    return values_[feature];
  }
  std::span<const std::uint32_t> labels() const { return labels_; }

 private:
  int num_classes_;
  std::vector<std::uint32_t> ranks_;  // feature-major
  std::vector<std::vector<double>> values_;
  std::vector<std::uint32_t> labels_;
};

struct ClassificationTreeOptions {
  int max_depth = 24;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features tried per split; 0 = all (single tree), forests pass sqrt(d).
  std::size_t max_features = 0;
  double min_impurity_decrease = 1e-12;
};

class ClassificationTree {
 public:
  explicit ClassificationTree(ClassificationTreeOptions options = {})
      : options_(options) {}

  /// Fit on the rows of `data` listed in `indices` (duplicates allowed —
  /// bootstrap samples). `rng` drives feature subsampling.
  void Fit(const Dataset& data, const std::vector<std::size_t>& indices,
           Rng& rng);
  /// Fit on `rows` (row numbers of `table`, duplicates allowed); the
  /// forest's path, which shares one rank table between its trees.
  void Fit(const RankTable& table, std::vector<std::uint32_t> rows, Rng& rng);

  /// Class-probability vector (leaf class frequencies).
  std::vector<double> PredictProba(std::span<const double> features) const;
  /// Adds the leaf's class frequencies into `out` (size >= num_classes)
  /// without allocating — the ensemble-averaging fast path.
  void PredictProbaInto(std::span<const double> features,
                        std::span<double> out) const;
  int Predict(std::span<const double> features) const;

  std::size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }
  int num_classes() const { return num_classes_; }

  /// Per-feature total impurity decrease (weighted by node size); empty
  /// before fitting. Not normalized.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  /// Line-based text serialization; Deserialize(Serialize(t)) reproduces
  /// identical predictions. Deserialize throws ParseError unless the nodes
  /// form a preorder tree over features [0, num_features).
  void Serialize(std::ostream& out) const;
  static ClassificationTree Deserialize(std::istream& in,
                                        std::size_t num_features);

 private:
  /// One preorder node: a split's left child is the next node, its right
  /// child is `right`. A leaf has feature -1 and `right` is its ordinal,
  /// whose class frequencies start at leaf_proba_[right * num_classes_].
  struct Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t right = -1;
  };
  static_assert(sizeof(Node) == 16);

  const double* LeafProba(std::span<const double> features) const;

  ClassificationTreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<double> leaf_proba_;
  std::vector<double> importance_;
  int num_classes_ = 0;
  int depth_ = 0;
};

// -------------------------------------------------------- regression tree

struct RegressionTreeOptions {
  /// Depth cap; 0 = unlimited (useful with max_leaves).
  int max_depth = 6;
  /// Best-first growth with this many leaves at most; 0 = pure level-wise.
  int max_leaves = 0;
  /// Histogram bins for split finding; 0 = exact (sorted) splits.
  int max_bins = 0;
  double lambda = 1.0;  ///< L2 regularization on leaf values
  double gamma = 0.0;   ///< minimum split gain
  double min_child_weight = 1e-3;
  std::size_t min_samples_leaf = 1;
  std::size_t max_features = 0;  ///< 0 = all
};

/// Newton-step regression tree: fits -G/(H+lambda) leaf values to per-sample
/// gradient/hessian pairs, split gain = 1/2[GL^2/(HL+l) + GR^2/(HR+l)
/// - G^2/(H+l)] - gamma.
class RegressionTree {
 public:
  explicit RegressionTree(RegressionTreeOptions options = {})
      : options_(options) {}

  /// `binner` must be non-null iff options.max_bins > 0.
  void Fit(const Dataset& data, const std::vector<std::size_t>& indices,
           std::span<const double> gradients, std::span<const double> hessians,
           Rng& rng, const FeatureBinner* binner);

  double Predict(std::span<const double> features) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;

  /// Per-feature total split gain; empty before fitting. Not normalized.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  /// Line-based text serialization; Deserialize(Serialize(t)) reproduces
  /// identical predictions. Deserialize throws ParseError unless every
  /// split reads a feature in [0, num_features) and both its children come
  /// after it.
  void Serialize(std::ostream& out) const;
  static RegressionTree Deserialize(std::istream& in,
                                    std::size_t num_features);

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  ///< leaves only
  };

  struct SplitResult {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  SplitResult FindBestSplit(const Dataset& data,
                            const std::vector<std::size_t>& indices,
                            std::span<const double> gradients,
                            std::span<const double> hessians, Rng& rng,
                            const FeatureBinner* binner) const;

  RegressionTreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace cordial::ml
