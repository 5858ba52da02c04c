#include "ml/tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <istream>
#include <ostream>
#include <queue>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace cordial::ml {

namespace {

/// Per-feature split scans go parallel once a node holds this many samples;
/// below it the scheduling overhead outweighs the scan. The cutover only
/// affects speed — scans are pure and reduced in sampled-feature order, so
/// the chosen split is identical either way.
constexpr std::size_t kParallelSplitMinSamples = 2048;

/// Feature subset to try at one split: all features when max_features is 0
/// or >= d, otherwise a uniform sample without replacement.
std::vector<std::size_t> SampleFeatures(std::size_t num_features,
                                        std::size_t max_features, Rng& rng) {
  if (max_features == 0 || max_features >= num_features) {
    std::vector<std::size_t> all(num_features);
    for (std::size_t i = 0; i < num_features; ++i) all[i] = i;
    return all;
  }
  return rng.SampleWithoutReplacement(num_features, max_features);
}

double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

// ---------------------------------------------------------------- binning

FeatureBinner::FeatureBinner(const Dataset& data,
                             const std::vector<std::size_t>& indices,
                             int max_bins)
    : max_bins_(max_bins) {
  CORDIAL_CHECK_MSG(max_bins_ >= 2, "binner needs at least 2 bins");
  const std::size_t d = data.num_features();
  edges_.resize(d);
  std::vector<double> values;
  for (std::size_t f = 0; f < d; ++f) {
    values.clear();
    if (indices.empty()) {
      values.reserve(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) values.push_back(data.at(i, f));
    } else {
      values.reserve(indices.size());
      for (std::size_t i : indices) values.push_back(data.at(i, f));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    auto& edges = edges_[f];
    if (values.size() <= static_cast<std::size_t>(max_bins_)) {
      // One bin per distinct value: edges midway between neighbours.
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        edges.push_back(0.5 * (values[i] + values[i + 1]));
      }
    } else {
      // Quantile edges.
      for (int b = 1; b < max_bins_; ++b) {
        const double q = static_cast<double>(b) / max_bins_;
        const auto pos = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1));
        const double edge = 0.5 * (values[pos] +
                                   values[std::min(pos + 1, values.size() - 1)]);
        if (edges.empty() || edge > edges.back()) edges.push_back(edge);
      }
    }
  }
}

int FeatureBinner::BinOf(std::size_t feature, double value) const {
  CORDIAL_CHECK_MSG(feature < edges_.size(), "binner feature out of range");
  const auto& edges = edges_[feature];
  // Bin b holds values in (edge[b-1], edge[b]]: lower_bound keeps a value
  // equal to an edge on the LEFT side, matching the tree's "value <=
  // threshold goes left" prediction rule.
  return static_cast<int>(
      std::lower_bound(edges.begin(), edges.end(), value) - edges.begin());
}

int FeatureBinner::NumBins(std::size_t feature) const {
  CORDIAL_CHECK_MSG(feature < edges_.size(), "binner feature out of range");
  return static_cast<int>(edges_[feature].size()) + 1;
}

double FeatureBinner::BinUpperEdge(std::size_t feature, int bin) const {
  const auto& edges = edges_[feature];
  if (bin >= static_cast<int>(edges.size())) {
    return std::numeric_limits<double>::infinity();
  }
  CORDIAL_CHECK_MSG(bin >= 0, "bin out of range");
  return edges[static_cast<std::size_t>(bin)];
}

// ----------------------------------------------------- classification tree

RankTable::RankTable(const Dataset& data)
    : num_classes_(data.num_classes()),
      ranks_(data.size() * data.num_features()),
      values_(data.num_features()),
      labels_(data.size()) {
  const std::size_t n = data.size();
  CORDIAL_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                    "rank table rows must fit in 32 bits");
  for (std::size_t i = 0; i < n; ++i) {
    labels_[i] = static_cast<std::uint32_t>(data.label(i));
  }
  ParallelFor(values_.size(), 1, [&](std::size_t f) {
    std::vector<std::pair<double, std::uint32_t>> sorted(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = {data.at(i, f), static_cast<std::uint32_t>(i)};
    }
    std::sort(sorted.begin(), sorted.end());
    std::uint32_t* ranks = ranks_.data() + f * n;
    std::vector<double>& values = values_[f];
    for (const auto& [value, row] : sorted) {
      if (values.empty() || values.back() != value) values.push_back(value);
      ranks[row] = static_cast<std::uint32_t>(values.size() - 1);
    }
  });
}

namespace {

/// Threshold halfway between two adjacent values. Falls back to
/// 0.5a + 0.5b only when a + b overflows, so every finite sum keeps the
/// learner's original 0.5 * (a + b) bits.
double Midpoint(double a, double b) {
  const double sum = a + b;
  return std::isfinite(sum) ? 0.5 * sum : 0.5 * a + 0.5 * b;
}

/// One feature's best boundary in a node: the node's rows with rank <= lo
/// go left, those with rank >= hi go right.
struct FeatureSplit {
  bool found = false;
  double impurity = 0.0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// Finds the lowest weighted Gini impurity below `impurity_bar` over the
/// boundaries between a feature's distinct values among `rows`, scanning
/// boundaries in ascending value order and keeping the first strict
/// winner. Rows are read as packed `rank << bits | label` keys; when the
/// node's rank span is no wider than its sample count they are counted
/// into a ranks x classes histogram, otherwise the keys are sorted.
FeatureSplit ScanFeature(std::span<const std::uint32_t> ranks,
                         std::span<const std::uint32_t> labels,
                         std::span<const std::uint32_t> rows,
                         const std::vector<double>& counts,
                         double impurity_bar, double min_samples_leaf) {
  thread_local std::vector<std::uint64_t> keys;
  thread_local std::vector<std::uint32_t> hist;
  thread_local std::vector<double> left;
  const std::size_t k = counts.size();
  const int bits = std::bit_width(k - 1);
  const std::uint64_t label_mask = (std::uint64_t{1} << bits) - 1;
  const auto total = static_cast<double>(rows.size());

  keys.resize(rows.size());
  std::uint32_t min_rank = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_rank = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t rank = ranks[rows[i]];
    min_rank = std::min(min_rank, rank);
    max_rank = std::max(max_rank, rank);
    keys[i] = (std::uint64_t{rank} << bits) | labels[rows[i]];
  }
  FeatureSplit best;
  if (min_rank == max_rank) return best;  // constant in this node

  best.impurity = impurity_bar;
  left.assign(k, 0.0);
  // Gini arithmetic of a boundary with `left` holding the class counts of
  // the n_left rows below it; kept operation for operation as the
  // per-node sort computed it, so the chosen splits are bit-identical.
  auto consider = [&](double n_left, std::uint32_t lo, std::uint32_t hi) {
    const double n_right = total - n_left;
    if (n_left < min_samples_leaf || n_right < min_samples_leaf) return;
    double right_sq = 0.0, left_sq = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      left_sq += left[c] * left[c];
      const double rc = counts[c] - left[c];
      right_sq += rc * rc;
    }
    const double gini_left = 1.0 - left_sq / (n_left * n_left);
    const double gini_right = 1.0 - right_sq / (n_right * n_right);
    const double weighted = (n_left * gini_left + n_right * gini_right) / total;
    if (weighted < best.impurity) best = {true, weighted, lo, hi};
  };

  const std::size_t span = std::size_t{max_rank} - min_rank + 1;
  if (span <= rows.size()) {
    hist.assign(span * k, 0);
    for (const std::uint64_t key : keys) {
      ++hist[((key >> bits) - min_rank) * k + (key & label_mask)];
    }
    double n_left = 0.0;
    std::uint32_t prev = min_rank;
    for (std::size_t r = 0; r < span; ++r) {
      const std::uint32_t* h = hist.data() + r * k;
      std::uint32_t here = 0;
      for (std::size_t c = 0; c < k; ++c) here += h[c];
      if (here == 0) continue;
      const auto rank = static_cast<std::uint32_t>(min_rank + r);
      if (n_left > 0.0) consider(n_left, prev, rank);
      for (std::size_t c = 0; c < k; ++c) left[c] += h[c];
      n_left += here;
      prev = rank;
    }
  } else {
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
      left[keys[i] & label_mask] += 1.0;
      const auto rank = static_cast<std::uint32_t>(keys[i] >> bits);
      const auto next = static_cast<std::uint32_t>(keys[i + 1] >> bits);
      if (rank != next) consider(static_cast<double>(i + 1), rank, next);
    }
  }
  return best;
}

}  // namespace

void ClassificationTree::Fit(const Dataset& data,
                             const std::vector<std::size_t>& indices,
                             Rng& rng) {
  std::vector<std::uint32_t> rows(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    CORDIAL_CHECK_MSG(indices[i] < data.size(), "dataset index out of range");
    rows[i] = static_cast<std::uint32_t>(indices[i]);
  }
  Fit(RankTable(data), std::move(rows), rng);
}

void ClassificationTree::Fit(const RankTable& table,
                             std::vector<std::uint32_t> rows, Rng& rng) {
  CORDIAL_CHECK_MSG(!rows.empty(), "cannot fit a tree on zero samples");
  for (const std::uint32_t row : rows) {
    CORDIAL_CHECK_MSG(row < table.size(), "rank table row out of range");
  }
  nodes_.clear();
  leaf_proba_.clear();
  depth_ = 0;
  num_classes_ = table.num_classes();
  importance_.assign(table.num_features(), 0.0);
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::span<const std::uint32_t> labels = table.labels();
  const auto min_samples_leaf =
      static_cast<double>(options_.min_samples_leaf);

  // Depth-first in preorder, left before right: the order in which nodes
  // draw their feature subsets from `rng`, and the order they are stored
  // in. Each pending node owns a contiguous range of `rows`, which its
  // split partitions in place into the two children's ranges.
  struct Pending {
    std::size_t begin;
    std::size_t end;
    int depth;
    std::int32_t right_of;  ///< split whose right child this is, or -1
  };
  std::vector<Pending> stack{{0, rows.size(), 0, -1}};
  std::vector<double> counts(k);
  std::vector<FeatureSplit> splits;
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    if (p.right_of >= 0) {
      nodes_[static_cast<std::size_t>(p.right_of)].right = node_id;
    }
    depth_ = std::max(depth_, p.depth);
    const std::span<std::uint32_t> node_rows(rows.data() + p.begin,
                                             p.end - p.begin);

    std::fill(counts.begin(), counts.end(), 0.0);
    for (const std::uint32_t row : node_rows) counts[labels[row]] += 1.0;
    const auto total = static_cast<double>(node_rows.size());
    const double parent_impurity = Gini(counts, total);

    auto make_leaf = [&] {
      nodes_.push_back(
          {0.0, -1, static_cast<std::int32_t>(leaf_proba_.size() / k)});
      for (std::size_t c = 0; c < k; ++c) {
        leaf_proba_.push_back(counts[c] / total);
      }
    };

    const bool pure = std::any_of(counts.begin(), counts.end(),
                                  [&](double c) { return c == total; });
    if (pure || node_rows.size() < options_.min_samples_split ||
        (options_.max_depth > 0 && p.depth >= options_.max_depth)) {
      make_leaf();
      continue;
    }

    // Best Gini split over a feature subsample. Every candidate feature is
    // scanned independently (in parallel for large nodes) and the
    // per-feature winners are reduced in sampled order with strict
    // improvement, which is exactly the serial loop's first-strict-winner
    // semantics — the chosen split is identical at every thread count.
    const double impurity_bar =
        parent_impurity - options_.min_impurity_decrease;
    const std::vector<std::size_t> feats =
        SampleFeatures(table.num_features(), options_.max_features, rng);
    auto scan_feature = [&](std::size_t fi) {
      return ScanFeature(table.ranks(feats[fi]), labels, node_rows, counts,
                         impurity_bar, min_samples_leaf);
    };
    if (node_rows.size() >= kParallelSplitMinSamples && feats.size() > 1) {
      splits = ParallelMap<FeatureSplit>(feats.size(), scan_feature);
    } else {
      splits.clear();
      for (std::size_t fi = 0; fi < feats.size(); ++fi) {
        splits.push_back(scan_feature(fi));
      }
    }

    std::size_t best = feats.size();
    double best_impurity = impurity_bar;
    for (std::size_t fi = 0; fi < feats.size(); ++fi) {
      if (splits[fi].found && splits[fi].impurity < best_impurity) {
        best_impurity = splits[fi].impurity;
        best = fi;
      }
    }
    if (best == feats.size()) {
      make_leaf();
      continue;
    }

    // Rows go left iff value <= threshold, i.e. iff their rank is below
    // the first distinct value above the threshold.
    const std::size_t feature = feats[best];
    const std::span<const double> values = table.values(feature);
    const double threshold =
        Midpoint(values[splits[best].lo], values[splits[best].hi]);
    const auto bound = static_cast<std::uint32_t>(
        std::upper_bound(values.begin(), values.end(), threshold) -
        values.begin());
    const std::span<const std::uint32_t> ranks = table.ranks(feature);
    const auto mid = std::partition(
        node_rows.begin(), node_rows.end(),
        [&](std::uint32_t row) { return ranks[row] < bound; });
    // A midpoint that rounds onto the node's largest value sends every
    // row left: no split is made, so none is credited.
    if (mid == node_rows.begin() || mid == node_rows.end()) {
      make_leaf();
      continue;
    }
    importance_[feature] += (parent_impurity - best_impurity) * total;
    nodes_.push_back({threshold, static_cast<std::int32_t>(feature), -1});
    const std::size_t split = p.begin + static_cast<std::size_t>(
                                            mid - node_rows.begin());
    stack.push_back({split, p.end, p.depth + 1, node_id});
    stack.push_back({p.begin, split, p.depth + 1, -1});
  }
}

const double* ClassificationTree::LeafProba(
    std::span<const double> features) const {
  CORDIAL_CHECK_MSG(!nodes_.empty(), "tree not fitted");
  CORDIAL_CHECK_MSG(features.size() >= importance_.size(),
                    "feature vector narrower than the tree's features");
  const Node* nodes = nodes_.data();
  std::size_t i = 0;
  while (nodes[i].feature >= 0) {
    const Node& n = nodes[i];
    i = features[static_cast<std::size_t>(n.feature)] <= n.threshold
            ? i + 1
            : static_cast<std::size_t>(n.right);
  }
  return leaf_proba_.data() + static_cast<std::size_t>(nodes[i].right) *
                                  static_cast<std::size_t>(num_classes_);
}

std::vector<double> ClassificationTree::PredictProba(
    std::span<const double> features) const {
  const double* proba = LeafProba(features);
  return {proba, proba + num_classes_};
}

void ClassificationTree::PredictProbaInto(std::span<const double> features,
                                          std::span<double> out) const {
  const double* proba = LeafProba(features);
  const auto k = static_cast<std::size_t>(num_classes_);
  CORDIAL_CHECK_MSG(out.size() >= k, "output span smaller than class count");
  for (std::size_t c = 0; c < k; ++c) out[c] += proba[c];
}

int ClassificationTree::Predict(std::span<const double> features) const {
  const double* proba = LeafProba(features);
  return static_cast<int>(std::max_element(proba, proba + num_classes_) -
                          proba);
}

// -------------------------------------------------------- regression tree

namespace {

struct GradSums {
  double g = 0.0;
  double h = 0.0;
};

double LeafValue(const GradSums& s, double lambda) {
  return -s.g / (s.h + lambda);
}

double ScoreOf(const GradSums& s, double lambda) {
  return s.g * s.g / (s.h + lambda);
}

}  // namespace

RegressionTree::SplitResult RegressionTree::FindBestSplit(
    const Dataset& data, const std::vector<std::size_t>& indices,
    std::span<const double> gradients, std::span<const double> hessians,
    Rng& rng, const FeatureBinner* binner) const {
  GradSums parent;
  for (std::size_t i : indices) {
    parent.g += gradients[i];
    parent.h += hessians[i];
  }
  const double parent_score = ScoreOf(parent, options_.lambda);

  // Per-feature scans (histogram or exact) are independent; for large nodes
  // they run in parallel and the winners are reduced in sampled-feature
  // order with strict improvement — identical to the serial loop's
  // first-strict-winner pick at every thread count.
  const std::vector<std::size_t> feats =
      SampleFeatures(data.num_features(), options_.max_features, rng);
  auto scan_feature = [&](std::size_t f) {
    SplitResult best;
    if (binner != nullptr) {
      // Histogram scan.
      const int bins = binner->NumBins(f);
      if (bins < 2) return best;
      std::vector<GradSums> hist(static_cast<std::size_t>(bins));
      std::vector<std::uint32_t> bin_count(static_cast<std::size_t>(bins), 0);
      for (std::size_t i : indices) {
        const int b = binner->BinOf(f, data.at(i, f));
        hist[static_cast<std::size_t>(b)].g += gradients[i];
        hist[static_cast<std::size_t>(b)].h += hessians[i];
        ++bin_count[static_cast<std::size_t>(b)];
      }
      GradSums left;
      std::size_t n_left = 0;
      for (int b = 0; b + 1 < bins; ++b) {
        left.g += hist[static_cast<std::size_t>(b)].g;
        left.h += hist[static_cast<std::size_t>(b)].h;
        n_left += bin_count[static_cast<std::size_t>(b)];
        if (n_left < options_.min_samples_leaf ||
            indices.size() - n_left < options_.min_samples_leaf) {
          continue;
        }
        const GradSums right{parent.g - left.g, parent.h - left.h};
        if (left.h < options_.min_child_weight ||
            right.h < options_.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (ScoreOf(left, options_.lambda) +
                                   ScoreOf(right, options_.lambda) -
                                   parent_score) -
                            options_.gamma;
        if (gain > best.gain) {
          best.found = true;
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = binner->BinUpperEdge(f, b);
        }
      }
    } else {
      // Exact scan over sorted values.
      std::vector<std::pair<double, std::size_t>> sorted;
      sorted.reserve(indices.size());
      for (std::size_t i : indices) sorted.emplace_back(data.at(i, f), i);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) return best;
      GradSums left;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        const std::size_t sample = sorted[i].second;
        left.g += gradients[sample];
        left.h += hessians[sample];
        if (sorted[i].first == sorted[i + 1].first) continue;
        const std::size_t n_left = i + 1;
        if (n_left < options_.min_samples_leaf ||
            indices.size() - n_left < options_.min_samples_leaf) {
          continue;
        }
        const GradSums right{parent.g - left.g, parent.h - left.h};
        if (left.h < options_.min_child_weight ||
            right.h < options_.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (ScoreOf(left, options_.lambda) +
                                   ScoreOf(right, options_.lambda) -
                                   parent_score) -
                            options_.gamma;
        if (gain > best.gain) {
          best.found = true;
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    return best;
  };

  std::vector<SplitResult> per_feature;
  if (indices.size() >= kParallelSplitMinSamples && feats.size() > 1) {
    per_feature = ParallelMap<SplitResult>(
        feats.size(), [&](std::size_t fi) { return scan_feature(feats[fi]); });
  } else {
    per_feature.reserve(feats.size());
    for (std::size_t f : feats) per_feature.push_back(scan_feature(f));
  }

  SplitResult best;
  for (const SplitResult& candidate : per_feature) {
    if (candidate.found && candidate.gain > best.gain) best = candidate;
  }
  return best;
}

void RegressionTree::Fit(const Dataset& data,
                         const std::vector<std::size_t>& indices,
                         std::span<const double> gradients,
                         std::span<const double> hessians, Rng& rng,
                         const FeatureBinner* binner) {
  CORDIAL_CHECK_MSG(!indices.empty(), "cannot fit a tree on zero samples");
  CORDIAL_CHECK_MSG(gradients.size() == hessians.size(),
                    "gradient/hessian size mismatch");
  CORDIAL_CHECK_MSG((options_.max_bins > 0) == (binner != nullptr),
                    "binner must be supplied iff max_bins > 0");
  nodes_.clear();
  importance_.assign(data.num_features(), 0.0);

  struct Pending {
    std::int32_t node_id;
    std::vector<std::size_t> indices;
    int depth;
    SplitResult split;
  };

  auto leaf_value_of = [&](const std::vector<std::size_t>& idx) {
    GradSums s;
    for (std::size_t i : idx) {
      s.g += gradients[i];
      s.h += hessians[i];
    }
    return LeafValue(s, options_.lambda);
  };

  auto can_expand = [&](const Pending& p) {
    if (options_.max_depth > 0 && p.depth >= options_.max_depth) return false;
    if (p.indices.size() < 2 * options_.min_samples_leaf) return false;
    return true;
  };

  // Root.
  nodes_.emplace_back();
  Pending root{0, indices, 0, {}};
  nodes_[0].value = leaf_value_of(root.indices);
  if (can_expand(root)) {
    root.split = FindBestSplit(data, root.indices, gradients, hessians, rng, binner);
  }

  // Best-first expansion; with max_leaves == 0 every positive-gain node is
  // expanded, which makes the order irrelevant and the result identical to
  // classic level-wise growth.
  auto cmp = [](const Pending& a, const Pending& b) {
    return a.split.gain < b.split.gain;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(cmp)> heap(cmp);
  if (root.split.found) heap.push(std::move(root));

  std::size_t leaves = 1;
  const std::size_t max_leaves =
      options_.max_leaves > 0 ? static_cast<std::size_t>(options_.max_leaves)
                              : std::numeric_limits<std::size_t>::max();

  while (!heap.empty() && leaves < max_leaves) {
    Pending p = heap.top();
    heap.pop();
    const auto f = static_cast<std::size_t>(p.split.feature);

    std::vector<std::size_t> left_idx, right_idx;
    for (std::size_t i : p.indices) {
      (data.at(i, f) <= p.split.threshold ? left_idx : right_idx).push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) continue;  // degenerate

    importance_[f] += p.split.gain;
    Node& parent = nodes_[static_cast<std::size_t>(p.node_id)];
    parent.feature = p.split.feature;
    parent.threshold = p.split.threshold;
    const auto left_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    const auto right_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(p.node_id)].left = left_id;
    nodes_[static_cast<std::size_t>(p.node_id)].right = right_id;
    nodes_[static_cast<std::size_t>(left_id)].value = leaf_value_of(left_idx);
    nodes_[static_cast<std::size_t>(right_id)].value = leaf_value_of(right_idx);
    ++leaves;  // one leaf became two

    Pending lp{left_id, std::move(left_idx), p.depth + 1, {}};
    if (can_expand(lp)) {
      lp.split = FindBestSplit(data, lp.indices, gradients, hessians, rng, binner);
      if (lp.split.found) heap.push(std::move(lp));
    }
    Pending rp{right_id, std::move(right_idx), p.depth + 1, {}};
    if (can_expand(rp)) {
      rp.split = FindBestSplit(data, rp.indices, gradients, hessians, rng, binner);
      if (rp.split.found) heap.push(std::move(rp));
    }
  }
}

double RegressionTree::Predict(std::span<const double> features) const {
  CORDIAL_CHECK_MSG(!nodes_.empty(), "tree not fitted");
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const Node& n = nodes_[node];
    const double v = features[static_cast<std::size_t>(n.feature)];
    node = static_cast<std::size_t>(v <= n.threshold ? n.left : n.right);
  }
  return nodes_[node].value;
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t leaves = 0;
  for (const Node& n : nodes_) {
    if (n.feature < 0) ++leaves;
  }
  return leaves;
}

// ---------------------------------------------------------- serialization

namespace {

void WriteDouble(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

double ReadDouble(std::istream& in) {
  double v = 0.0;
  if (!(in >> v)) throw ParseError("tree: malformed double");
  return v;
}

long ReadLong(std::istream& in) {
  long v = 0;
  if (!(in >> v)) throw ParseError("tree: malformed integer");
  return v;
}

void ExpectToken(std::istream& in, const char* token) {
  std::string word;
  if (!(in >> word) || word != token) {
    throw ParseError(std::string("tree: expected token '") + token + "'");
  }
}

}  // namespace

void ClassificationTree::Serialize(std::ostream& out) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  out << "classification_tree v1\n"
      << "classes " << num_classes_ << " nodes " << nodes_.size()
      << " importance " << importance_.size() << "\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    out << n.feature << ' ';
    WriteDouble(out, n.threshold);
    if (n.feature < 0) {
      out << " -1 -1";
      const std::size_t first = static_cast<std::size_t>(n.right) * k;
      for (std::size_t c = 0; c < k; ++c) {
        out << ' ';
        WriteDouble(out, leaf_proba_[first + c]);
      }
    } else {
      out << ' ' << i + 1 << ' ' << n.right;
    }
    out << '\n';
  }
  for (double v : importance_) {
    WriteDouble(out, v);
    out << '\n';
  }
}

ClassificationTree ClassificationTree::Deserialize(std::istream& in,
                                                   std::size_t num_features) {
  ExpectToken(in, "classification_tree");
  ExpectToken(in, "v1");
  ExpectToken(in, "classes");
  ClassificationTree tree;
  const long classes = ReadLong(in);
  if (classes < 2 || classes > std::numeric_limits<std::int32_t>::max()) {
    throw ParseError("tree: bad class count");
  }
  tree.num_classes_ = static_cast<int>(classes);
  ExpectToken(in, "nodes");
  const long n_nodes = ReadLong(in);
  if (n_nodes < 1 || n_nodes > std::numeric_limits<std::int32_t>::max()) {
    throw ParseError("tree: bad node count");
  }
  ExpectToken(in, "importance");
  if (ReadLong(in) != static_cast<long>(num_features)) {
    throw ParseError("tree: importance count differs from the model's " +
                     std::to_string(num_features) + " features");
  }
  // Everything the prediction walk relies on: a split's feature is one of
  // the model's, its left child is the next node and its right child comes
  // after that, so every walk moves forward and ends on a leaf.
  for (long i = 0; i < n_nodes; ++i) {
    const long feature = ReadLong(in);
    const double threshold = ReadDouble(in);
    const long left = ReadLong(in);
    const long right = ReadLong(in);
    auto fail = [&](const std::string& what) {
      throw ParseError("tree: node " + std::to_string(i) + " " + what);
    };
    if (feature == -1) {
      if (left != -1 || right != -1) fail("is a leaf with children");
      tree.nodes_.push_back(
          {threshold, -1,
           static_cast<std::int32_t>(tree.leaf_proba_.size() /
                                     static_cast<std::size_t>(classes))});
      for (long c = 0; c < classes; ++c) {
        tree.leaf_proba_.push_back(ReadDouble(in));
      }
      continue;
    }
    if (feature < 0 || static_cast<std::size_t>(feature) >= num_features) {
      fail("splits on feature " + std::to_string(feature) + " of " +
           std::to_string(num_features));
    }
    if (left != i + 1 || right <= i + 1 || right >= n_nodes) {
      fail("is not in preorder (children " + std::to_string(left) + ", " +
           std::to_string(right) + ")");
    }
    tree.nodes_.push_back({threshold, static_cast<std::int32_t>(feature),
                           static_cast<std::int32_t>(right)});
  }
  tree.importance_.resize(num_features);
  for (double& v : tree.importance_) v = ReadDouble(in);
  return tree;
}

void RegressionTree::Serialize(std::ostream& out) const {
  out << "regression_tree v1\n"
      << "nodes " << nodes_.size() << " importance " << importance_.size()
      << "\n";
  for (const Node& n : nodes_) {
    out << n.feature << ' ';
    WriteDouble(out, n.threshold);
    out << ' ' << n.left << ' ' << n.right << ' ';
    WriteDouble(out, n.value);
    out << '\n';
  }
  for (double v : importance_) {
    WriteDouble(out, v);
    out << '\n';
  }
}

RegressionTree RegressionTree::Deserialize(std::istream& in,
                                           std::size_t num_features) {
  ExpectToken(in, "regression_tree");
  ExpectToken(in, "v1");
  ExpectToken(in, "nodes");
  RegressionTree tree;
  const long n_nodes = ReadLong(in);
  if (n_nodes < 1 || n_nodes > std::numeric_limits<std::int32_t>::max()) {
    throw ParseError("tree: bad node count");
  }
  ExpectToken(in, "importance");
  if (ReadLong(in) != static_cast<long>(num_features)) {
    throw ParseError("tree: importance count differs from the model's " +
                     std::to_string(num_features) + " features");
  }
  // Fit appends both children after their parent, so a walk that only
  // moves to higher node numbers is all a valid tree needs.
  for (long i = 0; i < n_nodes; ++i) {
    Node node;
    const long feature = ReadLong(in);
    node.threshold = ReadDouble(in);
    const long left = ReadLong(in);
    const long right = ReadLong(in);
    node.value = ReadDouble(in);
    if (feature >= 0) {
      if (static_cast<std::size_t>(feature) >= num_features) {
        throw ParseError("tree: node " + std::to_string(i) +
                         " splits on feature " + std::to_string(feature) +
                         " of " + std::to_string(num_features));
      }
      if (left <= i || left >= n_nodes || right <= i || right >= n_nodes) {
        throw ParseError("tree: node " + std::to_string(i) +
                         " has a child out of order");
      }
      node.feature = static_cast<int>(feature);
      node.left = static_cast<std::int32_t>(left);
      node.right = static_cast<std::int32_t>(right);
    }
    tree.nodes_.push_back(node);
  }
  tree.importance_.resize(num_features);
  for (double& v : tree.importance_) v = ReadDouble(in);
  return tree;
}

}  // namespace cordial::ml
