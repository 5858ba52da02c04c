// The tree learner's split search against the plain per-node sort.
//
// ReferenceTree below is the textbook CART builder the library used to be:
// at every node it sorts (value, label) pairs for each sampled feature and
// scans the boundaries between distinct values. The library's learner scans
// ranks from a per-fit rank table instead (a counting histogram or a sort
// of packed integer keys) and stores flat preorder nodes, so the two must
// agree byte for byte: same splits, same thresholds, same leaves, same RNG
// consumption, same text. The randomized cases cover ties, constant
// features, infinities, 2 and 3 classes, leaf floors, depth limits and
// feature subsampling; the digests pin the three deployed models of a small
// fleet to the bytes the per-node-sort learner wrote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/rng.hpp"
#include "core/crossrow.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/address.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "support/sha256.hpp"
#include "trace/fleet.hpp"

namespace cordial::ml {
namespace {

void WriteDouble(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

/// Per-node-sort CART with the same options, RNG use, Gini arithmetic,
/// tie-breaking and text format as ClassificationTree.
class ReferenceTree {
 public:
  explicit ReferenceTree(ClassificationTreeOptions options)
      : options_(options) {}

  void Fit(const Dataset& data, std::vector<std::size_t> indices, Rng& rng) {
    k_ = static_cast<std::size_t>(data.num_classes());
    importance_.assign(data.num_features(), 0.0);
    Build(data, indices, 0, rng);
  }

  std::vector<double> PredictProba(std::span<const double> x) const {
    std::size_t i = 0;
    while (nodes_[i].feature >= 0) {
      const Node& n = nodes_[i];
      i = static_cast<std::size_t>(
          x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                : n.right);
    }
    return nodes_[i].proba;
  }

  void Serialize(std::ostream& out) const {
    out << "classification_tree v1\nclasses " << k_ << " nodes "
        << nodes_.size() << " importance " << importance_.size() << "\n";
    for (const Node& n : nodes_) {
      out << n.feature << ' ';
      WriteDouble(out, n.threshold);
      out << ' ' << n.left << ' ' << n.right;
      for (double p : n.proba) {
        out << ' ';
        WriteDouble(out, p);
      }
      out << '\n';
    }
    for (double v : importance_) {
      WriteDouble(out, v);
      out << '\n';
    }
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> proba;
  };

  int Build(const Dataset& data, std::vector<std::size_t>& indices, int depth,
            Rng& rng) {
    std::vector<double> counts(k_, 0.0);
    for (std::size_t i : indices) {
      counts[static_cast<std::size_t>(data.label(i))] += 1.0;
    }
    const auto total = static_cast<double>(indices.size());
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += c * c;
    const double parent_impurity = 1.0 - sum_sq / (total * total);
    auto make_leaf = [&] {
      Node leaf;
      for (double c : counts) leaf.proba.push_back(c / total);
      nodes_.push_back(std::move(leaf));
      return static_cast<int>(nodes_.size() - 1);
    };
    const bool pure = std::any_of(counts.begin(), counts.end(),
                                  [&](double c) { return c == total; });
    if (pure || indices.size() < options_.min_samples_split ||
        (options_.max_depth > 0 && depth >= options_.max_depth)) {
      return make_leaf();
    }

    const std::size_t d = data.num_features();
    std::vector<std::size_t> feats;
    if (options_.max_features == 0 || options_.max_features >= d) {
      for (std::size_t f = 0; f < d; ++f) feats.push_back(f);
    } else {
      feats = rng.SampleWithoutReplacement(d, options_.max_features);
    }
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_impurity = parent_impurity - options_.min_impurity_decrease;
    for (std::size_t f : feats) {
      std::vector<std::pair<double, int>> sorted;
      for (std::size_t i : indices) sorted.emplace_back(data.at(i, f), data.label(i));
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> left(k_, 0.0);
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        left[static_cast<std::size_t>(sorted[i].second)] += 1.0;
        if (sorted[i].first == sorted[i + 1].first) continue;
        const auto n_left = static_cast<double>(i + 1);
        const double n_right = total - n_left;
        const auto floor = static_cast<double>(options_.min_samples_leaf);
        if (n_left < floor || n_right < floor) continue;
        double right_sq = 0.0, left_sq = 0.0;
        for (std::size_t c = 0; c < k_; ++c) {
          left_sq += left[c] * left[c];
          const double rc = counts[c] - left[c];
          right_sq += rc * rc;
        }
        const double weighted = (n_left * (1.0 - left_sq / (n_left * n_left)) +
                                 n_right * (1.0 - right_sq / (n_right * n_right))) /
                                total;
        if (weighted < best_impurity) {
          best_impurity = weighted;
          best_feature = static_cast<int>(f);
          const double a = sorted[i].first, b = sorted[i + 1].first;
          best_threshold =
              std::isfinite(a + b) ? 0.5 * (a + b) : 0.5 * a + 0.5 * b;
        }
      }
    }
    if (best_feature < 0) return make_leaf();

    std::vector<std::size_t> left_idx, right_idx;
    for (std::size_t i : indices) {
      (data.at(i, static_cast<std::size_t>(best_feature)) <= best_threshold
           ? left_idx
           : right_idx)
          .push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) return make_leaf();
    importance_[static_cast<std::size_t>(best_feature)] +=
        (parent_impurity - best_impurity) * total;
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(id)].feature = best_feature;
    nodes_[static_cast<std::size_t>(id)].threshold = best_threshold;
    const int left = Build(data, left_idx, depth + 1, rng);
    const int right = Build(data, right_idx, depth + 1, rng);
    nodes_[static_cast<std::size_t>(id)].left = left;
    nodes_[static_cast<std::size_t>(id)].right = right;
    return id;
  }

  ClassificationTreeOptions options_;
  std::size_t k_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

/// A dataset drawn from `rng` with the shapes that stress a rank-based
/// scan: few distinct integers, constant columns, heavy ties, signed zeros,
/// infinities and plain continuous values, with labels that depend on the
/// first column so trees grow past the root.
Dataset RandomDataset(Rng& rng, std::size_t rows, std::size_t features,
                      int classes) {
  std::vector<int> kinds(features);
  for (int& kind : kinds) kind = static_cast<int>(rng.UniformU64(6));
  Dataset data(features, classes);
  std::vector<double> x(features);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t f = 0; f < features; ++f) {
      switch (kinds[f]) {
        case 0:  // few distinct integers
          x[f] = static_cast<double>(rng.UniformU64(1 + f % 4));
          break;
        case 1:  // constant
          x[f] = 7.0;
          break;
        case 2:  // continuous
          x[f] = rng.Normal(0.0, 1.0);
          break;
        case 3:  // heavy ties on a coarse grid
          x[f] = std::round(rng.Normal(0.0, 2.0) * 2.0) / 2.0;
          break;
        case 4: {  // signed zeros and infinities
          const double pool[] = {-0.0, 0.0, 1.0,
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()};
          x[f] = pool[rng.UniformU64(5)];
          break;
        }
        default:  // wide integer range: more distinct values than a node
          x[f] = static_cast<double>(rng.UniformU64(1000));
      }
    }
    int label = static_cast<int>(rng.UniformU64(static_cast<std::uint64_t>(classes)));
    if (rng.Bernoulli(0.7)) {
      label = x[0] > 0.5 ? classes - 1 : 0;
    }
    data.AddRow(x, label);
  }
  return data;
}

ClassificationTreeOptions RandomOptions(Rng& rng, std::size_t features) {
  ClassificationTreeOptions options;
  const int depths[] = {0, 2, 5, 24};
  options.max_depth = depths[rng.UniformU64(4)];
  options.min_samples_leaf = rng.Bernoulli(0.5) ? 1 : 5;
  options.min_samples_split = rng.Bernoulli(0.8) ? 2 : 12;
  options.max_features =
      rng.Bernoulli(0.5)
          ? 0
          : static_cast<std::size_t>(
                std::floor(std::sqrt(static_cast<double>(features))));
  return options;
}

template <typename Tree>
std::string Text(const Tree& tree) {
  std::ostringstream out;
  tree.Serialize(out);
  return out.str();
}

/// Rows of `data` plus probes between and beyond them.
std::vector<std::vector<double>> Probes(const Dataset& data, Rng& rng) {
  std::vector<std::vector<double>> probes;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.row(i);
    probes.emplace_back(row.begin(), row.end());
  }
  for (int p = 0; p < 20; ++p) {
    std::vector<double> x(data.num_features());
    for (double& v : x) v = rng.Normal(0.0, 400.0);
    probes.push_back(std::move(x));
  }
  return probes;
}

TEST(ForestSplit, TreesMatchThePerNodeSortOnRandomData) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng gen(seed);
    const std::size_t features = 1 + gen.UniformU64(7);
    const int classes = gen.Bernoulli(0.5) ? 2 : 3;
    const std::size_t rows = 1 + gen.UniformU64(gen.Bernoulli(0.2) ? 600 : 80);
    const Dataset data = RandomDataset(gen, rows, features, classes);
    const ClassificationTreeOptions options = RandomOptions(gen, features);
    std::vector<std::size_t> indices(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      indices[i] = gen.Bernoulli(0.5) ? gen.UniformU64(rows) : i;
    }

    ReferenceTree reference(options);
    Rng reference_rng(seed * 7919);
    reference.Fit(data, indices, reference_rng);
    ClassificationTree tree(options);
    Rng tree_rng(seed * 7919);
    tree.Fit(data, indices, tree_rng);

    ASSERT_EQ(Text(tree), Text(reference)) << "seed " << seed;
    EXPECT_EQ(tree_rng.Next(), reference_rng.Next()) << "seed " << seed;
    for (const std::vector<double>& x : Probes(data, gen)) {
      ASSERT_EQ(tree.PredictProba(x), reference.PredictProba(x))
          << "seed " << seed;
    }
  }
}

TEST(ForestSplit, LargeNodesMatchAcrossTheParallelScan) {
  // Nodes of >= 2048 samples scan their features in parallel; the winner
  // must not depend on it.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng gen(seed);
    const Dataset data = RandomDataset(gen, 5000, 6, 3);
    std::vector<std::size_t> indices(data.size());
    for (std::size_t& i : indices) i = gen.UniformU64(data.size());
    ClassificationTreeOptions options;
    options.min_samples_leaf = seed == 1 ? 1 : 5;
    ReferenceTree reference(options);
    Rng reference_rng(seed);
    reference.Fit(data, indices, reference_rng);
    ClassificationTree tree(options);
    Rng tree_rng(seed);
    tree.Fit(data, indices, tree_rng);
    ASSERT_EQ(Text(tree), Text(reference)) << "seed " << seed;
  }
}

TEST(ForestSplit, ForestsMatchThePerNodeSortOnRandomData) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng gen(seed + 1000);
    const std::size_t features = 1 + gen.UniformU64(9);
    const int classes = gen.Bernoulli(0.5) ? 2 : 3;
    const Dataset data =
        RandomDataset(gen, 2 + gen.UniformU64(300), features, classes);
    RandomForestOptions options;
    options.n_trees = 1 + static_cast<int>(gen.UniformU64(6));
    options.min_samples_leaf = gen.Bernoulli(0.5) ? 1 : 5;
    options.max_depth = gen.Bernoulli(0.5) ? 24 : 3;
    options.bootstrap = gen.Bernoulli(0.8);
    options.max_features = gen.Bernoulli(0.5) ? 0 : features;
    RandomForestClassifier forest(options);
    Rng forest_rng(seed);
    forest.Fit(data, forest_rng);

    // The forest's own recipe: one draw seeds a forker, tree t bootstraps
    // from fork t and grows with sqrt(d) features per split by default.
    ClassificationTreeOptions tree_options;
    tree_options.max_depth = options.max_depth;
    tree_options.min_samples_leaf = options.min_samples_leaf;
    tree_options.max_features =
        options.max_features > 0
            ? options.max_features
            : static_cast<std::size_t>(std::max(
                  1.0, std::floor(std::sqrt(static_cast<double>(features)))));
    Rng reference_rng(seed);
    const Rng forker(reference_rng.Next());
    std::ostringstream expected;
    expected << "random_forest v1\nclasses " << classes << " trees "
             << options.n_trees << "\n";
    std::vector<ReferenceTree> trees;
    for (int t = 0; t < options.n_trees; ++t) {
      Rng tree_rng = forker.Fork(static_cast<std::uint64_t>(t));
      std::vector<std::size_t> indices(data.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        indices[i] = options.bootstrap ? tree_rng.UniformU64(data.size()) : i;
      }
      trees.emplace_back(tree_options);
      trees.back().Fit(data, indices, tree_rng);
      trees.back().Serialize(expected);
    }
    ASSERT_EQ(Text(forest), expected.str()) << "seed " << seed;

    for (const std::vector<double>& x : Probes(data, gen)) {
      std::vector<double> avg(static_cast<std::size_t>(classes), 0.0);
      for (const ReferenceTree& tree : trees) {
        const std::vector<double> p = tree.PredictProba(x);
        for (std::size_t c = 0; c < p.size(); ++c) avg[c] += p[c];
      }
      for (double& p : avg) p /= static_cast<double>(trees.size());
      ASSERT_EQ(forest.PredictProba(x), avg) << "seed " << seed;
    }
  }
}

std::string SavedModel(const auto& model) {
  std::ostringstream out;
  model.SaveModel(out);
  return out.str();
}

TEST(ForestSplit, DeployedModelsMatchRecordedDigests) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = 0.05;
  const trace::GeneratedFleet fleet =
      trace::FleetGenerator(topology, profile).Generate(11);
  const hbm::AddressCodec codec(topology);
  const std::vector<trace::BankHistory> banks = fleet.log.GroupByBank(codec);
  const analysis::PatternLabeler labeler(topology);
  std::vector<core::LabelledBank> labelled;
  std::vector<const trace::BankHistory*> singles, doubles;
  for (const trace::BankHistory& bank : banks) {
    if (!bank.HasUer()) continue;
    const hbm::FailureClass cls = labeler.LabelClass(bank);
    labelled.push_back(core::LabelledBank{&bank, cls});
    if (cls == hbm::FailureClass::kSingleRowClustering) singles.push_back(&bank);
    if (cls == hbm::FailureClass::kDoubleRowClustering) doubles.push_back(&bank);
  }
  ASSERT_FALSE(singles.empty());
  ASSERT_FALSE(doubles.empty());

  // Trained as `cordial_cli train` does: one stream, three fits. The
  // digests were recorded from the per-node-sort learner.
  Rng rng(20250623);
  core::PatternClassifier classifier(topology, LearnerKind::kRandomForest);
  classifier.Train(labelled, rng);
  core::CrossRowPredictor single(topology, LearnerKind::kRandomForest);
  single.Train(singles, rng);
  core::CrossRowPredictor dual(topology, LearnerKind::kRandomForest);
  dual.Train(doubles, rng);

  EXPECT_EQ(test_support::Sha256Hex(SavedModel(classifier)),
            "86aa3fd50c3f96d3d06e4f50761ae070daa69a746ef1d3e8c4f7fbd3662027ab");
  EXPECT_EQ(test_support::Sha256Hex(SavedModel(single)),
            "b1facd0c5b8c9e7e03ef34eeec76f2aa5fc13208e5d215878887b8011c84c02d");
  EXPECT_EQ(test_support::Sha256Hex(SavedModel(dual)),
            "fff62f0e4fd7c3453f338331506c169454b7b3ee64fb5f81d8ce88c8120b57d6");
}

}  // namespace
}  // namespace cordial::ml
