// Engineering micro-benchmarks (google-benchmark): throughput of the hot
// paths — RNG, ECC codec, address packing, log grouping, feature
// extraction, forest fitting, model inference and fleet generation. Not a
// paper table; validates that the library is fast enough for fleet-scale
// use.
#include <benchmark/benchmark.h>

#include "analysis/labeler.hpp"
#include "core/crossrow.hpp"
#include "core/features.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/address.hpp"
#include "hbm/ecc.hpp"
#include "ml/classifier.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;

const trace::GeneratedFleet& SharedFleet() {
  static const trace::GeneratedFleet fleet = [] {
    hbm::TopologyConfig topology;
    trace::CalibrationProfile profile;
    profile.scale = 0.1;
    trace::FleetGenerator generator(topology, profile);
    return generator.Generate(123);
  }();
  return fleet;
}

const std::vector<trace::BankHistory>& SharedBanks() {
  static const std::vector<trace::BankHistory> banks = [] {
    hbm::AddressCodec codec(SharedFleet().topology);
    return SharedFleet().log.GroupByBank(codec);
  }();
  return banks;
}

const trace::BankHistory& FirstUerBank() {
  for (const auto& bank : SharedBanks()) {
    std::size_t uers = 0;
    for (const auto& e : bank.events) {
      uers += e.type == hbm::ErrorType::kUer;
    }
    if (uers >= 3) return bank;
  }
  throw std::runtime_error("no UER bank in shared fleet");
}

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Poisson(4.0));
  }
}
BENCHMARK(BM_RngPoisson);

void BM_SecDedEncode(benchmark::State& state) {
  std::uint64_t data = 0x0123456789abcdefULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbm::SecDedCodec::Encode(data));
    ++data;
  }
}
BENCHMARK(BM_SecDedEncode);

void BM_SecDedDecodeCorrupted(benchmark::State& state) {
  const auto word = hbm::SecDedCodec::Encode(0xdeadbeefULL);
  int bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbm::SecDedCodec::Decode(hbm::SecDedCodec::FlipBit(word, bit)));
    bit = (bit + 1) % 72;
  }
}
BENCHMARK(BM_SecDedDecodeCorrupted);

void BM_AddressPackUnpack(benchmark::State& state) {
  const hbm::TopologyConfig topology;
  const hbm::AddressCodec codec(topology);
  hbm::DeviceAddress a;
  a.node = 7;
  a.row = 12345;
  for (auto _ : state) {
    const std::uint64_t key = codec.Pack(a);
    benchmark::DoNotOptimize(codec.Unpack(key));
    a.row = (a.row + 1) % topology.rows_per_bank;
  }
}
BENCHMARK(BM_AddressPackUnpack);

void BM_GroupByBank(benchmark::State& state) {
  hbm::AddressCodec codec(SharedFleet().topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SharedFleet().log.GroupByBank(codec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(SharedFleet().log.size()));
}
BENCHMARK(BM_GroupByBank);

void BM_ClassificationFeatures(benchmark::State& state) {
  const core::ClassificationFeatureExtractor extractor(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(bank));
  }
}
BENCHMARK(BM_ClassificationFeatures);

void BM_CrossRowFeatures(benchmark::State& state) {
  const core::CrossRowFeatureExtractor extractor(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  double anchor_t = 0.0;
  std::uint32_t anchor_row = 0;
  for (const auto& e : bank.events) {
    if (e.type == hbm::ErrorType::kUer) {
      anchor_t = e.time_s;
      anchor_row = e.address.row;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(bank, anchor_t, anchor_row, 8));
  }
}
BENCHMARK(BM_CrossRowFeatures);

void BM_RuleLabeler(benchmark::State& state) {
  const analysis::PatternLabeler labeler(SharedFleet().topology);
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeler.LabelShape(bank));
  }
}
BENCHMARK(BM_RuleLabeler);

void BM_ForestPredict(benchmark::State& state) {
  static const auto setup = [] {
    analysis::PatternLabeler labeler(SharedFleet().topology);
    std::vector<core::LabelledBank> labelled;
    for (const auto& bank : SharedBanks()) {
      if (!bank.HasUer()) continue;
      labelled.push_back(core::LabelledBank{&bank, labeler.LabelClass(bank)});
    }
    auto classifier = std::make_shared<core::PatternClassifier>(
        SharedFleet().topology, ml::LearnerKind::kRandomForest);
    Rng rng(3);
    classifier->Train(labelled, rng);
    return classifier;
  }();
  const trace::BankHistory& bank = FirstUerBank();
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup->Classify(bank));
  }
}
BENCHMARK(BM_ForestPredict);

void BM_RandomForestFit(benchmark::State& state) {
  // The single-row cross-row predictor's training set, the largest of the
  // three fits in a train round, fitted with the default 100-tree forest.
  static const ml::Dataset data = [] {
    analysis::PatternLabeler labeler(SharedFleet().topology);
    std::vector<const trace::BankHistory*> singles;
    for (const auto& bank : SharedBanks()) {
      if (bank.HasUer() && labeler.LabelClass(bank) ==
                               hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      }
    }
    const core::CrossRowPredictor predictor(SharedFleet().topology,
                                            ml::LearnerKind::kRandomForest);
    return predictor.BuildDataset(singles);
  }();
  for (auto _ : state) {
    auto forest = ml::MakeRandomForest();
    Rng rng(5);
    forest->Fit(data, rng);
    benchmark::DoNotOptimize(forest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RandomForestFit)->Unit(benchmark::kMillisecond);

void BM_FleetGeneration(benchmark::State& state) {
  hbm::TopologyConfig topology;
  trace::CalibrationProfile profile;
  profile.scale = 0.02;
  trace::FleetGenerator generator(topology, profile);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(++seed));
  }
}
BENCHMARK(BM_FleetGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
