#include "core/pattern_classifier.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "common/parallel.hpp"
#include "core/persist.hpp"

namespace cordial::core {

PatternClassifier::PatternClassifier(const hbm::TopologyConfig& topology,
                                     ml::LearnerKind kind,
                                     std::size_t max_uers)
    : extractor_(topology, max_uers), kind_(kind) {
  model_ = ml::MakeClassifier(kind);
}

ml::Dataset PatternClassifier::BuildDataset(
    const std::vector<LabelledBank>& banks) const {
  ml::Dataset data(extractor_.num_features(), hbm::kNumFailureClasses,
                   extractor_.feature_names());
  for (const LabelledBank& lb : banks) {
    CORDIAL_CHECK_MSG(lb.bank != nullptr, "null bank in labelled set");
    data.AddRow(extractor_.Extract(*lb.bank), static_cast<int>(lb.label));
  }
  return data;
}

void PatternClassifier::Train(const std::vector<LabelledBank>& banks,
                              Rng& rng) {
  CORDIAL_CHECK_MSG(!banks.empty(), "cannot train on zero banks");
  const ml::Dataset data = BuildDataset(banks);
  model_->Fit(data, rng);
  trained_ = true;
}

hbm::FailureClass PatternClassifier::Classify(
    const trace::BankHistory& bank) const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  return static_cast<hbm::FailureClass>(
      model_->Predict(extractor_.Extract(bank)));
}

std::vector<double> PatternClassifier::ClassifyProba(
    const trace::BankHistory& bank) const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  return model_->PredictProba(extractor_.Extract(bank));
}

hbm::FailureClass PatternClassifier::ClassifyProfile(
    const BankProfile& profile) const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  return static_cast<hbm::FailureClass>(
      model_->Predict(extractor_.ExtractFromProfile(profile)));
}

std::vector<double> PatternClassifier::ClassifyProbaProfile(
    const BankProfile& profile) const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  return model_->PredictProba(extractor_.ExtractFromProfile(profile));
}

ml::ConfusionMatrix PatternClassifier::Evaluate(
    const std::vector<LabelledBank>& banks) const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  // Classification is const per bank; predictions fan out and the matrix is
  // filled in bank order afterwards.
  const std::vector<int> predicted =
      ParallelMap<int>(banks.size(), [&](std::size_t i) {
        return static_cast<int>(Classify(*banks[i].bank));
      });
  ml::ConfusionMatrix cm(hbm::kNumFailureClasses);
  for (std::size_t i = 0; i < banks.size(); ++i) {
    cm.Add(static_cast<int>(banks[i].label), predicted[i]);
  }
  return cm;
}

void PatternClassifier::SaveModel(std::ostream& out) const {
  CORDIAL_CHECK_MSG(trained_, "cannot save an untrained classifier");
  std::ostringstream payload;
  payload << "features " << extractor_.num_features() << '\n';
  ml::SaveClassifier(*model_, payload);
  WriteFramed(out, kPatternModelMagic, kModelFrameVersion, payload.str());
}

void PatternClassifier::LoadModel(std::istream& in) {
  std::istringstream payload(
      ReadFramed(in, kPatternModelMagic, kModelFrameVersion));
  // A model trained against a different feature layout would not fail to
  // parse — it would silently read shifted columns and mispredict. Reject
  // it here, naming both counts.
  ExpectToken(payload, "features");
  const std::uint64_t saved = ReadU64Token(payload, "pattern model features");
  if (saved != extractor_.num_features()) {
    throw ParseError("pattern model: feature count mismatch (model has " +
                     std::to_string(saved) + ", extractor expects " +
                     std::to_string(extractor_.num_features()) + ")");
  }
  model_ = ml::LoadClassifier(payload, extractor_.num_features());
  trained_ = true;
}

PatternClassifier::PatternClassifier(const PatternClassifier& other)
    : extractor_(other.extractor_),
      kind_(other.kind_),
      model_(other.model_->Clone()),
      trained_(other.trained_) {}

std::vector<double> PatternClassifier::FeatureImportance() const {
  CORDIAL_CHECK_MSG(trained_, "classifier not trained");
  return model_->FeatureImportance();
}

}  // namespace cordial::core
