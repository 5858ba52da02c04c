// Measurement helpers shared by every perfbench workload: a monotonic
// clock, an in-memory span recorder, order statistics and a tiny JSON
// writer. Nothing here calls into the library under test.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Busy-wait for `ns` nanoseconds on the calling thread. The sensitivity
/// self-test uses it to inject a known slowdown from the benchmark's side.
inline void Spin(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (q in [0, 100]) of unsorted samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(q * static_cast<double>(samples.size()) / 100.0 - 1e-9);
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

/// The middle sample, or the mean of the two middle samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) / 2.0;
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it in one unit of work (a replay, a pass, a round) of
/// `unit_size` samples — the tail every timing metric reports. The value
/// is taken over all of `samples`, which pools the run's units, so the
/// percentile does not change with the number of units a run makes.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

inline Tail TailOf(const std::vector<double>& samples, std::size_t unit_size) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  Tail tail;
  tail.samples = samples.size();
  for (double q : kLadder) {
    const double beyond = static_cast<double>(unit_size) * (1.0 - q / 100.0);
    if (beyond >= 10.0 || q == 50.0) {
      tail.percentile = q;
      tail.value = Percentile(samples, q);
      return tail;
    }
  }
  return tail;
}

/// Spans recorded from the benchmark's own code around calls into the
/// library: name, start, end, parent span and a shared batch id. Kept in
/// memory and written out once the run ends. A disabled tracer records
/// nothing; every Scope then costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
    std::int64_t batch = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t batch = -1)
        : tracer_(tracer), id_(tracer.Open(name, batch)) {}
    ~Scope() { tracer_.Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Name the span after the call returns, when the call decides its kind.
    void Rename(const char* name) { tracer_.Rename(id_, name); }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  std::int64_t Open(const char* name, std::int64_t batch) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    if (batch < 0 && parent >= 0) batch = spans_[parent].batch;
    spans_.push_back(Span{name, NowNs(), 0, parent, batch});
    const std::int64_t id = static_cast<std::int64_t>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void Rename(std::int64_t id, const char* name) {
    if (id >= 0) spans_[id].name = name;
  }

  void Close(std::int64_t id) {
    if (id < 0) return;
    spans_[id].end = NowNs();
    stack_.pop_back();
  }

  /// One span per line: id,name,start_ns,end_ns,parent,batch.
  void WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,name,start_ns,end_ns,parent,batch\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.name << ',' << s.start << ',' << s.end << ','
          << s.parent << ',' << s.batch << '\n';
    }
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// Flat JSON object builder: numbers keep 17 significant digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(17);
    os << value;
    std::string text = os.str();
    if (!std::isfinite(value)) text = "null";
    fields_.emplace_back(key, text);
    return *this;
  }
  static std::string Quote(const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return quoted + '"';
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonObject& Bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
