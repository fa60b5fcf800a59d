#pragma once
// Shared reporting helpers for the experiment harness. Every bench binary
// regenerates one experiment row-set, named with its claim in the
// binary's header comment (the solver's sampling deviation from the paper
// is documented under "Probabilities" in src/core/README.md): it prints a
// human-readable table plus machine-parseable CSV lines prefixed "CSV,".
// A BenchReport additionally persists the rows as BENCH_<tag>.json in the
// working directory so successive PRs have a perf trajectory to diff
// against (see scripts/check.sh).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dp::bench {

inline void header(const std::string& experiment, const std::string& claim) {
  std::printf("==== %s ====\n%s\n\n", experiment.c_str(), claim.c_str());
}

inline void row_labels(const std::vector<std::string>& cols) {
  std::printf("CSV");
  for (const auto& c : cols) std::printf(",%s", c.c_str());
  std::printf("\n");
}

inline void row(const std::vector<double>& values) {
  std::printf("CSV");
  for (double v : values) std::printf(",%.6g", v);
  std::printf("\n");
}

/// Collects rows, mirrors them to the CSV stream, and writes
/// BENCH_<tag>.json on flush()/destruction. The JSON shape is
///   {"bench": tag, "columns": [...], "rows": [[...], ...]}
/// with every value a double, so downstream tooling needs no schema.
class BenchReport {
 public:
  BenchReport(std::string tag, std::vector<std::string> columns)
      : tag_(std::move(tag)), columns_(std::move(columns)) {
    row_labels(columns_);
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { flush(); }

  void add(const std::vector<double>& values) {
    row(values);
    rows_.push_back(values);
  }

  /// Write BENCH_<tag>.json; idempotent (later rows trigger a rewrite on
  /// the next flush).
  void flush() {
    if (flushed_rows_ == rows_.size()) return;
    const std::string path = "BENCH_" + tag_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // benches stay usable in read-only dirs
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"columns\": [",
                 tag_.c_str());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::fprintf(f, "%s\"%s\"", c == 0 ? "" : ", ", columns_[c].c_str());
    }
    std::fprintf(f, "],\n  \"rows\": [\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    [");
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        std::fprintf(f, "%s%.17g", c == 0 ? "" : ", ", rows_[r][c]);
      }
      std::fprintf(f, "]%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    flushed_rows_ = rows_.size();
  }

 private:
  std::string tag_;
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
  std::size_t flushed_rows_ = 0;
};

}  // namespace dp::bench
