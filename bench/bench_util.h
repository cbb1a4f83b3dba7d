#pragma once

// Shared helpers for the reproduction bench binaries. Every binary prints
// its paper table/figure as an aligned console table, mirrors it to
// bench_out/<name>.csv, and then (when built with google-benchmark hooks)
// runs the micro-benchmarks registered for that figure.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <streambuf>
#include <string>

#include "c2b/common/table.h"

namespace c2b::bench {

/// Print a reproduction table with a titled banner and mirror it to CSV.
inline void emit(const std::string& title, const Table& table, const std::string& csv_name) {
  std::printf("\n=== %s ===\n%s", title.c_str(), table.to_string().c_str());
  const std::string path = "bench_out/" + csv_name + ".csv";
  if (table.write_csv(path)) std::printf("[csv] %s\n", path.c_str());
}

/// std::cerr filter for run_benchmarks: forwards everything except a first
/// line reporting that no benchmark matched.
class EmptyMatchFilter : public std::streambuf {
 public:
  explicit EmptyMatchFilter(std::streambuf* sink) : sink_(sink) {}
  /// Writes out a first line still held back when output ended mid-line.
  void finish() {
    if (!passing_)
      sink_->sputn(first_line_.data(), static_cast<std::streamsize>(first_line_.size()));
    passing_ = true;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    if (passing_) return sink_->sputc(traits_type::to_char_type(ch));
    first_line_ += traits_type::to_char_type(ch);
    if (first_line_.back() == '\n') {
      if (first_line_.rfind("Failed to match any benchmarks", 0) == 0) first_line_.clear();
      finish();
    }
    return ch;
  }
  int sync() override { return sink_->pubsync(); }

 private:
  std::streambuf* sink_;
  std::string first_line_;
  bool passing_ = false;
};

/// Standard main body: print the figure first, then run any registered
/// google-benchmark micro-benchmarks (skipped cleanly when none).
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The library has no registry query: it reports an empty match as a
  // "Failed to match any benchmarks" line on std::cerr. Under the default
  // filter every registered benchmark matches, so there that line only
  // means the binary registers none, and it is dropped.
  const std::string filter = benchmark::GetBenchmarkFilter();
  if (!filter.empty() && filter != "." && filter != "all") {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    EmptyMatchFilter filtered(std::cerr.rdbuf());
    std::streambuf* const original = std::cerr.rdbuf(&filtered);
    benchmark::RunSpecifiedBenchmarks();
    std::cerr.rdbuf(original);
    filtered.finish();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace c2b::bench
