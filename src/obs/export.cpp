#include "c2b/obs/export.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "c2b/common/log.h"
#include "c2b/obs/journal.h"

namespace c2b::obs {
namespace {

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// JSON has no Inf/NaN literals; metrics should never produce them, but a
/// malformed dump must not poison the whole file.
void json_number(std::ostringstream& os, double value) {
  if (std::isfinite(value)) {
    os << value;
  } else {
    os << "null";
  }
}

}  // namespace

Table metrics_table(const Registry& registry) {
  Table table({"metric", "kind", "count", "value", "mean", "stddev", "min", "max"}, 9);
  for (const MetricSample& s : registry.snapshot()) {
    table.add_row({s.name, std::string(kind_name(s.kind)),
                   static_cast<std::int64_t>(s.count), s.value, s.mean, s.stddev, s.min,
                   s.max});
  }
  return table;
}

bool write_metrics_csv(const std::string& path, const Registry& registry) {
  return metrics_table(registry).write_csv(path);
}

std::string metrics_json(const Registry& registry) {
  const std::vector<MetricSample> samples = registry.snapshot();
  std::ostringstream os;
  os.precision(17);

  auto emit_section = [&](const char* section, MetricSample::Kind kind, auto&& body) {
    os << '"' << section << "\":{";
    bool first = true;
    for (const MetricSample& s : samples) {
      if (s.kind != kind) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(s.name) << "\":";
      body(s);
    }
    os << '}';
  };

  os << '{';
  emit_section("counters", MetricSample::Kind::kCounter,
               [&](const MetricSample& s) { os << s.count; });
  os << ',';
  emit_section("gauges", MetricSample::Kind::kGauge,
               [&](const MetricSample& s) { json_number(os, s.value); });
  os << ',';
  emit_section("histograms", MetricSample::Kind::kHistogram, [&](const MetricSample& s) {
    os << "{\"count\":" << s.count << ",\"sum\":";
    json_number(os, s.value);
    os << ",\"mean\":";
    json_number(os, s.mean);
    os << ",\"stddev\":";
    json_number(os, s.stddev);
    os << ",\"min\":";
    json_number(os, s.min);
    os << ",\"max\":";
    json_number(os, s.max);
    os << ",\"p50\":";
    json_number(os, s.p50);
    os << ",\"p90\":";
    json_number(os, s.p90);
    os << ",\"p99\":";
    json_number(os, s.p99);
    os << ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [low, count] : s.buckets) {
      if (!first_bucket) os << ',';
      first_bucket = false;
      os << "{\"low\":";
      json_number(os, low);
      os << ",\"count\":" << count << '}';
    }
    os << "]}";
  });
  os << '}';
  return os.str();
}

bool write_metrics_json(const std::string& path, const Registry& registry) {
  std::error_code ec;
  const std::filesystem::path file(path);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path(), ec);
  std::ofstream out(file);
  if (!out) {
    C2B_LOG(LogLevel::kWarn, "obs") << "cannot write metrics to " << path;
    return false;
  }
  out << metrics_json(registry);
  return static_cast<bool>(out);
}

}  // namespace c2b::obs
