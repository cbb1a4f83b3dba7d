#include "c2b/aps/request.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

constexpr unsigned kDse = static_cast<unsigned>(SweepCommand::kDse);
constexpr unsigned kAps = static_cast<unsigned>(SweepCommand::kAps);
constexpr double kFinite = std::numeric_limits<double>::max();
/// Instruction counts <= 10^12 keep IC0 * g(N) inside a uint64 for any
/// g(N) <= 10^6 (the largest preset g, N^1.5 at N = 32, is ~181).
constexpr double kMaxInstructions = 1e12;

#define C2B_SET(field, type) \
  [](SweepRequest& r, double v, const std::string&) { r.field = static_cast<type>(v); }

// clang-format off
const RequestParam kParams[] = {
  {"workload", ParamType::kWorkload, 0, 0, false, "stencil", kDse | kAps,
   "catalog workload run on every design (see `c2b workloads`)",
   [](SweepRequest& r, double, const std::string& name) { r.context.workload = *find_workload(name); }},
  // IC0 >= 1000: the phase windows never simulate fewer instructions, and
  // below it a many-core design has no parallel instruction left to run.
  {"instructions", ParamType::kInteger, 1000, kMaxInstructions, false, "20000", kDse | kAps,
   "IC0, instructions of the unscaled problem (N cores run g(N) * IC0)",
   C2B_SET(context.instructions0, std::uint64_t)},
  {"per-core-cap", ParamType::kInteger, 1, kMaxInstructions, false, "10000", kDse | kAps,
   "simulation window cap per core; longer phases are extrapolated",
   C2B_SET(context.per_core_cap, std::uint64_t)},
  {"area", ParamType::kReal, 0, kFinite, true, "9", kDse | kAps,
   "total chip area A of the Eq. (12) budget", C2B_SET(context.chip.total_area, double)},
  {"shared-area", ParamType::kReal, 0, kFinite, true, "1", kDse | kAps,
   "shared (uncore) area Ac", C2B_SET(context.chip.shared_area, double)},
  {"seed", ParamType::kInteger, 0, kMaxExactInteger, false, "99", kDse | kAps,
   "trace generator seed", C2B_SET(context.seed, std::uint64_t)},
  {"power-budget", ParamType::kReal, 0, kFinite, true, nullptr, kDse | kAps,
   "power ceiling; infeasible designs are never simulated",
   C2B_SET(context.power_budget, double)},
  {"bw-budget", ParamType::kReal, 0, kFinite, true, nullptr, kDse | kAps,
   "off-chip bandwidth ceiling", C2B_SET(context.bw_budget, double)},
  {"noc-budget", ParamType::kReal, 0, kFinite, true, nullptr, kDse | kAps,
   "NoC bisection ceiling", C2B_SET(context.noc_budget, double)},
  {"radius", ParamType::kInteger, 1, 64, false, "1", kAps,
   "A1/A2 neighborhood radius (grid steps) simulated around the analytic optimum",
   C2B_SET(aps.neighborhood_radius, std::size_t)},
  {"characterize-instructions", ParamType::kInteger, 1000, 1e8, false, "60000", kAps,
   "trace window of the characterization step",
   C2B_SET(aps.characterize.instructions, std::uint64_t)},
  {"large-axes", ParamType::kFlag, 0, 1, false, "false", kDse,
   "sweep the Fig.-12-scale preset grid (122,880 points), not the 64-point grid",
   [](SweepRequest& r, double v, const std::string&) { if (v != 0) r.axes = make_large_axes(); }},
  {"pareto", ParamType::kFlag, 0, 1, false, "false", kDse,
   "print the non-dominated (time, power, area) frontier, not the best design",
   C2B_SET(pareto, bool)},
  {"surrogate", ParamType::kFlag, 0, 1, false, "false", kDse,
   "MLP-guided class pruning; the printed optimum stays simulator ground truth",
   C2B_SET(context.surrogate_enabled, bool)},
  {"surrogate-band", ParamType::kReal, 0, kFinite, false, "0.25", kDse,
   "relative band around the incumbent outside which a class is pruned",
   C2B_SET(context.surrogate_band, double)},
  {"surrogate-warmup", ParamType::kInteger, 1, 1e6, false, "3", kDse,
   "exact warmup samples per trace class before the model prunes",
   C2B_SET(context.surrogate_warmup, std::size_t)},
};
// clang-format on
#undef C2B_SET

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string describe_range(const RequestParam& row) {
  if (row.type == ParamType::kWorkload) return "a workload name";
  if (row.type == ParamType::kFlag) return "true/false (or 1/0)";
  if (row.type == ParamType::kInteger)
    return "an integer in [" + format_number(row.min) + ", " + format_number(row.max) + "]";
  const std::string bound = (row.min_exclusive ? "> " : ">= ") + format_number(row.min);
  return row.max == kFinite ? "a finite number " + bound
                            : "a number " + bound + " and <= " + format_number(row.max);
}

const RequestParam& param_for(SweepCommand command, const std::string& key) {
  for (const RequestParam& row : kParams)
    if (key == row.name && row.accepts(command)) return row;
  throw RequestError(key, std::string("unknown key for c2b ") + command_name(command) +
                              " (see `c2b " + command_name(command) + " --help`)");
}

std::string text_of(const RequestValue& raw) {
  const std::string* text = std::get_if<std::string>(&raw);
  return text != nullptr ? *text : std::string();
}

}  // namespace

sim::SystemConfig baseline_system() {
  sim::SystemConfig config;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

std::optional<double> parse_number(std::string_view token) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token.front())) != 0)
    return std::nullopt;
  const std::string buffer(token);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

const char* command_name(SweepCommand command) {
  return command == SweepCommand::kAps ? "aps" : "dse";
}

std::optional<SweepCommand> parse_sweep_command(std::string_view name) {
  if (name == "dse") return SweepCommand::kDse;
  if (name == "aps") return SweepCommand::kAps;
  return std::nullopt;
}

double check_field(const RequestParam& row, const std::string& key, const RequestValue& raw) {
  const std::string* text = std::get_if<std::string>(&raw);
  if (row.type == ParamType::kWorkload) {
    if (text == nullptr) throw RequestError(key, "must be a workload name, got a number");
    if (!find_workload(*text))
      throw RequestError(key, "unknown workload '" + *text + "' (see `c2b workloads`)");
    return 0.0;
  }
  std::optional<double> number = text == nullptr ? std::optional(std::get<double>(raw))
                                                 : parse_number(*text);
  if (text != nullptr && row.type == ParamType::kFlag && (*text == "true" || *text == "false"))
    number = *text == "true" ? 1.0 : 0.0;
  if (!number) throw RequestError(key, "must be " + describe_range(row) + ", got '" + *text + "'");
  const double v = *number;
  const bool integral = row.type == ParamType::kReal || std::trunc(v) == v;
  const bool above_min = row.min_exclusive ? v > row.min : v >= row.min;
  if (!integral || !above_min || !(v <= row.max))
    throw RequestError(key, "must be " + describe_range(row) + ", got " + format_number(v));
  return v;
}

std::span<const RequestParam> request_params() { return kParams; }

SweepRequest build_sweep_request(SweepCommand command, const RequestFields& fields) {
  for (const auto& [key, raw] : fields) check_field(param_for(command, key), key, raw);

  SweepRequest request;
  request.command = command;
  request.context.base = baseline_system();
  request.axes.a0 = {1.0, 4.0};  // the 64-point grid unless --large-axes
  request.axes.a1 = {0.5, 1.0};
  request.axes.a2 = {1.0, 2.0};
  request.axes.n = {1, 2};
  request.axes.issue = {2, 4};
  request.axes.rob = {32, 64};
  for (const RequestParam& row : kParams) {
    const auto given = fields.find(row.name);
    if (!row.accepts(command) || (given == fields.end() && row.fallback == nullptr)) continue;
    const RequestValue raw =
        given != fields.end() ? given->second : RequestValue(std::string(row.fallback));
    row.apply(request, check_field(row, row.name, raw), text_of(raw));
  }
  return request;
}

std::string request_help(SweepCommand command) {
  std::string out = std::string("usage: c2b ") + command_name(command) +
                    " [flags]\nrequest flags (also the keys of a `c2b serve` \"" +
                    command_name(command) + "\" job body):\n";
  for (const RequestParam& row : kParams) {
    if (!row.accepts(command)) continue;
    std::string flag = std::string("  --") + row.name +
                       (row.type == ParamType::kWorkload ? " <name>"
                        : row.type == ParamType::kFlag   ? ""
                                                         : " <n>");
    flag.resize(std::max<std::size_t>(flag.size() + 1, 32), ' ');
    out += flag + row.help + "\n" + std::string(32, ' ') + describe_range(row) +
           "; default " + (row.fallback != nullptr ? row.fallback : "unset") + "\n";
  }
  return out;
}

void journal_sweep_config(const SweepRequest& request, std::size_t grid_points) {
  obs::RunJournal* journal = obs::active_journal();
  if (journal == nullptr) return;
  const DseContext& context = request.context;
  journal->emit(obs::JournalEvent("sweep_config")
                    .str("command", command_name(request.command))
                    .str("workload", context.workload.name)
                    .str("workload_uid", context.workload.uid)
                    .count("instructions", context.instructions0)
                    .count("per_core_cap", context.per_core_cap)
                    .num("area", context.chip.total_area)
                    .num("shared_area", context.chip.shared_area)
                    .count("seed", context.seed)
                    .count("grid_points", grid_points));
}

void journal_batch_stats(const BatchReplayStats& batch) {
  auto* journal = obs::active_journal();
  if (journal == nullptr) return;
  journal->emit(obs::JournalEvent("batch_stats")
                    .count("classes", batch.classes)
                    .count("members", batch.members)
                    .count("replayed_configs", batch.replayed_configs)
                    .count("cache_hits", batch.cache_hits)
                    .count("cache_hits_disk", batch.cache_hits_disk)
                    .count("chunks_shared", batch.chunks_shared)
                    .count("regen_avoided_accesses", batch.regen_avoided_accesses)
                    .count("simd_steps", batch.simd_steps)
                    .count("simd_peels", batch.simd_peels)
                    .count("simd_lanes_active", batch.simd_lanes_active));
  // Tier attribution snapshot for the `c2b report` "== cache ==" section:
  // process-wide sim-cache traffic split memory vs disk at the end of the
  // sweep.
  const exec::SimCacheStats cache = exec::SimCache::global().stats();
  journal->emit(obs::JournalEvent("cache_tiers")
                    .count("mem_hits", cache.hits)
                    .count("misses", cache.misses)
                    .count("mem_entries", cache.entries)
                    .count("evictions", cache.evictions)
                    .count("disk_attached", exec::SimCache::global().has_disk_tier() ? 1 : 0)
                    .count("disk_hits", cache.disk_hits)
                    .count("disk_misses", cache.disk_misses)
                    .count("disk_entries", cache.disk_entries)
                    .count("disk_flushes", cache.disk_flushes)
                    .count("disk_drops", cache.disk_drops));
}

}  // namespace c2b
