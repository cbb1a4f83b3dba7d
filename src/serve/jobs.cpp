#include "c2b/serve/jobs.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>
#include <variant>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/check/oracles.h"
#include "c2b/obs/journal.h"

namespace c2b::serve {
namespace {

/// Serve-level keys outside the request schema, checked by its rules.
constexpr RequestParam kThreadsKey{"threads", ParamType::kInteger, 1, kMaxExactInteger, false,
                                   "1", 0, "", nullptr};
constexpr RequestParam kSeedKey{"seed", ParamType::kInteger, 0, kMaxExactInteger, false, "42",
                                0, "", nullptr};

/// Removes `row`'s key from `fields`; its checked value, or the default.
std::uint64_t take_integer(RequestFields& fields, const RequestParam& row) {
  auto node = fields.extract(row.name);
  const RequestValue raw = node ? std::move(node.mapped()) : RequestValue(row.fallback);
  return static_cast<std::uint64_t>(check_field(row, row.name, raw));
}

std::string batch_json(const BatchReplayStats& batch) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"classes\":%zu,\"members\":%zu,\"replayed_configs\":%zu,"
                "\"cache_hits\":%zu,\"cache_hits_disk\":%zu}",
                batch.classes, batch.members, batch.replayed_configs, batch.cache_hits,
                batch.cache_hits_disk);
  return buf;
}

JobOutcome run_dse(const SweepRequest& request) {
  JobOutcome outcome;
  const DseContext& context = request.context;
  const GridSpace space = make_design_space(request.axes);
  journal_sweep_config(request, space.size());

  char buf[512];
  if (request.pareto) {
    const ParetoDseResult result = run_pareto_dse(context, space);
    journal_batch_stats(result.batch);
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"dse\",\"pareto\":1,\"grid_points\":%zu,"
                  "\"feasible\":%zu,\"frontier\":%zu,\"batch\":",
                  result.grid_points, result.feasible_count, result.frontier.size());
    outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  } else {
    const FullDseResult result = run_full_dse(context, space);
    journal_batch_stats(result.batch);
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"dse\",\"grid_points\":%zu,\"feasible\":%zu,"
                  "\"best_index\":%zu,\"best_time\":%.17g,\"simulations\":%zu,\"batch\":",
                  space.size(), result.feasible_count, result.best_index, result.best_time,
                  result.simulations);
    outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  }
  outcome.ok = true;
  return outcome;
}

JobOutcome run_aps_job(const SweepRequest& request) {
  JobOutcome outcome;
  const GridSpace space = make_design_space(request.axes);
  journal_sweep_config(request, space.size());

  const ApsResult result = run_aps(request.context, space, request.aps);
  journal_batch_stats(result.batch);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"aps\",\"grid_points\":%zu,\"best_index\":%zu,"
                "\"best_time\":%.17g,\"simulations\":%zu,\"narrowing_factor\":%.3f,"
                "\"batch\":",
                space.size(), result.best_index, result.best_time, result.simulations,
                result.narrowing_factor);
  outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  outcome.ok = true;
  return outcome;
}

JobOutcome run_check_job(const JobRequest& request) {
  JobOutcome outcome;
  check::OracleOptions options;
  options.seed = request.seed;
  const check::OracleReport report = check::find_oracle_family(request.family)->run(options);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"check\",\"family\":\"%s\",\"checks\":%zu,\"failures\":%zu}",
                report.family.c_str(), report.checks, report.failures.size());
  outcome.result_json = buf;
  outcome.ok = report.passed();
  if (!outcome.ok) outcome.error = "oracle family '" + request.family + "' failed";
  return outcome;
}

}  // namespace

std::optional<JobRequest> JobRequest::parse(const std::string& body, std::string* error) {
  // The body is one flat JSON object — the journal-line grammar, but every
  // key is a request field (no journal "ts_ms") and may appear once.
  // Normalize newlines so pretty-printed clients still parse.
  std::string line = body;
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::replace(line.begin(), line.end(), '\r', ' ');
  std::vector<obs::FlatJsonMember> members;
  if (!obs::parse_flat_json_object(line, members)) {
    if (error != nullptr)
      *error = "malformed job body (want a flat JSON object with a \"type\" field)";
    return std::nullopt;
  }

  JobRequest request;
  try {
    RequestFields fields;
    for (auto& [key, value] : members)
      if (!fields.emplace(key, std::move(value)).second) throw RequestError(key, "repeated key");
    const auto type = fields.extract("type");
    if (!type || !std::holds_alternative<std::string>(type.mapped()))
      throw RequestError("type", "required, a string naming the job type");
    request.type = std::get<std::string>(type.mapped());
    request.threads = static_cast<std::size_t>(take_integer(fields, kThreadsKey));
    if (const auto command = parse_sweep_command(request.type)) {
      request.sweep = build_sweep_request(*command, fields);
      return request;
    }
    if (request.type != "check") throw RequestError("type", "unknown job type '" + request.type + "'");
    request.seed = take_integer(fields, kSeedKey);
    if (const auto family = fields.extract("family"))
      request.family = std::holds_alternative<std::string>(family.mapped())
                           ? std::get<std::string>(family.mapped())
                           : std::string();
    if (!fields.empty())
      throw RequestError(fields.begin()->first, "unknown key for a check job");
    if (check::find_oracle_family(request.family) == nullptr)
      throw RequestError("family", "unknown oracle family '" + request.family + "'");
  } catch (const RequestError& rejected) {
    if (error != nullptr) *error = rejected.what();
    return std::nullopt;
  }
  return request;
}

JobOutcome run_job(const JobRequest& request) {
  try {
    if (request.sweep.has_value())
      return request.sweep->command == SweepCommand::kAps ? run_aps_job(*request.sweep)
                                                          : run_dse(*request.sweep);
    if (request.type == "check") return run_check_job(request);
    JobOutcome outcome;
    outcome.error = "unknown job type '" + request.type + "'";
    return outcome;
  } catch (const std::exception& e) {
    JobOutcome outcome;
    outcome.error = e.what();
    return outcome;
  } catch (...) {
    JobOutcome outcome;
    outcome.error = "unknown error";
    return outcome;
  }
}

}  // namespace c2b::serve
