// The sweep request schema (c2b/aps/request.h) and its two front ends:
// defaults pinned to the historical `c2b dse`/`c2b aps` context, both
// edges of every row's range, the one number syntax, unknown keys, and a
// property that random requests rendered as CLI flags and as a `c2b serve`
// JSON body either build identical requests field by field or are both
// rejected naming the same key — with no rejected body ever queued.

#include "c2b/aps/request.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "c2b/check/generators.h"
#include "c2b/check/property.h"
#include "c2b/serve/jobs.h"
#include "c2b/serve/server.h"
#include "c2b/trace/workloads.h"
#include "cli_args.h"

namespace c2b {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// First field on which two requests differ, or nullopt.
std::optional<std::string> first_difference(const SweepRequest& a, const SweepRequest& b) {
#define C2B_SAME(field) \
  if (!(a.field == b.field)) return std::string(#field)
  C2B_SAME(command);
  C2B_SAME(pareto);
  C2B_SAME(context.chip.total_area);
  C2B_SAME(context.chip.shared_area);
  C2B_SAME(context.chip.l1_kib_per_area);
  C2B_SAME(context.chip.l2_kib_per_area);
  C2B_SAME(context.workload.name);
  C2B_SAME(context.workload.uid);
  C2B_SAME(context.instructions0);
  C2B_SAME(context.per_core_cap);
  C2B_SAME(context.seed);
  C2B_SAME(context.lockstep_records);
  C2B_SAME(context.use_simd);
  C2B_SAME(context.power_budget);
  C2B_SAME(context.bw_budget);
  C2B_SAME(context.noc_budget);
  C2B_SAME(context.surrogate_enabled);
  C2B_SAME(context.surrogate_band);
  C2B_SAME(context.surrogate_warmup);
  C2B_SAME(axes.a0);
  C2B_SAME(axes.a1);
  C2B_SAME(axes.a2);
  C2B_SAME(axes.n);
  C2B_SAME(axes.issue);
  C2B_SAME(axes.rob);
  C2B_SAME(aps.neighborhood_radius);
  C2B_SAME(aps.characterize.instructions);
  C2B_SAME(aps.characterize.use_simpoints);
  C2B_SAME(aps.characterize.seed);
#undef C2B_SAME
  if (check::print_system_config(a.context.base) != check::print_system_config(b.context.base))
    return std::string("context.base");
  return std::nullopt;
}

/// The key a rejected build names, or "" when it was accepted.
std::string rejected_key(SweepCommand command, const RequestFields& fields) {
  try {
    build_sweep_request(command, fields);
    return "";
  } catch (const RequestError& error) {
    return error.key();
  }
}

const RequestParam& row(const std::string& name) {
  for (const RequestParam& param : request_params())
    if (name == param.name) return param;
  throw std::logic_error("no row " + name);
}

TEST(RequestSchema, DefaultsReproduceTheHistoricalCliContext) {
  // The context `c2b dse` / `c2b aps` / serve jobs built by hand before the
  // schema existed; every default must stay bit-identical.
  SweepRequest expected;
  expected.context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                                 .associativity = 4};
  expected.context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                                 .associativity = 8};
  expected.context.workload = make_stencil_workload();
  expected.context.instructions0 = 20'000;
  expected.context.per_core_cap = 10'000;
  expected.context.chip.total_area = 9.0;
  expected.context.chip.shared_area = 1.0;
  expected.context.seed = 99;
  expected.axes.a0 = {1.0, 4.0};
  expected.axes.a1 = {0.5, 1.0};
  expected.axes.a2 = {1.0, 2.0};
  expected.axes.n = {1, 2};
  expected.axes.issue = {2, 4};
  expected.axes.rob = {32, 64};

  const SweepRequest dse = build_sweep_request(SweepCommand::kDse, {});
  EXPECT_EQ(first_difference(dse, expected), std::nullopt);
  EXPECT_EQ(dse.context.power_budget, kInf);
  EXPECT_FALSE(dse.context.surrogate_enabled);
  EXPECT_EQ(dse.context.surrogate_band, 0.25);
  EXPECT_EQ(dse.context.surrogate_warmup, 3u);

  expected.command = SweepCommand::kAps;
  expected.aps.neighborhood_radius = 1;
  expected.aps.characterize.instructions = 60'000;
  EXPECT_EQ(first_difference(build_sweep_request(SweepCommand::kAps, {}), expected),
            std::nullopt);
}

TEST(RequestSchema, EveryRowAcceptsBothEdgesAndRejectsJustOutside) {
  for (const RequestParam& param : request_params()) {
    if (param.type == ParamType::kWorkload) continue;
    for (const SweepCommand command : {SweepCommand::kDse, SweepCommand::kAps}) {
      if (!param.accepts(command)) continue;
      const std::string key = param.name;
      SCOPED_TRACE(key + " on " + command_name(command));
      const auto accepted = [&](double value) {
        return rejected_key(command, {{key, value}}).empty();
      };
      const double low = param.min_exclusive ? std::nextafter(param.min, kInf) : param.min;
      const double below = param.min_exclusive ? param.min
                           : param.type == ParamType::kReal
                               ? std::nextafter(param.min, -kInf)
                               : param.min - 1;
      const double above = param.type == ParamType::kReal || param.max + 1 == param.max
                               ? std::nextafter(param.max, kInf)
                               : param.max + 1;
      EXPECT_TRUE(accepted(low));
      EXPECT_TRUE(accepted(param.max));
      EXPECT_FALSE(accepted(below));
      EXPECT_FALSE(accepted(above));
      EXPECT_FALSE(accepted(std::nan("")));
      EXPECT_EQ(rejected_key(command, {{key, std::string("lots")}}), key);
    }
  }
}

TEST(RequestSchema, DocumentedRangesHoldTheirEdges) {
  // The ranges the schema documents, edge by edge.
  const auto key_of = [](const char* key, RequestValue value) {
    const SweepCommand command = row(key).accepts(SweepCommand::kDse) ? SweepCommand::kDse
                                                                      : SweepCommand::kAps;
    return rejected_key(command, {{key, std::move(value)}});
  };
  EXPECT_EQ(key_of("instructions", 1000.0), "");
  EXPECT_EQ(key_of("instructions", 999.0), "instructions");
  EXPECT_EQ(key_of("instructions", 1e12), "");
  EXPECT_EQ(key_of("instructions", 1e30), "instructions");
  EXPECT_EQ(key_of("instructions", -1.0), "instructions");
  EXPECT_EQ(key_of("per-core-cap", 1.0), "");
  EXPECT_EQ(key_of("per-core-cap", 0.0), "per-core-cap");
  EXPECT_EQ(key_of("seed", 0.0), "");
  EXPECT_EQ(key_of("seed", -5.0), "seed");
  EXPECT_EQ(key_of("characterize-instructions", 1000.0), "");
  EXPECT_EQ(key_of("characterize-instructions", 999.0), "characterize-instructions");
  EXPECT_EQ(key_of("radius", 1.0), "");
  EXPECT_EQ(key_of("radius", 0.0), "radius");
  EXPECT_EQ(key_of("radius", -1.0), "radius");
  EXPECT_EQ(key_of("area", 0.0), "area");
  EXPECT_EQ(key_of("area", kInf), "area");
  EXPECT_EQ(key_of("shared-area", -1.0), "shared-area");
  EXPECT_EQ(key_of("surrogate-band", -3.0), "surrogate-band");
  EXPECT_EQ(key_of("surrogate-band", 0.0), "");
  EXPECT_EQ(key_of("surrogate-warmup", 0.0), "surrogate-warmup");
  EXPECT_EQ(key_of("power-budget", -5.0), "power-budget");
  EXPECT_EQ(key_of("pareto", 2.0), "pareto");
  EXPECT_EQ(key_of("pareto", std::string("yes")), "pareto");
}

TEST(RequestSchema, NumbersTakeOnePathWholeTokenOnly) {
  const SweepRequest text = build_sweep_request(SweepCommand::kDse, {{"instructions", "1e6"}});
  const SweepRequest number = build_sweep_request(SweepCommand::kDse, {{"instructions", 1e6}});
  EXPECT_EQ(text.context.instructions0, 1'000'000u);
  EXPECT_EQ(number.context.instructions0, 1'000'000u);
  for (const char* token : {"2.5", "1e6x", "20000 ", " 20000", "", "0x", "--1"})
    EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"instructions", token}}), "instructions")
        << "'" << token << "'";
  EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"instructions", 2.5}}), "instructions");
  EXPECT_EQ(parse_number("1e6"), 1e6);
  EXPECT_EQ(parse_number("1e6x"), std::nullopt);
  EXPECT_EQ(parse_number(" 1"), std::nullopt);
}

TEST(RequestSchema, UnknownAndWrongTypeKeysAreNamed) {
  EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"instuctions", 5.0}}), "instuctions");
  for (const char* dse_only : {"large-axes", "pareto", "surrogate", "surrogate-band",
                               "surrogate-warmup"})
    EXPECT_EQ(rejected_key(SweepCommand::kAps, {{dse_only, 1.0}}), dse_only);
  for (const char* aps_only : {"radius", "characterize-instructions"})
    EXPECT_EQ(rejected_key(SweepCommand::kDse, {{aps_only, 1000.0}}), aps_only);
  EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"workload", 5.0}}), "workload");
  EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"workload", "no-such-workload"}}), "workload");
  // Fields are checked in key order: the first bad key wins.
  EXPECT_EQ(rejected_key(SweepCommand::kDse, {{"instructions", -1.0}, {"area", -1.0}}), "area");
}

TEST(RequestSchema, JsonStringsParseLikeFlagText) {
  // `c2b submit` sends every flag as the text it carried; a JSON string
  // must build exactly what the same flag text and the JSON number build.
  const RequestFields fields{{"instructions", "1e6"}, {"large-axes", "true"},
                             {"surrogate-band", "0.5"}, {"workload", "fft"}};
  const SweepRequest expected = build_sweep_request(SweepCommand::kDse, fields);
  for (const char* body :
       {R"({"type":"dse","instructions":"1e6","large-axes":"true","surrogate-band":"0.5",)"
        R"("workload":"fft"})",
        R"({"type":"dse","instructions":1e6,"large-axes":1,"surrogate-band":0.5,)"
        R"("workload":"fft"})"}) {
    std::string error;
    const auto parsed = serve::JobRequest::parse(body, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->sweep.has_value());
    EXPECT_EQ(first_difference(*parsed->sweep, expected), std::nullopt) << body;
  }
  EXPECT_EQ(expected.context.instructions0, 1'000'000u);
  EXPECT_EQ(expected.axes.n.size(), make_large_axes().n.size());
}

TEST(RequestSchema, HelpListsExactlyTheCommandsRows) {
  const std::string dse = request_help(SweepCommand::kDse);
  const std::string aps = request_help(SweepCommand::kAps);
  for (const RequestParam& param : request_params()) {
    const std::string flag = std::string("--") + param.name + " ";
    EXPECT_EQ(dse.find(flag) != std::string::npos, param.accepts(SweepCommand::kDse)) << flag;
    EXPECT_EQ(aps.find(flag) != std::string::npos, param.accepts(SweepCommand::kAps)) << flag;
  }
}

// --- front-end equivalence property -----------------------------------------

/// One generated field: a JSON number or a text token.
struct Field {
  std::string key;
  bool is_number = false;
  double number = 0.0;
  std::string text;
  bool boolean = false;  ///< a flag row: the CLI takes its value only as `--key=value`
  bool bare = false;     ///< CLI: render a true flag as bare `--key`
};

struct GeneratedRequest {
  SweepCommand command = SweepCommand::kDse;
  std::vector<Field> fields;
};

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Field generate_value(Rng& rng, const RequestParam& param) {
  Field field;
  field.key = param.name;
  if (param.type == ParamType::kWorkload) {
    const std::vector<WorkloadSpec> catalog = workload_catalog();
    switch (rng.uniform_below(4)) {
      case 0: field.is_number = true; field.number = 5; break;  // wrong type
      case 1: field.text = "no-such-workload"; break;
      default: field.text = catalog[rng.uniform_below(catalog.size())].name;
    }
    return field;
  }
  if (param.type == ParamType::kFlag) {
    field.boolean = true;
    switch (rng.uniform_below(6)) {
      case 0: field.text = "maybe"; break;
      case 1: field.is_number = true; field.number = 2; break;
      case 2: field.text = "false"; break;
      case 3: field.is_number = true; field.number = 0; break;
      default: field.text = "true"; field.bare = rng.bernoulli(0.5);
    }
    return field;
  }
  field.is_number = rng.bernoulli(0.7);
  const double span = std::min(param.max, param.min + 1e4) - param.min;
  switch (rng.uniform_below(10)) {
    case 0: field.number = param.min; break;
    case 1: field.number = param.max; break;
    case 2: field.number = param.min - 1; break;
    case 3: field.number = std::nan(""); break;
    case 4: field.number = param.min + 0.5; break;  // non-integral
    case 5: field.is_number = false; field.text = "lots"; return field;  // wrong type
    case 6: field.number = param.max * 10 + 1; break;
    default:
      field.number = param.min + std::floor(rng.uniform(0.0, span));
      if (param.min_exclusive) field.number += 1;
  }
  if (!field.is_number) field.text = format_number(field.number);
  return field;
}

GeneratedRequest generate_request(Rng& rng) {
  GeneratedRequest request;
  request.command = rng.bernoulli(0.5) ? SweepCommand::kDse : SweepCommand::kAps;
  for (const RequestParam& param : request_params()) {
    // Rows of the other command come along now and then: unknown keys.
    const double p = param.accepts(request.command) ? 0.35 : 0.05;
    if (rng.bernoulli(p)) request.fields.push_back(generate_value(rng, param));
  }
  if (rng.bernoulli(0.1)) {
    Field typo;
    typo.key = rng.bernoulli(0.5) ? "instuctions" : "per-core";
    typo.is_number = true;
    typo.number = 5;
    request.fields.push_back(typo);
  }
  return request;
}

std::vector<std::string> render_argv(const GeneratedRequest& request) {
  std::vector<std::string> argv{"c2b", command_name(request.command)};
  for (const Field& field : request.fields) {
    const std::string value = field.is_number ? format_number(field.number) : field.text;
    if (field.bare) {
      argv.push_back("--" + field.key);
    } else if (field.boolean || value.rfind("-", 0) == 0 || value.empty() ||
               argv.size() % 2 == 0) {
      argv.push_back("--" + field.key + "=" + value);
    } else {
      argv.push_back("--" + field.key);
      argv.push_back(value);
    }
  }
  return argv;
}

std::string render_json(const GeneratedRequest& request) {
  std::string body = std::string("{\"type\":\"") + command_name(request.command) + "\"";
  for (const Field& field : request.fields) {
    body += ",\"" + field.key + "\":";
    if (!field.is_number) body += "\"" + field.text + "\"";
    else if (std::isnan(field.number)) body += "null";
    else body += format_number(field.number);
  }
  return body + "}";
}

std::string print_request(const GeneratedRequest& request) {
  std::string argv;
  for (const std::string& token : render_argv(request)) argv += token + " ";
  return argv + "| " + render_json(request);
}

/// CLI front end: the key a rejection names, or the request.
std::variant<std::string, SweepRequest> via_cli(const GeneratedRequest& request) {
  std::vector<std::string> tokens = render_argv(request);
  std::vector<char*> argv;
  for (std::string& token : tokens) argv.push_back(token.data());
  std::set<std::string> boolean_flags;
  for (const RequestParam& param : request_params())
    if (param.type == ParamType::kFlag) boolean_flags.insert(param.name);
  try {
    const cli::Args args(static_cast<int>(argv.size()), argv.data(), 2, boolean_flags);
    return build_sweep_request(request.command, args.rest());
  } catch (const RequestError& error) {
    return error.key();
  } catch (const cli::UsageError& error) {
    return std::string("<unparsed: ") + error.what() + ">";
  }
}

/// Serve front end: the key a 400 names ("key: ..."), or the request.
std::variant<std::string, SweepRequest> via_json(const GeneratedRequest& request) {
  std::string error;
  const auto parsed = serve::JobRequest::parse(render_json(request), &error);
  if (!parsed.has_value()) return error.substr(0, error.find(':'));
  if (!parsed->sweep.has_value()) return std::string("<not a sweep>");
  return *parsed->sweep;
}

TEST(RequestSchema, CliAndServeFrontEndsAgree) {
  // A server that can never queue anything: an accepted body gets 429,
  // a rejected one 400 — so the status says which side of validation a
  // body landed on, and no job ever runs.
  serve::ServerOptions options;
  options.max_queue = 0;
  serve::Server server(options);
  std::size_t accepted = 0, rejected = 0;

  check::Property<GeneratedRequest> property;
  property.name = "request_front_ends_agree";
  property.generate = generate_request;
  property.print = print_request;
  property.shrink = [](const GeneratedRequest& request) {
    std::vector<GeneratedRequest> out;
    for (std::vector<Field>& fields : check::shrink_vector(request.fields)) {
      GeneratedRequest smaller = request;
      smaller.fields = std::move(fields);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  property.holds = [&](const GeneratedRequest& request) -> std::optional<std::string> {
    const auto cli = via_cli(request);
    const auto json = via_json(request);
    const int status =
        server.handle(serve::HttpRequest{"POST", "/jobs", "", render_json(request)}).status;
    const auto* cli_key = std::get_if<std::string>(&cli);
    const auto* json_key = std::get_if<std::string>(&json);
    if (cli_key != nullptr || json_key != nullptr) {
      if (cli_key == nullptr || json_key == nullptr || *cli_key != *json_key)
        return "rejections differ: cli '" + (cli_key ? *cli_key : "accepted") + "' vs json '" +
               (json_key ? *json_key : "accepted") + "'";
      if (status != 400) return "rejected body got HTTP " + std::to_string(status);
      ++rejected;
      return std::nullopt;
    }
    if (auto field = first_difference(std::get<SweepRequest>(cli), std::get<SweepRequest>(json)))
      return "front ends built different " + *field;
    if (status != 429) return "accepted body got HTTP " + std::to_string(status);
    ++accepted;
    return std::nullopt;
  };

  check::CheckOptions check_options;
  check_options.cases = 400;
  const check::CheckResult result = check::check(property, check::options_from_env(check_options));
  EXPECT_TRUE(result.passed) << result.summary();
  // Both sides of the boundary were exercised, and nothing ran.
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(rejected, 10u);
  const std::string stats =
      server.handle(serve::HttpRequest{"GET", "/stats", "", ""}).body;
  EXPECT_NE(stats.find("\"queued\":0,\"running\":0,\"done\":0,\"failed\":0"), std::string::npos)
      << stats;
}

}  // namespace
}  // namespace c2b
