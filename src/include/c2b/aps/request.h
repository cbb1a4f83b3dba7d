#pragma once

// The one request schema of the sweep commands. `c2b dse`/`c2b aps` flags,
// `c2b serve` JSON job bodies and `c2b submit`'s body assembler all go
// through one declarative parameter table (name, type, range, default,
// help, commands) and one checked builder, which turns the raw fields a
// front end received into a DseContext + DseAxes + ApsOptions or throws a
// RequestError naming the first offending key. Numbers take one path:
// strtod over the whole token, then an integral check for integer rows,
// then the row's range. The CLI reports a RequestError as a usage error
// (exit 2), `c2b serve` as an HTTP 400 before the job is queued.

#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/sim/system/system.h"

namespace c2b {

/// The baseline machine every `c2b` command starts from: 16 KiB 4-way L1,
/// 512 KiB 8-way L2, 64-byte lines, SystemConfig defaults otherwise.
sim::SystemConfig baseline_system();

/// strtod over the whole token; nullopt for an empty token, leading
/// whitespace or trailing junk.
std::optional<double> parse_number(std::string_view token);
/// The largest integer every front end carries exactly (JSON numbers are
/// doubles): integer keys stay within [-2^53, 2^53].
inline constexpr double kMaxExactInteger = 9007199254740992.0;

enum class SweepCommand : unsigned { kDse = 1, kAps = 2 };
const char* command_name(SweepCommand command);
std::optional<SweepCommand> parse_sweep_command(std::string_view name);

enum class ParamType { kWorkload, kInteger, kReal, kFlag };

struct SweepRequest {
  SweepCommand command = SweepCommand::kDse;
  DseContext context;
  DseAxes axes;
  ApsOptions aps;       ///< read by aps only
  bool pareto = false;  ///< dse: the Pareto frontier instead of the best design
};

/// One row of the table. Numeric rows accept [min, max] — (min, max] when
/// min_exclusive; flags accept true/false or 1/0; the workload row a
/// catalog name. `fallback` is parsed like a given value (nullptr = unset).
struct RequestParam {
  const char* name;
  ParamType type;
  double min;
  double max;
  bool min_exclusive;
  const char* fallback;
  unsigned commands;  ///< bitmask of SweepCommand values
  const char* help;
  void (*apply)(SweepRequest& request, double number, const std::string& text);

  bool accepts(SweepCommand command) const {
    return (commands & static_cast<unsigned>(command)) != 0;
  }
};

std::span<const RequestParam> request_params();

/// A raw field: text (a CLI flag value or a JSON string) or a JSON number.
using RequestValue = std::variant<std::string, double>;
using RequestFields = std::map<std::string, RequestValue>;

/// what() is "<key>: <reason>".
class RequestError : public std::invalid_argument {
 public:
  RequestError(std::string key, const std::string& reason)
      : std::invalid_argument(key + ": " + reason), key_(std::move(key)) {}
  const std::string& key() const noexcept { return key_; }

 private:
  std::string key_;
};

/// Checks `fields` in key order — so the first bad key is the same from
/// either front end — then builds the request with the table's defaults.
SweepRequest build_sweep_request(SweepCommand command, const RequestFields& fields);

/// One raw field checked by `row`'s rules: its number (0 for the workload
/// row) or a RequestError naming `key`. Front ends check the few keys they
/// own outside the table with the same rules.
double check_field(const RequestParam& row, const std::string& key, const RequestValue& raw);

/// The flag reference of `c2b <command> --help`.
std::string request_help(SweepCommand command);

/// Journal the sweep configuration to the active flight recorder, if any
/// (the event `c2b report` attributes a run from).
void journal_sweep_config(const SweepRequest& request, std::size_t grid_points);

/// Journal a finished sweep's batch-replay counts and the sim cache's tier
/// traffic to the active flight recorder, if any (`batch_stats` and
/// `cache_tiers`, which `c2b report` sums). Every front end calls it once
/// per sweep, so the CLI and c2b serve jobs report the same counts.
void journal_batch_stats(const BatchReplayStats& batch);

}  // namespace c2b
