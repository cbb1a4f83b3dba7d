#pragma once

// Minimal flag parser for the c2b command-line tool: supports
// `--flag value`, `--flag=value`, and boolean `--flag`. A malformed or
// unknown flag is a UsageError (main() exits 2): typos must not silently
// do nothing. Numbers take the request schema's one syntax
// (c2b::parse_number): a token is consumed whole or rejected, never read
// in part.

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "c2b/aps/request.h"

namespace c2b::cli {

/// A bad command line; main() prints it and exits 2, like a RequestError.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Args {
 public:
  /// Parse argv[first..). `boolean_flags` take no value.
  Args(int argc, char** argv, int first, std::set<std::string> boolean_flags = {});

  bool has(const std::string& flag) const { return values_.count(flag) > 0; }

  std::string get(const std::string& flag, const std::string& fallback) const;
  double get(const std::string& flag, double fallback) const;
  /// Integral values in [-2^53, 2^53] only, so "1e6" is 1000000 and "2.5"
  /// is rejected.
  long long get(const std::string& flag, long long fallback) const;

  /// Optional-value flag (`--progress` / `--progress=N`): nullopt when the
  /// flag is absent, `bare_value` when present with no `=value` (the flag
  /// must be registered as boolean so the parser does not eat the next
  /// token), the parsed integer otherwise.
  std::optional<long long> get_opt(const std::string& flag, long long bare_value) const;

  /// Every flag not queried so far, marked used, as raw request fields for
  /// build_sweep_request (c2b/aps/request.h): schema keys are validated
  /// there and anything else is an unknown key. Read the CLI-level flags
  /// first.
  RequestFields rest() const;

  /// Flags that were parsed but never queried — call at the end to reject
  /// typos (`finish()` throws listing them).
  void mark_used(const std::string& flag) const { used_.insert(flag); }
  void finish() const;

 private:
  long long to_integer(const std::string& flag, const std::string& text) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

inline Args::Args(int argc, char** argv, int first, std::set<std::string> boolean_flags) {
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) throw UsageError("expected a --flag, got '" + token + "'");
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    if (boolean_flags.count(token) > 0) {
      values_[token] = "true";
      continue;
    }
    if (i + 1 >= argc) throw UsageError("flag --" + token + " needs a value");
    values_[token] = argv[++i];
  }
}

inline std::string Args::get(const std::string& flag, const std::string& fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

inline double Args::get(const std::string& flag, double fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  if (const auto number = parse_number(it->second)) return *number;
  throw UsageError("flag --" + flag + " needs a number, got '" + it->second + "'");
}

inline long long Args::to_integer(const std::string& flag, const std::string& text) const {
  const auto number = parse_number(text);
  if (!number || std::trunc(*number) != *number || !(std::fabs(*number) <= kMaxExactInteger))
    throw UsageError("flag --" + flag + " needs an integer, got '" + text + "'");
  return static_cast<long long>(*number);
}

inline long long Args::get(const std::string& flag, long long fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : to_integer(flag, it->second);
}

inline std::optional<long long> Args::get_opt(const std::string& flag,
                                              long long bare_value) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::nullopt;
  if (it->second == "true") return bare_value;  // bare boolean form
  return to_integer(flag, it->second);
}

inline RequestFields Args::rest() const {
  RequestFields fields;
  for (const auto& [flag, value] : values_)
    if (used_.insert(flag).second) fields.emplace(flag, value);
  return fields;
}

inline void Args::finish() const {
  std::string unknown;
  for (const auto& [flag, value] : values_) {
    (void)value;
    if (used_.count(flag) == 0) unknown += " --" + flag;
  }
  if (!unknown.empty()) throw UsageError("unknown flag(s):" + unknown);
}

}  // namespace c2b::cli
