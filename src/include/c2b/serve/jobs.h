#pragma once

// Job payloads for `c2b serve`: a flat JSON body (the journal-line
// grammar) validated at the boundary — dse/aps keys are exactly the CLI
// flags, checked by the same request schema (c2b/aps/request.h) — and
// executed synchronously on the calling (runner) thread; the sweeps inside
// fan out on the shared ThreadPool exactly as a CLI run would. Types:
// "dse" (full factorial or pareto), "aps", "check" (one oracle family).

#include <cstdint>
#include <optional>
#include <string>

#include "c2b/aps/request.h"

namespace c2b::serve {

struct JobRequest {
  std::string type;  ///< "dse" | "aps" | "check"
  /// dse/aps: the validated request, built exactly as the CLI builds it.
  std::optional<SweepRequest> sweep;
  /// check: the oracle family and its seed.
  std::string family = "invariants";
  std::uint64_t seed = 42;
  /// How many pool threads this job claims for admission control
  /// ("threads" key, an integer >= 1, default 1; clamped to threads_total
  /// by the manager). Purely an admission weight: the sweep itself runs on
  /// the shared work-stealing pool either way.
  std::size_t threads = 1;

  /// Parses and validates a flat JSON object ({"type":"dse",...}).
  /// nullopt + *error on malformed JSON or a bad or unknown key, the error
  /// naming the key ("instructions: must be ...").
  static std::optional<JobRequest> parse(const std::string& body, std::string* error);
};

struct JobOutcome {
  bool ok = false;
  std::string error;
  std::string result_json = "{}";  ///< summary for GET /jobs/<id>
};

/// Executes one job on the calling thread. Never throws: failures land in
/// outcome.error. Observation context (per-job journal) is installed by
/// the caller — everything emitted during the run streams there.
JobOutcome run_job(const JobRequest& request);

}  // namespace c2b::serve
