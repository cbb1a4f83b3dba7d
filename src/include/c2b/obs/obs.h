#pragma once

// Umbrella header for the telemetry subsystem: include this, then
// instrument with the macros below. Two kill levels:
//
//   * compile time — building a translation unit with -DC2B_OBS_DISABLED
//     turns every macro into nothing (no atomics, no branch, no statics);
//   * run time — obs::set_enabled(false) leaves exactly one predicted
//     branch per macro on the hot path.
//
// Metric names are dot-separated ("sim.l1.hit"); span names are
// slash-separated paths ("aps/characterize"). Both must be string
// literals: the registry copies names once at registration, but the trace
// ring stores the pointer.

#include "c2b/obs/registry.h"
#include "c2b/obs/trace.h"

#if defined(C2B_OBS_DISABLED)

#define C2B_OBS_ACTIVE() (false)
#define C2B_COUNTER_ADD(name, n) ((void)0)
#define C2B_COUNTER_INC(name) ((void)0)
#define C2B_GAUGE_SET(name, value) ((void)0)
#define C2B_HISTOGRAM_RECORD(name, lo, hi, bins, value) ((void)0)
#define C2B_HISTOGRAM_MERGE(name, local) ((void)0)
#define C2B_SPAN(name) ((void)0)
#define C2B_SPAN_ARG(name, arg) ((void)0)

#else

/// True when telemetry is compiled in and enabled at run time; use to gate
/// instrumentation-only computation (e.g. deriving the value to record).
#define C2B_OBS_ACTIVE() (::c2b::obs::enabled())

#define C2B_COUNTER_ADD(name, n)                                              \
  do {                                                                        \
    if (C2B_OBS_ACTIVE()) {                                                   \
      static ::c2b::obs::Counter& c2b_obs_slot =                              \
          ::c2b::obs::Registry::global().counter(name);                       \
      c2b_obs_slot.add(n);                                                    \
    }                                                                         \
  } while (0)

#define C2B_COUNTER_INC(name) C2B_COUNTER_ADD(name, 1)

#define C2B_GAUGE_SET(name, value)                                            \
  do {                                                                        \
    if (C2B_OBS_ACTIVE()) {                                                   \
      static ::c2b::obs::Gauge& c2b_obs_slot =                                \
          ::c2b::obs::Registry::global().gauge(name);                         \
      c2b_obs_slot.set(value);                                                \
    }                                                                         \
  } while (0)

#define C2B_HISTOGRAM_RECORD(name, lo, hi, bins, value)                       \
  do {                                                                        \
    if (C2B_OBS_ACTIVE()) {                                                   \
      static ::c2b::obs::ConcurrentHistogram& c2b_obs_slot =                  \
          ::c2b::obs::Registry::global().histogram(name, lo, hi, bins);       \
      c2b_obs_slot.record(value);                                             \
    }                                                                         \
  } while (0)

/// Fold a LocalHistogram into the registry histogram `name`, registered
/// with the local one's shape. An empty local histogram registers nothing,
/// as if no sample had been recorded.
#define C2B_HISTOGRAM_MERGE(name, local)                                      \
  do {                                                                        \
    if (C2B_OBS_ACTIVE() && (local).count() != 0) {                           \
      static ::c2b::obs::ConcurrentHistogram& c2b_obs_slot =                  \
          ::c2b::obs::Registry::global().histogram(                           \
              name, (local).lo(), (local).hi(), (local).bins());              \
      c2b_obs_slot.merge(local);                                              \
    }                                                                         \
  } while (0)

#define C2B_OBS_CONCAT_(a, b) a##b
#define C2B_OBS_CONCAT(a, b) C2B_OBS_CONCAT_(a, b)

/// Scoped span: times from this statement to the end of the enclosing
/// scope and records one Chrome "X" event.
#define C2B_SPAN(name) ::c2b::obs::Span C2B_OBS_CONCAT(c2b_obs_span_, __LINE__)(name)
/// Span with a numeric payload (exported as args.v in the trace).
#define C2B_SPAN_ARG(name, arg) \
  ::c2b::obs::Span C2B_OBS_CONCAT(c2b_obs_span_, __LINE__)(name, (arg))

#endif  // C2B_OBS_DISABLED
