#pragma once

// The project's only sanctioned wall-clock surface.
//
// Determinism contract: wall time may feed telemetry, logs, progress
// meters and scheduling heuristics — never bytes whose exact value a
// campaign artifact pins (fronts, indicator CSVs, journals).
// Funnelling every clock read through this module makes the contract
// auditable: `aedb-lint` (tools/lint) bans std::chrono clock types in
// every other src/ translation unit, so a wall-clock read feeding a
// codec cannot appear without a reviewed `lint: allow` suppression.

#include <cstdint>

namespace aedbmls {

/// Monotonic timestamp in nanoseconds since an unspecified epoch.
/// Comparable/subtractable within a process; never serialized.
[[nodiscard]] std::int64_t monotonic_ns();

/// Seconds elapsed since construction, from the monotonic clock.
/// The conventional spelling of `stats.runtime_seconds = ...` timing.
class ElapsedTimer {
 public:
  ElapsedTimer() : start_ns_(monotonic_ns()) {}

  [[nodiscard]] double seconds() const {
    return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace aedbmls
