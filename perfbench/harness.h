// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Shared plumbing of the end-to-end benchmark: clocks and order
// statistics, the result table, the in-memory span recorder used by
// traced runs, counter snapshots of the program's metrics registry, and
// the environment stamp.  Everything here observes the library from the
// outside; nothing is compiled into it.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock.
double NowUs();

/// Nearest-rank percentile, q in (0, 1].  Empty input gives 0.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double GeoMean(const std::vector<double>& v);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Named metrics with units, printed in insertion order.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// {"name":{"value":v,"unit":"u"},...}
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

/// Attempted / failed operation tally for the correctness report.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Counts one attempt, failing it when `ok` is false; logs the first
  /// few failures to stderr with `what`.
  void Check(bool ok, const std::string& what);
};

/// One recorded span.  `parent` is the id of the enclosing span (-1 for
/// a root); `request` groups the spans of one request or iteration.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = -1;
  int64_t parent = -1;
  int64_t request = -1;
};

/// In-memory span recorder for traced runs.  Recording is a no-op while
/// disabled, so workload code records unconditionally.  The layer of a
/// span is its name up to the first '.'.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const std::string& name, double start_us, double end_us,
              int64_t parent, int64_t request);

  /// Reserves `n` consecutive request ids and returns the first.
  int64_t ReserveRequestIds(int64_t n);

  std::vector<SpanRecord> Snapshot() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  int64_t next_request_ = 0;       // guarded by mu_
};

/// Layer name of a span name ("bolt.Engine::Run" -> "bolt").
std::string LayerOf(const std::string& span_name);

/// Self time per layer, in microseconds: each span's duration minus the
/// part of its interval covered by its direct children (clipped to the
/// parent), summed by layer.
std::map<std::string, double> LayerSelfUs(
    const std::vector<SpanRecord>& spans);

/// Writes spans as a JSON array of objects.
bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans,
                const std::string& env_json);

/// Snapshots of the library's process-wide metrics registry.
double CounterValue(const std::string& name);
double HistogramSum(const std::string& name);
/// Summed wall time of the CPU kernel launches (cpu.conv.us +
/// cpu.gemm.us), in microseconds.
double CpuKernelUs();
/// cpu.conv.launches + cpu.gemm.launches.
double CpuKernelLaunches();

/// The resolved CPU tier name ("scalar", "avx2", "avx512").
std::string ResolvedIsaName();

/// JSON object stamping where a result was measured: resolved ISA tier,
/// BOLT_CPU_THREADS, nproc, detected cache sizes, commit and seed.
std::string EnvStampJson(uint64_t seed, const std::string& commit,
                         const std::string& workload, bool traced);

}  // namespace perfbench
