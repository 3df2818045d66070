// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/metrics.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  return v[i];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = {value, unit};
      return;
    }
  }
  rows_.push_back({name, {value, unit}});
}

bool MetricTable::Has(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.first == name) return true;
  }
  return false;
}

std::string MetricTable::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const double v = std::isfinite(rows_[i].second.first)
                         ? rows_[i].second.first
                         : 0.0;
    out << (i ? "," : "") << "\"" << rows_[i].first << "\":{\"value\":" << v
        << ",\"unit\":\"" << rows_[i].second.second << "\"}";
  }
  out << "}";
  return out.str();
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

int64_t Tracer::Add(const std::string& name, double start_us, double end_us,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({name, start_us, end_us, id, parent, request});
  return id;
}

int64_t Tracer::ReserveRequestIds(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t first = next_request_;
  next_request_ += n;
  return first;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> LayerSelfUs(
    const std::vector<SpanRecord>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's clipped intervals.
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : c) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const double dur = spans[i].end_us - spans[i].start_us;
    self[LayerOf(spans[i].name)] += std::max(0.0, dur - covered);
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans,
                const std::string& env_json) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  out << "{\"env\":" << env_json << ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double CounterValue(const std::string& name) {
  return static_cast<double>(
      bolt::metrics::Registry::Global().GetCounter(name).value());
}

double HistogramSum(const std::string& name) {
  return bolt::metrics::Registry::Global().GetHistogram(name).sum();
}

double CpuKernelUs() {
  return HistogramSum("cpu.conv.us") + HistogramSum("cpu.gemm.us");
}

double CpuKernelLaunches() {
  return CounterValue("cpu.conv.launches") +
         CounterValue("cpu.gemm.launches");
}

std::string ResolvedIsaName() {
  using bolt::cpukernels::CpuIsa;
  return bolt::cpukernels::CpuIsaName(
      bolt::cpukernels::ResolveCpuIsa(CpuIsa::kAuto));
}

std::string EnvStampJson(uint64_t seed, const std::string& commit,
                         const std::string& workload, bool traced) {
  const auto& cache = bolt::cpukernels::HostCacheInfo();
  const char* threads_env = std::getenv("BOLT_CPU_THREADS");
  std::ostringstream out;
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false") << ",\"isa\":\""
      << ResolvedIsaName() << "\",\"bolt_cpu_threads_env\":\""
      << (threads_env ? threads_env : "") << "\",\"cpu_threads\":"
      << bolt::cpukernels::DefaultNumThreads()
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"l1_bytes\":" << cache.l1_bytes << ",\"l2_bytes\":"
      << cache.l2_bytes << ",\"l3_bytes\":" << cache.l3_bytes
      << ",\"commit\":\"" << commit << "\"}";
  return out.str();
}

}  // namespace perfbench
