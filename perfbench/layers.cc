// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The per-layer table of traced runs.  Every number is measured from
// outside the library, by timing calls into a module's public functions
// and by reading the counters of the library's metrics registry around
// them.  See README.md for which end-to-end metric each one should move.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bolt/engine.h"
#include "common/rng.h"
#include "cpukernels/backend.h"
#include "cpukernels/conv.h"
#include "cpukernels/gemm.h"
#include "cpukernels/tuned.h"
#include "ir/interpreter.h"
#include "workloads.h"

namespace perfbench {

using bolt::CompileOptions;
using bolt::Engine;
using bolt::Graph;
using bolt::Tensor;
namespace ck = bolt::cpukernels;

namespace {

double MsSince(double t0_us) { return (NowUs() - t0_us) * 1e-3; }

/// Median wall time of `reps` calls of `fn`, in microseconds.
double MedianUs(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowUs();
    fn();
    us.push_back(NowUs() - t0);
  }
  return Median(us);
}

Tensor RandomTensor(const bolt::TensorDesc& desc, uint64_t seed) {
  Tensor t(desc);
  bolt::Rng rng(seed);
  rng.FillNormal(t.data(), 0.5f);
  t.Quantize();
  return t;
}

/// One Conv2d or Dense node of the primitive graph, replayable as a
/// standalone cpukernels call on its own shapes and weights.
struct KernelProblem {
  bool conv = false;
  Tensor x;
  const Tensor* w = nullptr;
  ck::ConvParams params;
  ck::Epilogue epi;
  ck::TunedKind kind = ck::TunedKind::kGemm;
  int64_t m = 0, n = 0, k = 0;
  bolt::Layout layout = bolt::Layout::kRowMajor;

  Tensor Run(const ck::BlockConfig& block) const {
    return conv ? ck::Conv2d(x, *w, params, epi, block, &ck::ProcessPool())
                : ck::Gemm(x, *w, epi, block, &ck::ProcessPool());
  }
  std::optional<ck::BlockConfig> Tuned() const {
    return ck::FindTunedBlock(kind, m, n, k, layout);
  }
};

std::vector<KernelProblem> KernelProblems(const Graph& g, uint64_t seed) {
  std::vector<KernelProblem> out;
  for (const bolt::Node& node : g.nodes()) {
    if (node.kind != bolt::OpKind::kConv2d &&
        node.kind != bolt::OpKind::kDense) {
      continue;
    }
    KernelProblem p;
    p.conv = node.kind == bolt::OpKind::kConv2d;
    p.x = RandomTensor(g.node(node.inputs[0]).out_desc, seed + node.id);
    p.w = &g.constant(node.inputs[1]);
    p.epi.output_dtype = node.out_desc.dtype;
    p.epi.boundary_quantize = true;
    if (p.conv) {
      const bolt::Conv2dAttrs a = bolt::Conv2dAttrs::FromNode(node);
      p.params.stride_h = a.stride_h;
      p.params.stride_w = a.stride_w;
      p.params.pad_h = a.pad_h;
      p.params.pad_w = a.pad_w;
      p.params.dilation_h = a.dilation_h;
      p.params.dilation_w = a.dilation_w;
      const ck::ConvGemmShape s = ck::ResolveConvGemmShape(p.x, *p.w,
                                                           p.params);
      p.kind = ck::TunedKind::kConv;
      p.m = s.m;
      p.n = s.n;
      p.k = s.k;
      p.layout = p.x.layout();
    } else {
      p.m = p.x.shape()[0];
      p.n = p.w->shape()[0];
      p.k = p.x.shape()[1];
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Counter deltas around `reps` calls of `fn`: kernel share of the wall
/// time (median over calls) and per-call launch / lookup counts.
struct RunCounters {
  double kernel_share = 0.0;
  double launches = 0.0;
  double tuned_lookups = 0.0;
  double avx512_launches = 0.0;
};

double TunedLookups() {
  return CounterValue("cpu.tuned.lookup.hit") +
         CounterValue("cpu.tuned.lookup.miss") +
         CounterValue("cpu.tuned.lookup.near");
}

RunCounters MeasureRuns(int reps, const std::function<bool()>& fn,
                        Result& out, const char* what) {
  RunCounters c;
  std::vector<double> share;
  const double l0 = CpuKernelLaunches(), t0 = TunedLookups(),
               a0 = CounterValue("cpu.isa.avx512.launches");
  for (int i = 0; i < reps; ++i) {
    const double k0 = CpuKernelUs();
    const double w0 = NowUs();
    out.tally.Check(fn(), what);
    const double wall = NowUs() - w0;
    share.push_back((CpuKernelUs() - k0) / wall);
  }
  c.kernel_share = Median(share);
  c.launches = (CpuKernelLaunches() - l0) / reps;
  c.tuned_lookups = (TunedLookups() - t0) / reps;
  c.avx512_launches = (CounterValue("cpu.isa.avx512.launches") - a0) / reps;
  return c;
}

void ProbeBoltAndKernels(const Graph& g, uint64_t seed, Result& out,
                         double* untuned_compile_ms) {
  MetricTable& m = out.metrics;
  std::vector<double> compile_ms;
  std::optional<Engine> engine;
  for (int i = 0; i < 3; ++i) {
    const double t0 = NowUs();
    engine.emplace(CompileOrDie(g, CompileOptions{}));
    compile_ms.push_back(MsSince(t0));
  }
  *untuned_compile_ms = Median(compile_ms);
  m.Set("bolt.compile_ms", *untuned_compile_ms, "ms");
  m.Set("bolt.graph.nodes", engine->optimized_graph().num_nodes(), "count");
  const bolt::PassStats& ps = engine->tuning_report().pass_stats;
  m.Set("bolt.epilogues_fused", ps.epilogues_fused, "count");
  m.Set("bolt.persistent_fused", ps.persistent_fused, "count");
  int splitk = 0;
  for (const auto& l : engine->module().launches()) {
    const bool conv = l.kind == bolt::codegen::LaunchKind::kConv ||
                      l.kind == bolt::codegen::LaunchKind::kB2bConv;
    if (conv && l.kernel_name.find("_splitk") != std::string::npos) ++splitk;
  }
  m.Set("bolt.run.splitk_convs", splitk, "count");
  m.Set("device.sim_latency_us", engine->EstimatedLatencyUs(), "sim_us");
  m.Set("profiler.sim_tune_s", engine->tuning_report().seconds, "sim_s");

  std::vector<double> ctor_ms;
  for (int i = 0; i < 5; ++i) {
    const double t0 = NowUs();
    const bolt::Interpreter interp(g);
    ctor_ms.push_back(MsSince(t0));
  }
  m.Set("ir.interp.ctor_ms", Median(ctor_ms), "ms");

  const std::map<std::string, Tensor> inputs{
      {kResNetInputName, ResNetInput(seed)}};
  const bolt::Interpreter interp(g);
  const std::vector<Tensor> ref =
      bolt::RefExecutor(g).Run(inputs).value();
  const RunCounters ec = MeasureRuns(
      3,
      [&] {
        auto r = engine->Run(inputs);
        return r.ok() && MatchesEngineTolerance(r.value()[0], ref[0]);
      },
      out, "probe Engine::Run vs RefExecutor");
  m.Set("bolt.run.cpukernels_share", ec.kernel_share, "frac");
  m.Set("bolt.run.cpukernels_launches", ec.launches, "count");
  const RunCounters ic = MeasureRuns(
      3,
      [&] {
        auto r = interp.Run(inputs);
        return r.ok() && MatchesTwoTier(r.value()[0], ref[0]);
      },
      out, "probe Interpreter::Run vs RefExecutor");
  m.Set("ir.interp.cpukernels_share", ic.kernel_share, "frac");
  m.Set("cpukernels.launches_per_run", ic.launches, "count");
  m.Set("cpukernels.tuned_lookups_per_run", ic.tuned_lookups, "count");
  m.Set("cpukernels.avx512_launches_per_run", ic.avx512_launches, "count");

  double replay_us = 0.0;
  for (const KernelProblem& p : KernelProblems(g, seed)) {
    replay_us += MedianUs(3, [&] { p.Run(ck::BlockConfig{}); });
  }
  m.Set("cpukernels.replay_ms", replay_us * 1e-3, "ms");

  const Tensor w = RandomTensor(
      bolt::TensorDesc(bolt::DType::kFloat32, {512, 4608}), seed + 1);
  for (int64_t rows : {1, 64}) {
    const Tensor a = RandomTensor(
        bolt::TensorDesc(bolt::DType::kFloat32, {rows, 4608}), seed + 2);
    const double us = MedianUs(rows == 1 ? 7 : 3, [&] {
      ck::Gemm(a, w, ck::Epilogue{}, ck::BlockConfig{}, &ck::ProcessPool());
    });
    m.Set("cpukernels.gemm_m" + std::to_string(rows) + "_n512_k4608_us", us,
          "us");
  }
}

void ProbeProfiler(const Graph& g, uint64_t seed, double untuned_compile_ms,
                   Result& out) {
  MetricTable& m = out.metrics;
  const std::vector<KernelProblem> problems = KernelProblems(g, seed);
  std::vector<std::vector<std::optional<ck::BlockConfig>>> picks;
  std::vector<double> cold_ms;
  bolt::TuningReport report;
  double warm_ms = 0.0;
  for (int t = 0; t < 2; ++t) {
    ck::ClearTunedBlocks();
    CompileOptions options;
    options.tune_cpu_kernels = true;
    bolt::Profiler profiler(options.device, options.profiler_cost);
    options.shared_profiler = &profiler;
    double t0 = NowUs();
    report = CompileOrDie(g, options).tuning_report();
    cold_ms.push_back(MsSince(t0));
    picks.emplace_back();
    for (const KernelProblem& p : problems) picks.back().push_back(p.Tuned());
    t0 = NowUs();
    CompileOrDie(g, options);  // same profiler: every sweep is a cache hit
    warm_ms = MsSince(t0);
  }
  m.Set("profiler.cpu_tune_ms", Median(cold_ms) - untuned_compile_ms, "ms");
  m.Set("profiler.warm_compile_ms", warm_ms, "ms");
  m.Set("profiler.candidates_measured", report.cpu_candidates_tried,
        "count");
  m.Set("profiler.candidates_enumerated", report.cpu_candidates_enumerated,
        "count");
  m.Set("profiler.measured_frac",
        report.cpu_candidates_enumerated > 0
            ? static_cast<double>(report.cpu_candidates_tried) /
                  report.cpu_candidates_enumerated
            : 0.0,
        "frac");
  m.Set("profiler.ranked_workloads", report.cpu_ranked_workloads, "count");

  int both = 0, same = 0;
  std::vector<double> ratio;
  for (size_t i = 0; i < problems.size(); ++i) {
    if (!picks[0][i] || !picks[1][i]) continue;
    ++both;
    if (*picks[0][i] == *picks[1][i]) ++same;
    // The registry holds the second tuning's blocks.
    const KernelProblem& p = problems[i];
    const double tuned = MedianUs(3, [&] { p.Run(*picks[1][i]); });
    const double heuristic = MedianUs(3, [&] { p.Run(ck::BlockConfig{}); });
    ratio.push_back(tuned / heuristic);
  }
  m.Set("profiler.tuned_problems", both, "count");
  m.Set("profiler.selection_agreement",
        both > 0 ? static_cast<double>(same) / both : 1.0, "frac");
  m.Set("profiler.tuned_vs_heuristic", ratio.empty() ? 1.0 : GeoMean(ratio),
        "ratio");
  ck::ClearTunedBlocks();
}

}  // namespace

void RunLayerProbes(const RunConfig& cfg, Result& out) {
  ck::ClearTunedBlocks();
  const Graph g = BuildResNet18(cfg.seed);
  double untuned_compile_ms = 0.0;
  ProbeBoltAndKernels(g, cfg.seed, out, &untuned_compile_ms);
  ProbeProfiler(g, cfg.seed, untuned_compile_ms, out);
  ProbeServing(cfg, out);
}

void ReportSelfTimes(Result& out) {
  const std::vector<SpanRecord> spans = out.tracer.Snapshot();
  const std::map<std::string, double> self = LayerSelfUs(spans);
  double total = 0.0;
  std::map<int64_t, std::vector<SpanRecord>> by_request;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) total += s.end_us - s.start_us;
    by_request[s.request].push_back(s);
  }
  for (const char* layer : {"bench", "gen", "serve", "bolt", "ir",
                            "cpukernels"}) {
    auto it = self.find(layer);
    out.metrics.Set(std::string("self.") + layer + "_frac",
                    it == self.end() || total <= 0 ? 0.0 : it->second / total,
                    "frac");
  }
  // Per request: the layers' self times must add up to the request's
  // wall time.
  double worst = 0.0;
  for (const auto& [request, rs] : by_request) {
    double wall = 0.0, sum = 0.0;
    for (const SpanRecord& s : rs) {
      if (s.parent < 0) wall += s.end_us - s.start_us;
    }
    for (const auto& [layer, us] : LayerSelfUs(rs)) sum += us;
    if (wall > 0) worst = std::max(worst, std::abs(sum - wall) / wall);
  }
  out.metrics.Set("trace.self_sum_err", worst, "frac");
  out.metrics.Set("trace.requests", static_cast<double>(by_request.size()),
                  "count");
}

}  // namespace perfbench
