// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The two ResNet-18 workloads.  Both run one closed-loop caller that
// alternates Engine::Run and Interpreter::Run call by call (ABBA order),
// so drift in the host's memory traffic hits both paths equally.
//
//   resnet18_b1    default compile; setup_s = median of repeated compiles.
//   resnet18_tune  cold compiles with CPU autotuning (fresh Profiler, no
//                  cache file, cleared tuned-block registry), each
//                  followed by the same loop; latency pooled across them.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bolt/engine.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/tuned.h"
#include "ir/interpreter.h"
#include "models/zoo.h"
#include "workloads.h"

namespace perfbench {

using bolt::CompileOptions;
using bolt::Engine;
using bolt::Graph;
using bolt::Interpreter;
using bolt::RefExecutor;
using bolt::Tensor;

const char* const kResNetInputName = "data";

Graph BuildResNet18(uint64_t seed) {
  bolt::models::ModelOptions o;
  o.batch = 1;
  o.image_size = 56;
  o.in_channels = 3;
  o.num_classes = 100;
  o.dtype = bolt::DType::kFloat16;
  o.layout = bolt::Layout::kNHWC;
  o.materialize_weights = true;
  o.seed = seed;
  auto g = bolt::models::BuildResNet(18, o);
  if (!g.ok()) {
    std::fprintf(stderr, "BuildResNet: %s\n", g.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(g).value();
}

Tensor ResNetInput(uint64_t seed) {
  Tensor t(bolt::TensorDesc(bolt::DType::kFloat16, {1, 56, 56, 3},
                            bolt::Layout::kNHWC));
  bolt::Rng rng(seed ^ 0x5eed1a9e5ULL);
  rng.FillNormal(t.data(), 0.7f);
  t.Quantize();
  return t;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.desc() == b.desc() && a.data() == b.data();
}

bool AllBitIdentical(const std::vector<Tensor>& a,
                     const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitIdentical(a[i], b[i])) return false;
  }
  return true;
}

bool MatchesTwoTier(const Tensor& got, const Tensor& want) {
  if (got.num_elements() != want.num_elements()) return false;
  if (bolt::cpukernels::ResolveCpuIsa(bolt::cpukernels::CpuIsa::kAuto) ==
      bolt::cpukernels::CpuIsa::kScalar) {
    return got.MaxAbsDiff(want) == 0.0f;
  }
  const int64_t bound = got.dtype() == bolt::DType::kFloat16
                            ? bolt::kSimdMaxUlpsFloat16
                            : bolt::kSimdMaxUlpsFloat32;
  return got.MaxUlpDiff(want, bolt::kSimdUlpAbsEscape) <= bound;
}

bool MatchesEngineTolerance(const Tensor& got, const Tensor& want) {
  return got.num_elements() == want.num_elements() &&
         got.MaxAbsDiff(want) <= 5e-3f;
}

Engine CompileOrDie(const Graph& g, const CompileOptions& options) {
  auto e = Engine::Compile(g, options);
  if (!e.ok()) {
    std::fprintf(stderr, "Engine::Compile: %s\n",
                 e.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(e).value();
}

namespace {

double SecondsSince(double t0_us) { return (NowUs() - t0_us) * 1e-6; }

/// Latency samples of one workload, in ms.
struct LoopSamples {
  std::vector<double> engine_ms;
  std::vector<double> interp_ms;
  std::vector<double> iter_traced_ms;    // traced runs: whole iterations
  std::vector<double> iter_untraced_ms;  // with tracing on / off
};

/// One closed-loop caller alternating Engine::Run and Interpreter::Run.
/// Every output is checked: the interpreter against the reference
/// under the two-tier contract, the engine against the reference within
/// the engine tolerance on its first call and bit-identical to that
/// first output on every later call.
class AlternatingLoop {
 public:
  AlternatingLoop(const Engine& engine, const Interpreter& interp,
                  const Tensor& input, const std::vector<Tensor>& ref,
                  Result& out)
      : engine_(engine), interp_(interp), ref_(ref), out_(out) {
    inputs_.emplace(kResNetInputName, input);
  }

  void RunFor(double seconds, bool traced, LoopSamples& s) {
    const double t_end = NowUs() + seconds * 1e6;
    while (NowUs() < t_end) RunOnce(traced, s);
  }

 private:
  struct Call {
    const char* name;
    double t0, t1, kernel_us;
  };

  Call Time(bool engine, bool traced) {
    Call c{engine ? "bolt.Engine::Run" : "ir.Interpreter::Run", 0, 0, 0};
    const double k0 = traced ? CpuKernelUs() : 0.0;
    c.t0 = NowUs();
    auto r = engine ? engine_.Run(inputs_) : interp_.Run(inputs_);
    c.t1 = NowUs();
    if (traced) c.kernel_us = CpuKernelUs() - k0;
    if (!r.ok()) {
      out_.tally.Check(false, r.status().ToString());
      return c;
    }
    std::vector<Tensor>& got = r.value();
    if (!engine) {
      bool ok = got.size() == ref_.size();
      for (size_t i = 0; ok && i < got.size(); ++i) {
        ok = MatchesTwoTier(got[i], ref_[i]);
      }
      out_.tally.Check(ok, "Interpreter::Run vs RefExecutor");
    } else if (!engine_first_) {
      bool ok = got.size() == ref_.size();
      for (size_t i = 0; ok && i < got.size(); ++i) {
        ok = MatchesEngineTolerance(got[i], ref_[i]);
      }
      out_.tally.Check(ok, "Engine::Run vs RefExecutor");
      engine_first_ = std::move(got);
    } else {
      out_.tally.Check(AllBitIdentical(got, *engine_first_),
                       "Engine::Run repeat not bit-identical");
    }
    return c;
  }

  void RunOnce(bool traced_run, LoopSamples& s) {
    // In traced runs every other iteration records spans, so the cost
    // of tracing is measured inside the same run.
    const bool traced = traced_run && (iter_ % 2 == 1);
    out_.tracer.set_enabled(traced);
    const bool engine_first = iter_ % 2 == 0;  // ABBA order
    const double t0 = NowUs();
    const Call a = Time(engine_first, traced);
    const Call b = Time(!engine_first, traced);
    const double t1 = NowUs();
    const Call& e = engine_first ? a : b;
    const Call& i = engine_first ? b : a;
    s.engine_ms.push_back((e.t1 - e.t0) * 1e-3);
    s.interp_ms.push_back((i.t1 - i.t0) * 1e-3);
    if (traced_run) {
      (traced ? s.iter_traced_ms : s.iter_untraced_ms)
          .push_back((t1 - t0) * 1e-3);
    }
    if (traced) {
      const int64_t req = out_.tracer.ReserveRequestIds(1);
      const int64_t root = out_.tracer.Add("bench.iteration", t0, t1, -1,
                                           req);
      for (const Call* c : {&a, &b}) {
        const int64_t id = out_.tracer.Add(c->name, c->t0, c->t1, root,
                                           req);
        // The kernels' share of the call, from the library's own
        // cpu.{conv,gemm}.us histograms, as a child span ending with it.
        const double k = std::min(c->kernel_us, c->t1 - c->t0);
        if (k > 0) {
          out_.tracer.Add("cpukernels.launches", c->t1 - k, c->t1, id, req);
        }
      }
    }
    out_.tracer.set_enabled(false);
    ++iter_;
  }

  const Engine& engine_;
  const Interpreter& interp_;
  const std::vector<Tensor>& ref_;
  Result& out_;
  std::map<std::string, Tensor> inputs_;
  std::optional<std::vector<Tensor>> engine_first_;
  int64_t iter_ = 0;
};

std::vector<Tensor> ReferenceOutputs(const Graph& g, const Tensor& input) {
  auto r = RefExecutor(g).Run({{kResNetInputName, input}});
  if (!r.ok()) {
    std::fprintf(stderr, "RefExecutor: %s\n", r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

void ReportLoop(const LoopSamples& s, double setup_s, Result& out) {
  MetricTable& m = out.metrics;
  m.Set("setup_s", setup_s, "s");
  m.Set("lat.p50_ms", Percentile(s.engine_ms, 0.5), "ms");
  m.Set("lat.p90_ms", Percentile(s.engine_ms, 0.9), "ms");
  m.Set("lat_alt.p50_ms", Percentile(s.interp_ms, 0.5), "ms");
  m.Set("lat_alt.p90_ms", Percentile(s.interp_ms, 0.9), "ms");
  // A closed-loop workload has no offered rate to search: report the
  // rate its one caller sustains on Engine::Run at the median latency.
  m.Set("slo_rate_rps", 1e3 / Percentile(s.engine_ms, 0.5), "1/s");
  out.notes.push_back("samples engine=" + std::to_string(s.engine_ms.size()) +
                      " interpreter=" + std::to_string(s.interp_ms.size()));
  if (!s.iter_traced_ms.empty() && !s.iter_untraced_ms.empty()) {
    out.metrics.Set("trace.overhead_frac",
                    Median(s.iter_traced_ms) / Median(s.iter_untraced_ms) -
                        1.0,
                    "frac");
  }
}

constexpr int kB1Compiles = 5;
constexpr int kColdTunings = 5;

}  // namespace

void RunResNetB1(const RunConfig& cfg, Result& out) {
  const Graph g = BuildResNet18(cfg.seed);
  const Tensor input = ResNetInput(cfg.seed);
  const std::vector<Tensor> ref = ReferenceOutputs(g, input);

  std::vector<double> compile_s;
  std::optional<Engine> engine;
  for (int i = 0; i < kB1Compiles; ++i) {
    const double t0 = NowUs();
    engine.emplace(CompileOrDie(g, CompileOptions{}));
    compile_s.push_back(SecondsSince(t0));
  }
  const Interpreter interp(g);

  LoopSamples s;
  AlternatingLoop loop(*engine, interp, input, ref, out);
  loop.RunFor(cfg.seconds, cfg.traced, s);
  ReportLoop(s, Median(compile_s), out);
}

void RunResNetTune(const RunConfig& cfg, Result& out) {
  const Graph g = BuildResNet18(cfg.seed);
  const Tensor input = ResNetInput(cfg.seed);
  const std::vector<Tensor> ref = ReferenceOutputs(g, input);
  const Interpreter interp(g);  // reads the tuned registry per launch

  std::vector<double> tune_s;
  LoopSamples s;
  for (int t = 0; t < kColdTunings; ++t) {
    bolt::cpukernels::ClearTunedBlocks();
    CompileOptions options;
    options.tune_cpu_kernels = true;
    bolt::Profiler profiler(options.device, options.profiler_cost);
    options.shared_profiler = &profiler;
    const double t0 = NowUs();
    const Engine engine = CompileOrDie(g, options);
    tune_s.push_back(SecondsSince(t0));
    AlternatingLoop loop(engine, interp, input, ref, out);
    loop.RunFor(cfg.seconds / kColdTunings, cfg.traced, s);
  }
  ReportLoop(s, Median(tune_s), out);
}

}  // namespace perfbench
