// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The benchmark's workloads and the traced layer probes.  Each entry
// point fills a Result: end-to-end metrics in an untraced run, per-layer
// metrics in a traced one (see README.md for the metric map).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bolt/engine.h"
#include "harness.h"
#include "ir/graph.h"
#include "ir/tensor.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_path;  // spans are written here in traced runs
};

struct Result {
  MetricTable metrics;
  Tally tally;
  Tracer tracer;
  /// Labels printed beside the result (e.g. "slo_rate_rps=generator-bound").
  std::vector<std::string> notes;
};

// ---- models (seeded inputs) -------------------------------------------

/// ResNet-18, NHWC, 56x56x3 input, 100 classes, FP16, materialized
/// weights drawn from `seed`, batch 1.
bolt::Graph BuildResNet18(uint64_t seed);
/// The seeded input image for `BuildResNet18` graphs.
bolt::Tensor ResNetInput(uint64_t seed);
extern const char* const kResNetInputName;

/// The serving MLP 64 -> 256 -> 64 (FP32, bias + ReLU, softmax) at a
/// given batch; weights are drawn from `seed`.
bolt::Graph BuildMlp(int64_t batch, uint64_t seed);
/// One seeded single-row MLP request.
bolt::Tensor MlpRow(uint64_t seed);

/// Output check under the two-tier numeric contract for the resolved
/// tier: bit-exact at the scalar tier, ULP-bounded at a SIMD tier.
bool MatchesTwoTier(const bolt::Tensor& got, const bolt::Tensor& want);
/// Engine-vs-reference check: max |diff| within the 5e-3 the engine
/// tests allow for fused FP16 epilogues.
bool MatchesEngineTolerance(const bolt::Tensor& got, const bolt::Tensor& want);
bool BitIdentical(const bolt::Tensor& a, const bolt::Tensor& b);
/// Engine::Compile, exiting with the status on failure.
bolt::Engine CompileOrDie(const bolt::Graph& g,
                          const bolt::CompileOptions& options);
bool AllBitIdentical(const std::vector<bolt::Tensor>& a,
                     const std::vector<bolt::Tensor>& b);

// ---- workloads ----------------------------------------------------------

void RunResNetB1(const RunConfig& cfg, Result& out);
void RunResNetTune(const RunConfig& cfg, Result& out);
void RunMlpServe(const RunConfig& cfg, Result& out);

/// Traced runs only: measures the per-layer table (bolt, ir, cpukernels,
/// profiler, device, serve) through public entry points.
void RunLayerProbes(const RunConfig& cfg, Result& out);
/// The serving rows of the layer table (bolt.run_batch_us.*, serve.*).
void ProbeServing(const RunConfig& cfg, Result& out);

/// Adds per-layer self-time shares of the recorded spans
/// (`self.<layer>_frac`) and the worst per-request gap between summed
/// self times and the request's wall time (`trace.self_sum_err`).
void ReportSelfTimes(Result& out);

}  // namespace perfbench
