// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--commit <id>] [--trace-out <path>]
//
// Runs one workload in this process and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Untraced
// runs report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer table and write the recorded spans to --trace-out.
// run.py builds this binary and pins the environment (threads, ISA).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "resnet18_b1|resnet18_tune|mlp_serve --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("bad --trace");
      }
      cfg.traced = v[0] == '1';
    } else if (flag == "--commit") {
      commit = v;
    } else if (flag == "--trace-out") {
      cfg.trace_path = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");

  perfbench::Result out;
  if (cfg.workload == "resnet18_b1") {
    perfbench::RunResNetB1(cfg, out);
  } else if (cfg.workload == "resnet18_tune") {
    perfbench::RunResNetTune(cfg, out);
  } else if (cfg.workload == "mlp_serve") {
    perfbench::RunMlpServe(cfg, out);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }

  const std::string env =
      perfbench::EnvStampJson(cfg.seed, commit, cfg.workload, cfg.traced);
  if (cfg.traced) {
    perfbench::ReportSelfTimes(out);
    perfbench::RunLayerProbes(cfg, out);
    if (!cfg.trace_path.empty() &&
        !perfbench::WriteSpans(cfg.trace_path, out.tracer.Snapshot(), env)) {
      std::fprintf(stderr, "cannot write %s\n", cfg.trace_path.c_str());
      return 2;
    }
  } else if (!out.metrics.Has("peak_rss_mb")) {
    out.metrics.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }

  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# env %s\n", env.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.tally.failed == 0 && out.tally.attempted > 0 ? "true" : "false",
      static_cast<long long>(out.tally.attempted),
      static_cast<long long>(out.tally.failed), out.metrics.Json().c_str());
  return 0;
}
