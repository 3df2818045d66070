// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The mlp_serve workload: an open loop against serve::Server.  One
// generator thread submits single-row requests on a fixed schedule and
// one collector thread waits for the responses in submission order.
// Every request is timed from when it was due, not from when Submit
// returned, so a stall charges its wait to the requests queued behind
// it; how late the generator itself ran is reported separately.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bolt/engine.h"
#include "common/rng.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using bolt::Graph;
using bolt::Tensor;
using bolt::serve::Server;

namespace {

constexpr int64_t kIn = 64;
constexpr int64_t kHidden = 256;
constexpr int64_t kOut = 64;
const std::vector<int64_t> kBuckets = {1, 2, 4, 8};
constexpr int64_t kPoolSize = 512;  // distinct request rows per run
constexpr double kSloP90Ms = 1.0;
constexpr double kLowRate = 500.0;
constexpr double kHighRate = 30000.0;
constexpr int kSetupRepeats = 15;
// Windows per phase: about one second each at the low rate, half a
// second at the high rate and in rate-search probes.
constexpr double kLowWindowS = 1.0;
constexpr double kHighWindowS = 0.5;
// Rate-search probes: three windows each, judged on their median p90.
constexpr double kProbeS = 1.2;
constexpr int kProbeWindows = 3;

Tensor Fp32Weight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(bolt::TensorDesc(bolt::DType::kFloat32, std::move(shape)));
  bolt::Rng rng(seed);
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  return t;
}

void Die(const std::string& what, const bolt::Status& st) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(2);
}

bolt::serve::ServerOptions MlpServerOptions() {
  bolt::serve::ServerOptions o;
  o.queue_capacity = 1024;
  o.batcher.max_wait_us = 100;
  o.batcher.num_workers = 2;
  return o;
}

/// Constructs, registers, starts and prewarms a server: the set-up a
/// serving deployment pays before its first request.
std::unique_ptr<Server> StartServer(uint64_t seed) {
  auto server = std::make_unique<Server>(MlpServerOptions());
  bolt::serve::ModelSpec spec;
  spec.name = "mlp";
  spec.build_graph = [seed](int64_t batch) -> bolt::Result<Graph> {
    return BuildMlp(batch, seed);
  };
  auto policy = bolt::serve::BucketPolicy::Create(kBuckets);
  if (!policy.ok()) Die("BucketPolicy", policy.status());
  spec.buckets = std::move(policy).value();
  bolt::Status st = server->RegisterModel(std::move(spec));
  if (!st.ok()) Die("RegisterModel", st);
  st = server->Start();
  if (!st.ok()) Die("Start", st);
  const bolt::serve::PrewarmStats warm = server->Prewarm();
  if (warm.failed != 0) {
    Die("Prewarm", bolt::Status::Internal("bucket compile failed"));
  }
  return server;
}

bolt::Engine CompileMlp(int64_t batch, uint64_t seed) {
  return CompileOrDie(BuildMlp(batch, seed), bolt::CompileOptions{});
}

/// Seeded request rows and, for each, the response it must produce:
/// Engine::RunBatch of that request alone.
struct RequestPool {
  std::vector<Tensor> rows;
  std::vector<std::vector<Tensor>> expected;

  RequestPool(uint64_t seed, const bolt::Engine& b1) {
    for (int64_t i = 0; i < kPoolSize; ++i) {
      rows.push_back(MlpRow(seed * 1000003ULL + static_cast<uint64_t>(i)));
      auto r = b1.RunBatch({rows.back()});
      if (!r.ok()) Die("RunBatch(b1)", r.status());
      expected.push_back(std::move(r.value()[0]));
    }
  }
};

struct Phase {
  double offered_rps = 0.0;
  int64_t sent = 0, ok = 0, failed = 0, rejected = 0;
  /// Per request in due order: due -> response in ms, +inf for a failed
  /// or rejected request (it misses any latency limit).
  std::vector<double> lat_ms;
  std::vector<double> late_us;    // submit start - due
  std::vector<double> submit_us;  // duration of the Submit call
  /// End index in lat_ms of each window (a slice of the schedule).
  std::vector<size_t> window_ends;
  double send_rps = 0.0;          // achieved submission rate
  bool backlog_grew = false;
  /// The generator fell behind while the server held no backlog.
  bool generator_bound = false;

  /// Median over the phase's windows of each window's q-percentile: a
  /// burst of host interference in one window cannot set the result.
  double LatencyMs(double q) const {
    std::vector<double> per_window;
    size_t lo = 0;
    for (size_t hi : window_ends) {
      per_window.push_back(Percentile(
          std::vector<double>(lat_ms.begin() + lo, lat_ms.begin() + hi), q));
      lo = hi;
    }
    return Median(per_window);
  }
  /// Adds the windows of a later phase at the same rate.
  void Append(const Phase& w) {
    offered_rps = w.offered_rps;
    sent += w.sent;
    ok += w.ok;
    failed += w.failed;
    rejected += w.rejected;
    for (size_t end : w.window_ends) {
      window_ends.push_back(lat_ms.size() + end);
    }
    lat_ms.insert(lat_ms.end(), w.lat_ms.begin(), w.lat_ms.end());
    late_us.insert(late_us.end(), w.late_us.begin(), w.late_us.end());
    submit_us.insert(submit_us.end(), w.submit_us.begin(), w.submit_us.end());
    send_rps = w.send_rps;
    backlog_grew = backlog_grew || w.backlog_grew;
    generator_bound = generator_bound || w.generator_bound;
  }
  double PooledMs(double q) const { return Percentile(lat_ms, q); }
  bool MeetsSlo() const {
    return sent > 0 && static_cast<double>(ok) >= 0.99 * sent &&
           LatencyMs(0.9) <= kSloP90Ms && !backlog_grew;
  }
};

/// Open loop at `rate` for `seconds`: the calling thread generates, a
/// collector thread waits on the responses in order and checks each one
/// bit for bit.
Phase RunPhase(Server& server, const RequestPool& pool, double rate,
               double seconds, int windows, uint64_t seed, Result& out) {
  struct Slot {
    Server::ResponseFuture future;
    double due = 0, submit_start = 0, submit_end = 0;
    size_t row = 0;
    int64_t inflight = 0;
    bool submitted = false;
    bolt::Status submit_status;  // why Submit refused, when it did
  };
  const int64_t n =
      std::max<int64_t>(1, static_cast<int64_t>(std::llround(rate * seconds)));
  std::vector<Slot> slots(static_cast<size_t>(n));
  bolt::Rng rng(seed);
  for (Slot& s : slots) {
    s.row = static_cast<size_t>(rng.Uniform(0, kPoolSize - 1));
  }
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> collected{0};
  const int64_t first_id = out.tracer.ReserveRequestIds(n);

  Phase p;
  p.offered_rps = rate;
  p.sent = n;
  const int64_t w = std::clamp<int64_t>(windows, 1, n);
  for (int64_t i = 1; i <= w; ++i) {
    p.window_ends.push_back(static_cast<size_t>(n * i / w));
  }
  p.lat_ms.assign(static_cast<size_t>(n),
                  std::numeric_limits<double>::infinity());
  std::thread collector([&] {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t seen = published.load(std::memory_order_acquire);
           seen <= i; seen = published.load(std::memory_order_acquire)) {
        published.wait(seen, std::memory_order_acquire);
      }
      Slot& s = slots[static_cast<size_t>(i)];
      if (!s.submitted) {
        const bolt::StatusCode code = s.submit_status.code();
        ++(code == bolt::StatusCode::kResourceExhausted ||
                   code == bolt::StatusCode::kDeadlineExceeded
               ? p.rejected
               : p.failed);
        out.tally.Check(false,
                        "submit failed: " + s.submit_status.ToString());
      } else {
        auto r = s.future.get();
        const double done = NowUs();
        if (r.ok()) {
          ++p.ok;
          p.lat_ms[static_cast<size_t>(i)] = (done - s.due) * 1e-3;
          out.tally.Check(AllBitIdentical(r.value(), pool.expected[s.row]),
                          "served response != RunBatch of the request");
        } else {
          ++p.failed;
          out.tally.Check(false, "request failed: " + r.status().ToString());
        }
        if (out.tracer.enabled()) {
          const int64_t id = first_id + i;
          const int64_t root =
              out.tracer.Add("bench.request", s.due, done, -1, id);
          out.tracer.Add("gen.late", s.due, s.submit_start, root, id);
          out.tracer.Add("serve.Submit", s.submit_start, s.submit_end, root,
                         id);
          out.tracer.Add("serve.response", s.submit_end, done, root, id);
        }
      }
      collected.store(i + 1, std::memory_order_release);
    }
  });

  // The default 50 us timer slack would make every sleep that late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double interval_us = 1e6 / rate;
  const double t0 = NowUs() + 1000.0;
  for (int64_t i = 0; i < n; ++i) {
    Slot& s = slots[static_cast<size_t>(i)];
    s.due = t0 + static_cast<double>(i) * interval_us;
    // Sleep, never spin: a spinning generator takes a CPU the server's
    // threads need, and on a shared host it loses every wakeup race.
    for (double now = NowUs(); now < s.due; now = NowUs()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(s.due - now));
    }
    s.inflight = i - collected.load(std::memory_order_acquire);
    s.submit_start = NowUs();
    auto f = server.Submit("mlp", pool.rows[s.row]);
    s.submit_end = NowUs();
    if (f.ok()) {
      s.future = std::move(f).value();
      s.submitted = true;
    } else {
      s.submit_status = f.status();
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  const double gen_end = NowUs();
  collector.join();

  std::vector<int64_t> inflight;
  for (const Slot& s : slots) {
    p.late_us.push_back(s.submit_start - s.due);
    p.submit_us.push_back(s.submit_end - s.submit_start);
    inflight.push_back(s.inflight);
  }
  p.send_rps = static_cast<double>(n) / std::max(1e-6, (gen_end - t0) * 1e-6);
  // Backlog growth: the median request of the last quarter waits
  // clearly longer than that of the first quarter.
  const size_t q = static_cast<size_t>(n) / 4;
  if (q > 0) {
    const double first = Median(
        std::vector<double>(p.lat_ms.begin(), p.lat_ms.begin() + q));
    const double last =
        Median(std::vector<double>(p.lat_ms.end() - q, p.lat_ms.end()));
    p.backlog_grew = last > 2.0 * first + 0.2;
  }
  std::sort(inflight.begin(), inflight.end());
  p.generator_bound = Percentile(p.late_us, 0.5) > 100.0 &&
                      inflight[inflight.size() / 2] < 16;
  return p;
}

std::string Describe(const Phase& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%.0f req/s: sent=%lld ok=%lld failed=%lld rejected=%lld "
                "p50=%.3f ms p90=%.3f ms (pooled %.3f / %.3f) "
                "late_p99=%.0f us send=%.0f/s%s%s",
                p.offered_rps, static_cast<long long>(p.sent),
                static_cast<long long>(p.ok),
                static_cast<long long>(p.failed),
                static_cast<long long>(p.rejected), p.LatencyMs(0.5),
                p.LatencyMs(0.9), p.PooledMs(0.5), p.PooledMs(0.9),
                Percentile(p.late_us, 0.99), p.send_rps,
                p.backlog_grew ? " backlog-grew" : "",
                p.generator_bound ? " generator-bound" : "");
  return buf;
}

/// Highest offered rate meeting the SLO (p90 <= 1 ms, >= 99% complete,
/// no backlog growth): a x1.2 ladder up to the first miss, then
/// geometric bisection until neighbouring probes differ by <= 4%.
double SearchSloRate(Server& server, const RequestPool& pool,
                     double probe_s, uint64_t seed, Result& out,
                     bool* generator_bound) {
  int probes = 0;
  auto probe = [&](double rate) {
    const Phase p = RunPhase(server, pool, rate, probe_s, kProbeWindows,
                             seed + 17 * ++probes, out);
    out.notes.push_back("slo probe " + Describe(p));
    return p;
  };
  double lo = 0.0, hi = 0.0;
  Phase hi_phase;
  for (double rate = 25000.0;; rate *= 1.2) {
    Phase p = probe(rate);
    if (!p.MeetsSlo()) {
      hi = rate;
      hi_phase = std::move(p);
      break;
    }
    lo = rate;
    if (rate > 1e6) break;  // no knee found below 1M req/s
  }
  if (lo == 0.0) {
    for (double rate = 25000.0 / 1.2; rate >= kLowRate; rate /= 1.2) {
      Phase p = probe(rate);
      if (p.MeetsSlo()) {
        lo = rate;
        break;
      }
      hi = rate;
      hi_phase = std::move(p);
    }
  }
  if (lo == 0.0) lo = kLowRate;
  while (hi > 0.0 && hi / lo > 1.04) {
    const double mid = std::sqrt(lo * hi);
    Phase p = probe(mid);
    if (p.MeetsSlo()) {
      lo = mid;
    } else {
      hi = mid;
      hi_phase = std::move(p);
    }
  }
  *generator_bound = hi_phase.generator_bound;
  return lo;
}

void ReportServePhases(const Phase& low, const Phase& high, Result& out) {
  MetricTable& m = out.metrics;
  m.Set("lat.p50_ms", low.LatencyMs(0.5), "ms");
  m.Set("lat.p90_ms", low.LatencyMs(0.9), "ms");
  m.Set("lat_alt.p50_ms", high.LatencyMs(0.5), "ms");
  m.Set("lat_alt.p90_ms", high.LatencyMs(0.9), "ms");
}

}  // namespace

Graph BuildMlp(int64_t batch, uint64_t seed) {
  bolt::GraphBuilder b(bolt::DType::kFloat32, bolt::Layout::kRowMajor);
  bolt::NodeId x = b.Input("x", {batch, kIn});
  const uint64_t s = seed * 7919ULL;
  bolt::NodeId y =
      b.Dense(x, b.Constant("w0", Fp32Weight({kHidden, kIn}, s + 1)), "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({kHidden}, s + 2)));
  y = b.Activation(y, bolt::ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({kOut, kHidden}, s + 3)), "fc1");
  y = b.Softmax(y);
  b.MarkOutput(y);
  auto g = b.Build();
  if (!g.ok()) Die("BuildMlp", g.status());
  return std::move(g).value();
}

Tensor MlpRow(uint64_t seed) {
  Tensor t(bolt::TensorDesc(bolt::DType::kFloat32, {1, kIn},
                            bolt::Layout::kRowMajor));
  bolt::Rng rng(seed);
  rng.FillNormal(t.data(), 0.7f);
  return t;
}

void RunMlpServe(const RunConfig& cfg, Result& out) {
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    const double t0 = NowUs();
    server = StartServer(cfg.seed);
    setup_s.push_back((NowUs() - t0) * 1e-6);
  }
  const bolt::Engine b1 = CompileMlp(1, cfg.seed);
  const RequestPool pool(cfg.seed, b1);

  // Warm the workers, allocator and engine cache off the record.
  RunPhase(*server, pool, 5000.0, 0.3, 1, cfg.seed + 1, out);

  // Half the run alternates one window at each fixed rate, so drift in
  // the host hits both rates alike; the other half searches the rate.
  // Traced runs record spans in every other round, for the overhead.
  const int rounds = std::max(
      2, static_cast<int>(std::lround(0.5 * cfg.seconds /
                                      (kLowWindowS + kHighWindowS))));
  Phase low, high, low_plain;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = cfg.traced && r % 2 == 1;
    out.tracer.set_enabled(traced);
    const Phase w = RunPhase(*server, pool, kLowRate, kLowWindowS, 1,
                             cfg.seed + 100 + r, out);
    (cfg.traced && !traced ? low_plain : low).Append(w);
    high.Append(RunPhase(*server, pool, kHighRate, kHighWindowS, 1,
                         cfg.seed + 200 + r, out));
  }
  out.tracer.set_enabled(false);
  if (cfg.traced) {
    out.metrics.Set("trace.overhead_frac",
                    low.LatencyMs(0.5) / low_plain.LatencyMs(0.5) - 1.0,
                    "frac");
  }
  out.notes.push_back("phase " + Describe(low));
  out.notes.push_back("phase " + Describe(high));
  out.metrics.Set("setup_s", Median(setup_s), "s");
  ReportServePhases(low, high, out);
  // The rate search's own bookkeeping grows with the rate it reaches, so
  // peak memory is taken before it.
  out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!cfg.traced) {
    bool generator_bound = false;
    const double rate = SearchSloRate(*server, pool, kProbeS, cfg.seed + 4,
                                      out, &generator_bound);
    out.metrics.Set("slo_rate_rps", rate, "1/s");
    if (generator_bound) {
      out.notes.push_back(
          "slo_rate_rps=generator-bound: the generator could not keep the "
          "schedule at the first failing rate");
    }
  }
  server->Stop();
}

void ProbeServing(const RunConfig& cfg, Result& out) {
  MetricTable& m = out.metrics;
  // Engine::RunBatch of a full bucket of single-row requests.
  std::vector<Tensor> rows;
  for (int64_t i = 0; i < kBuckets.back(); ++i) {
    rows.push_back(MlpRow(cfg.seed + 31 + static_cast<uint64_t>(i)));
  }
  double b1_us = 0.0;
  for (int64_t b : kBuckets) {
    const bolt::Engine engine = CompileMlp(b, cfg.seed);
    const std::vector<Tensor> batch(rows.begin(), rows.begin() + b);
    std::vector<double> us;
    for (int i = 0; i < 300; ++i) {
      const double t0 = NowUs();
      out.tally.Check(engine.RunBatch(batch).ok(), "probe RunBatch");
      us.push_back(NowUs() - t0);
    }
    const double med = Median(us);
    if (b == 1) b1_us = med;
    m.Set("bolt.run_batch_us.b" + std::to_string(b), med, "us");
  }

  const std::unique_ptr<Server> server = StartServer(cfg.seed);
  const RequestPool pool(cfg.seed, CompileMlp(1, cfg.seed));
  RunPhase(*server, pool, 5000.0, 0.2, 1, cfg.seed + 5, out);
  struct Snap {
    double batches, rows, padded, deadline;
  };
  auto snap = [] {
    return Snap{CounterValue("serve.batch.count"),
                HistogramSum("serve.batch.rows"),
                HistogramSum("serve.batch.padded_rows"),
                CounterValue("serve.sched.dispatch.deadline")};
  };
  const Snap s0 = snap();
  const Phase low =
      RunPhase(*server, pool, kLowRate, 2.0, 2, cfg.seed + 6, out);
  const Snap s1 = snap();
  const Phase high =
      RunPhase(*server, pool, kHighRate, 1.0, 2, cfg.seed + 7, out);
  const Snap s2 = snap();
  server->Stop();

  const double low_batches = std::max(1.0, s1.batches - s0.batches);
  const double high_rows = s2.rows - s1.rows;
  const double high_padded = s2.padded - s1.padded;
  m.Set("serve.submit_us", Percentile(high.submit_us, 0.5), "us");
  m.Set("serve.overhead_us", low.LatencyMs(0.5) * 1e3 - b1_us, "us");
  m.Set("serve.batch.rows_mean",
        high_rows / std::max(1.0, s2.batches - s1.batches), "rows");
  m.Set("serve.batch.padded_frac",
        high_padded / std::max(1.0, high_rows + high_padded), "frac");
  m.Set("serve.dispatch.deadline_frac", (s1.deadline - s0.deadline) /
        low_batches, "frac");
  std::vector<double> late = low.late_us;
  late.insert(late.end(), high.late_us.begin(), high.late_us.end());
  m.Set("serve.gen.late_p99_us", Percentile(late, 0.99), "us");
  m.Set("serve.gen.bound", low.generator_bound || high.generator_bound,
        "flag");
  m.Set("serve.requests.sent", static_cast<double>(low.sent + high.sent),
        "count");
  m.Set("serve.requests.ok", static_cast<double>(low.ok + high.ok), "count");
  m.Set("serve.requests.failed",
        static_cast<double>(low.failed + high.failed), "count");
  m.Set("serve.requests.rejected",
        static_cast<double>(low.rejected + high.rejected), "count");
}

}  // namespace perfbench
