#include "cpukernels/gemm.h"

#include <chrono>

#include "common/metrics.h"
#include "common/trace.h"
#include "cpukernels/internal.h"

namespace bolt {
namespace cpukernels {

namespace {

/// Packs A rows [i0, i0+mcb) x depth [p0, p0+kcb) from a row-major [m, k]
/// matrix into kMR-wide row strips.  `simd` follows LaunchPlan::simd_pack:
/// the vector path (4x8 load/transpose with masked tails) produces
/// bit-identical bytes, and the scalar tier never sets it.
inline void PackADirect(const float* a, int64_t lda, float* dst, int64_t i0,
                        int64_t mcb, int64_t p0, int64_t kcb, bool simd) {
  const int64_t istrips = internal::CeilDiv(mcb, kMR);
  for (int64_t is = 0; is < istrips; ++is) {
    float* s = dst + is * kcb * kMR;
    const int64_t rbase = i0 + is * kMR;
    const int64_t rm = std::min<int64_t>(kMR, i0 + mcb - rbase);
    if (simd) {
      const float* rows[kMR];
      for (int64_t r = 0; r < kMR; ++r) {
        rows[r] = r < rm ? a + (rbase + r) * lda + p0 : nullptr;
      }
      internal::PackA4RunSimd(rows, kcb, 1, s);
      continue;
    }
    for (int64_t r = 0; r < kMR; ++r) {
      if (r < rm) {
        const float* src = a + (rbase + r) * lda + p0;
        for (int64_t kk = 0; kk < kcb; ++kk) s[kk * kMR + r] = src[kk];
      } else {
        for (int64_t kk = 0; kk < kcb; ++kk) s[kk * kMR + r] = 0.0f;
      }
    }
  }
}

}  // namespace

namespace internal {

void GemmRawCore(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* w, float* d, const Epilogue& epi,
                 const BlockConfig& cfg, ThreadPool* pool) {
  GemmCore(
      m, n, k, w, d, epi, cfg, pool,
      [a, k](float* dst, int64_t i0, int64_t mcb, int64_t p0, int64_t kcb,
             bool simd) { PackADirect(a, k, dst, i0, mcb, p0, kcb, simd); },
      [n](int64_t i, int64_t j) { return i * n + j; },
      /*contiguous_rows=*/true);
}

}  // namespace internal

void GemmRaw(int64_t m, int64_t n, int64_t k, const float* a,
             const float* w, float* d, const Epilogue& epi,
             const BlockConfig& cfg, ThreadPool* pool) {
  static metrics::Counter& launches =
      metrics::Registry::Global().GetCounter("cpu.gemm.launches");
  static metrics::Counter& flops =
      metrics::Registry::Global().GetCounter("cpu.gemm.flops");
  static metrics::Histogram& us =
      metrics::Registry::Global().GetHistogram("cpu.gemm.us");
  launches.Increment();
  flops.Increment(2 * m * n * k);

  trace::TraceSink& sink = trace::TraceSink::Global();
  const double t0 = sink.enabled() ? sink.NowUs() : 0.0;
  const auto wall0 = std::chrono::steady_clock::now();

  internal::GemmRawCore(m, n, k, a, w, d, epi, cfg, pool);

  const double wall_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  us.Observe(wall_us);
  if (sink.enabled()) {
    sink.EmitSpan(trace::kPidCpu, sink.CurrentThreadLane(),
                  StrCat("cpu_gemm_", m, "x", n, "x", k), "cpu", t0,
                  sink.NowUs(),
                  StrCat("{\"flops\":", 2 * m * n * k, "}"));
  }
}

Tensor Gemm(const Tensor& a, const Tensor& w, const Epilogue& epi,
            const BlockConfig& cfg, ThreadPool* pool) {
  BOLT_CHECK_MSG(a.desc().rank() == 2 && w.desc().rank() == 2,
                 "cpu gemm wants rank-2 operands");
  const int64_t m = a.shape()[0], k = a.shape()[1], n = w.shape()[0];
  BOLT_CHECK_MSG(w.shape()[1] == k, "cpu gemm K mismatch: A "
                                        << k << " vs W " << w.shape()[1]);
  Tensor out(TensorDesc(epi.output_dtype, {m, n}, Layout::kRowMajor));
  GemmRaw(m, n, k, a.data().data(), w.data().data(), out.data().data(), epi,
          cfg, pool);
  return out;
}

}  // namespace cpukernels
}  // namespace bolt
