#include "cpukernels/conv.h"

#include <chrono>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "cpukernels/internal.h"

namespace bolt {
namespace cpukernels {

namespace {

// The NCHWc channel-block width is the micro-kernel's kNR: one packed
// channel block feeds one micro-tile column strip with stride-1 loads.
static_assert(kNCHWcBlock == kNR, "NCHWc block width must equal kNR");

/// Resolved conv geometry in layout-independent form.
struct ConvDims {
  int64_t n, h, w, c;       // input
  int64_t oc, kh, kw;       // filter ([oc, kh, kw, c])
  int64_t oh, ow;           // output spatial
  bool nhwc;
  bool nchwc;
};

ConvDims ResolveDims(const Tensor& x, const Tensor& w, const ConvParams& p) {
  BOLT_CHECK_MSG(x.desc().rank() == 4, "conv input must be rank 4");
  BOLT_CHECK_MSG(w.desc().rank() == 4, "conv weight must be [O,kh,kw,I]");
  ConvDims d;
  d.nhwc = x.layout() == Layout::kNHWC;
  d.nchwc = x.layout() == Layout::kNCHWc;
  const auto& s = x.shape();
  d.n = s[0];
  d.c = d.nhwc ? s[3] : s[1];
  d.h = d.nhwc ? s[1] : s[2];
  d.w = d.nhwc ? s[2] : s[3];
  d.oc = w.shape()[0];
  d.kh = w.shape()[1];
  d.kw = w.shape()[2];
  BOLT_CHECK_MSG(w.shape()[3] == d.c, "conv channel mismatch: weight IC "
                                          << w.shape()[3] << " vs input C "
                                          << d.c);
  if (d.nchwc) {
    BOLT_CHECK_MSG(d.c % kNCHWcBlock == 0 && d.oc % kNCHWcBlock == 0,
                   "NCHWc conv requires C and OC divisible by "
                       << kNCHWcBlock << " (got C=" << d.c
                       << " OC=" << d.oc << ")");
  }
  const int64_t ekh = (d.kh - 1) * p.dilation_h + 1;
  const int64_t ekw = (d.kw - 1) * p.dilation_w + 1;
  d.oh = (d.h + 2 * p.pad_h - ekh) / p.stride_h + 1;
  d.ow = (d.w + 2 * p.pad_w - ekw) / p.stride_w + 1;
  BOLT_CHECK_MSG(d.oh > 0 && d.ow > 0, "conv output is empty");
  return d;
}

/// Panel-wise im2col packer: gathers A rows (output pixels) x depth
/// (kh, kw, ic taps) into kMR-wide row strips, zero-filling padding taps
/// so the accumulation sequence matches the reference loop exactly.
///
/// The SIMD path decomposes each strip's depth range into filter-tap
/// *runs* — maximal spans of consecutive k that share one (kh, kw) tap
/// and walk the input channel axis — and hands each run to
/// PackA4RunSimd: an NHWC run is a contiguous channel slice (stride 1,
/// vector loads + transpose), an NCHW run strides by h*w (AVX2 gather).
/// A blocked-NCHWc run is also stride 1 (channels within an 8-block are
/// innermost) but additionally clamps at the 8-channel block boundary,
/// where storage jumps to the next block's plane.  Padding taps and rows
/// beyond the panel become null run rows, which the vector kernel
/// zero-fills exactly like the scalar loop.
struct Im2colPacker {
  const float* x;
  ConvDims d;
  ConvParams p;

  /// Element index of input (batch bn, channel c, row ih, col iw).
  int64_t InputIndex(int64_t bn, int64_t c, int64_t ih, int64_t iw) const {
    if (d.nhwc) return ((bn * d.h + ih) * d.w + iw) * d.c + c;
    if (d.nchwc) {
      return (((bn * (d.c / kNCHWcBlock) + c / kNCHWcBlock) * d.h + ih) *
                  d.w +
              iw) *
                 kNCHWcBlock +
             c % kNCHWcBlock;
    }
    return ((bn * d.c + c) * d.h + ih) * d.w + iw;
  }

  void operator()(float* dst, int64_t i0, int64_t mcb, int64_t p0,
                  int64_t kcb, bool simd) const {
    // Hoist the per-k tap decomposition: k -> (kh, kw, ic) ascending.
    std::vector<int64_t> tap_dh(kcb), tap_dw(kcb), tap_c(kcb);
    for (int64_t kk = 0; kk < kcb; ++kk) {
      const int64_t k = p0 + kk;
      tap_dh[kk] = (k / (d.kw * d.c)) * p.dilation_h;
      tap_dw[kk] = ((k / d.c) % d.kw) * p.dilation_w;
      tap_c[kk] = k % d.c;
    }
    const int64_t istrips = internal::CeilDiv(mcb, kMR);
    for (int64_t is = 0; is < istrips; ++is) {
      float* s = dst + is * kcb * kMR;
      // Decompose the strip's output-pixel rows once.
      int64_t bn[kMR], bh[kMR], bw[kMR];
      bool valid[kMR];
      for (int64_t r = 0; r < kMR; ++r) {
        const int64_t gi = i0 + is * kMR + r;
        valid[r] = gi < i0 + mcb;
        if (!valid[r]) {
          bn[r] = bh[r] = bw[r] = 0;
          continue;
        }
        bn[r] = gi / (d.oh * d.ow);
        const int64_t rem = gi % (d.oh * d.ow);
        bh[r] = (rem / d.ow) * p.stride_h - p.pad_h;
        bw[r] = (rem % d.ow) * p.stride_w - p.pad_w;
      }
      if (simd) {
        const int64_t chan_stride = d.nhwc || d.nchwc ? 1 : d.h * d.w;
        for (int64_t kk = 0; kk < kcb;) {
          // Run = rest of this (kh, kw) tap's channel walk in the slice;
          // NCHWc runs clamp at the 8-channel block boundary where the
          // stride-1 walk ends.
          int64_t run = std::min(kcb - kk, d.c - tap_c[kk]);
          if (d.nchwc) {
            run = std::min(run,
                           kNCHWcBlock - tap_c[kk] % kNCHWcBlock);
          }
          const float* rows[kMR];
          for (int64_t r = 0; r < kMR; ++r) {
            if (!valid[r]) {
              rows[r] = nullptr;
              continue;
            }
            const int64_t ih = bh[r] + tap_dh[kk];
            const int64_t iw = bw[r] + tap_dw[kk];
            if (ih < 0 || ih >= d.h || iw < 0 || iw >= d.w) {
              rows[r] = nullptr;
              continue;
            }
            rows[r] = x + InputIndex(bn[r], tap_c[kk], ih, iw);
          }
          internal::PackA4RunSimd(rows, run, chan_stride, s + kk * kMR);
          kk += run;
        }
        continue;
      }
      for (int64_t kk = 0; kk < kcb; ++kk) {
        float* out = s + kk * kMR;
        for (int64_t r = 0; r < kMR; ++r) {
          if (!valid[r]) {
            out[r] = 0.0f;
            continue;
          }
          const int64_t ih = bh[r] + tap_dh[kk];
          const int64_t iw = bw[r] + tap_dw[kk];
          if (ih < 0 || ih >= d.h || iw < 0 || iw >= d.w) {
            out[r] = 0.0f;
            continue;
          }
          out[r] = x[InputIndex(bn[r], tap_c[kk], ih, iw)];
        }
      }
    }
  }
};

}  // namespace

ConvGemmShape ResolveConvGemmShape(const Tensor& x, const Tensor& w,
                                   const ConvParams& p) {
  const ConvDims d = ResolveDims(x, w, p);
  return {d.n * d.oh * d.ow, d.oc, d.kh * d.kw * d.c};
}

Tensor Conv2d(const Tensor& x, const Tensor& w, const ConvParams& p,
              const Epilogue& epi, const BlockConfig& cfg,
              ThreadPool* pool) {
  const ConvDims d = ResolveDims(x, w, p);
  const int64_t m = d.n * d.oh * d.ow;
  const int64_t n = d.oc;
  const int64_t k = d.kh * d.kw * d.c;

  std::vector<int64_t> oshape =
      d.nhwc ? std::vector<int64_t>{d.n, d.oh, d.ow, d.oc}
             : std::vector<int64_t>{d.n, d.oc, d.oh, d.ow};
  Tensor out(TensorDesc(epi.output_dtype, std::move(oshape),
                        x.layout()));

  static metrics::Counter& launches =
      metrics::Registry::Global().GetCounter("cpu.conv.launches");
  static metrics::Counter& flops =
      metrics::Registry::Global().GetCounter("cpu.conv.flops");
  static metrics::Histogram& us =
      metrics::Registry::Global().GetHistogram("cpu.conv.us");
  launches.Increment();
  flops.Increment(2 * m * n * k);

  trace::TraceSink& sink = trace::TraceSink::Global();
  const double t0 = sink.enabled() ? sink.NowUs() : 0.0;
  const auto wall0 = std::chrono::steady_clock::now();

  const float* xd = x.data().data();
  const float* wd = w.data().data();
  float* dd = out.data().data();
  const bool pointwise_nhwc = d.nhwc && d.kh == 1 && d.kw == 1 &&
                              p.stride_h == 1 && p.stride_w == 1 &&
                              p.pad_h == 0 && p.pad_w == 0;
  if (pointwise_nhwc) {
    // 1x1 fast path: the NHWC input already is the [M, K] GEMM operand.
    internal::GemmRawCore(m, n, k, xd, wd, dd, epi, cfg, pool);
  } else {
    Im2colPacker pack{xd, d, p};
    if (d.nhwc) {
      internal::GemmCore(m, n, k, wd, dd, epi, cfg, pool, pack,
                         [n](int64_t i, int64_t j) { return i * n + j; },
                         /*contiguous_rows=*/true);
    } else if (d.nchwc) {
      const int64_t spatial = d.oh * d.ow;
      // Blocked output: row i = (batch, pixel), column j = output channel
      // lands in block j/8 at lane j%8.  Rows are still scattered per
      // column, so the vectorized epilogue is excluded like NCHW.
      internal::GemmCore(
          m, n, k, wd, dd, epi, cfg, pool, pack,
          [spatial, n](int64_t i, int64_t j) {
            const int64_t in = i / spatial;
            return ((in * (n / kNCHWcBlock) + j / kNCHWcBlock) * spatial +
                    i % spatial) *
                       kNCHWcBlock +
                   j % kNCHWcBlock;
          },
          /*contiguous_rows=*/false);
    } else {
      const int64_t spatial = d.oh * d.ow;
      // NCHW output rows are scattered (stride `spatial` between
      // columns), so the vectorized epilogue is excluded here.
      internal::GemmCore(
          m, n, k, wd, dd, epi, cfg, pool, pack,
          [spatial, n](int64_t i, int64_t j) {
            const int64_t in = i / spatial;
            return (in * n + j) * spatial + i % spatial;
          },
          /*contiguous_rows=*/false);
    }
  }

  const double wall_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  us.Observe(wall_us);
  if (sink.enabled()) {
    sink.EmitSpan(trace::kPidCpu, sink.CurrentThreadLane(),
                  StrCat("cpu_conv_", d.n, "x", d.h, "x", d.w, "x", d.c,
                         "_k", d.oc, "_", d.kh, "x", d.kw),
                  "cpu", t0, sink.NowUs(),
                  StrCat("{\"flops\":", 2 * m * n * k, "}"));
  }
  return out;
}

}  // namespace cpukernels
}  // namespace bolt
