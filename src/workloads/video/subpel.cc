#include "workloads/video/subpel.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace pim::video {

namespace {

/** Largest block edge the stack scratch buffers cover. */
constexpr int kMaxBlock = kSuperblockSize;
/** Extra window rows/columns the 8 taps need (taps -3..+4). */
constexpr int kPad = kFilterTaps - 1;

/** Arithmetic-shift floor division by 8 (valid for negative MVs). */
int
FullPel(int v)
{
    return v >> 3;
}

/** 1/16-pel phase of a 1/8-pel vector component. */
int
Phase(int v)
{
    return (v & 7) << 1;
}

/*
 * The filter passes run tap-outer, pixel-inner over local accumulators
 * so gcc vectorizes the pixel loop at -O2; kW > 0 fixes the width at
 * compile time (the 16- and 8-wide luma/chroma blocks), kW == 0 takes
 * it from @p w.
 *
 * The intermediate rows are int16, biased by -kBias.  An 8-tap kernel
 * over 8-bit samples sums to [-40 * 255, 168 * 255] (the extreme
 * negative and positive coefficient sums of the table), so the biased
 * value lies in int16 range: the horizontal pass may then run in
 * wrapping 16-bit arithmetic and still yield the exact ApplyKernelRaw
 * value, and the vertical pass multiplies 16-bit operands.
 */
constexpr std::int32_t kBias = 1 << 14;

/** Horizontal pass over one window row: ApplyKernelRaw - kBias. */
template <int kW>
void
FilterRow(const std::uint8_t *src, const FilterKernel &kernel, int w,
          std::int16_t *dst)
{
    const int n = kW > 0 ? kW : w;
    std::uint16_t acc[kW > 0 ? kW : kMaxBlock];
    for (int x = 0; x < n; ++x) {
        acc[x] = static_cast<std::uint16_t>(-kBias);
    }
    for (int t = 0; t < kFilterTaps; ++t) {
        const auto c = static_cast<std::uint16_t>(kernel[t]);
        for (int x = 0; x < n; ++x) {
            acc[x] = static_cast<std::uint16_t>(acc[x] + c * src[x + t]);
        }
    }
    for (int x = 0; x < n; ++x) {
        dst[x] = static_cast<std::int16_t>(acc[x]);
    }
}

/**
 * Vertical pass: ApplyKernelI32 down every column of the biased rows.
 * The coefficients sum to 1 << kFilterShift, which restores the bias as
 * one constant; the 8-tap sum stays below 2^23, so int32 is exact.
 */
template <int kW>
void
FilterColumns(const std::int16_t *tmp, const FilterKernel &kernel, int w,
              int h, std::uint8_t *out)
{
    const int n = kW > 0 ? kW : w;
    constexpr int kShift = 2 * kFilterShift;
    constexpr std::int32_t kStart =
        (kBias << kFilterShift) + (1 << (kShift - 1));
    for (int y = 0; y < h; ++y) {
        std::int32_t acc[kW > 0 ? kW : kMaxBlock];
        for (int x = 0; x < n; ++x) {
            acc[x] = kStart;
        }
        for (int t = 0; t < kFilterTaps; ++t) {
            const std::int32_t c = kernel[t];
            const std::int16_t *row =
                tmp + static_cast<std::size_t>(y + t) * n;
            for (int x = 0; x < n; ++x) {
                acc[x] += c * row[x];
            }
        }
        std::uint8_t *dst = out + static_cast<std::size_t>(y) * n;
        for (int x = 0; x < n; ++x) {
            dst[x] = static_cast<std::uint8_t>(
                std::clamp(acc[x] >> kShift, 0, 255));
        }
    }
}

/** Two-pass separable filtering over the (w+7) x (h+7) window. */
template <int kW>
void
Interpolate(const Plane &ref, int bx, int by, const FilterKernel &xkernel,
            const FilterKernel &ykernel, PredBlock &out)
{
    const int w = kW > 0 ? kW : out.w;
    std::int16_t tmp[(kMaxBlock + kPad) * kMaxBlock];
    std::uint8_t edge[kMaxBlock + kPad];
    for (int ty = 0; ty < out.h + kPad; ++ty) {
        FilterRow<kW>(ref.ClampedRow(bx - 3, by + ty - 3, w + kPad, edge),
                      xkernel, w, tmp + static_cast<std::size_t>(ty) * w);
    }
    FilterColumns<kW>(tmp, ykernel, w, out.h, out.pixels.data());
}

} // namespace

void
InterpolateBlock(const Plane &ref, int x0, int y0, const MotionVector &mv,
                 PredBlock &out, core::ExecutionContext &ctx)
{
    PIM_ASSERT(out.w > 0 && out.h > 0, "empty prediction block");
    PIM_ASSERT(out.w <= kMaxBlock && out.h <= kMaxBlock,
               "%dx%d block exceeds %d", out.w, out.h, kMaxBlock);

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();

    const int bx = x0 + FullPel(mv.col);
    const int by = y0 + FullPel(mv.row);
    const int xphase = Phase(mv.col);
    const int yphase = Phase(mv.row);

    // Pixels first (raw row pointers inside the plane, clamped copies at
    // its edges), then the analytic access/op emission, which does not
    // depend on which path produced them.
    if (xphase == 0 && yphase == 0) {
        // Full-pel: a straight (clamped) block copy.
        std::uint8_t edge[kMaxBlock];
        for (int y = 0; y < out.h; ++y) {
            std::memcpy(&out.At(0, y), ref.ClampedRow(bx, by + y, out.w, edge),
                        static_cast<std::size_t>(out.w));
        }
        for (int y = 0; y < out.h; ++y) {
            const int cy = std::clamp(by + y, 0, ref.h() - 1);
            const int cx = std::clamp(bx, 0, ref.w() - 1);
            mem.Read(ref.SimAddr(cx, cy), static_cast<Bytes>(out.w));
            ops.Load((out.w + 15) / 16);
            ops.Store((out.w + 15) / 16);
            ops.Alu(2);
            ops.Branch(1);
        }
        return;
    }

    const FilterKernel &xkernel = EightTapKernel(xphase);
    const FilterKernel &ykernel = EightTapKernel(yphase);
    switch (out.w) {
      case 16:
        Interpolate<16>(ref, bx, by, xkernel, ykernel, out);
        break;
      case 8:
        Interpolate<8>(ref, bx, by, xkernel, ykernel, out);
        break;
      default:
        Interpolate<0>(ref, bx, by, xkernel, ykernel, out);
        break;
    }

    // Horizontal pass: reads the full reference window.
    for (int ty = 0; ty < out.h + kPad; ++ty) {
        const int sy = by + ty - 3; // taps cover rows -3..+4
        // Window-row read: out.w + 7 reference bytes.
        const int cy = std::clamp(sy, 0, ref.h() - 1);
        const int cx = std::clamp(bx - 3, 0, ref.w() - 1);
        mem.Read(ref.SimAddr(cx, cy), static_cast<Bytes>(out.w + kPad));
        ops.Load((out.w + kPad + 15) / 16);
        // Per output sample: 8 fused MACs, SIMD-friendly.
        ops.VectorMul(static_cast<std::uint64_t>(out.w) * kFilterTaps);
        ops.Branch(1);
    }

    // Vertical pass over the intermediate buffer (cache-resident).
    for (int y = 0; y < out.h; ++y) {
        ops.VectorMul(static_cast<std::uint64_t>(out.w) * kFilterTaps);
        ops.Store((out.w + 15) / 16);
        ops.Branch(1);
    }
}

} // namespace pim::video
