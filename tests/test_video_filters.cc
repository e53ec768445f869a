/**
 * @file
 * Tests for the VP9 filter kernels, sub-pixel interpolation, motion
 * estimation, and the deblocking filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/trace.h"
#include "workloads/video/deblock.h"
#include "workloads/video/filters.h"
#include "workloads/video/motion.h"
#include "workloads/video/subpel.h"
#include "workloads/video/transform.h"
#include "workloads/video/video_gen.h"

namespace pim::video {
namespace {

using core::ExecutionContext;
using core::ExecutionTarget;

TEST(Filters, KernelsSumTo128)
{
    for (int phase = 0; phase < kSubpelPhases; ++phase) {
        int sum8 = 0;
        int sumb = 0;
        for (int t = 0; t < kFilterTaps; ++t) {
            sum8 += EightTapKernel(phase)[t];
            sumb += BilinearKernel(phase)[t];
        }
        EXPECT_EQ(sum8, 128) << "8-tap phase " << phase;
        EXPECT_EQ(sumb, 128) << "bilinear phase " << phase;
    }
}

TEST(Filters, PhaseZeroIsIdentity)
{
    const std::uint8_t samples[8] = {10, 20, 30, 40, 50, 60, 70, 80};
    // Tap 3 is the center sample for phase 0.
    EXPECT_EQ(ApplyKernelU8(samples, EightTapKernel(0)), 40);
    EXPECT_EQ(ApplyKernelU8(samples, BilinearKernel(0)), 40);
}

TEST(Filters, MirroredPhasesAreSymmetric)
{
    // Kernel for phase p reversed equals kernel for phase 16-p.
    for (int phase = 1; phase < kSubpelPhases; ++phase) {
        const FilterKernel &a = EightTapKernel(phase);
        const FilterKernel &b = EightTapKernel(kSubpelPhases - phase);
        for (int t = 0; t < kFilterTaps; ++t) {
            EXPECT_EQ(a[t], b[kFilterTaps - 1 - t])
                << "phase " << phase << " tap " << t;
        }
    }
}

TEST(Filters, HalfPhaseInterpolatesMidpoint)
{
    // On a linear ramp, the half-pel sample is the midpoint.
    std::uint8_t ramp[8];
    for (int i = 0; i < 8; ++i) {
        ramp[i] = static_cast<std::uint8_t>(i * 10);
    }
    const std::uint8_t mid = ApplyKernelU8(ramp, EightTapKernel(8));
    EXPECT_NEAR(mid, 35, 1); // between taps 3 (30) and 4 (40)
}

TEST(Filters, OutputClampedToPixelRange)
{
    const std::uint8_t spike[8] = {0, 0, 0, 255, 0, 0, 0, 0};
    for (int phase = 0; phase < kSubpelPhases; ++phase) {
        const std::uint8_t v = ApplyKernelU8(spike, EightTapKernel(phase));
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 255);
    }
}

TEST(Filters, EightTapSumsFitTheBiasedInt16Pass)
{
    // InterpolateBlock keeps its horizontal-pass rows as int16 biased by
    // -2^14; that is exact only while every 8-tap sum over 8-bit samples
    // lies in [-40 * 255, 168 * 255].
    for (int phase = 0; phase < kSubpelPhases; ++phase) {
        int positive = 0;
        int negative = 0;
        for (int t = 0; t < kFilterTaps; ++t) {
            const int c = EightTapKernel(phase)[t];
            (c > 0 ? positive : negative) += c;
        }
        EXPECT_LE(positive, 168) << "phase " << phase;
        EXPECT_GE(negative, -40) << "phase " << phase;
    }
    EXPECT_LE(168 * 255 - (1 << 14), 32767);
    EXPECT_GE(-40 * 255 - (1 << 14), -32768);
}

Plane
MakeRampPlane(int w, int h)
{
    Plane p(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            p.At(x, y) = static_cast<std::uint8_t>((x * 3 + y * 5) % 200);
        }
    }
    return p;
}

TEST(Subpel, ZeroVectorIsCopy)
{
    const Plane ref = MakeRampPlane(64, 64);
    PredBlock out(16, 16);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    InterpolateBlock(ref, 8, 8, MotionVector{0, 0}, out, ctx);
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            ASSERT_EQ(out.At(x, y), ref.At(8 + x, 8 + y));
        }
    }
}

TEST(Subpel, FullPelVectorIsShiftedCopy)
{
    const Plane ref = MakeRampPlane(64, 64);
    PredBlock out(8, 8);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    InterpolateBlock(ref, 16, 16, MotionVector{-16, 24}, out, ctx);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            ASSERT_EQ(out.At(x, y), ref.At(16 + 3 + x, 16 - 2 + y));
        }
    }
}

TEST(Subpel, HalfPelOnRampIsMidpoint)
{
    Plane ref(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            ref.At(x, y) = static_cast<std::uint8_t>(x * 2);
        }
    }
    PredBlock out(8, 8);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    InterpolateBlock(ref, 16, 16, MotionVector{0, 4}, out, ctx); // +1/2 px
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            ASSERT_NEAR(out.At(x, y), (16 + x) * 2 + 1, 1);
        }
    }
}

TEST(Subpel, SubpelReadsFilterWindow)
{
    const Plane ref = MakeRampPlane(128, 128);
    PredBlock out(16, 16);
    ExecutionContext full(ExecutionTarget::kCpuOnly);
    InterpolateBlock(ref, 32, 32, MotionVector{0, 0}, out, full);
    const Bytes full_pel_bytes = full.mem().bytes_read();

    ExecutionContext sub(ExecutionTarget::kCpuOnly);
    InterpolateBlock(ref, 32, 32, MotionVector{3, 3}, out, sub);
    // The paper: sub-pixel interpolation fetches (bw+7)x(bh+7) vs bw*bh.
    EXPECT_GT(sub.mem().bytes_read(), full_pel_bytes * 3 / 2);
}

TEST(Motion, BlockSadZeroOnIdenticalBlocks)
{
    const Plane a = MakeRampPlane(64, 64);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    EXPECT_EQ(BlockSad(a, a, 16, 16, 0, 0, 16, ctx), 0u);
    EXPECT_GT(BlockSad(a, a, 16, 16, 5, 0, 16, ctx), 0u);
}

TEST(Motion, DiamondSearchFindsPlantedShift)
{
    // Reference = smooth radial gradient (SAD decreases monotonically
    // toward the true offset, as natural video does); current =
    // reference shifted by (8, -8), a displacement the diamond pattern
    // reaches by strictly improving axis moves.
    Plane ref(96, 96);
    for (int y = 0; y < 96; ++y) {
        for (int x = 0; x < 96; ++x) {
            const double dx = x - 20.0;
            const double dy = y - 70.0;
            const double dist = std::sqrt(dx * dx + dy * dy);
            ref.At(x, y) = static_cast<std::uint8_t>(
                std::max(0.0, 255.0 - dist * 2.5));
        }
    }
    Plane cur(96, 96);
    for (int y = 0; y < 96; ++y) {
        for (int x = 0; x < 96; ++x) {
            cur.At(x, y) = ref.AtClamped(x + 8, y - 8);
        }
    }
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const MotionResult r = DiamondSearch(
        cur, {&ref}, 40, 40, MotionSearchParams{}, ctx);
    EXPECT_EQ(r.mv.col, 8 * 8);  // 1/8-pel units
    EXPECT_EQ(r.mv.row, -8 * 8);
    EXPECT_EQ(r.sad, 0u);
    EXPECT_GT(r.probes, 1u);
}

TEST(Motion, PicksBestReference)
{
    Rng rng(56);
    Plane good(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            good.At(x, y) = rng.NextByte();
        }
    }
    Plane bad(64, 64, 0); // flat plane, poor match
    const Plane &cur = good;

    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const MotionResult r = DiamondSearch(
        cur, {&bad, &good}, 24, 24, MotionSearchParams{}, ctx);
    EXPECT_EQ(r.ref_index, 1);
    EXPECT_EQ(r.sad, 0u);
}

TEST(Motion, SubpelRefineNeverWorsens)
{
    VideoGenerator gen(VideoGenConfig{});
    const Frame f1 = gen.NextFrame();
    const Frame f2 = gen.NextFrame();
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const MotionResult coarse = DiamondSearch(
        f2.y, {&f1.y}, 64, 64, MotionSearchParams{}, ctx);
    const MotionResult fine =
        RefineSubpel(f2.y, f1.y, 64, 64, coarse, 16, ctx);
    EXPECT_LE(fine.sad, coarse.sad);
    EXPECT_GT(fine.probes, coarse.probes);
}

/*
 * Fast-path equivalence.  InterpolateBlock and BlockSad read interior
 * spans through raw row pointers and fall back to per-pixel edge
 * clamping only at the plane's left/right borders.  The references
 * below are the original all-clamped per-pixel kernels, transcribed
 * verbatim; both paths must match them in pixels, in the recorded
 * access stream and in the op counts.
 */

void
ReferenceInterpolateBlock(const Plane &ref, int x0, int y0,
                          const MotionVector &mv, PredBlock &out,
                          ExecutionContext &ctx)
{
    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    const int bx = x0 + (mv.col >> 3);
    const int by = y0 + (mv.row >> 3);
    const int xphase = (mv.col & 7) << 1;
    const int yphase = (mv.row & 7) << 1;
    if (xphase == 0 && yphase == 0) {
        for (int y = 0; y < out.h; ++y) {
            for (int x = 0; x < out.w; ++x) {
                out.At(x, y) = ref.AtClamped(bx + x, by + y);
            }
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
    const int pad = kFilterTaps - 1;
    const int tmp_h = out.h + pad;
    std::vector<std::int32_t> tmp(static_cast<std::size_t>(out.w) * tmp_h);
    std::uint8_t row_buf[kFilterTaps];
    for (int ty = 0; ty < tmp_h; ++ty) {
        const int sy = by + ty - 3;
        for (int tx = 0; tx < out.w; ++tx) {
            for (int t = 0; t < kFilterTaps; ++t) {
                row_buf[t] = ref.AtClamped(bx + tx + t - 3, sy);
            }
            tmp[static_cast<std::size_t>(ty) * out.w + tx] =
                ApplyKernelRaw(row_buf, xkernel);
        }
        const int cy = std::clamp(sy, 0, ref.h() - 1);
        const int cx = std::clamp(bx - 3, 0, ref.w() - 1);
        mem.Read(ref.SimAddr(cx, cy), static_cast<Bytes>(out.w + pad));
        ops.Load((out.w + pad + 15) / 16);
        ops.VectorMul(static_cast<std::uint64_t>(out.w) * kFilterTaps);
        ops.Branch(1);
    }
    std::int32_t col_buf[kFilterTaps];
    for (int y = 0; y < out.h; ++y) {
        for (int x = 0; x < out.w; ++x) {
            for (int t = 0; t < kFilterTaps; ++t) {
                col_buf[t] = tmp[static_cast<std::size_t>(y + t) * out.w + x];
            }
            out.At(x, y) = ApplyKernelI32(col_buf, ykernel);
        }
        ops.VectorMul(static_cast<std::uint64_t>(out.w) * kFilterTaps);
        ops.Store((out.w + 15) / 16);
        ops.Branch(1);
    }
}

std::uint32_t
ReferenceBlockSad(const Plane &cur, const Plane &ref, int x0, int y0,
                  int dx, int dy, int block, ExecutionContext &ctx,
                  std::uint32_t abort_above)
{
    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    std::uint32_t sad = 0;
    for (int y = 0; y < block; ++y) {
        if (sad > abort_above) {
            break;
        }
        for (int x = 0; x < block; ++x) {
            const int c = cur.AtClamped(x0 + x, y0 + y);
            const int r = ref.AtClamped(x0 + dx + x, y0 + dy + y);
            sad += static_cast<std::uint32_t>(std::abs(c - r));
        }
        const int cy = std::clamp(y0 + y, 0, cur.h() - 1);
        const int ry = std::clamp(y0 + dy + y, 0, ref.h() - 1);
        mem.Read(cur.SimAddr(std::clamp(x0, 0, cur.w() - 1), cy),
                 static_cast<Bytes>(block));
        mem.Read(ref.SimAddr(std::clamp(x0 + dx, 0, ref.w() - 1), ry),
                 static_cast<Bytes>(block));
        ops.Load(2 * ((block + 15) / 16));
        ops.VectorAlu(static_cast<std::uint64_t>(block) * 2);
        ops.Branch(1);
    }
    return sad;
}

Plane
RandomPlane(int w, int h, std::uint64_t seed)
{
    Rng rng(seed);
    Plane p(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            p.At(x, y) = rng.NextByte();
        }
    }
    return p;
}

/** A context that records its access stream for exact comparison. */
struct TracedContext
{
    ExecutionContext ctx{ExecutionTarget::kCpuOnly};
    sim::AccessTrace trace;

    TracedContext() { ctx.AttachTrace(trace); }
};

/** Same accesses in the same order, and the same op counts. */
void
ExpectSameEmission(TracedContext &got, TracedContext &want)
{
    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
        ASSERT_EQ(got.trace.data()[i].word, want.trace.data()[i].word)
            << "access " << i;
    }
    const sim::OpCounts &a = got.ctx.ops().counts();
    const sim::OpCounts &b = want.ctx.ops().counts();
    EXPECT_EQ(a.alu, b.alu);
    EXPECT_EQ(a.mul, b.mul);
    EXPECT_EQ(a.branch, b.branch);
    EXPECT_EQ(a.load, b.load);
    EXPECT_EQ(a.store, b.store);
    EXPECT_EQ(a.simd_eligible, b.simd_eligible);
}

/**
 * Block origins along one axis of a @p size-pixel plane for a block of
 * @p block pixels whose filter window reaches @p lo before and @p hi
 * after it: interior, touching either edge, partly and fully off-frame.
 */
std::vector<int>
EdgePositions(int size, int block, int lo, int hi)
{
    return {lo,                        // window touches the low edge
            (size - block) / 2,        // interior
            size - block - hi,         // window touches the high edge
            lo - 1,                    // window one pixel over
            size - block - hi + 1,     // one pixel over the high edge
            -block / 2,                // block partly off-frame
            size - block / 2,          // partly off the high edge
            -block - 9,                // fully off-frame
            size + 5};                 // fully off the high edge
}

TEST(FastPath, InterpolateMatchesClampedReference)
{
    for (const auto &[pw, ph] : {std::pair{37, 29}, std::pair{64, 48}}) {
        const Plane ref = RandomPlane(pw, ph, 1000u + pw);
        for (const int w : {4, 8, 16}) {
            for (const int bx : EdgePositions(pw, w, 3, 4)) {
                for (const int by : EdgePositions(ph, w, 3, 4)) {
                    SCOPED_TRACE(::testing::Message()
                                 << pw << "x" << ph << " w=" << w << " at ("
                                 << bx << "," << by << ")");
                    TracedContext gc;
                    TracedContext wc;
                    // Every (y, x) pair of the eight 1/8-pel phases; the
                    // full-pel part -1 exercises the floor division of
                    // negative vectors.
                    for (int yp = 0; yp < 8; ++yp) {
                        for (int xp = 0; xp < 8; ++xp) {
                            const MotionVector mv{-8 + yp, -8 + xp};
                            PredBlock got(w, w);
                            PredBlock want(w, w);
                            InterpolateBlock(ref, bx + 1, by + 1, mv, got,
                                             gc.ctx);
                            ReferenceInterpolateBlock(ref, bx + 1, by + 1,
                                                      mv, want, wc.ctx);
                            ASSERT_EQ(got.pixels, want.pixels)
                                << "mv (" << mv.row << "," << mv.col << ")";
                        }
                    }
                    ExpectSameEmission(gc, wc);
                }
            }
        }
    }
}

TEST(FastPath, InterpolateNonSquareAndExtremeBlocks)
{
    // Generic-width path (w not 8/16), tall blocks, the 64-pixel cap,
    // and saturating content (all-0/all-255 checkerboard).
    Plane ref(80, 72);
    for (int y = 0; y < ref.h(); ++y) {
        for (int x = 0; x < ref.w(); ++x) {
            ref.At(x, y) = ((x ^ y) & 1) != 0 ? 255 : 0;
        }
    }
    for (const auto &[w, h] : {std::pair{12, 4}, std::pair{4, 16},
                              std::pair{16, 8}, std::pair{64, 64}}) {
        for (const int at : {-5, 3, 9}) {
            for (const MotionVector mv :
                 {MotionVector{4, 4}, MotionVector{-3, 5},
                  MotionVector{0, 2}, MotionVector{16, -8}}) {
                PredBlock got(w, h);
                PredBlock want(w, h);
                TracedContext gc;
                TracedContext wc;
                InterpolateBlock(ref, at, at, mv, got, gc.ctx);
                ReferenceInterpolateBlock(ref, at, at, mv, want, wc.ctx);
                ASSERT_EQ(got.pixels, want.pixels)
                    << w << "x" << h << " at " << at;
                ExpectSameEmission(gc, wc);
            }
        }
    }
}

TEST(FastPath, InterpolateExtremeTapSums)
{
    // Rows whose 8-sample period is 255 exactly under the positive taps
    // of one phase (or under the negative ones) drive the horizontal sum
    // to its extremes, 168 * 255 and -40 * 255 at the half-pel phase.
    for (int xp = 1; xp < 8; ++xp) {
        const FilterKernel &kernel = EightTapKernel(xp << 1);
        for (const bool positive : {true, false}) {
            Plane ref(48, 24);
            for (int y = 0; y < ref.h(); ++y) {
                for (int x = 0; x < ref.w(); ++x) {
                    const int c = kernel[x % kFilterTaps];
                    ref.At(x, y) = (positive ? c > 0 : c < 0) ? 255 : 0;
                }
            }
            for (const int yp : {0, 4}) {
                const MotionVector mv{yp, xp};
                PredBlock got(16, 8);
                PredBlock want(16, 8);
                TracedContext gc;
                TracedContext wc;
                InterpolateBlock(ref, 16, 8, mv, got, gc.ctx);
                ReferenceInterpolateBlock(ref, 16, 8, mv, want, wc.ctx);
                ASSERT_EQ(got.pixels, want.pixels)
                    << "phase " << (xp << 1) << " positive " << positive;
                ExpectSameEmission(gc, wc);
            }
        }
    }
}

TEST(FastPath, BlockSadMatchesClampedReference)
{
    const Plane cur = RandomPlane(37, 29, 7);
    const Plane ref = RandomPlane(37, 29, 8);
    for (const int block : {4, 8, 16}) {
        for (const int x0 : EdgePositions(37, block, 0, 0)) {
            for (const int y0 : EdgePositions(29, block, 0, 0)) {
                for (const auto &[dx, dy] :
                     {std::pair{0, 0}, std::pair{3, -2},
                      std::pair{-block - 4, 1}, std::pair{20, 17}}) {
                    TracedContext probe;
                    const std::uint32_t full = ReferenceBlockSad(
                        cur, ref, x0, y0, dx, dy, block, probe.ctx,
                        0xffffffffu);
                    for (const std::uint32_t abort_above :
                         {0u, full / 2, 0xffffffffu}) {
                        TracedContext gc;
                        TracedContext wc;
                        const std::uint32_t got =
                            BlockSad(cur, ref, x0, y0, dx, dy, block,
                                     gc.ctx, abort_above);
                        const std::uint32_t want = ReferenceBlockSad(
                            cur, ref, x0, y0, dx, dy, block, wc.ctx,
                            abort_above);
                        SCOPED_TRACE(::testing::Message()
                                     << "block " << block << " at (" << x0
                                     << "," << y0 << ") d (" << dx << ","
                                     << dy << ") abort " << abort_above);
                        ASSERT_EQ(got, want);
                        ExpectSameEmission(gc, wc);
                    }
                }
            }
        }
    }
}

TEST(FastPath, RefineSubpelMatchesClampedReference)
{
    // RefineSubpel scores each probe by the SAD of its interpolated
    // predictor; rebuild that from the references and compare the
    // result and the emission, for blocks inside and on the border.
    const Plane cur = RandomPlane(37, 29, 21);
    const Plane ref = RandomPlane(37, 29, 22);
    for (const auto &[x0, y0] : {std::pair{12, 8}, std::pair{0, 0},
                                std::pair{30, 20}, std::pair{-6, 25}}) {
        MotionResult start;
        start.mv = MotionVector{8, -8};
        start.sad = 0xffffffffu;
        TracedContext gc;
        const MotionResult got =
            RefineSubpel(cur, ref, x0, y0, start, 8, gc.ctx);

        TracedContext wc;
        MotionResult want = start;
        for (const int step : {4, 2, 1}) {
            static constexpr int kDx[4] = {1, -1, 0, 0};
            static constexpr int kDy[4] = {0, 0, 1, -1};
            int best_dir = -1;
            for (int d = 0; d < 4; ++d) {
                const MotionVector mv{want.mv.row + kDy[d] * step,
                                      want.mv.col + kDx[d] * step};
                PredBlock pred(8, 8);
                ReferenceInterpolateBlock(ref, x0, y0, mv, pred, wc.ctx);
                std::uint32_t sad = 0;
                for (int y = 0; y < 8; ++y) {
                    for (int x = 0; x < 8; ++x) {
                        sad += static_cast<std::uint32_t>(std::abs(
                            cur.AtClamped(x0 + x, y0 + y) - pred.At(x, y)));
                    }
                    const int cy = std::clamp(y0 + y, 0, cur.h() - 1);
                    wc.ctx.mem().Read(
                        cur.SimAddr(std::clamp(x0, 0, cur.w() - 1), cy), 8);
                    wc.ctx.ops().Load(1);
                    wc.ctx.ops().VectorAlu(16);
                    wc.ctx.ops().Branch(1);
                }
                ++want.probes;
                if (sad < want.sad) {
                    want.sad = sad;
                    best_dir = d;
                }
            }
            if (best_dir >= 0) {
                want.mv.row += kDy[best_dir] * step;
                want.mv.col += kDx[best_dir] * step;
            }
        }
        EXPECT_EQ(got.mv, want.mv) << x0 << "," << y0;
        EXPECT_EQ(got.sad, want.sad);
        EXPECT_EQ(got.probes, want.probes);
        ExpectSameEmission(gc, wc);
    }
}

/** The original output-at-a-time forward DCT, transcribed. */
void
ReferenceForwardDct(const Block8x8<std::int16_t> &residual,
                    Block8x8<std::int32_t> &coeffs)
{
    const double pi = 3.14159265358979323846;
    double c[64];
    for (int k = 0; k < 8; ++k) {
        const double scale = k == 0 ? std::sqrt(1.0 / 8) : std::sqrt(2.0 / 8);
        for (int n = 0; n < 8; ++n) {
            c[k * 8 + n] = scale * std::cos(pi * (2 * n + 1) * k / (2.0 * 8));
        }
    }
    double tmp[64];
    for (int y = 0; y < 8; ++y) {
        for (int k = 0; k < 8; ++k) {
            double acc = 0.0;
            for (int n = 0; n < 8; ++n) {
                acc += c[k * 8 + n] * residual[y * 8 + n];
            }
            tmp[y * 8 + k] = acc;
        }
    }
    for (int x = 0; x < 8; ++x) {
        for (int k = 0; k < 8; ++k) {
            double acc = 0.0;
            for (int n = 0; n < 8; ++n) {
                acc += c[k * 8 + n] * tmp[n * 8 + x];
            }
            coeffs[k * 8 + x] = static_cast<std::int32_t>(std::lround(acc));
        }
    }
}

/** The original output-at-a-time inverse DCT, transcribed. */
void
ReferenceInverseDct(const Block8x8<std::int32_t> &coeffs,
                    Block8x8<std::int16_t> &residual)
{
    const double pi = 3.14159265358979323846;
    double c[64];
    for (int k = 0; k < 8; ++k) {
        const double scale = k == 0 ? std::sqrt(1.0 / 8) : std::sqrt(2.0 / 8);
        for (int n = 0; n < 8; ++n) {
            c[k * 8 + n] = scale * std::cos(pi * (2 * n + 1) * k / (2.0 * 8));
        }
    }
    double tmp[64];
    for (int x = 0; x < 8; ++x) {
        for (int n = 0; n < 8; ++n) {
            double acc = 0.0;
            for (int k = 0; k < 8; ++k) {
                acc += c[k * 8 + n] * coeffs[k * 8 + x];
            }
            tmp[n * 8 + x] = acc;
        }
    }
    for (int y = 0; y < 8; ++y) {
        for (int n = 0; n < 8; ++n) {
            double acc = 0.0;
            for (int k = 0; k < 8; ++k) {
                acc += c[k * 8 + n] * tmp[y * 8 + k];
            }
            const long v = std::lround(acc);
            residual[y * 8 + n] = static_cast<std::int16_t>(
                v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
        }
    }
}

TEST(FastPath, DctMatchesOutputAtATimeReference)
{
    Rng rng(88);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    for (int trial = 0; trial < 2000; ++trial) {
        // Residual-sized content, then saturated blocks.
        Block8x8<std::int16_t> residual{};
        Block8x8<std::int32_t> coeffs{};
        for (int i = 0; i < 64; ++i) {
            const auto r = static_cast<int>(rng.Below(511)) - 255;
            residual[i] = static_cast<std::int16_t>(
                trial % 3 == 2 ? (r < 0 ? -32768 : 32767) : r);
            coeffs[i] = static_cast<int>(rng.Below(1 << 17)) - (1 << 16);
        }
        Block8x8<std::int32_t> got_c{};
        Block8x8<std::int32_t> want_c{};
        ForwardDct8x8(residual, got_c, ctx);
        ReferenceForwardDct(residual, want_c);
        ASSERT_EQ(got_c, want_c) << "trial " << trial;
        Block8x8<std::int16_t> got_r{};
        Block8x8<std::int16_t> want_r{};
        InverseDct8x8(coeffs, got_r, ctx);
        ReferenceInverseDct(coeffs, want_r);
        ASSERT_EQ(got_r, want_r) << "trial " << trial;
    }
}

TEST(Deblock, FlatRegionUnchanged)
{
    Plane p(32, 32, 100);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    DeblockPlane(p, DeblockParams{}, ctx);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            ASSERT_EQ(p.At(x, y), 100);
        }
    }
}

TEST(Deblock, SmoothsBlockEdge)
{
    // Step of 6 across the x=8 block boundary: within filter range.
    Plane p(32, 32);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            p.At(x, y) = x < 8 ? 100 : 106;
        }
    }
    const int before = std::abs(p.At(7, 16) - p.At(8, 16));
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const DeblockStats stats = DeblockPlane(p, DeblockParams{}, ctx);
    const int after = std::abs(p.At(7, 16) - p.At(8, 16));
    EXPECT_LT(after, before);
    EXPECT_GT(stats.edges_filtered, 0u);
}

TEST(Deblock, StrongEdgePreserved)
{
    // A real object edge (step 100) must NOT be smoothed away.
    Plane p(32, 32);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            p.At(x, y) = x < 8 ? 50 : 150;
        }
    }
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    DeblockPlane(p, DeblockParams{}, ctx);
    EXPECT_EQ(p.At(7, 16), 50);
    EXPECT_EQ(p.At(8, 16), 150);
}

TEST(Deblock, FilterMaskThresholds)
{
    DeblockParams params;
    // Tiny discontinuity: filtered.
    EXPECT_TRUE(
        FilterMask(params, 100, 100, 100, 100, 104, 104, 104, 104));
    // Sharp edge: preserved.
    EXPECT_FALSE(
        FilterMask(params, 100, 100, 100, 100, 200, 200, 200, 200));
    // Locally busy texture: preserved.
    EXPECT_FALSE(
        FilterMask(params, 100, 120, 90, 110, 112, 90, 125, 100));
}

TEST(Deblock, EdgeCountMatchesGeometry)
{
    Plane p(64, 64, 100);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const DeblockStats stats = DeblockPlane(p, DeblockParams{}, ctx);
    // 4-pixel edge grid: 15 internal edges x 64 rows, both directions.
    EXPECT_EQ(stats.edges_checked, 2u * 15u * 64u);
}

TEST(VideoGen, DeterministicAndInRange)
{
    VideoGenConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    VideoGenerator a(cfg);
    VideoGenerator b(cfg);
    const Frame fa = a.NextFrame();
    const Frame fb = b.NextFrame();
    EXPECT_EQ(fa.y.At(10, 10), fb.y.At(10, 10));
    EXPECT_EQ(fa.width, 128);
    EXPECT_EQ(fa.u.w(), 64);
}

TEST(VideoGen, ConsecutiveFramesAreTemporallyRedundant)
{
    VideoGenConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    VideoGenerator gen(cfg);
    const Frame f1 = gen.NextFrame();
    const Frame f2 = gen.NextFrame();
    // Motion is small: mean abs difference stays low but nonzero.
    const double mad = MeanAbsDiff(f1.y, f2.y);
    EXPECT_GT(mad, 0.1);
    EXPECT_LT(mad, 20.0);
}

} // namespace
} // namespace pim::video
