#include "workloads/video/motion.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace pim::video {

namespace {

/** Largest SAD block edge the stack scratch rows cover. */
constexpr int kMaxBlock = kSuperblockSize;

/** Sum of |a[x] - b[x]| over kN (or, for kN == 0, @p n) pixels. */
template <int kN>
std::uint32_t
RowSadN(const std::uint8_t *a, const std::uint8_t *b, int n)
{
    const int len = kN > 0 ? kN : n;
    std::uint32_t sad = 0;
    for (int x = 0; x < len; ++x) {
        sad += static_cast<std::uint32_t>(
            std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
    }
    return sad;
}

/** Row SAD with the 16- and 8-wide blocks at compile-time widths. */
std::uint32_t
RowSad(const std::uint8_t *a, const std::uint8_t *b, int n)
{
    switch (n) {
      case 16:
        return RowSadN<16>(a, b, n);
      case 8:
        return RowSadN<8>(a, b, n);
      default:
        return RowSadN<0>(a, b, n);
    }
}

} // namespace

std::uint32_t
BlockSad(const Plane &cur, const Plane &ref, int x0, int y0, int dx,
         int dy, int block, core::ExecutionContext &ctx,
         std::uint32_t abort_above)
{
    PIM_ASSERT(block > 0 && block <= kMaxBlock, "SAD block %d", block);
    auto &mem = ctx.mem();
    auto &ops = ctx.ops();

    std::uint8_t cur_edge[kMaxBlock];
    std::uint8_t ref_edge[kMaxBlock];
    std::uint32_t sad = 0;
    for (int y = 0; y < block; ++y) {
        if (sad > abort_above) {
            break; // candidate already worse than the incumbent
        }
        sad += RowSad(cur.ClampedRow(x0, y0 + y, block, cur_edge),
                      ref.ClampedRow(x0 + dx, y0 + dy + y, block, ref_edge),
                      block);
        // One current row + one reference row per block row.
        const int cy = std::clamp(y0 + y, 0, cur.h() - 1);
        const int ry = std::clamp(y0 + dy + y, 0, ref.h() - 1);
        mem.Read(cur.SimAddr(std::clamp(x0, 0, cur.w() - 1), cy),
                 static_cast<Bytes>(block));
        mem.Read(ref.SimAddr(std::clamp(x0 + dx, 0, ref.w() - 1), ry),
                 static_cast<Bytes>(block));
        ops.Load(2 * ((block + 15) / 16));
        // abs-diff + accumulate per pixel, SIMD (vpx uses psadbw-style).
        ops.VectorAlu(static_cast<std::uint64_t>(block) * 2);
        ops.Branch(1);
    }
    return sad;
}

MotionResult
DiamondSearch(const Plane &cur, const std::vector<const Plane *> &refs,
              int x0, int y0, const MotionSearchParams &params,
              core::ExecutionContext &ctx)
{
    PIM_ASSERT(!refs.empty() && refs.size() <= 3,
               "expected 1-3 reference frames, got %zu", refs.size());

    MotionResult best;
    best.sad = 0xffffffffu;

    // Early-termination threshold: a match this good ends the search
    // (libvpx-style pruning; noise-level residual).
    const auto good_enough = static_cast<std::uint32_t>(
        params.block * params.block);

    for (std::size_t ri = 0; ri < refs.size(); ++ri) {
        if (best.sad < good_enough) {
            break;
        }
        const Plane &ref = *refs[ri];

        int cx = 0;
        int cy = 0;
        std::uint32_t best_sad = BlockSad(cur, ref, x0, y0, 0, 0,
                                          params.block, ctx, best.sad);
        std::uint32_t probes = 1;

        // Large diamond: step halves until 1.
        for (int step = params.initial_step; step >= 1; step /= 2) {
            bool improved = true;
            while (improved) {
                improved = false;
                static constexpr int kDx[4] = {1, -1, 0, 0};
                static constexpr int kDy[4] = {0, 0, 1, -1};
                int best_dir = -1;
                for (int d = 0; d < 4; ++d) {
                    const int nx = cx + kDx[d] * step;
                    const int ny = cy + kDy[d] * step;
                    if (std::abs(nx) > params.max_range ||
                        std::abs(ny) > params.max_range) {
                        continue;
                    }
                    const std::uint32_t sad =
                        BlockSad(cur, ref, x0, y0, nx, ny, params.block,
                                 ctx, best_sad);
                    ++probes;
                    if (sad < best_sad) {
                        best_sad = sad;
                        best_dir = d;
                    }
                }
                if (best_dir >= 0) {
                    cx += kDx[best_dir] * step;
                    cy += kDy[best_dir] * step;
                    improved = true;
                }
            }
        }

        if (best_sad < best.sad) {
            best.sad = best_sad;
            best.mv = MotionVector{cy * 8, cx * 8}; // full-pel in 1/8 units
            best.ref_index = static_cast<int>(ri);
        }
        best.probes += probes;
    }
    return best;
}

namespace {

/**
 * SAD of the interpolated predictor for @p mv against the source;
 * @p pred (block x block) is the caller's reusable scratch.
 */
std::uint32_t
InterpolatedSad(const Plane &cur, const Plane &ref, int x0, int y0,
                const MotionVector &mv, int block, PredBlock &pred,
                core::ExecutionContext &ctx)
{
    InterpolateBlock(ref, x0, y0, mv, pred, ctx);
    std::uint32_t sad = 0;
    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    std::uint8_t cur_edge[kMaxBlock];
    for (int y = 0; y < block; ++y) {
        sad += RowSad(cur.ClampedRow(x0, y0 + y, block, cur_edge),
                      &pred.At(0, y), block);
        const int cy = std::clamp(y0 + y, 0, cur.h() - 1);
        mem.Read(cur.SimAddr(std::clamp(x0, 0, cur.w() - 1), cy),
                 static_cast<Bytes>(block));
        ops.Load((block + 15) / 16);
        ops.VectorAlu(static_cast<std::uint64_t>(block) * 2);
        ops.Branch(1);
    }
    return sad;
}

} // namespace

MotionResult
RefineSubpel(const Plane &cur, const Plane &ref, int x0, int y0,
             const MotionResult &start, int block,
             core::ExecutionContext &ctx)
{
    MotionResult best = start;
    // A near-perfect integer match needs no refinement.
    if (best.sad < static_cast<std::uint32_t>(block * block) / 2) {
        return best;
    }
    PredBlock pred(block, block);
    for (int step : {4, 2, 1}) { // half, quarter, eighth pel
        static constexpr int kDx[4] = {1, -1, 0, 0};
        static constexpr int kDy[4] = {0, 0, 1, -1};
        int best_dir = -1;
        for (int d = 0; d < 4; ++d) {
            const MotionVector mv{best.mv.row + kDy[d] * step,
                                  best.mv.col + kDx[d] * step};
            const std::uint32_t sad =
                InterpolatedSad(cur, ref, x0, y0, mv, block, pred, ctx);
            ++best.probes;
            if (sad < best.sad) {
                best.sad = sad;
                best_dir = d;
            }
        }
        if (best_dir >= 0) {
            best.mv.row += kDy[best_dir] * step;
            best.mv.col += kDx[best_dir] * step;
        }
    }
    return best;
}

} // namespace pim::video
