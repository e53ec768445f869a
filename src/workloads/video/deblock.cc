#include "workloads/video/deblock.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

namespace pim::video {

namespace {

int
Clamp8Signed(int v)
{
    return std::clamp(v, -128, 127);
}

} // namespace

bool
FilterMask(const DeblockParams &params, std::uint8_t p3, std::uint8_t p2,
           std::uint8_t p1, std::uint8_t p0, std::uint8_t q0,
           std::uint8_t q1, std::uint8_t q2, std::uint8_t q3)
{
    const auto ad = [](int a, int b) { return std::abs(a - b); };
    bool mask = ad(p3, p2) <= params.limit && ad(p2, p1) <= params.limit &&
                ad(p1, p0) <= params.limit && ad(q1, q0) <= params.limit &&
                ad(q2, q1) <= params.limit && ad(q3, q2) <= params.limit;
    mask = mask &&
           ad(p0, q0) * 2 + ad(p1, q1) / 2 <= params.blimit;
    return mask;
}

void
Filter4(std::uint8_t &p1, std::uint8_t &p0, std::uint8_t &q0,
        std::uint8_t &q1, bool high_edge_variance)
{
    const int ps1 = static_cast<int>(p1) - 128;
    const int ps0 = static_cast<int>(p0) - 128;
    const int qs0 = static_cast<int>(q0) - 128;
    const int qs1 = static_cast<int>(q1) - 128;

    int filter = high_edge_variance ? Clamp8Signed(ps1 - qs1) : 0;
    filter = Clamp8Signed(filter + 3 * (qs0 - ps0));

    const int f1 = Clamp8Signed(filter + 4) >> 3;
    const int f2 = Clamp8Signed(filter + 3) >> 3;

    q0 = static_cast<std::uint8_t>(Clamp8Signed(qs0 - f1) + 128);
    p0 = static_cast<std::uint8_t>(Clamp8Signed(ps0 + f2) + 128);

    if (!high_edge_variance) {
        const int f3 = (f1 + 1) >> 1;
        q1 = static_cast<std::uint8_t>(Clamp8Signed(qs1 - f3) + 128);
        p1 = static_cast<std::uint8_t>(Clamp8Signed(ps1 + f3) + 128);
    }
}

namespace {

/** Filter one edge position given accessors into the plane. */
template <typename Get, typename Set>
bool
FilterEdgePosition(const DeblockParams &params, Get get, Set set)
{
    const std::uint8_t p3 = get(-4), p2 = get(-3), p1 = get(-2),
                       p0 = get(-1);
    const std::uint8_t q0 = get(0), q1 = get(1), q2 = get(2), q3 = get(3);

    if (!FilterMask(params, p3, p2, p1, p0, q0, q1, q2, q3)) {
        return false;
    }
    const bool hev = std::abs(p1 - p0) > params.thresh ||
                     std::abs(q1 - q0) > params.thresh;
    std::uint8_t np1 = p1, np0 = p0, nq0 = q0, nq1 = q1;
    Filter4(np1, np0, nq0, nq1, hev);
    set(-2, np1);
    set(-1, np0);
    set(0, nq0);
    set(1, nq1);
    return true;
}

} // namespace

DeblockStats
DeblockPlane(Plane &plane, const DeblockParams &params,
             core::ExecutionContext &ctx)
{
    DeblockStats stats;
    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    // VP9 checks the edges of every 4x4 block (Section 6.2.2), walking
    // the frame superblock by superblock in raster order: within each
    // 64x64 superblock, all vertical edges are filtered first, then all
    // horizontal edges, so the working set stays superblock-sized.
    const int step = kTransformSize / 2;
    // Edge taps reach 4 pixels to either side; the edge loops skip edges
    // closer than that to the border, so raw pointers stay in the plane.
    std::uint8_t *pixels = plane.buffer().data();
    const std::ptrdiff_t stride = plane.w();

    for (int sb_y = 0; sb_y < plane.h(); sb_y += kSuperblockSize) {
        const int y1 = std::min(sb_y + kSuperblockSize, plane.h());
        for (int sb_x = 0; sb_x < plane.w(); sb_x += kSuperblockSize) {
            const int x1 = std::min(sb_x + kSuperblockSize, plane.w());

            // Vertical edges within this superblock.
            for (int ex = sb_x == 0 ? step : sb_x; ex < x1; ex += step) {
                if (ex < 4 || ex + 4 > plane.w()) {
                    continue;
                }
                for (int y = sb_y; y < y1; ++y) {
                    std::uint8_t *at = pixels + y * stride + ex;
                    const bool filtered = FilterEdgePosition(
                        params, [at](int d) { return at[d]; },
                        [at](int d, std::uint8_t v) { at[d] = v; });
                    ++stats.edges_checked;
                    stats.edges_filtered += filtered ? 1 : 0;
                    // 8-pixel straddle read; 4-pixel writeback when
                    // the mask passes.
                    mem.Read(plane.SimAddr(ex - 4, y), 8);
                    ops.Load(1);
                    ops.VectorAlu(14); // mask |diffs| + compares
                    ops.Branch(2);
                    if (filtered) {
                        mem.Write(plane.SimAddr(ex - 2, y), 4);
                        ops.Store(1);
                        ops.VectorAlu(12); // filter4 arithmetic
                    }
                }
            }

            // Horizontal edges within this superblock.
            for (int ey = sb_y == 0 ? step : sb_y; ey < y1; ey += step) {
                if (ey < 4 || ey + 4 > plane.h()) {
                    continue;
                }
                for (int x = sb_x; x < x1; ++x) {
                    std::uint8_t *at = pixels + ey * stride + x;
                    const bool filtered = FilterEdgePosition(
                        params, [at, stride](int d) { return at[d * stride]; },
                        [at, stride](int d, std::uint8_t v) {
                            at[d * stride] = v;
                        });
                    ++stats.edges_checked;
                    stats.edges_filtered += filtered ? 1 : 0;
                    if (x % 16 == 0) {
                        // Row-granular traffic: 8 rows x 16-px spans.
                        for (int d = -4; d < 4; ++d) {
                            mem.Read(plane.SimAddr(x, ey + d),
                                     std::min(16, plane.w() - x));
                        }
                        ops.Load(8);
                    }
                    ops.VectorAlu(14);
                    ops.Branch(2);
                    if (filtered) {
                        if (x % 16 == 0) {
                            for (int d = -2; d < 2; ++d) {
                                mem.Write(plane.SimAddr(x, ey + d),
                                          std::min(16, plane.w() - x));
                            }
                            ops.Store(4);
                        }
                        ops.VectorAlu(12);
                    }
                }
            }
        }
    }
    return stats;
}

} // namespace pim::video
