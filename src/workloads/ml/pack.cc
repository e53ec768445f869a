#include "workloads/ml/pack.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace pim::ml {

namespace {

constexpr int kPanel = PackBlocking::kPanel;

/** First byte of panel @p panel's depth-major storage. */
std::uint8_t *
PanelData(PackedMatrix &m, int panel)
{
    return m.storage().data() +
           static_cast<std::size_t>(panel) * kPanel * m.depth();
}

} // namespace

PackedMatrix::PackedMatrix(int outer, int depth)
    : outer_(outer), depth_(depth),
      panels_((outer + kPanel - 1) / kPanel),
      storage_(static_cast<std::size_t>(panels_) * kPanel * depth, 0)
{
    PIM_ASSERT(outer > 0 && depth > 0, "packed matrix must be non-empty");
}

std::size_t
PackedMatrix::StorageIndex(int o, int k) const
{
    PIM_ASSERT(o >= 0 && o < panels_ * kPanel && k >= 0 && k < depth_,
               "(%d,%d) out of packed %dx%d", o, k, panels_ * kPanel,
               depth_);
    const int panel = o / kPanel;
    const int lane = o % kPanel;
    return static_cast<std::size_t>(panel) * kPanel * depth_ +
           static_cast<std::size_t>(k) * kPanel + lane;
}

std::uint8_t
PackedMatrix::At(int o, int k) const
{
    return storage_[StorageIndex(o, k)];
}

PackedResult::PackedResult(int rows, int cols)
    : rows_(rows), cols_(cols), block_rows_((rows + kPanel - 1) / kPanel),
      block_cols_((cols + kPanel - 1) / kPanel),
      storage_(static_cast<std::size_t>(block_rows_) * block_cols_ *
                   kPanel * kPanel,
               0)
{
    PIM_ASSERT(rows > 0 && cols > 0, "result must be non-empty");
}

std::size_t
PackedResult::StorageIndex(int r, int c) const
{
    PIM_ASSERT(r >= 0 && r < block_rows_ * kPanel && c >= 0 &&
                   c < block_cols_ * kPanel,
               "(%d,%d) out of blocks", r, c);
    const int br = r / kPanel;
    const int bc = c / kPanel;
    const int ir = r % kPanel;
    const int ic = c % kPanel;
    return (static_cast<std::size_t>(br) * block_cols_ + bc) * kPanel *
               kPanel +
           static_cast<std::size_t>(ir) * kPanel + ic;
}

void
PackedResult::Set(int r, int c, std::int32_t v)
{
    storage_[StorageIndex(r, c)] = v;
}

void
PackLhs(const Matrix<std::uint8_t> &src, PackedMatrix &dst,
        core::ExecutionContext &ctx)
{
    PIM_ASSERT(src.rows() == dst.outer() && src.cols() == dst.depth(),
               "LHS %dx%d does not match packed %dx%d", src.rows(),
               src.cols(), dst.outer(), dst.depth());

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    const int depth = dst.depth();

    for (int panel = 0; panel < dst.panels(); ++panel) {
        const int r0 = panel * kPanel;
        // Gather kPanel source rows into depth-major panel storage.
        std::uint8_t *pdst = PanelData(dst, panel);
        for (int lane = 0; lane < kPanel; ++lane) {
            const int r = r0 + lane;
            std::uint8_t *out = pdst + lane;
            if (r < src.rows()) {
                const std::uint8_t *row = src.Row(r);
                for (int k = 0; k < depth; ++k) {
                    out[static_cast<std::size_t>(k) * kPanel] = row[k];
                }
            } else {
                for (int k = 0; k < depth; ++k) {
                    out[static_cast<std::size_t>(k) * kPanel] = 0;
                }
            }
        }
        // Traffic: each source row is read once (streaming), but the
        // destination interleaves lanes, so writes go out depth-major.
        for (int lane = 0; lane < kPanel; ++lane) {
            const int r = r0 + lane;
            if (r < src.rows()) {
                mem.Read(src.SimAddr(r, 0), static_cast<Bytes>(depth));
                ops.Load((static_cast<Bytes>(depth) + 15) / 16);
            }
        }
        mem.Write(dst.storage().SimAddr(
                      static_cast<std::size_t>(panel) * kPanel * depth),
                  static_cast<Bytes>(kPanel) * depth);
        ops.Store((static_cast<Bytes>(kPanel) * depth + 15) / 16);
        // Index arithmetic: interleave shuffles per 16-byte group.
        ops.VectorAlu(static_cast<Bytes>(kPanel) * depth / 8);
        ops.Branch(static_cast<std::uint64_t>(depth) / 16 + 1);
    }
}

void
PackRhs(const Matrix<std::uint8_t> &src, PackedMatrix &dst,
        core::ExecutionContext &ctx)
{
    PIM_ASSERT(src.cols() == dst.outer() && src.rows() == dst.depth(),
               "RHS %dx%d does not match packed outer %d depth %d",
               src.rows(), src.cols(), dst.outer(), dst.depth());

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    const int depth = dst.depth();

    // The host copy walks each source row once, dealing its kPanel-wide
    // slices out to every panel; the modelled traffic below is still
    // the panel-by-panel column gather.
    const int full_panels = src.cols() / kPanel;
    const int ragged = src.cols() - full_panels * kPanel;
    for (int k = 0; k < depth; ++k) {
        const std::uint8_t *row = src.Row(k);
        const std::size_t at = static_cast<std::size_t>(k) * kPanel;
        for (int panel = 0; panel < full_panels; ++panel) {
            std::memcpy(PanelData(dst, panel) + at, row + panel * kPanel,
                        kPanel);
        }
        if (ragged > 0) {
            std::uint8_t *pk = PanelData(dst, full_panels) + at;
            std::memcpy(pk, row + full_panels * kPanel,
                        static_cast<std::size_t>(ragged));
            std::memset(pk + ragged, 0,
                        static_cast<std::size_t>(kPanel - ragged));
        }
    }
    for (int panel = 0; panel < dst.panels(); ++panel) {
        const int c0 = panel * kPanel;
        for (int k = 0; k < depth; ++k) {
            // Column gather: one strided read of kPanel bytes per k.
            mem.Read(src.SimAddr(k, std::min(c0, src.cols() - 1)),
                     kPanel);
            ops.Load(1);
            ops.Alu(2);
        }
        mem.Write(dst.storage().SimAddr(
                      static_cast<std::size_t>(panel) * kPanel * depth),
                  static_cast<Bytes>(kPanel) * depth);
        ops.Store((static_cast<Bytes>(kPanel) * depth + 15) / 16);
        ops.Branch(static_cast<std::uint64_t>(depth) / 16 + 1);
    }
}

void
UnpackResult(const PackedResult &src, Matrix<std::int32_t> &dst,
             core::ExecutionContext &ctx)
{
    PIM_ASSERT(src.rows() == dst.rows() && src.cols() == dst.cols(),
               "result %dx%d does not match %dx%d", src.rows(), src.cols(),
               dst.rows(), dst.cols());

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();

    for (int br = 0; br < src.block_rows(); ++br) {
        for (int bc = 0; bc < src.block_cols(); ++bc) {
            const int r0 = br * kPanel;
            const int c0 = bc * kPanel;
            const int cols = std::min(kPanel, dst.cols() - c0);
            for (int ir = 0; ir < kPanel; ++ir) {
                const int r = r0 + ir;
                if (r >= dst.rows()) {
                    break;
                }
                const std::size_t at = src.StorageIndex(r, c0);
                std::memcpy(dst.Row(r) + c0, src.storage().data() + at,
                            static_cast<std::size_t>(cols) *
                                sizeof(std::int32_t));
                // Block row read is contiguous; destination write is a
                // short strided row segment.
                mem.Read(src.storage().SimAddr(at),
                         kPanel * sizeof(std::int32_t));
                mem.Write(dst.SimAddr(r, std::min(c0, dst.cols() - 1)),
                          kPanel * sizeof(std::int32_t));
                ops.Load(2);
                ops.Store(2);
                ops.Alu(4);
            }
            ops.Branch(kPanel);
        }
    }
}

} // namespace pim::ml
