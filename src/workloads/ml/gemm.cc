#include "workloads/ml/gemm.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace pim::ml {

namespace {

constexpr int kPanel = PackBlocking::kPanel;

/** a * b for 8-bit operands, as the exact uint16 product widened. */
inline std::uint32_t
Product(std::uint16_t a, std::uint16_t b)
{
    return static_cast<std::uint16_t>(a * b);
}

/** Per-lane sums over depth of one depth-major panel: sum_k p[k][lane]. */
void
LaneSums(const std::uint8_t *panel, int depth, std::uint32_t *sums)
{
    std::uint32_t acc[kPanel] = {};
    for (int k = 0; k < depth; ++k) {
        const std::uint8_t *pk = panel + static_cast<std::size_t>(k) * kPanel;
        for (int lane = 0; lane < kPanel; ++lane) {
            acc[lane] += pk[lane];
        }
    }
    for (int lane = 0; lane < kPanel; ++lane) {
        sums[lane] = acc[lane];
    }
}

} // namespace

void
QuantizedGemm(const PackedMatrix &lhs, std::int32_t za,
              const PackedMatrix &rhs, std::int32_t zb,
              PackedResult &result, core::ExecutionContext &ctx)
{
    PIM_ASSERT(lhs.depth() == rhs.depth(), "depth mismatch %d vs %d",
               lhs.depth(), rhs.depth());
    PIM_ASSERT(result.rows() == lhs.outer() && result.cols() == rhs.outer(),
               "result shape mismatch");

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();
    const int depth = lhs.depth();

    const std::uint8_t *lhs_base = lhs.storage().data();
    const std::uint8_t *rhs_base = rhs.storage().data();
    std::int32_t *out = result.storage().data();

    // gemmlowp's zero-point split: sum_k (a - za)(b - zb) = sum_k a*b -
    // zb*sum_k a - za*sum_k b + depth*za*zb.  The kernel accumulates the
    // raw uint8 products and the row/column sums in uint32; every term
    // is then combined mod 2^32, which is exactly the int32
    // (two's-complement) truncation of the sum ReferenceGemm computes.
    const auto uza = static_cast<std::uint32_t>(za);
    const auto uzb = static_cast<std::uint32_t>(zb);
    const std::uint32_t zz = static_cast<std::uint32_t>(depth) * uza * uzb;
    std::vector<std::uint32_t> rhs_sums(
        static_cast<std::size_t>(rhs.panels()) * kPanel);
    for (int bj = 0; bj < rhs.panels(); ++bj) {
        LaneSums(rhs_base + static_cast<std::size_t>(bj) * kPanel * depth,
                 depth, &rhs_sums[static_cast<std::size_t>(bj) * kPanel]);
    }

    for (int bi = 0; bi < lhs.panels(); ++bi) {
        const std::uint8_t *pa =
            lhs_base + static_cast<std::size_t>(bi) * kPanel * depth;
        std::uint32_t lhs_sums[kPanel] = {};
        LaneSums(pa, depth, lhs_sums);
        const int rows = std::min(kPanel, result.rows() - bi * kPanel);
        for (int bj = 0; bj < rhs.panels(); ++bj) {
            const std::uint8_t *pb =
                rhs_base + static_cast<std::size_t>(bj) * kPanel * depth;
            std::uint32_t acc[kPanel][kPanel] = {};
            // A uint8 product fits uint16 exactly (255^2 < 2^16), so the
            // products are 16-bit vector multiplies; four depth steps are
            // widened and summed before each accumulator update.
            int k = 0;
            for (; k + 4 <= depth; k += 4) {
                const std::uint8_t *ak = pa + static_cast<std::size_t>(k) *
                                                  kPanel;
                const std::uint8_t *bk = pb + static_cast<std::size_t>(k) *
                                                  kPanel;
                std::uint16_t b[4][kPanel];
                for (int j = 0; j < 4; ++j) {
                    for (int c = 0; c < kPanel; ++c) {
                        b[j][c] = bk[j * kPanel + c];
                    }
                }
                for (int r = 0; r < kPanel; ++r) {
                    const std::uint16_t a0 = ak[r];
                    const std::uint16_t a1 = ak[kPanel + r];
                    const std::uint16_t a2 = ak[2 * kPanel + r];
                    const std::uint16_t a3 = ak[3 * kPanel + r];
                    for (int c = 0; c < kPanel; ++c) {
                        acc[r][c] +=
                            (Product(a0, b[0][c]) + Product(a1, b[1][c])) +
                            (Product(a2, b[2][c]) + Product(a3, b[3][c]));
                    }
                }
            }
            for (; k < depth; ++k) {
                const std::uint8_t *ak = pa + static_cast<std::size_t>(k) *
                                                  kPanel;
                const std::uint8_t *bk = pb + static_cast<std::size_t>(k) *
                                                  kPanel;
                for (int r = 0; r < kPanel; ++r) {
                    for (int c = 0; c < kPanel; ++c) {
                        acc[r][c] += Product(ak[r], bk[c]);
                    }
                }
            }
            const std::uint32_t *col_sums =
                &rhs_sums[static_cast<std::size_t>(bj) * kPanel];
            const int cols = std::min(kPanel, result.cols() - bj * kPanel);
            std::int32_t *tile =
                out + (static_cast<std::size_t>(bi) * result.block_cols() +
                       bj) *
                          kPanel * kPanel;
            for (int r = 0; r < rows; ++r) {
                for (int c = 0; c < cols; ++c) {
                    tile[r * kPanel + c] = static_cast<std::int32_t>(
                        acc[r][c] - uzb * lhs_sums[r] -
                        uza * col_sums[c] + zz);
                }
            }

            // Traffic: both panel slices stream through once per
            // micro-tile; the accumulators live in registers, and the
            // micro-tile result is written once.
            mem.Read(lhs.storage().SimAddr(
                         static_cast<std::size_t>(bi) * kPanel * depth),
                     static_cast<Bytes>(kPanel) * depth);
            mem.Read(rhs.storage().SimAddr(
                         static_cast<std::size_t>(bj) * kPanel * depth),
                     static_cast<Bytes>(kPanel) * depth);
            mem.Write(result.storage().SimAddr(
                          (static_cast<std::size_t>(bi) *
                               result.block_cols() +
                           bj) *
                          kPanel * kPanel),
                      static_cast<Bytes>(kPanel) * kPanel *
                          sizeof(std::int32_t));

            // One fused multiply-accumulate per element product.
            const auto macs = static_cast<std::uint64_t>(kPanel) *
                              kPanel * depth;
            ops.VectorMul(macs);
            ops.Load(2 * static_cast<std::uint64_t>(kPanel) * depth / 16);
            ops.Store(static_cast<std::uint64_t>(kPanel) * kPanel / 4);
            ops.Branch(static_cast<std::uint64_t>(depth));
        }
    }
}

void
ReferenceGemm(const Matrix<std::uint8_t> &lhs, std::int32_t za,
              const Matrix<std::uint8_t> &rhs, std::int32_t zb,
              Matrix<std::int32_t> &result)
{
    PIM_ASSERT(lhs.cols() == rhs.rows(), "shape mismatch");
    PIM_ASSERT(result.rows() == lhs.rows() && result.cols() == rhs.cols(),
               "result shape mismatch");
    for (int r = 0; r < lhs.rows(); ++r) {
        for (int c = 0; c < rhs.cols(); ++c) {
            std::int64_t acc = 0;
            for (int k = 0; k < lhs.cols(); ++k) {
                acc += (static_cast<std::int32_t>(lhs.At(r, k)) - za) *
                       (static_cast<std::int32_t>(rhs.At(k, c)) - zb);
            }
            result.At(r, c) = static_cast<std::int32_t>(acc);
        }
    }
}

} // namespace pim::ml
