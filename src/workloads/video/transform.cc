#include "workloads/video/transform.h"

#include <array>
#include <cmath>

#include "common/logging.h"

namespace pim::video {

namespace {

constexpr int kN = 8;

/** DCT-II basis matrix C[k][n], orthonormal scaling. */
const double *
DctBasis()
{
    static const std::array<double, kN * kN> basis = [] {
        std::array<double, kN * kN> b{};
        const double pi = 3.14159265358979323846;
        for (int k = 0; k < kN; ++k) {
            const double scale =
                k == 0 ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
            for (int n = 0; n < kN; ++n) {
                b[k * kN + n] =
                    scale * std::cos(pi * (2 * n + 1) * k / (2.0 * kN));
            }
        }
        return b;
    }();
    return basis.data();
}

/** The basis transposed, CT[n][k] = C[k][n]. */
const double *
DctBasisT()
{
    static const std::array<double, kN * kN> basis_t = [] {
        const double *c = DctBasis();
        std::array<double, kN * kN> t{};
        for (int k = 0; k < kN; ++k) {
            for (int n = 0; n < kN; ++n) {
                t[n * kN + k] = c[k * kN + n];
            }
        }
        return t;
    }();
    return basis_t.data();
}

/**
 * Account the op mix of one separable 8x8 transform (both passes),
 * costed as a fast butterfly network (AAN-style: ~5 multiplies and
 * ~29 additions per 8-point line), the way production codecs run it —
 * not as dense matrix products.
 */
void
CountTransformOps(core::ExecutionContext &ctx, Bytes in_bytes,
                  Bytes out_bytes)
{
    auto &ops = ctx.ops();
    ops.VectorMul(2 * kN * 5);
    ops.VectorAlu(2 * kN * 29);
    ops.Load((in_bytes + 15) / 16);
    ops.Store((out_bytes + 15) / 16);
    ops.Branch(2 * kN);
}

} // namespace

int
QuantStep(int qindex)
{
    PIM_ASSERT(qindex >= 0 && qindex <= 255, "qindex %d", qindex);
    // Roughly exponential step growth, VP9-flavored: 4 at qindex 0,
    // ~1365 at 255.
    return 4 + qindex * qindex / 49;
}

/*
 * Each output of a pass is one dot product summed over its inputs in
 * ascending order.  The loops keep that order per output but make the
 * outputs the inner (vectorized) dimension, so every double is computed
 * exactly as by the output-at-a-time form.
 */

void
ForwardDct8x8(const Block8x8<std::int16_t> &residual,
              Block8x8<std::int32_t> &coeffs,
              core::ExecutionContext &ctx)
{
    const double *c = DctBasis();
    const double *ct = DctBasisT();
    double tmp[kN * kN];
    // Rows: tmp[y][k] = sum_n C[k][n] * residual[y][n].
    for (int y = 0; y < kN; ++y) {
        double acc[kN] = {};
        for (int n = 0; n < kN; ++n) {
            const double r = residual[y * kN + n];
            for (int k = 0; k < kN; ++k) {
                acc[k] += ct[n * kN + k] * r;
            }
        }
        for (int k = 0; k < kN; ++k) {
            tmp[y * kN + k] = acc[k];
        }
    }
    // Columns: coeffs[k][x] = sum_n C[k][n] * tmp[n][x].
    for (int k = 0; k < kN; ++k) {
        double acc[kN] = {};
        for (int n = 0; n < kN; ++n) {
            const double ckn = c[k * kN + n];
            for (int x = 0; x < kN; ++x) {
                acc[x] += ckn * tmp[n * kN + x];
            }
        }
        for (int x = 0; x < kN; ++x) {
            coeffs[k * kN + x] =
                static_cast<std::int32_t>(std::lround(acc[x]));
        }
    }
    CountTransformOps(ctx, sizeof(residual), sizeof(coeffs));
}

void
InverseDct8x8(const Block8x8<std::int32_t> &coeffs,
              Block8x8<std::int16_t> &residual,
              core::ExecutionContext &ctx)
{
    const double *c = DctBasis();
    double tmp[kN * kN];
    // Columns (inverse): tmp[n][x] = sum_k C[k][n] * coeffs[k][x].
    for (int n = 0; n < kN; ++n) {
        double acc[kN] = {};
        for (int k = 0; k < kN; ++k) {
            const double ckn = c[k * kN + n];
            for (int x = 0; x < kN; ++x) {
                acc[x] += ckn * coeffs[k * kN + x];
            }
        }
        for (int x = 0; x < kN; ++x) {
            tmp[n * kN + x] = acc[x];
        }
    }
    // Rows (inverse): residual[y][n] = sum_k C[k][n] * tmp[y][k].
    for (int y = 0; y < kN; ++y) {
        double acc[kN] = {};
        for (int k = 0; k < kN; ++k) {
            const double t = tmp[y * kN + k];
            for (int n = 0; n < kN; ++n) {
                acc[n] += c[k * kN + n] * t;
            }
        }
        for (int n = 0; n < kN; ++n) {
            const long v = std::lround(acc[n]);
            residual[y * kN + n] = static_cast<std::int16_t>(
                v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
        }
    }
    CountTransformOps(ctx, sizeof(coeffs), sizeof(residual));
}

int
QuantizeBlock(const Block8x8<std::int32_t> &coeffs, int qindex,
              Block8x8<std::int16_t> &levels,
              core::ExecutionContext &ctx)
{
    const int step = QuantStep(qindex);
    int nonzero = 0;
    for (int i = 0; i < 64; ++i) {
        const int q = coeffs[i] >= 0 ? (coeffs[i] + step / 2) / step
                                     : -((-coeffs[i] + step / 2) / step);
        levels[i] = static_cast<std::int16_t>(q);
        nonzero += q != 0 ? 1 : 0;
    }
    auto &ops = ctx.ops();
    ops.VectorMul(64);
    ops.VectorAlu(128);
    ops.Load(16);
    ops.Store(8);
    return nonzero;
}

void
DequantizeBlock(const Block8x8<std::int16_t> &levels, int qindex,
                Block8x8<std::int32_t> &coeffs,
                core::ExecutionContext &ctx)
{
    const int step = QuantStep(qindex);
    for (int i = 0; i < 64; ++i) {
        coeffs[i] = static_cast<std::int32_t>(levels[i]) * step;
    }
    auto &ops = ctx.ops();
    ops.VectorMul(64);
    ops.Load(8);
    ops.Store(16);
}

const std::array<std::uint8_t, 64> &
ZigZag8x8()
{
    static const std::array<std::uint8_t, 64> order = [] {
        std::array<std::uint8_t, 64> o{};
        int index = 0;
        for (int s = 0; s < 2 * kN - 1; ++s) {
            if (s % 2 == 0) {
                // Walk up-right.
                for (int y = std::min(s, kN - 1); y >= 0 && s - y < kN;
                     --y) {
                    o[static_cast<std::size_t>(index++)] =
                        static_cast<std::uint8_t>(y * kN + (s - y));
                }
            } else {
                for (int x = std::min(s, kN - 1); x >= 0 && s - x < kN;
                     --x) {
                    o[static_cast<std::size_t>(index++)] =
                        static_cast<std::uint8_t>((s - x) * kN + x);
                }
            }
        }
        return o;
    }();
    return order;
}

} // namespace pim::video
