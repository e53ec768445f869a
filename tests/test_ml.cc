/**
 * @file
 * Tests for the TensorFlow Mobile workload: quantization, packing,
 * quantized GEMM, im2col, network tables, and the inference driver.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "workloads/ml/conv2d.h"
#include "workloads/ml/gemm.h"
#include "workloads/ml/inference.h"
#include "workloads/ml/network.h"
#include "workloads/ml/pack.h"
#include "workloads/ml/quantize.h"

namespace pim::ml {
namespace {

using core::ExecutionContext;
using core::ExecutionTarget;

TEST(Quantize, ParamsCoverRangeAndZero)
{
    const QuantParams p = ChooseQuantParams(-2.0f, 6.0f);
    // Zero must be exactly representable.
    const float zero = Dequantize(
        static_cast<std::uint8_t>(p.zero_point), p);
    EXPECT_FLOAT_EQ(zero, 0.0f);
    // Range endpoints are representable within half a step.
    EXPECT_NEAR(Dequantize(0, p), -2.0f, p.scale);
    EXPECT_NEAR(Dequantize(255, p), 6.0f, p.scale);
}

TEST(Quantize, DegenerateRange)
{
    const QuantParams p = ChooseQuantParams(3.0f, 3.0f);
    EXPECT_GT(p.scale, 0.0f);
}

TEST(Quantize, RoundTripErrorBounded)
{
    Rng rng(21);
    Matrix<float> m(32, 32);
    m.Randomize(rng);
    Matrix<std::uint8_t> q(32, 32);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const QuantParams p = QuantizeFloat(m, q, ctx);

    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            const float back = Dequantize(q.At(r, c), p);
            ASSERT_NEAR(back, m.At(r, c), p.scale * 0.501f + 1e-6f);
        }
    }
}

TEST(Quantize, FindMinMaxMatchesStd)
{
    Rng rng(22);
    Matrix<std::int32_t> m(16, 48);
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            m.At(r, c) = static_cast<std::int32_t>(rng.Range(-5000, 5000));
        }
    }
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    const auto mm = FindMinMax(m, ctx);
    std::int32_t lo = m.At(0, 0), hi = m.At(0, 0);
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            lo = std::min(lo, m.At(r, c));
            hi = std::max(hi, m.At(r, c));
        }
    }
    EXPECT_EQ(mm.min_value, lo);
    EXPECT_EQ(mm.max_value, hi);
}

TEST(Quantize, TwoScansOfTraffic)
{
    // Figure 8: quantization reads the matrix twice (min/max + convert).
    Matrix<float> m(64, 64);
    Matrix<std::uint8_t> q(64, 64);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    QuantizeFloat(m, q, ctx);
    EXPECT_EQ(ctx.mem().bytes_read(), 2 * m.size_bytes());
    EXPECT_EQ(ctx.mem().bytes_written(), q.size_bytes());
}

TEST(Pack, LhsLayoutIsDepthMajor)
{
    Matrix<std::uint8_t> src(16, 8);
    for (int r = 0; r < 16; ++r) {
        for (int k = 0; k < 8; ++k) {
            src.At(r, k) = static_cast<std::uint8_t>(r * 8 + k);
        }
    }
    PackedMatrix packed(16, 8);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    PackLhs(src, packed, ctx);

    for (int r = 0; r < 16; ++r) {
        for (int k = 0; k < 8; ++k) {
            ASSERT_EQ(packed.At(r, k), src.At(r, k));
        }
    }
    // Lane-interleaved within a panel: (r=1, k=0) sits right after
    // (r=0, k=0) in storage.
    EXPECT_EQ(packed.storage()[0], src.At(0, 0));
    EXPECT_EQ(packed.storage()[1], src.At(1, 0));
    EXPECT_EQ(packed.storage()[8], src.At(0, 1));
}

TEST(Pack, PaddingLanesReadZero)
{
    Matrix<std::uint8_t> src(10, 4, 7); // 10 rows -> 2 panels, 6 pad
    PackedMatrix packed(10, 4);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    PackLhs(src, packed, ctx);
    EXPECT_EQ(packed.panels(), 2);
    EXPECT_EQ(packed.At(9, 0), 7);
    EXPECT_EQ(packed.At(10, 0), 0); // padding lane
    EXPECT_EQ(packed.At(15, 3), 0);
}

TEST(Pack, RhsTransposesColumnsToLanes)
{
    Matrix<std::uint8_t> src(4, 16); // K=4, N=16
    for (int k = 0; k < 4; ++k) {
        for (int c = 0; c < 16; ++c) {
            src.At(k, c) = static_cast<std::uint8_t>(k * 16 + c);
        }
    }
    PackedMatrix packed(16, 4);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    PackRhs(src, packed, ctx);
    for (int c = 0; c < 16; ++c) {
        for (int k = 0; k < 4; ++k) {
            ASSERT_EQ(packed.At(c, k), src.At(k, c));
        }
    }
}

TEST(Pack, UnpackRestoresRowMajor)
{
    Rng rng(31);
    PackedResult packed(12, 20);
    Matrix<std::int32_t> expected(12, 20);
    for (int r = 0; r < 12; ++r) {
        for (int c = 0; c < 20; ++c) {
            const auto v = static_cast<std::int32_t>(rng.Range(-100, 100));
            packed.Set(r, c, v);
            expected.At(r, c) = v;
        }
    }
    Matrix<std::int32_t> out(12, 20);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    UnpackResult(packed, out, ctx);
    for (int r = 0; r < 12; ++r) {
        for (int c = 0; c < 20; ++c) {
            ASSERT_EQ(out.At(r, c), expected.At(r, c));
        }
    }
}

/** GEMM equivalence against the naive reference across shapes. */
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapeTest, MatchesReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
    Matrix<std::uint8_t> a(m, k);
    Matrix<std::uint8_t> b(k, n);
    a.Randomize(rng);
    b.Randomize(rng);
    const std::int32_t za = 3;
    const std::int32_t zb = 128;

    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    PackedMatrix pa(m, k);
    PackedMatrix pb(n, k);
    PackLhs(a, pa, ctx);
    PackRhs(b, pb, ctx);
    PackedResult pr(m, n);
    QuantizedGemm(pa, za, pb, zb, pr, ctx);
    Matrix<std::int32_t> got(m, n);
    UnpackResult(pr, got, ctx);

    Matrix<std::int32_t> want(m, n);
    ReferenceGemm(a, za, b, zb, want);
    for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
            ASSERT_EQ(got.At(r, c), want.At(r, c))
                << "(" << r << "," << c << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(8, 8, 8),
                      std::make_tuple(16, 32, 8),
                      std::make_tuple(7, 5, 3),   // non-multiples
                      std::make_tuple(9, 16, 17), // ragged panels
                      std::make_tuple(1, 64, 1),
                      std::make_tuple(33, 7, 12)));

/** Pack, run QuantizedGemm and unpack: the production GEMM pipeline. */
Matrix<std::int32_t>
PackedGemm(const Matrix<std::uint8_t> &a, std::int32_t za,
           const Matrix<std::uint8_t> &b, std::int32_t zb)
{
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    PackedMatrix pa(a.rows(), a.cols());
    PackedMatrix pb(b.cols(), b.rows());
    PackLhs(a, pa, ctx);
    PackRhs(b, pb, ctx);
    PackedResult pr(a.rows(), b.cols());
    QuantizedGemm(pa, za, pb, zb, pr, ctx);
    Matrix<std::int32_t> got(a.rows(), b.cols());
    UnpackResult(pr, got, ctx);
    return got;
}

void
ExpectGemmMatchesReference(const Matrix<std::uint8_t> &a, std::int32_t za,
                           const Matrix<std::uint8_t> &b, std::int32_t zb)
{
    const Matrix<std::int32_t> got = PackedGemm(a, za, b, zb);
    Matrix<std::int32_t> want(a.rows(), b.cols());
    ReferenceGemm(a, za, b, zb, want);
    for (int r = 0; r < want.rows(); ++r) {
        for (int c = 0; c < want.cols(); ++c) {
            ASSERT_EQ(got.At(r, c), want.At(r, c))
                << "(" << r << "," << c << ") za " << za << " zb " << zb;
        }
    }
}

/*
 * QuantizedGemm accumulates raw uint8 products and applies the
 * zero-point corrections from row/column sums afterwards; the split
 * must be bit-equal to the direct (a - za)(b - zb) sum for every zero
 * point, including the saturated operands that maximize each term.
 */
TEST(GemmZeroPoints, MatchesReferenceForEveryZeroPointAndFill)
{
    const std::int32_t zero_points[] = {0, 1, 127, 128, 254, 255};
    for (const auto &[m, k, n] :
         {std::tuple{5, 13, 11}, std::tuple{9, 8, 17}, std::tuple{1, 3, 8}}) {
        Rng rng(static_cast<std::uint64_t>(m * 97 + k * 13 + n));
        Matrix<std::uint8_t> random_a(m, k);
        Matrix<std::uint8_t> random_b(k, n);
        random_a.Randomize(rng);
        random_b.Randomize(rng);
        const Matrix<std::uint8_t> zeros_a(m, k, 0);
        const Matrix<std::uint8_t> zeros_b(k, n, 0);
        const Matrix<std::uint8_t> full_a(m, k, 255);
        const Matrix<std::uint8_t> full_b(k, n, 255);
        for (const std::int32_t za : zero_points) {
            for (const std::int32_t zb : zero_points) {
                SCOPED_TRACE(::testing::Message()
                             << m << "x" << k << "x" << n);
                ExpectGemmMatchesReference(random_a, za, random_b, zb);
                ExpectGemmMatchesReference(zeros_a, za, zeros_b, zb);
                ExpectGemmMatchesReference(full_a, za, full_b, zb);
                ExpectGemmMatchesReference(full_a, za, zeros_b, zb);
                ExpectGemmMatchesReference(zeros_a, za, random_b, zb);
            }
        }
    }
}

TEST(GemmZeroPoints, Vgg19Fc6DepthNearInt32Limit)
{
    // VGG-19 fc6 has depth 25088: 25088 * 255 * 255 = 1.63e9 is within
    // 25% of INT32_MAX, and the uint32 correction terms wrap mod 2^32
    // on the way there.
    constexpr int kDepth = 25088;
    const Matrix<std::uint8_t> zeros_a(3, kDepth, 0);
    const Matrix<std::uint8_t> zeros_b(kDepth, 9, 0);
    const Matrix<std::uint8_t> full_a(3, kDepth, 255);
    const Matrix<std::uint8_t> full_b(kDepth, 9, 255);
    Rng rng(25088);
    Matrix<std::uint8_t> random_a(3, kDepth);
    Matrix<std::uint8_t> random_b(kDepth, 9);
    random_a.Randomize(rng);
    random_b.Randomize(rng);

    const Matrix<std::int32_t> top = PackedGemm(full_a, 0, full_b, 0);
    EXPECT_EQ(top.At(2, 8), kDepth * 255 * 255);
    const Matrix<std::int32_t> bottom = PackedGemm(full_a, 0, zeros_b, 255);
    EXPECT_EQ(bottom.At(0, 0), -kDepth * 255 * 255);

    ExpectGemmMatchesReference(full_a, 0, full_b, 0);
    ExpectGemmMatchesReference(zeros_a, 255, zeros_b, 255);
    ExpectGemmMatchesReference(full_a, 0, zeros_b, 255);
    ExpectGemmMatchesReference(random_a, 128, random_b, 128);
    ExpectGemmMatchesReference(random_a, 1, full_b, 254);
}

TEST(Im2Col, IdentityKernelCopiesChannels)
{
    LayerSpec layer{"l", 4, 4, 3, 8, 1, 1, 1};
    ImageU8 image(4, 4, 3);
    Rng rng(41);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            for (int c = 0; c < 3; ++c) {
                image.At(y, x, c) = rng.NextByte();
            }
        }
    }
    Matrix<std::uint8_t> patches(16, 3);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    Im2Col(image, layer, 0, patches, ctx);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            for (int c = 0; c < 3; ++c) {
                ASSERT_EQ(patches.At(y * 4 + x, c), image.At(y, x, c));
            }
        }
    }
}

TEST(Im2Col, SamePaddingUsesZeroPoint)
{
    LayerSpec layer{"l", 4, 4, 1, 1, 3, 1, 1};
    ImageU8 image(4, 4, 1);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            image.At(y, x, 0) = 50;
        }
    }
    Matrix<std::uint8_t> patches(16, 9);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    Im2Col(image, layer, 99, patches, ctx);
    // Corner output (0,0): top-left taps fall outside -> zero point.
    EXPECT_EQ(patches.At(0, 0), 99);
    EXPECT_EQ(patches.At(0, 4), 50); // center tap
}

TEST(Networks, ShapesMatchThePaper)
{
    const NetworkSpec vgg = Vgg19();
    EXPECT_EQ(vgg.TotalLayerInvocations(), 19); // 16 conv + 3 FC

    const NetworkSpec resnet = ResNetV2_152();
    // The paper attributes 156 Conv2D invocations to ResNet.
    EXPECT_NEAR(resnet.TotalLayerInvocations(), 156, 2);

    const NetworkSpec inception = InceptionResNetV2();
    EXPECT_GT(inception.TotalLayerInvocations(), 150);

    const NetworkSpec gru = ResidualGru();
    EXPECT_GT(gru.TotalLayerInvocations(), 100); // recurrent unrolling

    // VGG has few, huge GEMMs: more MACs per invocation than ResNet.
    EXPECT_GT(vgg.TotalMacs() / vgg.TotalLayerInvocations(),
              resnet.TotalMacs() / resnet.TotalLayerInvocations());
}

TEST(Networks, GemmDimsArePositive)
{
    for (const auto &net : AllNetworks()) {
        for (const auto &layer : net.layers) {
            EXPECT_GT(layer.gemm_m(), 0) << net.name << "/" << layer.name;
            EXPECT_GT(layer.gemm_k(), 0) << net.name << "/" << layer.name;
            EXPECT_GT(layer.gemm_n(), 0) << net.name << "/" << layer.name;
        }
    }
}

TEST(ScaleLayer, PreservesSmallDims)
{
    const LayerSpec layer{"l", 224, 224, 3, 64, 3, 1, 1};
    const EvalScale scale{0.25, 0.25, 4};
    const LayerSpec s = ScaleLayer(layer, scale);
    EXPECT_EQ(s.in_h, 56);
    EXPECT_EQ(s.in_ch, 3); // below min_dim: untouched
    EXPECT_EQ(s.out_ch, 16);
}

TEST(Inference, TinyNetworkRunsAndAttributesEnergy)
{
    NetworkSpec tiny;
    tiny.name = "tiny";
    tiny.layers = {
        {"conv1", 16, 16, 4, 8, 3, 1, 1},
        {"conv2", 16, 16, 8, 8, 3, 1, 2},
        {"fc", 1, 1, 64, 16, 1, 1, 1},
    };
    const InferenceResult r =
        RunInference(tiny, EvalScale{1.0, 1.0, 4});
    EXPECT_EQ(r.network, "tiny");
    EXPECT_GT(r.packing.energy.Total(), 0.0);
    EXPECT_GT(r.quantization.energy.Total(), 0.0);
    EXPECT_GT(r.gemm.energy.Total(), 0.0);
    EXPECT_GT(r.TotalEnergy(), 0.0);
    // GEMM dominates compute on CNNs.
    EXPECT_GT(r.gemm.instructions, r.packing.instructions);
}

TEST(Inference, PimOffloadCutsPackQuantEnergy)
{
    // The layer must be large enough that its matrices spill out of the
    // host LLC — PIM only wins when the CPU actually moves data.
    NetworkSpec tiny;
    tiny.name = "tiny";
    tiny.layers = {{"conv", 64, 64, 64, 64, 3, 1, 1}};
    const EvalScale scale{1.0, 1.0, 4};
    const InferenceResult cpu =
        RunInference(tiny, scale, ExecutionTarget::kCpuOnly);
    const InferenceResult pim =
        RunInference(tiny, scale, ExecutionTarget::kPimAccel);
    EXPECT_LT(pim.packing.energy.Total() +
                  pim.quantization.energy.Total(),
              cpu.packing.energy.Total() +
                  cpu.quantization.energy.Total());
    // The GEMM kernel stays on the host either way.
    EXPECT_NEAR(pim.gemm.instructions, cpu.gemm.instructions,
                cpu.gemm.instructions * 0.01);
}

} // namespace
} // namespace pim::ml
