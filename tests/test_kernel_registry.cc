/**
 * @file
 * Kernel-registry tests: catalog enumeration and lookup, glob
 * matching, scale helpers, end-to-end execution of every registered
 * kernel on all three targets, bit-identical equivalence between the
 * registry path and a hard-coded legacy-style setup (one kernel per
 * workload group), the record-once LLC sweep equivalence behind
 * `pim_run --sweep=llc`, compact recording against raw recording for
 * every kernel, and the MPKI zero-instruction guards.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "core/kernel_registry.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace_codec.h"
#include "telemetry/report_json.h"
#include "workloads/browser/texture_tiler.h"
#include "workloads/catalog.h"
#include "workloads/ml/pack.h"
#include "workloads/video/subpel.h"
#include "workloads/video/video_gen.h"

namespace pim {
namespace {

using core::ExecutionContext;
using core::KernelRegistry;
using core::KernelSession;
using core::KernelSpec;

const KernelRegistry &
Catalog()
{
    workloads::EnsureKernelCatalog();
    return KernelRegistry::Global();
}

TEST(KernelRegistry, CatalogEnumeratesEveryPaperKernelOnce)
{
    const auto &registry = Catalog();
    const auto all = registry.All();
    ASSERT_EQ(all.size(), 9u) << "Figures 18+19+20 define 9 kernels";
    EXPECT_EQ(registry.size(), all.size());

    std::set<std::string> slugs;
    for (const auto *spec : all) {
        EXPECT_FALSE(spec->name.empty());
        EXPECT_FALSE(spec->figure.empty());
        EXPECT_TRUE(slugs.insert(spec->Slug()).second)
            << "duplicate slug " << spec->Slug();
    }

    const std::vector<std::string> groups = registry.Groups();
    ASSERT_EQ(groups, (std::vector<std::string>{"browser", "tf", "video"}));
    EXPECT_EQ(registry.Group("browser").size(), 4u);
    EXPECT_EQ(registry.Group("tf").size(), 2u);
    EXPECT_EQ(registry.Group("video").size(), 3u);
}

TEST(KernelRegistry, CanonicalOrderMatchesTheFigures)
{
    const auto all = Catalog().All();
    std::vector<std::string> names;
    names.reserve(all.size());
    for (const auto *spec : all) {
        names.push_back(spec->name);
    }
    const std::vector<std::string> expected = {
        "Texture Tiling",      "Color Blitting",
        "Compression",         "Decompression",
        "Packing",             "Quantization",
        "Sub-Pixel Interpolation", "Deblocking Filter",
        "Motion Estimation",
    };
    EXPECT_EQ(names, expected);
}

TEST(KernelRegistry, FindAcceptsSlugAndDisplayName)
{
    const auto &registry = Catalog();
    const KernelSpec *by_slug = registry.Find("texture_tiling");
    const KernelSpec *by_name = registry.Find("Texture Tiling");
    ASSERT_NE(by_slug, nullptr);
    EXPECT_EQ(by_slug, by_name);
    EXPECT_EQ(registry.Find("no_such_kernel"), nullptr);
}

TEST(KernelRegistry, MatchSupportsSubstringsAndGlobs)
{
    const auto &registry = Catalog();
    EXPECT_EQ(registry.Match("blit").size(), 1u);
    EXPECT_EQ(registry.Match("BLIT").size(), 1u) << "case-insensitive";
    EXPECT_EQ(registry.Match("*compress*").size(), 2u);
    EXPECT_EQ(registry.Match("*").size(), registry.size());
    EXPECT_TRUE(registry.Match("zzz").empty());
}

TEST(GlobMatch, StarAndQuestionSemantics)
{
    EXPECT_TRUE(core::GlobMatch("*", ""));
    EXPECT_TRUE(core::GlobMatch("a*b*c", "a_xx_b_yy_c"));
    EXPECT_FALSE(core::GlobMatch("a*b*c", "a_xx_c"));
    EXPECT_TRUE(core::GlobMatch("p?ck*", "packing"));
    EXPECT_FALSE(core::GlobMatch("p?ck", "packing"));
}

TEST(ScaleHelpers, RoundToAlignedPositiveDimensions)
{
    EXPECT_EQ(core::ScaleDim(512, 1.0, 32), 512);
    EXPECT_EQ(core::ScaleDim(512, 0.25, 32), 128);
    EXPECT_EQ(core::ScaleDim(512, 0.0625, 32), 32);
    // Never rounds to zero, whatever the scale.
    EXPECT_EQ(core::ScaleDim(1024, 0.0001, 256), 256);
    EXPECT_EQ(core::ScaleBytes(256 * 1024, 1.0), 256u * 1024u);
    EXPECT_EQ(core::ScaleBytes(256 * 1024, 0.0625), 16u * 1024u);
    EXPECT_EQ(core::ScaleBytes(100, 0.001), 4096u) << "page-granular floor";
}

TEST(KernelSession, EveryKernelRunsOnAllThreeTargets)
{
    const auto &registry = Catalog();
    KernelSession session(0.0625);
    for (const auto *spec : registry.All()) {
        SCOPED_TRACE(spec->name);
        const core::KernelResult r = session.Run(*spec);
        EXPECT_EQ(r.name, spec->name);
        EXPECT_EQ(r.cpu.target, core::ExecutionTarget::kCpuOnly);
        EXPECT_EQ(r.pim_core.target, core::ExecutionTarget::kPimCore);
        EXPECT_EQ(r.pim_acc.target, core::ExecutionTarget::kPimAccel);
        EXPECT_GT(r.cpu.TotalEnergyPj(), 0.0);
        EXPECT_GT(r.cpu.TotalTimeNs(), 0.0);
        EXPECT_GT(r.pim_core.TotalTimeNs(), 0.0);
        EXPECT_GT(r.pim_acc.TotalTimeNs(), 0.0);
        EXPECT_GT(r.cpu.ops.Total(), 0u);
    }
}

TEST(KernelSession, StandaloneDecompressionSelfMaterializesInputs)
{
    // Decompression depends on Compression's output; run alone it must
    // compress off the measurement path instead of crashing or
    // measuring an empty buffer.
    const auto &registry = Catalog();
    const KernelSpec *spec = registry.Find("decompression");
    ASSERT_NE(spec, nullptr);
    KernelSession session(0.0625);
    const core::KernelResult r = session.Run(*spec);
    EXPECT_GT(r.cpu.counters.OffChipBytes(), 0u);
}

/** Serialize a report; bit-identical reports dump identically. */
std::string
Dump(const core::RunReport &report)
{
    return telemetry::ToJson(report).Dump(2);
}

void
ExpectIdenticalResults(const core::KernelResult &legacy,
                       const core::KernelResult &registry)
{
    EXPECT_EQ(Dump(legacy.cpu), Dump(registry.cpu));
    EXPECT_EQ(Dump(legacy.pim_core), Dump(registry.pim_core));
    EXPECT_EQ(Dump(legacy.pim_acc), Dump(registry.pim_acc));
}

// The bit-identity contract: for each workload group, the registry
// path (KernelSession at a given scale) must reproduce a hard-coded
// legacy-style setup of the same kernel exactly — same RNG stream,
// same simulated-address allocation order, same counters and energy.

TEST(RegistryEquivalence, TextureTilingMatchesLegacySetup)
{
    SimAddressSpace::ResetForTest();
    Rng rng(0xB10);
    browser::Bitmap linear(128, 128);
    linear.Randomize(rng);
    const core::KernelResult legacy = core::RunKernelAllTargets(
        "Texture Tiling", {linear.size_bytes(), linear.size_bytes()},
        [&](ExecutionContext &ctx) {
            browser::TiledTexture tiled(128, 128);
            browser::TileTexture(linear, tiled, ctx);
        });

    SimAddressSpace::ResetForTest();
    KernelSession session(0.25);
    const core::KernelResult from_registry =
        session.Run(*Catalog().Find("texture_tiling"));

    ExpectIdenticalResults(legacy, from_registry);
}

TEST(RegistryEquivalence, PackingMatchesLegacySetup)
{
    SimAddressSpace::ResetForTest();
    Rng rng(0x7F);
    ml::Matrix<std::uint8_t> lhs(256, 1152);
    lhs.Randomize(rng);
    const core::KernelResult legacy = core::RunKernelAllTargets(
        "Packing", {lhs.size_bytes(), lhs.size_bytes()},
        [&](ExecutionContext &ctx) {
            ml::PackedMatrix packed(256, 1152);
            ml::PackLhs(lhs, packed, ctx);
        });

    SimAddressSpace::ResetForTest();
    KernelSession session(0.25);
    const core::KernelResult from_registry =
        session.Run(*Catalog().Find("packing"));

    ExpectIdenticalResults(legacy, from_registry);
}

TEST(RegistryEquivalence, SubPixelInterpolationMatchesLegacySetup)
{
    SimAddressSpace::ResetForTest();
    video::VideoGenConfig cfg;
    cfg.width = 480;
    cfg.height = 272;
    const auto frames = video::GenerateClip(cfg, 4);
    const core::KernelResult legacy = core::RunKernelAllTargets(
        "Sub-Pixel Interpolation", {frames[0].y.size_bytes(), 0},
        [&](ExecutionContext &ctx) {
            video::PredBlock block(16, 16);
            for (int y = 0; y < cfg.height; y += 16) {
                for (int x = 0; x < cfg.width; x += 16) {
                    video::InterpolateBlock(frames[0].y, x, y,
                                            video::MotionVector{5, 3},
                                            block, ctx);
                }
            }
        });

    SimAddressSpace::ResetForTest();
    KernelSession session(0.25);
    const core::KernelResult from_registry =
        session.Run(*Catalog().Find("sub_pixel_interpolation"));

    ExpectIdenticalResults(legacy, from_registry);
}

bool
SameCounters(const sim::PerfCounters &a, const sim::PerfCounters &b)
{
    const auto cache_eq = [](const sim::CacheStats &x,
                             const sim::CacheStats &y) {
        return x.read_hits == y.read_hits &&
               x.read_misses == y.read_misses &&
               x.write_hits == y.write_hits &&
               x.write_misses == y.write_misses &&
               x.writebacks == y.writebacks;
    };
    return cache_eq(a.l1, b.l1) && cache_eq(a.llc, b.llc) &&
           a.has_llc == b.has_llc &&
           a.dram.read_requests == b.dram.read_requests &&
           a.dram.write_requests == b.dram.write_requests &&
           a.dram.read_bytes == b.dram.read_bytes &&
           a.dram.write_bytes == b.dram.write_bytes;
}

// The contract behind `pim_run --sweep=llc`: each kernel is executed
// (and recorded) exactly once, and the one-L1 study of that recording
// (one profiling pass per LLC set count) must be bit-identical to a
// cold per-configuration replay of the same trace.

TEST(RegistrySweep, RecordedLlcSweepMatchesPerConfigReplays)
{
    KernelSession session(0.25);
    const core::RecordedKernel rec =
        session.Record(*Catalog().Find("texture_tiling"));
    ASSERT_GT(rec.trace.size(), 0u);
    EXPECT_GT(rec.cpu.TotalEnergyPj(), 0.0);

    const sim::HierarchyConfig base = sim::HostHierarchyConfig();
    ASSERT_TRUE(base.llc.has_value());

    sim::StudySpec spec;
    spec.l1_points = {base.l1};
    spec.dram = base.dram;
    std::vector<sim::HierarchyConfig> configs;
    for (Bytes size = 256_KiB; size <= 2_MiB; size *= 2) {
        sim::CacheConfig point = *base.llc;
        point.size = size;
        spec.llc_points.push_back(point);
        sim::HierarchyConfig cfg = base;
        cfg.llc = point;
        configs.push_back(cfg);
    }

    const sim::SweepRunner runner;
    const sim::AccessTraceSource source(rec.trace);
    const sim::StudyResult study = runner.ProfileStudy(source, spec);
    const auto replayed = runner.ReplayTrace(source, configs);
    ASSERT_EQ(study.host.size(), 1u);
    ASSERT_EQ(study.host[0].size(), configs.size());
    ASSERT_EQ(replayed.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(study.host[0][i].writebacks_exact);
        EXPECT_TRUE(SameCounters(study.host[0][i].counters, replayed[i]))
            << "LLC point " << spec.llc_points[i].size;
    }
}

TEST(RecordingEquivalence, CompactRecordingMatchesRawForEveryKernel)
{
    // Serve's cold path and `pim_run --corpus` store RecordCompact's
    // stream, which feeds no hierarchy; every counter replayed from it
    // assumes it is the stream Record captures.  Each side records
    // from a reset address cursor on a fresh thread, so per-thread
    // scratch buffers land at the same simulated addresses both times.
    for (const KernelSpec *spec : Catalog().All()) {
        sim::AccessTrace raw;
        sim::CompactTrace compact;
        std::thread([&] {
            SimAddressSpace::ResetForTest();
            KernelSession session(0.25);
            raw = session.Record(*spec).trace;
        }).join();
        std::thread([&] {
            SimAddressSpace::ResetForTest();
            KernelSession session(0.25);
            compact = session.RecordCompact(*spec).trace;
        }).join();

        const sim::AccessTrace decoded = compact.Decode();
        ASSERT_GT(raw.size(), 0u) << spec->Slug();
        ASSERT_EQ(decoded.size(), raw.size()) << spec->Slug();
        std::size_t first_diff = raw.size();
        for (std::size_t i = 0; i < raw.size(); ++i) {
            if (decoded[i].word != raw[i].word) {
                first_diff = i;
                break;
            }
        }
        EXPECT_EQ(first_diff, raw.size()) << spec->Slug();
        // Byte for byte what the cold path stored when it recorded raw
        // and encoded afterwards: same container, same served digest.
        EXPECT_EQ(compact.Digest(), sim::CompactTrace::Encode(raw).Digest())
            << spec->Slug();
    }
}

TEST(MpkiGuard, ZeroInstructionsYieldZeroNotNan)
{
    sim::PerfCounters counters;
    counters.has_llc = true;
    counters.llc.read_misses = 4096;
    EXPECT_DOUBLE_EQ(counters.Mpki(0), 0.0);
    EXPECT_GT(counters.Mpki(1000), 0.0);

    // A default-constructed report has zero ops; Mpki must be a clean
    // 0.0, not a division by zero.
    core::RunReport report;
    EXPECT_DOUBLE_EQ(report.Mpki(), 0.0);
}

} // namespace
} // namespace pim
