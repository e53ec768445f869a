/**
 * @file
 * Memory-organization study: feed each PIM target's recorded access
 * stream through the bank/row-buffer DRAM model and the vault
 * interleaving analyzer.
 *
 * Two questions from the paper's design space:
 *  - how row-buffer-friendly is each kernel's raw access pattern
 *    (what the FR-FCFS scheduler of Table 1 has to work with), and
 *  - does each kernel's footprint spread across vaults well enough to
 *    feed per-vault PIM logic in parallel?
 */

#include "bench_common.h"

#include "common/rng.h"
#include "core/vault_analyzer.h"
#include "sim/dram_timing.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "workloads/browser/lzo.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/texture_tiler.h"
#include "workloads/ml/pack.h"
#include "workloads/video/subpel.h"
#include "workloads/video/video_gen.h"

namespace {

using namespace pim;
using core::ExecutionContext;
using core::ExecutionTarget;

/** Record a kernel's raw access stream. */
sim::AccessTrace
Record(const std::function<void(ExecutionContext &)> &kernel)
{
    sim::AccessTrace trace;
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    kernel(ctx);
    return trace;
}

struct NamedTrace
{
    const char *name;
    sim::AccessTrace trace;
};

/**
 * The four kernel streams of the study (recorded once, shared by the
 * sections below).  Recording order — and hence the shared Rng's
 * consumption — matches the original stream-character study exactly,
 * so its table is byte-identical.
 */
std::vector<NamedTrace>
RecordKernelTraces()
{
    Rng rng(0x0E6);
    std::vector<NamedTrace> traces;

    // Texture tiling.
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    traces.push_back({"Texture Tiling", Record([&](ExecutionContext &c) {
                          browser::TiledTexture tiled(512, 512);
                          browser::TileTexture(linear, tiled, c);
                      })});

    // LZO compression of page-like data.
    pim::SimBuffer<std::uint8_t> pages(256 * 1024);
    browser::FillPageLikeData(pages, rng, 0.4);
    traces.push_back({"Compression", Record([&](ExecutionContext &c) {
                          pim::SimBuffer<std::uint8_t> dst(
                              browser::LzoCompressBound(pages.size()));
                          browser::LzoCompress(pages, pages.size(), dst,
                                               c);
                      })});

    // gemmlowp-style packing.
    ml::Matrix<std::uint8_t> lhs(512, 768);
    lhs.Randomize(rng);
    traces.push_back({"Packing", Record([&](ExecutionContext &c) {
                          ml::PackedMatrix packed(512, 768);
                          ml::PackLhs(lhs, packed, c);
                      })});

    // Sub-pixel interpolation over a frame.
    video::VideoGenConfig cfg;
    cfg.width = 640;
    cfg.height = 384;
    const auto frames = video::GenerateClip(cfg, 1);
    traces.push_back(
        {"Sub-Pixel Interp", Record([&](ExecutionContext &c) {
             video::PredBlock block(16, 16);
             for (int y = 0; y < cfg.height; y += 16) {
                 for (int x = 0; x < cfg.width; x += 16) {
                     video::InterpolateBlock(frames[0].y, x, y,
                                             video::MotionVector{3, 5},
                                             block, c);
                 }
             }
         })});
    return traces;
}

void
PrintMemoryOrgStudy(bench::BenchOutput &out)
{
    std::vector<NamedTrace> traces;
    const auto ensure_traces = [&] {
        if (traces.empty()) {
            traces = RecordKernelTraces();
        }
    };

    out.Section("stream_character", [&] {
    ensure_traces();

    Table table("Memory organization — per-kernel stream character");
    table.SetHeader({"kernel", "accesses", "row-buffer hit rate",
                     "avg DRAM latency (ns)", "vault balance",
                     "effective PIM lanes"});

    // Each kernel's stream is analyzed against private model instances,
    // so the per-kernel replays run concurrently; rows are appended in
    // input order afterwards.
    struct StreamCharacter
    {
        sim::RowBufferStats row_stats;
        double avg_latency_ns = 0;
        double balance = 0;
        double effective_lanes = 0;
    };
    std::vector<StreamCharacter> results(traces.size());
    const sim::SweepRunner runner;
    runner.ForEach(traces.size(), [&](std::size_t i) {
        sim::DramBankModel banks;
        core::VaultTrafficAnalyzer vaults(16);
        // One decode pass feeds both models while each batch is hot.
        sim::FanoutSink tee({&banks, &vaults});
        traces[i].trace.ReplayInto(tee);
        results[i] = {banks.stats(), banks.AverageLatencyNs(),
                      vaults.Balance(), vaults.EffectiveLanes()};
    });

    for (std::size_t i = 0; i < traces.size(); ++i) {
        table.AddRow({
            traces[i].name,
            std::to_string(traces[i].trace.size()),
            Table::Pct(results[i].row_stats.HitRate()),
            Table::Num(results[i].avg_latency_ns, 1),
            Table::Pct(results[i].balance),
            Table::Num(results[i].effective_lanes, 1),
        });
    }
    out.Emit(table);
    });

    // --- Memory-organization DRAM traffic, answered as a pure
    // profiler query: per kernel, ONE ProfileStudy derives the host
    // hierarchy's off-chip traffic and both PIM targets' stack-internal
    // traffic from the same stack distances (one trace decode per
    // kernel — the host L1 pass, with the raw-trace PIM passes riding
    // beside the L1 — instead of one full hierarchy replay per
    // organization).
    out.Section("org_traffic", [&] {
        ensure_traces();

        Table table("Memory organization — DRAM traffic per target "
                    "(one profiling study per kernel)");
        table.SetHeader({"kernel", "host off-chip MB", "PIM-Core MB",
                         "PIM-Acc MB", "host/PIM-Acc"});

        const sim::HierarchyConfig host = sim::HostHierarchyConfig();
        const sim::HierarchyConfig pim_core =
            sim::PimCoreHierarchyConfig();
        const sim::HierarchyConfig pim_accel =
            sim::PimAccelHierarchyConfig();
        sim::StudySpec spec;
        spec.l1_points = {host.l1};
        spec.llc_points = {*host.llc};
        spec.dram = host.dram;
        spec.pim_points = {
            sim::StudyPimPoint{"pim-core", pim_core.l1, pim_core.dram},
            sim::StudyPimPoint{"pim-accel", pim_accel.l1,
                               pim_accel.dram}};

        const sim::SweepRunner runner;
        std::vector<sim::StudyResult> studies(traces.size());
        for (std::size_t i = 0; i < traces.size(); ++i) {
            studies[i] = runner.ProfileStudy(
                sim::AccessTraceSource(traces[i].trace), spec);
        }

        const auto mb = [](const sim::DramStats &d) {
            return static_cast<double>(d.read_bytes + d.write_bytes) /
                   1.0e6;
        };
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const double host_mb =
                studies[i].host[0][0].counters.OffChipBytes() / 1.0e6;
            const double core_mb = mb(studies[i].pim[0].counters.dram);
            const double acc_mb = mb(studies[i].pim[1].counters.dram);
            table.AddRow({
                traces[i].name,
                Table::Num(host_mb, 2),
                Table::Num(core_mb, 2),
                Table::Num(acc_mb, 2),
                Table::Num(acc_mb > 0 ? host_mb / acc_mb : 0.0, 2) +
                    "x",
            });
        }
        out.Emit(table);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintMemoryOrgStudy)
