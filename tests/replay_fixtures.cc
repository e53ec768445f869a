#include "replay_fixtures.h"

#include <thread>

#include "common/buffer.h"
#include "common/rng.h"
#include "workloads/browser/color_blitter.h"
#include "workloads/browser/lzo.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/texture_tiler.h"
#include "workloads/ml/gemm.h"
#include "workloads/ml/pack.h"

namespace pim::sim {

AccessTrace
RandomTrace(std::uint64_t seed, std::size_t entries)
{
    Rng rng(seed);
    AccessTrace trace;
    const Address bases[] = {0x10'0000, 0x40'0000, 0x80'0000};
    for (std::size_t i = 0; i < entries; ++i) {
        const Address base =
            bases[rng.Range(0, 2)] +
            static_cast<Address>(rng.Range(0, 64 * 1024));
        const Bytes bytes = static_cast<Bytes>(rng.Range(1, 256));
        const AccessType type = rng.Range(0, 99) < 30
                                    ? AccessType::kWrite
                                    : AccessType::kRead;
        trace.Append(base, bytes, type);
    }
    return trace;
}

AccessTrace
RecordKernelTrace(const std::function<void(core::ExecutionContext &)> &kernel)
{
    AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    kernel(ctx);
    ctx.DetachTrace();
    return trace;
}

AccessTrace
RecordLzoTrace()
{
    // Recorded on a fresh thread: the compressor reserves its hash-table
    // shadow once per thread, so only then does it land right after
    // this call's buffers, and the stream's address deltas do not
    // depend on what ran earlier in the process.
    AccessTrace trace;
    std::thread([&] {
        Rng rng(22);
        SimBuffer<std::uint8_t> pages(16 * 1024);
        browser::FillPageLikeData(pages, rng, 0.4);
        SimBuffer<std::uint8_t> dst(
            browser::LzoCompressBound(pages.size()));
        trace = RecordKernelTrace([&](core::ExecutionContext &ctx) {
            browser::LzoCompress(pages, pages.size(), dst, ctx);
        });
    }).join();
    return trace;
}

void
PrintTo(const HierarchyConfig &config, std::ostream *os)
{
    *os << config.name;
}

std::vector<std::pair<const char *, AccessTrace>>
KernelTraces()
{
    std::vector<std::pair<const char *, AccessTrace>> traces;
    Rng rng(77);

    browser::Bitmap linear(128, 128);
    linear.Randomize(rng);
    traces.emplace_back(
        "tiler", RecordKernelTrace([&](core::ExecutionContext &ctx) {
            browser::TiledTexture tiled(128, 128);
            browser::TileTexture(linear, tiled, ctx);
        }));

    browser::Bitmap dst(128, 128, 0xff000000);
    browser::Bitmap src(64, 64);
    src.Randomize(rng);
    traces.emplace_back(
        "blitter", RecordKernelTrace([&](core::ExecutionContext &ctx) {
            browser::ColorBlitter blitter(dst, ctx);
            blitter.FillRect({8, 8, 100, 100}, 0xff336699);
            blitter.BlitSrcOver(src, 16, 16);
            blitter.BlitCopy(src, 48, 48);
        }));

    ml::Matrix<std::uint8_t> a(48, 64);
    ml::Matrix<std::uint8_t> b(64, 32);
    a.Randomize(rng);
    b.Randomize(rng);
    traces.emplace_back(
        "gemm", RecordKernelTrace([&](core::ExecutionContext &ctx) {
            ml::PackedMatrix pa(48, 64);
            ml::PackedMatrix pb(32, 64);
            ml::PackLhs(a, pa, ctx);
            ml::PackRhs(b, pb, ctx);
            ml::PackedResult pr(48, 32);
            ml::QuantizedGemm(pa, 3, pb, 128, pr, ctx);
        }));

    traces.emplace_back("lzo", RecordLzoTrace());
    return traces;
}

} // namespace pim::sim
