#include "codec_runners.h"

#include "core/execution_context.h"
#include "workloads/video/decoder.h"
#include "workloads/video/encoder.h"
#include "workloads/video/video_gen.h"

namespace pim::bench {

using core::ExecutionContext;

void
RunSwEncoder(int width, int height, int frames,
             video::CodecPhases &phases)
{
    video::VideoGenConfig cfg;
    cfg.width = width;
    cfg.height = height;
    video::VideoGenerator gen(cfg);
    video::Vp9Encoder encoder(width, height);
    ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    for (int i = 0; i < frames; ++i) {
        const video::Frame frame = gen.NextFrame();
        encoder.EncodeFrame(frame, ctx, &phases);
    }
}

void
RunSwDecoder(int width, int height, int frames,
             video::CodecPhases &phases)
{
    video::VideoGenConfig cfg;
    cfg.width = width;
    cfg.height = height;
    video::VideoGenerator gen(cfg);
    video::Vp9Encoder encoder(width, height);
    video::Vp9Decoder decoder;
    // The encoder only produces the bitstream: none of its counters
    // are reported, so its accesses go to a NullSink instead of a
    // simulated hierarchy.
    ExecutionContext ectx(core::ExecutionTarget::kCpuOnly);
    sim::NullSink discard;
    ectx.mem().Rebind(discard);
    ExecutionContext dctx(core::ExecutionTarget::kCpuOnly);
    for (int i = 0; i < frames; ++i) {
        const video::Frame frame = gen.NextFrame();
        const auto enc = encoder.EncodeFrame(frame, ectx);
        decoder.DecodeFrame(enc.bitstream, dctx, &phases);
    }
}

} // namespace pim::bench
