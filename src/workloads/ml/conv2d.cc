#include "workloads/ml/conv2d.h"

#include <cstring>

#include "common/logging.h"

namespace pim::ml {

void
Im2Col(const ImageU8 &image, const LayerSpec &layer,
       std::uint8_t zero_point, Matrix<std::uint8_t> &patches,
       core::ExecutionContext &ctx)
{
    PIM_ASSERT(image.h() == layer.in_h && image.w() == layer.in_w &&
                   image.c() == layer.in_ch,
               "image %dx%dx%d does not match layer %dx%dx%d", image.h(),
               image.w(), image.c(), layer.in_h, layer.in_w, layer.in_ch);
    PIM_ASSERT(patches.rows() == layer.gemm_m() &&
                   patches.cols() == layer.gemm_k(),
               "patch matrix shape mismatch");

    auto &mem = ctx.mem();
    auto &ops = ctx.ops();

    const int pad = layer.kernel / 2; // SAME padding
    const auto channels = static_cast<std::size_t>(image.c());
    int row = 0;
    for (int oy = 0; oy < layer.out_h(); ++oy) {
        for (int ox = 0; ox < layer.out_w(); ++ox, ++row) {
            std::uint8_t *patch = patches.Row(row);
            int col = 0;
            for (int ky = 0; ky < layer.kernel; ++ky) {
                const int y = oy * layer.stride + ky - pad;
                for (int kx = 0; kx < layer.kernel; ++kx) {
                    const int x = ox * layer.stride + kx - pad;
                    const bool inside = y >= 0 && y < image.h() &&
                                        x >= 0 && x < image.w();
                    if (inside) {
                        std::memcpy(patch + col, image.Pixel(y, x),
                                    channels);
                        // One strided channel-vector read per tap.
                        mem.Read(image.SimAddr(y, x, 0),
                                 static_cast<Bytes>(image.c()));
                        ops.Load((static_cast<Bytes>(image.c()) + 15) /
                                 16);
                    } else {
                        std::memset(patch + col, zero_point, channels);
                    }
                    ops.Alu(3); // tap address computation + bounds
                    col += image.c();
                }
            }
            // The assembled patch row streams out sequentially.
            mem.Write(patches.SimAddr(row, 0),
                      static_cast<Bytes>(patches.cols()));
            ops.Store((static_cast<Bytes>(patches.cols()) + 15) / 16);
            ops.Branch(static_cast<std::uint64_t>(layer.kernel) *
                       layer.kernel);
        }
    }
}

} // namespace pim::ml
