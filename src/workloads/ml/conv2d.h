/**
 * @file
 * Conv2D lowering: im2col patch extraction over a quantized HWC image.
 *
 * TensorFlow Mobile lowers each 2-D convolution to GEMM by gathering
 * the kernel-sized input patch of every output pixel into a row of a
 * patch matrix (im2col), then multiplying by the (K x out_ch) weight
 * matrix.  The gather is strided and is accounted under the paper's
 * Conv2D category (it ships with the kernel, not with packing).
 */

#ifndef PIM_ML_CONV2D_H
#define PIM_ML_CONV2D_H

#include <cstdint>

#include "core/execution_context.h"
#include "workloads/ml/network.h"
#include "workloads/ml/tensor.h"

namespace pim::ml {

/** A quantized activation image in HWC layout. */
class ImageU8
{
  public:
    ImageU8(int h, int w, int c)
        : h_(h), w_(w), c_(c),
          data_(static_cast<std::size_t>(h) * w * c, 0)
    {
        PIM_ASSERT(h > 0 && w > 0 && c > 0, "image must be non-empty");
    }

    int h() const { return h_; }
    int w() const { return w_; }
    int c() const { return c_; }

    std::uint8_t &
    At(int y, int x, int ch)
    {
        return data_[Index(y, x, ch)];
    }
    std::uint8_t
    At(int y, int x, int ch) const
    {
        return data_[Index(y, x, ch)];
    }

    /** The c() channel values of pixel (y, x) as a pointer. */
    const std::uint8_t *
    Pixel(int y, int x) const
    {
        return data_.data() + Index(y, x, 0);
    }

    Address
    SimAddr(int y, int x, int ch) const
    {
        return data_.SimAddr(Index(y, x, ch));
    }

    pim::SimBuffer<std::uint8_t> &buffer() { return data_; }

  private:
    std::size_t
    Index(int y, int x, int ch) const
    {
        PIM_ASSERT(y >= 0 && y < h_ && x >= 0 && x < w_ && ch >= 0 &&
                       ch < c_,
                   "(%d,%d,%d) out of %dx%dx%d", y, x, ch, h_, w_, c_);
        return (static_cast<std::size_t>(y) * w_ + x) * c_ + ch;
    }

    int h_;
    int w_;
    int c_;
    pim::SimBuffer<std::uint8_t> data_;
};

/**
 * Extract im2col patches for @p layer from @p image into @p patches
 * (gemm_m() rows x gemm_k() cols).  Out-of-bounds taps (SAME padding)
 * read as the zero point @p zero_point.
 */
void Im2Col(const ImageU8 &image, const LayerSpec &layer,
            std::uint8_t zero_point, Matrix<std::uint8_t> &patches,
            core::ExecutionContext &ctx);

} // namespace pim::ml

#endif // PIM_ML_CONV2D_H
