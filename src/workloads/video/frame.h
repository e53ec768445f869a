/**
 * @file
 * YUV 4:2:0 frame containers for the VP9-style codec.
 *
 * VP9 processes video one frame at a time: a luma plane at full
 * resolution and two chroma planes at half resolution, decomposed into
 * 64x64 superblocks for coding and filtering (Section 6.1).
 */

#ifndef PIM_VIDEO_FRAME_H
#define PIM_VIDEO_FRAME_H

#include <cstdint>

#include "common/buffer.h"
#include "common/logging.h"
#include "common/types.h"

namespace pim::video {

/** Superblock edge in pixels. */
inline constexpr int kSuperblockSize = 64;
/** Macroblock (motion compensation granularity) edge in pixels. */
inline constexpr int kMacroblockSize = 16;
/** Transform block edge in pixels. */
inline constexpr int kTransformSize = 8;

/** One 8-bit image plane with a simulated address range. */
class Plane
{
  public:
    Plane() : w_(0), h_(0) {}

    Plane(int w, int h, std::uint8_t fill = 128)
        : w_(w), h_(h), data_(static_cast<std::size_t>(w) * h, fill)
    {
        PIM_ASSERT(w > 0 && h > 0, "plane must be non-empty");
    }

    int w() const { return w_; }
    int h() const { return h_; }
    Bytes size_bytes() const { return data_.size_bytes(); }

    std::uint8_t &
    At(int x, int y)
    {
        return data_[Index(x, y)];
    }
    std::uint8_t
    At(int x, int y) const
    {
        return data_[Index(x, y)];
    }

    /** Pixel with edge clamping (codec boundary extension). */
    std::uint8_t
    AtClamped(int x, int y) const
    {
        x = x < 0 ? 0 : (x >= w_ ? w_ - 1 : x);
        y = y < 0 ? 0 : (y >= h_ ? h_ - 1 : y);
        return data_[Index(x, y)];
    }

    /**
     * Pixels [x, x+n) of row y with edge clamping, as a pointer.  Row y
     * is clamped first; when the column span then lies inside the plane
     * (one bounds test for the whole span) the pointer goes straight
     * into the plane, else @p scratch (at least n bytes) receives the
     * per-pixel AtClamped copy.  This is the kernels' interior fast
     * path: only left/right border spans pay the clamped path.
     */
    const std::uint8_t *
    ClampedRow(int x, int y, int n, std::uint8_t *scratch) const
    {
        y = y < 0 ? 0 : (y >= h_ ? h_ - 1 : y);
        if (x >= 0 && n <= w_ - x) {
            return data_.data() + Index(x, y);
        }
        for (int i = 0; i < n; ++i) {
            scratch[i] = AtClamped(x + i, y);
        }
        return scratch;
    }

    Address
    SimAddr(int x, int y) const
    {
        return data_.SimAddr(Index(x, y));
    }

    pim::SimBuffer<std::uint8_t> &buffer() { return data_; }
    const pim::SimBuffer<std::uint8_t> &buffer() const { return data_; }

  private:
    std::size_t
    Index(int x, int y) const
    {
        PIM_ASSERT(x >= 0 && x < w_ && y >= 0 && y < h_,
                   "(%d,%d) out of %dx%d", x, y, w_, h_);
        return static_cast<std::size_t>(y) * w_ + x;
    }

    int w_;
    int h_;
    pim::SimBuffer<std::uint8_t> data_;
};

/** A YUV 4:2:0 frame. */
struct Frame
{
    Frame() = default;

    Frame(int width, int height)
        : width(width), height(height), y(width, height),
          u((width + 1) / 2, (height + 1) / 2),
          v((width + 1) / 2, (height + 1) / 2)
    {
        PIM_ASSERT(width % 2 == 0 && height % 2 == 0,
                   "4:2:0 frames need even dimensions");
    }

    int width = 0;
    int height = 0;
    Plane y;
    Plane u;
    Plane v;

    Bytes
    size_bytes() const
    {
        return y.size_bytes() + u.size_bytes() + v.size_bytes();
    }
};

/** Mean absolute pixel difference between two planes (test metric). */
double MeanAbsDiff(const Plane &a, const Plane &b);

/** Peak signal-to-noise ratio between two planes, in dB. */
double Psnr(const Plane &a, const Plane &b);

} // namespace pim::video

#endif // PIM_VIDEO_FRAME_H
