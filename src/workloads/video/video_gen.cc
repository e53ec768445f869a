#include "workloads/video/video_gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fastdiv.h"
#include "common/rng.h"

namespace pim::video {

namespace {

constexpr double kCell = 16.0; // texture feature size, pixels

/**
 * Smooth value-noise texture (cheap, deterministic, band-limited),
 * sampled over a window of columns.  Each column's lattice cell and
 * blend weight are computed once per window, and each column's blended
 * top and bottom lattice rows once per 16-pixel band of rows, so a
 * pixel costs one blend.  Every value is the same double expression on
 * the same operands a per-pixel evaluation computes, so the texture is
 * byte-identical to it (tests/video_gen_oracle.h holds that form).
 */
class TextureWindow
{
  public:
    /** Column i of the window samples the texture at @p coord(i). */
    template <typename ColumnCoord>
    TextureWindow(std::uint32_t seed, int columns, ColumnCoord coord)
        : seed_(seed), ix_(static_cast<std::size_t>(columns)),
          sx_(ix_.size()), top_(ix_.size()), bot_(ix_.size())
    {
        for (std::size_t i = 0; i < ix_.size(); ++i) {
            const double fx = coord(static_cast<int>(i)) / kCell;
            const int ix = static_cast<int>(std::floor(fx));
            const double tx = fx - ix;
            ix_[i] = ix;
            sx_[i] = tx * tx * (3 - 2 * tx); // smoothstep
        }
    }

    /** Sample every column at row coordinate @p y into @p out. */
    void
    SampleRow(double y, std::uint8_t *out)
    {
        const double fy = y / kCell;
        const int iy = static_cast<int>(std::floor(fy));
        const double ty = fy - iy;
        const double sy = ty * ty * (3 - 2 * ty); // smoothstep
        if (!have_band_ || iy != band_iy_) {
            LoadBand(iy);
        }
        const std::size_t n = ix_.size();
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = static_cast<std::uint8_t>(top_[i] * (1 - sy) +
                                               bot_[i] * sy);
        }
    }

  private:
    /** Blend the lattice rows iy and iy + 1 across every column. */
    void
    LoadBand(int iy)
    {
        double l00 = 0, l10 = 0, l01 = 0, l11 = 0;
        for (std::size_t i = 0; i < ix_.size(); ++i) {
            const int ix = ix_[i];
            if (i == 0 || ix != ix_[i - 1]) {
                l00 = Lattice(ix, iy);
                l10 = Lattice(ix + 1, iy);
                l01 = Lattice(ix, iy + 1);
                l11 = Lattice(ix + 1, iy + 1);
            }
            const double sx = sx_[i];
            top_[i] = l00 * (1 - sx) + l10 * sx;
            bot_[i] = l01 * (1 - sx) + l11 * sx;
        }
        band_iy_ = iy;
        have_band_ = true;
    }

    double
    Lattice(int ix, int iy) const
    {
        std::uint32_t h = seed_;
        h ^= static_cast<std::uint32_t>(ix) * 0x9E3779B1u;
        h ^= static_cast<std::uint32_t>(iy) * 0x85EBCA77u;
        h ^= h >> 13;
        h *= 0xC2B2AE3Du;
        h ^= h >> 16;
        return static_cast<double>(h & 0xff);
    }

    std::uint32_t seed_;
    std::vector<int> ix_;
    std::vector<double> sx_;
    std::vector<double> top_, bot_;
    bool have_band_ = false;
    int band_iy_ = 0;
};

} // namespace

VideoGenerator::VideoGenerator(const VideoGenConfig &config)
    : config_(config), noise_state_(config.seed | 1)
{
    Rng rng(config.seed);
    for (int i = 0; i < config.objects; ++i) {
        Object o;
        o.w = 24 + static_cast<int>(rng.Below(40));
        o.h = 24 + static_cast<int>(rng.Below(40));
        o.x = rng.NextDouble() * (config.width - o.w);
        o.y = rng.NextDouble() * (config.height - o.h);
        const double angle = rng.NextDouble() * 2.0 * 3.14159265358979;
        const double speed =
            (0.4 + 0.6 * rng.NextDouble()) * config.max_speed_px;
        o.vx = std::cos(angle) * speed;
        o.vy = std::sin(angle) * speed;
        o.base_luma = static_cast<std::uint8_t>(60 + rng.Below(140));
        o.texture_seed = static_cast<std::uint32_t>(rng.Next64());
        objects_.push_back(o);
    }
}

Frame
VideoGenerator::NextFrame()
{
    Frame frame(config_.width, config_.height);
    const int width = config_.width;
    const int height = config_.height;
    std::uint8_t *const luma = frame.y.buffer().data();
    const auto luma_row = [&](int y) {
        return luma + static_cast<std::size_t>(y) * width;
    };

    // Panning background.
    {
        TextureWindow texture(static_cast<std::uint32_t>(config_.seed),
                              width, [&](int x) { return x + pan_; });
        for (int y = 0; y < height; ++y) {
            texture.SampleRow(y, luma_row(y));
        }
    }

    // Moving textured objects, clipped to the frame.
    for (const Object &o : objects_) {
        const int x0 = static_cast<int>(std::floor(o.x));
        const int y0 = static_cast<int>(std::floor(o.y));
        const int xb = std::max(x0, 0);
        const int xe = std::min(x0 + o.w, width);
        const int yb = std::max(y0, 0);
        const int ye = std::min(y0 + o.h, height);
        if (xb >= xe || yb >= ye) {
            continue;
        }
        const int n = xe - xb;
        TextureWindow texture(o.texture_seed, n,
                              [&](int i) { return (xb + i) - o.x; });
        for (int y = yb; y < ye; ++y) {
            std::uint8_t *dst = luma_row(y) + xb;
            texture.SampleRow(y - o.y, dst);
            for (int i = 0; i < n; ++i) {
                const int v = (o.base_luma * 3 + dst[i]) / 4;
                dst[i] = static_cast<std::uint8_t>(v);
            }
        }
    }

    // Chroma: smooth gradients derived from position (low-detail).
    // U varies along a row only, V along a column only.
    const int chroma_w = frame.u.w();
    const int chroma_h = frame.u.h();
    std::vector<std::uint8_t> u_row(static_cast<std::size_t>(chroma_w));
    for (int x = 0; x < chroma_w; ++x) {
        u_row[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(
            112 + (x * 24) / std::max(1, chroma_w));
    }
    for (int y = 0; y < chroma_h; ++y) {
        const std::size_t row = static_cast<std::size_t>(y) * chroma_w;
        std::memcpy(frame.u.buffer().data() + row, u_row.data(),
                    u_row.size());
        std::memset(frame.v.buffer().data() + row,
                    120 + (y * 16) / std::max(1, frame.v.h()),
                    u_row.size());
    }

    // Mild sensor noise on luma: one xorshift step per pixel, in
    // raster order, reduced modulo the span by a hoisted reciprocal.
    if (config_.noise_amplitude > 0) {
        const FastDiv span(
            static_cast<std::uint64_t>(2 * config_.noise_amplitude + 1));
        std::uint64_t state = noise_state_;
        for (int y = 0; y < height; ++y) {
            std::uint8_t *row = luma_row(y);
            for (int x = 0; x < width; ++x) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                const int noise = static_cast<int>(span.Mod(state)) -
                                  config_.noise_amplitude;
                const int v = row[x] + noise;
                row[x] = static_cast<std::uint8_t>(
                    v < 0 ? 0 : (v > 255 ? 255 : v));
            }
        }
        noise_state_ = state;
    }

    // Advance the scene.
    pan_ += config_.background_pan;
    for (Object &o : objects_) {
        o.x += o.vx;
        o.y += o.vy;
        if (o.x < -o.w) {
            o.x = config_.width;
        }
        if (o.x > config_.width) {
            o.x = -o.w;
        }
        if (o.y < -o.h) {
            o.y = config_.height;
        }
        if (o.y > config_.height) {
            o.y = -o.h;
        }
    }
    ++frame_index_;
    return frame;
}

std::vector<Frame>
GenerateClip(const VideoGenConfig &config, int count)
{
    VideoGenerator gen(config);
    std::vector<Frame> frames;
    frames.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        frames.push_back(gen.NextFrame());
    }
    return frames;
}

} // namespace pim::video
