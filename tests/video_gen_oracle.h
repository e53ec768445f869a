/**
 * @file
 * The reference synthetic-video generator VideoGenerator is checked
 * against.
 *
 * This is the per-pixel formulation the generator started from, kept
 * naive on purpose so that it shares no mechanism with the production
 * code: the texture's lattice cell, blend weight and bilinear blend
 * are evaluated afresh for every pixel, every plane is written one
 * bounds-checked pixel at a time, chroma divides per pixel, and the
 * noise pass reduces with a 64-bit `%`.  It draws the scene from the
 * same Rng sequence and evaluates the same double expressions, so its
 * planes must match VideoGenerator::NextFrame byte for byte
 * (tests/test_video_gen.cc).
 */

#ifndef PIM_TESTS_VIDEO_GEN_ORACLE_H
#define PIM_TESTS_VIDEO_GEN_ORACLE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "workloads/video/video_gen.h"

namespace pim::video {

/** One 8-bit plane, row-major, with checked pixel access. */
struct OraclePlane
{
    int w = 0;
    int h = 0;
    std::vector<std::uint8_t> px;

    OraclePlane(int w, int h)
        : w(w), h(h), px(static_cast<std::size_t>(w) * h, 128)
    {
    }

    std::uint8_t &
    At(int x, int y)
    {
        PIM_ASSERT(x >= 0 && x < w && y >= 0 && y < h,
                   "(%d,%d) out of %dx%d", x, y, w, h);
        return px[static_cast<std::size_t>(y) * w + x];
    }
};

/** A reference YUV 4:2:0 frame. */
struct OracleFrame
{
    OracleFrame(int width, int height)
        : y(width, height), u((width + 1) / 2, (height + 1) / 2),
          v((width + 1) / 2, (height + 1) / 2)
    {
    }

    OraclePlane y;
    OraclePlane u;
    OraclePlane v;
};

/** Reference twin of VideoGenerator. */
class OracleVideoGenerator
{
  public:
    explicit OracleVideoGenerator(const VideoGenConfig &config)
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

    /**
     * Frames so far in which some object was drawn only in part,
     * because it straddled a frame border.
     */
    int clipped_frames() const { return clipped_frames_; }

    OracleFrame
    NextFrame()
    {
        OracleFrame frame(config_.width, config_.height);

        // Panning background.
        for (int y = 0; y < config_.height; ++y) {
            for (int x = 0; x < config_.width; ++x) {
                frame.y.At(x, y) = Texture(
                    static_cast<std::uint32_t>(config_.seed), x + pan_, y);
            }
        }

        // Moving textured objects.
        bool clipped = false;
        for (const Object &o : objects_) {
            const int x0 = static_cast<int>(std::floor(o.x));
            const int y0 = static_cast<int>(std::floor(o.y));
            for (int dy = 0; dy < o.h; ++dy) {
                const int y = y0 + dy;
                if (y < 0 || y >= config_.height) {
                    clipped = true;
                    continue;
                }
                for (int dx = 0; dx < o.w; ++dx) {
                    const int x = x0 + dx;
                    if (x < 0 || x >= config_.width) {
                        clipped = true;
                        continue;
                    }
                    const int t = Texture(o.texture_seed, x - o.x, y - o.y);
                    const int v = (o.base_luma * 3 + t) / 4;
                    frame.y.At(x, y) = static_cast<std::uint8_t>(v);
                }
            }
        }
        clipped_frames_ += clipped ? 1 : 0;

        // Chroma: smooth gradients derived from position.
        for (int y = 0; y < frame.u.h; ++y) {
            for (int x = 0; x < frame.u.w; ++x) {
                frame.u.At(x, y) = static_cast<std::uint8_t>(
                    112 + (x * 24) / std::max(1, frame.u.w));
                frame.v.At(x, y) = static_cast<std::uint8_t>(
                    120 + (y * 16) / std::max(1, frame.v.h));
            }
        }

        // Mild sensor noise on luma.
        if (config_.noise_amplitude > 0) {
            const int span = 2 * config_.noise_amplitude + 1;
            for (int y = 0; y < config_.height; ++y) {
                for (int x = 0; x < config_.width; ++x) {
                    noise_state_ ^= noise_state_ << 13;
                    noise_state_ ^= noise_state_ >> 7;
                    noise_state_ ^= noise_state_ << 17;
                    const int noise =
                        static_cast<int>(noise_state_ % span) -
                        config_.noise_amplitude;
                    const int v = frame.y.At(x, y) + noise;
                    frame.y.At(x, y) = static_cast<std::uint8_t>(
                        v < 0 ? 0 : (v > 255 ? 255 : v));
                }
            }
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
        return frame;
    }

  private:
    struct Object
    {
        double x, y;
        double vx, vy;
        int w, h;
        std::uint8_t base_luma;
        std::uint32_t texture_seed;
    };

    /** Smooth value noise at (x, y): bilinear smoothstep blend. */
    static std::uint8_t
    Texture(std::uint32_t seed, double x, double y)
    {
        const double kCell = 16.0;
        const double fy = y / kCell;
        const int iy = static_cast<int>(std::floor(fy));
        const double ty = fy - iy;
        const double sy = ty * ty * (3 - 2 * ty);
        const double fx = x / kCell;
        const int ix = static_cast<int>(std::floor(fx));
        const double tx = fx - ix;
        const double sx = tx * tx * (3 - 2 * tx);
        const double l00 = Lattice(seed, ix, iy);
        const double l10 = Lattice(seed, ix + 1, iy);
        const double l01 = Lattice(seed, ix, iy + 1);
        const double l11 = Lattice(seed, ix + 1, iy + 1);
        const double top = l00 * (1 - sx) + l10 * sx;
        const double bot = l01 * (1 - sx) + l11 * sx;
        return static_cast<std::uint8_t>(top * (1 - sy) + bot * sy);
    }

    static double
    Lattice(std::uint32_t seed, int ix, int iy)
    {
        std::uint32_t h = seed;
        h ^= static_cast<std::uint32_t>(ix) * 0x9E3779B1u;
        h ^= static_cast<std::uint32_t>(iy) * 0x85EBCA77u;
        h ^= h >> 13;
        h *= 0xC2B2AE3Du;
        h ^= h >> 16;
        return static_cast<double>(h & 0xff);
    }

    VideoGenConfig config_;
    std::vector<Object> objects_;
    double pan_ = 0.0;
    std::uint64_t noise_state_;
    int clipped_frames_ = 0;
};

} // namespace pim::video

#endif // PIM_TESTS_VIDEO_GEN_ORACLE_H
