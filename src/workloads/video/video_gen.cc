#include "workloads/video/video_gen.h"

#include <cmath>

#include "common/rng.h"

namespace pim::video {

namespace {

/**
 * Smooth value-noise texture (cheap, deterministic, band-limited),
 * sampled along one row: the row's terms are computed once, and the
 * four lattice hashes once per 16-pixel cell.  Each sample evaluates
 * the same double expressions on the same values as a per-pixel
 * evaluation would.
 */
class TextureRow
{
  public:
    TextureRow(std::uint32_t seed, double y) : seed_(seed)
    {
        const double fy = y / kCell;
        iy_ = static_cast<int>(std::floor(fy));
        const double ty = fy - iy_;
        sy_ = ty * ty * (3 - 2 * ty); // smoothstep
    }

    std::uint8_t
    Sample(double x)
    {
        const double fx = x / kCell;
        const int ix = static_cast<int>(std::floor(fx));
        if (!have_cell_ || ix != ix_) {
            l00_ = Lattice(ix, iy_);
            l10_ = Lattice(ix + 1, iy_);
            l01_ = Lattice(ix, iy_ + 1);
            l11_ = Lattice(ix + 1, iy_ + 1);
            ix_ = ix;
            have_cell_ = true;
        }
        const double tx = fx - ix;
        const double sx = tx * tx * (3 - 2 * tx); // smoothstep
        const double top = l00_ * (1 - sx) + l10_ * sx;
        const double bot = l01_ * (1 - sx) + l11_ * sx;
        return static_cast<std::uint8_t>(top * (1 - sy_) + bot * sy_);
    }

  private:
    static constexpr double kCell = 16.0; // texture feature size, pixels

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
    int iy_ = 0;
    double sy_ = 0;
    bool have_cell_ = false;
    int ix_ = 0;
    double l00_ = 0, l10_ = 0, l01_ = 0, l11_ = 0;
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

    // Panning background.
    for (int y = 0; y < config_.height; ++y) {
        TextureRow texture(static_cast<std::uint32_t>(config_.seed), y);
        for (int x = 0; x < config_.width; ++x) {
            frame.y.At(x, y) = texture.Sample(x + pan_);
        }
    }

    // Moving textured objects.
    for (const Object &o : objects_) {
        const int x0 = static_cast<int>(std::floor(o.x));
        const int y0 = static_cast<int>(std::floor(o.y));
        for (int dy = 0; dy < o.h; ++dy) {
            const int y = y0 + dy;
            if (y < 0 || y >= config_.height) {
                continue;
            }
            TextureRow texture(o.texture_seed, y - o.y);
            for (int dx = 0; dx < o.w; ++dx) {
                const int x = x0 + dx;
                if (x < 0 || x >= config_.width) {
                    continue;
                }
                const int t = texture.Sample(x - o.x);
                const int v = (o.base_luma * 3 + t) / 4;
                frame.y.At(x, y) = static_cast<std::uint8_t>(v);
            }
        }
    }

    // Chroma: smooth gradients derived from position (low-detail).
    for (int y = 0; y < frame.u.h(); ++y) {
        for (int x = 0; x < frame.u.w(); ++x) {
            frame.u.At(x, y) = static_cast<std::uint8_t>(
                112 + (x * 24) / std::max(1, frame.u.w()));
            frame.v.At(x, y) = static_cast<std::uint8_t>(
                120 + (y * 16) / std::max(1, frame.v.h()));
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
                const int noise = static_cast<int>(noise_state_ % span) -
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
