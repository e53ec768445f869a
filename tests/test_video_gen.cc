/**
 * @file
 * The synthetic-video generator against its reference formulation
 * (tests/video_gen_oracle.h): every Y/U/V byte of every frame must
 * match, across noise amplitudes, pan speeds, frame widths off the
 * 16-pixel texture cell, and objects that straddle and wrap across the
 * frame borders.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "video_gen_oracle.h"
#include "workloads/video/video_gen.h"

namespace pim::video {
namespace {

/** Index of the first differing pixel, or -1 when the planes match. */
long
FirstMismatch(const Plane &plane, const OraclePlane &ref)
{
    if (plane.w() != ref.w || plane.h() != ref.h) {
        return 0;
    }
    const std::uint8_t *px = plane.buffer().data();
    for (std::size_t i = 0; i < ref.px.size(); ++i) {
        if (px[i] != ref.px[i]) {
            return static_cast<long>(i);
        }
    }
    return -1;
}

/** Generate @p frames frames both ways and compare every plane. */
int
ExpectClipMatchesOracle(const VideoGenConfig &cfg, int frames)
{
    VideoGenerator gen(cfg);
    OracleVideoGenerator oracle(cfg);
    for (int f = 0; f < frames; ++f) {
        const Frame frame = gen.NextFrame();
        const OracleFrame ref = oracle.NextFrame();
        const std::string where =
            std::to_string(cfg.width) + "x" + std::to_string(cfg.height) +
            " noise " + std::to_string(cfg.noise_amplitude) + " pan " +
            std::to_string(cfg.background_pan) + " frame " +
            std::to_string(f);
        EXPECT_EQ(FirstMismatch(frame.y, ref.y), -1) << "Y, " << where;
        EXPECT_EQ(FirstMismatch(frame.u, ref.u), -1) << "U, " << where;
        EXPECT_EQ(FirstMismatch(frame.v, ref.v), -1) << "V, " << where;
        if (::testing::Test::HasFailure()) {
            break;
        }
    }
    return oracle.clipped_frames();
}

TEST(VideoGenOracle, DefaultSceneMatchesByteForByte)
{
    ExpectClipMatchesOracle(VideoGenConfig{}, 40);
}

TEST(VideoGenOracle, RandomizedScenesMatchByteForByte)
{
    Rng rng(0x71DE0);
    int off_cell_widths = 0;
    int clipped_frames = 0;
    for (int i = 0; i < 8; ++i) {
        VideoGenConfig cfg;
        // Half the widths sit off the 16-pixel texture cell; every
        // dimension stays even, as 4:2:0 requires.
        cfg.width = 16 * static_cast<int>(rng.Range(4, 12)) +
                    (i % 2 == 0 ? 2 * static_cast<int>(rng.Range(1, 7))
                                : 0);
        cfg.height = 2 * static_cast<int>(rng.Range(24, 80));
        cfg.objects = static_cast<int>(rng.Range(1, 8));
        cfg.max_speed_px = 1.0 + 11.0 * rng.NextDouble();
        cfg.background_pan = -3.0 + 6.0 * rng.NextDouble();
        cfg.noise_amplitude = i % 4;
        cfg.seed = rng.Next64();
        off_cell_widths += cfg.width % 16 != 0 ? 1 : 0;
        clipped_frames += ExpectClipMatchesOracle(cfg, 40);
        if (HasFailure()) {
            return;
        }
    }
    // The sweep did reach the cases it is meant to cover.
    EXPECT_EQ(off_cell_widths, 4);
    EXPECT_GT(clipped_frames, 0);
}

} // namespace
} // namespace pim::video
