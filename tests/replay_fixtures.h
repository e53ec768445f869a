/**
 * @file
 * Fixtures shared by the replay-engine tests: a seeded random stream,
 * the recorded kernel streams every engine must reproduce, a gtest
 * printer for hierarchy parameters, and a scoped PIM_SHARD_PASS
 * switch.
 */

#ifndef PIM_TESTS_REPLAY_FIXTURES_H
#define PIM_TESTS_REPLAY_FIXTURES_H

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/execution_context.h"
#include "sim/hierarchy.h"
#include "sim/trace.h"

namespace pim::sim {

/**
 * A seeded stream over three 64 KiB buffers: reuse, conflict traffic,
 * 1-256 B spans that straddle lines, 30% writes.
 */
AccessTrace RandomTrace(std::uint64_t seed, std::size_t entries);

/** Record a kernel's access stream through a traced CPU context. */
AccessTrace
RecordKernelTrace(const std::function<void(core::ExecutionContext &)> &kernel);

/** LZO compression of 16 KiB of page-like data: 1-4 B probes. */
AccessTrace RecordLzoTrace();

/**
 * The recorded kernel streams: texture tiling (128 B row spans),
 * blitter, quantized GEMM, and LZO compression (fine-grained probes).
 */
std::vector<std::pair<const char *, AccessTrace>> KernelTraces();

/**
 * gtest printer for HierarchyConfig parameters: the config's name.
 * Without it gtest dumps the struct's bytes, heap pointers of its
 * strings included, into every registered test name, so the names
 * change from build to build.
 */
void PrintTo(const HierarchyConfig &config, std::ostream *os);

/** Sets PIM_SHARD_PASS for one scope, then restores the old value. */
class ShardPassSwitch
{
  public:
    explicit ShardPassSwitch(bool on)
    {
        if (const char *old = std::getenv("PIM_SHARD_PASS")) {
            old_ = old;
        }
        ::setenv("PIM_SHARD_PASS", on ? "on" : "off", 1);
    }
    ~ShardPassSwitch()
    {
        if (old_) {
            ::setenv("PIM_SHARD_PASS", old_->c_str(), 1);
        } else {
            ::unsetenv("PIM_SHARD_PASS");
        }
    }
    ShardPassSwitch(const ShardPassSwitch &) = delete;
    ShardPassSwitch &operator=(const ShardPassSwitch &) = delete;

  private:
    std::optional<std::string> old_;
};

} // namespace pim::sim

#endif // PIM_TESTS_REPLAY_FIXTURES_H
