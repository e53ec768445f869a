/**
 * @file
 * Fixtures shared by the replay-engine tests: a seeded random stream,
 * the recorded kernel streams every engine must reproduce, and a gtest
 * printer for hierarchy parameters.
 */

#ifndef PIM_TESTS_REPLAY_FIXTURES_H
#define PIM_TESTS_REPLAY_FIXTURES_H

#include <cstdint>
#include <functional>
#include <ostream>
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

} // namespace pim::sim

#endif // PIM_TESTS_REPLAY_FIXTURES_H
