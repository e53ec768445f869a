/**
 * @file
 * Exists only so perfbench can stamp `simd_isa`: every build probes
 * sets with scalar loops.
 */

#ifndef PIM_SIM_SIMD_H
#define PIM_SIM_SIMD_H

namespace pim::sim::simd {

enum class Isa { kScalar };

constexpr Isa ActiveIsa() { return Isa::kScalar; }

constexpr const char *IsaName(Isa) { return "scalar"; }

} // namespace pim::sim::simd

#endif // PIM_SIM_SIMD_H
