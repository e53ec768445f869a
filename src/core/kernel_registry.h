/**
 * @file
 * The declarative catalog of paper kernels (Figures 18/19/20).
 *
 * Each workload library describes its PIM-target kernels once, as
 * KernelSpecs registered through PIM_REGISTER_KERNEL; every consumer —
 * the figure benches, headline_summary, the `pim_run` driver, sweeps,
 * and tests — then dispatches through the same registry instead of
 * re-hard-coding kernel setups.  A spec carries the kernel's identity
 * (name, workload group, paper figure), its declared OffloadFootprint,
 * and a scale-parameterized factory producing a re-runnable instance.
 *
 * Instantiation goes through a KernelSession so kernels of one group
 * share their expensive inputs (and, at scale 1.0, reproduce the
 * original bench-layer RNG and simulated-address allocation order
 * exactly — figure outputs are byte-identical to the pre-registry
 * code).
 */

#ifndef PIM_CORE_KERNEL_REGISTRY_H
#define PIM_CORE_KERNEL_REGISTRY_H

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/slug.h"
#include "core/execution_context.h"
#include "core/offload_runtime.h"

namespace pim::core {

/** The (CPU-Only, PIM-Core, PIM-Acc) reports for one kernel. */
struct KernelResult
{
    std::string name;
    RunReport cpu;
    RunReport pim_core;
    RunReport pim_acc;

    /**
     * Fraction of baseline energy removed by @p pim.  A degenerate
     * zero-energy baseline yields 0.0 (no saving) rather than -inf.
     */
    double
    EnergySaving(const RunReport &pim) const
    {
        const double base = cpu.TotalEnergyPj();
        if (!(base > 0.0)) {
            return 0.0;
        }
        return 1.0 - pim.TotalEnergyPj() / base;
    }

    /**
     * Baseline-relative speedup of @p pim.  Degenerate zero-time
     * baselines or targets yield 1.0 (parity) rather than inf/nan.
     */
    double
    Speedup(const RunReport &pim) const
    {
        const double base = cpu.TotalTimeNs();
        const double t = pim.TotalTimeNs();
        if (!(base > 0.0) || !(t > 0.0)) {
            return 1.0;
        }
        return base / t;
    }
};

/** A ready-to-run kernel produced by KernelSpec::make. */
struct KernelInstance
{
    OffloadFootprint footprint;
    /** Re-runnable instrumented body (owns its inputs via capture). */
    std::function<void(ExecutionContext &)> run;
};

/**
 * One catalog entry.
 *
 * `make(state, scale)` builds a KernelInstance.  `state` is the
 * per-(session, group) shared slot: kernels of a group store their
 * common inputs there so a group run in registration order allocates
 * buffers and consumes RNG draws exactly once, in the original
 * bench-layer order.  `scale` multiplies the paper input's linear
 * dimension; 1.0 is the paper-scale input the figures use.
 */
struct KernelSpec
{
    std::string name;   ///< Display name ("Texture Tiling").
    std::string group;  ///< Workload group ("browser", "tf", "video").
    std::string figure; ///< Paper figure the kernel appears in.
    int order = 0;      ///< Bar position within the group's figure.
    /** Whether the kernel is a pure access-stream + op-mix workload
     *  whose recorded trace can be replayed into other hierarchies
     *  (gates `pim_run --sweep`). */
    bool trace_replayable = true;
    std::function<KernelInstance(std::shared_ptr<void> &state,
                                 double scale)>
        make;

    /** Stable lookup/metric key ("sub_pixel_interpolation"). */
    std::string Slug() const { return Slugify(name); }
};

/**
 * Process-wide kernel catalog.  Populated by PIM_REGISTER_KERNEL
 * static registrars in the workload libraries; enumeration is in
 * canonical catalog order — groups as the paper orders them (browser,
 * tf, video, then any others alphabetically), kernels by `order`
 * within their group — independent of static-initialization order.
 */
class KernelRegistry
{
  public:
    static KernelRegistry &Global();

    /** Add @p spec; the slug must be unique and `make` non-null. */
    void Register(KernelSpec spec);

    /** Every kernel, in canonical catalog order. */
    std::vector<const KernelSpec *> All() const;

    /** The kernels of @p group, in figure order. */
    std::vector<const KernelSpec *> Group(const std::string &group) const;

    /**
     * Kernels whose slug or name matches @p pattern: a glob when it
     * contains `*`/`?`, otherwise a case-insensitive substring match
     * (so `--kernel=blit` finds Color Blitting).
     */
    std::vector<const KernelSpec *> Match(const std::string &pattern) const;

    /** Lookup by exact slug or display name; nullptr when absent. */
    const KernelSpec *Find(const std::string &name_or_slug) const;

    /** Distinct group names, in canonical order. */
    std::vector<std::string> Groups() const;

    std::size_t size() const { return specs_.size(); }

  private:
    KernelRegistry() = default;

    // Stable addresses: consumers hold KernelSpec pointers.
    std::vector<std::unique_ptr<KernelSpec>> specs_;
};

/** Glob matcher used by KernelRegistry::Match (`*` and `?` only). */
bool GlobMatch(std::string_view pattern, std::string_view text);

/**
 * Scaled input dimension: @p base (the paper-scale value) times
 * @p scale, rounded to the nearest positive multiple of @p multiple
 * (tile width, macroblock size, pack block...).  scale 1.0 returns
 * @p base exactly for any already-aligned base.
 */
inline int
ScaleDim(int base, double scale, int multiple)
{
    long units = std::lround(base * scale / multiple);
    if (units < 1) {
        units = 1;
    }
    return static_cast<int>(units) * multiple;
}

/** ScaleDim for byte counts (page-granular inputs). */
inline std::size_t
ScaleBytes(std::size_t base, double scale, std::size_t multiple = 4096)
{
    double want = static_cast<double>(base) * scale;
    auto units = static_cast<long long>(
        std::llround(want / static_cast<double>(multiple)));
    if (units < 1) {
        units = 1;
    }
    return static_cast<std::size_t>(units) * multiple;
}

/**
 * Run @p kernel on all three targets through the offload runtime's
 * record-once / replay-twice fast path and package the reports.
 * (Moved from the bench layer so tests, telemetry, and drivers share
 * one definition of the savings math.)
 */
KernelResult RunKernelAllTargets(
    const std::string &name, const OffloadFootprint &footprint,
    const std::function<void(ExecutionContext &)> &kernel,
    const OffloadRuntime &rt = OffloadRuntime());

/** A kernel's single recorded CPU-Only pass (pim_run --sweep input). */
struct RecordedKernel
{
    RunReport cpu;          ///< Native CPU-Only report.
    sim::AccessTrace trace; ///< The recorded access stream.
};

/** Record's compact twin: the stream encoded as it is produced. */
struct RecordedCompactKernel
{
    sim::CompactTrace trace; ///< The stream, already block-encoded.
};

/**
 * One instantiation scope over the catalog: kernels instantiated
 * through the same session share per-group input state, so a full
 * group run reproduces the original bench-layer allocation order and
 * data streams.  Create one session per figure/driver invocation.
 */
class KernelSession
{
  public:
    explicit KernelSession(double scale = 1.0) : scale_(scale) {}

    double scale() const { return scale_; }

    /** Build the kernel's instance (inputs materialize lazily). */
    KernelInstance Instantiate(const KernelSpec &spec);

    /** Instantiate and run on all three targets (replayed fast path). */
    KernelResult Run(const KernelSpec &spec,
                     const OffloadRuntime &rt = OffloadRuntime());

    /**
     * Instantiate and execute once, natively, on CPU-Only, recording
     * the access stream — the single recording pass the sweep engines
     * (SweepRunner::ReplayTrace / ProfileStudy) replay.
     */
    RecordedKernel Record(const KernelSpec &spec);

    /**
     * Record the access stream alone, straight into the compact
     * encoded form.  The stream never exists as an 8-byte-per-entry
     * array, so recording a corpus of large kernels peaks at the
     * *encoded* size plus one codec block, and no cache hierarchy is
     * fed, so recording costs the kernel and the encoder only.  The
     * stream is the one Record captures.  (`pim_run --corpus` and
     * serve's cold path record through this.)
     */
    RecordedCompactKernel RecordCompact(const KernelSpec &spec);

  private:
    double scale_;
    std::map<std::string, std::shared_ptr<void>> group_state_;
};

/** Registers the spec returned by @p make at static-init time. */
struct KernelRegistrar
{
    explicit KernelRegistrar(KernelSpec (*make)())
    {
        KernelRegistry::Global().Register(make());
    }
};

} // namespace pim::core

/**
 * Define-and-register hook: expands to the header of a function
 * returning the KernelSpec, wired to a static registrar.
 *
 *   PIM_REGISTER_KERNEL(texture_tiling)
 *   {
 *       core::KernelSpec spec;
 *       ...
 *       return spec;
 *   }
 */
#define PIM_REGISTER_KERNEL(ident)                                        \
    static ::pim::core::KernelSpec PimMakeKernelSpec_##ident();           \
    static const ::pim::core::KernelRegistrar pim_kernel_registrar_##ident( \
        &PimMakeKernelSpec_##ident);                                      \
    static ::pim::core::KernelSpec PimMakeKernelSpec_##ident()

/**
 * Link anchor: registration lives in static libraries, so a kernels.cc
 * with only static registrars would be dropped by the archive linker.
 * Each kernels.cc plants an anchor; workloads/catalog.cc REQUIREs them
 * all, forcing extraction (and thus registration) into any binary that
 * calls workloads::EnsureKernelCatalog().
 */
#define PIM_KERNEL_ANCHOR(ident)                                          \
    namespace pim::core::kernel_anchors {                                 \
    void ident() {}                                                       \
    }

#define PIM_KERNEL_REQUIRE(ident)                                         \
    namespace pim::core::kernel_anchors {                                 \
    void ident();                                                         \
    }

#endif // PIM_CORE_KERNEL_REGISTRY_H
