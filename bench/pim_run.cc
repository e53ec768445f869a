/**
 * @file
 * pim_run: the registry-driven kernel driver.
 *
 * Enumerates the KernelRegistry catalog (every PIM-target kernel from
 * Figures 18/19/20) and runs any subset of it on any subset of the
 * three execution targets, at any input scale, with the same telemetry
 * outputs as the figure binaries (--json/--trace/--check-refs).
 *
 *   pim_run --list
 *   pim_run --kernel=texture_tiling --scale=0.25 --json=-
 *   pim_run --kernel='*' --targets=cpu,acc
 *   pim_run --sweep=llc --kernel=browser
 *   pim_run --corpus=/var/cache/pim-corpus --kernel=browser
 *
 * `--sweep=llc` records each matched trace-replayable kernel's access
 * stream ONCE (KernelSession::Record, or RecordCompact for the
 * --compact-trace and --corpus forms) and derives the whole LLC
 * capacity ladder from that single recording via a one-L1
 * stack-distance study (SweepRunner::ProfileStudy) — no per-point
 * re-execution, with counters bit-identical to a cold replay per point
 * (tests/test_kernel_registry.cc cross-checks).
 */

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "common/shutdown.h"
#include "serve/corpus_cache.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace_codec.h"
#include "telemetry/report_json.h"
#include "telemetry/span_tracer.h"
#include "workloads/catalog.h"

// The recorder provenance stamped into corpus manifests (git describe
// of the build; the build system defines it, "unknown" otherwise).
#ifndef PIM_GIT_DESCRIBE
#define PIM_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace pim;

struct DriverOptions
{
    std::string kernel_pattern; ///< Empty = whole catalog.
    std::string sweep;          ///< Empty = run mode; "llc" = LLC sweep.
    bool compact_trace = false; ///< Sweep from the compact encoding.
    std::string corpus_dir;     ///< Record to / replay from a corpus.
    double scale = 1.0;
    bool want_cpu = true;
    bool want_core = true;
    bool want_acc = true;
    bool list = false;

    bool AllTargets() const { return want_cpu && want_core && want_acc; }
};

/** Corpus `created` provenance: UTC wall-clock, second granularity. */
std::string
NowUtc()
{
    char buf[32];
    const std::time_t t = std::time(nullptr);
    std::tm tm = {};
    gmtime_r(&t, &tm);
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
PrintUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "pim_run - registry-driven driver for the paper's PIM-target "
        "kernels\n"
        "\n"
        "usage: pim_run [options]\n"
        "  --list              print the kernel catalog and exit\n"
        "  --kernel=<pattern>  select kernels by slug/name: glob when\n"
        "                      the pattern has * or ?, else substring\n"
        "                      (group names also match)\n"
        "  --targets=<csv>     subset of cpu,core,acc (default: all)\n"
        "  --scale=<f>         linear input-scale multiplier\n"
        "                      (default 1.0 = paper-scale inputs)\n"
        "  --sweep=llc         record each matched kernel once, then\n"
        "                      profile an LLC capacity ladder from the\n"
        "                      single recorded stream\n"
        "  --sweep=study       record once, then answer the full\n"
        "                      multi-axis design study (L1 x LLC ladder\n"
        "                      x write policy, prefetcher telemetry,\n"
        "                      PIM-side traffic) from one profiling\n"
        "                      study (SweepRunner::ProfileStudy)\n"
        "  --compact-trace     with --sweep: hold the recording in the\n"
        "                      block-encoded compact form (identical\n"
        "                      counters; reports compression metrics)\n"
        "  --corpus=<dir>      without --sweep: record each matched\n"
        "                      trace-replayable kernel straight into a\n"
        "                      container file in <dir> (the pim_serve\n"
        "                      corpus format; already-present entries\n"
        "                      are kept).  With --sweep: replay from\n"
        "                      the memory-mapped corpus entry instead\n"
        "                      of RAM, recording it first on a miss\n"
        "  --threads=<n>       sweep worker count (overrides the\n"
        "                      PIM_SWEEP_THREADS environment variable)\n"
        "  --json=<path|->     write the structured JSON run report\n"
        "  --trace=<path>      write a Chrome trace-event file\n"
        "  --check-refs        gate the report against the paper's\n"
        "                      reference table\n"
        "  --filter=<substr>   only run matching output sections\n");
}

/** Parse --targets=cpu,core,acc; returns false on an unknown name. */
bool
ParseTargets(std::string_view csv, DriverOptions &opts)
{
    opts.want_cpu = opts.want_core = opts.want_acc = false;
    while (!csv.empty()) {
        const auto comma = csv.find(',');
        const std::string_view item = csv.substr(0, comma);
        if (item == "cpu" || item == "cpu-only" || item == "cpu_only") {
            opts.want_cpu = true;
        } else if (item == "core" || item == "pim-core" ||
                   item == "pim_core") {
            opts.want_core = true;
        } else if (item == "acc" || item == "pim-acc" ||
                   item == "pim_acc") {
            opts.want_acc = true;
        } else {
            return false;
        }
        if (comma == std::string_view::npos) {
            break;
        }
        csv.remove_prefix(comma + 1);
    }
    return opts.want_cpu || opts.want_core || opts.want_acc;
}

/** Matched specs: whole catalog, a group, or a slug/name pattern. */
std::vector<const core::KernelSpec *>
SelectKernels(const core::KernelRegistry &registry,
              const std::string &pattern)
{
    if (pattern.empty()) {
        return registry.All();
    }
    for (const auto &group : registry.Groups()) {
        if (group == pattern) {
            return registry.Group(group);
        }
    }
    return registry.Match(pattern);
}

void
ListCatalog(bench::BenchOutput &out,
            const std::vector<const core::KernelSpec *> &specs)
{
    Table table("Kernel catalog");
    table.SetHeader(
        {"kernel", "slug", "group", "figure", "trace-replayable"});
    for (const auto *spec : specs) {
        table.AddRow({spec->name, spec->Slug(), spec->group,
                      spec->figure, spec->trace_replayable ? "yes" : "no"});
    }
    out.Emit(table);
    out.Metric("pim_run.catalog_size", static_cast<double>(specs.size()));
}

/** Per-kernel rows for a target subset (no cross-target ratios). */
void
EmitTargetSubset(bench::BenchOutput &out, const DriverOptions &opts,
                 const std::vector<const core::KernelSpec *> &specs,
                 core::KernelSession &session)
{
    Table table("Selected kernels x targets");
    table.SetHeader({"kernel", "target", "energy (pJ)", "time (ns)",
                     "MPKI", "off-chip bytes"});
    auto add_row = [&](const core::RunReport &r) {
        table.AddRow({
            r.kernel,
            r.target_name,
            Table::Num(r.TotalEnergyPj(), 1),
            Table::Num(static_cast<double>(r.TotalTimeNs()), 0),
            Table::Num(r.Mpki(), 2),
            Table::Num(
                static_cast<double>(r.counters.OffChipBytes()), 0),
        });
        const std::string base =
            "pim_run." + Slugify(r.kernel) + "." + Slugify(r.target_name);
        out.Metric(base + ".energy_pj", r.TotalEnergyPj());
        out.Metric(base + ".time_ns",
                   static_cast<double>(r.TotalTimeNs()));
    };
    for (const auto *spec : specs) {
        if (ShutdownRequested()) {
            break; // finish the report with what completed
        }
        out.Section("kernel." + spec->Slug(), [&] {
            if (opts.want_core || opts.want_acc) {
                // PIM targets come from the replayed fast path, which
                // produces the CPU baseline as a by-product.
                const core::KernelResult r = session.Run(*spec);
                if (opts.want_cpu) {
                    add_row(r.cpu);
                }
                if (opts.want_core) {
                    add_row(r.pim_core);
                }
                if (opts.want_acc) {
                    add_row(r.pim_acc);
                }
            } else {
                // CPU only: one native pass, no replay work at all.
                const core::RecordedKernel rec = session.Record(*spec);
                add_row(rec.cpu);
            }
        });
    }
    out.Emit(table);
}

/** Figure-style output: per-group tables + full-catalog headline. */
void
EmitAllTargets(bench::BenchOutput &out,
               const core::KernelRegistry &registry,
               const std::vector<const core::KernelSpec *> &specs,
               core::KernelSession &session)
{
    std::vector<bench::KernelResult> all;
    for (const auto &group : registry.Groups()) {
        if (ShutdownRequested()) {
            break; // finish the report with what completed
        }
        std::vector<const core::KernelSpec *> members;
        for (const auto *spec : specs) {
            if (spec->group == group) {
                members.push_back(spec);
            }
        }
        if (members.empty()) {
            continue;
        }
        out.Section("kernels." + group, [&] {
            std::vector<bench::KernelResult> results;
            for (const auto *spec : members) {
                results.push_back(session.Run(*spec));
            }
            // Partial groups would skew the <group>.avg.* metrics the
            // reference table gates, so those aggregates only appear
            // when the whole group ran.
            const bool complete =
                members.size() == registry.Group(group).size();
            out.KernelGroup(group, members.front()->figure + " kernels",
                            results, complete);
            for (auto &r : results) {
                all.push_back(std::move(r));
            }
        });
    }

    if (specs.size() != registry.size() || all.size() != specs.size()) {
        return;
    }
    out.Section("headline", [&] {
        double core_e = 0, acc_e = 0, core_s = 0, acc_s = 0, movement = 0;
        for (const auto &k : all) {
            core_e += k.EnergySaving(k.pim_core);
            acc_e += k.EnergySaving(k.pim_acc);
            core_s += k.Speedup(k.pim_core);
            acc_s += k.Speedup(k.pim_acc);
            movement += k.cpu.energy.DataMovementFraction();
        }
        const double n = static_cast<double>(all.size());
        out.Metric("headline.movement_share_kernels", movement / n);
        out.Metric("headline.pim_core.energy_reduction", core_e / n);
        out.Metric("headline.pim_acc.energy_reduction", acc_e / n);
        out.Metric("headline.pim_core.speedup", core_s / n);
        out.Metric("headline.pim_acc.speedup", acc_s / n);

        Table summary("Catalog headline (all kernels)");
        summary.SetHeader({"metric", "PIM-Core", "PIM-Acc"});
        summary.AddRow({"avg energy reduction", Table::Pct(core_e / n),
                        Table::Pct(acc_e / n)});
        summary.AddRow({"avg speedup", Table::Num(core_s / n, 2) + "x",
                        Table::Num(acc_s / n, 2) + "x"});
        summary.AddRow({"avg data movement share (CPU)",
                        Table::Pct(movement / n), ""});
        out.Emit(summary);
    });
}

/**
 * The mmap-backed corpus entry for @p spec, recording and storing it
 * first on a miss (so a cold corpus warms itself as the sweep runs).
 * Returns nullopt only when the store or map fails — disk trouble —
 * in which case the caller falls back to an in-RAM recording.
 */
std::optional<sim::MappedCompactTrace>
MapCorpusTrace(serve::CorpusCache &corpus, const core::KernelSpec &spec,
               core::KernelSession &session)
{
    const std::string key =
        serve::CorpusKey(spec.Slug(), session.scale());
    auto mapped = corpus.Map(key);
    if (!mapped) {
        // Record straight into the compact encoded form: the raw
        // 8-byte-per-entry stream never materializes.
        const core::RecordedCompactKernel rec =
            session.RecordCompact(spec);
        corpus.Store(key, spec.Slug(), session.scale(), rec.trace,
                     PIM_GIT_DESCRIBE, NowUtc());
        mapped = corpus.Map(key);
    }
    return mapped;
}

/**
 * One kernel's recording in the form the sweep flags ask for: the
 * mapped corpus entry (--corpus), the compact encoding
 * (--compact-trace, or --corpus on disk trouble), or the raw
 * 8-byte-per-entry stream.
 */
struct SweepTrace
{
    std::optional<sim::MappedCompactTrace> mapped;
    std::optional<sim::CompactTrace> compact;
    sim::AccessTrace raw;

    sim::StudyResult
    Study(const sim::SweepRunner &runner, const sim::StudySpec &grid) const
    {
        if (mapped) {
            return runner.ProfileStudy(*mapped, grid);
        }
        if (compact) {
            return runner.ProfileStudy(sim::CompactTraceSource(*compact),
                                       grid);
        }
        return runner.ProfileStudy(sim::AccessTraceSource(raw), grid);
    }
};

/**
 * Record (or map) @p spec once for a sweep.  The compact forms record
 * straight into the encoding (KernelSession::RecordCompact): no raw
 * stream, no host hierarchy.
 */
SweepTrace
RecordSweepTrace(bool compact, serve::CorpusCache *corpus,
                 const core::KernelSpec &spec,
                 core::KernelSession &session)
{
    SweepTrace trace;
    if (corpus != nullptr) {
        // Out-of-core: the study streams blocks from the mapped
        // container (recording it first on a miss), so the resident
        // footprint is O(block buffers), not O(trace).
        trace.mapped = MapCorpusTrace(*corpus, spec, session);
    }
    if (trace.mapped) {
        return trace;
    }
    if (compact || corpus != nullptr) {
        trace.compact = session.RecordCompact(spec).trace;
    } else {
        trace.raw = session.Record(spec).trace;
    }
    return trace;
}

/**
 * `--corpus=DIR` record mode: stream each matched trace-replayable
 * kernel into a digest-named container file under DIR, stamping the
 * manifest with recorder/created provenance.  Idempotent — entries
 * already present for (kernel, scale) are kept, not re-recorded.
 */
void
EmitCorpusRecord(bench::BenchOutput &out, serve::CorpusCache &corpus,
                 const std::string &dir,
                 const std::vector<const core::KernelSpec *> &specs,
                 core::KernelSession &session)
{
    Table table("Trace corpus @ " + dir);
    table.SetHeader({"kernel", "status", "entries", "file bytes"});
    for (const auto *spec : specs) {
        if (ShutdownRequested()) {
            break; // finish the report with what completed
        }
        if (!spec->trace_replayable) {
            continue;
        }
        out.Section("corpus." + spec->Slug(), [&] {
            const std::string key =
                serve::CorpusKey(spec->Slug(), session.scale());
            std::string status = "recorded";
            auto mapped = corpus.Map(key);
            if (mapped) {
                status = "cached";
            } else {
                mapped = MapCorpusTrace(corpus, *spec, session);
                if (!mapped) {
                    status = "FAILED";
                }
            }
            const auto entries =
                mapped ? mapped->entries() : std::uint64_t{0};
            const auto bytes =
                mapped ? static_cast<std::uint64_t>(mapped->SizeBytes())
                       : std::uint64_t{0};
            table.AddRow({spec->Slug(), status, std::to_string(entries),
                          std::to_string(bytes)});
            const std::string prefix = "pim_run.corpus." + spec->Slug();
            out.Metric(prefix + ".entries",
                       static_cast<double>(entries));
            out.Metric(prefix + ".file_bytes",
                       static_cast<double>(bytes));
        });
    }
    out.Emit(table);
    out.Metric("pim_run.corpus.files",
               static_cast<double>(corpus.files()));
}

/** The LLC capacity ladder swept around the host's 2 MiB design point. */
std::vector<sim::CacheConfig>
LlcLadder(const sim::HierarchyConfig &base)
{
    std::vector<sim::CacheConfig> points;
    for (Bytes size = 256_KiB; size <= 8_MiB; size *= 2) {
        sim::CacheConfig cfg = *base.llc;
        cfg.size = size;
        points.push_back(cfg);
    }
    return points;
}

/** The per-kernel LLC ladder table + metrics (shared by both the
 *  in-RAM and corpus-backed sweep paths) from a one-L1 study. */
void
EmitLlcTable(bench::BenchOutput &out, const core::KernelSpec &spec,
             const std::vector<sim::CacheConfig> &ladder,
             const sim::StudyResult &study)
{
    Table table(spec.name + " — LLC capacity sweep (recorded "
                            "once, profiled analytically)");
    table.SetHeader({"LLC", "LLC miss rate", "LLC misses",
                     "writebacks", "DRAM bytes"});
    const std::string prefix = "pim_run.sweep." + spec.Slug() + ".llc_";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const sim::PerfCounters &c = study.host[0][i].counters;
        const auto kib =
            static_cast<unsigned long long>(ladder[i].size / 1024);
        table.AddRow({
            std::to_string(kib) + " KiB",
            Table::Pct(c.llc.MissRate()),
            std::to_string(c.llc.Misses()),
            std::to_string(c.llc.writebacks),
            std::to_string(static_cast<unsigned long long>(
                c.dram.TotalBytes())),
        });
        const std::string key = prefix + std::to_string(kib) + "kib";
        out.Metric(key + ".miss_rate", c.llc.MissRate());
        out.Metric(key + ".dram_bytes",
                   static_cast<double>(c.dram.TotalBytes()));
    }
    out.Emit(table);
}

void
EmitLlcSweep(bench::BenchOutput &out, bool compact,
             serve::CorpusCache *corpus,
             const std::vector<const core::KernelSpec *> &specs,
             core::KernelSession &session)
{
    const sim::HierarchyConfig base = sim::HostHierarchyConfig();
    const std::vector<sim::CacheConfig> ladder = LlcLadder(base);
    // The ladder is the one-L1 study: the host L1 simulated once, every
    // LLC point a readout of one profiling pass per set count.
    sim::StudySpec llc_study;
    llc_study.l1_points = {base.l1};
    llc_study.llc_points = ladder;
    llc_study.dram = base.dram;
    const sim::SweepRunner runner;

    for (const auto *spec : specs) {
        if (ShutdownRequested()) {
            break; // finish the report with what completed
        }
        if (!spec->trace_replayable) {
            std::printf("pim_run: skipping %s (not trace-replayable)\n",
                        spec->name.c_str());
            continue;
        }
        out.Section("sweep." + spec->Slug(), [&] {
            // ONE recording; every ladder point is derived from the
            // recorded stream analytically.
            const std::string tp = "pim_run.sweep." + spec->Slug() + ".";
            const SweepTrace trace =
                RecordSweepTrace(compact, corpus, *spec, session);
            if (trace.mapped) {
                out.Metric(tp + "corpus_bytes_mapped",
                           static_cast<double>(trace.mapped->SizeBytes()));
            } else if (trace.compact && corpus == nullptr) {
                out.Metric(tp + "trace_bytes",
                           static_cast<double>(trace.compact->RawBytes()));
                out.Metric(tp + "trace_compact_bytes",
                           static_cast<double>(trace.compact->SizeBytes()));
                out.Metric(tp + "trace_compression_ratio",
                           trace.compact->CompressionRatio());
            }
            EmitLlcTable(out, *spec, ladder,
                         trace.Study(runner, llc_study));
        });
    }
}

/**
 * The multi-axis study grid --sweep=study answers per kernel: both host
 * L1 geometries x an LLC capacity ladder (capacity via associativity at
 * the host's fixed set count, so the whole ladder is one profiling
 * pass) x the write-policy variants at the host design point, plus both
 * PIM targets — all from one recording and two trace decodes
 * (SweepRunner::ProfileStudy).
 */
sim::StudySpec
StudyGrid()
{
    const sim::HierarchyConfig host = sim::HostHierarchyConfig();
    sim::StudySpec spec;
    spec.dram = host.dram;
    spec.l1_points.push_back(host.l1);
    sim::CacheConfig small_l1 = host.l1;
    small_l1.size = 32_KiB;
    spec.l1_points.push_back(small_l1);

    const std::size_t sets =
        host.llc->size / (host.llc->associativity * host.llc->line_bytes);
    for (const std::uint32_t a : {1u, 2u, 4u, 8u, 16u, 32u}) {
        sim::CacheConfig cfg = *host.llc;
        cfg.associativity = a;
        cfg.size = sets * a * cfg.line_bytes;
        spec.llc_points.push_back(cfg);
    }
    for (const auto policy : {sim::WritePolicy::kWriteThroughAllocate,
                              sim::WritePolicy::kWriteThroughNoAllocate}) {
        sim::CacheConfig cfg = *host.llc;
        cfg.policy = policy;
        spec.llc_points.push_back(cfg);
    }
    spec.model_prefetcher = true;

    const sim::HierarchyConfig core = sim::PimCoreHierarchyConfig();
    const sim::HierarchyConfig acc = sim::PimAccelHierarchyConfig();
    spec.pim_points = {sim::StudyPimPoint{"pim_core", core.l1, core.dram},
                       sim::StudyPimPoint{"pim_acc", acc.l1, acc.dram}};
    return spec;
}

void
EmitStudySweep(bench::BenchOutput &out, bool compact,
               serve::CorpusCache *corpus,
               const std::vector<const core::KernelSpec *> &specs,
               core::KernelSession &session)
{
    const sim::StudySpec grid = StudyGrid();
    const sim::SweepRunner runner;

    for (const auto *spec : specs) {
        if (ShutdownRequested()) {
            break; // finish the report with what completed
        }
        if (!spec->trace_replayable) {
            std::printf("pim_run: skipping %s (not trace-replayable)\n",
                        spec->name.c_str());
            continue;
        }
        out.Section("study." + spec->Slug(), [&] {
            const std::string prefix = "pim_run.study." + spec->Slug();
            const SweepTrace trace =
                RecordSweepTrace(compact, corpus, *spec, session);
            if (trace.mapped) {
                out.Metric(prefix + ".corpus_bytes_mapped",
                           static_cast<double>(trace.mapped->SizeBytes()));
            } else if (trace.compact && corpus == nullptr) {
                out.Metric(prefix + ".trace_compact_bytes",
                           static_cast<double>(trace.compact->SizeBytes()));
            }
            const sim::StudyResult study = trace.Study(runner, grid);

            Table table(spec->name +
                        " — one-pass design study (host grid + PIM)");
            table.SetHeader({"L1", "LLC", "policy", "LLC miss rate",
                             "DRAM bytes", "writebacks"});
            for (std::size_t i = 0; i < grid.l1_points.size(); ++i) {
                const auto l1_kib = static_cast<unsigned long long>(
                    grid.l1_points[i].size / 1024);
                for (std::size_t j = 0; j < grid.llc_points.size(); ++j) {
                    const sim::CacheConfig &llc = grid.llc_points[j];
                    const sim::StudyPointResult &p = study.host[i][j];
                    const auto llc_kib =
                        static_cast<unsigned long long>(llc.size / 1024);
                    table.AddRow({
                        std::to_string(l1_kib) + " KiB",
                        std::to_string(llc_kib) + " KiB",
                        sim::WritePolicyName(llc.policy),
                        Table::Pct(p.counters.llc.MissRate()),
                        std::to_string(static_cast<unsigned long long>(
                            p.counters.dram.TotalBytes())),
                        std::to_string(p.counters.llc.writebacks) +
                            (p.writebacks_exact ? "" : " (approx)"),
                    });
                    const std::string key =
                        prefix + ".l1_" + std::to_string(l1_kib) +
                        "kib.llc_" + std::to_string(llc_kib) + "kib." +
                        sim::WritePolicyName(llc.policy);
                    out.Metric(key + ".miss_rate",
                               p.counters.llc.MissRate());
                    out.Metric(key + ".dram_bytes",
                               static_cast<double>(
                                   p.counters.dram.TotalBytes()));
                    out.Metric(key + ".writebacks_exact",
                               p.writebacks_exact ? 1.0 : 0.0);
                }
            }
            for (std::size_t j = 0; j < grid.pim_points.size(); ++j) {
                const sim::StudyPointResult &p = study.pim[j];
                table.AddRow({
                    grid.pim_points[j].name,
                    "-",
                    "-",
                    Table::Pct(p.counters.l1.MissRate()),
                    std::to_string(static_cast<unsigned long long>(
                        p.counters.dram.TotalBytes())),
                    "0",
                });
                out.Metric(prefix + "." + grid.pim_points[j].name +
                               ".dram_bytes",
                           static_cast<double>(
                               p.counters.dram.TotalBytes()));
            }
            out.Emit(table);

            // The prefetcher axis at the host design point (64 KiB L1,
            // 2 MiB write-back LLC).
            const sim::PrefetchStats &pf = study.host[0][3].prefetch;
            out.Metric(prefix + ".prefetch.accuracy", pf.Accuracy());
            out.Metric(prefix + ".prefetch.coverage", pf.Coverage());
            out.Metric(prefix + ".trace_replays",
                       static_cast<double>(study.trace_replays));
            out.Metric(prefix + ".profile_passes",
                       static_cast<double>(study.profile_passes));
            out.Metric(prefix + ".shards",
                       static_cast<double>(study.shards));
            out.Metric(prefix + ".sweep_threads",
                       static_cast<double>(runner.thread_count()));
        });
    }
}

int
Main(int argc, char **argv)
{
    bench::BenchOptions bench_opts = bench::ParseBenchArgs(&argc, argv);
    if (!bench_opts.error.empty()) {
        std::fprintf(stderr, "pim_run: %s\n", bench_opts.error.c_str());
        return 1;
    }

    DriverOptions opts;
    opts.list = bench_opts.list;
    bench_opts.list = false; // BenchOutput's section --list is not ours.
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--kernel=", 0) == 0) {
            opts.kernel_pattern = arg.substr(9);
        } else if (arg.rfind("--targets=", 0) == 0) {
            if (!ParseTargets(arg.substr(10), opts)) {
                std::fprintf(stderr,
                             "pim_run: bad --targets value '%s' "
                             "(expected csv of cpu,core,acc)\n",
                             std::string(arg.substr(10)).c_str());
                return 1;
            }
        } else if (arg.rfind("--scale=", 0) == 0) {
            const std::string value(arg.substr(8));
            char *end = nullptr;
            opts.scale = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(opts.scale > 0.0)) {
                std::fprintf(stderr,
                             "pim_run: bad --scale value '%s' "
                             "(expected a positive number)\n",
                             value.c_str());
                return 1;
            }
        } else if (arg.rfind("--sweep=", 0) == 0) {
            opts.sweep = arg.substr(8);
            if (opts.sweep != "llc" && opts.sweep != "study") {
                std::fprintf(stderr,
                             "pim_run: unknown sweep '%s' "
                             "(supported: llc, study)\n",
                             opts.sweep.c_str());
                return 1;
            }
        } else if (arg == "--compact-trace") {
            opts.compact_trace = true;
        } else if (arg.rfind("--corpus=", 0) == 0) {
            opts.corpus_dir = arg.substr(9);
            if (opts.corpus_dir.empty()) {
                std::fprintf(stderr,
                             "pim_run: --corpus needs a directory\n");
                return 1;
            }
        } else if (arg == "--help" || arg == "-h") {
            PrintUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "pim_run: unknown argument '%s'\n",
                         std::string(arg).c_str());
            PrintUsage(stderr);
            return 1;
        }
    }

    if (!bench_opts.trace_path.empty()) {
        telemetry::Tracer::Global().SetEnabled(true);
    }
    if (bench_opts.threads != 0) {
        sim::SweepRunner::SetDefaultThreads(bench_opts.threads);
    }
    if (opts.compact_trace && opts.sweep.empty()) {
        std::fprintf(stderr,
                     "pim_run: --compact-trace requires --sweep\n");
        return 1;
    }

    // Ctrl-C / SIGTERM finishes the current kernel, emits the report
    // for everything completed, and exits 0 — long sweeps never die
    // with half-written JSON (a second signal kills the usual way).
    InstallShutdownHandler();
    workloads::EnsureKernelCatalog();
    const core::KernelRegistry &registry = core::KernelRegistry::Global();
    const std::vector<const core::KernelSpec *> specs =
        SelectKernels(registry, opts.kernel_pattern);
    if (specs.empty()) {
        std::fprintf(stderr, "pim_run: no kernels match '%s'\n",
                     opts.kernel_pattern.c_str());
        return 1;
    }

    bench::BenchOutput out("pim_run", std::move(bench_opts));
    out.Metric("pim_run.scale", opts.scale);
    // Same normalization metric BenchMain emits for the figure benches.
    out.Metric("bench.sweep_threads",
               static_cast<double>(sim::SweepRunner().thread_count()));

    if (opts.list) {
        ListCatalog(out, specs);
        return out.Finish();
    }

    core::KernelSession session(opts.scale);
    std::optional<serve::CorpusCache> corpus;
    if (!opts.corpus_dir.empty()) {
        corpus.emplace(opts.corpus_dir);
    }
    serve::CorpusCache *corpus_ptr = corpus ? &*corpus : nullptr;
    if (opts.sweep == "study") {
        EmitStudySweep(out, opts.compact_trace, corpus_ptr, specs,
                       session);
    } else if (!opts.sweep.empty()) {
        EmitLlcSweep(out, opts.compact_trace, corpus_ptr, specs,
                     session);
    } else if (corpus) {
        EmitCorpusRecord(out, *corpus, opts.corpus_dir, specs, session);
    } else if (opts.AllTargets()) {
        EmitAllTargets(out, registry, specs, session);
    } else {
        EmitTargetSubset(out, opts, specs, session);
    }
    return out.Finish();
}

} // namespace

int
main(int argc, char **argv)
{
    return Main(argc, argv);
}
