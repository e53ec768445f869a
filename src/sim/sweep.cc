#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "common/env.h"
#include "common/logging.h"
#include "sim/sharded_replay.h"
#include "sim/stack_profiler.h"
#include "telemetry/span_tracer.h"

namespace pim::sim {

namespace {

/**
 * PIM_SWEEP_THREADS, if set to a positive integer, bounds the default
 * worker count (CI pins it for deterministic parallelism; laptops use
 * it to keep sweeps off the efficiency cores).  Invalid values are
 * ignored with a warning rather than fatal: a bad environment should
 * not take down a measurement run.
 */
unsigned
EnvThreadOverride()
{
    return ParseThreadsValue("PIM_SWEEP_THREADS",
                             std::getenv("PIM_SWEEP_THREADS"));
}

/** SetDefaultThreads override; beats the environment when nonzero. */
std::atomic<unsigned> g_default_threads{0};

} // namespace

void
SweepRunner::SetDefaultThreads(unsigned threads)
{
    g_default_threads.store(threads, std::memory_order_relaxed);
}

unsigned
SweepRunner::default_threads()
{
    return g_default_threads.load(std::memory_order_relaxed);
}

SweepRunner::SweepRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = default_threads(); // --threads flag
    }
    if (threads_ == 0) {
        threads_ = EnvThreadOverride(); // PIM_SWEEP_THREADS
    }
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0) {
            threads_ = 1;
        }
    }
}

void
SweepRunner::ForEach(std::size_t jobs,
                     const std::function<void(std::size_t)> &fn) const
{
    if (jobs == 0) {
        return;
    }
    PIM_TRACE_SPAN("sweep", "ForEach");
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, jobs));
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs; ++i) {
            fn(i); // exceptions propagate directly
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    // A throwing job must not escape a worker thread (that would
    // std::terminate the process): capture the first exception, stop
    // claiming jobs, and rethrow it to the caller after the join.
    auto worker = [&]() {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs) {
                return;
            }
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back(worker);
    }
    for (auto &t : pool) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

/*
 * Both engines consume the trace solely through the TraceSource
 * contract (sim/trace.h): ReplayInto delivers the identical batched
 * entry stream whichever implementation backs the cursor, so each
 * engine is written once for every trace form.
 */

std::vector<PerfCounters>
SweepRunner::ReplayTrace(const TraceSource &trace,
                         const std::vector<HierarchyConfig> &configs) const
{
    std::vector<PerfCounters> results(configs.size());
    ForEach(configs.size(), [&](std::size_t i) {
        PIM_TRACE_SPAN("sweep", "replay[" + std::to_string(i) + "]");
        MemoryHierarchy mh(configs[i]);
        trace.ReplayInto(mh.Top());
        results[i] = mh.Snapshot();
    });
    return results;
}

namespace {

/**
 * Design points sharing one study profiling pass: same line size, set
 * count, and write-allocation behavior.  Write-back and
 * write-through-allocate members share an allocating pass;
 * no-write-allocate members form the non-allocating pass of the same
 * geometry.
 */
struct StudyPassGroup
{
    StackProfilerConfig cfg;
    std::vector<std::size_t> points; ///< Indices into the point list.
    std::vector<std::uint32_t> assocs;    ///< Parallel to points.
    std::vector<WritePolicy> policies;    ///< Parallel to points.
};

/** Derive the pass key/groups for a list of cache design points. */
std::vector<StudyPassGroup>
GroupStudyPoints(const std::vector<CacheConfig> &points,
                 bool model_prefetcher)
{
    std::map<std::tuple<Bytes, std::size_t, bool>, std::size_t>
        group_of;
    std::vector<StudyPassGroup> groups;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const CacheConfig &p = points[i];
        PIM_ASSERT(p.associativity > 0 && p.line_bytes > 0 &&
                       p.size % (static_cast<Bytes>(p.associativity) *
                                 p.line_bytes) ==
                           0,
                   "study point '%s' size not divisible by assoc*line",
                   p.name.c_str());
        const std::size_t num_sets = static_cast<std::size_t>(
            p.size / (static_cast<Bytes>(p.associativity) *
                      p.line_bytes));
        const bool allocate =
            p.policy != WritePolicy::kWriteThroughNoAllocate;
        const auto key =
            std::make_tuple(p.line_bytes, num_sets, allocate);
        auto [it, inserted] = group_of.try_emplace(key, groups.size());
        if (inserted) {
            StudyPassGroup g;
            g.cfg.line_bytes = p.line_bytes;
            g.cfg.num_sets = num_sets;
            g.cfg.write_allocate = allocate;
            g.cfg.model_prefetcher = model_prefetcher;
            groups.push_back(std::move(g));
        }
        StudyPassGroup &g = groups[it->second];
        g.points.push_back(i);
        g.assocs.push_back(p.associativity);
        g.policies.push_back(p.policy);
    }
    // Track write-back associativities for exact writebacks, capped at
    // the 64 dirty-bitmask slots per pass; overflow points keep exact
    // hits/misses but their readout is flagged writebacks_exact=false.
    // Every stack is bounded at the group's largest associativity:
    // every point is read out (tracked or not, any policy), and
    // nothing deeper can change a readout (stack_profiler.h).
    for (StudyPassGroup &g : groups) {
        g.cfg.max_assoc =
            *std::max_element(g.assocs.begin(), g.assocs.end());
        std::vector<std::uint32_t> wb;
        for (std::size_t j = 0; j < g.points.size(); ++j) {
            if (g.policies[j] == WritePolicy::kWriteBackAllocate) {
                wb.push_back(g.assocs[j]);
            }
        }
        std::sort(wb.begin(), wb.end());
        wb.erase(std::unique(wb.begin(), wb.end()), wb.end());
        if (wb.size() > 64) {
            wb.resize(64);
        }
        g.cfg.tracked_assocs = std::move(wb);
    }
    return groups;
}

} // namespace

StudyPointResult
ReadProfilePoint(const StackProfile &prof, std::uint32_t assoc,
                 WritePolicy policy, bool model_prefetcher)
{
    StudyPointResult out;
    out.writebacks_exact = prof.WritebacksExact(assoc, policy);
    out.counters.llc = prof.StatsForAssociativity(assoc, policy);
    if (out.writebacks_exact) {
        out.counters.dram =
            prof.DramTrafficForAssociativity(assoc, policy);
    } else {
        // Fill traffic is still exact; the write side is unknown
        // (reported 0) — writebacks_exact says so.
        const std::uint64_t misses = out.counters.llc.Misses();
        out.counters.dram.read_requests = misses;
        out.counters.dram.read_bytes = misses * prof.line_bytes;
    }
    if (model_prefetcher) {
        out.prefetch = prof.PrefetchForAssociativity(assoc);
    }
    return out;
}

StudyResult
SweepRunner::ProfileStudy(const TraceSource &trace,
                          const StudySpec &spec) const
{
    StudyResult result;
    result.host.assign(
        spec.l1_points.size(),
        std::vector<StudyPointResult>(spec.llc_points.size()));
    result.pim.resize(spec.pim_points.size());
    const bool host_grid =
        !spec.l1_points.empty() && !spec.llc_points.empty();
    if (!host_grid && spec.pim_points.empty()) {
        return result;
    }
    PIM_TRACE_SPAN("sweep", "ProfileStudy");

    // The LLC pass plan is shared by every L1 job (the pass geometry
    // does not depend on which L1 feeds it).
    const std::vector<StudyPassGroup> llc_groups =
        host_grid ? GroupStudyPoints(spec.llc_points,
                                     spec.model_prefetcher)
                  : std::vector<StudyPassGroup>{};

    // One job per distinct L1 geometry: identical L1 points share a
    // single replay and read the same profilers.  A PIM-only study is
    // one job with no L1.
    struct ReplayJob
    {
        std::optional<CacheConfig> l1;
        std::vector<std::size_t> rows; ///< Indices into l1_points.
        std::vector<std::size_t> pim;  ///< PIM groups riding the replay.
    };
    std::vector<ReplayJob> jobs;
    if (host_grid) {
        std::map<std::tuple<Bytes, std::uint32_t, Bytes, WritePolicy>,
                 std::size_t>
            job_of;
        for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
            const CacheConfig &l1 = spec.l1_points[i];
            const auto key = std::make_tuple(
                l1.size, l1.associativity, l1.line_bytes, l1.policy);
            auto [it, inserted] = job_of.try_emplace(key, jobs.size());
            if (inserted) {
                jobs.push_back(ReplayJob{l1, {}, {}});
            }
            jobs[it->second].rows.push_back(i);
        }
    }

    // PIM points profile the raw trace; their pass groups are shared
    // the same way, and group g rides replay g mod n beside that
    // replay's L1: a profiler sees the same ordered stream whether it
    // sits alone under the trace or beside an L1 in a fanout.
    std::vector<CacheConfig> pim_cfgs;
    pim_cfgs.reserve(spec.pim_points.size());
    for (const StudyPimPoint &p : spec.pim_points) {
        pim_cfgs.push_back(p.l1);
    }
    const std::vector<StudyPassGroup> pim_groups =
        GroupStudyPoints(pim_cfgs, false);
    if (jobs.empty() && !pim_groups.empty()) {
        jobs.emplace_back();
    }
    for (std::size_t g = 0; g < pim_groups.size(); ++g) {
        jobs[g % jobs.size()].pim.push_back(g);
    }

    result.trace_replays = jobs.size();
    result.profile_passes =
        jobs.size() * llc_groups.size() + pim_groups.size();

    // Readout of one finished job pass: O(histogram) per point.  The
    // pass's profiles are the LLC groups in order; its raw profiles
    // are the job's riding PIM groups.
    auto read_job = [&](const ReplayJob &j, const ShardedPassResult &pass) {
        for (std::size_t g = 0; g < llc_groups.size(); ++g) {
            const StudyPassGroup &pg = llc_groups[g];
            for (std::size_t m = 0; m < pg.points.size(); ++m) {
                const StudyPointResult point = ReadProfilePoint(
                    pass.profiles[g], pg.assocs[m], pg.policies[m],
                    spec.model_prefetcher);
                for (const std::size_t row : j.rows) {
                    StudyPointResult &out =
                        result.host[row][pg.points[m]];
                    out = point;
                    out.counters.l1 = pass.l1;
                    out.counters.has_llc = true;
                }
            }
        }
        for (std::size_t k = 0; k < j.pim.size(); ++k) {
            const StudyPassGroup &pg = pim_groups[j.pim[k]];
            for (std::size_t m = 0; m < pg.points.size(); ++m) {
                // A PIM point is the profiled cache over its DRAM
                // path directly: the profiler's stats ARE its L1.
                StudyPointResult &out = result.pim[pg.points[m]];
                out = ReadProfilePoint(pass.raw_profiles[k],
                                       pg.assocs[m], pg.policies[m],
                                       false);
                out.counters.l1 = out.counters.llc;
                out.counters.llc = CacheStats{};
                out.counters.has_llc = false;
            }
        }
    };

    // Pass configs: the LLC groups nest under every job's L1 (there
    // are none in a PIM-only study); each job's raw passes are its
    // riding PIM groups.
    std::vector<StackProfilerConfig> llc_cfgs;
    llc_cfgs.reserve(llc_groups.size());
    for (const StudyPassGroup &g : llc_groups) {
        llc_cfgs.push_back(g.cfg);
    }
    auto raw_cfgs = [&](const ReplayJob &j) {
        std::vector<StackProfilerConfig> cfgs;
        for (const std::size_t g : j.pim) {
            cfgs.push_back(pim_groups[g].cfg);
        }
        return cfgs;
    };

    // A job whose plan shards runs alone, spreading its set shards
    // over the full worker pool (sim/sharded_replay.h) — this is what
    // parallelizes the common single-L1 study.  The other jobs
    // (prefetcher-model passes, geometries without a valid shard key,
    // PIM_SHARD_PASS=off) run side by side, each a one-shard pass on a
    // one-thread runner.
    std::vector<std::size_t> side_jobs;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ReplayJob &job = jobs[j];
        const CacheConfig *l1 = job.l1 ? &*job.l1 : nullptr;
        const std::vector<StackProfilerConfig> raw = raw_cfgs(job);
        if (!PlanForPass(l1, llc_cfgs, raw, threads_).supported) {
            side_jobs.push_back(j);
            continue;
        }
        const ShardedPassResult pass =
            ProfilePass(trace, l1, llc_cfgs, raw);
        read_job(job, pass);
        result.shards = std::max(result.shards, pass.shards);
    }

    ForEach(side_jobs.size(), [&](std::size_t idx) {
        const ReplayJob &job = jobs[side_jobs[idx]];
        PIM_TRACE_SPAN("sweep", "study_job[" +
                                    std::to_string(side_jobs[idx]) +
                                    "]");
        read_job(job, SweepRunner(1).ProfilePass(
                          trace, job.l1 ? &*job.l1 : nullptr, llc_cfgs,
                          raw_cfgs(job)));
    });
    return result;
}

} // namespace pim::sim
