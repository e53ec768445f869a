/**
 * @file
 * perfbench: the executor behind perfbench/run.py.
 *
 * One process runs one workload's fixed job plan by calling the
 * program's public functions directly (workloads, core, sim, telemetry,
 * serve) and writes one JSON record per job: wall time, status and the
 * ContentDigest of the job's deterministic output.  run.py builds the
 * plan from the benchmark seed, turns the records into metrics and
 * compares the digests against the committed references; this file
 * holds no statistics and no pass/fail policy.
 *
 *   perfbench --workload=drivers|study|serve --plan=PLAN.json
 *             --out=RECORDS.json --work=DIR [--spans=TRACE.json]
 *             [--setup-only]
 *
 * --setup-only stops once the first timed job could begin (run.py
 * takes the median set-up time over several such processes).  With
 * --spans, rounds the plan marks as traced record one span per layer
 * call, written as Chrome trace-event JSON when the run ends.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec_runners.h"
#include "common/buffer.h"
#include "common/digest.h"
#include "common/json.h"
#include "core/kernel_registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/simd.h"
#include "sim/sweep.h"
#include "sim/system_config.h"
#include "sim/trace_codec.h"
#include "telemetry/report_json.h"
#include "workloads/browser/scroll_sim.h"
#include "workloads/browser/tab_switch.h"
#include "workloads/browser/webpage.h"
#include "workloads/catalog.h"
#include "workloads/ml/inference.h"
#include "workloads/ml/network.h"

namespace {

using namespace pim;

/** Every SweepRunner and the serve pool use at most this many threads. */
constexpr unsigned kThreadCap = 2;

// Input sizes.  Frames and activations stay larger than the modelled
// 2 MiB LLC; see perfbench/README.md for how they were chosen.
constexpr double kInferenceSpatial = 0.5;
constexpr double kInferenceChannels = 0.25;
constexpr int kCodecWidth = 960;
constexpr int kCodecHeight = 544;
constexpr int kCodecFrames = 3;
constexpr double kKernelScale = 1.0;
constexpr double kStudyScale = 2.0;

double
Now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Process start as the executor sees it: stamped by the first static
 * constructor that runs, before the kernel catalog and every other
 * static initialiser, so setup_s counts those but not exec, the dynamic
 * loader or the launching process.
 */
double g_process_start = 0;

[[gnu::constructor(101)]] void
StampProcessStart()
{
    g_process_start = Now();
}

[[noreturn]] void
Fail(const std::string &what)
{
    throw std::runtime_error(what);
}

// ---------------------------------------------------------------- spans

/** One timed layer call, recorded only in traced rounds. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0; ///< 0 = root.
    std::int64_t job = 0;    ///< Job sequence number, 0 = none.
    int round = -1;          ///< Plan round, -1 = set-up.
    int tid = 0;
};

/**
 * In-memory span log.  Scopes nest per thread; a disabled log costs one
 * branch per scope and reads no clock.
 */
class SpanLog
{
  public:
    void SetEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    std::int64_t NextId() { return next_id_.fetch_add(1); }

    void
    Add(Span span)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(span));
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    JsonValue
    ToTraceEvents() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        JsonValue doc = JsonValue::Object();
        JsonValue &events = doc.Set("traceEvents", JsonValue::Array());
        for (const Span &s : spans_) {
            JsonValue e = JsonValue::Object();
            e.Set("name", s.name);
            e.Set("ph", "X");
            e.Set("ts", s.start * 1e6);
            e.Set("dur", (s.end - s.start) * 1e6);
            e.Set("pid", 1);
            e.Set("tid", s.tid);
            JsonValue args = JsonValue::Object();
            args.Set("id", s.id);
            args.Set("parent", s.parent);
            args.Set("job", s.job);
            args.Set("round", s.round);
            e.Set("args", std::move(args));
            events.Push(std::move(e));
        }
        return doc;
    }

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::int64_t> next_id_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

SpanLog g_spans;
thread_local std::int64_t t_parent = 0;
thread_local std::int64_t t_job = 0;
thread_local int t_round = -1;
thread_local int t_tid = 0;

/** RAII span around one call; inert while the log is disabled. */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (!g_spans.enabled()) {
            return;
        }
        active_ = true;
        span_.name = name;
        span_.id = g_spans.NextId();
        span_.parent = t_parent;
        span_.job = t_job;
        span_.round = t_round;
        span_.tid = t_tid;
        t_parent = span_.id;
        span_.start = Now();
    }

    ~Scope()
    {
        if (!active_) {
            return;
        }
        span_.end = Now();
        t_parent = span_.parent;
        g_spans.Add(std::move(span_));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool active_ = false;
    Span span_;
};

// -------------------------------------------------------------- records

struct JobRecord
{
    int round = 0;
    std::string name;
    std::string kind;
    double ms = 0;
    std::string digest;
    std::string status = "done"; ///< done | failed | rejected | error
};

struct RoundRecord
{
    bool traced = false;
    double wall_s = 0;
    JsonValue extra = JsonValue::Object();
};

struct Output
{
    double setup_s = 0; ///< process start until the first timed job
    std::vector<JobRecord> jobs;
    std::vector<RoundRecord> rounds;
    JsonValue setup = JsonValue::Object();
};

JsonValue
ToJson(const Output &out)
{
    JsonValue doc = JsonValue::Object();
    doc.Set("setup_s", out.setup_s);
    doc.Set("setup", out.setup);
    JsonValue &rounds = doc.Set("rounds", JsonValue::Array());
    for (const RoundRecord &r : out.rounds) {
        JsonValue v = r.extra;
        v.Set("traced", r.traced);
        v.Set("wall_s", r.wall_s);
        rounds.Push(std::move(v));
    }
    JsonValue &jobs = doc.Set("jobs", JsonValue::Array());
    for (const JobRecord &j : out.jobs) {
        JsonValue v = JsonValue::Object();
        v.Set("round", j.round);
        v.Set("name", j.name);
        v.Set("kind", j.kind);
        v.Set("ms", j.ms);
        v.Set("digest", j.digest);
        v.Set("status", j.status);
        jobs.Push(std::move(v));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    doc.Set("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
    JsonValue env = JsonValue::Object();
    env.Set("nproc", std::thread::hardware_concurrency());
    env.Set("thread_cap", kThreadCap);
    env.Set("build_type", PIM_BUILD_TYPE);
    env.Set("simd_isa", sim::simd::IsaName(sim::simd::ActiveIsa()));
    JsonValue scales = JsonValue::Object();
    scales.Set("inference_spatial", kInferenceSpatial);
    scales.Set("inference_channels", kInferenceChannels);
    scales.Set("codec", std::to_string(kCodecWidth) + "x" +
                            std::to_string(kCodecHeight) + "x" +
                            std::to_string(kCodecFrames));
    scales.Set("kernel_run", kKernelScale);
    scales.Set("study", kStudyScale);
    env.Set("scales", std::move(scales));
    doc.Set("env", std::move(env));
    return doc;
}

const JsonValue &
Member(const JsonValue &obj, const std::string &key)
{
    const JsonValue *v = obj.is_object() ? obj.Find(key) : nullptr;
    if (v == nullptr) {
        Fail("plan: missing \"" + key + "\"");
    }
    return *v;
}

/**
 * Read the job plan.  Called once set-up is done: parsing it is the
 * benchmark's work, not the program's set-up.
 */
JsonValue
LoadPlan(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    auto plan = JsonParse(text.str(), &error);
    if (!in || !plan) {
        Fail("cannot read plan " + path + ": " + error);
    }
    return std::move(*plan);
}

/** Runs plan rounds, toggling the span log for the traced ones. */
template <typename RunRound>
void
ForEachRound(const JsonValue &plan, bool spans, Output &out,
             RunRound run_round)
{
    const JsonValue &rounds = Member(plan, "rounds");
    const JsonValue &traced = Member(plan, "traced_rounds");
    if (!rounds.is_array() || !traced.is_array() ||
        rounds.size() != traced.size()) {
        Fail("plan: rounds and traced_rounds must be equal-length arrays");
    }
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        RoundRecord record;
        record.traced = spans && traced.at(r).AsBool();
        g_spans.SetEnabled(record.traced);
        t_round = static_cast<int>(r);
        run_round(static_cast<int>(r), rounds.at(r), record);
        t_round = -1;
        g_spans.SetEnabled(false);
        out.rounds.push_back(std::move(record));
    }
}

// Result serializers (defined with their workloads below).
JsonValue ToJson(const ml::InferenceResult &r);
JsonValue ToJson(const video::CodecPhases &ph);
JsonValue ToJson(const browser::ScrollResult &r);
JsonValue ToJson(const browser::TabSwitchResult &r);
JsonValue ToJson(const core::KernelResult &r);
JsonValue ToJson(const sim::StudyResult &study);

/**
 * Time @p call under the @p layer span, then serialize its result under
 * the telemetry.report_json span; returns the dumped JSON document.
 */
template <typename Call>
std::string
LayerCall(const char *layer, Call call)
{
    const auto result = [&] {
        Scope span(layer);
        return call();
    }();
    Scope span("telemetry.report_json");
    return ToJson(result).Dump();
}

/** Time one job; a thrown error marks it failed instead of aborting. */
void
RunJob(Output &out, int round, std::int64_t seq, const std::string &name,
       const std::string &kind, const std::function<std::string()> &body)
{
    JobRecord job;
    job.round = round;
    job.name = name;
    job.kind = kind;
    t_job = seq;
    const double t0 = Now();
    {
        Scope span("job");
        try {
            job.digest = ContentDigest().Update(body()).Hex();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                         name.c_str(), e.what());
            job.status = "failed";
        }
    }
    job.ms = (Now() - t0) * 1e3;
    t_job = 0;
    out.jobs.push_back(std::move(job));
}

// -------------------------------------------------------------- drivers

JsonValue
PhaseJson(const sim::EnergyBreakdown &energy, double time_ns,
          std::uint64_t instructions, std::uint64_t llc_misses)
{
    JsonValue v = JsonValue::Object();
    v.Set("energy", telemetry::ToJson(energy));
    v.Set("time_ns", time_ns);
    v.Set("instructions", instructions);
    v.Set("llc_misses", llc_misses);
    return v;
}

JsonValue
ToJson(const ml::InferenceResult &r)
{
    JsonValue v = JsonValue::Object();
    v.Set("network", r.network);
    for (const auto &[key, p] :
         {std::pair{"packing", &r.packing},
          std::pair{"quantization", &r.quantization},
          std::pair{"gemm", &r.gemm}, std::pair{"other", &r.other}}) {
        v.Set(key, PhaseJson(p->energy, p->time_ns, p->instructions,
                             p->llc_misses));
    }
    return v;
}

JsonValue
ToJson(const video::CodecPhases &ph)
{
    JsonValue v = JsonValue::Object();
    for (const auto &[key, p] :
         {std::pair{"entropy", &ph.entropy}, std::pair{"subpel", &ph.subpel},
          std::pair{"mc_other", &ph.mc_other},
          std::pair{"transform", &ph.transform},
          std::pair{"quant", &ph.quant}, std::pair{"deblock", &ph.deblock},
          std::pair{"me", &ph.me}, std::pair{"intra", &ph.intra},
          std::pair{"other", &ph.other}}) {
        JsonValue phase = PhaseJson(p->energy, p->time_ns,
                                    p->instructions, p->llc_misses);
        phase.Set("offchip_bytes", p->offchip_bytes);
        v.Set(key, std::move(phase));
    }
    return v;
}

JsonValue
ToJson(const browser::ScrollResult &r)
{
    JsonValue v = JsonValue::Object();
    v.Set("page", r.page_name);
    v.Set("tiling", PhaseJson(r.tiling_energy, r.tiling_time_ns,
                              r.tiling_instructions, 0));
    v.Set("blitting", PhaseJson(r.blitting_energy, r.blitting_time_ns,
                                r.blitting_instructions, 0));
    v.Set("other", PhaseJson(r.other_energy, r.other_time_ns,
                             r.other_instructions, 0));
    v.Set("llc_misses", r.llc_misses);
    v.Set("instructions", r.instructions);
    return v;
}

JsonValue
ToJson(const browser::TabSwitchResult &r)
{
    JsonValue v = JsonValue::Object();
    for (const auto &[key, series] :
         {std::pair{"swap_out_mb_per_s", &r.swap_out_mb_per_s},
          std::pair{"swap_in_mb_per_s", &r.swap_in_mb_per_s}}) {
        JsonValue &arr = v.Set(key, JsonValue::Array());
        for (const double x : *series) {
            arr.Push(x);
        }
    }
    v.Set("total_swapped_out", r.total_swapped_out);
    v.Set("total_swapped_in", r.total_swapped_in);
    v.Set("compression_ratio", r.compression_ratio);
    v.Set("compression", PhaseJson(r.compression_energy,
                                   r.compression_time_ns, 0, 0));
    v.Set("other", PhaseJson(r.other_energy, r.other_time_ns, 0, 0));
    return v;
}

JsonValue
ToJson(const core::KernelResult &r)
{
    JsonValue v = JsonValue::Object();
    v.Set("name", r.name);
    v.Set("cpu", telemetry::ToJson(r.cpu));
    v.Set("pim_core", telemetry::ToJson(r.pim_core));
    v.Set("pim_acc", telemetry::ToJson(r.pim_acc));
    return v;
}

/** A drivers job: its layer span name and its body. */
using DriverJob = std::pair<const char *, std::function<std::string()>>;

template <typename Call>
DriverJob
MakeJob(const char *layer, Call call)
{
    return {layer, [layer, call] { return LayerCall(layer, call); }};
}

std::map<std::string, DriverJob>
DriversSetup()
{
    workloads::EnsureKernelCatalog();
    std::map<std::string, DriverJob> jobs;
    const ml::EvalScale scale{kInferenceSpatial, kInferenceChannels};
    for (const ml::NetworkSpec &net : ml::AllNetworks()) {
        jobs["inference:" + net.name] =
            MakeJob("workloads.inference",
                    [net, scale] { return ml::RunInference(net, scale); });
    }
    jobs["sw_decode"] = MakeJob("workloads.sw_decode", [] {
        video::CodecPhases ph;
        bench::RunSwDecoder(kCodecWidth, kCodecHeight, kCodecFrames, ph);
        return ph;
    });
    jobs["sw_encode"] = MakeJob("workloads.sw_encode", [] {
        video::CodecPhases ph;
        bench::RunSwEncoder(kCodecWidth, kCodecHeight, kCodecFrames, ph);
        return ph;
    });
    for (const browser::PageProfile &page : browser::AllPageProfiles()) {
        jobs["scroll:" + page.name] = MakeJob(
            "workloads.scroll",
            [page] { return browser::SimulateScroll(page); });
    }
    jobs["tab_switch"] = MakeJob("workloads.tab_switch", [] {
        return browser::SimulateTabSwitching(browser::TabSwitchConfig{});
    });
    for (const core::KernelSpec *spec : core::KernelRegistry::Global().All()) {
        // A fresh session per job keeps each kernel's inputs independent
        // of the seeded job order.
        jobs["kernel_run:" + spec->Slug()] =
            MakeJob("core.kernel_run", [spec] {
                core::KernelSession session(kKernelScale);
                return session.Run(*spec);
            });
    }
    return jobs;
}

void
RunDrivers(const std::string &plan_path, bool setup_only, bool spans,
           Output &out)
{
    const std::map<std::string, DriverJob> jobs = DriversSetup();
    out.setup_s = Now() - g_process_start;
    if (setup_only) {
        return;
    }
    const JsonValue plan = LoadPlan(plan_path);
    std::int64_t seq = 0;
    ForEachRound(plan, spans, out, [&](int round, const JsonValue &names,
                                       RoundRecord &record) {
        const double t0 = Now();
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::string &name = names.at(i).AsString();
            const auto it = jobs.find(name);
            if (it == jobs.end()) {
                Fail("plan: unknown drivers job '" + name + "'");
            }
            // Simulated addresses come from a process-wide cursor plus
            // per-thread scratch buffers (the LZO hash table, the codec
            // bitstream regions).  Each job runs on a fresh thread from a
            // reset cursor, so its output is what a fresh process would
            // produce, whatever the seeded order.
            ++seq;
            std::exception_ptr error;
            std::thread([&] {
                try {
                    t_round = round;
                    SimAddressSpace::ResetForTest();
                    RunJob(out, round, seq, name, it->second.first,
                           it->second.second);
                } catch (...) {
                    error = std::current_exception();
                }
            }).join();
            if (error) {
                std::rethrow_exception(error);
            }
        }
        record.wall_s = Now() - t0;
    });
}

// ---------------------------------------------------------------- study

/** The pim_run --sweep=study grid (bench/pim_run.cc StudyGrid). */
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

JsonValue
ToJson(const sim::StudyPointResult &p)
{
    JsonValue v = JsonValue::Object();
    v.Set("counters", telemetry::ToJson(p.counters));
    v.Set("writebacks_exact", p.writebacks_exact);
    v.Set("prefetch_issued", p.prefetch.issued);
    v.Set("prefetch_useful", p.prefetch.useful);
    v.Set("prefetch_demand_misses", p.prefetch.demand_misses);
    return v;
}

JsonValue
ToJson(const sim::StudyResult &study)
{
    JsonValue points = JsonValue::Array();
    for (const auto &row : study.host) {
        for (const sim::StudyPointResult &p : row) {
            points.Push(ToJson(p));
        }
    }
    for (const sim::StudyPointResult &p : study.pim) {
        points.Push(ToJson(p));
    }
    return points;
}

struct StudyTrace
{
    sim::CompactTrace compact;
    sim::CompactTraceSource compact_view{compact};
    std::optional<sim::MappedCompactTrace> mapped;
};

void
RunStudy(const std::string &plan_path, bool setup_only, bool spans,
         const std::string &work, Output &out)
{
    workloads::EnsureKernelCatalog();
    // Set-up spans are recorded when the run is traced at all.
    g_spans.SetEnabled(spans);
    std::map<std::string, std::unique_ptr<StudyTrace>> traces;
    core::KernelSession session(kStudyScale);
    std::uint64_t entries = 0;
    for (const core::KernelSpec *spec : core::KernelRegistry::Global().All()) {
        if (!spec->trace_replayable) {
            continue;
        }
        auto trace = std::make_unique<StudyTrace>();
        {
            Scope span("core.record_compact");
            trace->compact = session.RecordCompact(*spec).trace;
        }
        const std::string path = work + "/" + spec->Slug() + ".pimtrc";
        std::string error;
        {
            Scope span("sim.container_save");
            if (!trace->compact.SaveTo(path, &error)) {
                Fail("cannot save " + path + ": " + error);
            }
        }
        {
            Scope span("sim.container_open");
            trace->mapped = sim::MappedCompactTrace::Open(path, &error);
            if (!trace->mapped) {
                Fail("cannot open " + path + ": " + error);
            }
        }
        entries += trace->compact.size();
        traces[spec->Slug()] = std::move(trace);
    }
    {
        // One cursor sweep of every container: decodes each block once
        // and leaves the files in the page cache, as a warm corpus is.
        Scope span("sim.decode");
        std::vector<sim::TraceEntry> scratch(sim::TraceSource::kBlockEntries);
        std::uint64_t decoded = 0;
        for (const auto &[slug, trace] : traces) {
            for (std::size_t b = 0; b < trace->mapped->BlockCount(); ++b) {
                decoded += trace->mapped->Block(b, scratch.data()).count;
            }
        }
        if (decoded != entries) {
            Fail("container decode returned " + std::to_string(decoded) +
                 " entries, recorded " + std::to_string(entries));
        }
    }
    g_spans.SetEnabled(false);
    out.setup.Set("trace_entries", entries);
    out.setup_s = Now() - g_process_start;
    if (setup_only) {
        return;
    }
    const JsonValue plan = LoadPlan(plan_path);

    const sim::StudySpec grid = StudyGrid();
    const sim::SweepRunner runner;
    std::int64_t seq = 0;
    ForEachRound(plan, spans, out, [&](int round, const JsonValue &jobs,
                                       RoundRecord &record) {
        std::uint64_t passes = 0, replays = 0, shards = 0;
        const double t0 = Now();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string &slug = Member(jobs.at(i), "kernel").AsString();
            const std::string &source =
                Member(jobs.at(i), "source").AsString();
            const auto it = traces.find(slug);
            if (it == traces.end() ||
                (source != "compact" && source != "mmap")) {
                Fail("plan: unknown study job " + slug + ":" + source);
            }
            const bool mmap = source == "mmap";
            const sim::TraceSource &trace =
                mmap ? static_cast<const sim::TraceSource &>(
                           *it->second->mapped)
                     : it->second->compact_view;
            const char *layer = mmap ? "sim.study_mmap" : "sim.study_compact";
            RunJob(out, round, ++seq, slug + ":" + source, layer, [&] {
                return LayerCall(layer, [&] {
                    sim::StudyResult study = runner.ProfileStudy(trace, grid);
                    passes += study.profile_passes;
                    replays += study.trace_replays;
                    shards = std::max<std::uint64_t>(shards, study.shards);
                    return study;
                });
            });
        }
        record.wall_s = Now() - t0;
        record.extra.Set("profile_passes", passes);
        record.extra.Set("trace_replays", replays);
        record.extra.Set("study_shards", shards);
    });
}

// ---------------------------------------------------------------- serve

/** One pim_client-style closed-loop connection. */
class LoadClient
{
  public:
    LoadClient(const std::string &socket, int tid) : tid_(tid)
    {
        std::string error;
        client_ = serve::ServeClient::Connect(socket, &error);
        if (!client_) {
            Fail("cannot connect to " + socket + ": " + error);
        }
    }

    /** Send one submit and read to its terminal frame. */
    JobRecord
    Submit(const JsonValue &job, int round, std::int64_t seq)
    {
        JobRecord rec;
        rec.round = round;
        rec.name = Member(job, "spec").AsString();
        rec.kind = Member(job, "kind").AsString();
        ContentDigest digest;
        const double t0 = Now();
        t_job = seq;
        {
            Scope span("serve.job");
            if (!client_->Send(Member(job, "request"))) {
                Fail("submit: connection lost");
            }
            for (;;) {
                std::string raw;
                const auto frame = client_->Read(&raw);
                if (!frame) {
                    Fail("submit: connection lost mid-job");
                }
                const JsonValue *type = frame->Find("type");
                const std::string t =
                    type != nullptr && type->is_string() ? type->AsString()
                                                         : "";
                if (t == "accepted") {
                    continue;
                }
                if (t == "result") {
                    digest.Update(raw).Update("\n");
                    continue;
                }
                rec.status = t == "done" || t == "failed" ||
                                     t == "rejected"
                                 ? t
                                 : "error";
                break;
            }
        }
        rec.ms = (Now() - t0) * 1e3;
        t_job = 0;
        rec.digest = digest.Hex();
        return rec;
    }

    /** One status round trip; returns the frame. */
    JsonValue
    Status(double *ms)
    {
        JsonValue req = JsonValue::Object();
        req.Set("type", "status");
        const double t0 = Now();
        std::optional<JsonValue> frame;
        {
            Scope span("serve.status");
            if (!client_->Send(req) || !(frame = client_->Read())) {
                Fail("status: connection lost");
            }
        }
        *ms = (Now() - t0) * 1e3;
        return *frame;
    }

    int tid() const { return tid_; }

  private:
    int tid_;
    std::unique_ptr<serve::ServeClient> client_;
};

/**
 * Recording order across clients.  Simulated addresses depend on the
 * order traces are recorded in, so cold jobs (the only ones that record)
 * run in the plan's global cold_index order: a client waits, before
 * submitting cold job g, until cold jobs 0..g-1 are done.  Warm jobs
 * are never held back.
 */
class ColdGate
{
  public:
    void
    Wait(std::int64_t index)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return aborted_ || done_ == index; });
        if (aborted_) {
            Fail("another client failed");
        }
    }

    void
    Done()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
        cv_.notify_all();
    }

    void
    Abort()
    {
        std::lock_guard<std::mutex> lock(mu_);
        aborted_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t done_ = 0;
    bool aborted_ = false;
};

struct ServeInstance
{
    std::unique_ptr<serve::PimServer> server;
    std::vector<std::unique_ptr<LoadClient>> clients;
};

ServeInstance
StartServe(const std::string &dir, double *start_ms)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/corpus");
    serve::ServerConfig cfg;
    cfg.socket_path = dir + "/s.sock";
    cfg.cache_dir = dir + "/corpus";
    cfg.workers = kThreadCap;
    cfg.sweep_threads = kThreadCap;
    ServeInstance inst;
    // Each server records from a fresh simulated address space, as a new
    // pim_serve process would (see RunServe on the recording order).
    SimAddressSpace::ResetForTest();
    inst.server = std::make_unique<serve::PimServer>(cfg);
    std::string error;
    const double t0 = Now();
    {
        Scope span("serve.start");
        if (!inst.server->Start(&error)) {
            Fail("PimServer::Start: " + error);
        }
    }
    *start_ms = (Now() - t0) * 1e3;
    for (int c = 0; c < static_cast<int>(kThreadCap); ++c) {
        inst.clients.push_back(
            std::make_unique<LoadClient>(cfg.socket_path, c + 1));
    }
    return inst;
}

void
RunServe(const std::string &plan_path, bool setup_only, bool spans,
         const std::string &work, Output &out)
{
    // The socket path is relative to keep it inside sun_path's limit
    // whatever the checkout's location.
    std::filesystem::create_directories(work);
    const std::string dir = std::filesystem::relative(work).string();
    g_spans.SetEnabled(spans);
    double start_ms = 0;
    ServeInstance first = StartServe(dir + "/r0", &start_ms);
    g_spans.SetEnabled(false);
    out.setup_s = Now() - g_process_start;
    out.setup.Set("start_ms", start_ms);
    if (setup_only) {
        return;
    }
    const JsonValue plan = LoadPlan(plan_path);
    const int status_every =
        static_cast<int>(Member(plan, "status_every").AsNumber());
    std::atomic<std::int64_t> seq{0};
    ForEachRound(plan, spans, out, [&](int round, const JsonValue &rplan,
                                       RoundRecord &record) {
        ServeInstance inst;
        if (round == 0) {
            inst = std::move(first);
        } else {
            inst = StartServe(dir + "/r" + std::to_string(round),
                              &start_ms);
        }
        record.extra.Set("start_ms", start_ms);
        const JsonValue &lists = Member(rplan, "clients");
        if (!lists.is_array() || lists.size() != inst.clients.size()) {
            Fail("plan: one job list per client expected");
        }
        std::vector<std::vector<JobRecord>> results(inst.clients.size());
        std::vector<std::vector<double>> status_ms(inst.clients.size());
        std::vector<std::string> errors(inst.clients.size());
        // Client time spent held at the gate: inside the round's wall
        // time, outside every job's latency.
        std::vector<double> gate_wait_ms(inst.clients.size(), 0.0);
        ColdGate gate;
        const double t0 = Now();
        {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < inst.clients.size(); ++c) {
                threads.emplace_back([&, c] {
                    LoadClient &client = *inst.clients[c];
                    t_tid = client.tid();
                    t_round = round;
                    try {
                        const JsonValue &list = lists.at(c);
                        for (std::size_t i = 0; i < list.size(); ++i) {
                            const JsonValue *cold =
                                list.at(i).Find("cold_index");
                            if (cold != nullptr) {
                                const double w0 = Now();
                                gate.Wait(static_cast<std::int64_t>(
                                    cold->AsNumber()));
                                gate_wait_ms[c] += (Now() - w0) * 1e3;
                            }
                            results[c].push_back(client.Submit(
                                list.at(i), round, ++seq));
                            if (cold != nullptr) {
                                gate.Done();
                            }
                            if ((i + 1) % status_every == 0) {
                                double ms = 0;
                                client.Status(&ms);
                                status_ms[c].push_back(ms);
                            }
                        }
                    } catch (const std::exception &e) {
                        errors[c] = e.what();
                        gate.Abort();
                    }
                });
            }
            for (auto &t : threads) {
                t.join();
            }
        }
        record.wall_s = Now() - t0;
        record.extra.Set("gate_wait_ms",
                         std::accumulate(gate_wait_ms.begin(),
                                         gate_wait_ms.end(), 0.0));
        for (const std::string &e : errors) {
            if (!e.empty()) {
                Fail("serve client: " + e);
            }
        }
        double ms = 0;
        const JsonValue status = inst.clients[0]->Status(&ms);
        record.extra.Set("status", status);
        JsonValue &rtts = record.extra.Set("status_ms", JsonValue::Array());
        for (const auto &per_client : status_ms) {
            for (const double x : per_client) {
                rtts.Push(x);
            }
        }
        for (auto &per_client : results) {
            for (JobRecord &r : per_client) {
                out.jobs.push_back(std::move(r));
            }
        }
        inst.clients.clear();
        inst.server->Stop();
        inst.server.reset();
        std::filesystem::remove_all(dir + "/r" + std::to_string(round));
    });
}

// ----------------------------------------------------------------- main

std::string
ArgValue(const std::string &arg, const std::string &key)
{
    return arg.rfind(key, 0) == 0 ? arg.substr(key.size()) : std::string();
}

int
Main(int argc, char **argv)
{
    std::string workload, plan_path, out_path, work, spans_path;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            setup_only = true;
        } else if (auto v = ArgValue(arg, "--workload="); !v.empty()) {
            workload = v;
        } else if (auto v = ArgValue(arg, "--plan="); !v.empty()) {
            plan_path = v;
        } else if (auto v = ArgValue(arg, "--out="); !v.empty()) {
            out_path = v;
        } else if (auto v = ArgValue(arg, "--work="); !v.empty()) {
            work = v;
        } else if (auto v = ArgValue(arg, "--spans="); !v.empty()) {
            spans_path = v;
        } else {
            Fail("unknown argument '" + arg + "'");
        }
    }
    if (workload.empty() || plan_path.empty() || out_path.empty() ||
        work.empty()) {
        Fail("usage: perfbench --workload=W --plan=P --out=O --work=DIR "
             "[--spans=S] [--setup-only]");
    }
    sim::SweepRunner::SetDefaultThreads(kThreadCap);
    std::filesystem::create_directories(work);
    const bool spans = !spans_path.empty();
    Output out;
    if (workload == "drivers") {
        RunDrivers(plan_path, setup_only, spans, out);
    } else if (workload == "study") {
        RunStudy(plan_path, setup_only, spans, work, out);
    } else if (workload == "serve") {
        RunServe(plan_path, setup_only, spans, work, out);
    } else {
        Fail("unknown workload '" + workload + "'");
    }

    std::ofstream(out_path) << ToJson(out).Dump() << "\n";
    if (spans) {
        std::ofstream(spans_path) << g_spans.ToTraceEvents().Dump() << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return Main(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
