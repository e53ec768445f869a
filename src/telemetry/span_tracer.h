/**
 * @file
 * Low-overhead span tracer exported as Chrome trace-event JSON
 * (loadable in chrome://tracing and Perfetto).
 *
 * The instrumented layers (core::OffloadRuntime::RunAll,
 * core::ExecutionContext, sim::SweepRunner, bench sections) emit three
 * event kinds:
 *
 *  - scoped spans  — RAII begin/end pairs (`PIM_TRACE_SPAN`),
 *  - counters      — named sampled values (`PIM_TRACE_COUNTER`),
 *  - instants      — point markers such as the PIM_BEGIN / PIM_END pair
 *                    RunAll emits around its PIM replays
 *                    (`PIM_TRACE_INSTANT`).
 *
 * Overhead discipline: tracing is off by default and every macro is a
 * single relaxed atomic load when disabled; defining
 * `PIM_TELEMETRY_DISABLE_TRACING` compiles the macros out entirely.
 * This header is deliberately dependent only on src/common, so the sim
 * and core layers can emit events without a layering cycle against the
 * report serializers in the rest of src/telemetry.
 *
 * Timestamps are wall-clock (steady_clock) microseconds since tracer
 * construction.  They are observational only — no simulated quantity
 * reads them — so the determinism guarantee of ARCHITECTURE.md is
 * untouched.
 */

#ifndef PIM_TELEMETRY_SPAN_TRACER_H
#define PIM_TELEMETRY_SPAN_TRACER_H

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"

namespace pim::telemetry {

/** One recorded trace event (phase uses Chrome's single-letter codes). */
struct TraceEvent
{
    char phase = 'B'; ///< 'B' begin, 'E' end, 'C' counter, 'i' instant.
    double ts_us = 0.0;
    std::uint32_t tid = 0;
    std::string name;
    std::string category;
    double value = 0.0; ///< Counter payload ('C' events only).
};

/**
 * Process-global event collector.  Thread-safe: spans may be emitted
 * from SweepRunner workers concurrently; events append under a mutex
 * (the enabled() fast path takes no lock).
 */
class Tracer
{
  public:
    static Tracer &
    Global()
    {
        static Tracer tracer;
        return tracer;
    }

    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    SetEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    void
    Begin(std::string_view name, std::string_view category)
    {
        Record('B', name, category, 0.0);
    }

    void
    End(std::string_view name, std::string_view category)
    {
        Record('E', name, category, 0.0);
    }

    void
    Counter(std::string_view name, double value)
    {
        Record('C', name, "counter", value);
    }

    void
    Instant(std::string_view name, std::string_view category)
    {
        Record('i', name, category, 0.0);
    }

    void
    Clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        events_.clear();
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return events_.size();
    }

    /** Copy of the recorded events (tests; ordering is append order). */
    std::vector<TraceEvent>
    Events() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return events_;
    }

    /** Chrome trace-event document: {"traceEvents": [...], ...}. */
    JsonValue
    ToJson() const
    {
        JsonValue doc = JsonValue::Object();
        doc.Set("displayTimeUnit", "ms");
        JsonValue &events = doc.Set("traceEvents", JsonValue::Array());
        std::lock_guard<std::mutex> lock(mu_);
        for (const TraceEvent &e : events_) {
            JsonValue ev = JsonValue::Object();
            ev.Set("name", e.name);
            ev.Set("cat", e.category);
            ev.Set("ph", std::string(1, e.phase));
            ev.Set("ts", e.ts_us);
            ev.Set("pid", 1);
            ev.Set("tid", e.tid);
            if (e.phase == 'C') {
                JsonValue args = JsonValue::Object();
                args.Set("value", e.value);
                ev.Set("args", std::move(args));
            } else if (e.phase == 'i') {
                ev.Set("s", "t"); // thread-scoped instant
            }
            events.Push(std::move(ev));
        }
        return doc;
    }

    std::string ToChromeJson() const { return ToJson().Dump(); }

    /** Write the Chrome trace to @p path; returns false on I/O error. */
    bool
    WriteTo(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        const std::string text = ToChromeJson();
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        return std::fclose(f) == 0 && ok;
    }

  private:
    void
    Record(char phase, std::string_view name, std::string_view category,
           double value)
    {
        if (!enabled()) {
            return;
        }
        TraceEvent e;
        e.phase = phase;
        e.ts_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
        e.name.assign(name.data(), name.size());
        e.category.assign(category.data(), category.size());
        e.value = value;
        std::lock_guard<std::mutex> lock(mu_);
        e.tid = TidLocked();
        events_.push_back(std::move(e));
    }

    /** Small stable per-thread id (mu_ must be held). */
    std::uint32_t
    TidLocked()
    {
        const auto id = std::this_thread::get_id();
        for (const auto &known : tids_) {
            if (known.first == id) {
                return known.second;
            }
        }
        tids_.emplace_back(id, next_tid_);
        return next_tid_++;
    }

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<TraceEvent> events_;
    std::vector<std::pair<std::thread::id, std::uint32_t>> tids_;
    std::uint32_t next_tid_ = 1;
    std::chrono::steady_clock::time_point epoch_;
};

/** RAII begin/end pair on the global tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(std::string_view name, std::string_view category)
        : active_(Tracer::Global().enabled())
    {
        if (active_) {
            name_.assign(name.data(), name.size());
            category_.assign(category.data(), category.size());
            Tracer::Global().Begin(name_, category_);
        }
    }

    ~ScopedSpan()
    {
        if (active_) {
            Tracer::Global().End(name_, category_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_;
    std::string name_;
    std::string category_;
};

} // namespace pim::telemetry

#define PIM_TRACE_CONCAT_IMPL(a, b) a##b
#define PIM_TRACE_CONCAT(a, b) PIM_TRACE_CONCAT_IMPL(a, b)

#ifndef PIM_TELEMETRY_DISABLE_TRACING

/** Open a span covering the rest of the enclosing scope. */
#define PIM_TRACE_SPAN(category, name)                                    \
    ::pim::telemetry::ScopedSpan PIM_TRACE_CONCAT(pim_trace_span_,        \
                                                  __LINE__)((name),       \
                                                            (category))

/** Record one sample of a named counter. */
#define PIM_TRACE_COUNTER(name, value)                                    \
    ::pim::telemetry::Tracer::Global().Counter((name),                    \
                                               static_cast<double>(value))

/** Record a point marker (e.g. the offload PIM_BEGIN instruction). */
#define PIM_TRACE_INSTANT(category, name)                                 \
    ::pim::telemetry::Tracer::Global().Instant((name), (category))

/** True when events would be recorded (guard for label formatting). */
#define PIM_TRACE_ENABLED() (::pim::telemetry::Tracer::Global().enabled())

#else

#define PIM_TRACE_SPAN(category, name) ((void)0)
#define PIM_TRACE_COUNTER(name, value) ((void)0)
#define PIM_TRACE_INSTANT(category, name) ((void)0)
#define PIM_TRACE_ENABLED() (false)

#endif // PIM_TELEMETRY_DISABLE_TRACING

#endif // PIM_TELEMETRY_SPAN_TRACER_H
