#include "core/kernel_registry.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/span_tracer.h"

namespace pim::core {

namespace {

/** Canonical group order: the paper's figure order, others after. */
int
GroupRank(const std::string &group)
{
    if (group == "browser") {
        return 0;
    }
    if (group == "tf") {
        return 1;
    }
    if (group == "video") {
        return 2;
    }
    return 3;
}

bool
SpecBefore(const KernelSpec &a, const KernelSpec &b)
{
    const int ra = GroupRank(a.group), rb = GroupRank(b.group);
    if (ra != rb) {
        return ra < rb;
    }
    if (a.group != b.group) {
        return a.group < b.group;
    }
    if (a.order != b.order) {
        return a.order < b.order;
    }
    return a.name < b.name;
}

std::string
Lower(std::string_view s)
{
    std::string out(s);
    for (char &c : out) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

} // namespace

bool
GlobMatch(std::string_view pattern, std::string_view text)
{
    // Iterative glob with single-star backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') {
        ++p;
    }
    return p == pattern.size();
}

KernelRegistry &
KernelRegistry::Global()
{
    static KernelRegistry registry;
    return registry;
}

void
KernelRegistry::Register(KernelSpec spec)
{
    PIM_ASSERT(!spec.name.empty(), "kernel spec needs a name");
    PIM_ASSERT(!spec.group.empty(), "kernel %s needs a group",
               spec.name.c_str());
    PIM_ASSERT(spec.make != nullptr, "kernel %s needs a factory",
               spec.name.c_str());
    const std::string slug = spec.Slug();
    for (const auto &existing : specs_) {
        PIM_ASSERT(existing->Slug() != slug,
                   "duplicate kernel registration: %s", slug.c_str());
    }
    auto owned = std::make_unique<KernelSpec>(std::move(spec));
    const auto pos = std::find_if(
        specs_.begin(), specs_.end(),
        [&](const auto &s) { return SpecBefore(*owned, *s); });
    specs_.insert(pos, std::move(owned));
}

std::vector<const KernelSpec *>
KernelRegistry::All() const
{
    std::vector<const KernelSpec *> out;
    out.reserve(specs_.size());
    for (const auto &spec : specs_) {
        out.push_back(spec.get());
    }
    return out;
}

std::vector<const KernelSpec *>
KernelRegistry::Group(const std::string &group) const
{
    std::vector<const KernelSpec *> out;
    for (const auto &spec : specs_) {
        if (spec->group == group) {
            out.push_back(spec.get());
        }
    }
    return out;
}

std::vector<const KernelSpec *>
KernelRegistry::Match(const std::string &pattern) const
{
    const bool glob =
        pattern.find_first_of("*?") != std::string::npos;
    const std::string needle = Lower(pattern);
    std::vector<const KernelSpec *> out;
    for (const auto &spec : specs_) {
        const std::string slug = spec->Slug();
        bool hit;
        if (glob) {
            hit = GlobMatch(needle, slug) ||
                  GlobMatch(needle, Lower(spec->name));
        } else {
            hit = slug.find(needle) != std::string::npos ||
                  Lower(spec->name).find(needle) != std::string::npos;
        }
        if (hit) {
            out.push_back(spec.get());
        }
    }
    return out;
}

const KernelSpec *
KernelRegistry::Find(const std::string &name_or_slug) const
{
    for (const auto &spec : specs_) {
        if (spec->name == name_or_slug ||
            spec->Slug() == name_or_slug) {
            return spec.get();
        }
    }
    return nullptr;
}

std::vector<std::string>
KernelRegistry::Groups() const
{
    std::vector<std::string> out;
    for (const auto &spec : specs_) {
        if (std::find(out.begin(), out.end(), spec->group) == out.end()) {
            out.push_back(spec->group);
        }
    }
    return out;
}

KernelResult
RunKernelAllTargets(const std::string &name,
                    const OffloadFootprint &footprint,
                    const std::function<void(ExecutionContext &)> &kernel,
                    const OffloadRuntime &rt)
{
    // Trace-driven path: the kernel's computation runs once (CPU-Only,
    // recording its stream); the PIM targets are evaluated by parallel
    // batched replay.  See OffloadRuntime::RunAll.
    const auto reports = rt.RunAll(name, footprint, kernel);
    return {name, reports[0], reports[1], reports[2]};
}

KernelInstance
KernelSession::Instantiate(const KernelSpec &spec)
{
    return spec.make(group_state_[spec.group], scale_);
}

KernelResult
KernelSession::Run(const KernelSpec &spec, const OffloadRuntime &rt)
{
    const KernelInstance inst = Instantiate(spec);
    return RunKernelAllTargets(spec.name, inst.footprint, inst.run, rt);
}

RecordedKernel
KernelSession::Record(const KernelSpec &spec)
{
    const KernelInstance inst = Instantiate(spec);
    RecordedKernel rec;
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(rec.trace);
    inst.run(ctx);
    ctx.DetachTrace();
    rec.cpu = ctx.Report(spec.name);
    return rec;
}

RecordedCompactKernel
KernelSession::RecordCompact(const KernelSpec &spec)
{
    const KernelInstance inst = Instantiate(spec);
    // Trace-only: the port feeds the encoder over a NullSink, so no
    // cache hierarchy is simulated while the kernel runs.  Nothing
    // reads a CPU report off a compact recording; replay derives every
    // counter from the stream.
    sim::NullSink discard;
    sim::CompactTraceRecorder recorder(discard);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    ctx.mem().Rebind(recorder);
    inst.run(ctx);
    RecordedCompactKernel rec;
    rec.trace = recorder.Finish();
    PIM_TRACE_COUNTER("trace.bytes", rec.trace.RawBytes());
    PIM_TRACE_COUNTER("trace.compact_bytes", rec.trace.SizeBytes());
    PIM_TRACE_COUNTER("trace.compression_ratio",
                      rec.trace.CompressionRatio());
    return rec;
}

} // namespace pim::core
