#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload drivers|study|serve --seed N \\
        --seconds S --trace 0|1

Builds the executor (perfbench/CMakeLists.txt, into .bench_build), makes
the workload's fixed job plan from the seed, runs it, checks every job's
output digest against perfbench/digests.json and prints the metrics.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  Exits non-zero when any job fails or any
digest differs.  --update-digests rewrites the workload's reference
digests (see update_digests).
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXE_TIMEOUT_S = 170

WORKLOADS = ("drivers", "study", "serve")

NETWORKS = ("ResNet-V2-152", "VGG-19", "Residual-GRU", "Inception-ResNet-V2")
PAGES = ("GoogleDocs", "Gmail", "GoogleCalendar", "WordPress", "Twitter",
         "Animation")
KERNELS = ("texture_tiling", "color_blitting", "compression",
           "decompression", "packing", "quantization",
           "sub_pixel_interpolation", "deblocking_filter",
           "motion_estimation")
DRIVERS_JOBS = (tuple("inference:" + n for n in NETWORKS) +
                ("sw_decode", "sw_encode") +
                tuple("scroll:" + p for p in PAGES) + ("tab_switch",) +
                tuple("kernel_run:" + k for k in KERNELS))

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Every serve run holds enough jobs for job_p90_ms.
MIN_JOBS = 100

# Printed with every run, not in BENCHMARK.json (see README).
REPORTED_UNITS = {"job_p50_ms": "ms", "job_p90_ms": "ms", "failed_frac": "1"}

# Wall seconds of one round on a 4-core x86 host (RelWithDebInfo,
# scalar ISA).  The round count of a run is fixed from --seconds and
# these constants, never from the clock, so both sides of a comparison
# do the same work.
NOMINAL_ROUND_S = {"drivers": 5.0, "study": 4.5, "serve": 1.5}

# Set-up is timed this many times per run, each in its own process; the
# median is setup_s.  Study's set-up records the catalog (about 3 s);
# the others take about 0.1 ms (drivers) and under 1 ms (serve).
SETUP_SAMPLES = {"drivers": 15, "study": 3, "serve": 15}

# serve: two closed-loop clients, each owning half of the 18
# (kernel, scale) keys.  Per client and round: 9 cold jobs (25%), 3 LLC
# misses, 9 result-memo and 15 pass-memo hits, so p50 falls inside the
# warm jobs and p90 inside the cold ones.
SERVE_SCALES = (0.5, 1.0)
SERVE_LLC_KEY_INDEX = (0, 3, 6, 9, 12, 15)  # into serve_keys()
SERVE_RESULT_REPEATS = 3
SERVE_PASS_MEMO_JOBS = 15
STUDY_AXES = ((1, 2, 4), (4, 8, 16), (2, 8), (16, 4, 1))
STUDY_POLICIES = ("wb", "wt")
LLC_LADDERS = ((512, 1024, 2048), (1024, 2048, 4096), (256, 768))
STATUS_EVERY = 4

# --update-digests runs the digest plan this many times, then this many
# seeded 16-round plans, per workload.
DIGEST_PASSES = {"drivers": 1, "study": 1, "serve": 30}
DIGEST_SEEDS = {"drivers": 0, "study": 0, "serve": 8}


class BenchError(Exception):
    pass


# ------------------------------------------------------------ statistics

def percentile(values, q):
    """Linear-interpolated q-quantile (0 < q < 1) of values.

    Refuses a percentile with fewer than TAIL_SAMPLES samples beyond it
    (the percentile rule), so p90 needs at least 100 samples.
    """
    n = len(values)
    if n == 0 or n * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        raise BenchError("p%g needs %d samples beyond it; have %d samples"
                         % (q * 100, TAIL_SAMPLES, n))
    s = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def failure_counts(records, references, workload):
    """(attempted, failed) over job records.

    A job fails when its status is not "done" (failed, rejected or error
    frames in serve) or when its digest is not among the reference
    digests of its name.  In study, the in-RAM and mmap results of one
    kernel must also agree.
    """
    ref = references.get(workload, {})
    failed = 0
    for job in records:
        if job["status"] != "done" or job["digest"] not in ref.get(
                digest_key(workload, job["name"]), ()):
            failed += 1
    if workload == "study":
        by_round = {}
        for job in records:
            slug, source = job["name"].rsplit(":", 1)
            by_round.setdefault((job["round"], slug), {})[source] = job
        for pair in by_round.values():
            if len(pair) == 2 and (pair["compact"]["digest"] !=
                                   pair["mmap"]["digest"]):
                failed += 1
    return len(records), failed


def digest_key(workload, name):
    """Reference key of a job: study's two sources share one digest."""
    return name.rsplit(":", 1)[0] if workload == "study" else name


def self_times(events):
    """Per span name: total self time (duration minus child coverage), ms."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(e["args"]["id"], []),
                        key=lambda c: c["ts"]):
            c0, c1 = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[e["name"]] = out.get(e["name"], 0.0) + (e["dur"] - covered) / 1e3
    return out


# ------------------------------------------------------------------ plans

def round_count(workload, seconds):
    """At least two rounds (traced runs alternate), and enough serve jobs
    for a p90."""
    rounds = max(2, int(round(seconds / NOMINAL_ROUND_S[workload])))
    if workload == "serve":
        rounds = max(rounds, math.ceil(MIN_JOBS / (2 * SERVE_JOBS_PER_CLIENT)))
    return rounds


def drivers_round(rng):
    jobs = list(DRIVERS_JOBS)
    rng.shuffle(jobs)
    return jobs


def study_round(rng):
    kernels = list(KERNELS)
    rng.shuffle(kernels)
    jobs = []
    for i, k in enumerate(kernels):
        sources = ("compact", "mmap") if i % 2 == 0 else ("mmap", "compact")
        jobs += [{"kernel": k, "source": s} for s in sources]
    return jobs


def serve_spec(request):
    """Stable digest key of a serve request."""
    key = "%s:%s@%g" % (request["sweep"], request["kernel"],
                        request["scale"])
    if request["sweep"] == "study":
        return key + ":%s:%s" % (request.get("policy", "wb"), ",".join(
            str(a) for a in request.get("llc_assoc", ())) or "default")
    return key + ":" + ",".join(str(k) for k in request["llc_kib"])


def serve_job(kind, request, cold_index=None):
    request = dict(request, type="submit")
    job = {"kind": kind, "spec": serve_spec(request), "request": request}
    if cold_index is not None:
        job["cold_index"] = cold_index
    return job


def serve_keys():
    """The (kernel, scale) keys in their fixed recording order."""
    return [(k, s) for k in KERNELS for s in SERVE_SCALES]


def serve_client_jobs(rng, keys, owned, llc_keys):
    """One client's closed-loop job list over the keys it owns.

    Each owned key's first job is its cold study (record, corpus write,
    pass); cold jobs keep the global recording order of keys.  Each of
    llc_keys then gets a new LLC ladder (a result-memo miss) followed by
    SERVE_RESULT_REPEATS repeats of it (memo hits); SERVE_PASS_MEMO_JOBS
    study jobs with new associativity axes or policies land on random
    owned keys (pass-memo hits).  A client runs its list in order, so
    every warm job follows the jobs whose memo state its kind names.
    """
    owned = sorted(owned)
    per_key = {}
    for i in owned:
        k, s = keys[i]
        jobs = []
        if i in llc_keys:
            llc = {"kernel": k, "scale": s, "sweep": "llc",
                   "llc_kib": list(rng.choice(LLC_LADDERS))}
            jobs = [serve_job("llc_new", llc)] + [
                serve_job("result_memo", llc)
                for _ in range(SERVE_RESULT_REPEATS)]
        per_key[i] = jobs
    for _ in range(SERVE_PASS_MEMO_JOBS):
        i = rng.choice(owned)
        k, s = keys[i]
        warm = per_key[i]
        # Anywhere after the key's llc_new, if it has one.
        warm.insert(rng.randint(1 if warm else 0, len(warm)), serve_job(
            "pass_memo", {"kernel": k, "scale": s, "sweep": "study",
                          "llc_assoc": list(rng.choice(STUDY_AXES)),
                          "policy": rng.choice(STUDY_POLICIES)}))

    # Cold jobs open keys in order; warm jobs are drawn from opened
    # keys, and the remaining cold jobs are spread evenly in expectation.
    out, opened = [], []
    slots = len(owned) + sum(len(w) for w in per_key.values())
    for n in range(slots):
        remaining_cold = len(owned) - len(opened)
        if remaining_cold and (not any(opened) or
                               rng.random() < remaining_cold / (slots - n)):
            i = owned[len(opened)]
            k, s = keys[i]
            out.append(serve_job("cold", {"kernel": k, "scale": s,
                                          "sweep": "study"}, cold_index=i))
            opened.append(per_key[i])
        else:
            out.append(rng.choice([w for w in opened if w]).pop(0))
    return out


def serve_round(rng):
    """Both clients' lists.  The job multiset is the same for every
    seed (the LLC keys are fixed); the seed picks which client owns
    which key, the axes and ladders, and the order."""
    keys = serve_keys()
    llc = list(SERVE_LLC_KEY_INDEX)
    other = [i for i in range(len(keys)) if i not in llc]
    rng.shuffle(llc)
    rng.shuffle(other)
    n, m = len(llc) // 2, len(other) // 2
    return {"clients": [
        serve_client_jobs(rng, keys, llc[:n] + other[:m], llc[:n]),
        serve_client_jobs(rng, keys, llc[n:] + other[m:], llc[n:])]}


SERVE_JOBS_PER_CLIENT = (len(KERNELS) + len(SERVE_LLC_KEY_INDEX) // 2 *
                         (1 + SERVE_RESULT_REPEATS) + SERVE_PASS_MEMO_JOBS)


def all_serve_jobs():
    """Every request the serve generator can emit (digest references)."""
    jobs = []
    for i, (k, s) in enumerate(serve_keys()):
        jobs.append(serve_job("cold", {"kernel": k, "scale": s,
                                       "sweep": "study"}, cold_index=i))
        for ladder in LLC_LADDERS:
            jobs.append(serve_job("llc_new", {
                "kernel": k, "scale": s, "sweep": "llc",
                "llc_kib": list(ladder)}))
        for axis in STUDY_AXES:
            for policy in STUDY_POLICIES:
                jobs.append(serve_job("pass_memo", {
                    "kernel": k, "scale": s, "sweep": "study",
                    "llc_assoc": list(axis), "policy": policy}))
    return jobs


ROUND_MAKERS = {"drivers": drivers_round, "study": study_round,
                "serve": serve_round}


def make_plan(workload, seed, seconds, trace):
    rounds = round_count(workload, seconds)
    plan = {"rounds": [], "traced_rounds": [],
            "status_every": STATUS_EVERY}
    for r in range(rounds):
        rng = random.Random("%s:%d:%d" % (workload, seed, r))
        plan["rounds"].append(ROUND_MAKERS[workload](rng))
        # Traced runs alternate traced and untraced rounds so the
        # overhead compares like with like.
        plan["traced_rounds"].append(bool(trace) and r % 2 == 1)
    return plan


def digest_plan(workload):
    """One round holding every job the workload can generate."""
    if workload == "drivers":
        rounds = [list(DRIVERS_JOBS)]
    elif workload == "study":
        rounds = [study_round(random.Random(0))]
    else:
        rounds = [{"clients": [all_serve_jobs(), []]}]
    return {"rounds": rounds, "traced_rounds": [False],
            "status_every": STATUS_EVERY}


# ---------------------------------------------------------------- running

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("program sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=840)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def execute(exe, workload, plan, tag, spans=None, setup_only=False):
    """Run the executor once; returns its records."""
    work = os.path.join(WORK_DIR, "%s-%d-%s" % (workload, os.getpid(), tag))
    os.makedirs(work, exist_ok=True)
    plan_path = os.path.join(work, "plan.json")
    out_path = os.path.join(work, "records.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    cmd = [exe, "--workload=" + workload, "--plan=" + plan_path,
           "--out=" + out_path, "--work=" + work]
    if spans:
        cmd.append("--spans=" + spans)
    if setup_only:
        cmd.append("--setup-only")
    try:
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                _, err = proc.communicate(timeout=EXE_TIMEOUT_S)
            except BaseException as e:
                # Timeout, SIGTERM or ^C: never leave the executor behind.
                proc.kill()
                proc.communicate()
                if isinstance(e, subprocess.TimeoutExpired):
                    raise BenchError("executor timed out") from e
                raise
        if err:
            log(err[-4000:])
        if proc.returncode != 0:
            raise BenchError("executor exited with %d" % proc.returncode)
        with open(out_path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def git_describe():
    # Only a checkout's own repository; never a parent directory's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=30)
        return res.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ---------------------------------------------------------------- metrics

def jobs_per_s(records, traced):
    """Jobs of the (un)traced rounds / their wall time."""
    ids = {i for i, r in enumerate(records["rounds"]) if r["traced"] == traced}
    jobs = sum(1 for j in records["jobs"] if j["round"] in ids)
    return jobs / sum(records["rounds"][i]["wall_s"] for i in ids)


def end_to_end(records, setup_samples):
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": jobs_per_s(records, False),
        "peak_rss_mb": records["peak_rss_kb"] / 1024.0,
    }


def serve_latency(records):
    """serve's client-side job latency: p50 and p90, ms."""
    latencies = [j["ms"] for j in records["jobs"]]
    return {"job_p50_ms": percentile(latencies, 0.5),
            "job_p90_ms": percentile(latencies, 0.9)}


def gate_wait_share(records, plan):
    """serve: share of the clients' time in the rounds spent held at the
    cold-job gate (inside wall time, outside job latency)."""
    rounds = records["rounds"]
    clients = len(plan["rounds"][0]["clients"])
    return (sum(r["gate_wait_ms"] for r in rounds) / 1e3 /
            (clients * sum(r["wall_s"] for r in rounds)))


def per_round_sums(events, name):
    sums = {}
    for e in events:
        if e["name"] == name:
            r = e["args"]["round"]
            sums[r] = sums.get(r, 0.0) + e["dur"] / 1e3
    return sums


def per_layer(workload, records, events, names):
    """Per-layer metrics of a traced run; layers the workload never
    calls read 0 (see README)."""
    m = dict.fromkeys(names, 0.0)

    def round_median(span, key):
        sums = per_round_sums(events, span)
        if sums:
            m[key] = statistics.median(sums.values())

    for span in ("workloads.inference", "workloads.sw_decode",
                 "workloads.sw_encode", "workloads.scroll",
                 "workloads.tab_switch", "core.kernel_run",
                 "telemetry.report_json", "core.record_compact",
                 "sim.container_save", "sim.container_open", "sim.decode",
                 "sim.study_compact", "sim.study_mmap", "serve.start"):
        round_median(span, span + "_ms")
    rounds = records["rounds"]
    if workload == "study":
        for key in ("profile_passes", "trace_replays", "study_shards"):
            m["sim." + key] = statistics.median(r[key] for r in rounds)
    if workload == "serve":
        traced = {i for i, r in enumerate(rounds) if r["traced"]}
        for kind in ("cold", "pass_memo", "result_memo"):
            ms = [j["ms"] for j in records["jobs"]
                  if j["kind"] == kind and j["round"] in traced]
            m["serve.%s_job_ms" % kind] = statistics.median(ms)
        m["serve.status_rtt_ms"] = statistics.median(
            x for i in traced for x in rounds[i]["status_ms"])
        m["serve.gate_wait_ms"] = statistics.median(
            r["gate_wait_ms"] for r in rounds)
        status = rounds[-1]["status"]
        m["serve.memo_hit_rate"] = status["memo"]["hit_rate"]
        m["serve.profile_hit_rate"] = status["profiles"]["hit_rate"]
        for key in ("traces_recorded", "profile_passes", "frames_streamed"):
            m["serve." + key] = status["replay"][key]
    traced_rate = jobs_per_s(records, True)
    m["trace.jobs_per_s"] = traced_rate
    m["trace.overhead_frac"] = jobs_per_s(records, False) / traced_rate - 1.0
    return m


# ------------------------------------------------------------------- main

def load_references():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def update_digests(exe, workload):
    """Rewrite workload's references from the digest plan and seeded runs.

    Every job gives one digest except serve's decompression jobs, which
    give two: the trace a server worker records for the
    decompression kernel depends on whether that worker thread already
    holds its thread-local LZO hash-table shadow buffer (lzo.cc), which
    depends on which worker ran earlier LZO recordings.  Both outputs are
    listed; see README.
    """
    plans = [digest_plan(workload)] * DIGEST_PASSES[workload]
    plans += [make_plan(workload, seed, NOMINAL_ROUND_S[workload] * 16, 0)
              for seed in range(DIGEST_SEEDS[workload])]
    observed = {}
    for n, plan in enumerate(plans):
        records = execute(exe, workload, plan, "digests%d" % n)
        bad = [j["name"] for j in records["jobs"] if j["status"] != "done"]
        if bad:
            raise BenchError("jobs failed while recording digests: %s" % bad)
        for j in records["jobs"]:
            observed.setdefault(digest_key(workload, j["name"]),
                                set()).add(j["digest"])
    refs = load_references()
    refs[workload] = {k: sorted(v) for k, v in observed.items()}
    with open(DIGESTS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perfbench: %d %s digests written" % (len(refs[workload]),
                                               workload))


def run(args):
    exe = build()
    if args.update_digests:
        update_digests(exe, args.workload)
        return 0
    with open(BENCHMARK) as f:
        bench = json.load(f)
    references = load_references()
    plan = make_plan(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(OUT_DIR, "spans-%s.json" % stem) if args.trace \
        else None

    reported = {}

    def setup_s(i):
        return execute(exe, args.workload, plan, "setup%d" % i,
                       setup_only=True)["setup_s"]

    # The main run is one set-up sample; the others go half before and
    # half after it, so the median spans the run's host conditions.
    n = SETUP_SAMPLES[args.workload] - 1
    setup = [setup_s(i) for i in range(n // 2)]
    records = execute(exe, args.workload, plan, "main", spans=spans)
    setup.append(records["setup_s"])
    setup += [setup_s(i) for i in range(n // 2, n)]

    attempted, failed = failure_counts(records["jobs"], references,
                                       args.workload)
    env = dict(records["env"], git_describe=git_describe(), seed=args.seed,
               workload=args.workload, rounds=len(plan["rounds"]))
    env["scales"]["serve"] = list(SERVE_SCALES)
    if args.trace:
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        specs = bench["per_layer"]
        metrics = per_layer(args.workload, records, events,
                            [m["name"] for m in specs])
        print("self time per span name, ms (%s):" % spans)
        for name, ms in sorted(self_times(events).items()):
            print("  %-28s %12.3f" % (name, ms))
        if args.workload == "serve":
            print("client time held at the cold-job gate: %.2f%%"
                  % (100 * gate_wait_share(records, plan)))
    else:
        specs = bench["end_to_end"]
        metrics = end_to_end(records, setup)
        if args.workload == "serve":
            reported = serve_latency(records)
    failed_frac = failed / attempted
    reported = dict(reported, failed_frac=failed_frac)

    units = {m["name"]: m["unit"] for m in specs}
    if set(units) != set(metrics):
        raise BenchError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(metrics), sorted(units)))
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, units[name]))
    for name, value in reported.items():
        print("  %-28s %14.6g %s" % (name, value, REPORTED_UNITS[name]))
    with open(os.path.join(OUT_DIR, "result-%s.json" % stem), "w") as f:
        json.dump({"env": env, "metrics": metrics, "reported": reported,
                   "attempted": attempted, "failed": failed,
                   "setup_samples_s": setup}, f, indent=1, sort_keys=True)
    if failed:
        log("perfbench: %d of %d jobs failed or differ from the reference "
            "digests" % (failed, attempted))
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-digests", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
