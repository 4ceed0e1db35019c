"""Benchmark for spinhl: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sum_identities --seed 7 --seconds 38 --trace 0

The client runs passes over the workload's job list one after another,
starting another pass only while one of the median length would end at most
half a pass past the ``--seconds`` budget, and checks every job's verdict and
output digest.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus ``trace.overhead_ratio``; it also writes the spans to
``bench/out/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are scaled to a reference host speed.  Before every job, and after the
last, the client times ``reference_work``, a fixed Fraction computation that
does not touch spinhl, on as many threads as the workload keeps busy.  Each
job's time is multiplied by REF_SECONDS per thread over the mean of the two
reference times around it.  On a shared host whose speed swings by half or
more within minutes, this keeps the reported times comparable; the unscaled
times are printed in the table as well.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import namedtuple
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_SAMPLES = 9
REF_SECONDS = 0.1  # times are reported as if reference_work() took this long per thread
REF_SAMPLES_PER_PASS = 6  # reference runs per pass, spread over the gaps between jobs

sys.path.insert(0, SRC)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

# wall and results are scaled to the reference speed; raw_wall is not
Pass = namedtuple("Pass", "wall raw_wall results layers spans refs")


# ----------------------------------------------------------------------
# measuring


def reference_work():
    """A fixed product of two sparse three-variable polynomials with Fraction
    coefficients: shaped like a truncated-series multiply, but independent of
    spinhl, so no change to spinhl can change its time."""
    rng = random.Random(12345)

    def poly():
        return {
            (i, j, k): Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            for i in range(8)
            for j in range(8 - i)
            for k in range(8 - i - j)
        }

    a, b = poly(), poly()
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return out


def reference_seconds(threads=1):
    """Elapsed time of reference_work() run on ``threads`` threads at once.

    A workload that keeps several threads busy is scaled by a reference with
    as many threads, because handing the interpreter lock between cores
    slows with the host as much as the arithmetic does."""
    workers = [threading.Thread(target=reference_work) for _ in range(threads - 1)]
    start = perf_counter()
    for worker in workers:
        worker.start()
    reference_work()
    for worker in workers:
        worker.join()
    return perf_counter() - start


def _scale(ref_before, ref_after, threads=1):
    return REF_SECONDS * threads / ((ref_before + ref_after) / 2)


def probe_setup(workload, seed, size):
    """Set-up seconds, each from a fresh interpreter and scaled by the
    reference times taken just before and after it.  One discarded probe
    first, so that compiling the sources to bytecode is not counted.
    Returns (scaled samples, raw samples)."""
    raw, refs = [], [reference_seconds()]
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, PROBE, workload, str(seed), size],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        raw.append(float(done.stdout.split()[-1]))
        refs.append(reference_seconds())
    scaled = [t * _scale(refs[k], refs[k + 1]) for k, t in enumerate(raw)]
    return scaled[1:], raw[1:]


def run_pass(wl, tracer):
    """One pass; traced when ``tracer`` is given, with every wrapper removed
    again before returning.  A reference time (the mean of a few runs) is
    taken before every job and after the last; each job's time is scaled by
    the two around it."""
    marks = []  # (reference seconds, clock before it, clock after it)
    repeats = -(-REF_SAMPLES_PER_PASS // (wl.jobs_per_pass + 1))

    def between(label):
        start = perf_counter()
        ref = statistics.mean(reference_seconds(wl.threads) for _ in range(repeats))
        marks.append((ref, start, perf_counter()))
        if tracer is not None:
            tracer.job = label

    if tracer is not None:
        tracer.install()
    try:
        groups, extras = wl.run_pass(between)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = raw_wall = 0.0
    results = []
    for k, group in enumerate(groups):
        scale = _scale(marks[k][0], marks[k + 1][0], wl.threads)
        elapsed = marks[k + 1][1] - marks[k][2]
        raw_wall += elapsed
        wall += elapsed * scale
        results.extend(r if r.seconds is None else r._replace(seconds=r.seconds * scale) for r in group)
    refs = [m[0] for m in marks]
    if tracer is None:
        return Pass(wall, raw_wall, results, None, None, refs)
    spans, counts, peaks = tracer.harvest()
    layers = tracing.layer_metrics(spans, counts, peaks)
    layers.update(extras)
    return Pass(wall, raw_wall, results, layers, spans, refs)


def grade(results, reference, first_seen):
    """Failed jobs of one pass: raised, verdict not pass, or output digest
    unlike the reference (default seed) or unlike the first pass (any seed)."""
    failed = []
    for r in results:
        want = reference.get(r.label) if reference is not None else first_seen.setdefault(r.label, r.digest)
        if not r.ok or r.digest is None or r.digest != want:
            failed.append(r)
    return failed


def load_reference(workload, seed, size):
    if seed != workloads.DEFAULT_SEED or size != "full":
        return None
    with open(REFERENCE) as handle:
        return json.load(handle)["digests"][workload]


def run_benchmark(workload, seed, seconds, trace, size="full"):
    """Measure one workload; returns the run record, the passes, the failed
    jobs, the set-up samples and the metrics."""
    os.environ.pop("SPINHL_SEED", None)  # the CLI would let it override --seed
    reference_work()  # warm the allocator before the first timed reference
    setup_samples = probe_setup(workload, seed, size)
    wl = workloads.setup(workload, seed, size)
    reference = load_reference(workload, seed, size)
    tracer = tracing.Tracer() if trace else None
    passes, failures, first_seen, durations = [], [], {}, []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        p = run_pass(wl, tracer if traced else None)
        durations.append(perf_counter() - began)
        passes.append(p)
        failures.extend(grade(p.results, reference, first_seen))
        # another pass only if it would end at most half a pass past the budget
        if len(passes) >= (2 if trace else 1) and perf_counter() - start + statistics.median(durations) / 2 > seconds:
            break
    metrics = per_layer_metrics(passes) if trace else end_to_end_metrics(passes, failures, setup_samples[0])
    record = run_record(workload, seed, seconds, trace, size, wl, passes)
    return record, passes, failures, setup_samples, metrics


def end_to_end_metrics(passes, failures, setup_scaled):
    untraced = [p for p in passes if p.layers is None]
    attempted = sum(len(p.results) for p in passes)
    return {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(p.wall for p in untraced),
        "slowest_job_s": statistics.median(_slowest(p) for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - len(failures)) / attempted,
    }


def per_layer_metrics(passes):
    traced = [p for p in passes if p.layers is not None]
    untraced = [p for p in passes if p.layers is None]
    out = {}
    for name, _unit in tracing.PER_LAYER:
        out[name] = statistics.median(p.layers.get(name, 0) for p in traced)
    out["trace.overhead_ratio"] = statistics.median(p.wall for p in traced) / statistics.median(
        p.wall for p in untraced
    )
    return out


def result(passes, failures, metrics):
    """The result object that ends stdout."""
    units = dict(END_TO_END + tracing.PER_LAYER)
    return {
        "correct": not failures,
        "attempted": sum(len(p.results) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _slowest(p):
    return max(r.seconds for r in p.results if r.seconds is not None)


# ----------------------------------------------------------------------
# reporting


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spinhl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def _git_commit():
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(workload, seed, seconds, trace, size, wl, passes):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": bool(trace),
        "passes": len(passes),
        "traced_passes": sum(p.layers is not None for p in passes),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "reference_s_median": statistics.median(r for p in passes for r in p.refs),
        "params": wl.params,
    }


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _describe(samples):
    tail = tail_percentile(samples)
    tail_text = "no tail percentile" if tail is None else "p%.0f %.6g" % tail
    return "median of %d, %s" % (len(samples), tail_text)


def print_report(record, passes, failures, setup_samples, metrics):
    untraced = [p for p in passes if p.layers is None]
    attempted = sum(len(p.results) for p in passes)
    setup_scaled, setup_raw = setup_samples
    print(
        "%s seed %d: %d passes (%d traced), closed loop, one client; reference_work median %.4f s, "
        "times scaled to %.4f s" % (
            record["workload"], record["seed"], record["passes"], record["traced_passes"],
            record["reference_s_median"], REF_SECONDS,
        )
    )
    samples = {
        "setup_s": (setup_scaled, setup_raw),
        "wall_s": ([p.wall for p in untraced], [p.raw_wall for p in untraced]),
        "slowest_job_s": ([_slowest(p) for p in untraced], None),
    }
    e2e = end_to_end_metrics(passes, failures, setup_scaled)
    for name, unit in END_TO_END:
        extra = ""
        if name in samples:
            scaled, raw = samples[name]
            extra = "  (%s%s)" % (_describe(scaled), "" if raw is None else "; unscaled median %.6g" % statistics.median(raw))
        print("  %-16s %12.6g %-5s%s" % (name, e2e[name], unit, extra))
    print("  %-16s %12.6g %-5s  (%d of %d jobs)" % ("fail_ratio", len(failures) / attempted, "ratio", len(failures), attempted))
    by_job = {}
    for p in untraced:
        for r in p.results:
            if r.seconds is not None:
                by_job.setdefault(r.label, []).append(r.seconds)
    for label, secs in by_job.items():
        print("    job %-40s %10.4f s median of %d" % (label, statistics.median(secs), len(secs)))
    for r in failures:
        print("  FAILED %s: ok=%s digest=%s %s" % (r.label, r.ok, r.digest, r.detail))
    if record["trace"]:
        units = dict(tracing.PER_LAYER)
        for name, value in metrics.items():
            print("  %-40s %14.6g %s" % (name, value, units[name]))
    print("run record: " + json.dumps(record, sort_keys=True))


def write_spans(record, passes):
    """Spans of every traced pass, gzipped JSON, times relative to each pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = {"record": record, "fields": ["name", "start", "end", "parent", "thread", "job"], "passes": []}
    for p in passes:
        if p.spans is None:
            continue
        index = {id(rec): i for i, rec in enumerate(p.spans)}
        t0 = p.spans[0][1] if p.spans else 0.0
        out["passes"].append(
            [
                [name, start - t0, end - t0, None if parent is None else index[id(parent)], thread, job]
                for name, start, end, parent, thread, job, _child in p.spans
            ]
        )
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.json.gz" % (record["workload"], record["seed"]))
    with gzip.open(path, "wt") as handle:
        json.dump(out, handle)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinhl", "__init__.py")):
        print("error: no spinhl sources under %s" % SRC, file=sys.stderr)
        return 2
    record, passes, failures, setup_samples, metrics = run_benchmark(
        args.workload, args.seed, args.seconds, args.trace
    )
    if args.trace:
        print("spans written to %s" % os.path.relpath(write_spans(record, passes), ROOT))
    print_report(record, passes, failures, setup_samples, metrics)
    print(json.dumps(result(passes, failures, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
