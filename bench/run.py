"""mudilate benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload gallery-t16 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory.  BLAS and OpenMP run one thread.  Timings are in reference
seconds: each call is scaled by the reference kernel of ``calib.py``, timed
between the program's calls, so that a shared host's changing speed
cancels out.  With ``--trace 0`` the run measures for ``--seconds`` (after
at least one whole round) and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed number of rounds, each item once untraced
and once under the span recorder, and prints the per-layer metrics.  Earlier stdout lines hold the environment and the
per-kind detail; the last line is the result object.  Any failed check
makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# seconds of the program's work per run of the reference kernel (``Pace``)
CAL_EVERY = 0.25
CAL_MAX = 32
# share of a kind's fastest and of its slowest calls left out of its mean
TRIM = 0.1
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s",
                    "op_geomean_ms": "ms", "decided_frac": "frac"}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summary(xs) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it (nearest rank), and the sample count."""
    xs = sorted(xs)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = xs[max(0, math.ceil(p / 100.0 * n) - 1)]
            break
    return out


def trimmed_mean(xs) -> float:
    """Mean of the calls left after dropping the fastest and the slowest
    TRIM share.  A kind's calls can cost different amounts by input (tetra
    points take 3 or 30 to 100 us), and the median of such a mix jumps
    between the groups from seed to seed where the mean moves smoothly;
    the trim keeps one interrupted call from moving the mean."""
    xs = sorted(xs)
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


class Pace:
    """Batches of reference-kernel samples, taken between the program's calls.

    Before a call, once CAL_EVERY seconds have passed since the last batch,
    the kernel runs once per CAL_EVERY seconds passed (at most CAL_MAX
    times), so it takes the same share of every stretch of the run however
    long the calls in it are.  A call is scaled by REF_SECONDS over the
    mean kernel time of the batches just before and just after it."""

    def __init__(self):
        import calib  # loads numpy: not before the thread variables are set

        self.kernel, self.ref = calib.sample, calib.REF_SECONDS
        self.batches = []  # [kernel seconds in total, kernel runs]
        self.last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Take a batch if one is due; return the index of the last batch."""
        gap = time.perf_counter() - self.last
        if force or gap >= CAL_EVERY:
            n = min(CAL_MAX, max(1, int(gap / CAL_EVERY))) if self.batches else 1
            self.batches.append([sum(self.kernel() for _ in range(n)), n])
            self.last = time.perf_counter()
        return len(self.batches) - 1

    def scale(self, j: int) -> float:
        """Scale of a call made after batch ``j`` and before ``j + 1``."""
        around = self.batches[j:j + 2]
        return self.ref * sum(n for _, n in around) / sum(t for t, _ in around)

    def kernel_times(self) -> list:
        return [t / n for t, n in self.batches]


class Record:
    """Samples, outcomes and failures of the items run so far."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.raw = defaultdict(list)  # kind -> [(seconds, index of the batch before)]
        self.decided = defaultdict(list)
        self.decode = Counter()
        self.verdict = Counter()
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.raised = 0

    def run(self, item):
        self.attempted += 1
        j = self.pace.tick()
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.raised += 1
            self.errors.append(f"{item.id}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.raw[item.kind].append((dt, j))
        err, decided, decode = item.check(out)
        self.decided[item.kind].append(decided)
        if decode is not None:
            self.decode[decode] += 1
            self.verdict[out.verdict] += 1
        if err:
            self.failed += 1
            self.errors.append(f"{item.id}: {err}")
        return out

    def finish(self) -> None:
        self.pace.tick(force=True)

    def samples(self, wall: bool = False) -> dict:
        """kind -> call times in reference seconds (or as measured)."""
        return {k: [dt if wall else dt * self.pace.scale(j) for dt, j in v]
                for k, v in self.raw.items()}

    def means(self, wall: bool = False) -> dict:
        return {k: trimmed_mean(v) for k, v in self.samples(wall).items()}


def pass_seconds(wl, mean) -> float:
    return sum(c * mean[k] for k, c in wl.pass_counts.items())


def end_to_end(wl, rec, setup, wall=False) -> dict:
    mean = rec.means(wall)
    missing = [k for k in set(wl.pass_counts) | set(wl.geomean_kinds) if k not in mean]
    if missing:
        raise RuntimeError(f"no samples of {sorted(missing)}")
    geo = math.exp(statistics.fmean(math.log(mean[k] * 1e3) for k in wl.geomean_kinds))
    shares = [statistics.fmean(rec.decided[k]) for k in wl.decision_kinds
              if rec.decided[k]]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": pass_seconds(wl, mean),
        "op_geomean_ms": geo,
        "decided_frac": statistics.fmean(shares),
    }


def detail(wl, rec, setup_wall) -> dict:
    """Per-kind timings (reference seconds) and counts, printed before the
    result line; also the end-to-end timings as measured, and the kernel's
    own times."""
    samples = rec.samples()
    out = {f"{k}_s" if not k.startswith("mu.") else f"mu_s.{k[3:]}": summary(v)
           for k, v in sorted(samples.items())}
    wall = end_to_end(wl, rec, setup_wall, wall=True)
    out["wall"] = {k: wall[k] for k in ("setup_s", "pass_s", "op_geomean_ms")}
    out["kernel_ms"] = summary([c * 1e3 for c in rec.pace.kernel_times()])
    undecided = sum(d.count(False) for d in rec.decided.values()) + rec.raised
    out["fail_frac"] = undecided / rec.attempted
    for group in ("closed", "search"):
        kinds = getattr(wl, f"{group}_kinds", ())
        spent = sum(sum(samples.get(k, ())) for k in kinds)
        if spent:
            out[f"{group}_pts_per_s"] = sum(len(samples.get(k, ())) for k in kinds) / spent
    if rec.verdict:
        out["verdicts"] = dict(rec.verdict)
        out["decode"] = dict(rec.decode)
    return out


def measure(rounds, seconds, rec) -> None:
    """Closed loop: one whole round, then further items until the deadline."""
    deadline = time.perf_counter() + seconds
    for item in rounds[0]:
        rec.run(item)
    k = 1
    while True:
        for item in rounds[k % len(rounds)]:
            if time.perf_counter() >= deadline:
                rec.finish()
                return
            rec.run(item)
        k += 1


def traced_run(wl, rounds, workload, seed):
    """Each item once untraced, then once under the span recorder."""
    import spans

    tracer = spans.Tracer()
    useful = Counter()
    tracer.returns["domains.certificate_search"] = (
        lambda cert: useful.update(ok=int(cert.residual <= 1e-6), calls=1))
    pace = Pace()
    plain, traced = Record(pace), Record(pace)
    for k in range(wl.trace_rounds):
        for item in rounds[k % len(rounds)]:
            plain.run(item)
            tracer.current_item = item.id
            with tracer:
                traced.run(item)
    pace.tick(force=True)
    span_list = tracer.spans()
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))

    total = sum(dt for v in traced.raw.values() for dt, _ in v)
    agg = spans.aggregate(span_list)
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s / total, "%")
    for d in ("diagonal", "axis", "search", "closed"):
        metrics[f"domains.decode.{d}"] = (traced.decode[d], "count")
    for v in ("inside", "boundary", "outside", "unknown"):
        metrics[f"domains.verdict.{v}"] = (traced.verdict[v], "count")
    metrics["domains.certificate_search.useful_ratio"] = (
        useful["ok"] / useful["calls"] if useful["calls"] else 0.0, "ratio")
    p_traced = pass_seconds(wl, traced.means())
    metrics["trace.pass_s"] = (p_traced, "s")
    metrics["trace.overhead_s"] = (p_traced - pass_seconds(wl, plain.means()), "s")

    kind_of = {item.id: item.kind for r in rounds for item in r}
    per_kind = defaultdict(dict)
    for (kind, name), (calls, self_s) in spans.aggregate(
            span_list, key=lambda sp: (kind_of[sp["item"]], sp["name"])).items():
        n = len(traced.raw[kind])
        per_kind[kind][name] = [calls / n, self_s / n]
    breakdown = {k: dict(sorted(v.items(), key=lambda kv: -kv[1][1]))
                 for k, v in sorted(per_kind.items())}
    return metrics, breakdown, [plain, traced]


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_probe(workload, seed) -> None:
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload]().build(seed)
    dt = time.perf_counter() - t0
    import calib

    print(dt, statistics.median(calib.sample() for _ in range(5)))


def setup_times(workload, seed) -> tuple:
    """``import mudilate`` plus input generation, each in a fresh process
    that then samples the reference kernel: the times in reference seconds
    and as measured."""
    import calib

    out, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("setup probe failed")
        dt, cal = map(float, proc.stdout.strip().splitlines()[-1].split())
        wall.append(dt)
        out.append(dt * calib.REF_SECONDS / cal)
    return out, wall


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "mudilate", "__init__.py")):
        sys.stderr.write(f"no mudilate sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2

    setup, setup_wall = ([], []) if args.trace else setup_times(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]()
    rounds = wl.build(args.seed)
    warm = Record(Pace())
    for item in wl.warmup(args.seed):
        warm.run(item)

    if args.trace:
        metrics, breakdown, recs = traced_run(wl, rounds, args.workload, args.seed)
        info = {"trace_breakdown": breakdown}
    else:
        rec = Record(Pace())
        measure(rounds, args.seconds, rec)
        values = end_to_end(wl, rec, setup)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        info = {"detail": detail(wl, rec, setup_wall), "setup_samples": setup}
        recs = [rec]

    recs.append(warm)
    errors = [e for r in recs for e in r.errors]
    print(json.dumps({"env": environment()}))
    print(json.dumps(info))
    if errors:
        print(json.dumps({"errors": errors[:20], "error_count": len(errors)}))
    measured = recs[:-1]
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
