"""Per-op benchmark of the twostage package.

    python3 perfbench/run.py --workload relax|table|exact --seed N --seconds S --trace 0|1

Run from the repository root.  Each op is timed on its own, from outside
the package, through public calls; a run does ops for S seconds and at
least MIN_OPS of them.  Each op's output is checked right after it, outside
its timed section.  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
describes the run (settings, versions, sample counts, host diagnostics);
with ``--trace 1`` a further line gives the end-to-end metrics of the
untraced pass, and the spans go to perfbench/.trace/WORKLOAD-seedN.jsonl.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the default pool makes per-op CPU time unsteady.
# RR_THREADS stays unset so the bench pool runs at its default width.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("RR_THREADS", None)
# One CPU for the whole process, pool threads included.  On a small shared
# host, pool threads spread over two CPUs wait on each other for the GIL
# whenever a neighbour holds or steals the second CPU; that moved the table
# workload's op times by up to a quarter between sets of runs.  The pool
# keeps its default width: bench sizes it from os.cpu_count(), not from the
# affinity mask.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_OPS = 100          # at least 10 samples beyond p90
# Extra set-ups measured in fresh processes, because imports, the larger
# part of set-up, happen once per process.  Over ten table runs on a 2-vCPU
# host, the median of these and the run's own sample spread 0.15 (quartile
# distance over median) where the run's own sample alone spread 0.22.
SETUP_CHILDREN = 8
CALIB_REPS = 7


def calib_ms() -> float:
    """Median time of a fixed pure-Python reference loop."""
    times = []
    for _ in range(CALIB_REPS):
        t = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc += k * k % 7
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def proc_stat() -> list[int]:
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    # fields: user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "twostage").glob("*.py")))


def child_setup_s(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("relax", "table", "exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import twostage
    except ImportError as exc:
        print(f"error: cannot import twostage from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(twostage.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: twostage imported from {twostage.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    work_dir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        wl.prepare(MIN_OPS)
        setup = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup))
            return 0
        return measure(args, wl, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_dir.parent.rmdir()


def timed_op(wl, inp):
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        rec = wl.run(inp)
    except Exception as exc:  # a failing op is counted as failed, not fatal
        rec = exc
    c1, w1 = time.process_time(), time.perf_counter()
    return rec, w1 - w0, c1 - c0


def traced_op(wl, inp, tracer, i):
    tracer.install()
    try:
        tracer.begin_op(i)
        rec, wall, _ = timed_op(wl, inp)
        tracer.end_op()
    finally:
        tracer.uninstall()
    return rec, wall


def gate(wl, inp, rec) -> tuple[list[str], dict | None]:
    if isinstance(rec, Exception):
        return [f"op raised {type(rec).__name__}: {rec}"], None
    try:
        return wl.check(inp, rec)
    except Exception as exc:  # a check that crashes counts the op as failed
        return [f"check raised {type(exc).__name__}: {exc}"], None


def measure(args, wl, setup: float) -> int:
    setups = [setup] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    import numpy as np
    import scipy.optimize  # noqa: F401  the gate's reference solver, loaded before timing
    from twostage import bench

    import spans

    tracer = spans.Tracer() if args.trace else None
    walls, cpus, t_walls, traffic, failures = [], [], [], [], []
    calib_before = calib_ms()
    stat_before = proc_stat()
    start = time.perf_counter()
    i = 0
    # Ops run until `seconds` have passed and at least MIN_OPS are done.  The
    # gate checks each op right after it, outside its timed section.  With
    # --trace 1 each op also runs traced, right before or after its untraced
    # run (alternating), so host drift cancels out of the overhead figure.
    while i < MIN_OPS or time.perf_counter() - start < args.seconds:
        inp = wl.input(i)
        if tracer is not None and i % 2:
            t_rec, t_wall = traced_op(wl, inp, tracer, i)
        rec, wall, cpu = timed_op(wl, inp)
        if tracer is not None and not i % 2:
            t_rec, t_wall = traced_op(wl, inp, tracer, i)
        walls.append(wall)
        cpus.append(cpu)
        fails, lp_rec = gate(wl, inp, rec)
        if tracer is not None:
            t_walls.append(t_wall)
            if not fails:
                if isinstance(t_rec, Exception) or not wl.same(rec, t_rec):
                    fails.append("traced run disagrees with the untraced run")
                traffic.append(lp_rec)
        if fails:
            failures.append((i, fails))
        i += 1
    stat_after = proc_stat()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_after = calib_ms()
    n = len(walls)
    failed = len(failures)
    wall_p90 = float(np.percentile(walls, 90))

    e2e = {
        "wall_ms_p50": metric(statistics.median(walls) * 1e3, "ms"),
        "wall_ms_p90": metric(wall_p90 * 1e3, "ms"),
        "cpu_ms_p50": metric(statistics.median(cpus) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
        "ok_frac": metric((n - failed) / n, "frac"),
    }
    host = {
        "host.steal_frac": steal_frac(stat_before, stat_after),
        "host.calib_ms": statistics.median([calib_before, calib_after]),
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": n,
        "ops_beyond_wall_p90": sum(w > wall_p90 for w in walls),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RR_THREADS")},
        "bench.workers": bench.worker_count(),
        "nproc": os.cpu_count(),
        "cpu": CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_s_samples": setups,
        "host": host,
        "src_lines": src_lines(),
        "failures": [f"op {i}: {'; '.join(f)}" for i, f in failures[:5]],
    }
    if tracer is not None:
        spans_file = HERE / ".trace" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.dump(tracer, spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps({"info": info}))

    if tracer is not None:
        print(json.dumps({"end_to_end": e2e}))
        layer = spans.layer_metrics(tracer, MIN_OPS)
        layer["trace.overhead_frac"] = (sum(t_walls) / sum(walls) - 1.0, "frac")
        ops_with_lp = [t for t in traffic if t is not None]

        def lp_stat(key, fn):
            return fn([t[key] for t in ops_with_lp]) if ops_with_lp else 0.0

        layer.update(
            {
                "lp.rows_p50": (lp_stat("rows", statistics.median), "rows"),
                "lp.cols_p50": (lp_stat("cols", statistics.median), "cols"),
                "lp.dense_mb": (lp_stat("entries", max) * 8 / 1e6, "MB"),
                "lp.nnz_frac": (
                    lp_stat("nnz", sum) / lp_stat("entries", sum) if ops_with_lp else 0.0, "frac"
                ),
                "lp.fractional_frac": (lp_stat("fractional", statistics.mean), "frac"),
                "bench.workers": (bench.worker_count(), "count"),
                "src.lines": (info["src_lines"], "lines"),
                **{k: (v, "frac" if k.endswith("frac") else "ms") for k, v in host.items()},
            }
        )
        metrics = {k: metric(v, u) for k, (v, u) in sorted(layer.items())}
    else:
        metrics = e2e
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
