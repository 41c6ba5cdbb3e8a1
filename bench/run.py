"""Benchmark of the rittcalc workbench: one workload per run, checked against oracles.

Run from the root of a source checkout:

    python3 bench/run.py --workload contour-exact --seed 1 --seconds 10 --trace 0

The run imports ``rittcalc`` from ``src/`` of the checkout, builds the
workload's inputs from the seed, runs its warm-up ops, then repeats
passes over the workload's op list for ``--seconds`` seconds.  BLAS
runs on one thread (see THREAD_VARS).  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
pass_rel, op_p50_rel, op_p90_rel, peak_rss_mb); with ``--trace 1`` they are
the per-layer ones from the outside-in trace (see tracing.py).  The line
before it is a report with the environment block (versions, BLAS
library and threads, nproc, seed), op sample counts and the fail ratio;
the traced run adds a reference pass at the library's default BLAS
threading, run untraced in a child process.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy loads.  On a host with few cores the
# default OpenBLAS threads spin against each other and against the Python
# code, and the run measures the scheduler.  The traced run keeps the cost
# of the default setting on file: its reference pass runs in a child with
# BENCH_BLAS_THREADS=default and the caller's thread variables.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {k: os.environ.get(k) for k in THREAD_VARS}
if os.environ.get("BENCH_BLAS_THREADS") != "default":
    os.environ.update({k: "1" for k in THREAD_VARS})

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 4          # extra set-ups in child processes; setup_s is the median of 5
CHILD_TIMEOUT_S = 75
OUT_DIR = ".bench_out"     # trace files
WORK_DIR = ".bench_work"   # generated inputs, removed at exit


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own tests")
    ap.add_argument("--child", choices=("setup", "reference"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_rittcalc(root: str):
    """Import rittcalc from the checkout's src/, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rittcalc", "__init__.py")):
        raise SystemExit(f"bench: no rittcalc sources under {src}")
    sys.path.insert(0, src)
    import rittcalc
    import rittcalc.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(rittcalc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bench: rittcalc imported from {rittcalc.__file__}, not {src}")
    return rittcalc


class Probe:
    """A fixed reference computation, timed before and after every op.

    It is mostly small numpy solves with some interpreted Python, as the
    ops are, and calls nothing in rittcalc, so its time follows only the
    speed of the host.  On a shared host a core's speed swings by up to
    1.7x in phases of 10 s to minutes.  An op's wall time over the mean
    probe time around it cancels most of that: over 50-s windows of
    either workload the interquartile spread of the pass total was 0.02
    to 0.05 of the median, against 0.07 to 0.15 for the plain wall time.
    """

    def __init__(self):
        import numpy as np

        self._solve = np.linalg.solve
        self._A = np.random.default_rng(0).normal(size=(12, 12)) + 12 * np.eye(12)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        for _ in range(1500):
            self._solve(self._A, self._A[0])
        return time.perf_counter() - t0


class Runner:
    """Runs ops, times them, and counts oracle failures."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle_err_max = 0.0

    def op(self, op):
        """Run one op; returns its wall and CPU seconds and its output
        (None when it raised)."""
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = self.tracer.run_op(op.call) if self.tracer else op.call()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            t1, c1 = time.perf_counter(), time.process_time()
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return t1 - t0, c1 - c0, None
        t1, c1 = time.perf_counter(), time.process_time()
        return t1 - t0, c1 - c0, out

    def check(self, op, out) -> None:
        if out is None:
            return
        try:
            ok, err = op.check(out)
        except Exception as exc:  # a check that cannot run is a failed oracle
            ok, err = False, None
            self._fail(op, f"check raised {type(exc).__name__}: {exc}")
            return
        if err is not None and op.funcalc_oracle:
            self.oracle_err_max = max(self.oracle_err_max, err)
        if not ok:
            self._fail(op, f"oracle check failed (error {err})")

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {why}")

    def one(self, op) -> None:
        self.check(op, self.op(op)[2])

    def run_pass(self, ops):
        """One pass: the probe, then each op followed by the probe.  Outputs
        are checked after the pass so checks stay untimed.  Returns the
        per-op wall and CPU seconds, and per op the mean of the probe
        seconds just before and just after it."""
        walls, cpus, probes, outs = [], [], [self.probe()], []
        for op in ops:
            wall, cpu, out = self.op(op)
            walls.append(wall)
            cpus.append(cpu)
            outs.append(out)
            probes.append(self.probe())
        for op, out in zip(ops, outs):
            self.check(op, out)
        return walls, cpus, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def blas_info() -> list:
    """OpenBLAS builds bundled with numpy and scipy, with their thread counts."""
    import ctypes

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*.so*"))):
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            try:
                lib = ctypes.CDLL(path)
            except OSError as exc:
                entry["error"] = str(exc)
                out.append(entry)
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = int(fn())
                    break
            for sym in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    entry["config"] = fn().decode()
                    break
            out.append(entry)
    return out


def environment(root: str, args) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "rittcalc", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "thread_vars_inherited": INHERITED_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def run_child(args, mode: str, env=None) -> dict:
    """Re-run this script as a child for a set-up or reference measurement."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--child", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child {mode} timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child {mode} exited {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    rc = import_rittcalc(root)
    sys.path.insert(0, BENCH_DIR)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, root, rc, tracing, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


def measure(args, root, rc, tracing, workloads, workdir) -> int:
    wl = workloads.WORKLOADS[args.workload](rc, args.seed, args.size, workdir)
    runner = Runner(Probe())
    for op in wl.warmups:
        runner.one(op)
    runner.probe()
    setup_s = time.perf_counter() - T_START

    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                          "failed": runner.failed, "failures": runner.failures}))
        return 0
    if args.child == "reference":
        walls, cpus, _ = runner.run_pass(wl.ops)
        print(json.dumps({"wall_s": sum(walls), "cpu_s": sum(cpus), "blas": blas_info(),
                          "attempted": runner.attempted, "failed": runner.failed,
                          "failures": runner.failures}))
        return 0

    setups = [setup_s]
    children = []
    for _ in range(SETUP_REPEATS):
        child = run_child(args, "setup")
        children.append(child)
        if "setup_s" in child:
            setups.append(child["setup_s"])

    untraced = None
    tracer = None
    if args.trace:
        untraced = runner.run_pass(wl.ops)
        tracer = tracing.Tracer()
        tracer.install(rc)
        runner.tracer = tracer
    passes = []      # per pass: (op walls, op CPU times, probe times)
    elapsed = []     # per pass: seconds, probes included
    t_begin = time.perf_counter()
    try:
        # closed loop; a pass starts only if it should end within --seconds
        while not passes or (time.perf_counter() - t_begin + statistics.median(elapsed)
                             <= args.seconds):
            t0 = time.perf_counter()
            passes.append(runner.run_pass(wl.ops))
            elapsed.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    walls = [sum(p[0]) for p in passes]
    cpus = [sum(p[1]) for p in passes]
    op_walls = list(zip(*(p[0] for p in passes)))     # per op: its wall per pass
    op_probes = list(zip(*(p[2] for p in passes)))
    probes = [q for p in passes for q in p[2]]

    reference = None
    if args.trace:
        # the threading cost on file: one pass at the default BLAS threading
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update({k: v for k, v in INHERITED_THREADS.items() if v is not None})
        env["BENCH_BLAS_THREADS"] = "default"
        reference = run_child(args, "reference", env=env)
        children.append(reference)

    attempted = runner.attempted + sum(c.get("attempted", 0) for c in children)
    failed = runner.failed + sum(c.get("failed", 0) for c in children)
    errors = [c["error"] for c in children if "error" in c]
    failures = runner.failures + [f for c in children for f in c.get("failures", [])]
    correct = failed == 0 and not errors

    if args.trace:
        layers = tracer.layer_metrics(len(passes))
        layers["funcalc.oracle_err_max"] = runner.oracle_err_max
        layers["bench.untraced_wall_s"] = sum(untraced[0])
        layers["bench.trace_overhead_s"] = statistics.median(walls) - sum(untraced[0])
        layers["bench.probe_ms"] = 1e3 * statistics.median(probes)
        ref_wall, ref_cpu = reference.get("wall_s"), reference.get("cpu_s")
        layers["bench.default_threads_wall_s"] = ref_wall
        layers["bench.cpu_per_wall"] = ref_cpu / ref_wall if ref_wall else None
        units = tracing.per_layer_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(os.path.join(root, trace_file))
    else:
        trace_file = None
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # per op: the median over the passes of its wall time in probe
        # units (see Probe); then the pass total and percentiles over ops
        op_rel = [statistics.median(w / q for w, q in zip(ws, qs))
                  for ws, qs in zip(op_walls, op_probes)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_rel": {"value": sum(op_rel), "unit": "probe"},
            "op_p50_rel": {"value": percentile(op_rel, 50), "unit": "probe"},
            "op_p90_rel": {"value": percentile(op_rel, 90), "unit": "probe"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }

    report = {
        "bench": "rittcalc",
        "environment": environment(root, args),
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "op_samples": len(passes) * len(wl.ops),
        "pass_walls_s": walls,
        "pass_cpus_s": cpus,
        "pass_median_s": statistics.median(walls),
        "op_median_ms": [[op.label, 1e3 * statistics.median(ws)]
                         for op, ws in zip(wl.ops, op_walls)],
        "probe_ms": {"median": 1e3 * statistics.median(probes),
                     "min": 1e3 * min(probes), "max": 1e3 * max(probes)},
        "setup_samples_s": setups,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "child_errors": errors,
        "reference_default_threads": reference,
        "trace_file": trace_file,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
