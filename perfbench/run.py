#!/usr/bin/env python3
"""preflab benchmark: one workload, one seed, measured from outside.

    python3 perfbench/run.py --workload train-dpo --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``preflab`` from ``src/``
there. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced variant and prints the per-layer metrics. Human-readable lines
start with ``#``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 every op passed its checks, 1 an op failed (the result is
still printed), 2 bad arguments or no program to measure, 3 the
benchmark caught itself out (count drift, self times that do not add up,
wrappers left in place); no result is printed for 2 and 3.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
SELF_TIME_TOLERANCE_S = 1e-6


class BenchBug(Exception):
    """The benchmark's own measurement is inconsistent."""


def _die(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import preflab from this checkout's src/, and nowhere else.

    BLAS runs one thread: preflab's matrices are small, so a second thread
    only spins, and a spinning thread makes timings depend on whatever
    else the machine runs. Set before numpy loads; set-ups inherit it.
    """
    if not os.path.isfile(os.path.join(SRC, "preflab", "__init__.py")):
        _die(f"no program to measure: {os.path.join('src', 'preflab')} is missing", 2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import preflab

    if os.path.dirname(os.path.abspath(preflab.__file__)) != os.path.join(SRC, "preflab"):
        _die(f"imported preflab from {preflab.__file__}, not from this checkout", 2)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> tuple[str, int | None]:
    """BLAS library numpy was built with, and its thread count if the
    library reports one."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _git_commit(),
        "load": "1 closed-loop client in 1 process",
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op, call=None) -> float:
        """Run one op (through ``call`` if given), check it, return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = (call or op.call)()
        except Exception as err:  # a crashing op is a failed op; keep measuring
            elapsed = time.perf_counter() - start
            self._fail(f"{op.kind} raised {type(err).__name__}: {err}")
            return elapsed
        elapsed = time.perf_counter() - start
        message = op.verify(result)
        if message is not None:
            self._fail(message)
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: op failed: {message}", file=sys.stderr)


def _same_tree(a: str, b: str) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def timed_setups(workload: str, seed: int, work: str) -> tuple[list[float], str]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter: process
    start, imports and input generation. Returns the wall times and the
    directory of inputs the ops use."""
    times = []
    dirs = []
    for k in range(SETUP_REPEATS):
        inputs = os.path.join(work, f"inputs{k}")
        os.makedirs(inputs)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--setup-into", inputs]
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms,
        # which would quantize the set-up time
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
        dirs.append(inputs)
    for other in dirs[1:]:
        if not _same_tree(dirs[0], other):
            raise BenchBug("two set-ups with one seed wrote different inputs")
    return times, dirs[0]


def plain_run(wl, seed: int, seconds: int, work: str):
    setup, inputs = timed_setups(wl.name, seed, work)
    wl.prepare(inputs, work, seed)
    tally = Tally()
    for op in wl.warmup():
        tally.run(op)
    samples: list[tuple[str, float, float]] = []
    units: list[tuple[float, float]] = []  # (wall, work) of each whole unit
    start = time.perf_counter()
    while len(units) < wl.min_units or time.perf_counter() - start < seconds:
        first = len(samples)
        for op in wl.unit():
            samples.append((op.kind, tally.run(op), op.work))
        units.append((sum(s[1] for s in samples[first:]), sum(s[2] for s in samples[first:])))
    return setup, samples, units, tally


def traced_run(wl, seed: int, work: str):
    from layers import SpanView, per_layer, targets
    from spans import Tracer, install, is_original, snapshot

    tracer = Tracer()
    tg = targets()
    originals = snapshot(tg)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)

    def traced(fn):
        installed = install(tracer, tg)
        try:
            return fn()
        finally:
            installed.remove()

    traced(lambda: tracer.run_op(0, lambda: wl.make_inputs(inputs, seed)))
    wl.prepare(inputs, work, seed)
    tally = Tally()
    for op in wl.warmup():
        tally.run(op)

    ratios = []
    ops: dict[int, object] = {}
    for op_id, (op, paired) in enumerate(wl.trace_plan(), start=1):
        def run_traced(op=op, op_id=op_id):
            return traced(lambda: tally.run(op, lambda: tracer.run_op(op_id, op.call)))

        ops[op_id] = op
        if not paired:
            run_traced()
        elif op_id % 2:  # alternate which copy runs first
            untraced_s = tally.run(op)
            ratios.append(run_traced() / untraced_s)
        else:
            traced_s = run_traced()
            ratios.append(traced_s / tally.run(op))
    if not is_original(tg, originals):
        raise BenchBug("wrappers are still installed after the traced run")

    view = SpanView(tracer.spans)
    check_self_times(view)
    check_counts(view, ops)
    return per_layer(view, wl.layer_info(), statistics.median(ratios)), tally


def check_self_times(view) -> None:
    """The self times of one op's spans must add up to the op's wall time."""
    totals: dict[int, float] = {}
    walls: dict[int, float] = {}
    for s, own in zip(view.spans, view.self_s):
        totals[s.op] = totals.get(s.op, 0.0) + own
        if s.parent is None:
            walls[s.op] = walls.get(s.op, 0.0) + s.duration
    for op, total in totals.items():
        if abs(total - walls[op]) > SELF_TIME_TOLERANCE_S:
            raise BenchBug(f"op {op}: self times sum to {total} s, wall is {walls[op]} s")


def check_counts(view, ops: dict) -> None:
    """Counts must repeat exactly: every traced op of one kind on the same
    inputs has one signature, and each op's declared counts hold."""
    from layers import op_signature

    first: dict[str, tuple] = {}
    for op_id, op in ops.items():
        signature = op_signature(view, op_id)
        if op.expected:
            sums = dict(signature[1])
            for key, want in op.expected.items():
                if sums.get(key) != want:
                    raise BenchBug(f"op {op_id} ({op.kind}): {key} = {sums.get(key)}, expected {want}")
        elif first.setdefault(op.kind, signature) != signature:
            raise BenchBug(f"op {op_id} ({op.kind}): call counts drifted from the first {op.kind} op")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

SAMPLE_NAMES = {"train": "train", "eval": "eval", "analyze": "analyze", "oracle": "oracle_check"}
WORK_NAMES = {"train": "pairs trained", "eval": "pairs scored", "analyze": "pairs scored",
              "oracle": "sequences certified"}


def end_to_end(wl, setup, samples, units) -> tuple[dict, list[str]]:
    primary = [s[1] for s in samples if s[0] == wl.primary]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (1000.0 * statistics.median(primary), "ms"),
        "work_per_s": (statistics.median(work / wall for wall, work in units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    kinds = sorted({s[0] for s in samples})
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.4f} s (median of n={len(setup)} set-ups in fresh processes)",
        f"op_ms_p50 = {metrics['op_ms_p50'][0]:.3f} ms (median {wl.primary} op, n={len(primary)})",
        f"work_per_s = {metrics['work_per_s'][0]:.2f} 1/s "
        f"({'/'.join(sorted({WORK_NAMES[k] for k in kinds}))} per second, "
        f"median over n={len(units)} whole units)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    for kind in kinds:
        walls = [1000.0 * s[1] for s in samples if s[0] == kind]
        name = SAMPLE_NAMES[kind]
        lines.append(f"{name}_ms_p50 = {statistics.median(walls):.3f} ms (n={len(walls)})")
        t = tail(walls)
        lines.append(
            f"{name}_ms_tail = {t[1]:.3f} ms at p{t[0]:g} (n={len(walls)})" if t
            else f"{name}_ms_tail = n/a (n={len(walls)}; a tail needs 10 samples beyond the median)"
        )
    if wl.primary == "train":
        lines.append(f"train_pairs_per_s = {metrics['work_per_s'][0]:.2f} pairs/s (n={len(units)})")
    if wl.unit_metric:
        lines.append(
            f"{wl.unit_metric} = {statistics.median(wall for wall, _ in units):.4f} s "
            f"(median wall of one whole unit, n={len(units)})"
        )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", 2)
    if args.seed < 0 or args.seconds < 1:
        _die("--seed must be >= 0 and --seconds >= 1", 2)
    wl = WORKLOADS[args.workload]()
    if args.setup_into:
        wl.make_inputs(args.setup_into, args.seed)
        return 0

    env = environment(args.workload, args.seed, args.trace)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            from layers import unit_of

            layer_metrics, tally = traced_run(wl, args.seed, work)
            metrics = {k: (v, unit_of(k)) for k, v in layer_metrics.items()}
            lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        else:
            setup, samples, units, tally = plain_run(wl, args.seed, args.seconds, work)
            metrics, lines = end_to_end(wl, setup, samples, units)
    except BenchBug as err:
        _die(f"benchmark bug: {err}", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(f"# {line}")
    print(f"# error_rate = {tally.failed / tally.attempted:g} ({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
