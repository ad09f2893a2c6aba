#!/usr/bin/env python3
"""Benchmark of the zeckdual package: one workload per run, one JSON result.

    python3 bench/run.py --workload scan --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workloads are described in ``workloads.py`` and ``BENCHMARK.json``;
``--workload all`` runs each of them in turn, in its own process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the package's public functions (``tracer.py``) for the
pair set-up, one warm-up and two passes, then runs untraced passes for the
rest of the time; it reports per-layer calls, rows and self times, and the
tracing overhead (median traced pass minus median untraced pass).

Every output is checked against an oracle, and every later pass must
return exactly what the first did.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from tracer import ROW_NAMES, Tracer
from workloads import WORKLOADS, Failed, warm_up

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
MIN_PASSES = 3
TRACED_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    wall: float  # seconds
    stage_s: dict  # stage -> durations of its calls
    spans: tuple | None  # (lo, hi) span indices when traced
    prints: list  # fingerprint of each output
    broken: list  # indices of outputs that raised or exited non-zero
    bytes_out: int  # what the CLI calls wrote to stdout


class Ops:
    """Makes every call into the package, timing it and keeping its output.

    A call that raises is counted and its output replaced by ``Failed``.
    ``stage_s`` collects the durations of the current pass by stage.
    """

    def __init__(self):
        self.attempted = 0
        self.stage_s = defaultdict(list)

    def call(self, stage, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # noqa: BLE001 - a failing op is counted, not fatal
            out = Failed(f"{type(e).__name__}: {e}")
        self.stage_s[stage].append(time.perf_counter() - t0)
        return out


def load_package():
    """Import zeckdual from the checkout's ``src/``; None when it is absent."""
    if not (SRC / "zeckdual" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import zeckdual
    from zeckdual import _kernels, cli, digits, duality, extremal, numeration, spectra

    return SimpleNamespace(
        pkg=zeckdual, SystemPair=zeckdual.SystemPair, cli=cli, digits=digits, duality=duality,
        extremal=extremal, numeration=numeration, spectra=spectra, _kernels=_kernels,
    )


def machine_facts(zd) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_enabled": zd._kernels.kernels_enabled(),
        "ZECK_NUMBA": os.environ.get("ZECK_NUMBA"),
    }


def measure_setup(pair_rules) -> list[float]:
    """Cold set-up times: import plus building the pairs, each in a new process."""
    probe = Path(__file__).with_name("setup_probe.py")
    rules = json.dumps(list(pair_rules.values()))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), rules],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def fingerprint(out):
    """A value that is equal for equal outputs and cheap to compare."""
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, hashlib.sha256(out.tobytes()).hexdigest())
    if hasattr(out, "rc") and hasattr(out, "stdout"):
        return (out.rc, hashlib.sha256(out.stdout.encode()).hexdigest())
    return repr(out)


def op_times(p: Pass, size: int) -> list[float]:
    """Latency samples of a pass: each is ``size`` consecutive primary calls."""
    calls = p.stage_s["primary"]
    return [sum(calls[i:i + size]) for i in range(0, len(calls), size)]


def is_broken(out) -> bool:
    return isinstance(out, Failed) or getattr(out, "rc", 0) != 0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, no interpolation, ``q`` in (0, 1).

    The exact workload's calls cluster by pair; an interpolated percentile
    could average two clusters.
    """
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def code_digest() -> str:
    """Digest of the package and benchmark sources that a run's counts depend on."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "zeckdual").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def cli_bytes(outs) -> int:
    return sum(len(o.stdout) for o in outs if hasattr(o, "stdout"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    # the checks read the CSV ratios at the default 12 significant digits
    os.environ.pop("ZECK_FLOAT_DIGITS", None)
    zd = load_package()
    if zd is None:
        print(f"error: no zeckdual package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](zd, args.seed, args.smoke)
    facts = machine_facts(zd)
    setup = [] if args.trace else measure_setup(wl.pair_rules)

    tracer = Tracer(zd) if args.trace else None
    ops = Ops()
    passes = []
    first = None  # outputs of pass 0, which the oracles check

    def one_pass(traced):
        nonlocal first
        # start every pass from the same collector state: what the benchmark
        # holds (inputs, first outputs, spans) is moved out of the collector's
        # reach, so the program's own garbage collection is what gets timed
        gc.collect()
        gc.freeze()
        ops.stage_s = defaultdict(list)
        lo = len(tracer.spans) if traced else 0
        t0 = time.perf_counter()
        outs = wl.run_pass(ops)
        wall = time.perf_counter() - t0
        # later passes keep only fingerprints, so memory does not grow with
        # the number of passes a faster program fits into the run
        passes.append(Pass(wall, ops.stage_s, (lo, len(tracer.spans)) if traced else None,
                           [fingerprint(o) for o in outs],
                           [j for j, o in enumerate(outs) if is_broken(o)], cli_bytes(outs)))
        if first is None:
            first = outs

    if tracer:
        tracer.install()
    try:
        wl.setup()
        warm = warm_up(zd, ops)
        start = time.perf_counter()
        n_traced = TRACED_PASSES if tracer else 0
        for _ in range(n_traced):
            one_pass(traced=True)
        if tracer:
            tracer.remove()
        while time.perf_counter() - start < args.seconds or len(passes) < MIN_PASSES + n_traced:
            one_pass(traced=False)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness: oracles on pass 0, exact repeats on every later pass
    problems = [f"warm-up op {j} failed: {o!r}" for j, o in enumerate(warm) if is_broken(o)]
    failed_ops = set((-1, j) for j, o in enumerate(warm) if is_broken(o))
    for j, msg in wl.check(first):
        failed_ops.add((0, j))
        problems.append(msg)
    for i, p in enumerate(passes):
        failed_ops.update((i, j) for j in p.broken)
        problems += [f"pass {i} op {j} failed" + (f": {first[j]!r}" if i == 0 else "") for j in p.broken]
        for j, fp in enumerate(p.prints):
            if fp != passes[0].prints[j] and j not in p.broken:
                failed_ops.add((i, j))
                problems.append(f"pass {i} op {j} differs from pass 0")

    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    untraced = [p for p in passes if p.spans is None]
    if args.trace:
        traced = [p for p in passes if p.spans is not None]
        metrics, counts = per_layer(tracer, traced, untraced, cli_bytes(warm))
        per_pass = [per_pass_counts(tracer, p) for p in traced]
        if any(c != per_pass[0] for c in per_pass):
            problems.append("traced counts differ between traced passes")
        # the same code and seed must give the same counts in every run
        ref = OUT / f"counts-{tag}-{code_digest()}.json"
        if ref.exists() and json.loads(ref.read_text()) != counts:
            problems.append(f"traced counts differ from an earlier run ({ref.name})")
        ref.write_text(json.dumps(counts, sort_keys=True))
        tracer.write(OUT / f"spans-{wl.name}.tsv.gz")
    else:
        metrics = end_to_end(wl, passes, setup, peak_rss_mb)

    correct = not problems
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    lat = [t for p in untraced for t in op_times(p, wl.calls_per_op)]
    detail = {
        **result,
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "passes": len(passes), "pass_walls": [p.wall for p in passes], "setup_samples": setup,
        "latency_ms": [[t * 1e3 for t in op_times(p, wl.calls_per_op)] for p in passes],
        "machine": facts, "problems": problems[:50],
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"machine: {json.dumps(facts)}")
    print(f"workload {wl.name} seed {args.seed}: {len(passes)} passes, {len(lat)} latency samples, "
          f"{ops.attempted} ops, {len(failed_ops)} failed, fail_ratio = {len(failed_ops) / ops.attempted:.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; non-zero if any fails."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def end_to_end(wl, passes, setup, peak_rss_mb) -> dict:
    lat_ms = [t * 1e3 for p in passes for t in op_times(p, wl.calls_per_op)]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "primary_per_s": statistics.median(wl.items["primary"] / sum(p.stage_s["primary"]) for p in passes),
        "secondary_per_s": statistics.median(wl.items["secondary"] / sum(p.stage_s["secondary"]) for p in passes),
        "op_p50_ms": percentile(lat_ms, 0.50),
        "op_p95_ms": percentile(lat_ms, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_pass_counts(tracer, p) -> dict:
    """Calls, rows and table height per traced function in one pass, and bytes out."""
    summ = tracer.summary(*p.spans)
    return {"bytes": p.bytes_out, **{n: [calls, rows, height] for n, (calls, rows, _, height) in summ.items()}}


def per_layer(tracer, traced, untraced, warm_bytes):
    """Per-layer metrics over the traced section: set-up, warm-up, traced passes.

    Also returns the counts among them, which must repeat exactly.
    """
    summ = tracer.summary()
    metrics = {}
    counts = {}
    for name, (calls, rows, self_ns, _height) in summ.items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        if name in ROW_NAMES:
            metrics[f"{name}.rows"] = {"value": rows, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_ns / 1e9, "unit": "s"}
        counts[name] = [calls, rows]
    height = max(summ[n][3] for n in ("_kernels.dual_counts", "_kernels.member_flags", "_kernels.digit_matrix"))
    counts["cli.bytes_out"] = warm_bytes + sum(p.bytes_out for p in traced)
    counts["_kernels.table_height"] = height
    counts["trace.spans"] = len(tracer.spans)
    metrics["cli.bytes_out"] = {"value": counts["cli.bytes_out"], "unit": "bytes"}
    metrics["_kernels.table_height"] = {"value": height, "unit": "count"}
    overhead = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    return metrics, counts


if __name__ == "__main__":
    sys.exit(main())
