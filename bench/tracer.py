"""Span tracer that wraps the package's public functions from outside.

Nothing in ``src/`` knows about it: ``Tracer.install`` replaces each target
with a wrapper at every place the name is looked up (the defining module,
every package module that imported it by name, or the class for methods),
and ``Tracer.remove`` puts the originals back.  Each call records one span
``(name, start_ns, end_ns, parent, rows, height)`` in memory; the spans are
written out only when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time


def _rows_arg1(args):
    return len(args[1]), 0


def _mask_rows(args):
    return args[2] - args[1], 0


def _kernel_rows(args):
    # (rows, table height): the kernels take (xs, weights, ...)
    return len(args[0]), len(args[1])


def targets(zd):
    """``(metric name, owner, attribute, size)`` for every wrapped function.

    ``size(args)`` returns ``(rows, table height)`` for the functions whose
    work is a batch; ``None`` means the call is counted but has no rows.
    """
    pair = zd.duality.SystemPair
    num = zd.numeration.Numeration
    return [
        ("cli.cmd_scan", zd.cli, "cmd_scan", None),
        ("cli.cmd_stats", zd.cli, "cmd_stats", None),
        ("cli.cmd_verify", zd.cli, "cmd_verify", None),
        ("duality.SystemPair", pair, "__init__", None),
        ("duality.counts_at", pair, "counts_at", _rows_arg1),
        ("duality.expressible_mask", pair, "expressible_mask", _mask_rows),
        ("duality.count_expressible", pair, "count_expressible", None),
        ("duality.count_expressible_brute", pair, "count_expressible_brute", None),
        ("duality.ceil_member", pair, "ceil_member", None),
        ("_kernels.dual_counts", zd._kernels, "dual_counts", _kernel_rows),
        ("_kernels.member_flags", zd._kernels, "member_flags", _kernel_rows),
        ("_kernels.digit_matrix", zd._kernels, "digit_matrix", _kernel_rows),
        ("numeration.encode", num, "encode", None),
        ("numeration.decode", num, "decode", None),
        ("digits.is_member", zd.digits, "is_member", None),
        ("digits.decompose", zd.digits, "decompose", None),
        ("spectra.derived_constants", zd.spectra, "derived_constants", None),
        ("extremal.extremes", zd.extremal, "extremes", None),
        ("extremal.delta_star", zd.extremal, "delta_star", None),
    ]


ROW_NAMES = ("duality.counts_at", "duality.expressible_mask", "_kernels.dual_counts",
             "_kernels.member_flags", "_kernels.digit_matrix")


class Tracer:
    """Wraps the targets while installed and keeps every span in memory."""

    def __init__(self, zd):
        self.zd = zd
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "zeckdual" or n.startswith("zeckdual.")]
        for name, owner, attr, size in targets(self.zd):
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, size)
            # a module-level function is looked up in every module that
            # imported it by name, so patch each of those bindings
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for o in owners:
                self._patched.append((o, attr, original))
                setattr(o, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            rows, height = size(args) if size else (0, 0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, rows, height)

        return traced

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per name ``[calls, rows, self_ns, max height]`` over spans ``lo:hi``."""
        own = self.self_ns()
        hi = len(self.spans) if hi is None else hi
        out = {name: [0, 0, 0, 0] for name, *_ in targets(self.zd)}
        for i in range(lo, hi):
            name, _, _, _, rows, height = self.spans[i]
            agg = out[name]
            agg[0] += 1
            agg[1] += rows
            agg[2] += own[i]
            agg[3] = max(agg[3], height)
        return out

    def write(self, path) -> None:
        """Spans as gzipped TSV, one line each, ids in start order."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\trows\n")
            for i, (name, t0, t1, parent, rows, _) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0}\t{t1}\t{rows}\n")
