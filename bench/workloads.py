"""The four workloads: seeded inputs, one pass of work, and the output checks.

Every workload is a closed loop with one caller: each call into the package
starts when the previous one has returned.  A run replays the same seeded
pass until its time is up.  Each pass has two stages, ``primary`` and
``secondary``; the primary stage's ops are the latency samples, an op
being ``calls_per_op`` consecutive primary calls.

- ``scan``: the README pipeline through ``cli.main``: ``scan`` over seeded
  5000-row windows of the binary pair, then ``stats --bins 200`` over the
  CSV.  Mostly per-row formatting in ``cli``, the rest batch counts.
- ``batch``: ``counts_at`` on seeded uniform x in [1, 10^7) and one
  ``expressible_mask`` window, for each reference pair.  Bound by
  ``_kernels``; no formatting.
- ``exact``: ``count_expressible`` at seeded 300-digit x, which no int64
  kernel can serve, then ``verify``, whose brute spot checks run the scalar
  codec (``encode``/``decode``/``is_member``/``ceil_member``).
- ``envelope``: ``derived_constants`` and ``extremes`` on six pairs.  The
  only workload that runs ``spectra`` and ``extremal``; no count path.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys

from oracles import (
    BINARY_GAMMA,
    ENVELOPE,
    README_BINARY,
    binary_prefix_counts,
    binary_z,
    char_residual,
    fibonacci,
    histogram_counts,
)

# the three pairs the test suite exercises everywhere (tests/conftest.py)
REFERENCE_PAIRS = {
    "binary": ((1, 0), (1, 1)),
    "third": ((1, 1, 0), (2, 2, 2)),
    "nonbase": ((2, 0, 1), (10, 4)),
}
ENVELOPE_PAIRS = {
    **REFERENCE_PAIRS,
    "110/11": ((1, 1, 0), (1, 1)),
    "22/33": ((2, 2), (3, 3)),
    "20/21": ((2, 0), (2, 1)),
}
BINARY_ARGS = ["--sub", "1,0", "--super", "1,1"]


class Failed:
    """Stands in for the output of a call that raised."""

    def __init__(self, error: str):
        self.error = error

    def __repr__(self):
        return f"Failed({self.error})"


class CliRun:
    """Exit code and captured output of one ``cli.main`` call."""

    def __init__(self, rc, stdout, stderr):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr

    def __repr__(self):
        return f"CliRun(rc={self.rc}, stderr={self.stderr[-200:]!r})"


def run_cli(cli, argv, stdin_text=None) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return CliRun(rc, out.getvalue(), err.getvalue())


def is_member(zd, pair, n: int) -> bool:
    """Scalar membership of n's sup expansion in the sub system."""
    return zd.digits.is_member(pair.sub, pair.sup_num.encode(n))


def sample(rng: random.Random, population, k: int):
    return rng.sample(population, min(k, len(population)))


class Workload:
    """Base: ``pair_rules`` to build, a seeded pass, and its checks.

    ``items`` gives the work one pass does in each stage, the numerator of
    the stage's rate.  ``calls_per_op`` primary calls in a row make one
    latency sample.  ``check`` returns ``(op index, message)`` for every
    output of a pass that is wrong.
    """

    name = ""
    pair_rules: dict = {}
    items: dict = {}
    calls_per_op = 1

    def __init__(self, zd, seed: int, smoke: bool):
        self.zd = zd
        self.seed = seed
        self.pairs = {}

    def setup(self) -> None:
        self.pairs = {n: self.zd.SystemPair(sub, sup) for n, (sub, sup) in self.pair_rules.items()}

    def run_pass(self, ops) -> list:
        raise NotImplementedError

    def check(self, outs) -> list:
        raise NotImplementedError


class Scan(Workload):
    name = "scan"
    pair_rules = {"binary": REFERENCE_PAIRS["binary"]}

    def __init__(self, zd, seed, smoke):
        super().__init__(zd, seed, smoke)
        windows, rows = (3, 200) if smoke else (15, 5000)
        rng = random.Random(seed)
        # window 0 starts at 1 so the brute oracle reaches some rows; the
        # others are stratified over [1, 10^6) so every seed scans numbers
        # of the same sizes
        span = (10**6 - rows) // windows
        starts = [1] + [k * span + rng.randrange(1, span) for k in range(1, windows)]
        self.windows = [(a, a + rows) for a in starts]
        self.items = {"primary": windows * rows, "secondary": windows * rows}
        self.bins = 200

    def run_pass(self, ops):
        cli = self.zd.cli
        outs = [
            ops.call("primary", run_cli, cli, ["scan", *BINARY_ARGS, "--from", str(a), "--to", str(b)])
            for a, b in self.windows
        ]
        csv = "".join(o.stdout for o in outs if isinstance(o, CliRun))
        outs.append(ops.call("secondary", run_cli, cli, ["stats", "--bins", str(self.bins)], csv))
        return outs

    def check(self, outs):
        bad = []
        rng = random.Random(self.seed + 1)
        ref = binary_prefix_counts(max(b for _, b in self.windows))
        pair = self.pairs["binary"]
        gamma = self.zd.spectra.derived_constants(pair).gamma
        if not math.isclose(gamma, BINARY_GAMMA, rel_tol=1e-12):
            bad.append((0, f"binary gamma {gamma!r} != log(phi)/log(2)"))
        rows = []  # (op index, x, z) of every row, across windows
        ratios = []
        for j, ((a, b), out) in enumerate(zip(self.windows, outs)):
            if not isinstance(out, CliRun) or out.rc != 0:
                continue
            lines = out.stdout.splitlines()
            if lines[0] != "x,z,ratio" or len(lines) != b - a + 1:
                bad.append((j, f"scan [{a},{b}): header or row count wrong"))
                continue
            for x, line in zip(range(a, b), lines[1:]):
                xs, zs, rs = line.split(",")
                z, r = int(zs), float(rs)
                ratios.append(r)
                rows.append((j, x, z))
                # the ratio must read the same to the last printed digit
                if (int(xs) != x or z != ref[x] or f"{z / x**gamma:.12g}" != rs
                        or not math.isclose(r, z / x**BINARY_GAMMA, rel_tol=1e-9)):
                    bad.append((j, f"scan row {line!r}: expected z={ref[x]}"))
                    break
        # the package's own scalar closed form and brute scan on a sample
        for j, x, z in sample(rng, rows, 1000):
            if pair.count_expressible(x) != z:
                bad.append((j, f"scan z({x})={z} != count_expressible"))
        for j, x, z in sample(rng, [r for r in rows if r[1] <= 5000], 10):
            if pair.count_expressible_brute(x) != z:
                bad.append((j, f"scan z({x})={z} != count_expressible_brute"))
        stats = outs[-1]
        j = len(outs) - 1
        if isinstance(stats, CliRun) and stats.rc == 0 and ratios:
            lines = stats.stdout.splitlines()
            got = [int(line.split(",")[2]) for line in lines[1:]]
            if lines[0] != "bin_lo,bin_hi,count,cdf" or got != histogram_counts(ratios, self.bins):
                bad.append((j, "stats histogram counts differ from the oracle"))
            elif lines[-1].split(",")[3] != "1":
                bad.append((j, f"stats last cdf {lines[-1]!r} is not 1"))
        return bad


class Batch(Workload):
    name = "batch"
    pair_rules = REFERENCE_PAIRS

    def __init__(self, zd, seed, smoke):
        super().__init__(zd, seed, smoke)
        chunks, rows, mask_rows = (2, 500, 2000) if smoke else (5, 10_000, 100_000)
        rng = random.Random(seed)
        self.chunks = {
            n: [[rng.randrange(1, 10**7) for _ in range(rows)] for _ in range(chunks)]
            for n in self.pair_rules
        }
        self.masks = {}
        for n in self.pair_rules:
            lo = rng.randrange(0, 10**6 - mask_rows)
            self.masks[n] = (lo, lo + mask_rows)
        self.items = {"primary": len(self.pair_rules) * chunks * rows,
                      "secondary": len(self.pair_rules) * mask_rows}

    def run_pass(self, ops):
        outs = []
        for n, pair in self.pairs.items():
            for xs in self.chunks[n]:
                outs.append(ops.call("primary", pair.counts_at, xs))
            outs.append(ops.call("secondary", pair.expressible_mask, *self.masks[n]))
        return outs

    def check(self, outs):
        bad = []
        rng = random.Random(self.seed + 1)
        zd = self.zd
        j = 0
        for n, pair in self.pairs.items():
            rows = []
            for xs in self.chunks[n]:
                out = outs[j]
                if not isinstance(out, Failed):
                    rows += [(j, x, int(z)) for x, z in zip(xs, out)]
                    if len(out) != len(xs):
                        bad.append((j, f"{n}: counts_at returned {len(out)} rows for {len(xs)}"))
                j += 1
            for k, x, z in sample(rng, rows, 400):
                if pair.count_expressible(x) != z:
                    bad.append((k, f"{n}: counts_at z({x})={z} != count_expressible"))
                elif n == "binary" and binary_z(x) != z:
                    bad.append((k, f"{n}: counts_at z({x})={z} != bit oracle {binary_z(x)}"))
            for k, x, z in sample(rng, rows, 100):
                if pair.count_expressible(x + 1) - z != is_member(zd, pair, x):
                    bad.append((k, f"{n}: z({x}+1)-z({x}) disagrees with is_member"))
            small = sorted(rng.randrange(1, 5001) for _ in range(3))
            if [int(z) for z in pair.counts_at(small)] != [pair.count_expressible_brute(x) for x in small]:
                bad.append((j - 1, f"{n}: counts_at{small} != count_expressible_brute"))
            lo, hi = self.masks[n]
            mask = outs[j]
            if not isinstance(mask, Failed):
                expect = pair.count_expressible(hi) - (pair.count_expressible(lo) if lo else 0)
                if len(mask) != hi - lo or int(mask.sum()) != expect:
                    bad.append((j, f"{n}: mask [{lo},{hi}) sums to {int(mask.sum())}, closed form {expect}"))
                for v in sample(rng, range(lo, hi), 400):
                    if bool(mask[v - lo]) != is_member(zd, pair, v):
                        bad.append((j, f"{n}: mask at {v} != is_member"))
                        break
            j += 1
        return bad


class Exact(Workload):
    name = "exact"
    pair_rules = REFERENCE_PAIRS

    def __init__(self, zd, seed, smoke):
        super().__init__(zd, seed, smoke)
        per_pair, digits, self.max_x = (3, 300, 100) if smoke else (100, 300, 500)
        rng = random.Random(seed)
        self.xs = {n: [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(per_pair)]
                   for n in self.pair_rules}
        self.items = {"primary": len(self.pair_rules) * per_pair, "secondary": self.max_x}

    def run_pass(self, ops):
        outs = []
        for n, pair in self.pairs.items():
            outs += [ops.call("primary", pair.count_expressible, x) for x in self.xs[n]]
        outs.append(ops.call("secondary", run_cli, self.zd.cli, ["verify", *BINARY_ARGS, "--max-x", str(self.max_x)]))
        return outs

    def check(self, outs):
        bad = []
        rng = random.Random(self.seed + 1)
        zd = self.zd
        j = 0
        for n, pair in self.pairs.items():
            got = list(zip(range(j, j + len(self.xs[n])), self.xs[n], outs[j:]))
            j += len(self.xs[n])
            got = [(k, x, z) for k, x, z in got if not isinstance(z, Failed)]
            for k, x, z in got:
                if not 0 <= z <= x or (n == "binary" and z != binary_z(x)):
                    bad.append((k, f"{n}: z at a {len(str(x))}-digit x is wrong"))
            # one step at huge x: z(x+1) - z(x) is membership of x itself
            for k, x, z in sample(rng, got, 10):
                step = pair.count_expressible(x + 1) - z
                if step != is_member(zd, pair, x):
                    bad.append((k, f"{n}: z(x+1)-z(x)={step} disagrees with is_member"))
        binary = self.pairs["binary"]
        ks = list(range(65)) + sorted(rng.sample(range(65, 1000), 40)) + [1000]
        for k in ks:
            if binary.count_expressible(2**k) != fibonacci(k + 2):
                bad.append((0, f"binary: z(2^{k}) != F({k + 2})"))
                break
        verify = outs[j]
        if isinstance(verify, CliRun) and verify.rc == 0:
            lines = verify.stdout.splitlines()
            if len(lines) < 9 or not all(": ok" in line for line in lines):
                bad.append((j, "verify printed a check that is not ok"))
        return bad


class Envelope(Workload):
    name = "envelope"
    pair_rules = ENVELOPE_PAIRS

    def __init__(self, zd, seed, smoke):
        super().__init__(zd, seed, smoke)
        if smoke:
            self.pair_rules = REFERENCE_PAIRS
        # The six pairs are the whole input, so the seed changes nothing here.
        # Their order is fixed too: a call right after the 67,260-candidate
        # pair runs about 1.6x slower, so a seeded order would add spread.
        self.order = list(self.pair_rules)
        # A latency sample is the envelope of all six pairs, one pass's
        # extremes calls together.  Single calls are a poor sample: their
        # times cluster by pair four orders of magnitude apart, so any
        # percentile of them sits on the edge of a cluster, and there are
        # only a few calls of each pair in a run.
        self.calls_per_op = len(self.order)
        # derived_constants is sub-millisecond, so each pair repeats it to
        # give the secondary stage a time well above the clock's jitter
        self.repeats = 2 if smoke else 50
        self.items = {"primary": len(self.order), "secondary": len(self.order) * self.repeats}

    def _extremes(self, pair, consts):
        rep = self.zd.extremal.extremes(pair, consts)
        return rep.limsup, rep.liminf, rep.max_candidate.serialize(), rep.min_candidate.serialize()

    def run_pass(self, ops):
        outs = []
        for n in self.order:
            pair = self.pairs[n]
            for _ in range(self.repeats):
                outs.append(ops.call("secondary", self.zd.spectra.derived_constants, pair))
            outs.append(ops.call("primary", self._extremes, pair, outs[-1]))
        return outs

    def check(self, outs):
        bad = []
        j = 0
        for n in self.order:
            pair = self.pairs[n]
            consts = outs[j + self.repeats - 1]
            j += self.repeats
            if not isinstance(consts, Failed):
                if (char_residual(pair.sub.entries, consts.phi) > 1e-12
                        or char_residual(pair.sup.entries, consts.phi_sup) > 1e-12
                        or not math.isclose(consts.gamma, math.log(consts.phi) / math.log(consts.phi_sup),
                                            rel_tol=1e-12)):
                    bad.append((j - 1, f"{n}: derived constants fail the characteristic polynomial"))
            rep = outs[j]
            if not isinstance(rep, Failed):
                sup, inf, cmax, cmin = ENVELOPE[n]
                if not (math.isclose(rep[0], sup, rel_tol=1e-9) and math.isclose(rep[1], inf, rel_tol=1e-9)
                        and rep[2:] == (cmax, cmin)):
                    bad.append((j, f"{n}: extremes {rep} != {ENVELOPE[n]}"))
                if n == "binary" and (f"{rep[0]:.12g}", f"{rep[1]:.12g}") != README_BINARY:
                    bad.append((j, f"binary: bounds {rep[:2]} do not print as the README's"))
            j += 1
        return bad


WORKLOADS = {w.name: w for w in (Scan, Batch, Exact, Envelope)}


def warm_up(zd, ops) -> list:
    """Call every entry point once at tiny size, so lazy set-up is done.

    In a traced run this also gives every traced function a span on every
    workload, including the ones a workload itself bypasses.
    """
    pair = zd.SystemPair((1, 0), (1, 1))
    scan = ops.call("warmup", run_cli, zd.cli, ["scan", *BINARY_ARGS, "--from", "1", "--to", "200"])
    consts = ops.call("warmup", zd.spectra.derived_constants, pair)
    return [
        scan,
        ops.call("warmup", run_cli, zd.cli, ["stats", "--bins", "20"], getattr(scan, "stdout", "")),
        ops.call("warmup", run_cli, zd.cli, ["verify", *BINARY_ARGS, "--max-x", "30"]),
        ops.call("warmup", pair.counts_at, list(range(1, 100))),
        ops.call("warmup", pair.expressible_mask, 0, 100),
        ops.call("warmup", pair.count_expressible, 10**30),
        ops.call("warmup", pair.count_expressible_brute, 50),
        consts,
        ops.call("warmup", zd.extremal.extremes, pair, consts),
    ]
