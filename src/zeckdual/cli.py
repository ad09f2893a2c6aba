"""Command-line front end.

Subcommands: ``expand`` (digit expansion of one integer), ``count`` (the
exact expressibility count, closed-form or brute), ``info`` (scalar
constants of a pair), ``extremes`` (candidate table and limit bounds),
``scan`` (CSV stream of count ratios for plotting), ``stats`` (histogram /
CDF of a scan), ``verify`` (oracle suite).  Data goes to stdout,
diagnostics to stderr; exit codes: 0 ok, 1 verification failure, 2 usage
error.  Output is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .digits import DigitRule, RuleError, format_digits
from .duality import SubcollectionError, SystemPair
from .extremal import (
    extremes,
    generating_identity_check,
    measure_check,
    measure_tail_bound,
)
from .numeration import Numeration
from .spectra import derived_constants


def _float_digits() -> int:
    raw = os.environ.get("ZECK_FLOAT_DIGITS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 12


def fmt(x: float) -> str:
    """Fixed significant-digit float formatting (lowercase exponent)."""
    return f"{x:.{_float_digits()}g}"


def _parse_rule(text: str) -> DigitRule:
    return DigitRule.parse(text)


def _make_pair(args) -> SystemPair:
    return SystemPair(_parse_rule(args.sub), _parse_rule(args.sup))


def _add_pair_args(sp) -> None:
    sp.add_argument("--sub", required=True, help="sub-system rule list, e.g. 1,0")
    sp.add_argument("--super", dest="sup", required=True, help="super-system rule list, e.g. 1,1")


def cmd_expand(args) -> int:
    rule = _parse_rule(args.list)
    num = Numeration(rule)
    if args.n < 0:
        print(f"error: n must be >= 0, got {args.n}", file=sys.stderr)
        return 2
    print(format_digits(num.encode(args.n)))
    return 0


def cmd_count(args) -> int:
    pair = _make_pair(args)
    if args.x < 1:
        print(f"error: --x must be >= 1, got {args.x}", file=sys.stderr)
        return 2
    if args.brute:
        print(pair.count_expressible_brute(args.x))
    else:
        print(pair.count_expressible(args.x))
    return 0


def _rounded(v):
    if isinstance(v, float):
        return float(fmt(v))
    return v


def cmd_info(args) -> int:
    pair = _make_pair(args)
    consts = derived_constants(pair)
    d = consts.as_dict()
    if not args.json:
        for k, v in d.items():
            print(f"{k}={fmt(v) if isinstance(v, float) else v}")
    print(json.dumps({k: _rounded(v) for k, v in d.items()}))
    return 0


def cmd_extremes(args) -> int:
    pair = _make_pair(args)
    consts = derived_constants(pair)
    report = extremes(pair, consts)
    scale = consts.alpha / consts.alpha_sup**consts.gamma
    rows = sorted(report.all_candidates, key=lambda cv: (-cv[1], cv[0].serialize()))
    if args.json:
        payload = {
            "candidates": [
                {"candidate": c.serialize(), "delta_star": _rounded(v), "scaled": _rounded(scale * v)}
                for c, v in rows
            ],
            "max_candidate": report.max_candidate.serialize(),
            "min_candidate": report.min_candidate.serialize(),
            "delta_max": _rounded(report.delta_max),
            "delta_min": _rounded(report.delta_min),
            "limsup": _rounded(report.limsup),
            "liminf": _rounded(report.liminf),
        }
        print(json.dumps(payload))
        return 0
    print("candidate,delta_star,scaled")
    for c, v in rows:
        print(f"{c.serialize()},{fmt(v)},{fmt(scale * v)}")
    print(f"max_candidate={report.max_candidate.serialize()}")
    print(f"min_candidate={report.min_candidate.serialize()}")
    print(f"delta_max={fmt(report.delta_max)}")
    print(f"delta_min={fmt(report.delta_min)}")
    print(f"limsup={fmt(report.limsup)}")
    print(f"liminf={fmt(report.liminf)}")
    return 0


def cmd_scan(args) -> int:
    pair = _make_pair(args)
    lo, hi, step = args.from_, args.to, args.step
    if not (1 <= lo < hi) or step < 1:
        print(f"error: need 1 <= from < to and step >= 1, got [{lo}, {hi}) step {step}", file=sys.stderr)
        return 2
    gamma = derived_constants(pair).gamma
    out = sys.stdout
    out.write("x,z,ratio\n")
    chunk = 1 << 16
    x = lo
    while x < hi:
        top = min(hi, x + chunk * step)
        xs = list(range(x, top, step))
        zs = pair.counts_at(xs)
        for xi, zi in zip(xs, zs):
            ratio = float(zi) / float(xi) ** gamma
            out.write(f"{xi},{int(zi)},{fmt(ratio)}\n")
        x = top
    return 0


def _stats_emit(ratios_min, ratios_max, counts, total) -> None:
    bins = len(counts)
    width = (ratios_max - ratios_min) / bins
    cum = 0
    print("bin_lo,bin_hi,count,cdf")
    for i, c in enumerate(counts):
        cum += c
        lo = ratios_min + i * width
        hi = ratios_min + (i + 1) * width
        print(f"{fmt(lo)},{fmt(hi)},{c},{fmt(cum / total)}")


def _iter_ratios(handle):
    for line in handle:
        line = line.strip()
        if not line or line.startswith("x,"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed scan row: {line!r}")
        yield float(parts[2])


def cmd_stats(args) -> int:
    if args.bins < 1:
        print(f"error: --bins must be >= 1, got {args.bins}", file=sys.stderr)
        return 2
    if args.csvfile == "-":
        ratios = list(_iter_ratios(sys.stdin))
        if not ratios:
            print("error: empty input", file=sys.stderr)
            return 2
        rmin, rmax = min(ratios), max(ratios)
        source = ratios
        total = len(ratios)
    else:
        # two passes over the file keeps memory flat for huge scans
        rmin = math.inf
        rmax = -math.inf
        total = 0
        with open(args.csvfile) as fh:
            for r in _iter_ratios(fh):
                rmin = min(rmin, r)
                rmax = max(rmax, r)
                total += 1
        if total == 0:
            print("error: empty input", file=sys.stderr)
            return 2
        source = None
    counts = [0] * args.bins
    width = (rmax - rmin) / args.bins

    def tally(r):
        if width > 0:
            idx = min(int((r - rmin) / width), args.bins - 1)
        else:
            idx = 0
        counts[idx] += 1

    if source is not None:
        for r in source:
            tally(r)
    else:
        with open(args.csvfile) as fh:
            for r in _iter_ratios(fh):
                tally(r)
    _stats_emit(rmin, rmax, counts, total)
    return 0


def cmd_verify(args) -> int:
    import numpy as np

    from . import _kernels

    if args.max_x < 1:
        print(f"error: --max-x must be >= 1, got {args.max_x}", file=sys.stderr)
        return 2
    try:
        pair = _make_pair(args)
    except SubcollectionError as e:
        print(f"subcollection: FAIL ({e})", file=sys.stderr)
        return 1
    ok = True

    def report(name, good, detail=""):
        nonlocal ok
        ok = ok and good
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {'ok' if good else 'FAIL'}{suffix}")

    report("subcollection", True)

    max_x = args.max_x
    zs = pair.counts_at(range(1, max_x + 1))
    mask = pair.expressible_mask(0, max_x)
    brute = np.cumsum(mask)
    mism = np.nonzero(zs != brute)[0]
    if len(mism):
        x_bad = int(mism[0]) + 1
        report(
            "duality_vs_brute",
            False,
            f"first mismatch at x={x_bad}: closed={int(zs[mism[0]])} brute={int(brute[mism[0]])}",
        )
    else:
        report("duality_vs_brute", True, f"x=1..{max_x}")

    rng = random.Random(20260822)
    spots = sorted(rng.sample(range(1, max_x + 1), min(max_x, 50)))
    bad = next(
        (x for x in spots if pair.count_expressible(x) != pair.count_expressible_brute(x)),
        None,
    )
    report("exact_spotchecks", bad is None, f"x={bad}" if bad is not None else f"{len(spots)} samples")

    for label, num in (("sub", pair.sub_num), ("super", pair.sup_num)):
        top = min(max_x, 10**5)
        bad_n = next((n for n in range(min(top, 2000) + 1) if num.decode(num.encode(n)) != n), None)
        if bad_n is None and top > 2000:
            ws = np.asarray(num.weights(num.top_index(top)), dtype=np.int64)
            caps = np.asarray(num.rule.entries, dtype=np.int64)
            xs = np.arange(0, top + 1, dtype=np.int64)
            digits = _kernels.digit_matrix(xs, ws, caps)
            vals = digits @ ws
            flags = _kernels.member_flags(xs, ws, caps, caps)
            if not (np.array_equal(vals, xs) and flags.all()):
                bad_n = int(np.nonzero((vals != xs) | ~flags)[0][0])
        report(f"roundtrip_{label}", bad_n is None, f"n=0..{top}" if bad_n is None else f"n={bad_n}")

    report("generating_identity", generating_identity_check(pair.sub, 50), "degree 50")

    consts = derived_constants(pair)
    m = measure_check(pair, consts, 200) + measure_tail_bound(consts, 200)
    report("measure", abs(m - 1.0) < 1e-6, f"partial+tail={fmt(m)}")

    for label, rule in (("sub", pair.sub), ("super", pair.sup)):
        from .spectra import char_poly, dominant_root

        root = dominant_root(char_poly(rule))
        w = 1.0 / root
        ent = rule.entries
        N = len(ent)
        norm = sum(e * w**k for k, e in enumerate(ent, start=1)) / (1.0 - w**N)
        report(f"normalization_{label}", abs(norm - 1.0) < 1e-10, f"value={fmt(norm)}")

    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zeckdual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="greedy digit expansion of an integer")
    sp.add_argument("--list", required=True, help="rule list, e.g. 1,0")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("count", help="count expressible integers below x")
    _add_pair_args(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--brute", action="store_true", help="count by scanning every n")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("info", help="scalar constants of a pair")
    _add_pair_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("extremes", help="extremal candidate table and limit bounds")
    _add_pair_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_extremes)

    sp = sub.add_parser("scan", help="CSV stream of x,z,ratio")
    _add_pair_args(sp)
    sp.add_argument("--from", dest="from_", type=int, required=True)
    sp.add_argument("--to", type=int, required=True)
    sp.add_argument("--step", type=int, default=1)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("stats", help="histogram and CDF of scan ratios")
    sp.add_argument("csvfile", nargs="?", default="-", help="scan CSV path, or - for stdin")
    sp.add_argument("--bins", type=int, default=200)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("verify", help="oracle suite for one pair")
    _add_pair_args(sp)
    sp.add_argument("--max-x", dest="max_x", type=int, required=True)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SubcollectionError as e:
        if args.command == "verify":
            print(f"subcollection: FAIL ({e})", file=sys.stderr)
            return 1
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuleError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
