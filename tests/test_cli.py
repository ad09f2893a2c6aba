import hashlib
import io
import json
import math
import sys
import time

import pytest

from zeckdual import DigitRule, Numeration, SystemPair, cli, format_digits
from zeckdual.extremal import extremes

from conftest import ENVELOPE_RULES, PAIR_RULES

BINARY = ["--sub", "1,0", "--super", "1,1"]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, ["expand", "--list", "1,0", "100"])
    assert code == 0
    assert out == "3:1,5:1,10:1\n"


def test_expand_zero(capsys):
    code, out, _ = run(capsys, ["expand", "--list", "2,3,0", "0"])
    assert code == 0
    assert out == "\n"


def test_expand_negative(capsys):
    code, out, err = run(capsys, ["expand", "--list", "1,0", "--", "-5"])
    assert code == 2
    assert "n must be >= 0" in err


def test_count(capsys):
    code, out, _ = run(capsys, ["count", *BINARY, "--x", "100"])
    assert (code, out) == (0, "34\n")


def test_count_brute_agrees(capsys):
    code, out, _ = run(capsys, ["count", *BINARY, "--x", "100", "--brute"])
    assert (code, out) == (0, "34\n")


def test_count_x_zero(capsys):
    code, _, err = run(capsys, ["count", *BINARY, "--x", "0"])
    assert code == 2
    assert "--x must be >= 1" in err


def test_info_keys_and_json_line(capsys):
    code, out, _ = run(capsys, ["info", *BINARY])
    assert code == 0
    lines = out.strip().split("\n")
    kv = dict(line.split("=", 1) for line in lines[:-1])
    assert float(kv["phi"]) == pytest.approx(1.6180339887, abs=1e-9)
    assert float(kv["phi_sup"]) == pytest.approx(2.0, abs=1e-12)
    assert float(kv["gamma"]) == pytest.approx(0.6942419136, abs=1e-9)
    assert float(kv["rho"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert kv["p"] == "2"
    assert kv["p_dagger"] == "2"
    payload = json.loads(lines[-1])
    assert payload["p"] == 2
    assert payload["omega"] == pytest.approx(1 / 1.6180339887, abs=1e-9)
    assert set(payload) == {
        "phi", "phi_sup", "omega", "omega_sup", "gamma",
        "alpha", "alpha_sup", "rho", "p", "p_star", "p_dagger",
    }


def test_info_json_only(capsys):
    code, out, _ = run(capsys, ["info", *BINARY, "--json"])
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["p_star"] == pytest.approx(4.9979, abs=1e-3)


def test_extremes_table(capsys):
    code, out, _ = run(capsys, ["extremes", *BINARY])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "candidate,delta_star,scaled"
    rows = [line.split(",") for line in lines[1 : len(lines) - 6]]
    assert [r[0] for r in rows] == ["tail@1", "1:1+tail@4", "1:1+tail@5", "1:1"]
    deltas = [float(r[1]) for r in rows]
    assert deltas == sorted(deltas, reverse=True)
    tail = dict(line.split("=", 1) for line in lines[-6:])
    assert tail["max_candidate"] == "tail@1"
    assert tail["min_candidate"] == "1:1"
    assert float(tail["limsup"]) == pytest.approx(1.5514586, abs=1e-6)
    assert float(tail["liminf"]) == pytest.approx(1.1708203, abs=1e-6)


def test_extremes_json(capsys):
    code, out, _ = run(capsys, ["extremes", *BINARY, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_candidate"] == "tail@1"
    assert payload["delta_max"] == pytest.approx(1.3251039, abs=1e-6)
    names = [c["candidate"] for c in payload["candidates"]]
    assert names[0] == "tail@1"
    assert "1:1" in names


def test_extremes_refuses_huge_candidate_list(capsys):
    # about 10^100 candidate strings; enumerating them would never finish
    start = time.monotonic()
    code, out, err = run(capsys, ["extremes", "--sub", "3,3,2", "--super", "3,3"])
    assert time.monotonic() - start < 10
    assert code == 2
    assert out == ""
    assert "error: extremes would generate more than 1000000 candidate strings" in err


# sha256 of ``extremes`` stdout at the default 12 digits, recorded with the
# tiling recursion and the finite-string box that the block walk replaced;
# the 22/33 pair and the 20/21 json, with the per-candidate scoring that the
# in-walk sums replaced
EXTREMES_GOLDEN = {
    ("binary", "text"): "2467aeade26ff06f9a132e3d17bf752e41e86a949c9516cbd686211ddd110614",
    ("binary", "json"): "0690c152c543b8ea27e5f74e736004bb2bebae76c84dbbdf76b61953369a2eb0",
    ("third", "text"): "92b6dd107338178c4d3fb1b8ba4005e92b18c62427bdf4b943b2621894b211e1",
    ("third", "json"): "c22518c4406d4d00722fe18a23b83f756a37512ccb20e538614d93176bd9840b",
    ("nonbase", "text"): "b76e2667d3faff76ccf40c8cd3b7cb90c515a23f365fc08650b4f981052e5914",
    ("nonbase", "json"): "e1a69d05953c41bf18e1081cf51057f0260b95334b9f3aead29d677aa8ba95fe",
    ("110/11", "text"): "5ec14f7a9f36e5895fd9a3ae704114207cb09500f1ad90ddafba81e5b00b795c",
    ("110/11", "json"): "5cd1fe796dd496e1bfd57e46c1c233ac7d62c1a64a5606f45770ab38db1f1c1b",
    ("200/230", "text"): "7cf95cbd69aca265882cbaf2af3ef3b5d14a4e70099570b2584949e0e4e8075d",
    ("200/230", "json"): "cee4869db8357e10af9581f7dd15e630e19c79b863c2368149b035c2c082ea27",
    # 67,260 candidates, 338 of them finite strings
    ("20/21", "text"): "04641d4f76fb181295e8764324c6def6ca564dfb9dcd1af4541390f47601b178",
    ("20/21", "json"): "3b1d7f4ecd3fc72a524befc49a2abf117af3b5f54cc1204801c3f13c6003f4b6",
    ("22/33", "text"): "5a6639baeab5c1c7c5f33e958fb301b5bee90b8375e5a34aa4ee2b08dda8cdbf",
    ("22/33", "json"): "88813f9e8cf5c93a66800dc6cc3635cc2b12eb7594f73344ec947dfc86d9fa5d",
}
GOLDEN_PAIRS = {**ENVELOPE_RULES, "200/230": ((2, 0, 0), (2, 3, 0))}


@pytest.mark.parametrize("name,form", sorted(EXTREMES_GOLDEN))
def test_extremes_golden_output(capsys, monkeypatch, name, form):
    monkeypatch.delenv("ZECK_FLOAT_DIGITS", raising=False)
    sub, sup = (",".join(map(str, r)) for r in GOLDEN_PAIRS[name])
    code, out, _ = run(capsys, ["extremes", "--sub", sub, "--super", sup] + (["--json"] if form == "json" else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTREMES_GOLDEN[name, form]


def _int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _decimal(z: int) -> str:
    """Decimal digits of z, built in chunks below Python's int/str limit."""
    chunks = []
    while z >= 10**1000:
        z, r = divmod(z, 10**1000)
        chunks.append(f"{r:01000d}")
    return str(z) + "".join(reversed(chunks))


def test_count_past_int_str_limit(capsys):
    limit = _int_str_limit()
    code, out, err = run(capsys, ["count", *BINARY, "--x", "1" + "0" * 7000])
    assert (code, err) == (0, "")
    assert out == _decimal(SystemPair((1, 0), (1, 1)).count_expressible(10**7000)) + "\n"
    assert _int_str_limit() == limit
    with pytest.raises(SystemExit):  # argparse refuses; the limit comes back all the same
        cli.main(["count", *BINARY, "--x", "seven"])
    assert _int_str_limit() == limit


def test_expand_past_int_str_limit(capsys):
    n = 10**4999 + 12345
    limit = _int_str_limit()
    code, out, _ = run(capsys, ["expand", "--list", "1,0", "1" + "0" * 4994 + "12345"])
    assert code == 0
    assert out == format_digits(Numeration(DigitRule((1, 0))).encode(n)) + "\n"
    assert _int_str_limit() == limit


def test_scan_single_row(capsys):
    code, out, _ = run(capsys, ["scan", *BINARY, "--from", "1", "--to", "2"])
    assert code == 0
    assert out == "x,z,ratio\n1,1,1\n"


def test_scan_rows_and_determinism(capsys):
    argv = ["scan", *BINARY, "--from", "1", "--to", "200", "--step", "3"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "x,z,ratio"
    assert len(lines) == 1 + len(range(1, 200, 3))
    x, z, ratio = lines[4].split(",")
    pair_z = int(z)
    assert int(x) == 10
    gamma = 0.6942419136306173
    assert float(ratio) == pytest.approx(pair_z / 10**gamma, rel=1e-9)


def test_scan_bad_range(capsys):
    code, _, err = run(capsys, ["scan", *BINARY, "--from", "5", "--to", "5"])
    assert code == 2
    assert "need 1 <= from < to" in err


def test_stats_roundtrip(tmp_path, capsys):
    scan_code, scan_out, _ = run(capsys, ["scan", *BINARY, "--from", "1", "--to", "500"])
    assert scan_code == 0
    csv = tmp_path / "scan.csv"
    csv.write_text(scan_out)
    code, out, _ = run(capsys, ["stats", str(csv), "--bins", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count,cdf"
    assert len(lines) == 5
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 499
    assert float(lines[-1].split(",")[3]) == pytest.approx(1.0, abs=1e-12)
    # bins tile [min, max] in order
    los = [float(line.split(",")[0]) for line in lines[1:]]
    assert los == sorted(los)


def test_stats_stdin_single_row(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x,z,ratio\n5,3,0.9\n"))
    code, out, _ = run(capsys, ["stats", "--bins", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "0.9,0.9,1,1"


def test_stats_empty_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, ["stats"])
    assert code == 2
    assert "empty input" in err


def test_stats_malformed_row(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("x,z,ratio\n1,2\n")
    code, _, err = run(capsys, ["stats", str(csv)])
    assert code == 2
    assert "malformed" in err


def test_stats_missing_file(capsys):
    code, _, err = run(capsys, ["stats", "/nonexistent/scan.csv"])
    assert code == 2


def run_stats(capsys, monkeypatch, tmp_path, csv_text, source, bins=200):
    """``stats --bins`` over csv_text, read from stdin or from a file."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(csv_text))
        return run(capsys, ["stats", "--bins", str(bins)])
    path = tmp_path / "scan.csv"
    path.write_text(csv_text)
    return run(capsys, ["stats", str(path), "--bins", str(bins)])


# sha256 of ``stats --bins <n>`` stdout over the binary ``scan --from 1
# --to 3000 --step 7`` CSV, recorded with the per-row Python tally
STATS_GOLDEN = {
    1: "2ef2362a5d97dc1a684c840aecbc30c2c371ab21b55fe7b58240b4cfd81ab172",
    7: "21f848c3a61bffef6e512ceb93487a5dc398762432155725fc9008dbf6ba12a6",
    200: "684d40cb501325295a274fd01bcae690810d2c6160332a9948a9e9924c0ddbaa",
}


@pytest.mark.parametrize("bins", sorted(STATS_GOLDEN))
def test_stats_golden_output(capsys, monkeypatch, tmp_path, bins):
    code, csv_text, _ = run(capsys, ["scan", *BINARY, "--from", "1", "--to", "3000", "--step", "7"])
    assert code == 0
    outs = [run_stats(capsys, monkeypatch, tmp_path, csv_text, source, bins) for source in ("stdin", "file")]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_GOLDEN[bins]


# 140,000 rows: three counts_at calls in scan, three float64 chunks in stats;
# sha256 recorded with the per-row scan and stats loops
MANY_CHUNKS_SCAN = "b96be7345f7bdc304322172251fec5b810c8efb1d33269d11eff06c6b20ae2e6"
MANY_CHUNKS_STATS = "5c9ae2ab9f8535432b32c449922d5d67d82d86e173278c3428948f5a609fcc51"


def test_scan_and_stats_many_chunks(capsys, monkeypatch, tmp_path):
    code, csv_text, _ = run(capsys, ["scan", *BINARY, "--from", "1", "--to", "140001"])
    assert code == 0
    assert csv_text.count("\n") == 1 + 140000
    assert hashlib.sha256(csv_text.encode()).hexdigest() == MANY_CHUNKS_SCAN
    for source in ("stdin", "file"):
        code, out, _ = run_stats(capsys, monkeypatch, tmp_path, csv_text, source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MANY_CHUNKS_STATS


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_stats_malformed_row_after_many_chunks(capsys, monkeypatch, tmp_path, source):
    csv_text = "x,z,ratio\n" + "5,3,0.9\n" * 70000 + "1,2\n" + "5,3,0.9\n" * 10
    code, out, err = run_stats(capsys, monkeypatch, tmp_path, csv_text, source)
    assert code == 2
    assert out == ""
    assert "malformed" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e308,-1e308"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_stats_rejects_non_finite_range(capsys, monkeypatch, tmp_path, source, bad):
    # the bad ratios sit in the second float64 chunk, after a chunk of equal ones
    rows = "5,3,0.9\n" * 70000 + "".join(f"5,3,{r}\n" for r in bad.split(","))
    code, out, err = run_stats(capsys, monkeypatch, tmp_path, "x,z,ratio\n" + rows, source, bins=1)
    assert code == 2
    assert out == ""
    assert "finite range" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", *BINARY, "--max-x", "3000"])
    assert code == 0
    lines = out.strip().split("\n")
    names = [line.split(":")[0] for line in lines]
    assert names == [
        "subcollection",
        "duality_vs_brute",
        "exact_spotchecks",
        "roundtrip_sub",
        "roundtrip_super",
        "generating_identity",
        "measure",
        "normalization_sub",
        "normalization_super",
    ]
    assert all(": ok" in line for line in lines)


def test_verify_in_chunks_prints_the_same(capsys, monkeypatch):
    """``verify`` checks the batch calls chunk by chunk; the chunk size does not show in its output."""
    _, whole, _ = run(capsys, ["verify", *BINARY, "--max-x", "3000"])
    monkeypatch.setattr(cli, "_CHUNK", 700)
    code, out, _ = run(capsys, ["verify", *BINARY, "--max-x", "3000"])
    assert code == 0 and out == whole


@pytest.mark.parametrize("broken", ["counts_at", "expressible_mask"])
def test_verify_reports_the_first_mismatch_across_chunks(capsys, monkeypatch, broken):
    original = getattr(SystemPair, broken)

    def off_by_one(self, *args):
        out = original(self, *args)
        first = args[0] if broken == "expressible_mask" else args[0][0] - 1  # n of out[0]
        for n in (1500, 2100):  # the second and third chunk of 700
            if first <= n < first + len(out):
                out[n - first] ^= 1
        return out

    monkeypatch.setattr(cli, "_CHUNK", 700)
    monkeypatch.setattr(SystemPair, broken, off_by_one)
    code, out, _ = run(capsys, ["verify", *BINARY, "--max-x", "3000"])
    assert code == 1
    pair = SystemPair(*PAIR_RULES["binary"])
    if broken == "counts_at":
        z = pair.count_expressible(1501)
        detail = f"first mismatch at x=1501: closed={z ^ 1} brute={z}"
    else:
        flag = pair.count_expressible(1501) - pair.count_expressible(1500) == 1
        detail = f"mask mismatch at n=1500: mask={not flag} brute={flag}"
    assert f"duality_vs_brute: FAIL ({detail})" in out.splitlines()


def test_verify_rejects_non_nested(capsys):
    code, _, err = run(capsys, ["verify", "--sub", "1,2,1", "--super", "1,3", "--max-x", "100"])
    assert code == 1
    assert "subcollection: FAIL" in err


def test_verify_rejects_same_collection(capsys):
    code, _, err = run(capsys, ["verify", "--sub", "1,0", "--super", "1,0,1,0", "--max-x", "100"])
    assert code == 1
    assert "subcollection: FAIL" in err


def test_verify_refuses_unseparated_pair_before_scanning(capsys, monkeypatch):
    """A pair whose constants ``derived_constants`` refuses exits 2 before any check runs."""

    def no_scan(self, xs):
        raise AssertionError("verify scanned a pair it refuses")

    monkeypatch.setattr(SystemPair, "counts_at", no_scan)
    argv = ["verify", "--sub", "9,9,9,9,9,9,9,9,9,9,9,9,9,8", "--super", "9,9", "--max-x", "20000"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "not separated in double precision" in err


def test_non_verify_pair_error_is_usage(capsys):
    code, _, err = run(capsys, ["count", "--sub", "1,2,1", "--super", "1,3", "--x", "10"])
    assert code == 2
    assert "error:" in err


def test_malformed_rule(capsys):
    code, _, err = run(capsys, ["count", "--sub", "0,1", "--super", "1,1", "--x", "10"])
    assert code == 2
    code, _, err = run(capsys, ["count", "--sub", "1,x", "--super", "1,1", "--x", "10"])
    assert code == 2
    code, _, err = run(capsys, ["expand", "--list", "3", "5"])
    assert code == 2


def test_float_digit_env(capsys, monkeypatch):
    monkeypatch.setenv("ZECK_FLOAT_DIGITS", "4")
    code, out, _ = run(capsys, ["info", *BINARY, "--json"])
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(0.6942, abs=5e-5)
    assert abs(payload["gamma"] - 0.6942419136) > 1e-8  # actually truncated


# sha256 of ``scan --from 1 --to 3000 --step 7`` stdout, recorded with the
# digit-matrix column sweep that the rank-table kernel replaced
SCAN_GOLDEN = {
    "binary": "4e80e41356d006fafa4a6a4dedb6d4717d8a4a7c42a762c9ab07d984d38b478b",
    "third": "3837598b5e1791b98bf940c91f535a0e3a907ad6be434acde1eff3a752301999",
    "nonbase": "ee9f0537287ccd9448c1bac985aed6c3a5af6a84c5cd7e450d609b61ea8d9775",
}


@pytest.mark.parametrize("name", sorted(SCAN_GOLDEN))
def test_scan_golden_output(capsys, name):
    sub, sup = (",".join(map(str, r)) for r in PAIR_RULES[name])
    code, out, _ = run(capsys, ["scan", "--sub", sub, "--super", sup, "--from", "1", "--to", "3000", "--step", "7"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN[name]


def test_scan_past_float_range(capsys, pairs, constants):
    """Rows with x beyond the largest double take the ratio in log space."""
    lo = 10**309
    code, out, _ = run(capsys, ["scan", *BINARY, "--from", str(lo), "--to", str(lo + 3)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,z,ratio" and len(lines) == 4
    pair = pairs["binary"]
    report = extremes(pair, constants["binary"])
    for i, line in enumerate(lines[1:]):
        x, z, ratio = line.split(",")
        assert int(x) == lo + i
        assert int(z) == pair.count_expressible(lo + i)
        assert report.liminf <= float(ratio) <= report.limsup


def test_scan_across_the_float_range_edge(capsys, monkeypatch, pairs, constants):
    """In one chunk, rows whose x converts to a double keep the float ratio; the rest take logs."""
    monkeypatch.setenv("ZECK_FLOAT_DIGITS", "17")  # tells the two paths apart
    lo, step = 2**1024 - 2**972, 2**969
    code, out, _ = run(capsys, ["scan", *BINARY, "--from", str(lo), "--to", str(lo + 16 * step), "--step", str(step)])
    assert code == 0
    gamma = constants["binary"].gamma
    paths = set()
    for i, line in enumerate(out.splitlines()[1:]):
        x, z = lo + i * step, pairs["binary"].count_expressible(lo + i * step)
        try:
            want, path = float(z) / float(x) ** gamma, "float"
        except OverflowError:
            want, path = math.exp(math.log(z) - gamma * math.log(x)), "log"
        assert line == f"{x},{z},{cli.fmt(want, 17)}"
        paths.add(path)
    assert paths == {"float", "log"}


# ``verify`` stdout of the binary pair at 17 digits, recorded when the
# normalization checks still re-solved both dominant roots themselves
VERIFY_BINARY_17 = """\
subcollection: ok
duality_vs_brute: ok (x=1..300)
exact_spotchecks: ok (50 samples)
roundtrip_sub: ok (n=0..300)
roundtrip_super: ok (n=0..300)
generating_identity: ok (degree 50)
measure: ok (partial+tail=0.99999999999999922)
normalization_sub: ok (value=0.99999999999999978)
normalization_super: ok (value=1)
"""


def test_verify_output_pinned(capsys, monkeypatch):
    monkeypatch.setenv("ZECK_FLOAT_DIGITS", "17")
    code, out, _ = run(capsys, ["verify", *BINARY, "--max-x", "300"])
    assert code == 0
    assert out == VERIFY_BINARY_17
