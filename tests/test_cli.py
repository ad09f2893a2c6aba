import io
import json
import time

import pytest

from zeckdual import cli

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


def test_verify_rejects_non_nested(capsys):
    code, _, err = run(capsys, ["verify", "--sub", "1,2,1", "--super", "1,3", "--max-x", "100"])
    assert code == 1
    assert "subcollection: FAIL" in err


def test_verify_rejects_same_collection(capsys):
    code, _, err = run(capsys, ["verify", "--sub", "1,0", "--super", "1,0,1,0", "--max-x", "100"])
    assert code == 1
    assert "subcollection: FAIL" in err


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
