"""Every experiment script runs to completion on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run scripts/<script> against this checkout's sources; output is
    left as bytes so line endings stay visible."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("masking_sweep.py", ["--sizes", "3"]),
        ("overhead_bench.py", ["--sizes", "1", "2", "--repetitions", "2"]),
        ("overhead_bench.py", ["--sizes", "1", "2", "--repetitions", "2", "--csv"]),
        ("pipeline_demo.py", []),
        ("timeout_cost.py", ["--n", "3"]),
        ("vote_bench.py", ["--sizes", "3", "7"]),
        ("e2e_bench.py", ["--sizes", "3"]),
    ],
)
def test_script_exits_zero(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_overhead_bench_csv_matches_the_cli_format():
    proc = run_script("overhead_bench.py", "--sizes", "1", "--repetitions", "2", "--csv")
    assert proc.returncode == 0, proc.stderr.decode()
    header, row, tail = proc.stdout.decode().split("\n")
    assert header == "n,repetitions,mean_duration,stddev_duration"
    assert row.startswith("1,2,")
    assert tail == ""


def test_overhead_bench_rejects_zero_repetitions():
    proc = run_script("overhead_bench.py", "--repetitions", "0")
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "repetitions must be >= 1, got 0" in err
    assert "Traceback" not in err


def test_vote_bench_writes_its_file_only_with_out(tmp_path):
    out = tmp_path / "BENCH_voting.json"
    proc = run_script("vote_bench.py", "--sizes", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 8  # four algorithms under two metrics
    calls = {(r["algorithm"], r["metric"]): r["metric_calls_per_vote"] for r in rows}
    # six valid slots: the median and the weighted average measure 6 * 5 / 2 pairs
    assert calls["median", "euclidean"] == calls["weighted_average", "euclidean"] == 15


def test_e2e_bench_writes_its_file_only_with_out(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    proc = run_script("e2e_bench.py", "--sizes", "3", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    rows = json.loads(out.read_text())["rows"]
    assert [(r["metric"], r["n"]) for r in rows] == [
        ("default", 3), ("default", 7), ("euclidean", 3), ("euclidean", 7)
    ]
    for r in rows:
        assert r["ok"]
        # one vote per stage: every voter of a fault-free farm sees one vector
        assert r["vote_calls"] == r["distinct_votes"] == 2
        # a unanimous majority over n slots: (n - 1) leader checks and
        # n (n - 1) / 2 representative pairs, once per stage
        n = r["n"]
        assert r["metric_calls"] == 2 * ((n - 1) + n * (n - 1) // 2)
