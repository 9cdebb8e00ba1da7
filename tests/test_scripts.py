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
        ("masking_sweep.py", ["--sizes", "3", "--seed", "5"]),
        ("pipeline_demo.py", ["--n", "5", "--crash", "4", "--input", "7"]),
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


def test_e2e_bench_pairs_two_source_trees_side_by_side():
    proc = run_script("e2e_bench.py", "--sizes", "1", "--against", str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    pairs = doc["pairs"]
    lines = doc["src_lines"]
    assert lines["before"] == lines["after"] and isinstance(lines["after"], int)
    assert lines["after"] > 0
    assert [(r["metric"], r["n"]) for r in doc["rows"]] == [("default", 1), ("euclidean", 1)]
    for r in doc["rows"]:
        before, after = r["before"], r["after"]
        # the same sources on both sides do the same work
        assert {k: v for k, v in before.items() if not k.startswith("ms_")} == {
            k: v for k, v in after.items() if not k.startswith("ms_")
        }
        assert before["ok"] and before["ms_min"] <= before["ms_p50"]
        assert before["c_calls"] > 0
        assert before["setup_objects"] == after["setup_objects"] > 0
        assert 0 <= r["after_faster"] <= pairs
    crash = doc["crash_heavy"]
    assert crash["before"]["frames_sent"] == crash["after"]["frames_sent"] > 0


cpython_3_11 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the call events sys.setprofile sees differ across interpreter versions",
)


@pytest.fixture(scope="module")
def n31_default_row(tmp_path_factory):
    """The e2e_bench row of a fault-free two-stage N = 31 default-metric run."""
    out = tmp_path_factory.mktemp("e2e") / "BENCH_e2e.json"
    proc = run_script("e2e_bench.py", "--sizes", "31", "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    return next(r for r in json.loads(out.read_text())["rows"] if r["metric"] == "default")


@cpython_3_11
def test_a_delivered_frame_costs_at_most_8_python_calls(n31_default_row):
    """A fault-free two-stage N = 31 run lands each copy with one put, which
    wakes its receiver, and the receiving voter feeds its round inline in one
    call, so the run makes few calls per frame it sends."""
    row = n31_default_row
    assert row["py_calls"] <= 8.0 * row["frames_sent"]


@cpython_3_11
def test_a_delivered_frame_costs_at_most_9_5_c_calls(n31_default_row):
    """The scheduler calls a voter's handler with each item it takes: no
    generator to resume and no Wait to check, so the run makes few C calls
    per frame it sends, too."""
    row = n31_default_row
    assert row["c_calls"] <= 9.5 * row["frames_sent"]


@cpython_3_11
def test_building_a_world_costs_at_most_30_python_calls_per_voter(n31_default_row):
    """Checking the spec and building a fault-free two-stage N = 31 world,
    everything before it runs, makes a bounded number of calls per voter:
    the census counts each link once, no name is formatted twice, and a
    voter builds no Wait."""
    assert n31_default_row["py_calls_setup"] <= 30 * 2 * 31


def test_e2e_bench_refuses_a_tree_without_the_package(tmp_path):
    proc = run_script("e2e_bench.py", "--against", str(tmp_path))
    assert proc.returncode == 2
    assert b"no votefarm package there" in proc.stderr


def test_e2e_bench_writes_its_file_only_with_out(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    proc = run_script("e2e_bench.py", "--sizes", "3", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    doc = json.loads(out.read_text())
    assert isinstance(doc["src_lines"], int) and doc["src_lines"] > 0
    rows = doc["rows"]
    assert [(r["metric"], r["n"]) for r in rows] == [
        ("default", 3), ("default", 7), ("euclidean", 3), ("euclidean", 7)
    ]
    for r in rows:
        assert r["ok"]
        # one vote per stage: every voter of a fault-free farm sees one vector
        assert r["vote_calls"] == r["distinct_votes"] == 2
        # a unanimous majority over n slots: (n - 1) leader checks, once per
        # stage; a class of equal values is its own representative
        n = r["n"]
        assert r["metric_calls"] == 2 * (n - 1)
        # fault-free, no hook: a voter's post lands its own Message, so only
        # the users' frames are decoded, each distinct one once in the world:
        # one INPUT, GET and CLOSE, the same bytes in both stages
        assert r["decodes"] == 3
        # per stage, each user's INPUT; GET and CLOSE are built at import
        assert r["encodes"] == doc["stages"] * n
        assert r["scheduler_steps"] > 0
        # one frame per (sender, receiver) copy: per stage each user's INPUT,
        # GET and CLOSE, its voter's two DONEs and VOTED_VALUE reply and
        # N - 1 broadcast copies, and each stage-1 voter's push downstream
        assert r["frames_sent"] == 2 * n * n + 11 * n
        assert 0 < r["ms_setup_p50"] <= r["ms_p50"]
        # one pending timer per waiting activity, not one per receive: the
        # heap pushes grow linearly in n, the frames received as n squared;
        # stage-1 voter n closes its round in its first step and pushes none,
        # and a user pushes one for the floor control yields (stage 2: and
        # one for the upstream push), which its GET and CLOSE waits keep
        assert r["heap_pushes"] == 5 * n - 1
        # a finished fault-free world is freed by reference counting alone
        assert r["cyclic_garbage"] == 0
        assert r["py_calls"] > r["scheduler_steps"]
        # one post per voter send: a broadcast's n - 1 copies count once
        assert 0 < r["outbox_items"] < r["frames_sent"]
    crash = doc["crash_heavy"]
    assert crash["faults"] and crash["ok"] and crash["outbox_items"] > 0
    # a world left with blocked and never-run activities is freed too
    assert crash["cyclic_garbage"] == 0
