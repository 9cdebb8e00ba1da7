"""Command line behavior: exit codes, outputs, and argument parsing."""

import json
import subprocess
import sys

import pytest

from votefarm import harness
from votefarm.cli import _agreement_holds, main
from votefarm.core import ErrorCode, VoteOutcome, VoteValue
from votefarm.transport import Fabric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plain_run_reports_agreement(capsys):
    code, out, err = run_cli(capsys, "run")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["aggregate"] == {
        "count": 1,
        "mean_duration": 0.0,
        "stddev_duration": 0.0,
    }
    for v in report["repetitions"][0]["voters"]:
        assert v["ok"] is True
        assert v["value"] == [42.0]


def test_documented_masking_invocation(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--n",
        "3",
        "--algorithm",
        "majority",
        "--faults",
        "corrupt_input:2",
        "--clock",
        "virtual",
        "--seed",
        "1",
    )
    assert code == 0
    report = json.loads(out)
    assert all(v["value"] == [42.0] for v in report["repetitions"][0]["voters"])


def test_run_masks_a_crashed_user(capsys):
    code, out, _ = run_cli(capsys, "run", "--fault", "crash_user:2")
    assert code == 0
    report = json.loads(out)
    assert report["aggregate"]["mean_duration"] == 1.0
    assert all(v["value"] == [42.0] for v in report["repetitions"][0]["voters"])


@pytest.mark.parametrize(
    "argv",
    [
        "run --n 3 --fault drop_message:2",
        "run --n 5 --algorithm median --fault drop_message:4 --fault corrupt_input:5",
    ],
)
def test_run_masks_a_dropped_broadcast(capsys, argv):
    """The faulty voter's first broadcast is dropped.  It closes its round
    on a timeout at the instant a fellow's broadcast lands; that broadcast,
    now late, opens no second round, so every voter, the faulty one too,
    holds the input."""
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    voters = json.loads(out)["repetitions"][0]["voters"]
    assert [v["value"] for v in voters] == [[42.0]] * len(voters)


def test_run_exit_one_when_the_farm_cannot_agree(capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--fault",
        "corrupt_input:1:11",
        "--fault",
        "corrupt_input:2:22",
    )
    assert code == 1
    assert "assertion failed" in err
    report = json.loads(out)  # the report is still emitted
    assert all(
        v["failure"] == "NO_MAJORITY" for v in report["repetitions"][0]["voters"]
    )


def final_stage(*voters) -> harness.Report:
    """A one-repetition report whose stage-2 voters are `voters`, each a
    (live, outcome) pair, after one stage-1 voter that agrees with nothing."""

    def result(stage, voter, live, outcome):
        return harness.VoterResult(
            stage, voter, live, outcome, None, None, None, 0, 0, 0, None, False
        )

    stray = result(1, 1, True, VoteOutcome(value=VoteValue.from_floats([-1.0])))
    rest = [result(2, i, live, o) for i, (live, o) in enumerate(voters, start=1)]
    rep = harness.RepetitionResult(0, [stray, *rest], None)
    return harness.Report({}, [], [rep], None, None)


ONE, TWO = (VoteOutcome(value=VoteValue.from_floats([x])) for x in (1.0, 2.0))


@pytest.mark.parametrize(
    "voters,holds",
    [
        (((True, ONE), (True, ONE), (False, None)), True),
        (((True, ONE), (True, TWO)), False),  # two different final values
        (((False, None), (False, TWO)), False),  # no live final voter
        (((True, ONE), (True, VoteOutcome(failure=ErrorCode.NO_MAJORITY))), False),
    ],
)
def test_agreement_holds_only_on_one_value_from_every_live_final_voter(voters, holds):
    """Only the final stage counts, a dead voter's outcome is ignored, and a
    stage with no live voter agrees on nothing."""
    assert _agreement_holds(final_stage(*voters)) is holds


@pytest.mark.parametrize(
    "algorithm,code,want",
    [
        ("majority", 0, {"value": [1.0], "failure": None}),
        ("median", 0, {"value": [1.0], "failure": None}),
        ("plurality", 0, {"value": [1.0], "failure": None}),
        ("weighted_average", 1, {"value": None, "failure": "BAD_STATE"}),
    ],
)
def test_euclidean_run_over_mixed_dimensions(capsys, algorithm, code, want):
    """A replica of another dimension is +inf from the rest: the others
    outvote it, and only the weighted average, which needs one dimension,
    fails."""
    got, out, _ = run_cli(
        capsys, *f"run --n 3 --metric euclidean --algorithm {algorithm}".split(),
        "--input", "1.0", "--input", "1.0", "--input", "1.0,2.0",
    )
    assert got == code
    voters = json.loads(out)["repetitions"][0]["voters"]
    assert [{k: v[k] for k in want} for v in voters] == [want] * 3


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("metric", ["default", "euclidean"])
def test_weighted_average_leaves_a_non_finite_replica_out(capsys, metric, bad):
    """A replica with a NaN or infinite value weighs nothing in the weighted
    average, under either metric: the two finite replicas decide."""
    code, out, _ = run_cli(
        capsys, *f"run --n 3 --metric {metric} --algorithm weighted_average".split(),
        f"--input={bad}", "--input", "1", "--input", "1",
    )
    assert code == 0
    voters = json.loads(out)["repetitions"][0]["voters"]
    assert [(v["ok"], v["value"]) for v in voters] == [(True, [1.0])] * 3


@pytest.mark.parametrize("metric", ["default", "euclidean"])
def test_weighted_average_of_only_non_finite_replicas_is_bad_state(capsys, metric):
    code, out, _ = run_cli(
        capsys, *f"run --n 3 --metric {metric} --algorithm weighted_average".split(),
        "--input=nan", "--input=inf", "--input=-inf",
    )
    assert code == 1
    voters = json.loads(out)["repetitions"][0]["voters"]
    assert {v["failure"] for v in voters} == {"BAD_STATE"}


@pytest.mark.parametrize("algorithm", ["majority", "median", "plurality"])
def test_euclidean_run_outvotes_a_value_with_no_numeric_view(capsys, tmp_path, algorithm):
    """An opaque replica is +inf from every numeric one under euclidean, so
    the other two outvote it instead of crashing the farm."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "stages": [{"n": 3, "algorithm": algorithm}],
        "inputs": [{"hex": "00"}, [1], [1]],
        "metric": "euclidean",
    }))
    code, out, _ = run_cli(capsys, "run", "--spec", str(spec_path))
    assert code == 0
    voters = json.loads(out)["repetitions"][0]["voters"]
    assert [v["value"] for v in voters] == [[1.0]] * 3


def test_inputs_algorithm_and_metric_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--algorithm",
        "median",
        "--metric",
        "euclidean",
        "--input",
        "1",
        "--input",
        "2",
        "--input",
        "10",
    )
    assert code == 0
    report = json.loads(out)
    assert report["spec"]["metric"] == "euclidean"
    assert all(v["value"] == [2.0] for v in report["repetitions"][0]["voters"])


def test_unknown_metric_is_a_spec_error(capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "manhattan")
    assert code == 2
    assert "unknown metric 'manhattan'" in err


def test_csv_output_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "run", "--output", "csv", "--output-path", str(target)
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "repetition,stage,voter,outcome_hash,duration"
    assert len(lines) == 4


def test_spec_file_round(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "stages": [{"n": 5, "algorithm": "plurality"}],
                "faults": [{"kind": "crash_user", "voter": 4}],
                "seed": 3,
            }
        )
    )
    code, out, _ = run_cli(capsys, "run", "--spec", str(spec_path))
    assert code == 0
    report = json.loads(out)
    assert report["spec"]["stages"][0]["n"] == 5
    assert report["spec"]["seed"] == 3
    assert len(report["repetitions"][0]["voters"]) == 5


@pytest.mark.parametrize(
    "argv,spec",
    [
        (
            ["run", "--algorithm", "median", "--metric", "euclidean",
             "--input", "1", "--input", "2", "--input", "10"],
            {"stages": [{"n": 3, "algorithm": "median"}], "inputs": [1, 2, 10],
             "metric": "euclidean"},
        ),
        (
            ["pipeline", "--stages", "3", "--fault", "crash_voter:1.2",
             "--fault", "delay_message:2.1:0.25", "--fault", "corrupt_input:3.3:ff00",
             "--seed", "5", "--repetitions", "2"],
            {
                "stages": [{"n": 3}] * 3,
                "faults": [
                    {"kind": "crash_voter", "stage": 1, "voter": 2},
                    {"kind": "delay_message", "stage": 2, "voter": 1, "delay": 0.25},
                    {"kind": "corrupt_input", "stage": 3, "voter": 3, "pattern": "ff00"},
                ],
                "seed": 5,
                "repetitions": 2,
            },
        ),
    ],
)
def test_inline_flags_and_spec_file_give_the_same_report(capsys, tmp_path, argv, spec):
    inline = run_cli(capsys, *argv)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    from_file = run_cli(capsys, argv[0], "--spec", str(spec_path))
    assert inline == from_file
    assert inline[0] == 0 and json.loads(inline[1])["repetitions"]


def test_spec_file_excludes_inline_flags(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--spec", str(tmp_path / "s.json"), "--n", "4"
    )
    assert code == 2
    assert "excludes the inline" in err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("run", ["--n", "4"]),
        ("run", ["--algorithm", "median"]),
        ("run", ["--epsilon", "0"]),
        ("run", ["--scaling", "2"]),
        ("run", ["--delta-t", "1"]),
        ("run", ["--metric", "euclidean"]),
        ("run", ["--input", "1"]),
        ("run", ["--fault", "crash_user:1"]),
        ("run", ["--seed", "7"]),
        ("run", ["--repetitions", "3"]),
        ("run", ["--clock", "real"]),
        ("pipeline", ["--stages", "3"]),
    ],
)
def test_spec_file_refuses_each_inline_flag(capsys, tmp_path, command, flag):
    """A flag next to --spec is refused even when it repeats the default."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"stages": [{"n": 3}, {"n": 3}]}))
    code, out, err = run_cli(capsys, command, "--spec", str(spec_path), *flag)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("votefarm: ")] == [
        f"votefarm: --spec excludes the inline flag {flag[0]}"
    ]


def test_spec_file_names_every_conflicting_flag(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--spec", str(tmp_path / "s.json"), "--seed", "7", "--clock", "real"
    )
    assert code == 2
    assert "votefarm: --spec excludes the inline flag --seed" in err
    assert "votefarm: --spec excludes the inline flag --clock" in err


def test_every_bad_input_and_fault_flag_is_reported(capsys):
    code, _, err = run_cli(
        capsys, "run", "--input", "x", "--input", "y", "--fault", "bogus:1"
    )
    assert code == 2
    kinds = "crash_user, crash_voter, corrupt_input, drop_message, delay_message"
    assert [line for line in err.splitlines() if line.startswith("votefarm: ")] == [
        "votefarm: input 'x' is not a comma-separated float list",
        "votefarm: input 'y' is not a comma-separated float list",
        f"votefarm: unknown fault kind 'bogus' (one of {kinds})",
    ]


def test_unreadable_and_unparseable_spec_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--spec", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "run", "--spec", str(bad))
    assert code == 2
    assert "is not JSON" in err


@pytest.mark.parametrize(
    "fault,needle",
    [
        ("crash_user", "not kind:target"),
        ("meteor:1", "unknown fault kind"),
        ("crash_user:x", "not voter or stage.voter"),
        ("crash_user:1:ff", "takes no parameter"),
        ("delay_message:1:fast", "bad parameter"),
        ("corrupt-input:1:zz", "bad parameter"),
    ],
)
def test_fault_parsing_errors(capsys, fault, needle):
    code, _, err = run_cli(capsys, "run", "--fault", fault)
    assert code == 2
    assert needle in err
    assert "usage:" in err


def test_spec_violations_reach_stderr(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "0", "--delta-t", "-1")
    assert code == 2
    assert "votefarm: stage 1: n must be >= 1, got 0" in err
    assert "votefarm: stage 1: delta_t must be > 0, got -1.0" in err


def test_negative_scaling_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "run", "--n", "2", "--algorithm", "weighted-average", "--scaling", "-1",
        "--input", "0", "--input", "1", "--metric", "euclidean",
    )
    assert code == 2
    assert out == ""
    assert "votefarm: stage 1: scaling must be >= 0, got -1.0" in err
    assert "Traceback" not in err


def test_infinite_scaling_exits_two(capsys):
    """inf * 0 would give a NaN weight and BAD_STATE at every voter."""
    code, out, err = run_cli(
        capsys, "run", "--n", "3", "--algorithm", "weighted-average", "--scaling", "inf"
    )
    assert code == 2
    assert out == ""
    assert "votefarm: stage 1: scaling must be finite, got inf" in err


@pytest.mark.parametrize(
    "command,needle",
    [
        ("run", "votefarm: stage 1: delta_t must be finite, got inf"),
        ("bench", "votefarm: stage 1: delta_t must be finite, got inf"),
    ],
)
def test_infinite_delta_t_flag_exits_two(capsys, command, needle):
    code, _, err = run_cli(capsys, command, "--delta-t", "inf")
    assert code == 2
    assert needle in err


@pytest.mark.parametrize(
    "argv",
    [("bench", "--delta-t", "inf"), ("run", "--scaling", "inf")],
    ids=lambda argv: argv[0],
)
def test_a_spec_error_prints_the_subcommand_usage(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"usage: votefarm {argv[0]} ")


def test_bad_input_flag(capsys):
    code, _, err = run_cli(capsys, "run", "--input", "abc")
    assert code == 2
    assert "comma-separated float list" in err


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "run", "--algorithm", "quantum")[0] == 2
    assert run_cli(capsys, "run", "--help")[0] == 0


def test_pipeline_restores_through_the_chain(capsys):
    code, out, _ = run_cli(
        capsys, "pipeline", "--stages", "2", "--fault", "crash_voter:1.2"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["spec"]["stages"]) == 2
    finals = [
        v for v in report["repetitions"][0]["voters"] if v["stage"] == 2
    ]
    assert len(finals) == 3
    assert all(v["value"] == [42.0] for v in finals)


@pytest.mark.parametrize("stages", ["1", "0", "-1"])
def test_pipeline_rejects_a_single_stage(capsys, stages):
    code, _, err = run_cli(capsys, "pipeline", "--stages", stages)
    assert code == 2
    assert "at least two stages" in err


def test_pipeline_spec_file_needs_two_stages(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"stages": [{"n": 3}]}))
    code, _, err = run_cli(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 2
    assert "votefarm: a pipeline needs at least two stages" in err


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--n-values",
        "1,2",
        "--repetitions",
        "2",
        "--delta-t",
        "0.01",
        "--output",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,repetitions,mean_duration,stddev_duration"
    assert len(lines) == 3
    n, reps, mean, stddev = lines[1].split(",")
    assert (n, reps) == ("1", "2")
    assert float(mean) > 0.0
    assert float(stddev) >= 0.0


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--n-values", "a,b")
    assert code == 2
    assert "not an int list" in err
    code, _, err = run_cli(capsys, "bench", "--n-values", "0")
    assert code == 2
    assert "votefarm: stage 1: n must be >= 1, got 0" in err


@pytest.mark.parametrize(
    "argv, stage_errors",
    [
        (("run", "--n", "65536"), 1),
        (("pipeline", "--n", "65536", "--stages", "2"), 2),
        (("bench", "--n-values", "3,65536"), 0),
    ],
)
def test_a_farm_larger_than_the_sender_field_exits_two(capsys, monkeypatch, argv, stage_errors):
    """n = 65536 is refused before any world is built, naming each stage."""
    monkeypatch.setattr(harness, "World", None)  # building one would raise
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    for k in range(1, stage_errors + 1):
        assert f"votefarm: stage {k}: n must be <= 65535, got 65536" in err
    if not stage_errors:
        assert "votefarm: stage 1: n must be <= 65535, got 65536" in err


def test_bench_lists_every_violation_once(capsys, monkeypatch, tmp_path):
    """Every size is checked before the output path is opened or any world
    is built; a violation shared by sizes is named once."""
    monkeypatch.setattr(harness, "World", None)  # building one would raise
    path = tmp_path / "earlier.json"
    path.write_text("an earlier result\n")
    code, out, err = run_cli(
        capsys, "bench", "--n-values", "0,3,65536", "--delta-t", "inf",
        "--repetitions", "0", "--output-path", str(path),
    )
    assert code == 2
    assert out == ""
    violations = [line for line in err.splitlines() if line.startswith("votefarm: ")]
    assert sorted(violations) == sorted(
        f"votefarm: {v}"
        for v in (
            "stage 1: n must be >= 1, got 0",
            "stage 1: delta_t must be finite, got inf",
            "repetitions must be >= 1, got 0",
            "stage 1: n must be <= 65535, got 65536",
        )
    )
    assert path.read_text() == "an earlier result\n"


@pytest.mark.parametrize("command", ["run", "pipeline", "bench"])
def test_an_unwritable_output_path_exits_two_before_any_run(
    capsys, monkeypatch, tmp_path, command
):
    monkeypatch.setattr(harness, "World", None)  # a run would raise
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, command, "--output-path", str(path))
    assert code == 2
    assert out == ""
    assert f"votefarm: cannot write {path}: No such file or directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_rejects_too_few_repetitions(capsys, tmp_path, repetitions):
    path = tmp_path / "earlier.json"
    path.write_text("an earlier result\n")
    code, out, err = run_cli(
        capsys, "bench", "--n-values", "1", "--repetitions", repetitions,
        "--output-path", str(path),
    )
    assert code == 2
    assert out == ""
    assert f"votefarm: repetitions must be >= 1, got {repetitions}" in err
    assert path.read_text() == "an earlier result\n"  # rejected before it is opened


def test_bench_json_to_a_file(capsys, tmp_path):
    path = tmp_path / "bench.json"
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--n-values",
        "1",
        "--repetitions",
        "2",
        "--delta-t",
        "0.01",
        "--output-path",
        str(path),
    )
    assert code == 0
    assert out == ""
    (row,) = json.loads(path.read_text())
    assert sorted(row) == ["mean_duration", "n", "repetitions", "stddev_duration"]
    assert (row["n"], row["repetitions"]) == (1, 2)


def test_badly_shaped_spec_file_exits_two(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"stages": [3], "repetitions": "x"}))
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--spec", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "votefarm: stage 1: must be an object, got int" in proc.stderr
    assert "votefarm: 'repetitions' must be an integer, got 'x'" in proc.stderr


def test_non_integer_stage_and_fault_fields_exit_two(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "stages": [{"n": 3.9}],
                "faults": [{"kind": "crash_user", "voter": 1.7, "index": "0"}],
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--spec", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "votefarm: stage 1: 'n' must be an integer, got 3.9" in proc.stderr
    assert "votefarm: fault 1: 'voter' must be an integer, got 1.7" in proc.stderr
    assert "votefarm: fault 1: 'index' must be an integer, got '0'" in proc.stderr


def test_non_number_stage_and_fault_fields_exit_two(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "stages": [{"n": 3, "delta_t": "0.5", "epsilon": True}],
                "faults": [{"kind": "delay_message", "voter": 1, "delay": "0.3"}],
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--spec", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "votefarm: stage 1: 'epsilon' must be a number, got True" in proc.stderr
    assert "votefarm: stage 1: 'delta_t' must be a number, got '0.5'" in proc.stderr
    assert "votefarm: fault 1: 'delay' must be a number, got '0.3'" in proc.stderr


def test_non_number_vector_input_components_exit_two(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"stages": [{"n": 2}], "inputs": [[True], ["1"]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--spec", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "votefarm: input 1: component 1 must be a number, got True" in proc.stderr
    assert "votefarm: input 2: component 1 must be a number, got '1'" in proc.stderr


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "oracle equivalence: 1360/1360 checks passed"
    assert lines[1] == "farm census: 8/8 sizes passed"


def test_selftest_reports_a_census_that_misses_a_link(capsys, monkeypatch):
    """A fabric that loses one user link of the n = 3 farm fails the census
    self-test at that size alone, and says what it expected and found; the
    other sizes' links, two-party and mesh, are counted as built."""
    connect = Fabric.connect

    def lossy_connect(fabric, *names):
        ends = connect(fabric, *names)
        if names == ("farm3/user2", "farm3/voter2"):
            del fabric.links[frozenset(names)]
        return ends

    monkeypatch.setattr(Fabric, "connect", lossy_connect)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[1] == "farm census: 7/8 sizes passed"
    assert err == (
        "census n=3: expected LinkCensus(virtual=3, local=3, voters=3),"
        " found LinkCensus(virtual=3, local=2, voters=3)\n"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--fault", "drop_message:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(v["ok"] for v in report["repetitions"][0]["voters"])
