"""Command line behavior: exit codes, outputs, and argument parsing."""

import json
import subprocess
import sys

import pytest

from votefarm.cli import main


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


def test_spec_file_excludes_inline_flags(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--spec", str(tmp_path / "s.json"), "--n", "4"
    )
    assert code == 2
    assert "excludes the inline" in err


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


@pytest.mark.parametrize(
    "command,needle",
    [
        ("run", "votefarm: stage 1: delta_t must be finite, got inf"),
        ("bench", "votefarm: --delta-t must be > 0 and finite, got inf"),
    ],
)
def test_infinite_delta_t_flag_exits_two(capsys, command, needle):
    code, _, err = run_cli(capsys, command, "--delta-t", "inf")
    assert code == 2
    assert needle in err


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


def test_pipeline_rejects_a_single_stage(capsys):
    code, _, err = run_cli(capsys, "pipeline", "--stages", "1")
    assert code == 2
    assert "at least two stages" in err


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
    assert "positive farm sizes" in err


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_rejects_too_few_repetitions(capsys, repetitions):
    code, out, err = run_cli(
        capsys, "bench", "--n-values", "1", "--repetitions", repetitions
    )
    assert code == 2
    assert out == ""
    assert f"votefarm: repetitions must be >= 1, got {repetitions}" in err


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


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "oracle equivalence: 1360/1360 checks passed"
    assert lines[1] == "farm census: 8/8 sizes passed"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "votefarm.cli", "run", "--fault", "drop_message:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(v["ok"] for v in report["repetitions"][0]["voters"])
