"""Command line front end.

Exit status: 0 when the requested run finished and its outcome assertion
held, 1 when the experiment ran but the final stage failed to agree on a
single voted value, 2 for usage or specification errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import fields

from .client import World
from .core import AlgorithmId, VoteKind, VoteValue
from .harness import (
    _ALGO_NAMES,
    FaultKind,
    Report,
    SpecError,
    StageSpec,
    bench,
    bench_to_csv,
    bench_to_json,
    check_bench,
    oracle_vote,
    run_experiment,
    spec_from_json,
)
from .sim import REAL, VIRTUAL
from .transport import LinkCensus
from .voting import euclidean_metric, vote

# The inline experiment flags by argparse dest, a stage flag's its field's name.
# Their parsers default to argparse.SUPPRESS: only a given flag is in the namespace.
_STAGE_FLAGS = tuple(f.name for f in fields(StageSpec))
_INLINE_FLAGS = _STAGE_FLAGS + (
    "metric", "input", "fault", "seed", "repetitions", "clock", "stages",
)


def _parse_fault(text: str) -> dict:
    """The JSON spec object of one --fault KIND:TARGET[:PARAM]."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise SpecError([f"fault {text!r} is not kind:target[:param]"])
    kind_text = parts[0].replace("-", "_").lower()
    try:
        kind = FaultKind(kind_text)
    except ValueError:
        names = ", ".join(k.value for k in FaultKind)
        raise SpecError([f"unknown fault kind {parts[0]!r} (one of {names})"])
    target = parts[1]
    try:
        if "." in target:
            stage_text, voter_text = target.split(".", 1)
            stage, voter = int(stage_text), int(voter_text)
        else:
            stage, voter = 1, int(target)
    except ValueError:
        raise SpecError([f"fault target {target!r} is not voter or stage.voter"])
    fault = {"kind": kind.value, "stage": stage, "voter": voter}
    if len(parts) == 2:
        return fault
    param = parts[2]
    try:
        if kind is FaultKind.CORRUPT_INPUT:
            return {**fault, "pattern": bytes.fromhex(param).hex()}
        if kind is FaultKind.DELAY_MESSAGE:
            return {**fault, "delay": float(param)}
        if kind is FaultKind.DROP_MESSAGE:
            return {**fault, "index": int(param)}
    except ValueError:
        raise SpecError([f"bad parameter {param!r} for {kind.value}"])
    raise SpecError([f"{kind.value} takes no parameter, got {param!r}"])


def _parse_input(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise SpecError([f"input {text!r} is not a comma-separated float list"])


def _parse_each(parse, texts, bad: list[str]) -> list:
    """`parse` applied to every text; each SpecError's violations go to `bad`."""
    out = []
    for text in texts:
        try:
            out.append(parse(text))
        except SpecError as exc:
            bad.extend(exc.violations)
    return out


def _spec_json_from_flags(args) -> dict:
    """The JSON spec object the given inline flags describe.  A flag left
    out is left out of the object too, so it takes the spec's default;
    only the voter count (3) and a pipeline's stage count (2) are the
    CLI's own."""
    flag = vars(args)
    bad: list[str] = []
    obj = {key: flag[key] for key in ("metric", "seed", "repetitions", "clock") if key in flag}
    if "input" in flag:
        obj["inputs"] = _parse_each(_parse_input, flag["input"], bad)
    if "fault" in flag:
        obj["faults"] = _parse_each(_parse_fault, flag["fault"], bad)
    if bad:
        raise SpecError(bad)
    stage_count = flag.get("stages", 2) if args.command == "pipeline" else 1
    if args.command == "pipeline" and stage_count < 2:  # before the spec is read
        raise SpecError(["a pipeline needs at least two stages"])
    stage = {"n": 3, **{key: flag[key] for key in _STAGE_FLAGS if key in flag}}
    obj["stages"] = [stage] * stage_count
    return obj


def _spec_from_args(args):
    if args.spec is None:
        return spec_from_json(_spec_json_from_flags(args))
    given = [dest for dest in _INLINE_FLAGS if dest in vars(args)]
    if given:
        raise SpecError(
            [f"--spec excludes the inline flag --{d.replace('_', '-')}" for d in given]
        )
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError([f"cannot read {args.spec}: {exc}"])
    except json.JSONDecodeError as exc:
        raise SpecError([f"{args.spec} is not JSON: {exc}"])
    spec = spec_from_json(obj)
    if args.command == "pipeline" and len(spec.pipeline.stages) < 2:
        raise SpecError(["a pipeline needs at least two stages"])
    return spec


def _open_output(args):
    """The stream the result goes to, opened before the run it reports on,
    so an unwritable path costs no experiment."""
    if args.output_path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.output_path, "w", encoding="utf-8")
    except OSError as exc:
        raise SpecError([f"cannot write {args.output_path}: {exc.strerror or exc}"])


def _agreement_holds(report: Report) -> bool:
    """Every live final-stage voter produced the same voted value."""
    last = max(v.stage for r in report.repetitions for v in r.voters)
    for rep in report.repetitions:
        finals = [v.outcome for v in rep.voters if v.stage == last and v.live]
        if not all(o is not None and o.ok for o in finals):
            return False
        if len({o.value for o in finals}) != 1:  # no live voter, or two values
            return False
    return True


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    with _open_output(args) as out:
        report = run_experiment(spec)
        out.write(report.to_csv() if args.output == "csv" else report.to_json())
    if not _agreement_holds(report):
        print("assertion failed: final stage did not agree on one value",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    try:
        n_values = tuple(int(p) for p in args.n_values.split(","))
    except ValueError:
        raise SpecError([f"--n-values {args.n_values!r} is not an int list"])
    check_bench(n_values, args.repetitions, args.delta_t)  # before the output path is opened
    with _open_output(args) as out:
        rows = bench(n_values=n_values, repetitions=args.repetitions, delta_t=args.delta_t)
        out.write(bench_to_csv(rows) if args.output == "csv" else bench_to_json(rows))
    return 0


def _selftest_oracle() -> tuple[int, int]:
    checked = failed = 0
    pool = [None] + [VoteValue.from_floats([float(x)]) for x in (0, 1, 2)]
    for n in range(1, 5):
        for combo in itertools.product(pool, repeat=n):
            for kind in VoteKind:
                got = vote(AlgorithmId(kind, 0.0, 1.0), combo, euclidean_metric)
                want = oracle_vote(kind, combo, metric="euclidean")
                checked += 1
                failed += got != want
    return checked, failed


def _selftest_census() -> tuple[int, int]:
    checked = failed = 0
    for n in range(1, 9):
        world = World(VIRTUAL)
        world.activate_farm(f"farm{n}", tuple(range(1, n + 1)))
        want = LinkCensus(virtual=n * (n - 1) // 2, local=n, voters=n)
        got = world.fabric.census()
        checked += 1
        if got != want:
            failed += 1
            print(f"census n={n}: expected {want}, found {got}", file=sys.stderr)
    return checked, failed


def _cmd_selftest(args) -> int:
    oc, of = _selftest_oracle()
    print(f"oracle equivalence: {oc - of}/{oc} checks passed")
    cc, cf = _selftest_census()
    print(f"farm census: {cc - cf}/{cc} sizes passed")
    return 0 if of == 0 and cf == 0 else 1


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    """Inline flags; see _INLINE_FLAGS.  --spec keeps an explicit default."""
    p.add_argument("--n", type=int, help="voters per stage (default: 3)")
    p.add_argument("--algorithm", choices=sorted(_ALGO_NAMES))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--scaling", type=float)
    p.add_argument("--delta-t", type=float)
    p.add_argument("--metric", help="registered distance name (default: value equality)")
    p.add_argument(
        "--input",
        action="append",
        metavar="V[,V...]",
        help="one user input (repeat per user; comma-separated components)",
    )
    p.add_argument(
        "--fault",
        "--faults",
        action="append",
        metavar="KIND:TARGET[:PARAM]",
        help="inject a fault, e.g. crash_user:2 or corrupt_input:1.3:ff",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--clock", choices=(VIRTUAL, REAL))
    p.add_argument("--spec", default=None, help="JSON spec path (excludes inline flags)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--output-path", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votefarm",
        description="Run redundant voting farms and pipelines under faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, cmd, help: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand whose namespace carries the function that runs it
        and its own usage line, which a SpecError prints."""
        p = sub.add_parser(name, help=help, **kwargs)
        p.set_defaults(cmd=cmd, usage=p.format_usage)
        return p

    # a flag without an explicit default is left out of the namespace when
    # absent; see _INLINE_FLAGS
    omit_absent = {"argument_default": argparse.SUPPRESS}
    run_p = command("run", _cmd_run, "one farm, one round per repetition", **omit_absent)
    _add_experiment_flags(run_p)
    _add_output_flags(run_p)

    pipe_p = command("pipeline", _cmd_run, "chained farm stages", **omit_absent)
    pipe_p.add_argument("--stages", type=int, help="farm stages (default: 2)")
    _add_experiment_flags(pipe_p)
    _add_output_flags(pipe_p)

    bench_p = command("bench", _cmd_bench, "real-clock round latency per size")
    bench_p.add_argument("--n-values", default="1,2,3,4")
    bench_p.add_argument("--repetitions", type=int, default=50)
    bench_p.add_argument("--delta-t", dest="delta_t", type=float, default=0.05)
    _add_output_flags(bench_p)

    command("selftest", _cmd_selftest, "oracle equivalence and census suites")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize the code
        return 0 if exc.code == 0 else 2
    try:
        return args.cmd(args)
    except SpecError as exc:
        sys.stderr.write(args.usage())
        for v in exc.violations:
            print(f"votefarm: {v}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
