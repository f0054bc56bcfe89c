"""Paper-scale benchmark of the ``repro-facebook`` CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 11 --seconds 20 --trace 0

Each measured run is a fresh ``python3 -m repro.cli`` process (see
:mod:`harness`).  ``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` — median command wall time, spawn to exit, over the runs
  that fit in ``--seconds`` (at least one);
* ``setup_s`` — median of the workload's repeated set-up: filling a fresh
  disk store with ``cache warm`` for ``table1-warm``, starting the
  interpreter and importing the CLI for the cold workloads;
* ``peak_rss_mb`` — median of the children's ``ru_maxrss``.

``--trace 1`` runs the command once untraced and once under the layer
spans of :mod:`tracing`, and reports the per-layer metrics, the tracing
overhead (traced minus untraced wall) and the wall time no span covers.

Every run's output is checked (see :mod:`workloads`); a run that exits
non-zero or fails a check counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and also
checks that ``table1-cold`` and ``table1-warm`` write identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import ChildRun, child_env, cli_argv, spawn, stamp
from tracing import covered_s, layer_metrics, layer_table
from workloads import WORKLOADS, Workload

#: A run ends within this many seconds, whatever ``--seconds`` says.
RUN_BUDGET_S = 170.0
#: Set-up repetitions whose median is ``setup_s``: store fills for
#: ``table1-warm`` (~5 s each), interpreter starts for the cold workloads.
WARM_SETUP_REPS = 3
IMPORT_SETUP_REPS = 7


@dataclass
class Rep:
    """One measured command run and what its checks found."""

    run: ChildRun
    errors: list[str]
    output: bytes
    log_err: float | None
    spans: list[dict] = field(default_factory=list)


@dataclass
class Context:
    """Where and at which scale and seed one benchmark invocation runs."""

    root: Path
    workdir: Path
    deadline: float
    factor: int
    seed: int


def _read_spans(path: Path) -> list[dict]:
    try:
        return json.loads(path.read_text())["spans"]
    except (OSError, ValueError, KeyError):
        return []


def setup(workload: Workload, ctx: Context, *, traced: bool) -> tuple[list[ChildRun], list[dict], Path | None]:
    """Run the workload's set-up; returns its runs, spans and disk store."""
    runs, spans, store = [], [], None
    spans_path = ctx.workdir / "setup-spans.json" if traced else None
    reps = WARM_SETUP_REPS if workload.warm else IMPORT_SETUP_REPS
    for index in range(1 if traced else reps):
        if workload.warm:
            if store is not None:
                shutil.rmtree(store)
            store = ctx.workdir / f"store-{index}"
            argv = cli_argv(["cache", "warm", "--root", str(store), "--factor", str(ctx.factor),
                             "--seed", str(ctx.seed)], spans=spans_path)
        else:
            argv = [sys.executable, "-c", "import repro.cli"]
        runs.append(spawn(argv, child_env(ctx.root), ctx.workdir, ctx.deadline))
    if spans_path is not None and workload.warm:
        spans = _read_spans(spans_path)
    return runs, spans, store


def measure(workload: Workload, ctx: Context, store: Path | None, index: int, *, traced: bool) -> Rep:
    """One run of the workload's command, checked."""
    output = ctx.workdir / f"output-{index}.json"
    spans_path = ctx.workdir / f"spans-{index}.json" if traced else None
    argv = cli_argv(workload.cli_args(ctx.factor, ctx.seed, output), spans=spans_path)
    run = spawn(argv, child_env(ctx.root, cache_root=store), ctx.workdir, ctx.deadline)
    if not run.ok:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return Rep(run, [f"exit code {run.exit_code}: {tail[0]}"], b"", None)
    errors, repeated, log_err = workload.check(run.stdout, output)
    return Rep(run, errors, repeated, log_err, _read_spans(spans_path) if traced else [])


def _same_output(reps: list[Rep]) -> None:
    """Flag every run whose output differs from the first good run's."""
    good = [rep for rep in reps if not rep.errors]
    for rep in good[1:]:
        if rep.output != good[0].output:
            rep.errors.append("output differs from the first run of this seed")


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    errors: list[str]
    log_err: float | None
    output: bytes
    spans: list[dict] = field(default_factory=list)


def run_workload(workload: Workload, ctx: Context, seconds: float, *, trace: bool) -> Result:
    setup_runs, setup_spans, store = setup(workload, ctx, traced=trace)
    reps: list[Rep] = []
    if all(run.ok for run in setup_runs):
        if trace:
            reps = [measure(workload, ctx, store, 0, traced=False),
                    measure(workload, ctx, store, 1, traced=True)]
        else:
            start = time.monotonic()
            while True:
                reps.append(measure(workload, ctx, store, len(reps), traced=False))
                typical = statistics.median(rep.run.wall_s for rep in reps)
                now = time.monotonic()
                if now - start + typical > seconds or now + 1.5 * typical > ctx.deadline:
                    break
    _same_output(reps)
    errors = [f"set-up exit code {run.exit_code}: {run.stderr.strip()[-200:]}"
              for run in setup_runs if not run.ok]
    errors += [error for rep in reps for error in rep.errors]
    good = [rep for rep in reps if not rep.errors] or reps
    if trace:
        metrics = traced_metrics(reps, setup_spans) if len(reps) == 2 else {}
    else:
        metrics = {
            "wall_s": (statistics.median(rep.run.wall_s for rep in good), "s"),
            "setup_s": (statistics.median(run.wall_s for run in setup_runs), "s"),
            "peak_rss_mb": (statistics.median(rep.run.peak_rss_mb for rep in good), "MB"),
        } if good else {}
    log_errs = [rep.log_err for rep in good if rep.log_err is not None]
    return Result(
        workload=workload.name,
        attempted=len(setup_runs) + len(reps),
        failed=sum(not run.ok for run in setup_runs) + sum(bool(rep.errors) for rep in reps),
        metrics=metrics,
        errors=errors,
        log_err=log_errs[0] if log_errs else None,
        output=good[0].output if good else b"",
        spans=reps[-1].spans if trace and reps else [],
    )


def traced_metrics(reps: list[Rep], setup_spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced run, plus process and tracing totals."""
    plain, traced = reps[0].run, reps[1].run
    spans = reps[1].spans
    metrics = layer_metrics(spans, setup_spans)
    metrics.update({
        "process.user_s": (traced.user_s, "s"),
        "process.sys_s": (traced.sys_s, "s"),
        "process.minflt": (traced.minflt, "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
        "trace.uncovered_s": (traced.wall_s - covered_s(spans), "s"),
    })
    return metrics


def report(results: list[Result], prefix: bool) -> dict:
    """Print every metric by name and unit; return the result object."""
    metrics = {}
    for result in results:
        for metric, (value, unit) in result.metrics.items():
            key = f"{result.workload}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
            print(f"{result.workload:22s} {metric:36s} {value:16.6f} {unit}")
        if result.log_err is not None:
            print(f"{result.workload:22s} {'table1_log_err':36s} {result.log_err:16.6f} ln")
        for error in result.errors:
            print(f"{result.workload:22s} FAILED: {error}")
        if result.spans:
            for line in layer_table(result.spans):
                print(f"{result.workload:22s} {line}")
    return {
        "correct": all(not result.errors for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }


def run_all(root: Path, names: list[str], *, seed: int, seconds: float, trace: bool,
            factor: int = 1) -> list[Result]:
    """Run each named workload in turn, in a scratch directory under ``root``."""
    work_root = root / ".perfbench_work"
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    ctx = Context(root, work_root / str(os.getpid()), deadline, factor, seed)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = [run_workload(WORKLOADS[name], ctx, seconds, trace=trace) for name in names]
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    by_name = {result.workload: result for result in results}
    if "table1-cold" in by_name and "table1-warm" in by_name:
        warm = by_name["table1-warm"]
        if by_name["table1-cold"].output != warm.output:
            warm.errors.append("output differs from table1-cold")
            warm.failed += 1
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--factor", type=int, default=1,
                        help="scale divisor (1 = paper scale; larger for smoke runs)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no src/repro/cli.py under {root}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = run_all(root, names, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), factor=args.factor)
    print("stamp " + json.dumps(stamp(root), sort_keys=True))
    print(json.dumps(report(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
