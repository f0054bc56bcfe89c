"""Self-test of the benchmark harness at a reduced scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--factor 10] [--seed 7]

Runs every workload at ``--factor`` (10 by default, under a minute in
all), untraced as a ``perfbench/run.py`` process and traced in-process,
and checks that:

* every run passes its output checks and the last output line is the
  result object, with every metric of ``BENCHMARK.json`` named with its
  unit and no end-to-end metric at 0;
* child spans lie inside their parents and no span has negative self time;
* ``table1-warm`` records at least two disk hits and no catalog
  generation or panel build spans, and the cold workloads no disk loads;
* ``run.py`` fails without a result where there is no source tree.

Exits 1 and names each failed check when any fails.  The default scale
is ``--factor 10`` because at ``--factor 20`` some seeds (3, 10 and 12
among 1-12) leave the least-popular fits too few users, and
``compare_table1``'s shape findings fail there; at ``--factor 10`` they
hold on seeds 1-12, as at paper scale.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import nesting_errors
from workloads import WORKLOADS

PERFBENCH = Path(__file__).resolve().parent


def _spec(root: Path, kind: str) -> dict[str, str]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


def check_untraced(root: Path, name: str, seed: int, factor: int) -> list[str]:
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--factor", str(factor)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{name}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}"]
    errors = []
    if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: exit {proc.returncode}, result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        errors.append(f"{name}: output checks failed:\n{proc.stdout}")
    expected = _spec(root, "end_to_end")
    got = {metric: entry.get("unit") for metric, entry in result.get("metrics", {}).items()}
    if got != expected:
        errors.append(f"{name}: end-to-end metrics {got} != {expected}")
    errors += [f"{name}: {metric} is 0" for metric, entry in result.get("metrics", {}).items()
               if entry.get("value") == 0]
    return errors


def check_traced(root: Path, seed: int, factor: int) -> list[str]:
    expected = _spec(root, "per_layer")
    errors = []
    for result in run.run_all(root, list(WORKLOADS), seed=seed, seconds=1, trace=True,
                              factor=factor):
        name = result.workload
        errors += [f"{name}: {error}" for error in result.errors]
        got = {metric: unit for metric, (_, unit) in result.metrics.items()}
        if got != expected:
            errors.append(f"{name}: per-layer metrics {sorted(got)} != {sorted(expected)}")
        errors += [f"{name}: {error}" for error in nesting_errors(result.spans)]
        if not result.spans:
            errors.append(f"{name}: the traced run recorded no spans")
        names = [span["name"] for span in result.spans]
        if WORKLOADS[name].warm:
            hits = sum(1 for span in result.spans if span["name"] == "cache.disk_load" and span["hit"])
            if hits < 2:
                errors.append(f"{name}: {hits} disk hits, expected at least 2")
            for built in ("catalog.generate", "population.build"):
                if built in names:
                    errors.append(f"{name}: recorded {names.count(built)} {built} spans")
        elif "cache.disk_load" in names:
            errors.append(f"{name}: a cold workload recorded disk loads")
    return errors


def check_no_source(root: Path) -> list[str]:
    """``run.py`` in a directory holding only the benchmark must fail without a result."""
    bare = root / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(PERFBENCH, bare / PERFBENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{PERFBENCH.name}/run.py", "--workload", "table1-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without a source tree: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    checks = {
        **{f"untraced {name}": lambda name=name: check_untraced(root, name, args.seed, args.factor)
           for name in WORKLOADS},
        "traced spans and layers": lambda: check_traced(root, args.seed, args.factor),
        "no source tree": lambda: check_no_source(root),
    }
    failed = 0
    for label, check in checks.items():
        errors = check()
        failed += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {label}")
        for error in errors:
            print(f"     {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
