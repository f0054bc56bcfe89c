"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``repro-facebook`` command at paper scale
(``--factor 1``), seeded with the benchmark's seed:

* ``table1-cold`` — ``uniqueness`` (Table 1, Section 4) with no disk store;
* ``countermeasures-cold`` — ``countermeasures`` (Section 8.3) with no
  disk store;
* ``table1-warm`` — ``uniqueness`` reading the catalog and panel from a
  private disk store that set-up fills with ``cache warm``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace


@dataclass(frozen=True)
class Workload:
    """One measured command; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    command: str
    warm: bool = False

    def cli_args(self, factor: int, seed: int, output: Path) -> list[str]:
        """The ``repro-facebook`` arguments of one measured run."""
        args = [self.command, "--factor", str(factor), "--seed", str(seed)]
        if self.command == "uniqueness":
            args += ["--output", str(output)]
        return args

    def check(self, stdout: str, output: Path) -> tuple[list[str], bytes, float | None]:
        """``(errors, the bytes that must repeat, table1_log_err)`` of one run."""
        if self.command == "uniqueness":
            return check_table1(output)
        return check_countermeasures(stdout) + (None,)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("table1-cold", "uniqueness"),
        Workload("countermeasures-cold", "countermeasures"),
        Workload("table1-warm", "uniqueness", warm=True),
    )
}


class _Report:
    """Just enough of a ``UniquenessReport`` for ``compare_table1``."""

    def __init__(self, payload: dict) -> None:
        self.estimates = {
            float(probability): SimpleNamespace(n_p=float(entry["n_p"]))
            for probability, entry in payload["estimates"].items()
        }

    def estimate_for(self, probability: float) -> SimpleNamespace:
        from repro.errors import ModelError

        try:
            return self.estimates[probability]
        except KeyError:
            raise ModelError(f"no estimate for probability {probability}") from None


def check_table1(output: Path) -> tuple[list[str], bytes, float | None]:
    """Both strategies, finite N_P everywhere, the paper's shape findings."""
    from repro.analysis import compare_table1
    from repro.paperdata import PAPER_TABLE1

    try:
        raw = output.read_bytes()
        payload = json.loads(raw)
        reports = {name: _Report(payload[name]) for name in PAPER_TABLE1}
    except (OSError, ValueError, KeyError, TypeError) as error:
        return [f"unreadable --output: {type(error).__name__}: {error}"], b"", None
    errors = [
        f"no N_P for {name} P={probability:g}"
        for name, cells in PAPER_TABLE1.items()
        for probability in cells
        if probability not in reports[name].estimates
    ]
    errors += [
        f"N_P not finite and positive: {name} P={probability:g}"
        for name, report in reports.items()
        for probability, estimate in report.estimates.items()
        if not (math.isfinite(estimate.n_p) and estimate.n_p > 0)
    ]
    if errors:
        return errors, raw, None
    errors += list(compare_table1(reports).shape_findings)
    log_err = max(
        abs(math.log(reports[name].estimate_for(probability).n_p / paper))
        for name, cells in PAPER_TABLE1.items()
        for probability, paper in cells.items()
    )
    return errors, raw, log_err


_SUCCESSES = re.compile(r"^(baseline|protected) successes\s*:\s*(\d+)/(\d+)$", re.M)
_IMPACT = re.compile(r"^benign impact\s*:\s*(\d+)/(\d+) campaigns rejected", re.M)


def check_countermeasures(stdout: str) -> tuple[list[str], bytes]:
    """Both experiments reported, and no protected campaign succeeded."""
    successes = {match[1]: (int(match[2]), int(match[3])) for match in _SUCCESSES.finditer(stdout)}
    errors = []
    if set(successes) != {"baseline", "protected"} or not _IMPACT.search(stdout):
        errors.append("countermeasures output lacks the success or impact lines")
    elif successes["protected"][0] != 0:
        errors.append(f"protected campaigns succeeded: {successes['protected'][0]}")
    return errors, stdout.encode()
