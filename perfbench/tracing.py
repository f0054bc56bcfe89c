"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry point of each layer of ``repro``
(catalog, population, pipeline, cache, adsapi, core, fdvt, delivery,
campaigns, countermeasures, exec) in a span recorder.  Nothing in
``src/`` changes: class methods are replaced on their class, and module
functions that callers bind by name (``from .bootstrap import
bootstrap_cutpoints``) are replaced at that import site.

A span records wall time (``perf_counter``), user/system CPU and minor
page faults (``getrusage`` deltas) and the span that was open when it
started, so self time can be derived afterwards.  Spans stay in memory
until :meth:`Tracer.dump` writes them as one JSON document.

:func:`layer_metrics` folds a span list into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import threading
import time
from typing import Any, Callable

import numpy as np


#: ``(span name, wrapped entry point)``; the entry point is
#: ``module:Class.attr`` or ``module:function``.  Which end-to-end metric
#: each layer should move, on which workload, is tabled in README.md.
LAYERS = (
    ("catalog.generate", "repro.catalog.catalog:InterestCatalog.generate"),
    ("catalog.most_popular", "repro.catalog.catalog:InterestCatalog.most_popular"),
    ("catalog.by_topic", "repro.catalog.catalog:InterestCatalog.by_topic"),
    ("population.build", "repro.fdvt.panel:PanelBuilder.build_columns"),
    ("population.assign_rows", "repro.population.assignment:InterestAssigner.assign_rows"),
    ("pipeline.build_panel", "repro.pipeline:build_panel"),
    ("cache.disk_load", "repro.cache:DiskCache.load"),
    ("cache.disk_store", "repro.cache:DiskCache.store"),
    ("adsapi.reach_matrix", "repro.adsapi.api:AdsManagerAPI.estimate_reach_matrix"),
    ("core.collect", "repro.core.uniqueness:UniquenessModel.collect"),
    ("core.quantiles", "repro.core.quantiles:AudienceSamples.vas_many"),
    ("core.fit", "repro.core.uniqueness:fit_vas"),
    ("core.bootstrap", "repro.core.uniqueness:bootstrap_cutpoints"),
    ("fdvt.panel_users", "repro.fdvt.panel:FDVTPanel.users"),
    ("core.nanotargeting_run", "repro.core.nanotargeting:NanotargetingExperiment.run"),
    ("delivery.run", "repro.delivery.engine:DeliveryEngine.run"),
    ("campaigns.generate", "repro.campaigns.workload:AdvertiserWorkloadGenerator.generate"),
    ("countermeasures.workload_impact", "repro.cli:evaluate_workload_impact"),
    ("exec.run", "repro.exec.runner:SerialRunner.run"),
    ("exec.run", "repro.exec.runner:ThreadRunner.run"),
)


def _rusage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


class Tracer:
    """Collects spans in memory; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record: dict[str, Any] = {"name": name, "parent": stack[-1] if stack else -1}
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            before = _rusage()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                after = _rusage()
                stack.pop()
                record.update(
                    start=start,
                    end=end,
                    user_s=after.ru_utime - before.ru_utime,
                    sys_s=after.ru_stime - before.ru_stime,
                    minflt=after.ru_minflt - before.ru_minflt,
                )
            record.update(_annotate(name, args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _annotate(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    """Work counts a span carries besides its timings (read after the span ends)."""
    if name == "population.build":
        return {"users": len(result)}
    if name == "cache.disk_load":
        status, _ = result
        if status != "hit":
            return {"hit": False}
        disk, key, codec = args[:3]
        return {"hit": True, "bytes": disk.path_for(key, codec).stat().st_size}
    if name == "adsapi.reach_matrix":
        return {"rows": int(result.shape[0])}
    if name == "core.bootstrap":
        return {
            "replicates": int(kwargs["n_bootstrap"]),
            "nan": sum(int(np.isnan(cutpoints).sum()) for cutpoints in result.values()),
            "values": sum(int(cutpoints.size) for cutpoints in result.values()),
        }
    return {}


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`LAYERS` with ``tracer``."""
    for span, target in LAYERS:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            setattr(module, attr, tracer.wrap(span, getattr(module, attr)))
            continue
        owner = getattr(module, owner_name)
        # Look the attribute up along the MRO, so inherited methods
        # (ThreadRunner.run) are wrapped on the named class only.
        raw = next(klass.__dict__[attr] for klass in owner.__mro__ if attr in klass.__dict__)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(tracer.wrap(span, raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(tracer.wrap(span, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            wrapped = tracer.wrap(span, raw)
        setattr(owner, attr, wrapped)


# -- folding spans into metrics ---------------------------------------------------------


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's wall time minus the wall time of its direct children."""
    selfs = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            selfs[span["parent"]] -= span["end"] - span["start"]
    return selfs


def nesting_errors(spans: list[dict[str, Any]]) -> list[str]:
    """Spans lying outside their parent, or with negative self time."""
    errors = []
    for index, span in enumerate(spans):
        parent = spans[span["parent"]] if span["parent"] >= 0 else None
        if parent is not None and not (
            parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        ):
            errors.append(f"span {index} ({span['name']}) lies outside its parent")
    for index, value in enumerate(self_times(spans)):
        if value < 0:
            errors.append(f"span {index} ({spans[index]['name']}) has self time {value}")
    return errors


def layer_metrics(
    spans: list[dict[str, Any]], setup_spans: list[dict[str, Any]]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Times are summed inclusive span wall times; ``setup_spans`` come from
    the traced set-up and feed only ``cache.disk_store_s``.
    """

    def of(name: str, source: list[dict[str, Any]] = spans) -> list[dict[str, Any]]:
        return [span for span in source if span["name"] == name]

    def wall(name: str, source: list[dict[str, Any]] = spans) -> float:
        return sum(span["end"] - span["start"] for span in of(name, source))

    builds = of("population.build")
    build_s = wall("population.build")
    loads = of("cache.disk_load")
    boots = of("core.bootstrap")
    boot_s = wall("core.bootstrap")
    boot_values = sum(span["values"] for span in boots)
    metrics = {
        "catalog.generate_s": (wall("catalog.generate"), "s"),
        "catalog.most_popular_s": (wall("catalog.most_popular"), "s"),
        "catalog.most_popular_calls": (len(of("catalog.most_popular")), "count"),
        "catalog.by_topic_s": (wall("catalog.by_topic"), "s"),
        "catalog.by_topic_calls": (len(of("catalog.by_topic")), "count"),
        "population.build_s": (build_s, "s"),
        "population.users_per_s": (
            sum(span["users"] for span in builds) / build_s if build_s else 0.0, "1/s"
        ),
        "population.assign_rows_s": (wall("population.assign_rows"), "s"),
        "pipeline.build_panel_calls": (len(of("pipeline.build_panel")), "count"),
        "cache.disk_load_s": (wall("cache.disk_load"), "s"),
        "cache.disk_hits": (sum(1 for span in loads if span["hit"]), "count"),
        "cache.disk_load_bytes": (sum(span.get("bytes", 0) for span in loads), "B"),
        "cache.disk_store_s": (wall("cache.disk_store", setup_spans), "s"),
        "adsapi.reach_matrix_s": (wall("adsapi.reach_matrix"), "s"),
        "adsapi.reach_matrix_rows": (
            sum(span["rows"] for span in of("adsapi.reach_matrix")), "count"
        ),
        "core.collect_s": (wall("core.collect"), "s"),
        "core.quantiles_s": (wall("core.quantiles"), "s"),
        "core.fit_s": (wall("core.fit"), "s"),
        "core.bootstrap_s": (boot_s, "s"),
        "core.bootstrap_minflt": (sum(span["minflt"] for span in boots), "count"),
        "core.bootstrap_sys_s": (sum(span["sys_s"] for span in boots), "s"),
        "core.bootstrap_replicates_per_s": (
            sum(span["replicates"] for span in boots) / boot_s if boot_s else 0.0, "1/s"
        ),
        "core.bootstrap_nan_share": (
            sum(span["nan"] for span in boots) / boot_values if boot_values else 0.0,
            "ratio",
        ),
        "fdvt.panel_users_s": (wall("fdvt.panel_users"), "s"),
        "core.nanotargeting_run_s": (wall("core.nanotargeting_run"), "s"),
        "delivery.run_calls": (len(of("delivery.run")), "count"),
        "delivery.run_s": (wall("delivery.run"), "s"),
        "campaigns.generate_s": (wall("campaigns.generate"), "s"),
        "countermeasures.workload_impact_s": (wall("countermeasures.workload_impact"), "s"),
        "exec.run_calls": (len(of("exec.run")), "count"),
        "exec.run_s": (wall("exec.run"), "s"),
    }
    return metrics


def covered_s(spans: list[dict[str, Any]]) -> float:
    """Wall time covered by root spans (those opened with no span open)."""
    return sum(span["end"] - span["start"] for span in spans if span["parent"] < 0)


def layer_table(spans: list[dict[str, Any]]) -> list[str]:
    """One line per span name: calls, wall, self, user and system time, faults."""
    rows: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span["name"], [0, 0.0, 0.0, 0.0, 0.0, 0])
        for column, value in enumerate(
            (1, span["end"] - span["start"], own, span["user_s"], span["sys_s"], span["minflt"])
        ):
            row[column] += value
    lines = [f"{'layer':34s} {'calls':>6s} {'wall_s':>9s} {'self_s':>9s} "
             f"{'user_s':>9s} {'sys_s':>9s} {'minflt':>9s}"]
    for name, (calls, wall, own, user, system, minflt) in sorted(
        rows.items(), key=lambda item: -item[1][1]
    ):
        lines.append(f"{name:34s} {calls:6d} {wall:9.3f} {own:9.3f} "
                     f"{user:9.3f} {system:9.3f} {minflt:9d}")
    return lines
