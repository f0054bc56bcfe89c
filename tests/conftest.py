"""Shared fixtures for the test suite.

Most tests run against a heavily scaled-down configuration (small catalog,
small panel, few bootstrap replicates) so the whole suite stays fast while
still exercising every code path of the full-scale reproduction.

Simulation builds are shared by content fingerprint: the fixtures delegate
to :mod:`tests/_builders`, whose suite-wide
:class:`repro.cache.BuildCache` lets every test that compiles the same
(config, seed) reuse the catalog and panel stages while keeping the
mutable per-run shell fresh.  Test modules that build their own
simulations or APIs import those helpers (``from _builders import
build_cached_simulation, fresh_legacy_api``) instead of hand-rolling them.
"""

from __future__ import annotations

import pytest

from _builders import (
    SUITE_BUILD_CACHE,
    build_cached_simulation,
    fresh_legacy_api,
    fresh_modern_api,
)
from repro.adsapi import AdsManagerAPI
from repro.cache import BuildCache
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PanelConfig
from repro.fdvt import FDVTPanel, PanelBuilder
from repro.population import InterestAssigner
from repro.reach import StatisticalReachModel


@pytest.fixture(scope="session")
def suite_build_cache() -> BuildCache:
    """The suite-wide build cache behind :func:`build_cached_simulation`."""
    return SUITE_BUILD_CACHE


@pytest.fixture(scope="session")
def simulation_factory():
    """The fingerprint-keyed session builder, as a fixture."""
    return build_cached_simulation


@pytest.fixture(scope="session")
def simulation():
    """A fully wired, scaled-down simulation shared across the suite."""
    return build_cached_simulation()


@pytest.fixture(scope="session")
def catalog(simulation) -> InterestCatalog:
    """The shared scaled-down interest catalog."""
    return simulation.catalog


@pytest.fixture(scope="session")
def panel(simulation) -> FDVTPanel:
    """The shared scaled-down FDVT panel."""
    return simulation.panel


@pytest.fixture(scope="session")
def reach_model(simulation) -> StatisticalReachModel:
    """The shared world-scale reach model."""
    return simulation.reach_model


@pytest.fixture(scope="session")
def tiny_catalog() -> InterestCatalog:
    """A very small catalog for unit tests that build their own objects."""
    return InterestCatalog.generate(
        CatalogConfig(n_interests=300, n_topics=6, seed=7), seed=7
    )


@pytest.fixture(scope="session")
def tiny_panel(tiny_catalog) -> FDVTPanel:
    """A very small panel built on the tiny catalog."""
    config = PanelConfig(
        n_users=30,
        n_men=20,
        n_women=8,
        n_gender_undisclosed=2,
        n_adolescents=4,
        n_early_adults=16,
        n_adults=7,
        n_matures=1,
        n_age_undisclosed=2,
        median_interests_per_user=60.0,
        max_interests_per_user=250,
        seed=11,
    )
    assigner = InterestAssigner(tiny_catalog)
    return PanelBuilder(tiny_catalog, config, assigner=assigner).build_columns(seed=11)


@pytest.fixture()
def legacy_api(simulation) -> AdsManagerAPI:
    """A fresh Ads API with the January 2017 platform limits (floor = 20)."""
    return fresh_legacy_api(simulation)


@pytest.fixture()
def modern_api(simulation) -> AdsManagerAPI:
    """A fresh Ads API with the late 2020 platform limits (floor = 1000)."""
    return fresh_modern_api(simulation)
