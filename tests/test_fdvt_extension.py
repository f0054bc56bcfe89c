"""Tests for the FDVT extension: ad-preference collection and the risk view."""

from __future__ import annotations

import pytest

from repro.errors import PanelError
from repro.fdvt import FDVTExtension, InterestStatus, RiskLevel
from repro.population import SyntheticUser


@pytest.fixture()
def extension(modern_api, catalog) -> FDVTExtension:
    return FDVTExtension(modern_api, catalog)


@pytest.fixture()
def sample_user(panel) -> SyntheticUser:
    # A user with a moderate number of interests keeps API traffic small.
    candidates = sorted(panel.users, key=lambda u: u.interest_count)
    return next(u for u in candidates if u.interest_count >= 12)


class TestAdPreferencesCollection:
    def test_snapshot_matches_user_interests(self, extension, sample_user):
        snapshot = extension.collect_ad_preferences(sample_user)
        assert snapshot.user_id == sample_user.user_id
        assert snapshot.interest_ids == sample_user.interest_ids

    def test_interest_audience_size_respects_floor(self, extension, modern_api, catalog):
        rarest = catalog.rarest(1)[0]
        holder = SyntheticUser(
            user_id=10**6, country="US", interest_ids=(rarest.interest_id,)
        )
        (entry,) = extension.build_risk_report(holder).entries
        assert entry.audience_size >= modern_api.platform.reach_floor


class TestRiskReport:
    def test_entries_are_sorted_ascending(self, extension, sample_user):
        report = extension.build_risk_report(sample_user)
        sizes = [entry.audience_size for entry in report.entries]
        assert sizes == sorted(sizes)
        assert len(report.entries) == sample_user.interest_count

    def test_risk_counts_cover_all_entries(self, extension, sample_user):
        report = extension.build_risk_report(sample_user)
        counts = report.risk_counts()
        assert sum(counts.values()) == len(report.active_entries)

    def test_remove_marks_entry_inactive(self, extension, sample_user):
        report = extension.build_risk_report(sample_user)
        first = report.entries[0]
        updated = report.remove(first.interest_id)
        assert updated.entries[0].status is InterestStatus.INACTIVE
        assert first.interest_id not in updated.active_interest_ids()

    def test_remove_unknown_interest_raises(self, extension, sample_user):
        report = extension.build_risk_report(sample_user)
        with pytest.raises(PanelError):
            report.remove(10**9)

    def test_remove_interest_from_user(self, extension, sample_user):
        target = sample_user.interest_ids[0]
        updated = extension.remove_interest(sample_user, target)
        assert not updated.has_interest(target)
        with pytest.raises(PanelError):
            extension.remove_interest(sample_user, 10**9)

    def test_remove_risky_interests_eliminates_red_entries(self, extension, sample_user):
        updated_user, updated_report = extension.remove_risky_interests(sample_user)
        assert not updated_report.entries_at_risk()
        removed = sample_user.interest_count - updated_user.interest_count
        inactive = sum(
            1 for e in updated_report.entries if e.status is InterestStatus.INACTIVE
        )
        assert removed == inactive

    def test_user_without_interests_rejected(self, extension):
        empty_user = SyntheticUser(999_999, "ES", interest_ids=())
        with pytest.raises(PanelError):
            extension.build_risk_report(empty_user)


class TestRevenueIntegration:
    def test_session_revenue_uses_user_country(self, extension, sample_user):
        estimate = extension.estimate_session_revenue(
            sample_user, impressions=50, clicks=1
        )
        assert estimate.country == sample_user.country
        assert estimate.total_eur > 0.0
