#!/usr/bin/env python3
"""FDVT defence: inspect and clean a user's risky interests (Section 6).

The bulk view rides the ``fdvt-risk`` scenario: one declarative spec builds
the simulation, fetches every covered panellist's "Risks of my FB
interests" report through the deduplicated (and shardable) bulk query, and
summarises the risk mix.  The second half keeps the interactive part of the
story — one-click removal of the high-risk interests and how much harder
the user becomes to single out afterwards.

Run with::

    python examples/fdvt_risk_report.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.adsapi import TargetingSpec
from repro.analysis import format_table
from repro.core import LeastPopularSelection
from repro.fdvt import FDVTExtension
from repro.population import PanelColumns
from repro.scenarios import get_scenario, run_scenario


def audience_of_rarest_interests(simulation, user, n_interests: int = 3) -> int:
    """Potential Reach of the user's N rarest interests (attacker's view)."""
    from repro.reach import country_codes

    ids, counts = LeastPopularSelection().order_interests_matrix_columns(
        PanelColumns.from_users((user,)), simulation.catalog, n_interests
    )
    ordered = ids[0, : counts[0]].tolist()
    spec = TargetingSpec.for_interests(ordered, locations=country_codes())
    return simulation.uniqueness_api.estimate_reach(spec).potential_reach


def main() -> None:
    spec = replace(get_scenario("fdvt-risk"), risk_users=40)
    simulation = spec.compile()
    result = run_scenario(spec, simulation=simulation)
    print(result.summary[0])
    print()
    print("Risk mix per panellist (first rows):")
    rows = [
        [row["user_id"], row["interests"], row["red"], row["orange"], row["green"]]
        for row in result.table[:8]
    ]
    print(format_table(["user", "interests", "red", "orange", "green"], rows))

    # -- the interactive half: clean one panellist's preferences ---------------
    extension = FDVTExtension(simulation.uniqueness_api, simulation.catalog)
    user = next(
        u for u in sorted(simulation.panel.users, key=lambda u: u.interest_count)
        if u.interest_count >= 40
    )
    report = extension.build_risk_report(user)
    print()
    print(
        f"Panellist #{user.user_id} ({user.country}): {user.interest_count} "
        f"interests; least popular first:"
    )
    rows = [
        [entry.name[:42], entry.risk.value, f"{entry.audience_size:,}"]
        for entry in report.entries[:10]
    ]
    print(format_table(["interest", "risk", "audience"], rows))

    before = audience_of_rarest_interests(simulation, user)
    protected_user, _ = extension.remove_risky_interests(user, report)
    removed = user.interest_count - protected_user.interest_count
    after = audience_of_rarest_interests(simulation, protected_user)
    print()
    print(f"Audience an attacker can build from the 3 rarest interests: {before:,} users")
    print(f"Removed {removed} high-risk (red) interests with one click each.")
    print(
        f"After the clean-up the same attack reaches {after:,} users "
        f"(floor = {simulation.uniqueness_api.platform.reach_floor})."
    )
    if after > before:
        print("The user is now strictly harder to single out.")


if __name__ == "__main__":
    main()
