"""Synthetic COVID-19 daily case-count dataset.

The demo's case study (Section 3.2) analyzes a table of daily case counts per
US state in late 2021, with a companion region lookup used by the "focused
region investigation" query Q4.  The real dataset is not redistributable, so
this module generates a deterministic synthetic equivalent with the same
schema and the distributional features the walkthrough relies on:

* a long national time series with a strong upward trend in December 2021
  (the "winter wave" Jane investigates),
* per-state baselines that differ by an order of magnitude,
* Florida (South) and New York (Northeast) exhibiting the fastest growth, so
  the case study's final recommendation falls out of the data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

from repro.engine.table import Table

#: (state, region, baseline daily cases, December growth multiplier)
STATE_PROFILES: tuple[tuple[str, str, float, float], ...] = (
    ("NY", "Northeast", 4000.0, 3.0),
    ("MA", "Northeast", 1500.0, 2.0),
    ("PA", "Northeast", 2000.0, 1.8),
    ("NJ", "Northeast", 1800.0, 2.2),
    ("FL", "South", 3500.0, 3.5),
    ("TX", "South", 3800.0, 1.6),
    ("GA", "South", 1700.0, 1.9),
    ("NC", "South", 1400.0, 1.5),
    ("IL", "Midwest", 2500.0, 1.7),
    ("OH", "Midwest", 2200.0, 1.6),
    ("MI", "Midwest", 2100.0, 1.8),
    ("CA", "West", 5000.0, 1.5),
    ("WA", "West", 1200.0, 1.4),
    ("AZ", "West", 1300.0, 1.6),
)

DEFAULT_START = date(2021, 9, 1)
DEFAULT_END = date(2021, 12, 28)


@dataclass(frozen=True)
class CovidConfig:
    """Generation parameters for the synthetic COVID dataset."""

    start: date = DEFAULT_START
    end: date = DEFAULT_END
    seed: int = 7
    noise: float = 0.08

    def day_count(self) -> int:
        return (self.end - self.start).days + 1


def _daily_cases(
    baseline: float,
    growth: float,
    day_index: int,
    total_days: int,
    rng: random.Random,
    noise: float,
) -> int:
    """Cases for one state-day: weekly seasonality + December surge + noise."""
    weekly = 1.0 + 0.15 * math.sin(2 * math.pi * day_index / 7.0)
    progress = day_index / max(total_days - 1, 1)
    # The surge ramps up over the last third of the window.
    surge_share = max(0.0, (progress - 0.66) / 0.34)
    surge = 1.0 + (growth - 1.0) * surge_share**2
    jitter = 1.0 + rng.gauss(0.0, noise)
    return max(0, int(round(baseline * weekly * surge * jitter)))


def generate_covid_cases(config: CovidConfig | None = None) -> Table:
    """Generate the ``covid_cases(state, date, cases)`` table (column-major)."""
    config = config or CovidConfig()
    rng = random.Random(config.seed)
    total_days = config.day_count()
    dates = [(config.start + timedelta(days=index)).isoformat() for index in range(total_days)]
    state_column: list[object] = []
    date_column: list[object] = []
    cases_column: list[object] = []
    for state, _region, baseline, growth in STATE_PROFILES:
        state_column.extend([state] * total_days)
        date_column.extend(dates)
        cases_column.extend(
            _daily_cases(baseline, growth, day_index, total_days, rng, config.noise)
            for day_index in range(total_days)
        )
    return Table.from_columns(
        "covid_cases",
        {"state": state_column, "date": date_column, "cases": cases_column},
        adopt=True,
    )


def generate_state_regions() -> Table:
    """Generate the ``state_regions(state, region)`` lookup table."""
    return Table.from_columns(
        "state_regions",
        {
            "state": [state for state, _region, _baseline, _growth in STATE_PROFILES],
            "region": [region for _state, region, _baseline, _growth in STATE_PROFILES],
        },
        adopt=True,
    )


def covid_query_log() -> list[str]:
    """The analysis log of the Section 3.2 walkthrough.

    Q1 — overall national timeline; Q2a/Q2b — the two preceding half-month
    detail ranges the analyst looks back over (Step 1 of the walkthrough);
    Q3 — per-state trends within the detail range (Step 2); Q4 — region focus
    with an above-regional-average filter expressed via joins and a correlated
    subquery (Step 3).
    """
    q1 = (
        "SELECT date, sum(cases) AS total_cases "
        "FROM covid_cases GROUP BY date ORDER BY date"
    )
    q2a = (
        "SELECT date, sum(cases) AS total_cases "
        "FROM covid_cases "
        "WHERE date BETWEEN '2021-12-01' AND '2021-12-14' "
        "GROUP BY date ORDER BY date"
    )
    q2b = (
        "SELECT date, sum(cases) AS total_cases "
        "FROM covid_cases "
        "WHERE date BETWEEN '2021-12-15' AND '2021-12-28' "
        "GROUP BY date ORDER BY date"
    )
    q3 = (
        "SELECT date, state, sum(cases) AS cases "
        "FROM covid_cases "
        "WHERE date BETWEEN '2021-12-01' AND '2021-12-28' "
        "GROUP BY date, state ORDER BY date"
    )
    q4 = (
        "SELECT c.date, c.state, sum(c.cases) AS cases "
        "FROM covid_cases c JOIN state_regions r ON c.state = r.state "
        "WHERE c.date BETWEEN '2021-12-01' AND '2021-12-28' "
        "AND r.region = 'South' "
        "AND c.state IN ("
        "SELECT c2.state FROM covid_cases c2 JOIN state_regions r2 ON c2.state = r2.state "
        "WHERE r2.region = 'South' "
        "GROUP BY c2.state "
        "HAVING avg(c2.cases) > ("
        "SELECT avg(c3.cases) FROM covid_cases c3 JOIN state_regions r3 ON c3.state = r3.state "
        "WHERE r3.region = 'South')"
        ") "
        "GROUP BY c.date, c.state ORDER BY c.date"
    )
    return [q1, q2a, q2b, q3, q4]


def covid_region_variant_queries() -> list[str]:
    """Q4 variants for the South and Northeast regions (the button pair in V3)."""
    south = covid_query_log()[4]
    northeast = south.replace("'South'", "'Northeast'")
    return [south, northeast]


def synthetic_covid_log(size: int) -> list[str]:
    """A log of ``size`` (at most 20) structurally-related analysis queries.

    Mimics how an analyst widens one investigation: the same aggregate shape
    re-filtered over sliding date windows, per-state drill-downs over varying
    thresholds, and a couple of dissimilar probes that must stay separate
    trees.  Sliding windows merge into range choices, thresholds into sliders
    — a realistic forest for the search to compress.
    """
    queries: list[str] = [
        "SELECT date, sum(cases) AS total_cases FROM covid_cases GROUP BY date ORDER BY date",
    ]
    windows = [
        ("2021-11-01", "2021-11-14"),
        ("2021-11-15", "2021-11-28"),
        ("2021-12-01", "2021-12-14"),
        ("2021-12-15", "2021-12-28"),
        ("2021-12-08", "2021-12-21"),
        ("2021-11-08", "2021-11-21"),
    ]
    for low, high in windows:
        queries.append(
            "SELECT date, sum(cases) AS total_cases FROM covid_cases "
            f"WHERE date BETWEEN '{low}' AND '{high}' GROUP BY date ORDER BY date"
        )
    for threshold in (100, 250, 500, 1000, 2000, 4000):
        queries.append(
            "SELECT date, state, sum(cases) AS cases FROM covid_cases "
            f"WHERE cases > {threshold} GROUP BY date, state ORDER BY date"
        )
    for state in ("'NY'", "'CA'", "'TX'", "'FL'", "'WA'", "'GA'"):
        queries.append(f"SELECT date, cases FROM covid_cases WHERE state = {state} ORDER BY date")
    queries.append("SELECT state, region FROM state_regions ORDER BY state")
    return queries[:size]
