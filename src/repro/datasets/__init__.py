"""Deterministic synthetic datasets for the three demo scenarios."""

from repro.datasets.covid import (
    CovidConfig,
    covid_query_log,
    covid_region_variant_queries,
    generate_covid_cases,
    generate_state_regions,
    synthetic_covid_log,
)
from repro.datasets.loader import (
    demo_scenarios,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
)
from repro.datasets.sdss import (
    SdssConfig,
    generate_photo_obj,
    sdss_extended_query_log,
    sdss_query_log,
)
from repro.datasets.sp500 import (
    Sp500Config,
    generate_prices,
    generate_sectors,
    sp500_query_log,
    sp500_window_query_log,
)

__all__ = [
    "CovidConfig",
    "covid_query_log",
    "covid_region_variant_queries",
    "generate_covid_cases",
    "generate_state_regions",
    "synthetic_covid_log",
    "SdssConfig",
    "generate_photo_obj",
    "sdss_query_log",
    "sdss_extended_query_log",
    "Sp500Config",
    "generate_prices",
    "generate_sectors",
    "sp500_query_log",
    "sp500_window_query_log",
    "demo_scenarios",
    "load_covid_catalog",
    "load_sdss_catalog",
    "load_sp500_catalog",
]
