"""The pipeline's contract: a generated interface expresses its log and every state runs.

A generated PI2 interface is an application with embedded SQL: each widget
state instantiates its Difftree into a query the engine must run.  For the
paper logs under every search method, and for two synthetic logs under
seeded MCTS, this suite checks the generated forest against:

* **expressiveness** — every input query has a binding
  (``find_binding_for``) on the tree that owns it;
* **soundness** — every binding of every tree (the first 512 per tree)
  instantiates to SQL text that parses and executes on the engine.
"""

from __future__ import annotations

import itertools

import pytest

from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sp500_query_log,
    sp500_window_query_log,
    synthetic_covid_log,
)
from repro.difftree.instantiate import enumerate_bindings, find_binding_for, instantiate
from repro.pipeline import PipelineConfig, generate_interface
from repro.sql.printer import to_sql

PAPER_LOGS = {
    "covid": ("covid", covid_query_log()),
    "covid_v3": ("covid", covid_query_log() + [covid_region_variant_queries()[1]]),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
}
CASES = [
    (name, dataset, log, method, 7)
    for name, (dataset, log) in PAPER_LOGS.items()
    for method in ("mcts", "greedy", "beam")
]
CASES += [
    ("synthetic10", "covid", synthetic_covid_log(10), "mcts", 11),
    ("synthetic14", "covid", synthetic_covid_log(14), "mcts", 12),
]
#: Bindings executed per tree.
STATES_PER_TREE = 512


@pytest.fixture(scope="module")
def catalogs():
    return {"covid": load_covid_catalog(), "sdss": load_sdss_catalog(), "sp500": load_sp500_catalog()}


@pytest.mark.parametrize("name, dataset, log, method, seed", CASES, ids=[f"{case[0]}-{case[3]}" for case in CASES])
def test_generated_interface_expresses_its_log_and_every_state_runs(catalogs, name, dataset, log, method, seed):
    catalog = catalogs[dataset]
    forest = generate_interface(log, catalog, PipelineConfig(method=method, seed=seed)).forest
    for tree_index, members in enumerate(forest.members):
        for query_index in members:
            binding = find_binding_for(forest.trees[tree_index], forest.queries[query_index])
            assert binding is not None, f"{name}/{method}: query {query_index} has no binding"
    states = 0
    for tree in forest.trees:
        for bindings in itertools.islice(enumerate_bindings(tree), STATES_PER_TREE):
            sql = to_sql(instantiate(tree, bindings))
            catalog.execute(sql)  # raises on SQL the engine cannot parse, analyze or run
            states += 1
    assert states >= forest.tree_count
