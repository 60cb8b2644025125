"""Traversal equivalence: the memoized ``children()`` and the iterative ``walk()``.

``SqlNode.children()`` is memoized as a tuple on the frozen node and
``walk()`` is an explicit-stack pre-order.  Every tree pass in difftree,
mapping, cost and the engine planner runs on them, so this suite checks both
against reference definitions over every node of every dataset query log —
parsed, and inside generated Difftrees (with their ANY/OPT nodes):

* ``children()`` equals, element by element and by identity, the children
  read straight from the dataclass fields;
* ``walk()`` yields exactly the recursive pre-order;
* nodes rebuilt by ``with_children`` or ``dataclasses.replace``, or sent
  through a pickle round trip, never carry a stale memo.

Two more facts are memoized on the frozen node the same way and held to the
same three checks: ``collect_choice_nodes`` (a tuple of the choice nodes in
pre-order, by identity) and ``tree_signature`` (the ``(label, child keys)``
tuple every per-tree cache key is built from).  The signature's label is
type-exact — ``1``, ``1.0`` and ``TRUE`` get different labels — so the
oracle below builds that label itself, from the dataclass fields.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sdss_query_log,
    sp500_query_log,
    sp500_window_query_log,
    synthetic_covid_log,
)
from repro.difftree.builder import build_forest
from repro.difftree.nodes import ChoiceNode, collect_choice_nodes
from repro.difftree.signatures import tree_signature
from repro.pipeline import PipelineConfig, generate_interface
from repro.sql.ast_nodes import Literal, SqlNode
from repro.sql.parser import parse_select

LOGS = {
    "covid": ("covid", covid_query_log() + covid_region_variant_queries()),
    "sdss": ("sdss", sdss_query_log()),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
    "synthetic_covid": ("covid", synthetic_covid_log(20)),
}


def field_children(node: SqlNode) -> list[SqlNode]:
    """Node-valued children read straight from the dataclass fields."""
    children: list[SqlNode] = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, SqlNode):
            children.append(value)
        elif isinstance(value, (list, tuple)):
            children.extend(item for item in value if isinstance(item, SqlNode))
    return children


def recursive_preorder(node: SqlNode):
    yield node
    for child in field_children(node):
        yield from recursive_preorder(child)


def fresh_choice_nodes(node: SqlNode) -> list[SqlNode]:
    return [descendant for descendant in recursive_preorder(node) if isinstance(descendant, ChoiceNode)]


def exact(value):
    """A scalar tagged with its type wherever Python equality would merge types."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, (list, tuple)):
        return tuple(exact(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, exact(item)) for key, item in value.items()))
    return value


def fresh_label(node: SqlNode) -> tuple:
    """Class name plus every non-node field, type-exact, sorted by field name."""
    scalars = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, SqlNode):
            continue
        if isinstance(value, (list, tuple)) and any(isinstance(item, SqlNode) for item in value):
            continue
        scalars.append((field.name, exact(value)))
    return (type(node).__name__, tuple(sorted(scalars, key=lambda pair: pair[0])))


def fresh_signature(node: SqlNode) -> tuple:
    return (fresh_label(node), tuple(fresh_signature(child) for child in field_children(node)))


def same_nodes(actual, expected) -> bool:
    actual, expected = list(actual), list(expected)
    return len(actual) == len(expected) and all(a is b for a, b in zip(actual, expected))


@pytest.fixture(scope="module")
def roots() -> dict[str, list[SqlNode]]:
    """Per log: the parsed queries, plus the Difftrees built and generated from them."""
    catalogs = {"covid": load_covid_catalog(), "sdss": load_sdss_catalog(), "sp500": load_sp500_catalog()}
    result = {}
    for name, (dataset, log) in LOGS.items():
        trees = [parse_select(sql) for sql in log]
        trees.extend(build_forest(log, strategy="merged").trees)
        trees.extend(generate_interface(log, catalogs[dataset], PipelineConfig(seed=1)).forest.trees)
        result[name] = trees
    return result


@pytest.mark.parametrize("log", sorted(LOGS))
def test_children_match_the_dataclass_fields(roots, log):
    checked = 0
    for root in roots[log]:
        for node in recursive_preorder(root):
            first = node.children()
            assert isinstance(first, tuple)
            assert same_nodes(first, field_children(node)), type(node).__name__
            assert node.children() is first  # memoized
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("log", sorted(LOGS))
def test_walk_is_the_recursive_preorder(roots, log):
    for root in roots[log]:
        assert same_nodes(root.walk(), recursive_preorder(root))
        for node in root.walk():
            assert same_nodes(node.walk(), recursive_preorder(node))


def test_generated_difftrees_contain_choice_nodes(roots):
    """Sanity: the Difftree half of the corpus really holds ANY/OPT nodes."""
    assert any(isinstance(node, ChoiceNode) for trees in roots.values() for tree in trees for node in tree.walk())


def first_child_replaced(node: SqlNode, marker: SqlNode) -> dict:
    """``replace()`` keywords swapping the node's first child for ``marker``."""
    first = node.children()[0]
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if value is first:
            return {field.name: marker}
        if isinstance(value, list) and value and value[0] is first:
            return {field.name: [marker, *value[1:]]}
    raise AssertionError(f"first child of {type(node).__name__} not found in its fields")


@pytest.mark.parametrize("log", sorted(LOGS))
def test_rebuilt_nodes_carry_no_stale_memo(roots, log):
    for root in roots[log]:
        for node in root.walk():
            old = node.children()  # populate the memo before rebuilding
            if not old:
                continue
            markers = [Literal(index) for index in range(len(old))]
            assert same_nodes(node.with_children(markers).children(), markers)
            replaced = dataclasses.replace(node, **first_child_replaced(node, markers[0]))
            assert same_nodes(replaced.children(), field_children(replaced))
            assert replaced.children()[0] is markers[0]


@pytest.mark.parametrize("log", sorted(LOGS))
def test_pickled_nodes_carry_no_stale_memo(roots, log):
    for root in roots[log]:
        for node in root.walk():
            node.children()  # memoize everywhere before pickling
        copy = pickle.loads(pickle.dumps(root))
        assert copy == root
        for node in recursive_preorder(copy):
            assert same_nodes(node.children(), field_children(node))
        assert same_nodes(copy.walk(), recursive_preorder(copy))


def test_memo_is_invisible_to_equality_and_repr():
    fresh = parse_select("SELECT a, sum(b) FROM t WHERE a > 1 GROUP BY a")
    walked = parse_select("SELECT a, sum(b) FROM t WHERE a > 1 GROUP BY a")
    list(walked.walk())
    assert walked == fresh
    assert repr(walked) == repr(fresh)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_choice_nodes_match_a_fresh_walk(roots, log):
    for root in roots[log]:
        for node in recursive_preorder(root):
            first = collect_choice_nodes(node)
            assert isinstance(first, tuple)
            assert same_nodes(first, fresh_choice_nodes(node)), type(node).__name__
            assert collect_choice_nodes(node) is first  # memoized


@pytest.mark.parametrize("log", sorted(LOGS))
def test_tree_signatures_match_a_fresh_computation(roots, log):
    for root in roots[log]:
        for node in recursive_preorder(root):
            first = tree_signature(node)
            assert first == fresh_signature(node), type(node).__name__
            assert tree_signature(node) is first  # memoized


@pytest.mark.parametrize("log", sorted(LOGS))
def test_rebuilt_nodes_carry_no_stale_choice_or_signature_memo(roots, log):
    for root in roots[log]:
        for node in root.walk():
            old = node.children()
            if not old:
                continue
            collect_choice_nodes(node)  # populate both memos before rebuilding
            tree_signature(node)
            markers = [Literal(f"marker {index}") for index in range(len(old))]
            for rebuilt in (
                node.with_children(markers),
                dataclasses.replace(node, **first_child_replaced(node, markers[0])),
            ):
                assert same_nodes(collect_choice_nodes(rebuilt), fresh_choice_nodes(rebuilt))
                assert tree_signature(rebuilt) == fresh_signature(rebuilt)
                assert tree_signature(rebuilt) != tree_signature(node)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_pickled_nodes_carry_no_stale_choice_or_signature_memo(roots, log):
    for root in roots[log]:
        for node in root.walk():
            collect_choice_nodes(node)  # memoize everywhere before pickling
            tree_signature(node)
        copy = pickle.loads(pickle.dumps(root))
        for node in recursive_preorder(copy):
            # By identity: the memo lists the copy's own choice nodes.
            assert same_nodes(collect_choice_nodes(node), fresh_choice_nodes(node))
            assert tree_signature(node) == fresh_signature(node)
