"""Reification shape selection and its rejection surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.query import ir
from repro.query.reify import reify
from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.source import terms as t


def _via(plan):
    return reify(plan, "q").via


def test_unfiltered_single_column_sum_reuses_fold():
    plan = ir.Aggregate("sum", ir.Scan("t", ir.schema("v")), expr=ir.ColRef("v"))
    reified = reify(plan, "q")
    assert reified.via == "fold"
    assert isinstance(reified.model.term.value, t.ArrayFold)


def test_single_column_any_reuses_fold_break():
    plan = ir.Aggregate(
        "any",
        ir.Scan("t", ir.schema(("k", "byte"))),
        expr=ir.Cmp("gt", ir.ColRef("k"), ir.IntLit(9)),
    )
    reified = reify(plan, "q")
    assert reified.via == "fold_break"
    assert isinstance(reified.model.term.value, t.ArrayFoldBreak)


def test_filtered_sum_lowers_to_qaggregate():
    plan = ir.Aggregate(
        "sum",
        ir.Filter(
            ir.Cmp("lt", ir.ColRef("k"), ir.IntLit(5)),
            ir.Scan("t", ir.schema("k", "v")),
        ),
        expr=ir.ColRef("v"),
    )
    reified = reify(plan, "q")
    assert reified.via == "aggregate"
    assert isinstance(reified.model.term.value, QAggregate)


def test_join_lowers_to_qjoinagg():
    plan = ir.Aggregate(
        "count",
        ir.EquiJoin(
            ir.Scan("l", ir.schema("k")),
            ir.Scan("r", ir.schema("j")),
            "k",
            "j",
        ),
    )
    reified = reify(plan, "q")
    assert reified.via == "join"
    assert isinstance(reified.model.term.value, QJoinAgg)
    assert reified.tables == ("l", "r")


def test_projection_lowers_to_qprojectinto():
    plan = ir.Project(
        (("c", ir.ColRef("a")),), ir.Scan("t", ir.schema("a"))
    )
    reified = reify(plan, "q")
    assert reified.via == "project"
    assert isinstance(reified.model.term.value, QProjectInto)
    assert reified.out_param == "out"


def test_group_count_nests_aggregate_in_projection():
    plan = ir.Aggregate(
        "count", ir.Scan("t", ir.schema("key")), group_by="key"
    )
    reified = reify(plan, "q")
    assert reified.via == "group_count"
    proj = reified.model.term.value
    assert isinstance(proj, QProjectInto)
    assert isinstance(proj.body, QAggregate)
    assert reified.out_param == "hist"


def test_table_facts_anchor_column_lengths():
    plan = ir.Aggregate(
        "sum",
        ir.Filter(
            ir.Cmp("lt", ir.ColRef("k"), ir.IntLit(5)),
            ir.Scan("t", ir.schema("k", "v")),
        ),
        expr=ir.ColRef("v"),
    )
    spec = reify(plan, "q").spec
    rendered = [t.pretty(fact) for fact in spec.facts]
    assert any("len(v)" in fact and "len(k)" in fact for fact in rendered)


def test_multi_column_projection_rejected():
    plan = ir.Project(
        (("x", ir.ColRef("a")), ("y", ir.ColRef("a"))),
        ir.Scan("t", ir.schema("a")),
    )
    with pytest.raises(ir.PlanError):
        reify(plan, "q")


def test_filtered_projection_rejected():
    plan = ir.Project(
        (("x", ir.ColRef("a")),),
        ir.Filter(
            ir.Cmp("lt", ir.ColRef("a"), ir.IntLit(5)),
            ir.Scan("t", ir.schema("a")),
        ),
    )
    with pytest.raises(ir.PlanError):
        reify(plan, "q")


def test_bare_scan_rejected():
    with pytest.raises(ir.PlanError):
        reify(ir.Scan("t", ir.schema("a")), "q")


def test_reserved_column_names_rejected():
    plan = ir.Aggregate(
        "sum", ir.Scan("t", ir.schema("out")), expr=ir.ColRef("out")
    )
    with pytest.raises(ir.PlanError):
        reify(plan, "q")


def test_byte_columns_widen_through_cast():
    plan = ir.Aggregate(
        "sum", ir.Scan("t", ir.schema(("v", "byte"))), expr=ir.ColRef("v")
    )
    reified = reify(plan, "q")
    assert "cast.b2w" in repr(reified.model.term)


#: Each import order, and what must hold after it in a fresh interpreter.
IMPORT_ORDERS = {
    "submodule-first": """
import types
import repro.query.reify
from repro.query import reify
assert isinstance(reify, types.ModuleType), reify
""",
    "package-first": """
import types
from repro.query import reify
import repro.query.reify as module
assert isinstance(reify, types.ModuleType), reify
assert module is reify and callable(module.reify)
""",
}


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_repro_query_reify_is_the_submodule_in_either_import_order(order):
    code = IMPORT_ORDERS[order] + """
import repro.query
assert "reify" not in repro.query.__all__
assert repro.query.ReifiedQuery is repro.query.reify.ReifiedQuery
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
