"""Reification goldens: what every query plan lowers to.

``goldens/reify.json`` pins, for every plan below, the sha256 of
``repr((model, spec, kind, via, table_cols, out_param))`` of its
:class:`~repro.query.reify.ReifiedQuery`, or of the ``PlanError`` it
raises:

- the 8 registered query programs (``prog-<name>``);
- 600 seeded fuzz plans, ``_gen_query_plan(Random(9000 + i), "qp_<i>")``
  (``fuzz-<i>``);
- a grid no corpus reaches (``grid-...``): every aggregate kind over a
  word or byte key column with 0, 1 or 2 filters, over a scan and over
  an equi-join (filters on the left, the right, or above the join), plus
  grouped counts and projections with and without filters.

The model fixes the lowered term, the spec fixes the ABI and the length
facts.  A diff here means ``reify`` now lowers some plan differently.
Intentional changes: rerun with ``--update-goldens`` and commit the new
file.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.query import ir
from repro.query.programs import all_query_programs
from repro.resilience.generator import _gen_query_plan

# The module; its function of the same name is ``reify_module.reify``.
reify_module = importlib.import_module("repro.query.reify")

GOLDEN_PATH = Path(__file__).parent / "goldens" / "reify.json"
FUZZ_COUNT = 600
FUZZ_SEED = 9000
FILTER_PLACES = ((), ("left",), ("right",), ("above",), ("left", "right"),
                 ("above", "left"), ("above", "above"))


def _digest_of(reified) -> str:
    payload = repr((reified.model, reified.spec, reified.kind, reified.via,
                    reified.table_cols, reified.out_param))
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest(plan, name: str) -> str:
    try:
        reified = reify_module.reify(plan, name)
    except ir.PlanError as exc:
        return hashlib.sha256(f"PlanError: {exc}".encode()).hexdigest()
    return _digest_of(reified)


def _fuzz_digest(index: int) -> str:
    """Reify one fuzz plan, keeping the whole :class:`ReifiedQuery` (the
    generator returns only its model and spec)."""
    seen = []
    real = reify_module.reify

    def recording(plan, name):
        seen.append(real(plan, name))
        return seen[-1]

    reify_module.reify = recording
    try:
        _gen_query_plan(random.Random(FUZZ_SEED + index), f"qp_{index}")
    finally:
        reify_module.reify = real
    (reified,) = seen
    return _digest_of(reified)


def _filters(col: str, count: int):
    ops = ("lt", "ne")
    return [ir.Cmp(ops[i], ir.ColRef(col), ir.IntLit(3 + i)) for i in range(count)]


def _wrap(source, preds):
    for pred in preds:
        source = ir.Filter(pred, source)
    return source


def _value(kind: str, compound: bool, key: str, other: str):
    """The aggregate's expression: a single column or a compound one."""
    if kind == "count":
        return None
    expr = ir.ColRef(key)
    if compound:
        expr = ir.BinOp("add", ir.ColRef(other), expr)
    if kind == "any":
        return ir.Cmp("gt", expr, ir.IntLit(5))
    return expr


def _scan_grid():
    for kind, ty, count, compound in itertools.product(
        ir.AGG_KINDS, ir.COL_TYPES, (0, 1, 2), (False, True)
    ):
        scan = ir.Scan("t", ir.schema(("k", ty), "v"))
        plan = ir.Aggregate(kind, _wrap(scan, _filters("k", count)),
                            expr=_value(kind, compound, "k", "v"))
        yield f"grid-scan-{kind}-{ty}-{count}-{int(compound)}", plan


def _join_grid():
    for kind, ty, places, compound in itertools.product(
        ir.AGG_KINDS, ir.COL_TYPES, FILTER_PLACES, (False, True)
    ):
        left = ir.Scan("l", ir.schema(("a0", ty), "a1"))
        right = ir.Scan("r", ir.schema(("b0", ty), "b1"))
        left = _wrap(left, _filters("a1", places.count("left")))
        right = _wrap(right, _filters("b1", places.count("right")))
        join = ir.EquiJoin(left, right, "a0", "b0")
        source = _wrap(join, _filters("a1", places.count("above")))
        plan = ir.Aggregate(kind, source, expr=_value(kind, compound, "b1", "a1"))
        tag = "+".join(places) or "none"
        yield f"grid-join-{kind}-{ty}-{tag}-{int(compound)}", plan


def _shape_grid():
    for ty, count in itertools.product(ir.COL_TYPES, (0, 1, 2)):
        scan = ir.Scan("t", ir.schema(("key", ty), "v"))
        source = _wrap(scan, _filters("v", count))
        plan = ir.Aggregate("count", source, group_by="key")
        yield f"grid-groups-{ty}-{count}", plan
    for ty, count, compound in itertools.product(ir.COL_TYPES, (0, 1), (False, True)):
        scan = ir.Scan("t", ir.schema("a", ("b", ty)))
        expr = ir.BinOp("xor", ir.ColRef("a"), ir.ColRef("b")) if compound else ir.ColRef("b")
        plan = ir.Project((("c", expr),), _wrap(scan, _filters("a", count)))
        yield f"grid-project-{ty}-{count}-{int(compound)}", plan


def _all_digests() -> dict:
    digests = {f"prog-{p.name}": _digest(p.plan, p.name) for p in all_query_programs()}
    digests.update({f"fuzz-{i}": _fuzz_digest(i) for i in range(FUZZ_COUNT)})
    for key, plan in itertools.chain(_scan_grid(), _join_grid(), _shape_grid()):
        assert key not in digests
        digests[key] = _digest(plan, "q")
    return digests


@pytest.fixture(scope="module")
def digests():
    return _all_digests()


def test_the_grid_reaches_every_lowering_shape():
    vias = set()
    for _key, plan in itertools.chain(_scan_grid(), _join_grid(), _shape_grid()):
        try:
            vias.add(reify_module.reify(plan, "q").via)
        except ir.PlanError:
            vias.add("rejected")
    assert vias == {"fold", "fold_break", "aggregate", "join", "project",
                    "group_count", "rejected"}


def test_reify_matches_golden(digests, request):
    assert sum(key.startswith("prog-") for key in digests) == 8
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(expected), "the set of pinned plans changed"
    changed = sorted(key for key in digests if digests[key] != expected[key])
    assert not changed, f"reification changed for: {', '.join(changed)}"
