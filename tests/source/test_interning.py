"""Property tests for hash-consed terms (tentpole layer 2).

The interning constructor must be *semantically invisible*: structural
equality, hashing, repr, pickling, and every fingerprint derived from
them behave exactly as before, and only identity (sharing) changes.
Hypothesis drives random term blueprints through both modes; the
compile-key golden pins the serve-cache addresses so a warm cache
provably survives the upgrade (the committed values were generated from
the pre-interning tree and verified unchanged).
"""

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import engine_config
from repro.source import terms as t
from repro.source.types import BOOL, NAT, WORD

GOLDEN_KEYS = os.path.join(os.path.dirname(__file__), "goldens", "compile_keys.json")

# -- Blueprint strategy -------------------------------------------------------------
#
# Terms are generated from plain-data "blueprints" so one blueprint can
# be built twice (testing interning) or compared strictly (testing the
# equal-iff-structurally-equal property without Python's True == 1
# conflation getting in the way).

_OPS = ("word.add", "word.sub", "word.mul", "word.and")

_scalar = st.one_of(
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)

_blueprint = st.recursive(
    st.one_of(
        st.tuples(st.just("lit"), _scalar),
        st.tuples(st.just("var"), st.sampled_from("abcd")),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("prim"), st.sampled_from(_OPS), children, children),
        st.tuples(st.just("if"), children, children, children),
        st.tuples(st.just("len"), children),
        st.tuples(st.just("get"), children, children),
    ),
    max_leaves=12,
)


def build(blueprint) -> t.Term:
    kind = blueprint[0]
    if kind == "lit":
        value = blueprint[1]
        return t.Lit(value, BOOL if isinstance(value, bool) else WORD)
    if kind == "var":
        return t.Var(blueprint[1])
    if kind == "prim":
        return t.Prim(blueprint[1], (build(blueprint[2]), build(blueprint[3])))
    if kind == "if":
        return t.If(build(blueprint[1]), build(blueprint[2]), build(blueprint[3]))
    if kind == "len":
        return t.ArrayLen(build(blueprint[1]))
    assert kind == "get"
    return t.ArrayGet(build(blueprint[1]), build(blueprint[2]))


def strict_eq(a, b) -> bool:
    """Blueprint equality with exact scalar types (True != 1 here)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(strict_eq(x, y) for x, y in zip(a, b))
    return a == b


@pytest.fixture
def interning_on():
    with engine_config(fast_search=True):
        yield


@settings(max_examples=80, deadline=None)
@given(_blueprint)
def test_same_blueprint_interns_to_one_object(bp):
    with engine_config(fast_search=True):
        assert build(bp) is build(bp)


@settings(max_examples=80, deadline=None)
@given(_blueprint, _blueprint)
def test_interned_identity_iff_strictly_structurally_equal(bp1, bp2):
    with engine_config(fast_search=True):
        a, b = build(bp1), build(bp2)
        assert (a is b) == strict_eq(bp1, bp2)
        # Python-level == stays exactly the dataclass structural equality
        # (which conflates True/1 -- pre-existing semantics, unchanged).
        if a is b:
            assert a == b and hash(a) == hash(b)


@settings(max_examples=80, deadline=None)
@given(_blueprint)
def test_interned_and_plain_twins_agree(bp):
    """repr, ==, and hash are identical with interning on and off."""
    with engine_config(fast_search=True):
        interned = build(bp)
    with engine_config(fast_search=False):
        plain = build(bp)
    assert interned == plain and plain == interned
    assert hash(interned) == hash(plain)
    assert repr(interned) == repr(plain)


def test_bool_and_int_literals_stay_distinct(interning_on):
    """Regression: ``True == 1`` must not collapse the intern entries."""
    true_lit = t.Lit(True, WORD)
    one_lit = t.Lit(1, WORD)
    assert true_lit is not one_lit
    assert true_lit.value is True
    assert one_lit.value == 1 and not isinstance(one_lit.value, bool)
    # Parents of the two literals must not collapse either.
    assert t.Prim("word.add", (true_lit,)) is not t.Prim("word.add", (one_lit,))


def test_unhashable_payloads_skip_the_table(interning_on):
    lit = t.Lit([1, 2, 3], WORD)
    again = t.Lit([1, 2, 3], WORD)
    assert lit is not again  # un-interned, still perfectly usable
    assert lit == again


def test_pickle_roundtrip_drops_cached_hash(interning_on):
    node = t.Prim("word.add", (t.Var("a"), t.Lit(1, WORD)))
    hash(node)  # populate the cache
    assert "_hc_hash" in node.__dict__
    clone = pickle.loads(pickle.dumps(node))
    assert "_hc_hash" not in clone.__dict__
    assert clone == node and hash(clone) == hash(node)


def test_nat_literals_distinct_from_word_literals(interning_on):
    assert t.Lit(3, NAT) is not t.Lit(3, WORD)


# -- Fingerprint / compile-key stability --------------------------------------------


def _all_compile_keys():
    from repro.programs import all_programs
    from repro.query.programs import all_query_programs
    from repro.serve.fingerprint import compile_key
    from repro.stdlib import default_engine

    engine = default_engine()
    keys = {}
    for program in list(all_programs()) + list(all_query_programs()):
        model, spec = program.build_model(), program.build_spec()
        for level in (0, 1):
            keys[f"{program.name}@O{level}"] = compile_key(model, spec, engine, level)
    return keys


def test_compile_keys_identical_with_interning_off():
    with_intern = _all_compile_keys()
    with engine_config(fast_search=False):
        without_intern = _all_compile_keys()
    assert with_intern == without_intern


def test_compile_keys_match_pinned_golden():
    """Warm serve caches survive: addresses equal the pre-upgrade values.

    Regenerate (only after an *intentional* schema or fingerprint-input
    change) with ``python -m tests.source.test_interning``.
    """
    with open(GOLDEN_KEYS) as handle:
        golden = json.load(handle)
    assert _all_compile_keys() == golden


def test_source_fingerprint_identical_both_modes():
    from repro.programs import all_programs
    from repro.serve.fingerprint import source_fingerprint

    models = [p.build_model() for p in all_programs()]
    fast = [source_fingerprint(m) for m in models]
    with engine_config(fast_search=False):
        slow = [source_fingerprint(m) for m in models]
    assert fast == slow


if __name__ == "__main__":
    with open(GOLDEN_KEYS, "w") as handle:
        json.dump(_all_compile_keys(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_KEYS}")
