"""``HintDb.copy``: an independent database that keeps the warm memos.

The standard databases are built once per process and handed out as
copies, so a copy must answer ``candidates``/``fingerprint`` exactly as
the original does, and a mutation on either side must reach only its
own memos.
"""

from repro.core.lemma import HintDb


class FakeLemma:
    def __init__(self, name, index_heads=None, shapes=()):
        self.name = name
        self.index_heads = index_heads
        self.shapes = tuple(shapes)


def sample_db(name="sample"):
    db = HintDb(name)
    db.register(FakeLemma("a", ("Var",)), priority=5)
    db.register(FakeLemma("b", None), priority=7)
    db.register(FakeLemma("c", ("Var", "Lit")), priority=3)
    return db


def test_copy_carries_the_memos():
    db = sample_db()
    warm = {head: db.candidates(head) for head in ("Var", "Lit", "Prim")}
    fingerprint = db.fingerprint()
    clone = db.copy()
    assert clone._fingerprint_cache == fingerprint
    assert set(clone._candidate_cache) == set(warm)
    for head, found in warm.items():
        assert clone.candidates(head) == found
        assert clone.candidates(head) is not found  # its own list
    assert clone.fingerprint() == fingerprint == sample_db().fingerprint()


def test_renamed_copy_drops_the_fingerprint():
    db = sample_db()
    db.fingerprint()
    renamed = db.copy("other")
    assert renamed._fingerprint_cache is None
    assert renamed.fingerprint() == sample_db("other").fingerprint()
    assert renamed.fingerprint() != db.fingerprint()


def test_mutating_a_copy_invalidates_only_its_memos():
    db = sample_db()
    before = (db.candidates("Var"), db.fingerprint())
    clone = db.copy()
    clone.remove("c")
    assert [lemma.name for lemma in clone.candidates("Var")] == ["a", "b"]
    assert clone.fingerprint() != before[1]
    assert (db.candidates("Var"), db.fingerprint()) == before
    assert [lemma.name for lemma in db.candidates("Var")] == ["c", "a", "b"]

    db.register(FakeLemma("d", ("Lit",)), priority=0)
    assert [lemma.name for lemma in db.candidates("Lit")] == ["d", "c", "b"]
    assert [lemma.name for lemma in clone.candidates("Lit")] == ["b"]
