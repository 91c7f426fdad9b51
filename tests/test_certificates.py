"""Certificate goldens: what proof search derives, node by node.

``goldens/certificates.json`` pins, for every ``-O0`` derivation below,
the sha256 of the canonical ``Certificate.to_dict()`` JSON followed by
the ``repr`` of the derived Bedrock2 function:

- the 9 Table 2 programs and the 8 query programs (``prog-<name>``);
- the auxiliary suite, ``repro.programs.extra.EXTRA`` (``extra-<name>``),
  the only users of ``Nat.iter`` and the early-exit fold;
- 300 fuzz cases, ``generate_case(Random(7000 + i), i)``
  (``fuzz-<index>-<name>``), covering every generator family.

Each derivation runs on a fresh ``default_engine()``, so nothing another
test compiled can reach it.  The certificate fixes the lemma that fired
at every goal, the order of the child nodes and every discharged side
condition; the AST fixes local names and statement order.  A diff here
means proof search now derives something else.  Intentional changes:
rerun with ``--update-goldens`` and commit the new file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.programs import all_programs
from repro.programs.extra import EXTRA
from repro.query.programs import all_query_programs
from repro.resilience.generator import FAMILY_NAMES, generate_case
from repro.stdlib import default_engine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "certificates.json"
FUZZ_COUNT = 300
FUZZ_SEED = 7000


def _digest(model, spec) -> str:
    compiled = default_engine().compile_function(model, spec)
    payload = json.dumps(compiled.certificate.to_dict(), sort_keys=True)
    payload += "\n" + repr(compiled.bedrock_fn)
    return hashlib.sha256(payload.encode()).hexdigest()


def _derivations():
    """``(key, build)`` pairs; ``build()`` returns ``(model, spec)``."""
    for program in list(all_programs()) + list(all_query_programs()):
        yield f"prog-{program.name}", lambda p=program: (p.build_model(), p.build_spec())
    for name in sorted(EXTRA):
        yield f"extra-{name}", lambda name=name: EXTRA[name]()[:2]
    for index in range(FUZZ_COUNT):
        case = generate_case(random.Random(FUZZ_SEED + index), index)
        yield f"fuzz-{index}-{case.name}", lambda c=case: (c.model, c.spec)


def _all_digests() -> dict:
    return {key: _digest(*build()) for key, build in _derivations()}


@pytest.fixture(scope="module")
def digests():
    return _all_digests()


def test_the_corpus_covers_every_fuzz_family(digests):
    assert sum(key.startswith("prog-") for key in digests) == 17
    assert sum(key.startswith("extra-") for key in digests) == len(EXTRA)
    seen = {key.split("_", 1)[1].rsplit("_", 1)[0] for key in digests
            if key.startswith("fuzz-")}
    assert seen == set(FAMILY_NAMES)


def test_certificates_match_golden(digests, request):
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(expected), "the set of pinned derivations changed"
    changed = sorted(key for key in digests if digests[key] != expected[key])
    assert not changed, f"derivation changed for: {', '.join(changed)}"
