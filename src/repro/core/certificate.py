"""Derivation certificates.

In Coq, every Rupicola run produces a proof term certifying the derived
Bedrock2 program against its functional model.  Without a proof kernel, we
keep the *architecture*: the (untrusted) proof search records every lemma
application into a :class:`Certificate`; a separate, much smaller checker
(:mod:`repro.validation`) re-validates it.  This matches the paper's own
observation (§5) that "it would not be unreasonable to classify Rupicola
as a translation-validation system, since it uses unverified Ltac scripts
to generate output programs along with 'witnesses' of correctness".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence

# Version header of the canonical serialization.  Bump whenever the
# shape of the serialized tree changes; deserialization refuses other
# versions, and the compilation cache (repro.serve) folds this number
# into its keys so a schema change invalidates every stored entry.
CERT_SCHEMA_VERSION = 1


class CertificateDecodeError(Exception):
    """A serialized certificate is malformed or from another schema."""


# The three classes below are frozen, and ``from_dict`` builds their
# sequences as tuples, so a decoded certificate cannot be changed at all:
# the compilation cache hands one decoded certificate to every request
# that hits the same checked entry (repro.serve.cache).


@dataclass(frozen=True)
class SideCondition:
    """A discharged obligation: what was proved, and by which solver."""

    description: str
    obligation_pretty: str
    solver: str

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "obligation": self.obligation_pretty,
            "solver": self.solver,
        }

    @staticmethod
    def from_dict(data: dict) -> "SideCondition":
        try:
            return SideCondition(
                description=data["description"],
                obligation_pretty=data["obligation"],
                solver=data["solver"],
            )
        except (KeyError, TypeError) as exc:
            raise CertificateDecodeError(f"bad side condition: {exc!r}") from None


@dataclass(frozen=True)
class CertNode:
    """One lemma application in the derivation tree."""

    lemma: str
    conclusion: str  # rendering of the goal this node solved
    code: str  # rendering of the code fragment this node contributed
    side_conditions: Sequence[SideCondition] = field(default_factory=list)
    children: Sequence["CertNode"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def lemmas_used(self) -> List[str]:
        names = [self.lemma]
        for child in self.children:
            names.extend(child.lemmas_used())
        return names

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}[{self.lemma}] {self.conclusion}"]
        for condition in self.side_conditions:
            lines.append(
                f"{pad}  |- {condition.description}: {condition.obligation_pretty}"
                f"  (by {condition.solver})"
            )
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "conclusion": self.conclusion,
            "code": self.code,
            "side_conditions": [c.to_dict() for c in self.side_conditions],
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(data: dict) -> "CertNode":
        try:
            return CertNode(
                lemma=data["lemma"],
                conclusion=data["conclusion"],
                code=data["code"],
                side_conditions=tuple(
                    SideCondition.from_dict(c) for c in data["side_conditions"]
                ),
                children=tuple(CertNode.from_dict(c) for c in data["children"]),
            )
        except CertificateDecodeError:
            raise
        except (KeyError, TypeError) as exc:
            raise CertificateDecodeError(f"bad certificate node: {exc!r}") from None


@dataclass(frozen=True)
class Certificate:
    """The complete derivation for one compiled function."""

    function_name: str
    root: CertNode
    statements_compiled: int = 0

    def size(self) -> int:
        return self.root.size()

    def lemmas_used(self) -> List[str]:
        return self.root.lemmas_used()

    def distinct_lemmas(self) -> List[str]:
        seen: List[str] = []
        for name in self.lemmas_used():
            if name not in seen:
                seen.append(name)
        return seen

    def side_condition_count(self) -> int:
        def count(node: CertNode) -> int:
            return len(node.side_conditions) + sum(count(c) for c in node.children)

        return count(self.root)

    def render(self) -> str:
        return (
            f"Derivation for {self.function_name!r} "
            f"({self.size()} lemma applications, "
            f"{self.side_condition_count()} side conditions):\n"
            + self.root.render(1)
        )

    # -- Canonical serialization -------------------------------------------------
    #
    # The JSON form is *canonical*: keys sorted, separators fixed, no
    # whitespace, a versioned schema header first.  Two structurally
    # equal certificates therefore serialize to identical bytes -- the
    # property the content-addressed cache (repro.serve) builds on, and
    # the round-trip stability tests/serve/test_serial.py pins.

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA_VERSION,
            "function_name": self.function_name,
            "statements_compiled": self.statements_compiled,
            "root": self.root.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise CertificateDecodeError(
                f"certificate payload is {type(data).__name__}, not a dict"
            )
        schema = data.get("schema")
        if schema != CERT_SCHEMA_VERSION:
            raise CertificateDecodeError(
                f"certificate schema {schema!r} != {CERT_SCHEMA_VERSION} "
                "(stale or foreign serialization)"
            )
        try:
            return Certificate(
                function_name=data["function_name"],
                root=CertNode.from_dict(data["root"]),
                statements_compiled=data["statements_compiled"],
            )
        except CertificateDecodeError:
            raise
        except (KeyError, TypeError) as exc:
            raise CertificateDecodeError(f"bad certificate: {exc!r}") from None

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact, deterministic bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CertificateDecodeError(f"not JSON: {exc}") from None
        return Certificate.from_dict(data)
