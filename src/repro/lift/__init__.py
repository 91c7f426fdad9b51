"""``repro.lift`` -- the CoCompiler direction of ``t ~ s``.

The forward engine (``repro.core``) turns functional models into
Bedrock2; this package runs the same lemma databases *backwards*: given
a Bedrock2 function (registry output, optimizer output, or serialized
legacy code) plus its ABI spec, synthesize a model ``s`` with ``t ~ s``
and certify it -- by byte-identical recompilation when the derivation is
invertible, or by seeded extensional equivalence otherwise.

Layers:

- :mod:`repro.lift.patterns` -- inverse matchers derived from each
  stdlib lemma's conclusion shape, registered by the stdlib modules.
- :mod:`repro.lift.engine` -- the backward search (symbolic walk over
  statements, loop-shape recognition, budget + trace integration).
- :mod:`repro.lift.validate` -- the two certificate kinds and the
  ``--lift-validate`` model cross-check.
- :mod:`repro.lift.legacy` -- JSON bundles for hand-written code.
- :mod:`repro.lift.goals` -- the ``LiftStallReport`` taxonomy.
"""

import importlib

# Each public name and the submodule that defines it.  The names load on
# first use (PEP 562): every stdlib lemma module imports
# ``repro.lift.patterns`` to register its inverse patterns, so without
# this a process that never lifts -- a serve worker -- would also import
# the backward engine, the validator and the legacy loader (about 1 MB
# of RSS per worker).
_EXPORTS = {
    name: module
    for module, names in {
        "repro.lift.engine": ("LiftResult", "clear_lift_memo", "lift_function"),
        "repro.lift.goals": (
            "LiftError",
            "LiftStallReport",
            "LiftStalled",
            "LiftValidationFailed",
        ),
        "repro.lift.legacy": ("decode_bundle", "encode_bundle", "load_bundle"),
        "repro.lift.patterns": (
            "InversePattern",
            "all_inverse_patterns",
            "inverse_for_lemma",
            "lifted_lemma_names",
            "patterns_for_head",
            "register_inverse",
            "roster_fingerprint",
        ),
        "repro.lift.validate": (
            "EXTENSIONAL",
            "RECOMPILE",
            "LiftCertificate",
            "boundary_input_gen",
            "certify",
            "extensional_certificate",
            "models_equivalent",
            "recompile_certificate",
        ),
        "repro.serve.fingerprint": ("lift_key",),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
