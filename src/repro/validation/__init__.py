"""Translation validation: our substitute for Coq's proof terms.

The paper itself notes (§5) that Rupicola can reasonably be classified as
a translation-validation system: unverified Ltac scripts produce output
programs *plus witnesses*.  Lacking a proof kernel, this package keeps
that architecture with three layers of checking, all driven by the same
``FnSpec`` ABI the compiler consumed:

1. **Certificate checking** (:mod:`repro.validation.checker`): the
   derivation tree is replayed structurally -- every node names a
   registered lemma and the tree is well formed; ``first_rejection``
   is the one chain (wellformed, certificate, replay, lint) callers run.
2. **Spec-driven execution** (:mod:`repro.validation.runners`): compiled
   Bedrock2 code is run under the memory layout the spec declares;
   out-of-footprint accesses are hard errors (the memory model rejects
   them), which checks the separation-logic frame discipline.
3. **Differential testing** (:mod:`repro.validation.differential`):
   compiled code and functional model are compared on generated inputs --
   return values, final memory, and I/O traces -- including effectful
   programs (the nondeterminism monad is checked in its existential
   direction by replaying the target's actual choices into the model's
   oracle).
4. **Per-pass optimizer validation** (:mod:`repro.validation.passcheck`):
   each ``repro.opt`` pass application is re-checked for well-formedness
   and differentially tested against the model; failing passes are
   rejected and the optimizer falls back to the pre-pass AST.
"""

from repro.validation.checker import CertificateError, check_certificate
from repro.validation.differential import (
    DifferentialFailure,
    ValidationReport,
    differential_check,
)
from repro.validation.passcheck import optimize_compiled, pass_validator
from repro.validation.runners import RunResult, eval_model, make_inputs, run_function

__all__ = [
    "CertificateError",
    "check_certificate",
    "DifferentialFailure",
    "ValidationReport",
    "differential_check",
    "optimize_compiled",
    "pass_validator",
    "RunResult",
    "run_function",
    "eval_model",
    "make_inputs",
]
