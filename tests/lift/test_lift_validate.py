"""Lift-based translation validation and the seeded drift campaign."""

import random

import pytest

from repro.bedrock2 import ast
from repro.programs.registry import all_programs, get_program
from repro.resilience.lift_faults import (
    GAP_SHOWN,
    SILENT,
    STALLED,
    _PeelFirstIteration,
    run_lift_faults,
)
from repro.validation.passcheck import _lift_validate_certificate


class TestLiftValidateCertificate:
    def test_clean_optimized_code_validates(self):
        program = get_program("fnv1a")
        compiled = program.compile(fresh=True)
        optimized = compiled.optimize(
            1,
            rng=random.Random(0),
            input_gen=program.validation_input_gen(),
        )
        cert, fn = _lift_validate_certificate(compiled, optimized.bedrock_fn)
        assert cert.status == "validated", cert
        assert fn is optimized.bedrock_fn

    def test_full_registry_validates_at_o1(self):
        for program in all_programs():
            compiled = program.compile(fresh=True)
            optimized = compiled.optimize(
                1,
                rng=random.Random(0),
                input_gen=program.validation_input_gen(),
            )
            cert, _ = _lift_validate_certificate(compiled, optimized.bedrock_fn)
            assert cert.status == "validated", (program.name, cert)

    def test_peeled_loop_is_rejected_and_reverted(self):
        """The drift the per-pass differential misses: peeling the first
        iteration of a loop is wrong only on empty input, and the weak
        validator never samples the boundary.  Lift-validate compares
        whole models, so it must reject and hand back the clean AST."""
        compiled = get_program("fnv1a").compile(fresh=True)
        drifted = _PeelFirstIteration().run(compiled.bedrock_fn, 64)
        assert ast.fingerprint(drifted) != ast.fingerprint(compiled.bedrock_fn)

        cert, fn = _lift_validate_certificate(compiled, drifted)
        assert cert.status == "rejected", cert
        assert ast.fingerprint(fn) == ast.fingerprint(compiled.bedrock_fn)
        assert "fault" in cert.detail or "model" in cert.detail, cert.detail


class TestLiftFaultCampaign:
    def test_single_target_shows_the_gap(self):
        report = run_lift_faults(seed=0, targets=["fnv1a"])
        assert len(report.outcomes) == 1
        outcome = report.outcomes[0]
        assert outcome.target == "fnv1a"
        assert outcome.outcome == GAP_SHOWN, outcome
        assert report.ok, report.render()

    def test_full_campaign_verdict(self):
        report = run_lift_faults(seed=0)
        counts = {o.outcome for o in report.outcomes}
        assert GAP_SHOWN in counts
        assert SILENT not in counts
        assert report.ok, report.render()
        # Stalled drifts are visible skips, never silent passes: each one
        # corresponds to a "no-change" certificate the operator can see.
        for outcome in report.outcomes:
            if outcome.outcome == STALLED:
                assert outcome.detail

    def test_campaign_is_deterministic(self):
        first = run_lift_faults(seed=7, targets=["crc32"])
        second = run_lift_faults(seed=7, targets=["crc32"])
        assert first.to_dict() == second.to_dict()

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            run_lift_faults(seed=0, targets=["nonesuch"])
