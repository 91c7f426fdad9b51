"""The fuzzing and fault-injection campaigns: deterministic, sound, total."""

import random

from repro.resilience import generate_case, run_faults, run_fuzz
from repro.resilience.faults import CRASH, DETECTED, SILENT, INJECTION_POINTS
from repro.resilience.generator import FAMILIES
from repro.validation.checker import validate


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in (0, 1, 99):
            a = generate_case(random.Random(seed), 4)
            b = generate_case(random.Random(seed), 4)
            assert a.name == b.name
            assert a.family == b.family
            assert a.model.term == b.model.term

    def test_every_family_produces_a_compilable_case(self):
        # Each family generator, on at least one of a handful of seeds,
        # yields a case that compiles and validates end to end.
        from repro.stdlib import default_engine

        for family in FAMILIES:
            compiled_once = False
            for seed in range(5):
                case = family(random.Random(seed), f"t_{family.__name__}_{seed}")
                try:
                    compiled = default_engine().compile_function(
                        case.model, case.spec
                    )
                except Exception:
                    continue
                validate(
                    compiled,
                    trials=5,
                    rng=random.Random(seed),
                    input_gen=case.input_gen,
                )
                compiled_once = True
                break
            assert compiled_once, f"{family.__name__} never compiled"

    def test_input_gen_matches_spec(self):
        rng = random.Random(7)
        for index in range(12):
            case = generate_case(rng, index)
            params = case.input_gen(random.Random(0))
            assert set(params) == {name for name, _ in case.model.params}


class TestFuzzCampaign:
    def test_small_campaign_is_sound(self):
        report = run_fuzz(seed=0, budget=10, trials=4, riscv_trials=1)
        assert report.ok, report.render()
        assert report.cases_run == 10
        assert report.compiled > 0

    def test_deterministic_per_seed(self):
        a = run_fuzz(seed=5, budget=6, trials=3, riscv_trials=1)
        b = run_fuzz(seed=5, budget=6, trials=3, riscv_trials=1)
        assert a.to_dict() == b.to_dict()

    def test_tiny_fuel_stalls_cleanly(self):
        # Starving the compiler must yield classified stalls, not crashes.
        report = run_fuzz(seed=0, budget=6, trials=2, fuel=3, riscv_trials=0)
        assert not report.crashes
        assert not report.violations
        assert report.stalls.get("resource-exhausted", 0) == 6


class TestFaultCampaign:
    def test_all_points_covered(self):
        assert len(INJECTION_POINTS) >= 8

    def test_campaign_detects_every_fault(self):
        report = run_faults(seed=0)
        assert report.count(CRASH) == 0, report.render()
        assert report.count(SILENT) == 0, report.render()
        assert report.rate == 1.0
        assert report.count(DETECTED) > 0
        assert report.ok

    def test_deterministic_per_seed(self):
        a = run_faults(seed=3, budget=6)
        b = run_faults(seed=3, budget=6)
        assert a.to_dict() == b.to_dict()

    def test_budget_caps_injections(self):
        report = run_faults(seed=0, budget=4)
        assert report.injected == 4
