"""The shared campaign report and the ordered process fan-out."""

import json
import os

import pytest

from repro.__main__ import main
from repro.obs.trace import Tracer, current_tracer, use_tracer
from repro.resilience import run_faults, run_fuzz
from repro.resilience.campaign import (
    CRASH,
    DETECTED,
    HARMLESS,
    SILENT,
    CampaignReport,
    Lost,
    Outcome,
    Vocabulary,
    ordered_map,
)
from repro.resilience.lift_faults import run_lift_faults


def _double(log_path: str, value):
    """Log one attempt; the value ``"killer"`` kills its worker every time."""
    with open(log_path, "a") as fh:
        fh.write("attempt\n")
    if value == "killer":
        os._exit(3)
    return value * 2


def _tracer_enabled() -> bool:
    return current_tracer().enabled


class TestOrderedMap:
    def test_in_process_results_are_in_plan_order(self, tmp_path):
        log = str(tmp_path / "log")
        items = [(log, value) for value in (3, 1, 2)]
        assert list(ordered_map(_double, items, jobs=1)) == [6, 2, 4]

    def test_pool_results_are_in_plan_order(self, tmp_path):
        log = str(tmp_path / "log")
        items = [(log, value) for value in range(8)]
        assert list(ordered_map(_double, items, jobs=2)) == [2 * v for v in range(8)]

    def test_a_deterministic_killer_is_lost_after_one_isolated_retry(self, tmp_path):
        killer_log = str(tmp_path / "killer")
        items = [
            (str(tmp_path / "before"), 10),
            (killer_log, "killer"),
            (str(tmp_path / "after"), 21),
        ]
        retried = []
        results = list(ordered_map(_double, items, jobs=2, on_retry=retried.append))
        assert results[0] == 20 and results[2] == 42
        assert isinstance(results[1], Lost) and results[1].detail
        with open(killer_log) as fh:
            assert fh.read().count("attempt") == 2, "first attempt plus one retry"
        assert 1 in retried

    def test_pool_workers_run_with_the_null_tracer(self):
        with use_tracer(Tracer(name="parent")):
            assert list(ordered_map(_tracer_enabled, [()], jobs=1)) == [True]
            assert list(ordered_map(_tracer_enabled, [()], jobs=2)) == [False]


class TestCampaignReport:
    VOCABULARY = Vocabulary(
        (DETECTED, HARMLESS, CRASH, SILENT),
        frozenset({DETECTED}), frozenset({CRASH, SILENT}),
        required=frozenset({DETECTED}),
    )

    def report(self, *outcomes):
        rows = [Outcome("p", f"t{i}", o) for i, o in enumerate(outcomes)]
        return CampaignReport("test campaign", 1, rows, self.VOCABULARY)

    def test_rate_and_verdict(self):
        assert self.report(DETECTED, HARMLESS).ok
        assert self.report(DETECTED, HARMLESS).rate == 1.0
        assert not self.report(HARMLESS).ok, "a required outcome is missing"
        assert self.report(HARMLESS).rate == 1.0
        failed = self.report(DETECTED, DETECTED, SILENT)
        assert not failed.ok and failed.rate == pytest.approx(2 / 3)

    def test_json_shape(self):
        payload = self.report(DETECTED, CRASH).to_dict()
        assert list(payload) == ["seed", "injected", "counts", "rate", "outcomes", "ok"]
        assert payload["counts"] == {"detected": 1, "harmless": 0, "crash": 1, "silent": 0}
        assert payload["outcomes"][1] == {
            "point": "p", "target": "t1", "outcome": "crash", "detail": "",
        }
        assert payload["ok"] is False

    def test_rows_are_traced_as_they_are_added(self):
        tracer = Tracer(name="report")
        with use_tracer(tracer):
            self.report().add(Outcome("p", "t", DETECTED, "caught"))
        assert len(tracer.events_by_type("fault_outcome")) == 1
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.outcome.detected"] == 1


class TestSerialParallelEquivalence:
    def test_fuzz(self):
        serial = run_fuzz(seed=5, budget=12, jobs=1)
        assert serial.to_dict() == run_fuzz(seed=5, budget=12, jobs=2).to_dict()

    def test_faults(self):
        serial = run_faults(seed=3, jobs=1)
        assert serial.to_dict() == run_faults(seed=3, jobs=2).to_dict()

    def test_lift_faults(self):
        targets = ["fnv1a", "crc32"]
        serial = run_lift_faults(seed=0, targets=targets, jobs=1)
        parallel = run_lift_faults(seed=0, targets=targets, jobs=2)
        assert serial.to_dict() == parallel.to_dict()


def test_lift_campaign_honours_budget_and_jobs(capsys):
    rc = main(["faults", "--lift", "--budget", "1", "--jobs", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["ok"]
    assert payload["injected"] == 1
    assert payload["counts"]["gap-shown"] == 1
