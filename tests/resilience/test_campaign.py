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
    run_campaign,
)
from repro.resilience.lift_faults import run_lift_faults


def _double(log_path: str, value):
    """Log one attempt; the value ``"killer"`` kills its worker every time."""
    with open(log_path, "a") as fh:
        fh.write("attempt\n")
    if value == "killer":
        os._exit(3)
    return value * 2


def _inject(log_path: str, value):
    """A campaign row: ``"raise"`` escapes, ``"killer"`` kills its worker."""
    if value == "raise":
        raise ValueError("injected harness bug")
    return DETECTED, str(_double(log_path, value))


def _tracer_enabled() -> bool:
    return current_tracer().enabled


def _double_where(log_path: str, value):
    """``_double`` plus the pid of the process that ran it."""
    return _double(log_path, value), os.getpid()


#: 48 items at ``jobs=2`` make 16 chunks of ``ceil(48 / 16) = 3`` items.
CHUNKED, CHUNK = 48, 3


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

    def test_chunked_results_are_in_plan_order_and_equal_serial(self, tmp_path):
        items = [(str(tmp_path / f"log{v}"), v) for v in range(CHUNKED)]
        serial = list(ordered_map(_double, items, jobs=1))
        placed = list(ordered_map(_double_where, items, jobs=2))
        assert [value for value, _pid in placed] == serial == [2 * v for v in range(CHUNKED)]
        pids = [pid for _value, pid in placed]
        assert os.getpid() not in pids
        for start in range(0, CHUNKED, CHUNK):
            assert len(set(pids[start:start + CHUNK])) == 1, "a chunk runs in one worker"

    def test_a_killer_mid_chunk_is_lost_after_one_isolated_retry(self, tmp_path):
        killer = CHUNKED // 2 + 1  # the middle item of the chunk at 24..26
        values = [v if v != killer else "killer" for v in range(CHUNKED)]
        logs = [str(tmp_path / f"log{v}") for v in range(CHUNKED)]
        retried = []
        results = list(
            ordered_map(_double, list(zip(logs, values)), jobs=2, on_retry=retried.append)
        )
        assert isinstance(results[killer], Lost) and results[killer].detail
        serial = [2 * v for v in range(CHUNKED)]
        for index, result in enumerate(results):
            if index != killer:
                assert result == serial[index], index
        assert killer in retried
        assert {killer - 1, killer + 1} <= set(retried), "the whole chunk is retried"
        assert len(retried) == len(set(retried)) and retried == sorted(retried)
        with open(logs[killer]) as fh:
            assert fh.read().count("attempt") == 2, "first attempt plus one retry"
        for index, log in enumerate(logs):
            with open(log) as fh:
                attempts = fh.read().count("attempt")
            # A retried item ran at most once in the broken pool.
            assert attempts in ({1, 2} if index in retried else {1}), (index, attempts)

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


class TestRunCampaign:
    VOCABULARY = TestCampaignReport.VOCABULARY

    def test_an_escaping_exception_is_a_crash_row(self, tmp_path):
        log = str(tmp_path / "log")
        rows = [
            ("p0", "t0", _inject, (log, 1)),
            ("p1", "t1", _inject, (log, "raise")),
            ("p2", "t2", _inject, (log, 2)),
        ]
        lines = []
        tracer = Tracer(name="campaign")
        with use_tracer(tracer):
            report = run_campaign(
                "test campaign", 3, self.VOCABULARY, rows, progress=lines.append
            )
        assert report.outcomes == [
            Outcome("p0", "t0", DETECTED, "2"),
            Outcome("p1", "t1", CRASH, repr(ValueError("injected harness bug"))),
            Outcome("p2", "t2", DETECTED, "4"),
        ]
        assert not report.ok and report.seed == 3
        assert lines == [f"injected p{i} into t{i} ({i + 1}/3)" for i in range(3)]
        spans = [
            (event["name"], event["program"])
            for event in tracer.events_by_type("span_open")
            if event["kind"] == "fault_injection"
        ]
        assert spans == [("p0", "t0"), ("p1", "t1"), ("p2", "t2")]

    def test_a_worker_death_is_a_crash_row_after_one_isolated_retry(self, tmp_path):
        killer_log = str(tmp_path / "killer")
        rows = [
            ("p0", "t0", _inject, (str(tmp_path / "before"), 10)),
            ("p1", "t1", _inject, (killer_log, "killer")),
            ("p2", "t2", _inject, (str(tmp_path / "after"), 21)),
        ]
        report = run_campaign("test campaign", 0, self.VOCABULARY, rows, jobs=2)
        assert [(o.point, o.target, o.outcome) for o in report.outcomes] == [
            ("p0", "t0", DETECTED), ("p1", "t1", CRASH), ("p2", "t2", DETECTED),
        ]
        assert "BrokenProcessPool" in report.outcomes[1].detail
        with open(killer_log) as fh:
            assert fh.read().count("attempt") == 2, "first attempt plus one retry"
        assert not report.ok


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
