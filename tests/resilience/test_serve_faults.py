"""The serve-layer availability campaign (ISSUE 7 acceptance criteria:
>= 4 fault classes, 100% detection-or-recovery, zero supervisor deaths).
"""

import pytest

from repro.resilience.campaign import CampaignReport, Outcome
from repro.resilience.faults import CRASH, DETECTED, HARMLESS, SILENT
from repro.resilience.serve_faults import (
    INJECTION_POINTS,
    RECOVERED,
    VOCABULARY,
    run_serve_faults,
)


def test_campaign_covers_the_required_fault_classes():
    points = {name for name, _ in INJECTION_POINTS}
    required = {
        "worker-crash-mid-compile",
        "slow-worker-timeout",
        "cache-corruption-under-load",
        "queue-saturation",
    }
    assert required <= points
    assert len(points) >= 4


def test_campaign_achieves_full_detection_or_recovery():
    """The real thing: actual worker subprocesses, actual SIGKILLs,
    actual corrupted bytes.  Zero crash, zero silent, the supervisor
    survives every point (a supervisor death would surface as a crash
    outcome), and every injection leaves a ``fault_outcome`` event."""
    from repro.obs.trace import Tracer, use_tracer, validate_events

    tracer = Tracer(name="serve-faults-test")
    with use_tracer(tracer):
        report = run_serve_faults(seed=0)
    assert report.injected == len(INJECTION_POINTS)
    assert report.count(CRASH) == 0, report.render()
    assert report.count(SILENT) == 0, report.render()
    assert report.rate == 1.0
    assert report.ok
    by_point = {o.point: o for o in report.outcomes}
    assert by_point["worker-crash-mid-compile"].outcome == RECOVERED
    assert by_point["slow-worker-timeout"].outcome == DETECTED
    assert by_point["queue-saturation"].outcome == DETECTED

    events = tracer.events_by_type("fault_outcome")
    assert len(events) == len(INJECTION_POINTS)
    assert all(e["target"] == "serve" for e in events)
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["faults.injected"] == len(INJECTION_POINTS)
    validate_events(tracer.events)


def test_report_arithmetic_and_rendering():
    report = CampaignReport("serve fault campaign", 7, [], VOCABULARY)
    report.outcomes = [
        Outcome("a", "serve", DETECTED, "typed response"),
        Outcome("b", "serve", RECOVERED, "retried"),
        Outcome("c", "serve", HARMLESS, "no effect"),
    ]
    assert report.ok and report.rate == 1.0
    payload = report.to_dict()
    assert payload["counts"]["detected"] == 1 and payload["counts"]["recovered"] == 1
    assert payload["ok"] is True
    assert "100%" in report.render()

    report.outcomes.append(Outcome("d", "serve", SILENT, "changed answer"))
    assert not report.ok
    assert report.rate == pytest.approx(2 / 3)
    assert "FAILED" in report.render()

    report.outcomes[-1] = Outcome("d", "serve", CRASH, "supervisor died")
    assert not report.ok
    assert report.to_dict()["counts"]["crash"] == 1
