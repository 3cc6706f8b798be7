"""Trace-hash pins for degraded-mode ON runs.

``test_trace_baselines`` proves the three flags default to off and the
off path stays bit-identical; this suite pins the *on* path — the
full degraded campaign (3-robot outage + central jam + loss) with
adaptive verification, cooperative repair, and jam-aware dispatch all
enabled, one scenario per algorithm.  A refactor that silently
changes auction ordering, adaptation windows, or detour geometry
shows up here as a digest mismatch.

The ``netfaults`` scenarios pin the network-fault drop paths the
degraded campaign never reaches: a PARTITION region, a DEGRADE region
(severity 0.5, so in-region drops draw from ``channel.jam``) and
stochastic jam weather, overlapping in time.

To bless an intentional change::

    REPRO_UPDATE_BASELINES=1 python -m pytest \
        tests/integration/test_degraded_baselines.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.experiments.degraded import default_degraded_campaign
from repro.faults.script import FaultEvent, FaultKind
from repro.sim.trace import RecordingSink, Tracer

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "baselines"
    / "degraded_trace_hashes.json"
)

ALGORITHMS = (Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC)


def degraded_scenario(algorithm):
    sim_time = 4_000.0
    return paper_scenario(
        algorithm,
        4,
        seed=7,
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=sim_time,
        detection_mode=DetectionMode.BEACON,
        loss_rate=0.05,
        mean_lifetime_s=900.0,
        fault_script=default_degraded_campaign(sim_time),
        verify_failures=True,
        adaptive_verify=True,
        coop_repair=True,
        jam_aware=True,
    )


def netfaults_scenario(algorithm):
    return paper_scenario(
        algorithm,
        4,
        seed=7,
        sensors_per_robot=25,
        sim_time_s=3_000.0,
        detection_mode=DetectionMode.BEACON,
        loss_rate=0.05,
        verify_failures=True,
        jam_aware=True,
        jam_rate=1 / 900.0,
        fault_script=(
            FaultEvent(
                time=300.0,
                kind=FaultKind.PARTITION,
                target="partition",
                x=150.0,
                y=150.0,
                radius=120.0,
                duration=1_500.0,
            ),
            FaultEvent(
                time=600.0,
                kind=FaultKind.DEGRADE,
                target="degrade",
                x=220.0,
                y=200.0,
                radius=110.0,
                duration=1_600.0,
            ),
            FaultEvent(
                time=900.0,
                kind=FaultKind.JAM,
                target="jam",
                x=250.0,
                y=250.0,
                radius=100.0,
                duration=800.0,
            ),
        ),
    )


#: Baseline key -> scenario; keys are ``<algorithm>/<family>``.
SCENARIOS = {
    **{f"{alg}/degraded": degraded_scenario for alg in ALGORITHMS},
    **{f"{alg}/netfaults": netfaults_scenario for alg in ALGORITHMS},
}


def _case_id(key):
    # The degraded pins keep their original bare-algorithm test ids.
    algorithm, family = key.split("/")
    return algorithm if family == "degraded" else f"{algorithm}-{family}"


def run_and_digest(key):
    algorithm = key.split("/")[0]
    tracer = Tracer()
    recorder = RecordingSink()
    tracer.subscribe("*", recorder)
    ScenarioRuntime(SCENARIOS[key](algorithm), tracer=tracer).run()
    digest = hashlib.sha256()
    for record in recorder.records:
        line = (
            f"{record.category}|{record.time!r}|"
            f"{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest(), len(recorder.records)


def _load_baselines() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _store_baseline(key: str, sha256: str, records: int) -> None:
    if BASELINE_PATH.exists():
        document = _load_baselines()
    else:
        document = {"scenarios": {}}
    document["scenarios"][key] = {"records": records, "sha256": sha256}
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("key", SCENARIOS, ids=_case_id)
def test_degraded_trace_digest_matches_baseline(key):
    sha256, records = run_and_digest(key)
    if os.environ.get("REPRO_UPDATE_BASELINES"):
        _store_baseline(key, sha256, records)
        pytest.skip(f"baseline for {key} updated to {sha256[:16]}")
    expected = _load_baselines()["scenarios"][key]
    assert records == expected["records"], (
        f"{key}: trace record count changed "
        f"({expected['records']} -> {records}); the degraded-mode "
        "machinery behaved differently, not just faster"
    )
    assert sha256 == expected["sha256"], (
        f"{key}: degraded-mode trace digest diverged — auction order, "
        "adaptation windows, or detour geometry changed.  If "
        "intentional, regenerate with REPRO_UPDATE_BASELINES=1 and "
        "explain in the commit."
    )


def test_baseline_file_covers_all_degraded_scenarios():
    scenarios = _load_baselines()["scenarios"]
    assert sorted(scenarios) == sorted(SCENARIOS)
