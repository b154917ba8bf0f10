"""The contract pins: this build must reproduce the committed digests.

``test_determinism`` compares two runs of one build, which a change
moving every run alike would pass.  These tests run the
``repro.perf.harness`` scenarios whose digests are the pins (ROADMAP:
the lossy seed-11 stats sha256 and the replication availability series)
and compare them with the ``meta`` values committed in BENCH_perf.json,
which are also spelled out here so a regenerated report cannot move a
pin unnoticed.
"""

import io
import json
from pathlib import Path

import pytest

from repro.perf.harness import run_suite

BENCH_PERF = Path(__file__).resolve().parents[2] / "BENCH_perf.json"

PINS = {
    "lossy_seed11": {
        "stats_sha256": "4cc3e1c4920a6ccf2b348b62ce228de834ee4c598551add3f5905ca0b0f13c63",
    },
    "replication_churn": {
        "r1_stats_sha256": "918800b83b3f1e248624c8faf4dd9a271d73f4f5e62b842dfd9797e5e43a177b",
        "r2_stats_sha256": "dcc648ac85225bf03a116b1b51543521ed0134df167a413a6884f52cc42013ac",
        "r3_stats_sha256": "49b7e83a9c8934255e855e62d9276930b00318a75b5d9ed8328becde51e35681",
    },
}


@pytest.fixture(scope="module")
def committed():
    report = json.loads(BENCH_PERF.read_text())
    assert report["profile"] == "full"
    return {name: report["scenarios"][name]["meta"] for name in PINS}


@pytest.fixture(scope="module")
def measured():
    report = run_suite(only=sorted(PINS), out=io.StringIO())
    return {name: report.scenarios[name].meta for name in PINS}


@pytest.mark.parametrize("scenario", sorted(PINS))
def test_committed_report_carries_the_pins(committed, scenario):
    for key, digest in PINS[scenario].items():
        assert committed[scenario][key] == digest, key


@pytest.mark.parametrize("scenario", sorted(PINS))
def test_build_reproduces_the_pinned_digests(measured, scenario):
    for key, digest in PINS[scenario].items():
        assert measured[scenario][key] == digest, key
