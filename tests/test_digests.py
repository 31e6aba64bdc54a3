"""Byte identity of short twin experiments, against ``tests/digests.json``.

The file holds the sha256 of the truth and of every filter's means and
stds from ``run_experiment``; ``make_digests.py`` writes it and says how.
The bits depend on numpy, OpenBLAS and the CPU, so in an environment other
than the file's the test skips and names what differs.
"""

import json

import pytest

import make_digests
from enks.benchmarks import PROBLEM_IDS
from enks.harness import FILTER_KINDS


def test_outputs_match_recorded_digests():
    recorded = json.loads(make_digests.PATH.read_text(encoding="utf-8"))
    here, there = make_digests.environment(), recorded["environment"]
    differs = {k: (there.get(k), here.get(k)) for k in here.keys() | there.keys()
               if there.get(k) != here.get(k)}
    if differs:
        pytest.skip(f"digests recorded in another environment, "
                    f"(recorded, here): {differs}")
    expected = recorded["digests"]
    # the truth and each filter's means and stds, per problem and seed
    assert len(expected) == (len(PROBLEM_IDS) * len(make_digests.SEEDS)
                             * (1 + 2 * len(FILTER_KINDS)))
    actual = make_digests.digests()
    assert actual.keys() == expected.keys()
    assert sorted(k for k in expected if actual[k] != expected[k]) == []
