"""Acceptance criteria: every claim suite of `posgames.suites`, run once with
pinned arguments and a time budget.

The claim checks themselves live in the suites, which `posgames verify` runs
as well; this file pins their arguments, and checks once that a failing
claim reports its counterexample.  Each case prints a one-line
PASS summary with its wall time.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines live.
"""

import time

import pytest

from posgames import suites
from posgames.boards import Hypergraph
from posgames.errors import GuardExceeded
from posgames.suites import SUITES

# (suite name, pinned keyword arguments, time budget in seconds)
CASES = [
    ("lemma3.4", {}, 60),
    ("lemma3.6", {}, 300),
    ("lemma3.9", {}, 600),
    ("thm1.1", {"max_bias": 4}, 600),
    ("thm1.2", {}, 60),
    ("thm1.6", {}, 300),
    ("thm1.8", {"max_n": 13}, 600),
    ("thm1.7", {}, 1800),
    ("residue", {"count": 50, "seed": 7}, 1800),
    ("gadget", {"count": 20, "seed": 8}, 300),
    ("thm1.9c1", {}, 900),
    ("strategies", {}, 900),
    ("properties", {"count": 200, "seed": 11, "max_n": 8}, 1800),
]


def test_every_suite_is_pinned():
    assert sorted(name for name, _, _ in CASES) == sorted(SUITES)


@pytest.mark.parametrize("name, kwargs, budget", CASES, ids=[c[0] for c in CASES])
def test_claim_suite(name, kwargs, budget):
    t0 = time.perf_counter()
    report = SUITES[name](**kwargs)
    elapsed = time.perf_counter() - t0
    assert report["ok"], report["failures"]
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPT {name}: PASS ({len(report['checks'])} checks, "
          f"{elapsed:.2f}s, budget {budget}s)")


@pytest.mark.parametrize("name", SUITES)
def test_suite_passes_its_memo_cap_to_every_search(name):
    # every suite stores more than one memo entry, so a cap of one trips the
    # guard unless the suite drops the cap on its way to the solver
    with pytest.raises(GuardExceeded):
        SUITES[name](memo_cap=1)


def test_failing_property_reports_its_counterexample(monkeypatch):
    # a minimalize that drops each board's first set changes some board's values
    monkeypatch.setattr(suites, "minimalize", lambda h: Hypergraph(h.n, h.edges[1:], h.labels))
    report = suites.suite_properties(count=20, seed=0, max_n=6)
    assert [c["check"] for c in report["checks"] if not c["ok"]] == [
        "minimal-subfamily soundness x20"
    ]
    assert report["ok"] is False and report["failures"] == [
        {"check": "minimal-subfamily soundness x20",
         "detail": {"i": 9, "h": [[3], [4], [1, 3, 4], [1, 2, 3, 4]]}}
    ]
