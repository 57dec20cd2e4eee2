"""The benchmark's workloads run against the package as it stands.

perfbench/ reaches the package by name: its tracer wraps functions it looks
up by attribute, its script-verify cases pin the verifier's node counts, its
composite-frontier cases pin the claiming search's answers, its
tree-offer cases the offer search's values on 248 trees and its dom-boards
cases the minimal dominating sets of 13 graphs (against an include/exclude
oracle).  Building every workload under the tracer and checking the answers
of those four here makes a renamed traced function, a drifted node count or
a wrong value fail the tests rather than a later benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 2024


def test_workloads_build_under_the_tracer_and_scripts_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    traced = [(mod, attr) for mod, attr, *_rest in tracing.SPANS + tracing.LEAVES]
    originals = [getattr(mod, attr) for mod, attr in traced]
    tracer = tracing.Tracer()
    with tracer.patched():
        built = {name: make(SEED) for name, make in workloads.WORKLOADS.items()}
    assert [getattr(mod, attr) for mod, attr in traced] == originals
    assert all(built.values())
    # the constructions the workloads build went through traced names
    assert any(span[tracing.NAME] == "constructions.build" for span in tracer.spans)
    for name, count in (("script-verify", 15), ("composite-frontier", 4), ("tree-offer", 248),
                        ("dom-boards", 13)):
        instances = built[name]
        assert len(instances) == count
        answers = [(inst.label, inst.check(inst.call())) for inst in instances]
        assert [(label, reason) for label, reason in answers if reason is not None] == []
