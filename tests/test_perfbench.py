"""The benchmark's workloads run against the package as it stands.

perfbench/ reaches the package by name: its tracer wraps functions it looks
up by attribute, and its script-verify cases pin the verifier's node counts.
Building every workload under the tracer and checking the script-verify
answers here makes a renamed traced function, or a drifted node count, fail
the tests rather than a later benchmark run.
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
    scripts = built["script-verify"]
    assert len(scripts) == 15
    answers = [(inst.label, inst.check(inst.call())) for inst in scripts]
    assert [(label, reason) for label, reason in answers if reason is not None] == []
