"""The benchmark's tracer patches package names by hand (perfbench/tracer.py).
A deletion or rename of one of them fails here, in the package's own tests,
rather than in a benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_every_patch_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        patches = list(tracer._patches)
        wrapped = [tracer_module._get(owner, attr) is not original for owner, attr, original in patches]
    assert patches and all(wrapped)
    assert len(patches) == len(tracer._targets())
    assert tracer.restored()
