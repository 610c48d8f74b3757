"""The benchmark's tracer still finds every name it wraps in ``stabledyn``.

``bench/tracer.py`` patches package functions and methods by name, so a
rename in ``src/`` would otherwise break only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from stabledyn import training

from conftest import make_model

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_mod)


def test_install_patches_every_target_and_uninstall_restores_it(vdp_system, vdp_hyper):
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises AttributeError on a target that is gone
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, fn in patched:
            assert getattr(owner, attr) is not fn
            assert getattr(owner, attr).__wrapped__ is fn
        # the loss span reads the tape's node list, node values and length
        batch = training.sample_dataset(vdp_system, vdp_hyper, 8, 0)
        tracer.enabled = True
        graph = training.loss(make_model(vdp_hyper), batch)
        tracer.enabled = False
        (span,) = [s for s in tracer.spans if s[tracer_mod.NAME] == "training.loss"]
        assert span[tracer_mod.EXTRA] == len(graph.tape)
        assert tracer.tape_bytes[8] > 0
    finally:
        tracer.uninstall()
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn
