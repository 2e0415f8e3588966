"""The benchmark tracer (perfbench/tracer.py) still finds every name it patches."""

import importlib.util
from pathlib import Path

import numpy as np

from cuspext import geometry, profiles, quadrature

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = {"value": profiles.PowerProfile.__dict__["value"],
                 "build_nodes": quadrature.build_nodes,
                 "classify": geometry.classify_extension_region,
                 "leggauss": np.polynomial.legendre.leggauss}
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()  # a renamed target fails here with AttributeError or KeyError
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} was not patched"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert profiles.PowerProfile.__dict__["value"] is originals["value"]
    assert quadrature.build_nodes is originals["build_nodes"]
    assert geometry.classify_extension_region is originals["classify"]
    assert np.polynomial.legendre.leggauss is originals["leggauss"]
