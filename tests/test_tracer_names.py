"""The benchmark's tracer binds library names by attribute; every one it
wraps must exist, or a traced run breaks while the rest of the suite passes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sovlab

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables, installs nothing
    return module


def test_traced_functions_resolve(tracer):
    for owner, attr, layer in tracer.FUNCTIONS + tracer.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr}"


def test_traced_properties_resolve(tracer):
    for cls, attr, layer in tracer.PROPERTIES:
        assert isinstance(vars(cls).get(attr), property), f"{layer}: {cls.__name__}.{attr}"


def test_specially_wrapped_names_resolve(tracer):
    gl3_model, suites = tracer.gl3_model, tracer.suites
    for owner, attr in ((gl3_model, "transfer"), (gl3_model, "fused_apply"),
                        (gl3_model.TransferCache, "value"), (suites, "run_task")):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert list(suites.SUITES)


@pytest.mark.parametrize("algebra", ["gl3", "gl2"])
def test_cache_wrapper_counts_a_miss_then_a_hit(tracer, algebra):
    """The tracer's cache wrapper looks the key up in ``TransferCache._store``
    and calls ``value(m, lam)``, on the chain of either algebra."""
    from sovlab.suites import Workspace

    ws = Workspace(algebra, 2, 7)
    params = (ws.gl3() if algebra == "gl3" else ws.gl2())[0].params
    cache = tracer.gl3_model.TransferCache(params)
    trace = tracer.Tracer(0)
    value = trace._cache_value(tracer.gl3_model.TransferCache.value)
    lam = params.xi[0]  # a node, which the cache stores once assembled
    first = value(cache, 1, lam)
    assert value(cache, 1, lam) is first
    assert (trace.counts["gl3_model.cache.misses"], trace.counts["gl3_model.cache.hits"]) == (1, 1)


# ``gl2_model.gl2_transfer`` is bound by the tracer but called by nothing: the
# gl(2) chain assembles T_1 through ``TransferCache.value`` and
# ``gl3_model.transfer``, as the gl(3) chain does.
UNREACHED = {"gl2_model.transfer"}

TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
trace = tracer.Tracer(0)
trace.install()
from sovlab.cli import resolve_config, run
for algebra in ("gl3", "gl2"):
    run(resolve_config(None, {"algebra": algebra, "sites": 3, "seed": 7}), echo=lambda *a: None)
layers = [layer for _, _, layer in tracer.FUNCTIONS + tracer.COUNTED + tracer.PROPERTIES]
print(json.dumps({layer: trace.counts[layer + ".calls"] for layer in layers}))
"""


def test_every_traced_layer_is_reached():
    """A traced ``verify --all`` at N = 3, seed 7, gl3 then gl2, calls every
    layer the tracer wraps, so each per-layer figure times code that runs.
    It runs in a subprocess, because ``Tracer.install`` rebinds the
    library's module globals for the rest of the process."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sovlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER_PATH)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert {layer for layer, n in calls.items() if n == 0} == UNREACHED
