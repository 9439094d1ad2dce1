"""The benchmark's tracer binds library names by attribute; every one it
wraps must exist, or a traced run breaks while the rest of the suite passes."""

import importlib.util
from pathlib import Path

import pytest

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
