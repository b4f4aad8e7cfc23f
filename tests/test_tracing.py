"""The benchmark's span tracer finds every maplab name it patches.

perfbench/spans.py patches maplab functions by name when a run is traced
(run.py --trace 1). A renamed or deleted name would make that run raise, so
each name is resolved here the way Tracer.install resolves it, without
installing any patch.
"""

import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


@pytest.fixture(scope="module")
def spans():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(PERFBENCH)       # spans imports perfbench/reference
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        mp.undo()


def test_every_span_resolves(spans):
    assert spans.SPANS
    for mname, attr, _ in spans.SPANS:
        mod = importlib.import_module("maplab." + mname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(mod, cls_name).__dict__[meth]), attr
        else:
            assert callable(getattr(mod, attr)), f"{mname}.{attr}"


def test_counted_names_resolve():
    # the count-only patches of Tracer.install
    from maplab import io, map_model
    assert isinstance(map_model.CtMapSpec.__dict__["pi"], property)
    assert callable(io._atomic_write_bytes)


def test_sim_tags(spans):
    # the law-kind and state-count tags of a traced simulate_discrete span
    from maplab import fixtures
    from maplab.increments import mixture
    from maplab.map_model import MapSpec
    kernel = fixtures.two_state().kernel
    mix = MapSpec(kernel=kernel, increments={
        (i, j): mixture([(0.5, [0.0]), (0.5, [1.0])])
        for i in range(2) for j in range(2)})
    assert spans._sim_tags((fixtures.two_state(),), {}) == ["det", "S2"]
    assert spans._sim_tags((fixtures.birth_death_5(),), {}) == ["det"]
    assert spans._sim_tags((fixtures.skewed_mixture(),), {}) == ["gauss", "S2"]
    assert spans._sim_tags((mix,), {}) == ["mixture", "S2"]
