"""The benchmark tracer's targets exist in the package.

``bench/layers.py`` wraps package functions by name, and a name that no
longer resolves is only listed as missing while its metrics read 0.  This
loads its target table, without installing the tracer, and resolves every
(module, attribute path) on the imported package as the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(mod, path) for _, mod, path, _, _ in layers.TARGETS
            if not path.startswith("*.")]


def _resolves(modname, path):
    mod = importlib.import_module(modname)
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name, None)
        return isinstance(cls, type) and cls.__dict__.get(meth) is not None
    return callable(getattr(mod, path, None))


TARGETS = _targets() if LAYERS_PY.exists() else []


def test_the_step_routines_are_targets():
    if not LAYERS_PY.exists():
        pytest.skip("no bench/ in this checkout")
    assert ("subriemann.curves", "rk4_step") in TARGETS
    assert ("subriemann.variation", "rk4_step") in TARGETS


@pytest.mark.parametrize("modname, path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_resolves(modname, path):
    assert _resolves(modname, path), f"{modname}.{path} is gone"
