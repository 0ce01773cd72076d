"""The benchmark's traced metric names still name public functions.

``perfbench`` wraps every public function of the layer modules and names a
span ``<module>.<function>``; each workload lists the metrics it expects in
``exercised``. It also wraps the CLI's thread fan-out, which it names in
``tracer.POOL_FN``. A renamed or privatised function would otherwise show
only as a MISSING line at the end of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import layerlens

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _exercised_names(monkeypatch) -> set[str]:
    workloads = _load(monkeypatch, "workloads")
    return {name for w in workloads.WORKLOADS.values() for name in w.exercised}


def test_traced_function_names_exist(monkeypatch):
    modules = {m.name for m in pkgutil.iter_modules(layerlens.__path__)}
    checked = []
    for name in sorted(_exercised_names(monkeypatch)):
        parts = name.split(".")
        if len(parts) != 3 or parts[0] not in modules:
            continue
        module_name, fn_name, _ = parts
        module = importlib.import_module(f"layerlens.{module_name}")
        fn = getattr(module, fn_name, None)
        assert not fn_name.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name  # spans take the defining module's name
        checked.append(name)
    assert any(n.startswith("network.forward_with_taps.") for n in checked)


def test_traced_pool_function_exists(monkeypatch):
    from layerlens import cli

    pool_fn = _load(monkeypatch, "tracer").POOL_FN
    assert inspect.isfunction(getattr(cli, pool_fn, None)), pool_fn
