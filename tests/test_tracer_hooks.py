"""The benchmark tracer's hooks still fit the package.

`bench/spans.py` measures the package from outside: on a traced run it wraps
every public function of each module and patches a few attributes by name
(`SubgroupGenerators.of`, `OracleInstance.evaluate`,
`OracleInstance.shift_permutation` and `QuantumState.__post_init__`).  A
change to the package that removes one of those names breaks every traced
benchmark run, so the tracer is installed and uninstalled here, and every
attribute it touched must be back as it was.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import hsplab

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(layers) -> list:
    """Every namespace and class whose attributes the tracer patches."""
    modules = {layer: importlib.import_module(f"hsplab.{layer}") for layer in layers}
    return [
        hsplab, *modules.values(),
        modules["groups"].SubgroupGenerators,
        modules["oracles"].OracleInstance,
        modules["amplitudes"].QuantumState,
    ]


def test_tracer_installs_and_uninstalls_cleanly():
    spans = _load_spans()
    owners = _owners(spans.LAYERS)
    before = [dict(vars(owner)) for owner in owners]
    uninstall = spans.install(spans.Tracer())
    try:
        changed = sum(
            1 for owner, attrs in zip(owners, before) for name, value in attrs.items()
            if vars(owner).get(name) is not value
        )
        assert changed, "the tracer patched nothing"
    finally:
        uninstall()
    for owner, attrs in zip(owners, before):
        restored = dict(vars(owner))
        assert restored.keys() == attrs.keys(), f"{owner.__name__} gained or lost attributes"
        moved = sorted(name for name, value in attrs.items() if restored[name] is not value)
        assert not moved, f"{owner.__name__} attributes not restored: {moved}"
