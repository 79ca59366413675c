"""The benchmark's tracer (perfbench/tracing.py) must find every function it wraps.

A renamed or deleted target would otherwise surface only as an AttributeError
when the benchmark runs with ``--trace 1``. No workload is called here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name: str, path: str):
    owner = importlib.import_module(f"coughscreen.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_installs_and_uninstalls():
    tracing = load_tracing()
    originals = [target(module_name, path) for module_name, path, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, path, *_), original in zip(tracing.TARGETS, originals):
            assert target(module_name, path).__wrapped__ is original, path
    finally:
        tracer.uninstall()
    assert [target(module_name, path) for module_name, path, *_ in tracing.TARGETS] == \
        originals
    assert tracer.spans == []
