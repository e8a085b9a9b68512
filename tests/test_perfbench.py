"""The package names the benchmark reaches from outside.

``perfbench/tracing.py`` wraps package functions by name for the traced
pass, ``hyptest._beta_for_assignment`` among them, and ``perfbench/run.py``
reads ``config.thread_count()``.  A change that deletes or renames one of
them breaks the benchmark; these tests fail first.
"""

import importlib.util
from pathlib import Path

from cqbounds import bounds, config, hyptest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (hyptest._beta_for_assignment, bounds.bottleneck_sup_constrained)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert hyptest._beta_for_assignment is not originals[0]
        assert bounds.bottleneck_sup_constrained is not originals[1]
    finally:
        tracer.uninstall()
    assert (hyptest._beta_for_assignment, bounds.bottleneck_sup_constrained) == originals


def test_thread_count_is_readable():
    assert config.thread_count() >= 1
