"""The package names and values the benchmark reaches from outside.

``perfbench/tracing.py`` wraps package functions by name for the traced
pass, ``hyptest._beta_for_assignment`` among them, and ``perfbench/run.py``
reads ``config.thread_count()``.  A change that deletes or renames one of
them breaks the benchmark; these tests fail first.  The dual-curve items are
checked against the benchmark's recorded references, so a change that moves
one of those values beyond its tolerance fails here too.
"""

import importlib.util
import json
from pathlib import Path

from cqbounds import bounds, config, hyptest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (hyptest._beta_for_assignment, bounds.bottleneck_sup_constrained)
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert hyptest._beta_for_assignment is not originals[0]
        assert bounds.bottleneck_sup_constrained is not originals[1]
    finally:
        tracer.uninstall()
    assert (hyptest._beta_for_assignment, bounds.bottleneck_sup_constrained) == originals


def test_thread_count_is_readable():
    assert config.thread_count() >= 1


def test_dual_curve_items_match_their_references(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads = _load("workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
    items = workloads.dual_curve(1, 0, str(tmp_path), workloads.Expect(refs))
    problems = {item.name: item.check(item.run()) for item in items}
    assert not any(problems.values()), problems
