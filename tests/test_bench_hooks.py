"""Every function the benchmark traces still exists under its name.

The benchmark skips a hook whose target is gone with only a warning, so a
rename or a deletion in the package must fail here instead.
"""
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_hook_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # read the benchmark's modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layers = importlib.import_module("layers")
    missing = []
    for hook in layers.HOOKS:
        module_name, _, path = hook.target.partition(":")
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(hook.target)
    assert layers.HOOKS
    assert missing == []
