"""The benchmark's tracer must still find every name it wraps in bandflow.

``bench/tracer.py`` patches functions by module and attribute name. A rename
inside the package would make ``--trace 1`` fail or silently drop a layer, so
installing and uninstalling the tracer is checked here, with every binding
compared before and after.
"""

import importlib.util
import json
import sys
from pathlib import Path

import bandflow.cli

TRACER_PATH = Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, attr):
    """(owner, leaf) of a tracer target, asserting that the name exists."""
    owner = sys.modules[modname]
    *path, leaf = attr.split(".")
    for part in path:
        assert part in vars(owner), f"{modname}.{attr} does not resolve"
        owner = getattr(owner, part)
    assert leaf in vars(owner), f"{modname}.{attr} does not resolve"
    return owner, leaf


def _bindings():
    """Every attribute of numpy.linalg and of every bandflow module and class."""
    owners = [sys.modules["numpy.linalg"]]
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "bandflow" or name.startswith("bandflow.")):
            owners.append(mod)
            owners += [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_every_target_and_restores_every_binding():
    tracer_mod = _load_tracer()
    assert bandflow.cli.json is json
    before = _bindings()
    originals = {}
    for modname, attr, _stem, _measure in tracer_mod.TARGETS:
        owner, leaf = _resolve(modname, attr)
        originals[(modname, attr)] = vars(owner)[leaf]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for (modname, attr), original in originals.items():
            owner, leaf = _resolve(modname, attr)
            wrapped = vars(owner)[leaf]
            assert wrapped is not original, f"{modname}.{attr} was not wrapped"
            assert wrapped.__wrapped__ is original
        assert bandflow.cli.json is not json
    finally:
        tracer.uninstall()

    assert bandflow.cli.json is json
    for (modname, attr), original in originals.items():
        owner, leaf = _resolve(modname, attr)
        assert vars(owner)[leaf] is original, f"{modname}.{attr} not restored"
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
