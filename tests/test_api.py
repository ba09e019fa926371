"""The package's export list matches what it actually exposes, only the
engine names the batching policy, and no module holds an array."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np

import rankbin
from rankbin.splitting import Workspace


def _public_names():
    """Names bound in the package that are neither private nor submodules."""
    return {name for name, value in vars(rankbin).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_all_names_resolve():
    for name in rankbin.__all__:
        assert hasattr(rankbin, name), name


def test_all_has_no_duplicates():
    assert len(rankbin.__all__) == len(set(rankbin.__all__))


def test_all_equals_public_namespace():
    assert set(rankbin.__all__) == _public_names()


def test_only_engine_knows_the_batching_policy():
    # one runner owns the batch size, the chunk size and the process pool;
    # splitting defines BLOCK, which the engine's per-level passes share
    owners = {"engine": {"BATCH", "BLOCK", "ProcessPoolExecutor"}, "splitting": {"BLOCK"}}
    strays = {}
    for path in Path(rankbin.__file__).parent.glob("*.py"):
        names = set(re.findall(r"\b(BATCH|BLOCK|ProcessPoolExecutor)\b", path.read_text()))
        names -= owners.get(path.stem, set())
        if names:
            strays[path.stem] = sorted(names)
    assert strays == {}


def test_no_module_binds_an_array():
    # scratch space belongs to each growth, never to a module, so threads
    # growing trees at once share none
    held = {}
    for info in pkgutil.iter_modules(rankbin.__path__):
        module = importlib.import_module(f"rankbin.{info.name}")
        names = [n for n, v in vars(module).items() if isinstance(v, (np.ndarray, Workspace))]
        if names:
            held[info.name] = names
    assert held == {}
