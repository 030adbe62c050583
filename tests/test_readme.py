"""Every backticked Python identifier in README.md names something that
exists, so that removing a helper cannot leave the README naming it.

A backticked token counts as an identifier when it is a dotted name.  It
resolves as an attribute path from ``karabounds`` (``karabounds.x.y`` or
``x.y``), as an attribute of some karabounds module or a field of one of
their dataclasses (private names included), as a string that the
karabounds sources spell out (suite ids, params keys, CSV columns,
inequality ids, CLI commands, function kinds), as a dotted path from an
importable module (``numpy.linalg.eigh``), or as a numpy, numpy Generator
or builtin name.  Flags and paths are no dotted names; the few words left
over are on ``NOT_PYTHON``."""

import ast
import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import karabounds

ROOT = Path(__file__).resolve().parents[1]

# backticked words of the README that name no Python object
NOT_PYTHON = {
    "diff",  # the Unix tool
    "null",  # JSON's literal
}


def _modules():
    return [karabounds] + [importlib.import_module(f"karabounds.{info.name}")
                           for info in pkgutil.iter_modules(karabounds.__path__)]


def _names():
    """Every attribute of a karabounds module and every field of their dataclasses."""
    names = set()
    for module in _modules():
        names.update(vars(module))
        for value in vars(module).values():
            if isinstance(value, type):
                names.update(dir(value))
                if dataclasses.is_dataclass(value):
                    names.update(f.name for f in dataclasses.fields(value))
    return names


def _strings():
    """Every string constant of the karabounds sources."""
    out = set()
    for path in Path(karabounds.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _resolves_as_path(token) -> bool:
    parts = token.split(".")
    for start in range(len(parts), 0, -1):
        for prefix in ("", "karabounds."):
            try:
                obj = importlib.import_module(prefix + ".".join(parts[:start]))
            except ImportError:
                continue
            try:
                for attr in parts[start:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                continue
            return True
    return False


def _identifiers():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return sorted({t for t in re.findall(r"`([^`\n]+)`", text)
                   if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*", t)})


def test_every_backticked_identifier_in_readme_resolves():
    names, strings = _names(), _strings()
    others = (np, np.linalg, np.random.Generator, builtins)
    unresolved = [t for t in _identifiers()
                  if t not in NOT_PYTHON and t not in names and t not in strings
                  and not any(hasattr(o, t) for o in others) and not _resolves_as_path(t)]
    assert unresolved == []


def test_a_removed_helper_would_not_resolve():
    names, strings = _names(), _strings()
    for gone in ("_per_group", "_built", "_scalar_score", "_jensen_blocks"):
        assert gone not in names and gone not in strings and not _resolves_as_path(gone)
    assert "_stack_score" in names and _resolves_as_path("verification._stack_score")
