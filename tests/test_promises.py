"""README's "Promises" table names, for each promise that the docs make,
the tests that hold it; each named test must exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROMISES = ("results do not depend on batching", "a fixed seed gives byte-identical output",
            "bad input raises a typed error", "a checker is a batch of one of its suite's kernel",
            "the samplers do not depend on the BLAS kernel", "golden reports")


def _table():
    """{promise: [test ids]} of the rows of README's Promises table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Promises\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0] not in ("promise", "---"):
            rows[cells[0]] = re.findall(r"`(tests/[^`]+\.py::[^`]+)`", cells[1])
    return rows


def _defines(path, names) -> bool:
    """Whether the test file defines the nested names (a class, then a test)."""
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return names[-1].startswith("test")


def test_every_promise_names_a_test():
    rows = _table()
    assert set(rows) == set(PROMISES)
    assert all(rows[promise] for promise in PROMISES)


def test_every_named_test_exists():
    missing = [test for tests in _table().values() for test in tests
               if not _defines(test.split("::")[0], test.split("::")[1:])]
    assert missing == []
