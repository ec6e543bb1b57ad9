"""Every ``tests/<file>.py::Name[::Sub]`` that the docs cite must exist.

A citation's first name resolves to a function or a class anywhere in the
file, or to a module-level name (``test_perf_attribution.py::EXPECTED`` is
a constant); each further ``::Sub`` to a member of the class before it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md")
CITATION = re.compile(r"\b(tests/[\w/]+\.py)((?:::\w+)+)")


def _citations():
    return sorted(
        {match for doc in DOCS if (ROOT / doc).is_file() for match in CITATION.findall((ROOT / doc).read_text())}
    )


def _names(body):
    """The functions, classes and assigned names a body defines."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def test_the_docs_cite_tests():
    assert _citations()


@pytest.mark.parametrize("path,members", _citations(), ids=lambda part: part.strip(":"))
def test_cited_test_exists(path, members):
    assert (ROOT / path).is_file(), path
    tree = ast.parse((ROOT / path).read_text())
    first, *subs = members.strip(":").split("::")
    defined = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    node = next((node for node in defined if node.name == first), None) or _names(tree.body).get(first)
    assert node is not None, f"{path}{members}: no {first}"
    for member in subs:
        node = _names(getattr(node, "body", [])).get(member)
        assert node is not None, f"{path}{members}: no {member}"
