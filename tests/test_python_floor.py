"""The package stays within the oldest Python that ``pyproject.toml`` declares.

Only a newer interpreter may be at hand to run the tests, so the floor is
held here by reading the sources: every module must parse at the floor's
grammar, and no regular expression literal may use a construct ``re`` first
accepts after 3.10 (possessive quantifiers and atomic groups, added in 3.11).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mlcpsim").glob("*.py"))

#: ``*+``, ``++``, ``?+`` and ``}+`` (possessive) and ``(?>`` (atomic group),
#: looked for once escapes and character classes are masked.
_NEWER_THAN_3_10 = re.compile(r"[*+?}]\+|\(\?>")
_MASKED = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]", re.DOTALL)


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M).groups()
    return int(major), int(minor)


def newer_regex_syntax(pattern: str) -> list[str]:
    """The constructs of ``pattern`` that Python 3.10's ``re`` refuses."""
    return _NEWER_THAN_3_10.findall(_MASKED.sub("x", pattern))


def regex_literals(tree: ast.AST) -> list[str]:
    """The string patterns passed as first argument to any ``re.<function>``."""
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_regex_literal_needs_a_newer_re(path):
    for pattern in regex_literals(ast.parse(path.read_text(encoding="utf-8"))):
        assert newer_regex_syntax(pattern) == [], (path.name, pattern)


@pytest.mark.parametrize("pattern, found", [
    (r"[0-9]++,", ["++"]), (r"a*+", ["*+"]), (r"a?+", ["?+"]), (r"a{1,18}+", ["}+"]),
    (r"(?>ab)c", ["(?>"]),
    (r"[0-9]{1,18},[0-9]{1,18}(?:\n[0-9]{1,18})*", []), (r"[+-]?[0-9]+", []),
    (r"\++", []), (r"[*+]+", []), (r"[]+]+", []), (r"\(?>", []),
])
def test_the_regex_check_finds_only_newer_constructs(pattern, found):
    assert newer_regex_syntax(pattern) == found
