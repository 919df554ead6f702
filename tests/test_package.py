"""The names the top-level ``ssdd`` package gives its callers."""

import ast
import importlib
import re
import types
from pathlib import Path

import ssdd

README = Path(__file__).resolve().parents[1] / "README.md"

# everything a caller takes from ``ssdd`` itself; internals such as
# ``mask``, ``project`` or ``top_f`` are imported from their own modules
TOP_LEVEL = {
    "AliceSession",
    "BobResponder",
    "Corpus",
    "DetectionReport",
    "DimensionError",
    "DuplicateEntryError",
    "DuplicateTermError",
    "FrameError",
    "OracleResult",
    "PackedDocs",
    "ParseError",
    "ProtocolError",
    "RangeError",
    "RawDocument",
    "SelectionMethod",
    "SessionConfig",
    "SessionError",
    "SimilarityDecision",
    "SsddError",
    "load_cache",
    "load_vocabulary",
    "oracle_detect",
    "parse_bag_of_words",
    "run_local_detection",
    "save_cache",
    "split_queries",
}


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from M import name`` in README's Python blocks."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    return [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ssdd")
        for alias in node.names
    ]


def test_top_level_names_are_pinned():
    public = {
        name
        for name, value in vars(ssdd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == TOP_LEVEL


def test_readme_imports_resolve():
    imports = readme_imports()
    assert ("ssdd", "run_local_detection") in imports
    assert ("ssdd.protocol.transport", "TcpServer") in imports
    for module, name in imports:
        if module == "ssdd":
            assert name in TOP_LEVEL
        assert hasattr(importlib.import_module(module), name), (module, name)
