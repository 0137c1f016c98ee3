"""The public library surface and README's "Library entry points" agree."""

import re
from pathlib import Path

import casoratiq

_README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_block() -> str:
    section = _README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_entry_points_import():
    namespace = {}
    exec(_entry_point_block(), namespace)
    imported = {name for name in namespace if not name.startswith("__")}
    assert imported, "the README import block names nothing"
    assert imported <= set(casoratiq.__all__)


def test_every_exported_name_resolves():
    assert len(set(casoratiq.__all__)) == len(casoratiq.__all__)
    for name in casoratiq.__all__:
        assert getattr(casoratiq, name) is not None, name
