"""The README's library example gives each call's value in a trailing
comment; run the block and hold every call to it. Its manifest example
must parse to the network it describes."""

from __future__ import annotations

import re
from pathlib import Path

from fieldscope import parse_dsl, parse_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_each_library_call_equals_its_comment():
    namespace: dict = {}
    checked = 0
    for line in library_example():
        code, _, comment = line.partition("#")
        if not comment:
            exec(line, namespace)
            continue
        # the value is the comment's text before any ':' gloss
        expected = comment.split(":", 1)[0]
        assert eval(code, namespace) == eval(expected, namespace), line
        checked += 1
    assert checked == 6


def test_the_manifest_example_is_chain11s_first_layer():
    section = README.read_text(encoding="utf-8").split("\n## Network files\n", 1)[1]
    manifest = re.search(r"```toml\n(.*?)```", section, re.S).group(1)
    assert parse_manifest(manifest) == parse_dsl("network chain11\nconv 9 s1")
