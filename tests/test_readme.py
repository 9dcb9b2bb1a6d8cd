"""The README's layout table names every module of the package, once."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layout_modules():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_layout_table_names_exactly_the_package_modules():
    package = os.path.join(ROOT, "src", "shadowscan")
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")} - {"__init__", "__main__"}
    listed = _layout_modules()
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == modules
