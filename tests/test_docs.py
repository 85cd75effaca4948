"""The documentation's cross-references resolve."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _flat(text: str) -> str:
    # a citation may wrap across docstring or comment lines
    return " ".join(re.sub(r"\n\s*#", " ", text).split())


def test_formula_notes_citations_name_a_heading():
    notes = (ROOT / "docs" / "FORMULA_NOTES.md").read_text()
    # a heading may end in the name of the code it covers, "(`...`)"
    headings = {
        re.sub(r" \(`[^`]*`\)$", "", line[3:].strip())
        for line in notes.splitlines()
        if line.startswith("## ")
    }
    sources = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "README.md"]
    cited = [
        (path.name, title)
        for path in sources
        for title in re.findall(r'FORMULA_NOTES\.md, "([^"]+)"', _flat(path.read_text()))
    ]
    assert len(cited) >= 14
    assert [c for c in cited if c[1] not in headings] == []


def test_formula_notes_headings_name_code_that_exists():
    # a heading's trailing (`name`) or (`module.name`) names the code it
    # covers, so a helper renamed or dropped must take its heading along; a
    # bare name may live in any module of the package
    notes = (ROOT / "docs" / "FORMULA_NOTES.md").read_text()
    named = re.findall(r"^## .* \(`([^`]*)`\)$", notes, re.MULTILINE)
    modules = {
        path.stem: importlib.import_module(f"mzvshuffle.{path.stem}")
        for path in sorted((ROOT / "src" / "mzvshuffle").glob("*.py"))
    }

    def exists(name: str) -> bool:
        owner, _, attr = name.rpartition(".")
        if owner:
            return owner in modules and hasattr(modules[owner], attr)
        return any(hasattr(module, attr) for module in modules.values())

    assert len(named) >= 6
    assert [name for name in named if not exists(name)] == []
