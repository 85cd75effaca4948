"""The documentation's cross-references, tables and examples match the code."""

import importlib
import re
from pathlib import Path

import pytest

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


def test_readme_sweep_table_matches_the_registry():
    from mzvshuffle import verify

    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (`[^|]*) \|[^|]*\| (\d+) \|$", readme, re.MULTILINE)
    listed = {name: int(bound) for names, bound in rows for name in re.findall(r"`([^`]+)`", names)}
    assert listed == {name: sweep.default_bound for name, sweep in verify.SWEEPS.items()}


def test_readme_environment_variables_are_read():
    documented = set(re.findall(r"`([A-Z_]{4,})`\s+environment", _flat((ROOT / "README.md").read_text())))
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        if "os.environ" in text or "getenv" in text:
            read |= set(re.findall(r"""["']([A-Z_]{4,})["']""", text))
    assert documented <= read


@pytest.mark.parametrize("command", ["mzvshuffle shuffle xy xy --format latex", "mzvshuffle zeta 3,1"])
def test_readme_cli_comments_show_the_output(capsys, command):
    from mzvshuffle.cli import main

    readme = (ROOT / "README.md").read_text()
    shown = re.search(rf"^{re.escape(command)} +# (.*)$", readme, re.MULTILINE)
    assert shown is not None
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == shown.group(1) + "\n"
