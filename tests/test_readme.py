"""Every command line in the README's CLI block runs and exits 0, and every
name in its package-layout table exists in the module of its row."""

import importlib
import re
import shlex
from pathlib import Path

from ineqlab.cli import main
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, save_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def write_field(path="field.pgf"):
    """The grid file the README's `norms --in field.pgf` line reads."""
    save_grid(generate(FamilySpec(GridSpec(2, 32, 1.0), "random-fourier", {"kmax": 4}, 1)), path)


def test_readme_block_found():
    cmds = readme_commands()
    assert len(cmds) >= 10
    assert all(argv[0] == "ineqlab" for argv in cmds)


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_field()
    for argv in readme_commands():  # in order: `report` re-runs an earlier config
        assert main(argv[1:]) == 0, " ".join(argv)


# backticked prose in the layout table, not names
PROSE = {"u_R", "calibrate --frozen"}


def layout_rows():
    """(module, [backticked tokens]) for each row of the "Package layout" table."""
    table = README.read_text().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def unresolved(module, token):
    """The part of token that does not resolve in ineqlab.<module>, or None.

    A name is read up to any "(", and a dotted name is resolved one attribute
    at a time.  Family ids resolve in families.FAMILY_IDS, a comma list of
    inequality ids in inequalities.PRECONDITIONS, and `passed` as ClaimRow.passed.
    """
    mod = importlib.import_module(f"ineqlab.{module}")
    name = token.split("(", 1)[0].strip()
    if name in PROSE:
        return None
    if module == "families" and name in mod.FAMILY_IDS:
        return None
    if "," in name:
        missing = [i for i in (s.strip() for s in name.split(",")) if i not in mod.PRECONDITIONS]
        return ", ".join(missing) or None
    obj = mod
    for part in ("ClaimRow.passed" if name == "passed" else name).split("."):
        if not hasattr(obj, part):
            return name
        obj = getattr(obj, part)
    return None


def test_layout_table_names_resolve():
    rows = list(layout_rows())
    assert {m for m, _ in rows} >= {"grid", "families", "norms", "transport", "inequalities", "cli"}
    missing = [(m, unresolved(m, t)) for m, tokens in rows for t in tokens if unresolved(m, t)]
    assert not missing
