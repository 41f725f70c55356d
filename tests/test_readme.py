"""Every command line in the README's CLI block runs and exits 0."""

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
