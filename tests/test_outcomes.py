import re
import shlex

import pytest

from outcomes import ROOT, ROWS, check, name


@pytest.mark.parametrize("row", ROWS, ids=name)
def test_row(row, cli):
    check(row, cli)


def test_every_readme_command_is_a_row():
    readme = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        lines += block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("relalg ")]
    assert len(commands) == 13
    argvs = {row.argv for row in ROWS}
    assert [c for c in commands if tuple(c) not in argvs] == []


def test_every_input_file_is_read_by_a_row():
    read = {ROOT / a for row in ROWS for a in row.argv if a.startswith(("data/", "tests/"))}
    files = [*(ROOT / "data").glob("*.json"), *(ROOT / "tests" / "inputs").iterdir()]
    assert [str(f.relative_to(ROOT)) for f in sorted(files) if f not in read] == []
    assert all(f.is_file() for f in read)
