"""Random byte edits of every file kind the CLI reads.

Start from small valid files that the CLI itself writes (a corpus, a
feature set, an LM and a selection) plus a config file, damage one with
a few Hypothesis-chosen byte edits, and run the command that reads it.
Whatever the damage, `main` must end with exit 0, 1 or 2 (argparse's
usage exit counts as 2) and raise nothing else. Every check that exits
2 runs before the command writes, so an exit of 2 must leave no output.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subselect.cli import main

GROUND = "a b\na b\nc d\nb c\nd a\n"
IN_DOMAIN = "a b c\nc d a\n"
CONFIG = "# settings\nbudget-words = 4\nmethod = both\nlm-order = 2\n"

SELECT = ("select --method both --ground-src {d}/ground.src --in-domain-src {d}/indomain.src "
          "--max-order 2 --lm-order 2 --budget-words 4 --out-dir {d}/out")
# (file to damage, command that reads it; {d} is the directory, {d}/out the output)
CASES = [
    ("ground.src", SELECT),
    ("indomain.src", SELECT),
    ("in.lm", "score --ground-src {d}/ground.src --lm-in {d}/in.lm --lm-out {d}/out.lm --out {d}/out"),
    ("f.tsv", "report --features {d}/f.tsv --ground-src {d}/ground.src --selection {d}/sel.tsv --out-dir {d}/out"),
    ("sel.tsv", "report --features {d}/f.tsv --ground-src {d}/ground.src --selection {d}/sel.tsv --out-dir {d}/out"),
    ("select.conf", "select --config {d}/select.conf --ground-src {d}/ground.src --in-domain-src {d}/indomain.src "
                    "--max-order 2 --out-dir {d}/out"),
]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """File name -> bytes of every input in CASES, all valid."""
    d = tmp_path_factory.mktemp("pristine")
    (d / "ground.src").write_text(GROUND, encoding="utf-8")
    (d / "indomain.src").write_text(IN_DOMAIN, encoding="utf-8")
    (d / "select.conf").write_text(CONFIG, encoding="utf-8")
    assert main(["extract-features", "--in-domain-src", f"{d}/indomain.src", "--ground-src", f"{d}/ground.src",
                 "--max-order", "2", "--out", f"{d}/f.tsv"]) == 0
    for name, src, other in [("in.lm", "indomain.src", "ground.src"), ("out.lm", "ground.src", "indomain.src")]:
        assert main(["train-lm", "--src", f"{d}/{src}", "--order", "2", "--extra-vocab-src", f"{d}/{other}",
                     "--out", f"{d}/{name}"]) == 0
    assert main(["select", "--ground-src", f"{d}/ground.src", "--in-domain-src", f"{d}/indomain.src",
                 "--max-order", "2", "--budget-words", "4", "--out-dir", f"{d}/sel"]) == 0
    shutil.copy(d / "sel" / "submod.selection.tsv", d / "sel.tsv")
    files = {name: (d / name).read_bytes() for name in ("ground.src", "indomain.src", "select.conf",
                                                       "f.tsv", "in.lm", "out.lm", "sel.tsv")}
    for target, command in CASES:  # each command runs on the undamaged files
        with tempfile.TemporaryDirectory() as tmp:
            assert _run(files, tmp, command) == 0
    return files


def _apply(data: bytes, edit, pos: int, value: int) -> bytes:
    if edit == "flip":
        if not data:
            return data
        at = pos % len(data)
        return data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
    at = pos % (len(data) + 1)
    if edit == "truncate":
        return data[:at]
    if isinstance(edit, bytes):
        return data[:at] + edit + data[at:]
    lines = data.split(b"\n")
    i = pos % len(lines)
    if edit == "repeat-line":
        return b"\n".join(lines[:i + 1] + lines[i:])
    return b"\n".join(lines[:i] + lines[i + 1:])  # drop-line


def _run(files: dict[str, bytes], tmp: str, command: str) -> int:
    for name, data in files.items():
        Path(tmp, name).write_bytes(data)
    try:
        return main([arg.format(d=tmp) for arg in command.split()])
    except SystemExit as exc:  # argparse rejects a value
        return exc.code


edits = st.tuples(
    st.sampled_from(["flip", "truncate", b"\xff", b"\r", b"\0", "repeat-line", "drop-line"]),
    st.integers(0, 4095),
    st.integers(1, 255),
)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(CASES), edit_list=st.lists(edits, min_size=1, max_size=3))
def test_damaged_input_exits_cleanly(pristine, case, edit_list):
    target, command = case
    files = dict(pristine)
    for edit in edit_list:
        files[target] = _apply(files[target], *edit)
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run(files, tmp, command)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert not Path(tmp, "out").exists()
