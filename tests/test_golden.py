"""The reference commands' stdout, byte for byte, against the files in ``tests/golden``.

Each file is the stdout of ``python -m qdeficit.cli <command>`` for the
command its name gives.  A change that moves a printed digit of one of
these commands fails here; a change that means to move it records the new
file the same way and names the change.  ``pure:0.1,0.7j,0.7,0.1j`` is
the one complex state: it takes the ``svd`` route for Wootters' tau and
the complex Fano product.  The two ``*.json`` files are state files,
one in each payload form, that ``helpers.matrix_json`` wrote from a
registry spec; ``classify`` of the file prints the spec's golden bytes.
"""

import json
from pathlib import Path

import pytest

from qdeficit.cli import main
from qdeficit.states import from_registry

from helpers import matrix_json

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["table1"],
    "iso-report": ["iso-report"],
    "werner-sweep": ["werner-sweep"],
    "audit-n300-seed42": ["audit", "--n", "300", "--seed", "42"],
    **{
        f"classify-{spec.replace(':', '-')}": ["classify", spec]
        for spec in ("E1", "E2", "E3", "E4", "E5", "E6", "iso:E", "iso:S", "werner:0.3", "pure:0.1,0.7j,0.7,0.1j")
    },
}


def test_every_golden_file_has_its_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_the_golden_bytes(capsys, name):
    code = main(COMMANDS[name])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


# State file: (registry spec, whether the matrix is wrapped as {"dims": [2, 2], "matrix": ...}).
STATE_FILES = {"E1.json": ("E1", False), "pure-0.1,0.7j,0.7,0.1j.json": ("pure:0.1,0.7j,0.7,0.1j", True)}


def test_every_state_file_is_listed():
    assert sorted(path.name for path in GOLDEN.glob("*.json")) == sorted(STATE_FILES)


@pytest.mark.parametrize("name", list(STATE_FILES))
def test_state_file_is_its_spec_written_by_matrix_json(name):
    spec, wrapped = STATE_FILES[name]
    payload = matrix_json(from_registry(spec))
    assert json.loads((GOLDEN / name).read_text()) == ({"dims": [2, 2], "matrix": payload} if wrapped else payload)


@pytest.mark.parametrize("name", list(STATE_FILES))
def test_classify_of_a_state_file_prints_its_specs_golden_bytes(capsys, name):
    code = main(["classify", str(GOLDEN / name)])
    out, err = capsys.readouterr()
    assert code == 0, err
    golden = f"classify-{STATE_FILES[name][0].replace(':', '-')}.txt"
    assert out.encode() == (GOLDEN / golden).read_bytes()
