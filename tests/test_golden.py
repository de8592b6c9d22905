"""The reference commands' stdout, byte for byte, against the files in ``tests/golden``.

Each file is the stdout of ``python -m qdeficit.cli <command>`` for the
command its name gives.  A change that moves a printed digit of one of
these commands fails here; a change that means to move it records the new
file the same way and names the change.  ``pure:0.1,0.7j,0.7,0.1j`` is
the one complex state: it takes the ``svd`` route for Wootters' tau and
the complex Fano product.
"""

from pathlib import Path

import pytest

from qdeficit.cli import main

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
