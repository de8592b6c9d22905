import json

import numpy as np
import pytest

from qdeficit.cli import main
from qdeficit.linalg import matrix_to_json


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestReferenceCommands:
    def test_table1_matches_reference(self, capsys):
        code, out, err = _run(capsys, "table1")
        assert code == 0, err
        assert [line.split()[0] for line in out.splitlines()[1:]] == ["E1", "E2", "E3", "E4", "E5", "E6"]

    def test_iso_report_matches_reference(self, capsys):
        code, _, err = _run(capsys, "iso-report")
        assert code == 0, err


class TestAudit:
    def test_independent_of_job_count(self, capsys):
        code_1, out_1, err_1 = _run(capsys, "audit", "--n", "300", "--seed", "42", "--jobs", "1")
        code_2, out_2, err_2 = _run(capsys, "audit", "--n", "300", "--seed", "42", "--jobs", "2")
        assert code_1 == 0, err_1
        assert code_2 == 0, err_2
        assert out_1 == out_2
        assert "FAIL" not in out_1


class TestClassify:
    def test_registry_state(self, capsys):
        code, out, err = _run(capsys, "classify", "E1")
        assert code == 0, err
        assert json.loads(out)["concurrence"] == pytest.approx(2.0 / 3.0, abs=1e-11)

    def test_unknown_state_is_input_error(self, capsys):
        code, _, err = _run(capsys, "classify", "nosuch")
        assert code == 2
        assert err.startswith("error:")

    def test_nan_json_file_is_input_error(self, capsys, tmp_path):
        m = np.eye(4) / 4
        m[0, 0] = np.nan
        path = tmp_path / "nan_state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_to_json(m)}))
        assert "NaN" in path.read_text()
        code, _, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert "finite check failed" in err
