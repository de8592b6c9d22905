import ast
import concurrent.futures
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdeficit import audit, cli, entropy, structure
from qdeficit.cli import main
from qdeficit.concurrence import concurrence
from qdeficit.entropy import entropy_stack
from qdeficit.linalg import TOLS, Tolerances, density_stack, marginal_stack, transpose_stack
from qdeficit.states import bloch_vectors
from qdeficit.structure import classify, decohere_stack

from helpers import matrix_json, pure_density, random_pure, werner


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _as_printed(got: float, want: float) -> bool:
    """``got``, printed to 12 significant digits, is ``want`` up to half a unit in its last
    digit; a vanishing figure may print its round-off."""
    return math.isclose(got, want, rel_tol=5e-12, abs_tol=1e-15)


class TestReferenceCommands:
    def test_table1_matches_reference(self, capsys):
        code, out, err = _run(capsys, "table1")
        assert code == 0, err
        header, *lines = [line.split() for line in out.splitlines()]
        assert [cells[0] for cells in lines] == ["E1", "E2", "E3", "E4", "E5", "E6"]
        printed = {cells[0]: dict(zip(header[1:], map(float, cells[1:]))) for cells in lines}
        for name, row in printed.items():
            for col, closed in cli._CLOSED[name].items():
                assert _as_printed(row[col], closed), (name, col, row[col], closed)
                # A figure whose closed form is 0 prints as 0, not as round-off.
                assert closed != 0.0 or row[col] == 0.0, (name, col, row[col])

    def test_iso_report_matches_reference(self, capsys):
        code, out, err = _run(capsys, "iso-report")
        assert code == 0, err
        printed = {}
        for line in out.splitlines():
            if line.startswith("state "):
                row = printed[f"iso:{line[6:-1]}"] = {}
            else:  # a 19-character label after two spaces, then the figures
                row[line[2:21].strip()] = [float(v) for v in line[21:].replace("A:", "").replace("B:", "").split()]
        assert list(printed) == ["iso:E", "iso:S"]
        for name, row in printed.items():
            spectra = row["spectrum"] + row["marginal spectra"]
            assert len(spectra) == 8, name
            for got, want in zip(spectra, [2 / 3, 1 / 3, 0, 0] + [2 / 3, 1 / 3] * 2):
                assert _as_printed(got, want), (name, got, want)
            for col, closed in cli._CLOSED[name].items():
                (got,) = row[col]
                assert _as_printed(got, closed), (name, col, got, closed)
        # The separable state's concurrence prints as its closed form, not as round-off.
        assert printed["iso:S"]["concurrence"] == [0.0]

    def test_table1_solves_the_six_states_in_one_eigh_call(self, capsys, monkeypatch):
        """The registry's matrices are validated by the one ``classify_stack`` call: ``eigh`` on the
        ``(6, 4, 4)`` stack, then ``eigvalsh`` on the real spin-flip tau and on the partial transposes."""
        calls = _count_eigensolver_calls(monkeypatch)
        assert _run(capsys, "table1")[0] == 0
        assert calls == ["eigh", "eigvalsh", "eigvalsh"]

    def test_iso_report_solves_each_state_once(self, capsys, monkeypatch):
        """``table1``'s one ``classify_stack`` call on the pair: ``eigh`` on the ``(2, 4, 4)`` stack, then
        ``eigvalsh`` on tau and on the partial transposes; then the printed spectra and both states'
        marginals, values-only."""
        calls = _count_eigensolver_calls(monkeypatch)
        assert _run(capsys, "iso-report")[0] == 0
        assert calls == ["eigh"] + ["eigvalsh"] * 4

    def test_tight_tolerance_is_verification_failure(self, capsys):
        code, _, err = _run(capsys, "--tolerance", "1e-2", "table1")
        assert code == 1
        assert "E1.deficit_over_ln2: computed 0.601606745739 vs printed 0.6016" in err

    @pytest.mark.parametrize(
        "command, name, col, closed, line",
        [
            ("table1", "E2", "concurrence", 0.5,
             "E2.concurrence: computed 0.333333333333 vs closed form 0.5 (|diff| 1.667e-01 > 1e-10)"),
            ("table1", "E2", "concurrence", math.nan,
             "E2.concurrence: computed 0.333333333333 vs closed form nan (|diff| nan > 1e-10)"),
            ("iso-report", "iso:E", "deficit", 0.0,
             "iso:E.deficit: computed 0.462098120373 vs closed form 0 (|diff| 4.621e-01 > 1e-10)"),
            ("iso-report", "iso:S", "deficit", math.nan,
             "iso:S.deficit: computed 0 vs closed form nan (|diff| nan > 1e-10)"),
            ("iso-report", "iso:S", "mutual", 0.0,
             "iso:S.mutual: computed 0.636514168295 vs closed form 0 (|diff| 6.365e-01 > 1e-10)"),
        ],
        ids=["E2.concurrence", "E2.concurrence-nan", "iso:E.deficit", "iso:S.deficit-nan", "iso:S.mutual"],
    )
    def test_closed_form_mismatch_is_verification_failure(self, capsys, monkeypatch, command, name, col, closed, line):
        report = _run(capsys, command)[1]
        monkeypatch.setitem(cli._CLOSED[name], col, closed)
        code, out, err = _run(capsys, command)
        assert code == 1
        assert out == report
        assert err == f"mismatch: {line}\n"

    def test_mismatch_shows_the_bound_exactly(self, capsys, monkeypatch):
        """A miss of 1.39e-10 against the bound 1.37e-10 of ``--tolerance 1.37`` reads above that bound,
        not above 1.37e-10 rounded to 1.4e-10."""
        closed = cli._CLOSED["E2"]["concurrence"]
        monkeypatch.setitem(cli._CLOSED["E2"], "concurrence", closed + 1.39e-10)
        code, _, err = _run(capsys, "--tolerance", "1.37", "table1")
        assert code == 1
        assert err == ("mismatch: E2.concurrence: computed 0.333333333333 vs closed form 0.333333333472 "
                       "(|diff| 1.390e-10 > 1.3700000000000002e-10)\n")
        assert float(err.split(" > ")[1].rstrip(")\n")) == Tolerances(1.37).hermiticity

    def test_closed_reader_exits_141_without_a_traceback(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "qdeficit.cli", "werner-sweep", "--step", "1e-4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"p,concurrence,")
            proc.stdout.close()  # the reader stops after one line, as ``| head -1`` does
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err
        assert "Exception ignored" not in err


def _werner_entropy(p: float) -> float:
    vals = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
    vals = vals[vals > 0]
    return float(-np.sum(vals * np.log(vals)))


class TestWernerSweep:
    def test_rows_match_closed_forms(self, capsys):
        code, out, err = _run(capsys, "werner-sweep", "--min", "0", "--max", "1", "--step", "0.25")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "p,concurrence,mutual_over_ln2,deficit_over_ln2,cond_entropy_q1,ppt_min_eig"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for p, conc, _, _, cond, ppt in rows:
            assert abs(conc - max(0.0, (3 * p - 1) / 2)) <= 1e-9
            assert abs(ppt - (1 - 3 * p) / 4) <= 1e-9
            assert abs(cond - (_werner_entropy(p) - np.log(2.0))) <= 1e-9

    @pytest.mark.parametrize(
        "bounds",
        [("--step", "0"), ("--step", "nan"), ("--min", "0.7", "--max", "0.2")],
        ids=["zero-step", "nan-step", "reversed-range"],
    )
    def test_bad_range_is_input_error(self, capsys, bounds):
        code, out, err = _run(capsys, "werner-sweep", *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        ("pmin", "pmax", "step", "grid"),
        [(0.5, 0.5, 1e-13, [0.5]), (0.0, 3e-13, 1e-13, [0.0, 1e-13, 2e-13, 3e-13])],
    )
    def test_step_below_the_end_slack_emits_the_endpoint_once(self, pmin, pmax, step, grid):
        # Every point in (pmax, pmax + _GRID_END_SLACK] clamps to pmax: only the first is a row.
        assert list(cli._grid(pmin, pmax, step)) == grid

    def test_single_point_sweep_has_one_row(self, capsys):
        code, out, err = _run(capsys, "werner-sweep", "--min", "0.5", "--max", "0.5", "--step", "1e-13")
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.5"]

    def test_gnuplot_script_written(self, capsys, tmp_path):
        path = tmp_path / "sweep.gp"
        code, _, err = _run(capsys, "werner-sweep", "--step", "0.5", "--gnuplot", str(path))
        assert code == 0, err
        assert "plot csvfile using 1:2" in path.read_text()
        assert f"wrote gnuplot script to {path}" in err

    def test_unwritable_gnuplot_path_is_input_error(self, capsys, tmp_path):
        """A path that cannot be opened exits 2 with one error line, after the CSV it follows."""
        path = tmp_path / "missing" / "sweep.gp"
        code, out, err = _run(capsys, "werner-sweep", "--step", "0.5", "--gnuplot", str(path))
        assert code == 2
        assert out.splitlines()[0].startswith("p,concurrence,")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_sweep_computes_no_diagnostic(self, monkeypatch):
        """The sweep prints figures only: it runs without the overlap pass, the ratio test and rho_d."""
        def unreachable(*args, **kwargs):
            raise AssertionError("a diagnostic kernel ran")

        for name in ("_overlap_pass", "_ratio_stack", "_decohered"):
            monkeypatch.setattr(structure, name, unreachable)
        assert len(cli.werner_sweep_rows(0, 1, 1e-3)) == 1001
        with pytest.raises(AssertionError, match="a diagnostic kernel ran"):
            structure.classify_stack(werner(0.3).matrix[None])


class TestToleranceScale:
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_scale_that_is_not_finite_and_positive_is_input_error(self, capsys, scale):
        code, out, err = _run(capsys, "--tolerance", scale, "table1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance scale must be finite and positive")

    def test_scale_reaches_the_frame_checks(self, capsys, tmp_path):
        noisy = werner(0.5).matrix.copy()
        noisy[0, 0] += 5e-10  # trace 1 + 5e-10
        path = tmp_path / "noisy_state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_json(noisy)}))
        code, out, err = _run(capsys, "--tolerance", "10", "classify", str(path))
        assert code == 0, err
        assert json.loads(out)["concurrence"] == pytest.approx(0.25, abs=1e-8)
        code, _, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert "trace check failed" in err

    def test_scale_reaches_the_pure_state_normalization(self, capsys):
        # |psi|^2 = 1 + 4e-8: beyond the trace bound at the default scale, within it at 1000.
        code, _, err = _run(capsys, "classify", "pure:1.00000002,0,0,0")
        assert code == 2
        assert err.startswith("error: trace check failed")
        code, out, err = _run(capsys, "--tolerance", "1000", "classify", "pure:1.00000002,0,0,0")
        assert code == 0, err
        assert json.loads(out)["concurrence"] == 0.0

    def test_scaled_audit_independent_of_job_count(self, capsys):
        code_1, out_1, err_1 = _run(capsys, "--tolerance", "2", "audit", "--n", "300", "--jobs", "1")
        code_2, out_2, err_2 = _run(capsys, "--tolerance", "2", "audit", "--n", "300", "--jobs", "2")
        assert code_1 == 0, err_1
        assert code_2 == 0, err_2
        assert out_1 == out_2


def _offset_transposes(monkeypatch):
    """Every partial transpose gains 1e-9 I: its trace is off by 4e-9 and the round trip by 2e-9."""
    monkeypatch.setattr(audit, "transpose_stack", lambda m: transpose_stack(m) + 1e-9 * np.eye(4))


def _lower_marginal_entropies(monkeypatch):
    """S(A) and S(B) fall by 1e-6, so D - I rises by 2e-6: above its bound on the product states, where D = I = 0.
    D - I and its second route move together."""

    def lowered(values, *, tols):
        return entropy_stack(values, tols=tols) - (1e-6 if values.shape[-1] == 2 else 0.0)

    monkeypatch.setattr(audit, "entropy_stack", lowered)


def _stretch_bloch_b(monkeypatch):
    """Side B's Bloch vector of each pure state grows by 1e-6 of its length; side A's, which the residual
    1 - |s(A)|^2 - C^2 reads, stays."""

    def stretched(amps, *, tols):
        vecs = bloch_vectors(amps, tols=tols)
        vecs[:, 1] *= 1.0 + 1e-6
        return vecs

    monkeypatch.setattr(audit, "bloch_vectors", stretched)


def _offset_marginal_product(monkeypatch):
    """State 2's product of marginals gains 1e-6 (|11><11| - |10><10|) in the stack of derived matrices,
    before it is validated: its trace and marginal A stay, and the mutual entropy does not read it."""

    def offset(m, *, tols):
        if m.ndim == 4:
            m[2, 0, 0, 0] += 1e-6
            m[2, 0, 1, 1] -= 1e-6
        return density_stack(m, tols=tols)

    monkeypatch.setattr(audit, "density_stack", offset)


class TestAudit:
    def test_independent_of_job_count(self, capsys):
        code_1, out_1, err_1 = _run(capsys, "audit", "--n", "300", "--seed", "42", "--jobs", "1")
        code_2, out_2, err_2 = _run(capsys, "audit", "--n", "300", "--seed", "42", "--jobs", "2")
        assert code_1 == 0, err_1
        assert code_2 == 0, err_2
        assert out_1 == out_2
        assert "FAIL" not in out_1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_job_count_below_one_is_input_error(self, capsys, jobs):
        code, out, err = _run(capsys, "audit", "--n", "3", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: audit needs jobs >= 1")

    def test_negative_seed_is_input_error(self, capsys):
        code, out, err = _run(capsys, "audit", "--n", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: audit needs seed >= 0, got -1\n"

    @pytest.mark.parametrize(
        ("n", "jobs", "cpus", "pool_sizes"),
        [(3, 64, 8, []), (20, 64, 8, []), (20, 4, 8, []), (3, 64, None, []),
         (600, 64, 8, [3]), (600, 2, 8, [2]), (600, 64, 2, [2]), (600, 64, None, [])],
    )
    def test_pool_size_is_capped_by_states_and_cpus(self, monkeypatch, n, jobs, cpus, pool_sizes):
        """A stack is the unit of work: one stack runs in this process, more share min(jobs, stacks, cpus)
        workers."""
        sizes = []

        class RecordingPool:
            """Records the requested size, requires spawned workers and runs the chunks in this process."""

            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.run_audit(n, 42, jobs) == cli.run_audit(n, 42, 1)
        assert sizes == pool_sizes

    @pytest.mark.parametrize(("n", "jobs"), [(5, 1), (1, 4)])
    def test_one_process_audit_loads_no_pool(self, monkeypatch, n, jobs):
        """With one state or one job the audit asks for no cpu count, and a fresh interpreter that
        runs it has imported neither ``multiprocessing`` nor ``concurrent.futures``."""
        monkeypatch.setattr(os, "cpu_count", lambda: pytest.fail("cpu_count called"))
        assert cli.run_audit(n, 42, jobs) == cli.run_audit(n, 42, 1)
        code = (f"import sys; import qdeficit.cli as cli; cli.run_audit({n}, 42, {jobs}); "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize(("scale", "passes"), [("1", False), ("10", True)])
    def test_injected_spin_flip_fault_fails_at_default_scale_only(self, capsys, monkeypatch, scale, passes):
        """Every state's sum lambda_i^2 grows by 3e-9, between the default bound and ten times it."""
        monkeypatch.setattr(audit, "concurrence", _lambda_fault(lambda lam: slice(None)))
        code, out, err = _run(capsys, "--tolerance", scale, "audit", "--n", "12")
        if passes:
            assert code == 0, err
            assert "FAIL" not in out
            assert err == ""
        else:
            assert code == 1
            assert "FAIL spin-flip-trace (0/12)" in out.splitlines()
            assert out.count("FAIL") == 1
            lines = err.splitlines()
            assert lines[-1] == "12 property violations"
            assert all(re.match(r"^state \d+ \(seed \d+\) failed spin-flip-trace: ", line) for line in lines[:-1])
            assert len(lines) == 13

    def test_nan_entropy_fails_every_property_that_reads_it(self, monkeypatch):
        """S is NaN where the audit reads it and inside the entropy kernels, ``conditional_tsallis``'s among them."""
        for module in (audit, entropy):
            monkeypatch.setattr(module, "entropy_stack", lambda values, *, tols: np.full(values.shape[:-1], math.nan))
        reads_entropy = {
            "mutual-nonnegative", "tsallis-continuity", "klein-entropy-increase", "deficit-bounds",
            "deficit-mutual-gap-identity", "pure-marginal-entropy-symmetry", "pure-conditional-nonpositive",
            "product-mutual-zero", "product-entropy-difference",
        }
        counts, lines = audit.run_audit(12, 42)
        for prop, (checked, failed) in counts.items():
            assert failed == (checked if prop in reads_entropy else 0), prop
        # Each line shows a NaN magnitude against its bound.
        assert all(re.search(r"=nan > \S", line) for line in lines)

    @pytest.mark.parametrize(
        ("fault", "prop", "name", "bound"),
        [
            (_offset_transposes, "partial-transpose-involution", "tr_pt", "1e-12"),
            (_lower_marginal_entropies, "deficit-bounds", "D-I", "1e-09"),
            (_stretch_bloch_b, "pure-bloch-identity", "norm_gap", "1e-10"),
            (_offset_marginal_product, "product-mutual-zero", "gap", "1e-08"),
        ],
        ids=["transposed-trace", "deficit-minus-mutual", "pure-norm-gap", "product-gap"],
    )
    def test_failure_line_shows_the_magnitude_that_failed(self, monkeypatch, fault, prop, name, bound):
        """A fault in one magnitude of a compound property: each of its failure lines shows that
        magnitude against its bound, whatever the property's other magnitudes read."""
        fault(monkeypatch)
        counts, lines = audit.run_audit(12, 42)
        failed = [line for line in lines if f" failed {prop}: " in line]
        assert counts[prop][1] == len(failed) > 0
        shown = re.compile(rf"(: | ){re.escape(name)}=\S+ > {re.escape(bound)}( |$)")
        assert all(shown.search(line) for line in failed), failed

    @pytest.mark.parametrize("scale", [1.37, 1.0 / 3.0])
    def test_failure_line_shows_the_bound_exactly(self, monkeypatch, scale):
        """The bound is printed as its shortest round-trip form: it reads back as the bound held."""
        _offset_transposes(monkeypatch)
        tols = Tolerances(scale)
        lines = audit.run_audit(12, 42, tols=tols)[1]
        shown = {float(bound) for line in lines for bound in re.findall(r"tr_pt=\S+ > (\S+)", line)}
        assert shown == {tols.reshuffle}

    def test_check_stack_derives_every_failure_line(self):
        """``_check_stack`` writes no verdict or detail of its own: it holds no lambda and no f-string,
        it books each property once through ``record`` with ``(name, magnitude, tols bound)`` checks,
        and only the two equivalences pass their own verdicts."""
        nodes = list(ast.walk(ast.parse(inspect.getsource(audit._check_stack))))
        assert not [node for node in nodes if isinstance(node, (ast.Lambda, ast.JoinedStr))]
        calls = [node for node in nodes if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "record"]
        assert sorted(call.args[0].value for call in calls) == sorted(audit.AUDIT_PROPERTIES)
        own = {call.args[0].value for call in calls if any(keyword.arg == "ok" for keyword in call.keywords)}
        assert own == {"concurrence-ppt-equivalence", "pure-conditional-nonpositive"}
        for check in (check for call in calls for check in call.args[1:]):
            assert isinstance(check, ast.Tuple) and len(check.elts) == 3
            assert ast.unparse(check.elts[2]).startswith("tols.") or ast.unparse(check.elts[2]) == "zero"

    def test_failure_is_booked_to_its_state(self, monkeypatch):
        def run(stack_size):
            """The audit of 20 states with row 5 of the first stack's sum lambda_i^2 off by 3e-9."""
            stacks = []

            def rows(lam):
                stacks.append(len(lam))
                return 5 if len(stacks) == 1 else slice(0)

            monkeypatch.setattr(audit, "concurrence", _lambda_fault(rows))
            monkeypatch.setattr(audit, "STACK_SIZE", stack_size)
            return audit.run_audit(20, 42), stacks

        (counts, failures), stacks = run(audit.STACK_SIZE)
        assert stacks == [20]
        assert len(failures) == 1
        assert failures[0].startswith("state 5 (seed 42) failed spin-flip-trace: random mixed product: ")
        assert [prop for prop, (_, failed) in counts.items() if failed] == ["spin-flip-trace"]
        assert counts["spin-flip-trace"] == [20, 1]
        assert run(7) == ((counts, failures), [7, 7, 6])

    def test_eigensolver_calls_do_not_grow_with_the_state_count(self, monkeypatch):
        calls = _count_eigensolver_calls(monkeypatch)
        audit.run_audit(15, 42)
        small = sorted(calls)
        calls.clear()
        audit.run_audit(150, 42)
        assert small.count("eigh") > 0 and small.count("eigvalsh") > 0 and small.count("svd") > 0
        assert sorted(calls) == small

    def test_a_stack_makes_two_eigh_three_eigvalsh_and_one_svd_call(self, monkeypatch):
        """``eigh`` on the states and on the four derived matrices per state; ``eigvalsh`` on the
        states' marginals, on the product's and rho_d's marginals and on the complex partial
        transposes; ``svd`` on the three complex spin-flip tau per state."""
        kinds = {audit._label(i) for i in range(15)}
        assert kinds == {"fixed pure product |10>", "haar pure", "random mixed product"} | {
            f"random mixed rank {rank}" for rank in range(1, 5)
        }
        calls = _count_eigensolver_calls(monkeypatch)
        audit._check_stack(range(15), 42, TOLS)
        assert sorted(calls) == ["eigh"] * 2 + ["eigvalsh"] * 3 + ["svd"]

    def test_failure_in_a_grouped_stack_is_booked_to_its_state(self, monkeypatch):
        """State 5's rotation fails the trace check inside the stack of four derived matrices per state:
        the error names state 5, not flat row 5 * 4 + 2 = 22."""
        haar = audit._haar_unitaries

        def scaled(z):
            units = haar(z)
            units[5] *= 1.0 + 1e-6
            return units

        monkeypatch.setattr(audit, "_haar_unitaries", scaled)
        with pytest.raises(ValueError) as err:
            audit.run_audit(20, 42)
        message = str(err.value)
        assert message.startswith("audit seed 42, states range(0, 20) (state k is the k-th of them): trace check")
        assert "state 5: trace" in message
        assert "state 22" not in message


class TestDraw:
    """The audit's seeding rule: state i of seed s is row i % 256 of ``default_rng((s, i // 256))``'s draw."""

    @pytest.mark.parametrize("seed", [42, 7])
    def test_kind_and_rank_follow_the_index(self, seed):
        """Index 0 is |10><10|; otherwise i % 3 == 1 is pure, i % 3 == 2 a product of full-rank marginals,
        and i % 3 == 0 a state of rank (i // 3 - 1) % 4 + 1, read from the spectrum and the marginals."""
        m = audit._states(range(1000), seed)[0]
        index = np.arange(1000)
        kind = index % 3
        rank = np.count_nonzero(np.linalg.eigvalsh(m) > TOLS.support_cutoff, axis=1)
        want = np.select((kind == 1, kind == 2), (1, 4), (index // 3 - 1) % 4 + 1)
        assert np.array_equal(m[0], np.diag([0, 1, 0, 0]).astype(complex))
        assert np.array_equal(rank[1:], want[1:])
        r = m.reshape(-1, 2, 2, 2, 2)
        product = np.einsum("nij,nkl->nikjl", np.trace(r, axis1=2, axis2=4), np.trace(r, axis1=1, axis2=3))
        off = np.abs(m - product.reshape(-1, 4, 4)).max(axis=(1, 2))
        assert off[kind == 2].max() <= 1e-12
        assert off[(kind != 2) & (index > 0)].min() > 1e-3

    def test_pure_rows_are_haar(self):
        """The mean of |<11|psi>|^2 over the ~10,000 pure rows of 30,000 states is 1/4 within 0.01,
        five standard errors of its Beta(1, 3) distribution."""
        index = np.arange(30000)
        amps = audit._states(range(30000), 42)[1][index % 3 == 1]
        assert abs(np.mean(np.abs(amps[:, 0]) ** 2) - 0.25) <= 0.01

    @pytest.mark.parametrize("seed", [0, 42])
    def test_a_stack_draws_the_rows_of_its_blocks(self, seed):
        """States 250..269 straddle blocks 0 and 1: their draw is rows 250..269 of the two blocks' draws."""
        whole = np.concatenate((audit._draw(range(0, 256), seed), audit._draw(range(256, 512), seed)))
        assert np.array_equal(audit._draw(range(250, 270), seed), whole[250:270])


def _lambda_fault(rows):
    """``concurrence`` for the audit, with a fault on its lambdas: in the states ``rows(lam)`` picks,
    lambda_1 and lambda_2 of every family grow by the t that adds 3e-9 to sum lambda_i^2.
    lambda_1 - lambda_2 - lambda_3 - lambda_4 and the order are unchanged, so every concurrence
    stays as it was and only spin-flip-trace sees the fault."""
    added = 3e-9

    def faulty(values, vectors, *, tols):
        lam = concurrence(values, vectors, tols=tols).copy()
        picked = rows(lam)
        s = lam[picked, ..., :2].sum(axis=-1, keepdims=True)
        # 2 t s + 2 t^2 = added, the root without cancellation
        lam[picked, ..., :2] += added / (s + np.sqrt(s * s + 2.0 * added))
        return lam

    return faulty


def _count_eigensolver_calls(monkeypatch) -> list[str]:
    """The names of the ``np.linalg.eigh``, ``eigvalsh`` and ``svd`` calls made from here on, in order."""
    calls = []

    def counted(solver):
        def call(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


class TestJointConditionalProbability:
    def test_round_off_on_a_tiny_marginal_value_passes(self, monkeypatch):
        # A Haar-pure state with p = 2.1e-7 on both sides: state 65284 of seed 0 as the audit drew it
        # one state at a time.  Against side A's marginal eigenvalues, P(alpha, beta) - p is 2.2e-16,
        # which the ratio P / p inflates to 1 + 2.8e-10, beyond 1 + tols.hermiticity.
        amps = random_pure(np.random.default_rng((0, 65284)))
        rho = pure_density(amps)
        m = rho.matrix[None]
        joint = decohere_stack(m, rho.eigenvectors[None]).joint
        given_a = marginal_stack(m)[1][:, 0, :, None]
        assert (joint / given_a).max() > 1.0 + TOLS.hermiticity
        assert (joint - given_a).max() <= TOLS.hermiticity
        # The audit's checks on these amplitudes: a pure row keeps column 0 of its 4x4 Gaussian factor
        # (entries 0, 4, 8 and 12 of its row), and identity Gaussians give its local unitaries.
        row = np.zeros((1, 24), dtype=complex)
        row[0, 0:16:4] = amps
        row[0, 16:] = np.tile(np.eye(2).ravel(), 2)
        monkeypatch.setattr(audit, "_draw", lambda indices, seed: row)
        checked, failures = audit._check_stack(range(65284, 65285), 0, TOLS)
        assert audit._label(65284) == "haar pure"
        assert checked["joint-conditional-probability"] == 1
        assert failures == []

    def test_genuine_excess_fails(self, monkeypatch):
        real = audit.decohere_stack

        def excess_joint(m, vectors, *, tols):
            # The idempotence pass reads only the decohered matrices, so its joint may change too.
            dec = real(m, vectors, tols=tols)
            joint = dec.joint.copy()
            joint[3, 0, 0] = 1.01 * marginal_stack(m[3:4])[1][0, 1, 0]  # P(0, 0) = 1.01 p_beta=0 for state 3
            return dec._replace(joint=joint)

        monkeypatch.setattr(audit, "decohere_stack", excess_joint)
        counts, failures = audit.run_audit(12, 42)
        assert counts["joint-conditional-probability"] == [12, 1]
        lines = [line for line in failures if "joint-conditional-probability" in line]
        assert lines == [
            "state 3 (seed 42) failed joint-conditional-probability: "
            "random mixed rank 1: excess=8.407e-03 > 1e-10 -P_min=0.000e+00"
        ]


class TestClassify:
    def test_registry_state(self, capsys):
        code, out, err = _run(capsys, "classify", "E1")
        assert code == 0, err
        assert json.loads(out)["concurrence"] == pytest.approx(2.0 / 3.0, abs=1e-11)

    @pytest.mark.parametrize(
        "name, concurrence, verdict",
        [
            ("iso:S", 0.0, "separable (concurrence = 0)"),
            # (3p - 1) / 2 at p = 1 - 4e-7 is 1 - 6e-7: lambda_2..4 = 1e-7 count.
            ("werner:0.9999996", 0.9999994, "entangled (concurrence = 0.999999)"),
            # p = 1 - 1e-7: lambda_2..4 = 2.5e-8 count, though their squares, 6.25e-16, are round-off size.
            ("werner:0.9999999", 0.99999985, "entangled (concurrence = 1)"),
        ],
    )
    def test_concurrence_is_its_closed_form(self, capsys, name, concurrence, verdict):
        code, out, err = _run(capsys, "classify", name)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["concurrence"] == concurrence
        assert payload["verdicts"][0] == verdict

    @pytest.mark.parametrize(
        "name, fallback, ratio",
        [
            ("werner:0.3", [True, True], 0.95),  # marginals I/2: (1 + 3p)/4 over 1/2, both frames computational
            ("E1", [False, False], 5.0),  # the eigenvalue 5/6 over the marginal eigenvalue 1/6
        ],
    )
    def test_reports_frame_fallback_and_worst_eigen_ratio(self, capsys, name, fallback, ratio):
        code, out, err = _run(capsys, "classify", name)
        assert code == 0, err
        payload = json.loads(out)
        assert list(payload) == [
            "concurrence", "entropy_diff_a", "entropy_diff_b", "mutual", "deficit", "ppt_min_eig",
            "conditional_prob_defined", "commutes_with_marginals", "frame_fallback", "worst_eigen_ratio", "verdicts",
        ]
        assert payload["frame_fallback"] == fallback
        assert payload["worst_eigen_ratio"] == pytest.approx(ratio, abs=1e-11)
        assert payload["conditional_prob_defined"] is (ratio <= 1.0 + TOLS.hermiticity)

    def test_unnormalized_pure_state_fails_the_trace_check(self, capsys):
        code, out, err = _run(capsys, "classify", "pure:1,0.5,0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: trace check failed (magnitude 0.25)")

    def test_nan_pure_state_fails_the_finite_check(self, capsys):
        code, _, err = _run(capsys, "classify", "pure:nan,0,0,0")
        assert code == 2
        assert err.startswith("error: finite check failed")

    def test_unknown_state_is_input_error(self, capsys):
        code, _, err = _run(capsys, "classify", "nosuch")
        assert code == 2
        assert err.startswith("error:")

    def test_nan_json_file_is_input_error(self, capsys, tmp_path):
        m = np.eye(4) / 4
        m[0, 0] = np.nan
        path = tmp_path / "nan_state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_json(m)}))
        assert "NaN" in path.read_text()
        code, _, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert "finite check failed" in err

    @pytest.mark.parametrize("dims", [4, [2], [2, 2, 1], [2.9, 2]])
    def test_malformed_dims_json_file_is_input_error(self, capsys, tmp_path, dims):
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix_json(np.eye(4) / 4)}))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'dims' must be a list of two integers")

    @pytest.mark.parametrize("dims", [[1, 4], [4, 1], [2, 1]])
    def test_dims_other_than_the_shapes_is_input_error(self, capsys, tmp_path, dims):
        path = tmp_path / "other_dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix_json(np.eye(4) / 4)}))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: dims check failed")

    def test_qubit_json_file_fails_dims_at_the_entry(self, capsys, tmp_path):
        """A valid 2x2 state with dims [2, 1] fails the reader's ``dims`` comparison, ahead of any kernel."""
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps({"dims": [2, 1], "matrix": matrix_json(np.eye(2) / 2)}))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: dims check failed (magnitude 0): dims [2, 1] inconsistent with a matrix of dims (2, 2)\n"

    def test_integer_beyond_the_float_range_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge_entry.json"
        path.write_text('{"matrix": [[[1%s, 0], [0, 0]], [[0, 0], [0, 0]]]}' % ("0" * 400))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix entry")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"matrix": [[[1, 0]], [[0, 0], [1, 0]]]}, "error: matrix payload has rows of unequal length"),
            (5, "error: matrix payload must be nested arrays of [re, im] pairs"),
            ([], "error: matrix payload must be two-dimensional"),
        ],        ids=["ragged", "number", "empty"],
    )
    def test_matrix_that_is_not_a_table_of_entries_is_input_error(self, capsys, tmp_path, payload, message):
        path = tmp_path / "bad_matrix.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("entry", [{"a": 1, "b": 2}, [True, False]])
    def test_entry_that_is_not_a_pair_of_numbers_is_input_error(self, capsys, tmp_path, entry):
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps({"matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]}))
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix entry")


def _werner_closed_row(p: float) -> tuple:
    ln2 = np.log(2.0)
    s = _werner_entropy(p)
    probs = np.array([(1 + p) / 4] * 2 + [(1 - p) / 4] * 2)
    probs = probs[probs > 0]
    s_d = float(-np.sum(probs * np.log(probs)))
    return (p, max(0.0, (3 * p - 1) / 2), (2 * ln2 - s) / ln2, (s_d - s) / ln2, s - ln2, (1 - 3 * p) / 4)


@pytest.fixture(scope="module")
def fine_grid_rows():
    """The 10,001 rows of ``werner-sweep --step 1e-4`` and the same rows built one state at a time."""
    rows = cli.werner_sweep_rows(0.0, 1.0, 1e-4)
    single = []
    for p, *_ in rows:
        r = classify(werner(p))
        single.append((p, r.concurrence, r.mutual / cli.LN2, r.deficit / cli.LN2, r.entropy_diff_a, r.ppt_min_eig))
    return rows, single


class TestWernerSweepChunks:
    """The sweep classifies its grid WERNER_CHUNK rows at a time; no boundary changes a row."""

    def test_fine_grid_matches_single_state_rows(self, fine_grid_rows):
        rows, single = fine_grid_rows
        assert len(rows) == 10_001
        assert rows == single

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_grid_around_one_chunk(self, fine_grid_rows, offset):
        n = cli.WERNER_CHUNK + offset
        _, single = fine_grid_rows
        rows = cli.werner_sweep_rows(0.0, (n - 1) * 1e-4, 1e-4)
        assert len(rows) == n
        assert rows == single[:n]

    def test_fine_grid_concurrence_to_round_off(self, fine_grid_rows):
        rows, _ = fine_grid_rows
        worst = max(abs(conc - max(0.0, (3 * p - 1) / 2)) for p, conc, *_ in rows)
        assert worst <= 1e-14

    def test_fine_grid_matches_closed_forms(self, fine_grid_rows):
        rows, _ = fine_grid_rows
        worst = max(abs(got - want) for row in rows for got, want in zip(row, _werner_closed_row(row[0])))
        assert worst <= 1e-14
