"""CLI surface: JSON schema, CSV tables, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from eprsim.cli import main

RT2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


class TestProbs:
    def test_json_schema_and_values(self, capsys):
        doc = run_json(capsys, "probs", "--theta", "60")
        assert doc["command"] == "probs"
        assert doc["inputs"] == {"theta": 60.0}
        assert doc["result"]["p"] == [[0.125, 0.375], [0.375, 0.125]]
        assert doc["result"]["marginal_1"] == [0.5, 0.5]
        assert doc["result"]["marginal_2"] == [0.5, 0.5]

    def test_aligned(self, capsys):
        doc = run_json(capsys, "probs", "--theta", "0")
        assert doc["result"]["p"] == [[0.0, 0.5], [0.5, 0.0]]

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--theta", "90", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header, two rows, marginal row
        assert lines[0].split(",")[0] == "sz_index\\sz_prime_index"
        assert lines[1].split(",")[1:3] == ["0.25", "0.25"]

    def test_bad_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["probs", "--theta", "not-a-number"])
        assert err.value.code == 2


class TestKmatrix:
    def test_entries_squared_match_probs(self, capsys):
        kdoc = run_json(capsys, "kmatrix", "--theta", "60")
        pdoc = run_json(capsys, "probs", "--theta", "60")
        for i in range(2):
            for j in range(2):
                entry = kdoc["result"]["k"][i][j]
                mod2 = entry["re"] ** 2 + entry["im"] ** 2
                assert mod2 == pytest.approx(pdoc["result"]["p"][i][j], abs=1e-11)

    def test_aligned_matches_coefficients(self, capsys):
        doc = run_json(capsys, "kmatrix", "--theta", "0")
        k = doc["result"]["k"]
        assert k[0][1]["re"] == pytest.approx(RT2, abs=1e-12)
        assert k[1][0]["re"] == pytest.approx(-RT2, abs=1e-12)
        assert k[0][0] == {"re": 0.0, "im": 0.0}

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "kmatrix", "--theta", "90", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sz_index,sz_prime_index,re,im"
        assert len(lines) == 5


class TestChsh:
    def test_optimal(self, capsys):
        doc = run_json(capsys, "chsh", "--optimal")
        assert doc["result"]["quantum_score"] == pytest.approx(
            -2.0 * math.sqrt(2.0), abs=1e-11
        )
        assert doc["result"]["violated"] is True
        assert doc["result"]["classical_bound"] == 2.0

    def test_explicit_degenerate(self, capsys):
        doc = run_json(
            capsys, "chsh", "--a", "0", "--ap", "0", "--b", "0", "--bp", "0"
        )
        assert doc["result"]["quantum_score"] == pytest.approx(-2.0, abs=1e-11)
        assert doc["result"]["violated"] is False

    def test_exit_zero_even_when_violated(self, capsys):
        code, _, _ = run_cli(capsys, "chsh", "--optimal")
        assert code == 0

    def test_missing_angles_rejected(self, capsys):
        code, _, err = run_cli(capsys, "chsh", "--a", "0", "--b", "45")
        assert code == 2
        assert "--ap" in err


class TestBranches:
    def test_convergence_rows(self, capsys):
        doc = run_json(
            capsys,
            "branches", "--n", "1000", "--theta", "90",
            "--epsilon", "0.1", "--pair", "0,0",
        )
        rows = doc["result"]["rows"]
        assert [r["n_pairs"] for r in rows] == [10, 100, 1000]
        weights = [r["deviation_weight"] for r in rows]
        assert weights[0] > weights[1] > weights[2]
        assert weights[2] < 0.01

    def test_small_n_fully_deviant(self, capsys):
        doc = run_json(
            capsys,
            "branches", "--n", "1", "--theta", "0",
            "--epsilon", "0.25", "--pair", "0,1",
        )
        rows = doc["result"]["rows"]
        assert rows == [{"n_pairs": 1, "deviation_weight": 1.0}]

    def test_four_pairs(self, capsys):
        doc = run_json(
            capsys,
            "branches", "--n", "4", "--theta", "0",
            "--epsilon", "0.25", "--pair", "0,1",
        )
        assert doc["result"]["rows"][-1]["deviation_weight"] == pytest.approx(
            0.125, abs=1e-12
        )

    def test_bad_pair_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "branches", "--n", "10", "--theta", "0",
            "--epsilon", "0.1", "--pair", "0:1",
        )
        assert code == 2
        assert "pair" in err

    def test_bad_epsilon_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "branches", "--n", "10", "--theta", "0",
            "--epsilon", "1.5", "--pair", "0,0",
        )
        assert code == 2

    def test_oversized_n_is_capacity_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "branches", "--n", str(10**15), "--theta", "90",
            "--epsilon", "0.1", "--pair", "0,0",
        )
        assert code == 2
        assert out == ""
        assert "window" in err and "exceeds the cap" in err


class TestNosignal:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "nosignal", "--trials", "5", "--seed", "1", "--dim", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        assert doc["result"]["max_deviation"] < 1e-10

    def test_dim_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "nosignal", "--trials", "1", "--seed", "1", "--dim", "4"
        )
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run_cli(
            capsys, "nosignal", "--trials", "3", "--seed", "9", "--dim", "3"
        )
        _, second, _ = run_cli(
            capsys, "nosignal", "--trials", "3", "--seed", "9", "--dim", "3"
        )
        assert first == second

    def test_dim_out_of_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "nosignal", "--trials", "1", "--seed", "1", "--dim", "9"
        )
        assert code == 2
        assert "dim" in err


class TestSample:
    def test_antidiagonal_only_at_zero_angle(self, capsys):
        doc = run_json(
            capsys,
            "sample", "--n", "10", "--trials", "1", "--seed", "3", "--theta", "0",
        )
        counts = doc["result"]["trials"][0]["counts"]
        assert counts[0][0] == 0
        assert counts[1][1] == 0
        assert counts[0][1] + counts[1][0] == 10

    def test_deterministic_output(self, capsys):
        args = ("sample", "--n", "20", "--trials", "2", "--seed", "5", "--theta", "45")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_one_row_per_trial(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "15", "--trials", "4", "--seed", "2",
            "--theta", "90", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,count_0_0,count_0_1,count_1_0,count_1_1"
        assert len(lines) == 5
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(t)
            assert sum(int(c) for c in cells[1:]) == 15


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eprsim.cli", "probs", "--theta", "60"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["p"] == [[0.125, 0.375], [0.375, 0.125]]

    def test_no_scipy_loaded(self):
        script = (
            "import eprsim, eprsim.cli, sys; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
