"""Command-line interface: reports, files, exit codes, determinism."""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dee.cli import main
from dee.sparse import format_matrix, parse_matrix

from conftest import random_sparse_matrix

TRIANGLE = "3 3\n0 1 1.0\n0 2 1.0\n1 2 1.0\n"
TRIANGLE_GRAPH = "3 3\n0 1\n0 2\n1 2\n"
SQUARE_GRAPH = "4 4\n0 1\n1 2\n2 3\n0 3\n"
TOFFOLI_CIRCUIT = "QUBITS 3\nH 1\nH 2\nTOFF 1 2 0\n"


def report_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.mat"
    path.write_text(TRIANGLE)
    return str(path)


class TestEstimate:
    def test_diagonal_run(self, triangle_file, capsys):
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
            "--g", "1.0", "--epsilon", "0.25", "--seed", "3",
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["command"] == "estimate"
        assert report["exact"] == "2.0"
        assert report["decision"] == "AboveG"
        assert report["within_tolerance"] == "True"
        assert report["promise_holds"] == "True"
        assert abs(float(report["estimate"]) - 2.0) <= 0.25 * 4.0

    def test_report_file_matches_stdout(self, triangle_file, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
            "--epsilon", "0.5", "--report", str(report_path),
        ])
        assert rc == 0
        assert report_path.read_text() == capsys.readouterr().out

    def test_same_seed_is_byte_identical(self, triangle_file, capsys):
        argv = [
            "estimate", "--matrix", triangle_file, "--j", "1", "--m", "3",
            "--epsilon", "0.5", "--seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_worker_count_is_byte_invariant(self, triangle_file, tmp_path, capsys):
        # the triangle samples its full spectrum; 300 rows sample the Lanczos rule
        big_file = tmp_path / "big.mat"
        big_file.write_text(format_matrix(random_sparse_matrix(np.random.default_rng(300), 300)))
        for path in (triangle_file, str(big_file)):
            base = [
                "estimate", "--matrix", path, "--j", "0", "--m", "2",
                "--epsilon", "0.5", "--seed", "5",
            ]
            reports = []
            for workers in ("1", "2", "4"):
                assert main(base + ["--workers", workers]) == 0
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1] == reports[2]

    def test_samples_csv_row_count(self, triangle_file, tmp_path, capsys):
        csv_path = tmp_path / "shots.csv"
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "1",
            "--epsilon", "0.9", "--fail-prob", "0.2", "--samples-csv", str(csv_path),
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "a,z,zm"
        assert len(lines) == int(report["k"]) + 1
        for line in lines[1:]:
            a_text, z_text, zm_text = line.split(",")
            assert a_text == str(int(a_text))
            z = float(z_text)
            zm = float(zm_text)
            assert repr(z) == z_text
            assert repr(zm) == zm_text
            assert zm == z ** 1

    def test_offdiagonal_entry(self, triangle_file, capsys):
        rc = main([
            "estimate", "--matrix", triangle_file, "--i", "0", "--j", "1",
            "--m", "2", "--epsilon", "0.5", "--seed", "2",
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["i"] == "0"
        assert report["exact"] == "1.0"
        assert "decision" not in report
        assert abs(float(report["estimate"]) - 1.0) <= 0.5 * 4.0

    def test_samples_csv_rejected_for_offdiagonal(self, triangle_file, tmp_path, capsys):
        rc = main([
            "estimate", "--matrix", triangle_file, "--i", "0", "--j", "1",
            "--m", "2", "--epsilon", "0.5", "--samples-csv", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_threshold_out_of_range(self, triangle_file, capsys):
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
            "--g", "9.0", "--epsilon", "0.5",
        ])
        assert rc == 1
        assert "outside" in capsys.readouterr().err

    def test_unopenable_samples_csv_leaves_no_report(self, triangle_file, tmp_path, capsys):
        report_path = tmp_path / "rep.txt"
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2", "--epsilon", "0.5",
            "--report", str(report_path), "--samples-csv", str(tmp_path / "nonexistent" / "s.csv"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert not report_path.exists()

    def test_one_file_for_two_outputs_refused(self, triangle_file, tmp_path, capsys):
        path = tmp_path / "both.txt"
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2", "--epsilon", "0.5",
            "--report", str(path), "--samples-csv", str(path),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one file is named for two outputs" in captured.err
        assert not path.exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main([
            "estimate", "--matrix", str(tmp_path / "nope.mat"), "--j", "0",
            "--m", "1", "--epsilon", "0.5",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_statevector_budget_exceeded(self, triangle_file, capsys):
        rc = main([
            "estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
            "--epsilon", "0.25", "--backend", "statevector", "--max-qubits", "4",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_register_past_int64_refused(self, tmp_path, capsys, monkeypatch):
        # m = 2^27 at eps = 1 needs p = 66; the run stops before the exact
        # oracle would take 2^27 matvecs
        path = tmp_path / "half.mat"
        path.write_text("2 1\n0 1 0.5\n")
        oracle_calls = []
        monkeypatch.setattr("dee.cli.power_diag_exact", lambda *a: oracle_calls.append(a))
        rc = main([
            "estimate", "--matrix", str(path), "--j", "0", "--m", "134217728",
            "--b", "1.0", "--epsilon", "1.0",
        ])
        assert rc == 1
        assert "p <= 62" in capsys.readouterr().err
        assert oracle_calls == []

    def test_exact_oracle_skipped_above_max_m(self, tmp_path, capsys, monkeypatch):
        # m = 44,739,242 at eps = 1 needs p = 62, which the sampler accepts;
        # the report then leaves out the oracle rather than run m matvecs
        path = tmp_path / "half.mat"
        path.write_text("2 1\n0 1 0.5\n")
        oracle_calls = []
        monkeypatch.setattr("dee.cli.power_diag_exact", lambda *a: oracle_calls.append(a))
        rc = main([
            "estimate", "--matrix", str(path), "--j", "0", "--m", "44739242",
            "--b", "1.0", "--epsilon", "1.0",
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["p"] == "62"
        assert oracle_calls == []
        assert not {"exact", "within_tolerance", "promise_holds"} & set(report)

    @pytest.mark.parametrize("rows, m, reported", [
        (300, 2, True),  # 300 rows, but the oracle's 2 matvecs run on the few that j reaches
        (0, 44739242, False),  # no stored entry: each matvec is still counted as one slot pass
    ])
    def test_exact_oracle_gated_by_its_work(self, rows, m, reported, tmp_path, capsys):
        path = tmp_path / "a.mat"
        text = format_matrix(random_sparse_matrix(np.random.default_rng(300), rows)) if rows else "2 0\n"
        path.write_text(text)
        rc = main([
            "estimate", "--matrix", str(path), "--j", "0", "--m", str(m), "--epsilon", "1.0",
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        oracle_lines = {"exact", "within_tolerance", "promise_holds"}
        assert oracle_lines & set(report) == (oracle_lines if reported else set())

    def test_offdiagonal_power_overflow_refused_before_sampling(self, triangle_file, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("dee.cli.estimate_offdiag", lambda *a, **k: calls.append(a))
        rc = main([
            "estimate", "--matrix", triangle_file, "--i", "0", "--j", "1",
            "--m", "1100", "--epsilon", "0.5",
        ])
        assert rc == 1
        assert "error: b^m = 2.0^1100 overflows the float range" in capsys.readouterr().err
        assert calls == []


class TestSizeLimits:
    """Oversized inputs exit 1 naming the limit before anything that size is
    allocated; the limits are lowered so the inputs stay small."""

    def test_dense_sampler_limit(self, triangle_file, capsys, monkeypatch):
        # e_0 reaches all 3 rows, K = 32 >= 3: the dense 3 x 3 matrix has 9 > 2^2 entries
        monkeypatch.setattr("dee.qpe.MAX_DENSE_DIM", 2)
        monkeypatch.setattr("dee.sparse.SparseSymmetricMatrix.to_dense", None)
        rc = main(["estimate", "--matrix", triangle_file, "--j", "0", "--m", "2", "--epsilon", "0.5"])
        assert rc == 1
        assert "error: the sampler's 3 x 3 array exceeds 2^2 entries" in capsys.readouterr().err

    def test_statevector_limit(self, tmp_path, capsys, monkeypatch):
        """The statevector backend refuses N > 4,096 (its qubit budget caps N
        at 1,024) before forming the N x N matrix; the analytic backend runs
        on the one row e_0 reaches."""
        n = 4097
        path = tmp_path / "diagonal.mat"
        path.write_text(f"{n} {n}\n" + "".join(f"{i} {i} 0.5\n" for i in range(n)))
        argv = ["estimate", "--matrix", str(path), "--j", "0", "--m", "2", "--epsilon", "0.5", "--backend"]
        monkeypatch.setattr("dee.sparse.SparseSymmetricMatrix.to_dense", None)
        assert main(argv + ["statevector"]) == 1
        err = capsys.readouterr().err
        assert "error: statevector backend needs p + ceil(log2 N) = 16 + 13 qubits, over the cap 22" in err
        monkeypatch.undo()
        assert main(argv + ["analytic"]) == 0
        assert report_dict(capsys.readouterr().out)["n"] == "4097"

    def test_matrix_header_limit(self, triangle_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dee.sparse.MAX_DIM", 2)
        graph = tmp_path / "triangle.graph"
        graph.write_text(TRIANGLE_GRAPH)
        for argv in (["exact", "--matrix", triangle_file], ["paths", "--graph", str(graph)]):
            assert main(argv + ["--j", "0", "--m", "2"]) == 1
            assert "error: dimension 3 exceeds the limit N <= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("qubits, size", [(2, "1 * 2^2"), (5, "1 * 2^5")])
    def test_clock_limit(self, qubits, size, tmp_path, capsys, monkeypatch):
        # 2^5 rows are refused from the qubit count alone, without the shift
        monkeypatch.setattr("dee.sparse.MAX_DIM", 3)
        circ = tmp_path / "empty.circ"
        circ.write_text(f"QUBITS {qubits}\n")
        rc = main(["reduce", "--circuit", str(circ), "--input", "0",
                   "--out-matrix", str(tmp_path / "o.mat"), "--out-meta", str(tmp_path / "o.meta")])
        assert rc == 1
        assert f"error: dimension {size} exceeds the limit N <= 3" in capsys.readouterr().err
        assert not (tmp_path / "o.mat").exists()

    def test_qubit_cap_limit(self, triangle_file, capsys, monkeypatch):
        monkeypatch.setattr("dee.qpe.MAX_STATEVECTOR_QUBITS", 4)
        argv = ["estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
                "--epsilon", "0.25", "--backend", "statevector", "--max-qubits"]
        assert main(argv + ["5"]) == 1
        assert "error: max_qubits must lie in 1..4, got 5" in capsys.readouterr().err
        assert main(argv + ["4"]) == 1  # a cap within range reaches the budget check
        assert "over the cap 4" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_qubit_cap_checked_under_either_backend(self, backend, triangle_file, capsys):
        rc = main(["estimate", "--matrix", triangle_file, "--j", "0", "--m", "2", "--epsilon", "0.5",
                   "--backend", backend, "--max-qubits", "99"])
        assert rc == 1
        assert "error: max_qubits must lie in 1..22, got 99" in capsys.readouterr().err


class TestExact:
    def test_diagonal_value(self, triangle_file, capsys):
        rc = main(["exact", "--matrix", triangle_file, "--j", "0", "--m", "3"])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["value"] == "2.0"

    def test_offdiagonal_value(self, triangle_file, capsys):
        rc = main(["exact", "--matrix", triangle_file, "--i", "0", "--j", "1", "--m", "3"])
        assert rc == 0
        assert report_dict(capsys.readouterr().out)["value"] == "3.0"

    def test_wall_time_on_stderr(self, triangle_file, capsys):
        assert main(["exact", "--matrix", triangle_file, "--j", "0", "--m", "3"]) == 0
        assert "wall_time_s: " in capsys.readouterr().err

    def test_value_outside_float_range_refused(self, triangle_file, capsys):
        rc = main(["exact", "--matrix", triangle_file, "--j", "0", "--m", "1100"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "is outside the float range" in captured.err


class TestReduce:
    def test_clock_reduction(self, tmp_path, capsys):
        circ = tmp_path / "toff.circ"
        circ.write_text(TOFFOLI_CIRCUIT)
        out_matrix = tmp_path / "obs.mat"
        out_meta = tmp_path / "obs.meta"
        rc = main([
            "reduce", "--circuit", str(circ), "--input", "000",
            "--out-matrix", str(out_matrix), "--out-meta", str(out_meta),
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["n_positions"] == "7"
        assert report["m"] == "343"
        assert float(report["alpha1_sq"]) == pytest.approx(0.25, abs=1e-12)
        assert report["e0_exceeds_floor"] == "True"
        assert report["promise_holds"] == "True"
        assert report["verdict"] == "reject"
        assert out_meta.read_text() == "\n".join(
            f"{k}: {v}" for k, v in report.items()
        ) + "\n"
        matrix = parse_matrix(out_matrix.read_text())
        assert matrix.dim == int(report["n"])
        assert matrix.max_row_nnz <= 4

    def test_integer_reduction(self, tmp_path, capsys):
        circ = tmp_path / "toff.circ"
        circ.write_text(TOFFOLI_CIRCUIT)
        out_matrix = tmp_path / "obs_int.mat"
        out_meta = tmp_path / "obs_int.meta"
        rc = main([
            "reduce", "--circuit", str(circ), "--input", "000", "--integer",
            "--out-matrix", str(out_matrix), "--out-meta", str(out_meta),
        ])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["n_positions"] == "6"
        assert report["m"] == "216"
        assert "e0_exceeds_floor" not in report
        assert report["promise_holds"] == "True"
        # every stored entry is formatted as a bare signed unit
        for line in out_matrix.read_text().strip().splitlines()[1:]:
            value = line.split()[2]
            assert value in ("1", "-1")

    def reduce_text(self, text, tmp_path):
        circ = tmp_path / "c.circ"
        circ.write_bytes(text.encode())
        return main(["reduce", "--circuit", str(circ), "--input", "000",
                     "--out-matrix", str(tmp_path / "o.mat"), "--out-meta", str(tmp_path / "o.meta")])

    @pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028", "\r"])
    def test_odd_line_break_refused_naming_the_line(self, brk, tmp_path, capsys):
        assert self.reduce_text(f"QUBITS 3\nH 1\nH 2{brk}TOFF 1 2 0\n", tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: line 3: line break other than \\n or \\r\\n" in captured.err

    def test_crlf_circuit_reduces_as_lf(self, tmp_path, capsys):
        assert self.reduce_text(TOFFOLI_CIRCUIT, tmp_path) == 0
        lf = capsys.readouterr().out
        assert self.reduce_text(TOFFOLI_CIRCUIT.replace("\n", "\r\n"), tmp_path) == 0
        assert capsys.readouterr().out == lf

    def test_unopenable_meta_leaves_no_matrix(self, tmp_path, capsys):
        circ = tmp_path / "toff.circ"
        circ.write_text(TOFFOLI_CIRCUIT)
        out_matrix = tmp_path / "obs.mat"
        rc = main([
            "reduce", "--circuit", str(circ), "--input", "000",
            "--out-matrix", str(out_matrix), "--out-meta", str(tmp_path / "nonexistent" / "x.meta"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert not out_matrix.exists()

    def test_failed_reduction_writes_nothing(self, tmp_path, capsys):
        circ = tmp_path / "rot.circ"
        circ.write_text("QUBITS 1\nROT 0 0.5\n")
        out_matrix = tmp_path / "never.mat"
        out_meta = tmp_path / "never.meta"
        rc = main([
            "reduce", "--circuit", str(circ), "--input", "0", "--integer",
            "--out-matrix", str(out_matrix), "--out-meta", str(out_meta),
        ])
        assert rc == 1
        assert not out_matrix.exists()
        assert not out_meta.exists()


class TestWorkersRefusal:
    """--workers changes no output, but a count below 1 is still an error."""

    def test_estimate(self, triangle_file, capsys):
        rc = main(["estimate", "--matrix", triangle_file, "--j", "0", "--m", "2",
                   "--epsilon", "0.5", "--workers", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: workers must be >= 1" in captured.err

    def test_paths(self, tmp_path, capsys):
        graph = tmp_path / "triangle.graph"
        graph.write_text(TRIANGLE_GRAPH)
        rc = main(["paths", "--graph", str(graph), "--j", "0", "--m", "3", "--workers", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: workers must be >= 1" in captured.err


class TestVerifyBounds:
    def test_small_battery_passes(self, capsys):
        rc = main(["verify-bounds", "--matrices", "2", "--trials", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("verify-bounds: PASS")

    @pytest.mark.parametrize("matrices, trials", [("0", "4"), ("2", "-3")])
    def test_empty_battery_refused(self, matrices, trials, capsys):
        """A battery with nothing in it would print PASS lines for 0.0."""
        rc = main(["verify-bounds", "--matrices", matrices, "--trials", trials])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"error: --matrices and --trials must be >= 1, got {matrices} and {trials}" in captured.err


class TestPaths:
    def test_triangle_walks(self, tmp_path, capsys):
        graph = tmp_path / "triangle.graph"
        graph.write_text(TRIANGLE_GRAPH)
        rc = main(["paths", "--graph", str(graph), "--j", "0", "--m", "3", "--seed", "1"])
        assert rc == 0
        report = report_dict(capsys.readouterr().out)
        assert report["closed_walks"] == "2"
        assert report["exact"] == "2.0"
        assert report["within_tolerance"] == "True"

    def test_bipartite_square_has_no_odd_walks(self, tmp_path, capsys):
        graph = tmp_path / "square.graph"
        graph.write_text(SQUARE_GRAPH)
        rc = main(["paths", "--graph", str(graph), "--j", "0", "--m", "3"])
        assert rc == 0
        assert report_dict(capsys.readouterr().out)["closed_walks"] == "0"

    def test_power_overflow_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "triangle.graph"
        graph.write_text(TRIANGLE_GRAPH)
        calls = []
        monkeypatch.setattr("dee.cli.sample_measurements", lambda *a, **k: calls.append(a))
        rc = main(["paths", "--graph", str(graph), "--j", "0", "--m", "1100", "--epsilon", "0.5"])
        assert rc == 1
        assert "error: b^m = 2.0^1100 overflows the float range" in capsys.readouterr().err
        assert calls == []


class TestPathsRefusesBeforeOracle:
    """paths checks --j, the sampler's limits and the oracle's work bound
    before the oracle's m matvecs."""

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr("dee.cli.power_diag_exact", lambda *a: calls.append(a) or 0.0)
        return calls

    def graph(self, tmp_path, text):
        path = tmp_path / "g.graph"
        path.write_text(text)
        return str(path)

    def test_dense_limit(self, tmp_path, capsys, monkeypatch, oracle_calls):
        monkeypatch.setattr("dee.qpe.MAX_DENSE_DIM", 2)
        rc = main(["paths", "--graph", self.graph(tmp_path, TRIANGLE_GRAPH), "--j", "0", "--m", "1000"])
        assert rc == 1
        assert "error: the sampler's 3 x 3 array exceeds 2^2 entries" in capsys.readouterr().err
        assert oracle_calls == []

    def test_register_past_int64(self, tmp_path, capsys, oracle_calls):
        # m = 2^27 at eps = 1 needs p = 66
        rc = main(["paths", "--graph", self.graph(tmp_path, "2 1\n0 1\n"), "--j", "0",
                   "--m", "134217728", "--epsilon", "1.0"])
        assert rc == 1
        assert "p <= 62" in capsys.readouterr().err
        assert oracle_calls == []

    def test_oracle_work_limit(self, tmp_path, capsys, oracle_calls):
        # 10^6 matvecs, one slot pass each over 2 rows: 10^6 * (2 + 500) > 10^8 row-slots
        rc = main(["paths", "--graph", self.graph(tmp_path, "2 1\n0 1\n"), "--j", "0", "--m", "1000000"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: the exact count needs over 100000000 row-slots of oracle work" in captured.err
        assert oracle_calls == []

    @pytest.mark.parametrize("j", [3, -1])
    def test_index_out_of_range(self, j, tmp_path, capsys, monkeypatch, oracle_calls):
        sampled = []
        monkeypatch.setattr("dee.cli.sample_measurements", lambda *a, **k: sampled.append(a))
        rc = main(["paths", "--graph", self.graph(tmp_path, TRIANGLE_GRAPH), "--j", str(j), "--m", "3"])
        assert rc == 1
        assert f"error: index {j} out of range for dimension 3" in capsys.readouterr().err
        assert sampled == [] and oracle_calls == []


class TestParser:
    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_command_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


GOLDEN_MATRIX = "4 5\n0 0 0.5\n0 1 -0.25\n1 2 0.75\n2 3 1.5\n3 3 -0.125\n"
ROT_CIRCUIT = "QUBITS 3\nH 1\nROT 2 0.7\nCNOT 2 1\nTOFF 1 2 0\n"


class TestGolden:
    """Pinned sha256 of stdout, plus the written matrix for `reduce`.

    Paths are relative to a fresh working directory, so the digests do not
    depend on where the test runs.
    """

    def digest(self, argv, capsys, written=None, check=None):
        import hashlib
        from pathlib import Path

        assert main(argv) == 0
        blob = capsys.readouterr().out
        if check:
            check(blob)
        if written:
            blob += Path(written).read_text()
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("circuit, integer, want", [
        pytest.param(TOFFOLI_CIRCUIT, False, "317dfb1a3cb7b1ad", id="toffoli"),
        pytest.param(TOFFOLI_CIRCUIT, True, "976a5d5c91665bfb", id="toffoli-integer"),
        pytest.param(ROT_CIRCUIT, False, "a69b8fca6350307d", id="rot"),
        # the M = 1 clock, the only one where entries of W and W^T meet
        pytest.param("QUBITS 3\n", False, "acdb4c8adc1bd1aa", id="one-position"),
        # M = 6, 24,576 rows, m = 216: the bench's largest reduce --integer size
        pytest.param("QUBITS 12\nH 0\nTOFF 0 1 2\nH 3\n", True, "e766104bfdee28c8", id="twelve-qubit-integer"),
    ])
    def test_reduce(self, circuit, integer, want, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.circ").write_text(circuit)
        argv = ["reduce", "--circuit", "c.circ", "--input", "000",
                "--out-matrix", "o.mat", "--out-meta", "o.meta"]
        got = self.digest(argv + ["--integer"] * integer, capsys, "o.mat")
        assert got == want

    @pytest.mark.parametrize("extra, want", [
        pytest.param([], "d77d1a24cb84105f", id="diagonal"),
        pytest.param(["--i", "3"], "ebe677861ebd6ba5", id="offdiagonal"),
    ])
    def test_exact(self, extra, want, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.mat").write_text(GOLDEN_MATRIX)
        got = self.digest(["exact", "--matrix", "g.mat", "--j", "1", "--m", "9"] + extra, capsys)
        assert got == want

    # sampled commands: the digests pin the sampler's draws and verify's sums
    # too, and each report is also checked against the exact value it claims
    @staticmethod
    def within_tolerance(out):
        report = report_dict(out)
        tol = float(report["epsilon"]) * float(report["b"]) ** int(report["m"])
        assert abs(float(report["estimate"]) - float(report["exact"])) <= tol

    @staticmethod
    def all_passed(out):
        assert out.splitlines()[-1] == "verify-bounds: PASS"

    @pytest.mark.parametrize("extra, want", [
        pytest.param([], "a031c052f0888804", id="diagonal"),
        pytest.param(["--i", "3"], "68170de5d86a4133", id="offdiagonal"),
        pytest.param(["--backend", "statevector"], "31637c6df38ab8a7", id="statevector"),
    ])
    def test_estimate(self, extra, want, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.mat").write_text(GOLDEN_MATRIX)
        argv = ["estimate", "--matrix", "g.mat", "--j", "1", "--m", "2", "--epsilon", "0.5",
                "--g", "0.1", "--seed", "7"]
        assert self.digest(argv + extra, capsys, check=self.within_tolerance) == want

    def test_estimate_at_p46(self, tmp_path, monkeypatch, capsys):
        """A 2-qubit, 6-gate circuit's reduction: clock length 13, so p = 46."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.circ").write_text("QUBITS 2\nROT 0 0.4\nCNOT 0 1\nH 1\nX 0\nZ 1\nROT 1 1.3\n")
        assert main(["reduce", "--circuit", "c.circ", "--input", "10",
                     "--out-matrix", "o.mat", "--out-meta", "o.meta"]) == 0
        meta = report_dict(capsys.readouterr().out)
        argv = ["estimate", "--matrix", "o.mat", "--b", "1.0", "--seed", "3"]
        argv += [arg for key in ("j", "m", "g", "epsilon") for arg in (f"--{key}", meta[key])]
        assert meta["m"] == "2197" and meta["epsilon"] == repr(1 / 52)  # p = 2 ceil(log2(48 m / eps)) = 46
        assert self.digest(argv, capsys, check=self.within_tolerance) == "d569c0a49baa4b7b"

    def test_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.graph").write_text(SQUARE_GRAPH)
        argv = ["paths", "--graph", "s.graph", "--j", "2", "--m", "4", "--seed", "5"]
        assert self.digest(argv, capsys, check=self.within_tolerance) == "e32978b04ac69750"

    def test_verify_bounds(self, capsys):
        argv = ["verify-bounds", "--matrices", "2", "--trials", "2"]
        assert self.digest(argv, capsys, check=self.all_passed) == "b4e66d549483c74a"


def hash_of(text, argv=("--j", "0", "--m", "1", "--epsilon", "1.0")):
    """The instance_hash `estimate` prints for a matrix file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.mat")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["estimate", "--matrix", path, *argv]) == 0
    return report_dict(out.getvalue())["instance_hash"]


@st.composite
def spelled_matrices(draw):
    """(canonical text, the same entries respelled, one value moved by an ulp)."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([1.0, -1.0, 2.0, 0.5]), st.floats(-4.0, 4.0)).filter(bool)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = [(min(i, j), max(i, j), v) for (i, j), v in draw(st.lists(
        st.tuples(pairs, value), min_size=1, max_size=8, unique_by=lambda e: frozenset(e[0])))]

    def text(entries, spell=repr, end="\n"):
        return end.join([f"{n} {len(entries)}"] + [f"{i} {j} {spell(v)}" for i, j, v in entries]) + end

    def respell(v):
        forms = [repr(v), f"{v:.17e}", f"{v:.25e}"]
        if v == int(v):
            forms += [f"{int(v)}", f"{v:.2f}", f"{int(v)}e0"]
        return draw(st.sampled_from(forms)) + draw(st.sampled_from(["", "  # note"]))

    shuffled = draw(st.permutations(entries))
    noisy = "# a comment\n\n" + text(shuffled, respell, draw(st.sampled_from(["\n", "\r\n"])))
    k = draw(st.integers(0, len(entries) - 1))
    i, j, v = entries[k]
    step = float(np.nextafter(v, draw(st.sampled_from([-np.inf, np.inf]))))
    moved = entries[:k] + [(i, j, step)] + entries[k + 1:]
    return text(entries), noisy, text(moved)


class TestInstanceHash:
    """instance_hash digests the parsed matrix and the run's fields, not the file's text."""

    def test_golden(self, tmp_path):
        records = np.array(
            [(0, 0, 0.5), (0, 1, -0.25), (1, 2, 0.75), (2, 3, 1.5), (3, 3, -0.125)],
            dtype=[("i", "<i8"), ("j", "<i8"), ("v", "<f8")],
        )
        # dim, the upper triangle by row then column, then |i|j|m|g|epsilon|b
        blob = np.array(4, dtype="<i8").tobytes() + records.tobytes() + b"|None|1|3|0.0|0.5|2.25"
        got = hash_of(GOLDEN_MATRIX, ("--j", "1", "--m", "3", "--epsilon", "0.5", "--seed", "0"))
        assert got == hashlib.sha256(blob).hexdigest()[:16] == "144aa9588e8abcf2"

    @settings(max_examples=100, deadline=None)
    @given(spelled_matrices())
    def test_spelling_does_not_count_but_an_ulp_does(self, texts):
        canonical, noisy, moved = texts
        assert hash_of(noisy) == hash_of(canonical)
        assert hash_of(moved) != hash_of(canonical)
