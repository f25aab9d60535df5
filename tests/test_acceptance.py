"""Acceptance battery: twelve end-to-end checks at fixed tolerances, plus
`reduce` at 12 qubits.

Each criterion test prints one `criterion NN <name>: PASS|FAIL` line
(bypassing capture so the line shows under plain `pytest -v`) and then
asserts.
"""

import math
import time

import numpy as np
import pytest

from dee.circuits import (
    Circuit,
    accept_probability,
    build_mirror_circuit,
    circuit_unitary,
    cnot,
    h,
    parse_circuit,
    rot,
    toffoli,
    x,
    z,
)
from dee.gateset import (
    OBSERVABLE_SCALE,
    fuse_uniform_scale,
    predicted_integer_diag,
    reduce_integer,
    rewrite_to_th,
)
from dee.hardness import (
    build_clock_operator,
    moment_separation,
    reduce,
    separation_floor,
    symmetric_overlap,
    verify_induced_measure,
)
from dee.qpe import (
    choose_params,
    estimate_from_outcomes,
    outcomes_to_z,
    perturbed_unitary,
    qpe_distribution_analytic,
    qpe_distribution_unitary,
    qpe_statevector,
    sample_measurements,
)
from dee.sparse import power_diag_exact
from dee.spectral import eig_sym, induced_measure, make_measure, moment
from dee.verify import phase_mass_check

from conftest import (
    TWELVE_QUBIT_10_GATES,
    TWELVE_QUBIT_6_GATES,
    TWELVE_QUBIT_INPUT,
    random_sparse_matrix,
    rotation_circuit,
    scale_matrix,
    total_variation,
)

import dee.cli as cli


def report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus():
    """Shared random corpus: 50 sparse symmetric matrices, N <= 64, s <= 8."""
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(50):
        n = int(rng.integers(1, 65))
        a = random_sparse_matrix(rng, n, max_row_nnz=8)
        j = int(rng.integers(0, n))
        m = int(rng.integers(1, 21))
        out.append((a, j, m))
    return out


def test_criterion_01_oracle_equivalence(corpus, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for a, j, m in corpus:
        want = float(np.linalg.matrix_power(a.to_dense(), m)[j, j])
        got = power_diag_exact(a, j, m)
        rel = abs(got - want) / max(abs(want), 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(capsys, 1, "oracle equivalence", ok)
    assert worst <= 1e-9, f"worst relative deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_moment_identity(corpus, capsys):
    worst = 0.0
    for a, j, m in corpus:
        normalized = scale_matrix(a, 1.0 / a.norm_bound)
        psi = np.zeros(a.dim)
        psi[j] = 1.0
        mu = induced_measure(eig_sym(normalized.to_dense()), psi)
        want = power_diag_exact(normalized, j, m)
        got = moment(mu, m)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-8
    report(capsys, 2, "moment identity", ok)
    assert ok, f"worst deviation {worst}"


def test_criterion_03_phase_mass_contract(capsys):
    check = phase_mass_check(n_matrices=20, seed=20260819)
    ok = check.passed
    report(capsys, 3, "phase mass contract", ok)
    assert ok, f"escaping mass ratio {check.measured} vs theta bound {check.bound}"


def test_criterion_04_backend_cross_validation(capsys, rng):
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 9))
        a = random_sparse_matrix(rng, n)
        dense = a.to_dense() / a.norm_bound
        psi = rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        p = int(rng.integers(2, 9))
        sv = qpe_statevector(dense, psi, p)
        an = qpe_distribution_analytic(induced_measure(eig_sym(dense), psi), p)
        worst = max(worst, total_variation(sv, an))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(capsys, 4, "backend cross-validation", ok)
    assert worst <= 1e-6, f"worst total variation {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_per_eigenstate_moment_bound(capsys, rng):
    params_by_m = {m: choose_params(m, 1.0, 0.05) for m in range(1, 9)}
    z_cache = {}
    worst_margin = 0.0
    violations = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = random_sparse_matrix(rng, n)
        lams = np.linalg.eigvalsh(a.to_dense() / a.norm_bound)
        dist_cache = {}
        for m, params in params_by_m.items():
            p = params.p
            if p not in z_cache:
                z_cache[p] = outcomes_to_z(np.arange(1 << p), p)
            bound = 2.0 * params.theta + 2.0 * math.pi * m * params.eta
            for lam in lams:
                key = (round(float(lam), 15), p)
                if key not in dist_cache:
                    dist_cache[key] = qpe_distribution_analytic(
                        make_measure([(float(lam), 1.0)]), p
                    )
                got = float(np.dot(dist_cache[key], z_cache[p] ** m))
                dev = abs(got - float(lam) ** m)
                worst_margin = max(worst_margin, dev / bound)
                if dev > bound:
                    violations.append((float(lam), m, dev, bound))
    ok = not violations
    report(capsys, 5, "per-eigenstate moment bound", ok)
    assert ok, f"violations {violations[:3]}, worst ratio {worst_margin}"


def test_criterion_06_end_to_end_estimator(capsys):
    rng = np.random.default_rng(606060)
    epsilon, fail_prob = 0.25, 0.01
    params_by_m = {m: choose_params(m, epsilon, fail_prob) for m in range(1, 7)}
    hits = 0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        a = random_sparse_matrix(rng, n)
        j = int(rng.integers(0, n))
        m = int(rng.integers(1, 7))
        b = a.norm_bound
        psi = np.zeros(n)
        psi[j] = 1.0
        params = params_by_m[m]
        outcomes = sample_measurements(a, b, psi, params, seed=(606060, trial))
        estimate = estimate_from_outcomes(outcomes, params, b)
        exact = power_diag_exact(a, j, m)
        if abs(estimate - exact) <= epsilon * b**m:
            hits += 1
    ok = hits >= 97
    report(capsys, 6, "end-to-end estimator", ok)
    assert ok, f"only {hits}/100 trials within tolerance"


def test_criterion_07_perturbation_propagation(capsys, rng):
    p = 8
    violations = []
    for delta in (1e-2, 1e-3, 1e-4):
        bound = 2.0 ** (p + 2) * delta
        for trial in range(20):
            n = int(rng.integers(2, 9))
            a = random_sparse_matrix(rng, n)
            dense = a.to_dense() / a.norm_bound
            decomp = eig_sym(dense)
            u = (decomp.eigenvectors * np.exp(1j * decomp.eigenvalues)) @ decomp.eigenvectors.T
            v = perturbed_unitary(dense, delta, seed=trial)
            psi = rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            pu = qpe_distribution_unitary(u, psi, p)
            pv = qpe_distribution_unitary(v, psi, p)
            zs = outcomes_to_z(np.arange(1 << p), p)
            for m in (1, 2, 3, 4):
                shift = abs(float(np.dot(pu - pv, zs**m)))
                if shift > bound:
                    violations.append((delta, trial, m, shift, bound))
    ok = not violations
    report(capsys, 7, "perturbation propagation", ok)
    assert ok, f"violations {violations[:3]}"


def test_criterion_08_overlap_identity(capsys, rng):
    cases = []
    for alpha in (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        angle = math.asin(math.sqrt(alpha))
        cases.append((Circuit(n_qubits=1, gates=(rot(0, angle),)), "0"))
    cases.append((Circuit(n_qubits=1, gates=(z(0),)), "0"))
    cases.append((Circuit(n_qubits=1, gates=(x(0),)), "0"))
    pool = [h(0), x(1), z(0), cnot(1, 0), toffoli(0, 1, 2), h(2), rot(2, 0.9)]
    for _ in range(5):
        length = int(rng.integers(1, 7))
        gates = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(length))
        xs = "".join(str(int(rng.integers(0, 2))) for _ in range(3))
        cases.append((Circuit(n_qubits=3, gates=gates), xs))
    worst = 0.0
    for y, xs in cases:
        clock = build_clock_operator(build_mirror_circuit(y))
        total = symmetric_overlap(clock, xs) + accept_probability(y, xs, 0)
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10 and len(cases) >= 10
    report(capsys, 8, "overlap identity", ok)
    assert ok, f"worst deviation {worst} over {len(cases)} circuits"


def test_criterion_09_measure_equality(capsys):
    checked = 0
    for n_positions in (3, 5, 7, 9):
        n_gates = (n_positions - 1) // 2
        y = rotation_circuit(0.3, n_gates)
        xs = "00"
        clock = build_clock_operator(build_mirror_circuit(y))
        assert clock.n_positions == n_positions
        verify_induced_measure(clock, xs, tol=1e-8)
        checked += 1
    # at reduction scale: the 86,016-row clock, eigensolved on e_j's component
    clock = build_clock_operator(build_mirror_circuit(parse_circuit(TWELVE_QUBIT_10_GATES)))
    assert (clock.n_positions, clock.dim) == (21, 86_016)
    verify_induced_measure(clock, TWELVE_QUBIT_INPUT, tol=1e-8)
    checked += 1
    ok = checked == 5
    report(capsys, 9, "measure equality", ok)
    assert ok


def test_criterion_10_moment_formula_and_reflection(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    floors_ok = True
    signs_ok = True
    for n_positions in (7, 9, 11):
        power = n_positions**3
        e0, e1 = moment_separation(n_positions, power)
        floors_ok = floors_ok and e0 > separation_floor(n_positions)
        assert e1 == pytest.approx(-e0, abs=1e-14)
        n_gates = (n_positions - 1) // 2
        for alpha in (1.0 / 3.0, 2.0 / 3.0):
            inst = reduce(rotation_circuit(alpha, n_gates), "00")
            assert inst.n_positions == n_positions
            exact = power_diag_exact(inst.dee.matrix, inst.dee.j, inst.dee.m)
            want = (1.0 - 2.0 * inst.alpha1_sq) * e0
            worst = max(worst, abs(exact - want))
            eps = 1.0 / (4.0 * n_positions)
            if alpha < 0.5:
                signs_ok = signs_ok and exact >= eps
            else:
                signs_ok = signs_ok and exact <= -eps
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and floors_ok and signs_ok and elapsed < 60.0
    report(capsys, 10, "moment formula and reflection", ok)
    assert worst <= 1e-8, f"worst deviation {worst}"
    assert floors_ok and signs_ok
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_11_gate_set(capsys, rng):
    # integer observables from Toffoli+Hadamard circuits
    th_cases = [
        (Circuit(n_qubits=3, gates=(toffoli(0, 1, 2),)), "000", 0.0),
        (Circuit(n_qubits=3, gates=(h(1), h(2), toffoli(1, 2, 0))), "000", 0.25),
        (Circuit(n_qubits=3, gates=(h(1), h(2), toffoli(1, 2, 0), x(0))), "000", 0.75),
        (Circuit(n_qubits=1, gates=(x(0),)), "0", 1.0),
    ]
    entries_ok = True
    separation_ok = True
    for y, xs, alpha in th_cases:
        red = reduce_integer(y, xs)
        assert red.alpha1_sq == pytest.approx(alpha, abs=1e-12)
        for row in red.dee.matrix.rows:
            for _, val in row:
                entries_ok = entries_ok and val in (-1.0, 1.0)
        exact = power_diag_exact(red.dee.matrix, red.dee.j, red.dee.m)
        margin = red.dee.epsilon * red.dee.b**red.dee.m
        if alpha <= 1.0 / 3.0:
            separation_ok = separation_ok and exact >= red.dee.g + margin
        else:
            separation_ok = separation_ok and exact <= red.dee.g - margin
        # the thresholds separate acceptance 1/3 from 2/3 by construction
        s_m = OBSERVABLE_SCALE**red.dee.m
        v13 = predicted_integer_diag(red.n_positions, 1.0 / 3.0, red.dee.m)
        v23 = predicted_integer_diag(red.n_positions, 2.0 / 3.0, red.dee.m)
        separation_ok = separation_ok and v13 >= red.dee.g + red.dee.epsilon * s_m
        separation_ok = separation_ok and v23 <= red.dee.g - red.dee.epsilon * s_m
    # fused element products reproduce the original circuits
    fusion_worst = 0.0
    pool = [h(0), h(1), h(2), x(0), z(1), cnot(0, 2), toffoli(0, 1, 2), x(2)]
    for _ in range(10):
        length = int(rng.integers(1, 9))
        picks = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(length))
        c = Circuit(n_qubits=3, gates=picks)
        elements = fuse_uniform_scale(rewrite_to_th(c))
        fused_c = Circuit(n_qubits=3, gates=tuple(e.as_fused_gate() for e in elements))
        diff = float(np.abs(circuit_unitary(fused_c) - circuit_unitary(c)).max())
        fusion_worst = max(fusion_worst, diff)
    ok = entries_ok and separation_ok and fusion_worst <= 1e-12 and len(th_cases) >= 3
    report(capsys, 11, "gate set", ok)
    assert entries_ok, "observable entry outside {-1, 0, 1}"
    assert fusion_worst <= 1e-12, f"fused product deviation {fusion_worst}"
    assert separation_ok


def test_criterion_12_determinism(tmp_path, capsys):
    matrix_path = tmp_path / "tri.mat"
    matrix_path.write_text("3 3\n0 1 1.0\n0 2 1.0\n1 2 1.0\n")
    graph_path = tmp_path / "tri.graph"
    graph_path.write_text("3 3\n0 1\n0 2\n1 2\n")
    circuit_path = tmp_path / "toff.circ"
    circuit_path.write_text("QUBITS 3\nH 1\nH 2\nTOFF 1 2 0\n")

    def run(argv):
        rc = cli.main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return out

    commands = [
        ["estimate", "--matrix", str(matrix_path), "--j", "0", "--m", "2",
         "--epsilon", "0.5", "--seed", "9"],
        ["paths", "--graph", str(graph_path), "--j", "0", "--m", "3", "--seed", "4"],
        ["reduce", "--circuit", str(circuit_path), "--input", "000",
         "--out-matrix", str(tmp_path / "o.mat"), "--out-meta", str(tmp_path / "o.meta")],
        ["exact", "--matrix", str(matrix_path), "--j", "1", "--m", "4"],
        ["verify-bounds", "--matrices", "1", "--trials", "2"],
    ]
    ok = True
    for argv in commands:
        repeat = run(argv) == run(argv)
        ok = ok and repeat
    for workers in ("2", "4"):
        base = commands[0]
        serial = run(base + ["--workers", "1"])
        threaded = run(base + ["--workers", workers])
        ok = ok and serial == threaded
    report(capsys, 12, "determinism", ok)
    assert ok


@pytest.mark.parametrize(
    "text, dim, m", [(TWELVE_QUBIT_6_GATES, 53_248, 2_197), (TWELVE_QUBIT_10_GATES, 86_016, 9_261)]
)
def test_reduce_at_twelve_qubits(text, dim, m, tmp_path, capsys):
    """The CLI's `reduce` at 12 qubits: its exact diagonal meets the
    closed-form prediction within 1e-8 b^m (here b = 1), as the benchmark
    checks every reduction."""
    circuit = tmp_path / "c.circ"
    circuit.write_text(text)
    rc = cli.main(["reduce", "--circuit", str(circuit), "--input", TWELVE_QUBIT_INPUT,
                   "--out-matrix", str(tmp_path / "o.mat"), "--out-meta", str(tmp_path / "o.meta")])
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert rc == 0
    assert (int(fields["n"]), int(fields["m"]), float(fields["b"])) == (dim, m, 1.0)
    assert abs(float(fields["exact_diag"]) - float(fields["predicted_diag"])) <= 1e-8


@pytest.mark.parametrize("text", [TWELVE_QUBIT_6_GATES, TWELVE_QUBIT_10_GATES])
def test_round_trip_at_twelve_qubits(text, tmp_path, capsys):
    """The paper's loop at 12 qubits: `reduce` a circuit, then `estimate` the
    diagonal entry from shots at the instance's own (j, m, g, eps) and b = 1.
    The estimate lies within eps of the exact diagonal, which `estimate`'s
    own oracle reports bit for bit, and where the promise holds the decision
    lands on the side of the circuit's verdict."""
    circuit = tmp_path / "c.circ"
    circuit.write_text(text)

    def run(argv):
        rc = cli.main(argv)
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert rc == 0
        return fields

    red = run(["reduce", "--circuit", str(circuit), "--input", TWELVE_QUBIT_INPUT,
               "--out-matrix", str(tmp_path / "o.mat"), "--out-meta", str(tmp_path / "o.meta")])
    instance = [arg for key in ("j", "m", "g", "epsilon") for arg in (f"--{key}", red[key])]
    est = run(["estimate", "--matrix", str(tmp_path / "o.mat"), *instance, "--b", "1.0"])
    assert abs(float(est["estimate"]) - float(red["exact_diag"])) <= float(red["epsilon"])
    # the oracle's work on the rows j reaches is within estimate's budget
    assert (est["exact"], est["within_tolerance"]) == (red["exact_diag"], "True")
    assert est["promise_holds"] == red["promise_holds"]
    if red["promise_holds"] == "True":
        assert (est["decision"] == "BelowG") == (red["verdict"] == "accept")
