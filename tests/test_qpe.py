"""Phase-estimation distributions, parameter budgets, sampling, estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dee.qpe import (
    BLOCK_SHOTS,
    LANCZOS_MIN_STEPS,
    MAX_SAMPLED_P,
    TABLE_HALF_WIDTH,
    QpeParams,
    _draw_outcomes,
    _envelope,
    _mixture_cdf,
    _pick,
    _tail_offsets,
    analytic_backend,
    choose_params,
    eigenphase,
    estimate_diag,
    estimate_from_outcomes,
    estimate_offdiag,
    grid_position,
    moment_of_distribution,
    offset_basis,
    outcome_law,
    outcome_to_z,
    outcomes_to_z,
    perturbed_unitary,
    qpe_distribution_analytic,
    qpe_distribution_unitary,
    qpe_statevector,
    sample_measurements,
    statevector_backend,
)
from dee.sparse import (
    DeeInstance,
    Side,
    adjacency_from_edges,
    from_coordinate_list,
    power_diag_exact,
)
from dee.spectral import eig_sym, induced_measure, make_measure, moment

from conftest import random_sparse_matrix, total_variation
from law_reference import direct_outcome_law


class TestChooseParams:
    def test_pinned_budgets(self):
        par = choose_params(8, 0.1, 0.05)
        assert par.p == 24
        par = choose_params(1, 0.3, 0.01)
        assert par.k == 1060
        par = choose_params(1, 1.0, 0.05)
        assert par.p == 12
        assert par.theta == pytest.approx(1.0 / 13.0)
        assert par.eta * 13.0 * math.pi == pytest.approx(1.0)

    def test_budget_inequalities(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 30))
            eps = float(rng.uniform(0.02, 1.0))
            fp = float(rng.uniform(0.001, 0.2))
            par = choose_params(m, eps, fp)
            assert par.theta < eps / 12.0
            assert par.eta < eps / (12.0 * math.pi * m)
            assert par.k >= 18.0 * math.log(2.0 / fp) / eps**2
            assert par.delta <= eps / (3.0 * 2.0 ** (par.p + 2))
            assert par.p % 2 == 0
            # resolution suffices for the phase window eta
            assert 2.0**par.p >= 1.0 / par.eta

    def test_validation_rejects_weakened_budgets(self):
        par = choose_params(2, 0.5, 0.05)
        with pytest.raises(ValueError):
            QpeParams(
                m=par.m, epsilon=par.epsilon, fail_prob=par.fail_prob,
                p=par.p - 2, theta=par.theta, eta=par.eta, k=par.k, delta=par.delta,
            )
        with pytest.raises(ValueError):
            QpeParams(
                m=par.m, epsilon=par.epsilon, fail_prob=par.fail_prob,
                p=par.p, theta=par.epsilon / 11.0, eta=par.eta, k=par.k, delta=par.delta,
            )
        with pytest.raises(ValueError):
            QpeParams(
                m=par.m, epsilon=par.epsilon, fail_prob=par.fail_prob,
                p=par.p, theta=par.theta, eta=par.eta, k=10, delta=par.delta,
            )
        with pytest.raises(ValueError):
            QpeParams(
                m=par.m, epsilon=par.epsilon, fail_prob=par.fail_prob,
                p=par.p, theta=par.theta, eta=par.eta, k=par.k, delta=par.epsilon,
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_params(0, 0.5, 0.05)
        with pytest.raises(ValueError):
            choose_params(1, 0.0, 0.05)
        with pytest.raises(ValueError):
            choose_params(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            choose_params(1, 0.5, 1.0)


class TestOutcomeToZ:
    def test_anchor_values(self):
        p = 10
        t = 2**p
        assert outcome_to_z(0, p) == 0.0
        assert outcome_to_z(t // 2, p) == -1.0
        assert outcome_to_z(t - 1, p) == pytest.approx(-2.0 * math.pi / t)

    def test_four_regions(self):
        p = 10
        t = 2**p
        # small positive phases scale linearly
        assert outcome_to_z(10, p) == pytest.approx(2.0 * math.pi * 10 / t)
        # phases past the principal window clip to +-1
        assert outcome_to_z(t // 4 + 5, p) == 1.0
        assert outcome_to_z(t // 2 + 5, p) == -1.0
        # wrap-around negatives
        assert outcome_to_z(t - 7, p) == pytest.approx(-2.0 * math.pi * 7 / t)

    def test_range_and_vectorization(self):
        p = 10
        a = np.arange(2**p)
        zs = outcomes_to_z(a, p)
        assert np.all(zs <= 1.0) and np.all(zs >= -1.0)
        for probe in range(2**p):
            assert zs[probe] == outcome_to_z(probe, p)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            outcome_to_z(-1, 4)
        with pytest.raises(ValueError):
            outcome_to_z(16, 4)

    @pytest.mark.parametrize("p", [54, 62])
    def test_last_outcome_accepted_past_float_resolution(self, p):
        # 2^p - 1 rounds up to 2^p as a float; the range check reads the integer
        assert outcome_to_z((1 << p) - 1, p) == 0.0
        with pytest.raises(ValueError):
            outcomes_to_z(np.array([1 << p]), p)

    @pytest.mark.parametrize("p", [20, 53, 62])
    def test_dead_zone_edges_stay_in_unit_interval(self, p):
        t = 1 << p
        edges = [round(t / (2 * math.pi)), round(t - t / (2 * math.pi))]
        a = np.concatenate([np.arange(e - 300, e + 300) for e in edges])
        z = outcomes_to_z(a, p)
        assert np.all(np.abs(z) <= 1.0)
        assert np.all(np.diff(z[:600]) >= 0) and np.all(np.diff(z[600:]) >= 0)

    def test_out_buffer_holds_the_decode(self):
        a = np.arange(2**8)
        out = np.empty(2**8)
        assert outcomes_to_z(a, 8, out=out) is out
        assert np.array_equal(out, outcomes_to_z(a, 8))


class TestEigenphase:
    def test_values(self):
        assert eigenphase(0.0) == 0.0
        assert eigenphase(1.0) == pytest.approx(1.0 / (2.0 * math.pi))
        assert eigenphase(-1.0) == pytest.approx(1.0 - 1.0 / (2.0 * math.pi))
        assert eigenphase(2.0 * math.pi + 0.5) == pytest.approx(eigenphase(0.5))

    def test_range(self, rng):
        for lam in rng.uniform(-1.0, 1.0, size=100):
            phi = eigenphase(float(lam))
            assert 0.0 <= phi < 1.0


class TestAnalyticDistribution:
    def test_dyadic_phase_is_point_mass(self):
        p = 6
        lam = outcome_to_z(3, p)  # phase exactly 3/64
        mu = make_measure([(lam, 1.0)])
        probs = qpe_distribution_analytic(mu, p)
        assert probs[3] == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            a = random_sparse_matrix(rng, n)
            dense = a.to_dense() / a.norm_bound
            psi = rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            mu = induced_measure(eig_sym(dense), psi)
            probs = qpe_distribution_analytic(mu, 8)
            assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_mixture_linearity(self):
        mu1 = make_measure([(0.5, 1.0)])
        mu2 = make_measure([(-0.25, 1.0)])
        mix = make_measure([(0.5, 0.3), (-0.25, 0.7)])
        p = 7
        got = qpe_distribution_analytic(mix, p)
        want = 0.3 * qpe_distribution_analytic(mu1, p) + 0.7 * qpe_distribution_analytic(mu2, p)
        assert np.allclose(got, want, atol=1e-12)

    def test_eigenvalue_outside_unit_interval_rejected(self):
        mu = make_measure([(1.5, 1.0)])
        with pytest.raises(ValueError):
            qpe_distribution_analytic(mu, 6)

    def test_huge_p_rejected(self):
        mu = make_measure([(0.5, 1.0)])
        with pytest.raises(ValueError):
            qpe_distribution_analytic(mu, 26)

    def test_cap_is_p20(self):
        mu = make_measure([(0.5, 1.0)])
        with pytest.raises(ValueError, match="p=21"):
            qpe_distribution_analytic(mu, 21)

    def test_phase_rounding_to_one_is_point_mass_at_zero(self):
        # exp(i lam) with lam = -6.1e-18 has eigenphase 1.0 in floats, whose
        # nearest outcome T wraps to 0; offsets of +-T there would give
        # sin(k pi) != 0 and smear the point mass
        lam, p = -6.1e-18, 6
        assert eigenphase(lam) == 1.0
        probs = qpe_distribution_analytic(make_measure([(lam, 1.0)]), p)
        circuit = qpe_statevector(np.array([[lam]]), np.array([1.0]), p)
        assert total_variation(probs, circuit) < 1e-12


# |frac| below about 1e-136 would put the law at +-T/2, p = 62, among the
# subnormals, where neither form keeps its relative precision
_FRACS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5]),
    st.floats(-0.5, 0.5).filter(lambda f: abs(f) >= 1e-130),
)


class TestOutcomeLaw:
    """The angle-addition form against the direct form it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(p=st.integers(1, 62), frac=_FRACS, data=st.data())
    def test_basis_form_matches_direct_form(self, p, frac, data):
        half = (1 << p) // 2
        drawn = data.draw(st.lists(st.integers(-half, half), max_size=30))
        offsets = np.array([0, 1, -1, half, -half, half - 1, 1 - half] + drawn, dtype=np.float64)
        offsets = offsets[np.abs(offsets) <= half]
        got = outcome_law(frac, offset_basis(offsets, 1 << p))
        want = direct_outcome_law(frac, offsets, 1 << p)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("p", range(1, 63))
    def test_integer_phase_is_exactly_a_point_mass(self, p):
        half = (1 << p) // 2
        offsets = np.array([0] + sorted({1, -1, half, -half, half // 3 or 1, -(half // 3) or -1}))
        law = outcome_law(0.0, offset_basis(offsets, 1 << p))
        assert law[0] == 1.0 and np.all(law[1:] == 0.0)

    def test_phases_broadcast_against_the_basis(self, rng):
        p = 20
        fracs = rng.uniform(-0.5, 0.5, 7)
        basis = offset_basis(np.arange(-40, 41), 1 << p)
        table = outcome_law(fracs[:, None], basis)
        assert table.shape == (7, 81)
        for row, frac in zip(table, fracs):
            assert np.array_equal(row, outcome_law(frac, basis))


class TestStatevector:
    def test_zero_matrix_point_mass_at_zero(self):
        probs = qpe_statevector(np.zeros((2, 2)), np.array([1.0, 0.0]), 5)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_analytic(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 8))
            a = random_sparse_matrix(rng, n)
            dense = a.to_dense() / a.norm_bound
            psi = rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            p = int(rng.integers(3, 9))
            sv = qpe_statevector(dense, psi, p)
            an = qpe_distribution_analytic(induced_measure(eig_sym(dense), psi), p)
            assert total_variation(sv, an) < 1e-8

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            qpe_statevector(np.zeros((4, 4)), np.array([1.0, 0, 0, 0]), 21)

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError):
            qpe_statevector(np.diag([1.5, 0.5]), np.array([1.0, 0.0]), 4)

    def test_non_unit_state_rejected(self):
        with pytest.raises(ValueError):
            qpe_statevector(np.eye(2) * 0.5, np.array([1.0, 1.0]), 4)


class TestUnitaryDistribution:
    def test_matches_statevector_on_exponential(self, rng):
        for _ in range(4):
            n = int(rng.integers(1, 6))
            a = random_sparse_matrix(rng, n)
            dense = a.to_dense() / a.norm_bound
            lam, vec = np.linalg.eigh(dense)
            u = vec @ np.diag(np.exp(1j * lam)) @ vec.T
            psi = rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            p = 6
            got = qpe_distribution_unitary(u, psi, p)
            want = qpe_statevector(dense, psi, p)
            assert total_variation(got, want) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            qpe_distribution_unitary(np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0]), 4)


class TestMomentOfDistribution:
    def test_point_mass_moment(self):
        p = 6
        probs = np.zeros(2**p)
        probs[5] = 1.0
        z = outcome_to_z(5, p)
        assert moment_of_distribution(probs, p, 3) == pytest.approx(z**3, rel=1e-12)


class TestSampling:
    def test_sampler_matches_exact_distribution(self):
        # empirical distribution of the rejection sampler against the
        # closed form; k raised well past the required floor so the
        # histogram resolves the distribution, tolerance frozen for the
        # pinned seed
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        base = choose_params(1, 1.0, 0.2)
        params = QpeParams(
            m=1, epsilon=1.0, fail_prob=0.2, p=base.p, theta=base.theta,
            eta=base.eta, k=50000, delta=base.delta,
        )
        psi = np.array([1.0, 0.0, 0.0])
        draws = sample_measurements(a, 2.0, psi, params, seed=7)
        mu = induced_measure(eig_sym(a.to_dense() / 2.0), psi)
        exact = qpe_distribution_analytic(mu, params.p)
        hist = np.bincount(draws, minlength=2**params.p) / len(draws)
        assert total_variation(hist, exact) < 0.06

    def test_same_seed_same_outcomes(self):
        a = adjacency_from_edges(2, [(0, 1)])
        params = choose_params(1, 0.8, 0.2)
        psi = np.array([1.0, 0.0])
        one = sample_measurements(a, 1.0, psi, params, seed=3)
        two = sample_measurements(a, 1.0, psi, params, seed=3)
        assert np.array_equal(one, two)

    def test_backends_draw_from_same_law(self):
        # statevector and analytic backends sample the same distribution;
        # compare empirical means loosely under different seeds
        a = adjacency_from_edges(2, [(0, 1)])
        params = choose_params(1, 0.5, 0.1)
        psi = np.array([1.0, 0.0])
        sv = sample_measurements(a, 1.0, psi, params, backend=statevector_backend(), seed=5)
        an = sample_measurements(a, 1.0, psi, params, backend=analytic_backend(), seed=5)
        m_sv = float(np.mean(outcomes_to_z(sv, params.p)))
        m_an = float(np.mean(outcomes_to_z(an, params.p)))
        assert abs(m_sv - m_an) < 0.1

    def test_bad_norm_promise_rejected(self):
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        params = choose_params(1, 0.5, 0.1)
        psi = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            sample_measurements(a, 1.0, psi, params, seed=0)



def _params_at_width(p, k):
    """Budget at register width p (eps = 1, m = floor(2^(p/2) / 48)) with k shots.

    k is set after validation, so runs shorter than the Hoeffding floor
    (down to a single shot) reach the sampler's block arithmetic.
    """
    m = (1 << (p // 2)) // 48
    base = choose_params(m, 1.0, 0.2)
    assert base.p == p
    object.__setattr__(base, "k", k)
    return base


def _offset_law(j, frac, t):
    """Closed-form Pr(round(phi*T) + j | phi) at grid offset d = j - frac."""
    d = np.asarray(j, dtype=np.float64) - frac
    return (np.sinc(d) / np.sinc(d / t)) ** 2


class TestBlockSampler:
    def test_envelope_dominates_outcome_law(self, rng):
        for p in (1, 2, 3, 12, 40, 62):
            t = 1 << p
            window = np.arange(max(-64, -t // 2 + 1), min(64, t // 2) + 1)
            for lam in rng.uniform(-1.0, 1.0, size=25):
                x0 = eigenphase(float(lam)) * t
                centre = round(x0)
                law = _offset_law(window, x0 - centre, t)
                assert np.all(law <= _envelope(window.astype(np.float64)) * (1.0 + 1e-12))
                # the module's sine form against this file's sinc form
                assert np.allclose(outcome_law(x0 - centre, offset_basis(window, t)), law, rtol=0, atol=1e-12)
                if p <= 12:
                    # the windowed closed form is the full outcome law
                    exact = qpe_distribution_analytic(make_measure([(float(lam), 1.0)]), p)
                    assert np.allclose(law, exact[(centre + window) % t], rtol=0, atol=1e-12)

    def test_offset_histogram_matches_closed_form_at_p40(self):
        # one atom at p = 40; only a +-64 window around round(phi*T) is
        # tabulated, the rest of the law lumped into one outside bin
        p, k, lam = 40, 200_000, 0.3
        t = 1 << p
        x0 = eigenphase(lam) * t
        centre = round(x0)
        window = np.arange(-64, 65)
        law = _offset_law(window, x0 - centre, t)
        want = np.append(law, 1.0 - law.sum())
        # three times the bound sum_i sqrt(p_i (1 - p_i) / k) / 2 on E[TV],
        # fixed before drawing
        tol = 1.5 * float(np.sum(np.sqrt(want * (1.0 - want) / k)))
        matrix = from_coordinate_list(1, [(0, 0, lam)])
        draws = sample_measurements(matrix, 1.0, np.array([1.0]), _params_at_width(p, k), seed=19)
        offset = (draws - centre + t // 2) % t - t // 2
        inside = np.abs(offset) <= 64
        got = np.append(np.bincount(offset[inside] + 64, minlength=129), np.count_nonzero(~inside)) / k
        assert total_variation(got, want) < tol

    def test_blocks_do_not_depend_on_k(self):
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        psi = np.array([1.0, 0.0, 0.0])
        full = sample_measurements(a, 2.0, psi, _params_at_width(12, BLOCK_SHOTS), seed=8)
        longer = sample_measurements(a, 2.0, psi, _params_at_width(12, BLOCK_SHOTS + 1), seed=8)
        assert np.array_equal(longer[:BLOCK_SHOTS], full)

    @pytest.mark.parametrize("k", [1, 4095, 4096, 4097, 8193])
    def test_output_depends_only_on_seed_and_k(self, k):
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        psi = np.array([0.6, 0.8, 0.0])
        params = _params_at_width(12, k)
        one = sample_measurements(a, 2.0, psi, params, seed=5)
        assert one.shape == (k,) and one.dtype == np.int64
        assert np.array_equal(one, sample_measurements(a, 2.0, psi, params, seed=5))

    def test_register_past_int64_refused(self):
        matrix = from_coordinate_list(1, [(0, 0, 0.3)])
        psi = np.array([1.0])
        widest = sample_measurements(matrix, 1.0, psi, _params_at_width(MAX_SAMPLED_P, 100))
        assert np.all((widest >= 0) & (widest < 1 << MAX_SAMPLED_P))
        with pytest.raises(ValueError, match="p <= 62"):
            sample_measurements(matrix, 1.0, psi, _params_at_width(MAX_SAMPLED_P + 2, 100))


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _tv_tolerance(want, k):
    """Three times the bound sum_i sqrt(q_i (1 - q_i) / k) / 2 on E[TV]."""
    return 1.5 * float(np.sum(np.sqrt(want * (1.0 - want) / k)))


class _Uniforms:
    """Generator stand-in whose `random(n)` returns the first n of fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, n):
        return self.values[:n]


class TestTableSampler:
    @staticmethod
    def _measure(p):
        """Atoms at frac = +1/2 and -1/2, at dyadic phases and at two generic
        points, kept to |lambda| <= 1."""
        t = 1 << p
        lams = [0.0, math.pi / t, -math.pi / t, 2.0 * math.pi / t, -4.0 * math.pi / t, 0.3, -0.77]
        lams = [lam for lam in lams if abs(lam) <= 1.0]
        weights = np.arange(2.0, 2.0 + len(lams))
        return make_measure(list(zip(lams, weights / weights.sum())))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_whole_grid_table_matches_analytic_law(self, p):
        # T/2 <= J: the cells are the whole law, so their masses are the
        # exact distribution, and draws match it in total variation
        t, k = 1 << p, 200_000
        measure = self._measure(p)
        exact = qpe_distribution_analytic(measure, p)
        centre, frac = grid_position(measure.values, p)
        cdf = _mixture_cdf(frac, measure.weights, p)
        cells = np.diff(cdf, prepend=0.0).reshape(len(frac), t + 2)
        table = np.zeros(t)
        np.add.at(table, (centre[:, None] + np.arange(-t // 2, t // 2 + 1)) % t, cells[:, :-1])
        assert np.allclose(table, exact, rtol=0, atol=1e-12)
        draws = _draw_outcomes(centre, frac, cdf, p, _philox(p), k)
        assert total_variation(np.bincount(draws, minlength=t) / k, exact) < _tv_tolerance(exact, k)

    @pytest.mark.parametrize("p", [3, 12])
    def test_zero_mass_cells_are_never_drawn(self, p):
        # uniforms on every CDF step, and at both ends of [0, 1), pick only
        # cells of positive mass: at p = 3 the -T/2 and tail cells are empty,
        # at p = 12 every cell of a dyadic atom but its centre is
        t = 1 << p
        # weights summing to just under 1, as a measure's may
        measure = make_measure([(0.0, 0.25), (-2.0 * math.pi / t, 0.25), (0.3, 0.5 - 1e-10)])
        centre, frac = grid_position(measure.values, p)
        cdf = _mixture_cdf(frac, measure.weights, p)
        assert cdf[-1] == 1.0
        mass = np.diff(cdf, prepend=0.0)
        h = min(TABLE_HALF_WIDTH, t // 2)
        cells = mass.reshape(-1, 2 * h + 2)  # offsets -h..h, then the tail
        if t // 2 <= TABLE_HALF_WIDTH:
            assert not cells[:, [0, -1]].any()
        else:
            dyadic = cells[frac == 0.0]
            assert len(dyadic) == 2 and not np.delete(dyadic, h, axis=1).any()
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0]])
        picked = _pick(cdf, len(u), _Uniforms(u))
        assert np.all(mass[picked] > 0.0)
        # dyadic atoms alone draw their centres and nothing else
        only = make_measure([(0.0, 0.5), (-2.0 * math.pi / t, 0.5)])
        centre, frac = grid_position(only.values, p)
        draws = _draw_outcomes(centre, frac, _mixture_cdf(frac, only.weights, p), p, _philox(3), BLOCK_SHOTS)
        assert set(np.unique(draws).tolist()) == {0, t - 1}

    def test_tail_offsets_match_closed_form_at_p40(self):
        # frac ~ 1/2 puts the most mass past the table; bins: each offset in
        # [-J, J], then |j| in (J, 2J], (2J, 4J], ... up to 2^16 on each side,
        # then the rest
        p, k = 40, 200_000
        t, jj, w = 1 << p, TABLE_HALF_WIDTH, 1 << 16
        lam = 2.0 * math.pi * ((1 << 36) + 0.5) / t
        x0 = eigenphase(lam) * t
        centre = round(x0)
        assert abs(abs(x0 - centre) - 0.5) < 1e-3
        window = np.arange(-w, w + 1)
        law = _offset_law(window, x0 - centre, t)
        edges = [jj]
        while edges[-1] < w:
            edges.append(min(2 * edges[-1], w))

        def bins(offset, mass):
            inner = np.bincount(offset[np.abs(offset) <= jj] + jj, mass[np.abs(offset) <= jj], 2 * jj + 1)
            outer = [mass[(sign * offset > lo) & (sign * offset <= hi)].sum()
                     for sign in (1, -1) for lo, hi in zip(edges, edges[1:])]
            return np.concatenate([inner, outer])
        want = bins(window, law)
        want = np.append(want, 1.0 - want.sum())
        matrix = from_coordinate_list(1, [(0, 0, lam)])
        draws = sample_measurements(matrix, 1.0, np.array([1.0]), _params_at_width(p, k), seed=23)
        offset = (draws - centre + t // 2) % t - t // 2
        got = bins(offset, np.ones(k))
        got = np.append(got, k - got.sum()) / k
        # the share past the table within 5 binomial deviations of its law
        past = 1.0 - want[: 2 * jj + 1].sum()
        share = np.count_nonzero(np.abs(offset) > jj) / k
        assert abs(share - past) < 5.0 * math.sqrt(past * (1.0 - past) / k)
        assert total_variation(got, want) < _tv_tolerance(want, k)

    @pytest.mark.parametrize("p, frac", [(62, 1e-12), (62, 0.5), (7, 1e-12), (7, 0.5), (7, -0.5)])
    def test_tail_envelope_dominates_and_bounds_the_law(self, p, frac):
        # law <= num e(j), and law / (num e(j)) >= 4i(i-1) / (pi^2 (i + 1/2)^2),
        # on offsets past the table, up to T/2
        t = 1 << p
        i = np.concatenate([np.arange(TABLE_HALF_WIDTH + 1, TABLE_HALF_WIDTH + 200), t // 2 - np.arange(50)])
        i = np.unique(i[(i > TABLE_HALF_WIDTH) & (i <= t // 2)]).astype(np.float64)
        num = math.sin(math.pi * frac) ** 2
        for j in (i, -i[i < t // 2]):
            ratio = outcome_law(frac, offset_basis(j, t)) / (num * _envelope(j))
            assert np.all(ratio <= 1.0 + 1e-12)
            i_ = np.abs(j)
            assert np.all(ratio >= 4.0 * i_ * (i_ - 1.0) / (math.pi * (i_ + 0.5)) ** 2 * (1.0 - 1e-12))

    @pytest.mark.parametrize("p, frac", [(62, 1e-12), (7, 1e-12), (7, 0.5)])
    def test_redraws_are_bounded(self, p, frac):
        # each tail proposal is accepted with chance at least
        # 4J(J+1) / (pi^2 (J + 3/2)^2) times its chance of landing in
        # (-T/2, T/2], whatever frac; and a block drawn from the mixture ends
        t, n, jj = 1 << p, 100_000, TABLE_HALF_WIDTH
        floor = 4.0 * jj * (jj + 1.0) / (math.pi * (jj + 1.5)) ** 2
        half = t // 2
        in_range = 1.0 - jj / half - 0.5 * (jj / (half - 1) - jj / half)
        bound = floor * in_range
        j, keep = _tail_offsets(np.full(n, frac), t, _philox(p))
        assert np.all(np.abs(j) > jj)
        assert np.all((j[keep] > -half) & (j[keep] <= half))
        assert keep.mean() >= bound - 5.0 * math.sqrt(bound * (1.0 - bound) / n)
        centre = np.array([1 << (p - 2)])
        cdf = _mixture_cdf(np.array([frac]), np.array([1.0]), p)
        draws = _draw_outcomes(centre, np.array([frac]), cdf, p, _philox(p + 1), BLOCK_SHOTS)
        assert draws.shape == (BLOCK_SHOTS,) and np.all((draws >= 0) & (draws < t))


class TestEstimators:
    def test_zero_matrix_estimate_is_exact(self):
        # eigenphase 0 is dyadic, so every shot returns outcome 0 exactly
        a = from_coordinate_list(2, [])
        inst = DeeInstance(matrix=a, j=0, m=3, g=-0.5, epsilon=0.5, b=1.0)
        params = choose_params(3, 0.5, 0.05)
        decision = estimate_diag(inst, params, seed=1)
        assert decision.estimate == 0.0
        assert decision.side is Side.ABOVE_G

    def test_identity_matrix_estimate_is_tight(self):
        # eigenphase of +1 is not dyadic; outcomes cluster within the
        # theta/eta window, far tighter than the promised eps accuracy
        a = from_coordinate_list(2, [(0, 0, 1.0), (1, 1, 1.0)])
        inst = DeeInstance(matrix=a, j=0, m=3, g=0.5, epsilon=0.5, b=1.0)
        params = choose_params(3, 0.5, 0.05)
        decision = estimate_diag(inst, params, seed=1)
        assert decision.estimate == pytest.approx(1.0, abs=0.01)
        assert decision.side is Side.ABOVE_G

    def test_params_must_match_instance(self):
        a = from_coordinate_list(1, [(0, 0, 1.0)])
        inst = DeeInstance(matrix=a, j=0, m=2, g=0.0, epsilon=0.5, b=1.0)
        with pytest.raises(ValueError):
            estimate_diag(inst, choose_params(3, 0.5, 0.05))

    def test_triangle_walk_count_estimate(self):
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        inst = DeeInstance(matrix=a, j=0, m=2, g=1.0, epsilon=0.25, b=2.0)
        params = choose_params(2, 0.25, 0.01)
        decision = estimate_diag(inst, params, seed=2)
        assert abs(decision.estimate - 2.0) <= 0.25 * 4.0
        assert decision.side is Side.ABOVE_G

    def test_offdiag_against_oracle(self):
        a = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        params = choose_params(2, 0.5, 0.05)
        est = estimate_offdiag(a, 0, 1, 2, params, seed=4)
        # (A^2)_01 = 1 for the triangle; tolerance eps * b^m = 2
        assert abs(est - 1.0) <= 0.5 * 4.0

    def test_offdiag_requires_distinct_indices(self):
        a = adjacency_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            estimate_offdiag(a, 1, 1, 2, choose_params(2, 0.5, 0.05))


class TestKrylovSampler:
    """The analytic sampler on a matrix past the Lanczos step floor."""

    DIM = 300
    J = 7

    @pytest.fixture
    def matrix(self):
        a = random_sparse_matrix(np.random.default_rng(300), self.DIM)
        assert a.dim > LANCZOS_MIN_STEPS
        return a

    @pytest.fixture
    def e_j(self):
        psi = np.zeros(self.DIM)
        psi[self.J] = 1.0
        return psi

    def test_no_dense_matrix_and_estimate_within_tolerance(self, matrix, e_j, monkeypatch):
        monkeypatch.setattr("dee.sparse.SparseSymmetricMatrix.to_dense", None)
        m, eps, b = 4, 0.25, matrix.norm_bound
        params = choose_params(m, eps, 0.05)
        outcomes = sample_measurements(matrix, b, e_j, params, seed=3)
        estimate = estimate_from_outcomes(outcomes, params, b)
        assert abs(estimate - power_diag_exact(matrix, self.J, m)) <= eps * b**m

    @pytest.mark.parametrize("m", [4, 200])
    def test_atoms_are_the_gauss_rule_through_moment_m(self, matrix, e_j, m, monkeypatch):
        # b at the spectral norm, so the m-th moment is not lost under b^m
        b = 1.000001 * float(np.max(np.abs(np.linalg.eigvalsh(matrix.to_dense()))))
        monkeypatch.setattr("dee.sparse.SparseSymmetricMatrix.to_dense", None)
        seen = []

        def spy(decomp, psi):
            seen.append((len(decomp.eigenvalues), induced_measure(decomp, psi)))
            return seen[-1][1]

        monkeypatch.setattr("dee.qpe.induced_measure", spy)
        sample_measurements(matrix, b, e_j, choose_params(m, 1.0, 0.05), seed=1)
        [(nodes, measure)] = seen
        assert nodes == max(math.ceil((m + 1) / 2), LANCZOS_MIN_STEPS)
        assert abs(moment(measure, m) - power_diag_exact(matrix, self.J, m) / b**m) <= 1e-12

    def test_matrix_within_k_rows_samples_the_full_spectrum(self, matrix, e_j, monkeypatch):
        # m = 2N - 2 gives K = N, where the rule would be the induced measure
        # itself: the dense eigensolve gives it for less than N Lanczos steps
        m = 2 * self.DIM - 2
        monkeypatch.setattr("dee.qpe.lanczos_tridiagonal", None)
        seen = []

        def spy(decomp, psi):
            seen.append(len(decomp.eigenvalues))
            return induced_measure(decomp, psi)

        monkeypatch.setattr("dee.qpe.induced_measure", spy)
        sample_measurements(matrix, matrix.norm_bound, e_j, choose_params(m, 1.0, 0.05), seed=1)
        assert seen == [self.DIM]


def _path_with_far_peak(n):
    """Path graph on n rows plus a diagonal 10 on its last row: the spectral
    norm exceeds 10, but e_0 sees the peak only through n - 1 hops."""
    return from_coordinate_list(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(n - 1, n - 1, 10.0)])


class TestArrayLimit:
    @pytest.mark.parametrize("m, shape", [(8192, "4097 x 4098"), (8400, "4200 x 4200")])
    def test_array_past_the_limit_is_refused_before_it_is_built(self, m, shape, monkeypatch):
        """On a 4,200-row path, e_0 reaches 4,098 rows in K = 4,097 steps and
        all of them in K = 4,201: a Lanczos basis or a dense matrix, each with
        more than 4,096^2 entries."""
        n = 4200
        a = from_coordinate_list(n, [(i, i + 1, 0.5) for i in range(n - 1)])
        monkeypatch.setattr("dee.qpe.lanczos_tridiagonal", None)
        monkeypatch.setattr("dee.sparse.SparseSymmetricMatrix.to_dense", None)
        psi = np.zeros(n)
        psi[0] = 1.0
        with pytest.raises(ValueError, match=f"the sampler's {shape} array exceeds 4096\\^2 entries"):
            sample_measurements(a, 1.0, psi, choose_params(m, 1.0, 0.05))


class TestNormBoundRefusal:
    """The |lambda| <= b refusal applies to the atoms sampled: past K rows,
    to the Lanczos nodes, not to the spectrum of A."""

    def test_b_below_the_norm_passes_when_every_node_lies_within_it(self):
        a = _path_with_far_peak(300)
        b, m, eps = 3.0, 4, 0.25
        assert np.max(np.abs(np.linalg.eigvalsh(a.to_dense()))) > 10.0 > b
        psi = np.zeros(a.dim)
        psi[0] = 1.0
        params = choose_params(m, eps, 0.05)
        estimate = estimate_from_outcomes(sample_measurements(a, b, psi, params, seed=2), params, b)
        assert abs(estimate - power_diag_exact(a, 0, m)) <= eps * b**m

    def test_b_below_a_node_is_refused(self):
        # the 32 nodes from e_0 are those of the 32-row path, up to 2 cos(pi/33)
        a = _path_with_far_peak(300)
        psi = np.zeros(a.dim)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="outside"):
            sample_measurements(a, 1.5, psi, choose_params(4, 0.25, 0.05), seed=2)

    def test_b_below_the_norm_is_refused_within_k_rows(self):
        # here the peak's eigenvalue carries weight about 1e-6 on e_0
        a = _path_with_far_peak(4)
        psi = np.zeros(a.dim)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="outside"):
            sample_measurements(a, 3.0, psi, choose_params(4, 0.25, 0.05), seed=2)


class TestEstimateFromOutcomes:
    def test_scaling_by_b_power(self):
        params = choose_params(2, 0.9, 0.3)
        a_values = np.zeros(params.k, dtype=np.int64)  # every z is 0
        assert estimate_from_outcomes(a_values, params, 3.0) == 0.0


class TestPerturbedUnitary:
    def test_distance_within_delta(self, rng):
        for delta in (1e-2, 1e-3):
            for trial in range(5):
                n = int(rng.integers(2, 7))
                a = random_sparse_matrix(rng, n)
                dense = a.to_dense() / a.norm_bound
                lam, vec = np.linalg.eigh(dense)
                u = vec @ np.diag(np.exp(1j * lam)) @ vec.T
                v = perturbed_unitary(dense, delta, seed=trial)
                dist = float(np.linalg.norm(v - u, ord=2))
                assert 0.0 < dist <= delta
                assert np.allclose(v @ v.conj().T, np.eye(n), atol=1e-12)

    def test_deterministic_per_seed(self):
        dense = np.diag([0.5, -0.5])
        v1 = perturbed_unitary(dense, 1e-3, seed=9)
        v2 = perturbed_unitary(dense, 1e-3, seed=9)
        assert np.array_equal(v1, v2)

    def test_zero_delta_returns_exact_exponential(self):
        dense = np.diag([0.5, -0.5])
        v = perturbed_unitary(dense, 0.0)
        assert np.allclose(v, np.diag(np.exp(1j * np.array([0.5, -0.5]))), atol=1e-15)

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            perturbed_unitary(np.zeros((2, 2)), -0.1)
        with pytest.raises(ValueError):
            perturbed_unitary(np.zeros((2, 2)), 1.5)
