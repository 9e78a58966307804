from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.linalg import expm

from quenchmps import qcore, tfim
from quenchmps.qcore import InvalidArgumentError
from quenchmps.tfim import (
    MAX_STEPS,
    QuenchSpec,
    REFERENCE_QUENCH,
    bond_hamiltonian,
    critical_momentum,
    cusp_times,
    ground_energy_density_ff,
    loschmidt_exact_ff,
    trotter_gate_first_order,
    trotter_gates_second_order,
)

# Exact diagonalization (ED) of finite chains: the tests' independent check
# of the free-fermion oracle ``loschmidt_exact_ff``.
MAX_ED_SITES = 10  # a 10-site dense Hamiltonian is 16 MiB


def _pauli_sparse(op, site, n):
    mats = [sp.identity(2, format="csr", dtype=complex)] * n
    mats[site] = sp.csr_matrix(op)
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def tfim_hamiltonian_sparse(J, g, n_sites, periodic=True):
    if n_sites < 2:
        raise InvalidArgumentError("need at least 2 sites")
    if n_sites > MAX_ED_SITES:
        raise InvalidArgumentError(
            f"exact diagonalization limited to {MAX_ED_SITES} sites"
        )
    dim = 2**n_sites
    h = sp.csr_matrix((dim, dim), dtype=complex)
    n_bonds = n_sites if periodic else n_sites - 1
    for i in range(n_bonds):
        zi = _pauli_sparse(qcore.PAULI_Z, i, n_sites)
        zj = _pauli_sparse(qcore.PAULI_Z, (i + 1) % n_sites, n_sites)
        h = h + J * (zi @ zj)
    for i in range(n_sites):
        h = h + g * _pauli_sparse(qcore.PAULI_X, i, n_sites)
    return h


def tfim_hamiltonian(J, g, n_sites, periodic=True):
    """Dense Hermitian matrix of the chain Hamiltonian.

    Memory grows as 4^n; capped at ``MAX_ED_SITES`` sites.
    """
    return np.asarray(tfim_hamiltonian_sparse(J, g, n_sites, periodic).todense())


def loschmidt_exact_ed(spec, n_sites, t):
    """Finite-chain (periodic) echo density by exact diagonalization.

    Prepares the ground state of H(g0), evolves it exactly under H(g1) and
    returns -(1/n) log |<psi0|psi(t)>|^2. Accepts a scalar time or an array.
    """
    psi0 = np.linalg.eigh(tfim_hamiltonian(spec.J, spec.g0, n_sites))[1][:, 0]
    h1 = tfim_hamiltonian_sparse(spec.J, spec.g1, n_sites, periodic=True)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    rates = np.empty(times.shape)
    for i, ti in enumerate(times):
        if ti == 0.0:
            overlap = 1.0 + 0.0j
        else:
            psi_t = spla.expm_multiply(-1j * ti * h1, psi0)
            overlap = np.vdot(psi0, psi_t)
        rates[i] = -np.log(max(np.abs(overlap) ** 2, 1e-300)) / n_sites
    return rates if np.ndim(t) else float(rates[0])


def embed_bond_gate(gate, bond, n):
    """Dense embedding of a two-site gate on sites (bond, bond+1)."""
    out = np.eye(2**bond, dtype=complex)
    out = np.kron(out, gate)
    return np.kron(out, np.eye(2 ** (n - bond - 2), dtype=complex))


def fit_exponent(x, y):
    return np.polyfit(np.log(x), np.log(y), 1)[0]


class TestQuenchSpec:
    def test_defaults_are_the_reference_quench(self):
        assert REFERENCE_QUENCH.g0 == 1.5
        assert REFERENCE_QUENCH.g1 == 0.2
        assert REFERENCE_QUENCH.n_steps == 25

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            QuenchSpec(dt=0.0)
        with pytest.raises(InvalidArgumentError):
            QuenchSpec(J=0.0)
        with pytest.raises(InvalidArgumentError):
            QuenchSpec(t_max=0.05)
        with pytest.raises(InvalidArgumentError):
            QuenchSpec(trotter_order=3)
        for order in (True, np.True_):  # a bool is not an order
            with pytest.raises(InvalidArgumentError, match="trotter_order"):
                QuenchSpec(trotter_order=order)

    @pytest.mark.parametrize("t_max", [0.26, 2.46, 0.34, 0.15])
    def test_t_max_must_be_a_whole_number_of_steps(self, t_max):
        with pytest.raises(InvalidArgumentError, match="whole number of steps"):
            QuenchSpec(t_max=t_max)

    @pytest.mark.parametrize("dt, t_max", [(1e-300, 1.0), (1e-9, 2.5), (5e-324, 1.0)])
    def test_step_counts_beyond_max_steps_rejected(self, dt, t_max):
        # 1e300 steps made ``times`` raise numpy's ValueError, 2.5e9 would
        # have allocated the run's angle array, and 1 / 5e-324 is inf
        with pytest.raises(InvalidArgumentError, match="at most"):
            QuenchSpec(dt=dt, t_max=t_max)

    def test_max_steps_is_the_bound(self):
        assert QuenchSpec(dt=1.0, t_max=float(MAX_STEPS)).n_steps == MAX_STEPS
        with pytest.raises(InvalidArgumentError, match="at most"):
            QuenchSpec(dt=1.0, t_max=float(MAX_STEPS + 1))

    def test_whole_step_horizons_accepted(self):
        # the benchmark's horizons, the tests' and a dt sweep's; t_max / dt
        # rounds off a whole number in several of them
        for t_max in (1.0, 2.5, 0.2, 0.3, 0.7):
            spec = replace(REFERENCE_QUENCH, t_max=t_max)
            assert spec.n_steps == round(t_max / 0.1)
            assert spec.times[-1] == pytest.approx(t_max, rel=1e-12)
        for dt in (0.1, 0.05, 0.025, 0.0125):
            assert QuenchSpec(dt=dt, t_max=2.5).n_steps == round(2.5 / dt)
        assert QuenchSpec(dt=0.05, t_max=0.05).n_steps == 1

    @pytest.mark.parametrize("name", ["J", "g0", "g1", "dt", "t_max"])
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, 1.5 + 0.1j, True, np.True_, "1", None]
    )
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
            QuenchSpec(**{name: value})


class TestHamiltonian:
    def test_pure_ising_two_sites(self):
        h = tfim_hamiltonian(1.0, 0.0, 2, periodic=False)
        assert np.allclose(h, np.kron(qcore.PAULI_Z, qcore.PAULI_Z), atol=1e-14)

    def test_pure_field_two_sites(self):
        h = tfim_hamiltonian(0.0, 1.0, 2, periodic=False)
        expected = np.kron(qcore.PAULI_X, np.eye(2)) + np.kron(np.eye(2), qcore.PAULI_X)
        assert np.allclose(h, expected, atol=1e-14)

    def test_ground_energy_matches_momentum_sum(self):
        # even-parity sector of the periodic chain: antiperiodic momenta
        n, J, g = 8, 1.0, 1.0
        ks = (2 * np.arange(n) + 1 - n) * np.pi / n
        eps = 2.0 * np.sqrt(J**2 + g**2 - 2 * J * g * np.cos(ks))
        e_ff = -0.5 * np.sum(eps) / n
        e_ed = np.linalg.eigvalsh(tfim_hamiltonian(J, g, n, periodic=True))[0] / n
        assert abs(e_ff - e_ed) < 1e-6

    def test_resource_limit(self):
        with pytest.raises(InvalidArgumentError, match="limited to"):
            tfim_hamiltonian(1.0, 1.0, 16)

    def test_periodic_chain_adds_the_wrap_bond(self):
        n, J, g = 5, 0.7, 1.3
        wrap = np.kron(qcore.PAULI_Z, np.kron(np.eye(2**(n - 2)), qcore.PAULI_Z))
        diff = tfim_hamiltonian(J, g, n) - tfim_hamiltonian(J, g, n, periodic=False)
        assert np.max(np.abs(diff - J * wrap)) < 1e-14

    def test_quasiparticle_gap_at_zone_edges(self):
        for J, g in [(1.0, 0.2), (1.0, 1.5), (0.5, 0.5)]:
            e_0 = tfim.quasiparticle_energy(0.0, g, J)
            e_pi = tfim.quasiparticle_energy(np.pi, g, J)
            assert e_0 == pytest.approx(2 * abs(J - g), abs=1e-12)
            assert e_pi == pytest.approx(2 * abs(J + g))


class TestTrotterFirstOrder:
    def test_small_step_bound(self):
        J, g = 1.0, 0.2
        h2 = bond_hamiltonian(J, g)
        for dt in (1e-3, 1e-2):
            gate = trotter_gate_first_order(J, g, dt)
            bound = 2.0 * np.linalg.norm(h2, 2) * 2.0 * dt
            assert np.linalg.norm(gate - np.eye(4), 2) <= bound

    def test_zero_field_diagonal(self):
        J, dt = 1.0, 0.13
        gate = trotter_gate_first_order(J, 0.0, dt)
        phases = np.exp(-2j * J * dt * np.array([1, -1, -1, 1]))
        assert np.allclose(gate, np.diag(phases), atol=1e-12)

    def test_matches_exact_bond_exponential(self):
        got = trotter_gate_first_order(1.0, 0.2, 0.1)
        expected = qcore.two_site_exp(bond_hamiltonian(1.0, 0.2), 0.2)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_splitting_error_is_second_order(self):
        # splitting the bond generator into ZZ and field parts has O(dt^2)
        # error; our gate is the joint exponential
        J, g = 1.0, 0.2
        zz = J * np.kron(qcore.PAULI_Z, qcore.PAULI_Z)
        field = 0.5 * g * (
            np.kron(qcore.PAULI_X, np.eye(2)) + np.kron(np.eye(2), qcore.PAULI_X)
        )
        dts = np.array([0.2, 0.1, 0.05, 0.025])
        errs = []
        for dt in dts:
            split = expm(-2j * dt * zz) @ expm(-2j * dt * field)
            errs.append(np.linalg.norm(split - trotter_gate_first_order(J, g, dt), 2))
        assert abs(fit_exponent(dts, np.array(errs)) - 2.0) < 0.3


class TestTrotterSecondOrder:
    def test_small_step_identity(self):
        wo, we = trotter_gates_second_order(1.0, 0.2, 1e-4)
        assert np.linalg.norm(wo - np.eye(4), 2) < 1e-3
        assert np.linalg.norm(we - np.eye(4), 2) < 1e-3

    def test_zero_field_commuting_exact(self):
        J, dt = 1.0, 0.4
        wo, we = trotter_gates_second_order(J, 0.0, dt)
        total = wo @ we @ wo
        expected = expm(-2j * dt * J * np.kron(qcore.PAULI_Z, qcore.PAULI_Z))
        assert np.max(np.abs(total - expected)) < 1e-12

    def test_chain_error_is_third_order(self):
        # odd(dt/2) even(dt) odd(dt/2) brickwork vs exact exponential of the
        # summed bond generators on a 6-site open chain
        J, g, n = 1.0, 0.2, 6
        h2 = bond_hamiltonian(J, g)
        h_chain = sum(embed_bond_gate(h2, b, n) for b in range(n - 1))
        dts = np.array([0.5, 0.25, 0.125])
        errs = []
        for dt in dts:
            wo, we = trotter_gates_second_order(J, g, dt)
            odd_layer = np.eye(2**n, dtype=complex)
            for b in (1, 3):
                odd_layer = embed_bond_gate(wo, b, n) @ odd_layer
            even_layer = np.eye(2**n, dtype=complex)
            for b in (0, 2, 4):
                even_layer = embed_bond_gate(we, b, n) @ even_layer
            update = odd_layer @ even_layer @ odd_layer
            errs.append(np.linalg.norm(update - expm(-1j * dt * h_chain), 2))
        assert abs(fit_exponent(dts, np.array(errs)) - 3.0) < 0.3


class TestLoschmidtFreeFermion:
    def test_zero_time(self):
        assert abs(loschmidt_exact_ff(1.5, 0.2, 0.0)) < 1e-10

    def test_trivial_quench(self):
        for t in (0.5, 1.7, 3.0):
            assert abs(loschmidt_exact_ff(1.5, 1.5, t)) < 1e-12

    def test_critical_momentum_matches_root_finding(self):
        from scipy.optimize import brentq

        g0, g1 = 1.5, 0.2
        k_star = critical_momentum(g0, g1)

        def condition(k):
            return (g1 - np.cos(k)) * (g0 - np.cos(k)) + np.sin(k) ** 2

        k_root = brentq(condition, 1e-9, np.pi - 1e-9)
        assert abs(k_star - k_root) < 1e-10

    def test_cusp_time_matches_curve_maximum(self):
        t_star = cusp_times(1.5, 0.2, 2.0)[0]
        ts = np.linspace(t_star - 0.05, t_star + 0.05, 101)
        rates = loschmidt_exact_ff(1.5, 0.2, ts)
        t_peak = ts[np.argmax(rates)]
        assert abs(t_peak - t_star) < 2e-3

    def test_cusp_times_include_a_horizon_on_a_cusp(self):
        # both cusps of the reference quench by t = 3.0; a horizon equal to a
        # cusp lists it, one ulp below does not, and below the first gives none
        cusps = cusp_times(1.5, 0.2, 3.0)
        assert len(cusps) == 2
        assert abs(cusps[0] - 0.9167) < 1e-4 and abs(cusps[1] - 2.75) < 1e-4
        for n, cusp in enumerate(cusps):
            assert cusp_times(1.5, 0.2, cusp) == cusps[: n + 1]
            assert cusp_times(1.5, 0.2, np.nextafter(cusp, 0.0)) == cusps[:n]
        assert cusp_times(1.5, 0.2, 0.5) == []

    def test_no_critical_momentum_without_crossing(self):
        with pytest.raises(InvalidArgumentError):
            critical_momentum(1.5, 1.2)
        # a zero J or g0 + g1 leaves the crossing condition undefined
        for g0, g1, J in [(1.0, -1.0, 1.0), (1.5, 0.2, 0.0), (0.0, 0.0, 0.0)]:
            with pytest.raises(InvalidArgumentError, match="no critical momentum"):
                critical_momentum(g0, g1, J)
        with pytest.raises(InvalidArgumentError, match="no critical momentum"):
            cusp_times(1.0, -1.0, 2.5)

    def test_echo_grid_matches_quadrature(self):
        # the fixed grid is exact for the smooth periodic integrand away from
        # a cusp: scipy's adaptive quadrature of the same integral agrees
        def integrand(k, t):
            delta = tfim.bogoliubov_angle(k, 0.2) - tfim.bogoliubov_angle(k, 1.5)
            phase = np.exp(-2j * tfim.quasiparticle_energy(k, 0.2) * t)
            return np.log(abs(np.cos(delta) ** 2 + np.sin(delta) ** 2 * phase))

        for t in (0.3, 0.6, 1.5, 2.2):
            value, _ = quad(integrand, 0.0, np.pi, (t,), epsabs=1e-13, epsrel=0.0, limit=200)
            assert abs(loschmidt_exact_ff(1.5, 0.2, t) + value / np.pi) <= 1e-12

    @pytest.mark.parametrize("k_points", [0, 1, 63, 100.5, 4096.0, True, None])
    def test_oracles_reject_a_bad_k_points(self, k_points):
        # the grids are fixed, so any grid argument of old calls is bad; J is
        # keyword-only, so a positional one cannot run silently as J
        with pytest.raises(TypeError):
            loschmidt_exact_ff(1.5, 0.2, 1.0, k_points)
        with pytest.raises(TypeError):
            loschmidt_exact_ff(1.5, 0.2, 1.0, k_points=k_points)
        with pytest.raises(TypeError):
            ground_energy_density_ff(1.0, 1.5, k_points)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: loschmidt_exact_ff(1.5, 0.2, 1.0, J=0.0), "J must be nonzero"),
            (lambda: loschmidt_exact_ff(1.5 + 0.1j, 0.2, 1.0), "g0 must be finite"),
            (lambda: loschmidt_exact_ff(np.nan, 0.2, 1.0), "g0 must be finite"),
            (lambda: loschmidt_exact_ff(1.5, np.inf, 1.0), "g1 must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, 1.0, J=True), "J must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, 1.0, J="1"), "J must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, np.nan), "times must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, [0.5, np.inf]), "times must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, 1.0 + 0j), "times must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, "1"), "times must be finite"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, np.zeros((2, 3))), "scalar or 1-D"),
            (lambda: loschmidt_exact_ff(1.5, 0.2, [[1.0], [1.0, 2.0]]), "ragged"),
            (lambda: ground_energy_density_ff(1.0, 1.5 + 1j), "g must be finite"),
            (lambda: ground_energy_density_ff(1.0, np.nan), "g must be finite"),
            (lambda: ground_energy_density_ff(np.inf, 1.5), "J must be finite"),
            (lambda: ground_energy_density_ff(None, 1.5), "J must be finite"),
            (lambda: bond_hamiltonian(1.0, 1.5 + 1j), "g must be finite"),
            (lambda: bond_hamiltonian(1.0, np.nan), "g must be finite"),
            (lambda: bond_hamiltonian(True, 1.5), "J must be finite"),
            (lambda: trotter_gate_first_order(np.nan, 1.5, 0.1), "J must be finite"),
            (lambda: cusp_times(1.5 + 0j, 0.2, 2.5), "g0 must be finite"),
            (lambda: critical_momentum(np.nan, 0.2), "g0 must be finite"),
            (lambda: cusp_times(True, 0.2, 2.5), "g0 must be finite"),
            (lambda: critical_momentum(1.5, None), "g1 must be finite"),
            (lambda: critical_momentum(1.5, 0.2, J=np.inf), "J must be finite"),
        ],
        ids=[
            "ff-J-zero", "ff-g0-complex", "ff-g0-nan", "ff-g1-inf", "ff-J-bool",
            "ff-J-str", "ff-t-nan", "ff-t-inf-in-array", "ff-t-complex", "ff-t-str",
            "ff-t-2d", "ff-t-ragged",
            "e0-g-complex", "e0-g-nan", "e0-J-inf", "e0-J-none",
            "h2-g-complex", "h2-g-nan", "h2-J-bool", "gate1-J-nan",
            "cusp-g0-complex", "kstar-g0-nan", "cusp-g0-bool", "kstar-g1-none",
            "kstar-J-inf",
        ],
    )
    def test_oracles_reject_bad_couplings_and_times(self, call, match):
        # unchecked, J = 0 divides by zero, a complex field escapes as a numpy
        # TypeError or gives a wrong real energy, and a NaN gives a NaN rate;
        # a 2-D time array escaped as a numpy broadcast ValueError, and a
        # ragged one as numpy's inhomogeneous-shape ValueError;
        # the bond term took the real part of a complex field, and the Trotter
        # gates called a NaN coupling non-Hermitian;
        # the cusp times ran a bool field as 1 and called a NaN one a quench
        # without a transition
        with pytest.raises(InvalidArgumentError, match=match):
            call()

    def test_oracles_take_integer_couplings_and_times(self):
        assert loschmidt_exact_ff(2, 0, [1, 2], J=1).tolist() == (
            loschmidt_exact_ff(2.0, 0.0, [1.0, 2.0]).tolist()
        )
        assert ground_energy_density_ff(0, 2) == pytest.approx(-2.0, abs=1e-12)

    def test_energy_grid_matches_quadrature(self):
        # away from the critical field g = J the integrand is smooth and
        # periodic, and the trapezoid rule exact
        for g in (0.5, 1.5, 2.0):
            def integrand(k):
                return np.sqrt(1.0 + g**2 - 2.0 * g * np.cos(k))

            value, _ = quad(integrand, 0.0, np.pi, epsabs=1e-13, epsrel=0.0, limit=200)
            assert abs(ground_energy_density_ff(1.0, g) + value / np.pi) <= 1e-12

    @pytest.mark.parametrize("t_max", [np.inf, -np.inf, np.nan, True, 1 + 0j, "x"])
    def test_cusp_times_reject_a_non_finite_horizon(self, t_max):
        # a bool or complex horizon ran, and a string escaped as a TypeError
        with pytest.raises(InvalidArgumentError, match="t_max must be finite"):
            cusp_times(1.5, 0.2, t_max)


class TestLoschmidtExactDiagonalization:
    def test_zero_time(self):
        assert abs(loschmidt_exact_ed(REFERENCE_QUENCH, 8, 0.0)) < 1e-12

    def test_trivial_quench_stays_zero(self):
        spec = QuenchSpec(g0=1.5, g1=1.5)
        rates = loschmidt_exact_ed(spec, 8, np.linspace(0.0, 2.0, 9))
        assert np.max(np.abs(rates)) < 1e-10

    def test_cross_oracle_agreement_improves_with_size(self):
        ts = np.linspace(0.0, 1.85, 20)
        cusp = cusp_times(1.5, 0.2, 2.0)[0]
        mask = np.abs(ts - cusp) > 0.25
        ff = loschmidt_exact_ff(1.5, 0.2, ts)
        gap = {}
        for n in (8, 10):
            ed = loschmidt_exact_ed(REFERENCE_QUENCH, n, ts)
            gap[n] = np.max(np.abs(ed - ff)[mask])
        assert gap[10] < gap[8]
        assert gap[10] < 0.05
