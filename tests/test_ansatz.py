import numpy as np
import pytest
import scipy.linalg

from quenchmps import ansatz, qcore
from quenchmps.ansatz import (
    FULL15,
    REDUCED8,
    AnsatzParams,
    AmbiguousGaugeError,
    build_unitary,
    euler_zxz,
    match_gauge,
    mixed_transfer_1site,
    mps_tensor,
    reduced_to_full,
    reparametrise,
    site_kraus,
    tensor_of,
    x_gauge_rotate,
)
from quenchmps.qcore import InvalidArgumentError, rot_gate


def random_params(template, rng, scale=np.pi):
    n = 8 if template == REDUCED8 else 15
    return AnsatzParams(template, rng.uniform(-scale, scale, n))


def left_isometry_defect(a):
    return np.max(np.abs(np.einsum("sab,sac->bc", a.conj(), a) - np.eye(2)))


class TestBuildUnitary:
    def test_full15_zero_angles_is_identity(self):
        u = build_unitary(AnsatzParams(FULL15, np.zeros(15)))
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_reduced8_zero_angles_is_bare_entangler(self):
        # all rotations vanish; the fixed pi/4 ZZ entangler remains
        u = build_unitary(AnsatzParams(REDUCED8, np.zeros(8)))
        entangler_zz = np.diag(np.exp(-0.25j * np.pi * np.array([1, -1, -1, 1])))
        assert np.allclose(u, entangler_zz, atol=1e-14)

    @pytest.mark.parametrize("template", [REDUCED8, FULL15])
    def test_unitary_for_random_angles(self, template):
        rng = np.random.default_rng(1)
        for _ in range(30):
            u = build_unitary(random_params(template, rng))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_wrong_angle_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AnsatzParams(REDUCED8, np.zeros(15))
        with pytest.raises(InvalidArgumentError):
            AnsatzParams(FULL15, np.zeros(8))

    def test_template_nesting_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(REDUCED8, rng)
            u_red = build_unitary(p)
            u_full = build_unitary(reduced_to_full(p))
            fidelity = abs(np.trace(u_full.conj().T @ u_red)) / 4.0
            assert abs(fidelity - 1.0) < 1e-10

    def test_matches_product_formula_oracle(self):
        # the module docstring's definitions, from rot_gate, kron and expm
        def zxz(first, mid, last):
            return rot_gate("Z", last) @ rot_gate("X", mid) @ rot_gate("Z", first)

        def pauli2(p):
            return np.kron(p, p)

        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(-2 * np.pi, 2 * np.pi, 15)
            gen = a[6] * pauli2(qcore.PAULI_X) + a[7] * pauli2(qcore.PAULI_Y)
            gen = gen + a[8] * pauli2(qcore.PAULI_Z)
            expected = (
                np.kron(zxz(*a[9:12]), zxz(*a[12:15]))
                @ scipy.linalg.expm(-1j * gen)
                @ np.kron(zxz(*a[0:3]), zxz(*a[3:6]))
            )
            got = build_unitary(AnsatzParams(FULL15, a))
            assert np.max(np.abs(got - expected)) < 1e-12
            r = a[:8]
            expected = (
                np.kron(rot_gate("X", r[6]), rot_gate("X", r[7]))
                @ scipy.linalg.expm(-0.25j * np.pi * pauli2(qcore.PAULI_Z))
                @ np.kron(zxz(r[2], r[3], r[5]), zxz(r[0], r[1], r[4]))
            )
            got = build_unitary(AnsatzParams(REDUCED8, r))
            assert np.max(np.abs(got - expected)) < 1e-12


class TestMpsTensor:
    def test_identity_unitary(self):
        a = mps_tensor(np.eye(4, dtype=complex))
        assert np.allclose(a[0], np.eye(2), atol=1e-14)
        assert np.allclose(a[1], np.zeros((2, 2)), atol=1e-14)

    def test_x_on_physical(self):
        a = mps_tensor(np.kron(qcore.PAULI_X, np.eye(2)))
        assert np.allclose(a[0], np.zeros((2, 2)), atol=1e-14)
        assert np.allclose(a[1], np.eye(2), atol=1e-14)

    def test_left_isometry_for_random_unitaries(self):
        rng = np.random.default_rng(3)
        for template in (REDUCED8, FULL15):
            for _ in range(20):
                a = tensor_of(random_params(template, rng))
                assert left_isometry_defect(a) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidArgumentError):
            mps_tensor(np.ones((4, 4), dtype=complex))


class TestEulerZxz:
    def test_round_trip_including_edges(self):
        rng = np.random.default_rng(4)
        for i in range(500):
            if i % 25 == 0:
                mid = float(rng.choice([0.0, np.pi, -np.pi, 2 * np.pi]))
                trip = (rng.uniform(-8, 8), mid, rng.uniform(-8, 8))
            else:
                trip = tuple(rng.uniform(-8, 8, 3))
            w = np.exp(1j * rng.uniform(-np.pi, np.pi)) * ansatz._zxz(*trip)
            f, m, l, phase = euler_zxz(w)
            recon = np.exp(1j * phase) * ansatz._zxz(f, m, l)
            assert np.max(np.abs(recon - w)) < 1e-9


class TestXGauge:
    def test_zero_angle_is_identity_map(self):
        rng = np.random.default_rng(5)
        p = random_params(REDUCED8, rng)
        p2 = x_gauge_rotate(p, 0.0)
        assert np.allclose(
            build_unitary(p2), build_unitary(p), atol=1e-12
        )

    def test_full_turn_shifts_phi7_only_state_identical(self):
        rng = np.random.default_rng(6)
        p = random_params(REDUCED8, rng)
        p2 = x_gauge_rotate(p, 2 * np.pi)
        assert p2.angles[7] == pytest.approx(p.angles[7] - 2 * np.pi)
        e = mixed_transfer_1site(tensor_of(p), tensor_of(p2))
        lam, _ = qcore.leading_eig(e)
        assert abs(abs(lam) - 1.0) < 1e-10

    def test_tensors_transform_by_bond_conjugation(self):
        rng = np.random.default_rng(7)
        p = random_params(REDUCED8, rng)
        theta = 1.234
        g = qcore.rot_gate("X", -theta)
        expected = np.einsum("ij,sjk,kl->sil", g, tensor_of(p), g.conj().T)
        assert np.max(np.abs(tensor_of(x_gauge_rotate(p, theta)) - expected)) < 1e-10

    def test_gauge_invariance_of_mixed_eigenvalue(self):
        # exact for the x axis: |lambda| = 1 for all params and angles
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_params(REDUCED8, rng)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            e = mixed_transfer_1site(tensor_of(p), tensor_of(x_gauge_rotate(p, theta)))
            lam, _ = qcore.leading_eig(e)
            assert abs(abs(lam) - 1.0) < 1e-10

    def test_rejects_full15(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidArgumentError):
            x_gauge_rotate(random_params(FULL15, rng), 0.3)


class TestMatchGauge:
    def test_self_match_is_identity_up_to_phase(self):
        rng = np.random.default_rng(10)
        p = random_params(REDUCED8, rng)
        gauge, residual = match_gauge(p, p)
        phase = gauge[0, 0] / abs(gauge[0, 0])
        assert np.max(np.abs(gauge / phase - np.eye(2))) < 1e-8
        assert residual < 1e-10

    def test_recovers_x_gauge_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(REDUCED8, rng)
            theta = rng.uniform(-np.pi, np.pi)
            gauge, residual = match_gauge(p, x_gauge_rotate(p, theta))
            rx = qcore.rot_gate("X", theta)
            phase = gauge[0, 0] / rx[0, 0]
            assert abs(abs(phase) - 1.0) < 1e-8
            assert np.max(np.abs(gauge - phase * rx)) < 1e-8
            assert residual < 1e-10

    def test_residual_matches_dense_eigensolver(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            pa = random_params(REDUCED8, rng)
            pb = random_params(REDUCED8, rng)
            e = mixed_transfer_1site(tensor_of(pa), tensor_of(pb))
            expected = 1.0 - np.max(np.abs(np.linalg.eigvals(e)))
            _, residual = match_gauge(pa, pb)
            assert abs(residual - expected) < 1e-10

    def test_degenerate_leading_eigenvalue_raises(self):
        # a near-product state has a (numerically) degenerate top eigenvalue
        p = AnsatzParams(REDUCED8, np.zeros(8))
        with pytest.raises(AmbiguousGaugeError) as excinfo:
            match_gauge(p, p)
        assert len(excinfo.value.eigenvalues) == 2


class TestReparametrise:
    def test_trivial_target_returns_same_params(self):
        rng = np.random.default_rng(13)
        p = random_params(REDUCED8, rng)
        p2, defect = reparametrise(p, p.angles[7])
        assert np.allclose(p2.angles, p.angles, atol=1e-12)
        assert defect < 1e-12

    def test_defect_small_for_small_shifts(self):
        # the tight sub-1.5% bound over full sweeps holds on quench-trajectory
        # states (exercised in the acceptance suite); generic random states
        # only stay close for moderate shifts
        rng = np.random.default_rng(14)
        p = AnsatzParams(REDUCED8, 0.4 * rng.standard_normal(8))
        a_old = tensor_of(p)
        for shift in (0.05, 0.15, 0.3, -0.2):
            p2, defect = reparametrise(p, p.angles[7] + shift)
            assert p2.angles[7] == pytest.approx(p.angles[7] + shift)
            assert 0.0 <= defect < 0.02
            # the solved condition: real diagonal of the overlap Kraus near 1
            k = site_kraus(a_old, tensor_of(p2))
            assert abs(k[0, 0].real - 1.0) + abs(k[1, 1].real - 1.0) < 0.05

    def test_full_sweep_on_gentle_state_stays_below_paper_bound(self):
        rng = np.random.default_rng(0)
        _ = rng.uniform(-np.pi, np.pi, 8)
        p = AnsatzParams(REDUCED8, 0.3 * rng.standard_normal(8))
        defects = [
            reparametrise(p, p.angles[7] + s)[1]
            for s in np.linspace(0.0, 2 * np.pi, 9)
        ]
        assert max(defects) < 0.015

    def test_rejects_full15(self):
        rng = np.random.default_rng(15)
        with pytest.raises(InvalidArgumentError):
            reparametrise(random_params(FULL15, rng), 0.1)


class TestSiteKraus:
    def test_identity_for_identical_params(self):
        rng = np.random.default_rng(16)
        for template in (REDUCED8, FULL15):
            a = tensor_of(random_params(template, rng))
            assert np.max(np.abs(site_kraus(a, a) - np.eye(2))) < 1e-12
