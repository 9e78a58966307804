import numpy as np
import pytest

from quenchmps import ansatz, qcore, tfim, transfer
from quenchmps.ansatz import FULL15, REDUCED8, AnsatzParams, tensor_of, x_gauge_rotate
from quenchmps.qcore import InvalidArgumentError
from quenchmps.transfer import (
    VEC_IDENTITY,
    DegenerateEstimateError,
    approx_fixed_points,
    fidelity_density,
    power_method_ratio,
    site_overlap_map,
    strand_products,
    transfer_matrix,
    window_ket,
    window_overlap_map,
)


def random_reduced(rng, scale=np.pi):
    return AnsatzParams(REDUCED8, rng.uniform(-scale, scale, 8))


def identity_params():
    return AnsatzParams(FULL15, np.zeros(15))


class TestTransferMatrix:
    def test_identity_state_has_unit_eigenvalue(self):
        a = tensor_of(identity_params())
        lam = fidelity_density(transfer_matrix(a, a))
        assert abs(lam - 1.0) < 1e-12

    def test_self_overlap_eigenvalue_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = tensor_of(random_reduced(rng))
            lam = fidelity_density(transfer_matrix(a, a))
            assert abs(abs(lam) - 1.0) < 1e-10

    def test_identity_gate_cell_is_square_of_one_site(self):
        rng = np.random.default_rng(2)
        a = tensor_of(random_reduced(rng))
        b = tensor_of(random_reduced(rng))
        e1 = transfer_matrix(a, b).E
        cell = transfer_matrix(a, b, np.eye(4)).E
        assert np.max(np.abs(cell - e1 @ e1)) < 1e-12

    def test_annotations(self):
        rng = np.random.default_rng(3)
        a = tensor_of(random_reduced(rng))
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        w_o, w_e = tfim.trotter_gates_second_order(1.0, 0.2, 0.5)
        assert transfer_matrix(a, a).annotation == "identity"
        assert transfer_matrix(a, a, g).annotation == "first-order"
        assert transfer_matrix(a, a, (w_o, w_e)).annotation == "second-order"

    def test_distinct_states_decay_and_match_chain_contraction(self):
        rng = np.random.default_rng(4)
        a = tensor_of(random_reduced(rng))
        b = tensor_of(random_reduced(rng))
        e = transfer_matrix(a, b).E
        lam = abs(fidelity_density(e))
        assert lam < 1.0
        # brute-force statevector-style oracle at small n: explicit string sum
        for n_sites in (3, 5):
            pa = strand_products(a, n_sites)
            pb = strand_products(b, n_sites)
            overlap = np.einsum("sab,sab->", pa, pb.conj())
            expected = VEC_IDENTITY.conj() @ np.linalg.matrix_power(e, n_sites) @ VEC_IDENTITY
            assert abs(overlap - expected) < 1e-12
        # per-cell overlap density approaches |lambda| from below as n grows
        gaps = []
        for n_sites in (5, 10, 20):
            m = np.eye(2, dtype=complex)
            for _ in range(n_sites):
                m = site_overlap_map(m, a, b)
            gaps.append(abs(abs(np.trace(m)) ** (1.0 / n_sites) - lam))
        assert gaps[2] < gaps[0]

    def test_spectral_radius_bounded_for_isometric_strands(self):
        rng = np.random.default_rng(5)
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        for _ in range(50):
            a = tensor_of(random_reduced(rng))
            b = tensor_of(random_reduced(rng))
            for gate in (None, g):
                radius = np.max(np.abs(np.linalg.eigvals(transfer_matrix(a, b, gate).E)))
                assert radius <= 1.0 + 1e-9

    def test_rejects_bad_shapes(self):
        a = tensor_of(identity_params())
        with pytest.raises(InvalidArgumentError):
            transfer_matrix(a[0], a)
        with pytest.raises(InvalidArgumentError):
            transfer_matrix(a, a, np.eye(2))


class TestFidelityDensity:
    def test_gauge_invariance_either_argument(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            p = random_reduced(rng)
            q = random_reduced(rng)
            theta = rng.uniform(-np.pi, np.pi)
            base = abs(fidelity_density(transfer_matrix(tensor_of(p), tensor_of(q))))
            rot_ket = abs(
                fidelity_density(
                    transfer_matrix(tensor_of(x_gauge_rotate(p, theta)), tensor_of(q))
                )
            )
            rot_bra = abs(
                fidelity_density(
                    transfer_matrix(tensor_of(p), tensor_of(x_gauge_rotate(q, theta)))
                )
            )
            assert abs(base - rot_ket) < 1e-10
            assert abs(base - rot_bra) < 1e-10

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = transfer_matrix(
                tensor_of(random_reduced(rng)), tensor_of(random_reduced(rng))
            ).E
            lam = fidelity_density(e)
            expected = np.max(np.abs(np.linalg.eigvals(e)))
            assert abs(abs(lam) - expected) < 1e-10


class TestApproxFixedPoints:
    def test_identity_state_boundaries(self):
        fp = approx_fixed_points(identity_params())
        assert np.allclose(fp.left, VEC_IDENTITY, atol=1e-12)
        assert np.allclose(fp.right, VEC_IDENTITY, atol=1e-12)

    def test_left_equals_explicit_double_application(self):
        rng = np.random.default_rng(8)
        p = random_reduced(rng)
        a = tensor_of(p)
        e = transfer_matrix(a, a).E
        expected = (e.conj().T @ (e.conj().T @ VEC_IDENTITY)).conj()
        fp = approx_fixed_points(p)
        assert np.max(np.abs(fp.left - expected)) < 1e-12
        # left-isometry makes both legs exact identities
        assert np.max(np.abs(fp.left - VEC_IDENTITY)) < 1e-12

    def test_boundary_overlap_real_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            fp = approx_fixed_points(random_reduced(rng))
            overlap = fp.left @ fp.right
            assert abs(overlap.imag) < 1e-12
            assert overlap.real > 0.0


class TestPowerMethodRatio:
    def test_identity_transfer_gives_one(self):
        fp = approx_fixed_points(identity_params())
        for n in (1, 2, 3):
            assert abs(power_method_ratio(np.eye(4, dtype=complex), fp, n) - 1.0) < 1e-12

    def test_exact_eigenvectors_make_order_one_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            evals, right = np.linalg.eig(m)
            _, left = np.linalg.eig(m.conj().T)
            k = int(np.argmax(np.abs(evals)))
            lam = evals[k]
            lk = int(np.argmin(np.abs(np.linalg.eigvals(m.conj().T).conj() - lam)))
            fp = transfer.FixedPointPair(
                left=left[:, lk].conj(), right=right[:, k]
            )
            ratio = power_method_ratio(m, fp, 1)
            assert abs(ratio - lam) < 1e-10 * max(1.0, abs(lam))

    @pytest.mark.parametrize("seed", [2, 7, 13])
    def test_error_decreases_with_order(self, seed):
        rng = np.random.default_rng(seed)
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        p = AnsatzParams(REDUCED8, rng.uniform(-1.5, 1.5, 8))
        w = p.replace_angles(p.angles + 0.05 * rng.standard_normal(8))
        e = transfer_matrix(tensor_of(p), tensor_of(w), g).E
        fp = approx_fixed_points(p)
        lam, _ = qcore.leading_eig(e)
        errs = [abs(power_method_ratio(e, fp, n) - lam) for n in (1, 2, 3, 4)]
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_higher_order_usually_improves_in_physical_regime(self):
        # only a typical-case property: individual states can buck the trend
        rng = np.random.default_rng(11)
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        improved, n_monotone = 0, 0
        trials = 20
        for _ in range(trials):
            p = AnsatzParams(REDUCED8, rng.uniform(-1.5, 1.5, 8))
            w = p.replace_angles(p.angles + 0.05 * rng.standard_normal(8))
            e = transfer_matrix(tensor_of(p), tensor_of(w), g).E
            fp = approx_fixed_points(p)
            lam, _ = qcore.leading_eig(e)
            errs = [abs(power_method_ratio(e, fp, n) - lam) for n in (1, 2, 3, 4)]
            improved += errs[3] <= errs[0]
            n_monotone += all(errs[i + 1] <= errs[i] * 1.02 for i in range(3))
        assert improved >= 0.7 * trials
        assert n_monotone >= 0.5 * trials

    def test_vanishing_denominator_raises(self):
        fp = transfer.FixedPointPair(
            left=np.array([0.0, 1.0, 1.0, 0.0], dtype=complex),
            right=VEC_IDENTITY.copy(),
        )
        with pytest.raises(DegenerateEstimateError):
            power_method_ratio(np.eye(4, dtype=complex), fp, 1)


class TestOverlapMaps:
    def test_window_matches_nested_cells(self):
        rng = np.random.default_rng(12)
        a = tensor_of(random_reduced(rng))
        b = tensor_of(random_reduced(rng))
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        layer = np.kron(g, g)
        eye = np.eye(2, dtype=complex)

        def cell(m):
            # the incoming bond operator folds into the ket side as M @ K[t]
            return window_overlap_map(m @ window_ket(a, g, 2), b)

        window = window_overlap_map(window_ket(a, layer, 4), b)
        assert np.max(np.abs(window - cell(cell(eye)))) < 1e-12

    def test_site_map_against_vec_contraction(self):
        rng = np.random.default_rng(13)
        a = tensor_of(random_reduced(rng))
        b = tensor_of(random_reduced(rng))
        e = transfer_matrix(a, b).E
        m = np.eye(2, dtype=complex)
        for n in range(1, 6):
            m = site_overlap_map(m, a, b)
            expected = VEC_IDENTITY.conj() @ np.linalg.matrix_power(e, n) @ VEC_IDENTITY
            assert abs(np.trace(m) - expected) < 1e-12
