import itertools

import numpy as np
import pytest

from quenchmps import tfim, transfer
from quenchmps.ansatz import AnsatzParams, tensor_of
from quenchmps.qcore import InvalidArgumentError, leading_eig, rot_gate
from quenchmps.transfer import (
    VEC_IDENTITY,
    cell_eigenvalue_gradient,
    join_strands,
    pair_cotangent,
    site_overlap_map,
    strand_products,
    transfer_matrix,
    window_ket,
    window_overlap_map,
)


def random_params(rng, scale=np.pi):
    return AnsatzParams(rng.uniform(-scale, scale, 15))


def identity_params():
    return AnsatzParams(np.zeros(15))


def cell_matrix(ket, b_bra):
    """Reference cell matrix of n sites, E[(a c), (a' c')] =
    sum_t K[t]_{a a'} conj(B-prod_t)_{c c'}, of the ket side ``ket`` (the tensor
    A itself for one site, :func:`window_ket` of n sites) and the bra tensor;
    the site count is read from ``len(ket)``. It is ``transfer_matrix`` for one
    site and the matrix of ``cell_eigenvalue_gradient`` for two."""
    pb = strand_products(b_bra, len(ket).bit_length() - 1)
    return transfer._cell_of_products(ket, pb.conj())


def leading_eigenvalue(e):
    """Leading eigenvalue of a mixed transfer matrix (the fidelity density)."""
    return leading_eig(e)[0]


class TestTransferMatrix:
    def test_identity_state_has_unit_eigenvalue(self):
        a = tensor_of(identity_params())
        lam = leading_eigenvalue(transfer_matrix(a, a))
        assert abs(lam - 1.0) < 1e-12

    def test_self_overlap_eigenvalue_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = tensor_of(random_params(rng))
            lam = leading_eigenvalue(transfer_matrix(a, a))
            assert abs(abs(lam) - 1.0) < 1e-10

    def test_bond_operators_vectorize_row_major(self):
        # X[b, d] sits at index 2b + d: E vec(X) = vec(sum_s A^s X (B^s)^dag)
        rng = np.random.default_rng(11)
        a, b, x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in [(2, 2, 2), (2, 2, 2), (2, 2)]
        )
        image = sum(a[s] @ x @ b[s].conj().T for s in range(2))
        e = transfer_matrix(a, b)
        assert np.max(np.abs(e @ x.reshape(-1) - image.reshape(-1))) < 1e-12
        column_stacked = e @ x.reshape(-1, order="F") - image.reshape(-1, order="F")
        assert np.max(np.abs(column_stacked)) > 1e-3
        assert np.array_equal(VEC_IDENTITY, np.eye(2).reshape(-1))

    def test_joined_strands_broadcast_over_a_stack(self):
        # P[2p + u] = then^u first^p, for each tensor of a stacked side
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        da = rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2))
        for first, then in [(a, da), (da, a)]:
            joined = join_strands(first, then)
            assert joined.shape == (3, 4, 2, 2)
            for k, p, u in itertools.product(range(3), range(2), range(2)):
                f = first[k] if first.ndim == 4 else first
                t = then[k] if then.ndim == 4 else then
                assert np.allclose(joined[k, 2 * p + u], t[u] @ f[p], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_cell_matrix_matches_explicit_string_sum(self, n_sites):
        # E = sum_t K[t] (x) conj(Pb_t), the bra products multiplied out string
        # by string; two sites carry a non-identity gate on the ket side
        rng = np.random.default_rng(19)
        a = tensor_of(random_params(rng))
        b = tensor_of(random_params(rng))
        gate = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        ket = a if n_sites == 1 else window_ket(a, gate)
        expected = np.zeros((4, 4), dtype=complex)
        for index, string in enumerate(itertools.product(range(2), repeat=n_sites)):
            pb = np.eye(2)
            for t in string:  # site 1 is the most significant bit and acts first
                pb = b[t] @ pb
            expected += np.kron(ket[index], pb.conj())
        assert np.max(np.abs(cell_matrix(ket, b) - expected)) < 1e-14

    def test_transfer_matrix_is_the_one_site_cell_matrix(self):
        # the same array as the n-site reference through one-site strand products
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = (
                rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
                for _ in range(2)
            )
            assert np.array_equal(transfer_matrix(a, b), cell_matrix(a, b))

    def test_identity_gate_cell_is_square_of_one_site(self):
        rng = np.random.default_rng(2)
        a = tensor_of(random_params(rng))
        b = tensor_of(random_params(rng))
        e1 = transfer_matrix(a, b)
        cell = cell_matrix(window_ket(a, np.eye(4)), b)
        assert np.max(np.abs(cell - e1 @ e1)) < 1e-12

    def test_distinct_states_decay_and_match_chain_contraction(self):
        rng = np.random.default_rng(4)
        a = tensor_of(random_params(rng))
        b = tensor_of(random_params(rng))
        e = transfer_matrix(a, b)
        lam = abs(leading_eigenvalue(e))
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
            a = tensor_of(random_params(rng))
            b = tensor_of(random_params(rng))
            for e in (transfer_matrix(a, b), cell_matrix(window_ket(a, g), b)):
                radius = np.max(np.abs(np.linalg.eigvals(e)))
                assert radius <= 1.0 + 1e-9

    def test_rejects_bad_shapes(self):
        a = tensor_of(identity_params())
        with pytest.raises(InvalidArgumentError):
            transfer_matrix(a[0], a)
        # a layer is a 2**n x 2**n square with n >= 1 sites; one site is A itself
        assert np.array_equal(window_ket(a, np.eye(2)), a)
        bad_layers = [np.eye(1), np.eye(3), np.eye(8)[:4], np.ones(4), np.ones((2, 4, 4))]
        for layer in bad_layers:
            with pytest.raises(InvalidArgumentError, match=r"2\*\*n x 2\*\*n square"):
                window_ket(a, layer)


    def test_identity_is_exact_left_eigenvector_for_isometric_tensors(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = tensor_of(random_params(rng))
            assert np.max(np.abs(VEC_IDENTITY @ transfer_matrix(a, a) - VEC_IDENTITY)) < 1e-12


class TestStrandProducts:
    def test_site_one_is_most_significant_and_rightmost(self):
        rng = np.random.default_rng(15)
        a = tensor_of(random_params(rng))
        two, three = strand_products(a, 2), strand_products(a, 3)
        assert two.shape == (4, 2, 2) and three.shape == (8, 2, 2)
        for s1 in range(2):
            for s2 in range(2):
                assert np.max(np.abs(two[2 * s1 + s2] - a[s2] @ a[s1])) < 1e-15
                for s3 in range(2):
                    expected = a[s3] @ a[s2] @ a[s1]
                    assert np.max(np.abs(three[4 * s1 + 2 * s2 + s3] - expected)) < 1e-15

    @pytest.mark.parametrize("n_sites", [4, 5])
    def test_long_strands_match_explicit_products(self, n_sites):
        # every site after the first joins the strand in turn
        rng = np.random.default_rng(18)
        a = tensor_of(random_params(rng))
        prods = strand_products(a, n_sites)
        assert prods.shape == (2**n_sites, 2, 2)
        for index, string in enumerate(itertools.product(range(2), repeat=n_sites)):
            expected = np.eye(2)
            for s in string:  # site 1 is the most significant bit and acts first
                expected = a[s] @ expected
            assert np.max(np.abs(prods[index] - expected)) < 1e-15

    def test_empty_strand_rejected(self):
        a = tensor_of(identity_params())
        with pytest.raises(InvalidArgumentError, match="at least one site"):
            strand_products(a, 0)

    def test_stack_rows_equal_single_tensors(self):
        rng = np.random.default_rng(16)
        stack = tensor_of(rng.uniform(-np.pi, np.pi, (3, 15)))
        ket = window_ket(stack[0], np.eye(16))
        window = window_overlap_map(ket, stack)
        for n_sites in (1, 2, 3, 4):
            prods = strand_products(stack, n_sites)
            assert prods.shape == (3, 2**n_sites, 2, 2)
            for row, a in zip(prods, stack):
                assert np.array_equal(row, strand_products(a, n_sites))
        assert window.shape == (3, 2, 2)
        for row, b in zip(window, stack):
            assert np.array_equal(row, window_overlap_map(ket, b))


class TestCellEigenvalueGradient:
    def test_value_is_the_leading_cell_eigenvalue(self):
        rng = np.random.default_rng(17)
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        for _ in range(10):
            ket = window_ket(tensor_of(random_params(rng)), g)
            b = tensor_of(random_params(rng))
            lam, dlam = cell_eigenvalue_gradient(ket, b, np.zeros((3, 2, 2, 2)))
            evals = np.linalg.eigvals(cell_matrix(ket, b))
            assert abs(lam - evals[np.argmax(np.abs(evals))]) < 1e-12
            assert dlam.shape == (3,) and np.all(dlam == 0.0)


class TestPairCotangent:
    @pytest.mark.parametrize("trailing", [(), (2,)])
    def test_polarization_identity(self, trailing):
        # sum <dv, g> = sum <dB, e> for the tangent dv = join(dB, B) + join(B, dB)
        # of the products v = join(B, B), summed over all but the trailing axes,
        # to 1e-14 relative to the sum
        rng = np.random.default_rng(23)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(20):
            b, db, g = draw(2, 2, 2), draw(2, 2, 2), draw(4, 2, 2, *trailing)
            dv = join_strands(db, b) + join_strands(b, db)
            e = pair_cotangent(b, g)
            assert e.shape == (2, 2, 2) + trailing
            lhs = np.tensordot(dv, g, axes=3)
            rhs = np.tensordot(db, e, axes=3)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


class TestFidelityDensity:
    def test_gauge_invariance_either_argument(self):
        # a bond gauge A^s -> g A^s g^dag is a similarity transform of E
        def gauged(a, theta):
            g = rot_gate("X", theta)
            return np.einsum("ij,sjk,kl->sil", g, a, g.conj().T)

        rng = np.random.default_rng(6)
        for _ in range(25):
            a = tensor_of(random_params(rng))
            b = tensor_of(random_params(rng))
            theta = rng.uniform(-np.pi, np.pi)
            base = abs(leading_eigenvalue(transfer_matrix(a, b)))
            rot_ket = abs(leading_eigenvalue(transfer_matrix(gauged(a, theta), b)))
            rot_bra = abs(leading_eigenvalue(transfer_matrix(a, gauged(b, theta))))
            assert abs(base - rot_ket) < 1e-10
            assert abs(base - rot_bra) < 1e-10

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = transfer_matrix(
                tensor_of(random_params(rng)), tensor_of(random_params(rng))
            )
            lam = leading_eigenvalue(e)
            expected = np.max(np.abs(np.linalg.eigvals(e)))
            assert abs(abs(lam) - expected) < 1e-10


class TestOverlapMaps:
    def test_window_matches_nested_cells(self):
        rng = np.random.default_rng(12)
        a = tensor_of(random_params(rng))
        b = tensor_of(random_params(rng))
        g = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        layer = np.kron(g, g)
        eye = np.eye(2, dtype=complex)

        def cell(m):
            # the incoming bond operator folds into the ket side as M @ K[t]
            return window_overlap_map(m @ window_ket(a, g), b)

        window = window_overlap_map(window_ket(a, layer), b)
        assert np.max(np.abs(window - cell(cell(eye)))) < 1e-12

    def test_site_map_against_vec_contraction(self):
        rng = np.random.default_rng(13)
        a = tensor_of(random_params(rng))
        b = tensor_of(random_params(rng))
        e = transfer_matrix(a, b)
        m = np.eye(2, dtype=complex)
        for n in range(1, 6):
            m = site_overlap_map(m, a, b)
            expected = VEC_IDENTITY.conj() @ np.linalg.matrix_power(e, n) @ VEC_IDENTITY
            assert abs(np.trace(m) - expected) < 1e-12
