import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import _umath_linalg

from quenchmps import qcore
from quenchmps.circuits import CircuitOp, CostCircuit, exact_success_probability
from quenchmps.qcore import (
    IDENTITY_2,
    InvalidArgumentError,
    NumericFailure,
    PAULI_X,
    PAULI_Z,
    apply_gate,
    eigenvalues,
    leading_eig,
    rot_gate,
    two_site_exp,
    zero_state,
)
from conftest import random_state, random_unitary, unitarity_defect


def series_exp(a, terms=20):
    """Plain truncated series oracle for exp(a), independent of the
    scaling-and-squaring implementation."""
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        result = result + term
    return result


def charpoly_roots(m):
    """Quartic characteristic polynomial oracle: coefficients from explicit
    determinant expansion over permutations, roots from numpy."""
    import itertools

    n = m.shape[0]
    # det(x I - m) expanded symbolically in x by brute force over permutations
    coeffs = np.zeros(n + 1, dtype=complex)
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = [False] * n
        for i in range(n):  # permutation sign by cycle decomposition
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # product over i of (x*delta - m)[i, perm[i]] as a polynomial in x
        poly = np.array([1.0 + 0j])
        for i in range(n):
            if perm[i] == i:
                factor = np.array([1.0, -m[i, i]])
            else:
                factor = np.array([-m[i, perm[i]]])
            poly = np.convolve(poly, factor)
        coeffs[n + 1 - len(poly):] += sign * poly
    return np.roots(coeffs)


class TestRotGate:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rot_gate("Z", 0.0), np.eye(2), atol=1e-14)

    def test_full_turn_is_minus_identity(self):
        assert np.allclose(rot_gate("X", 2 * np.pi), -np.eye(2), atol=1e-12)

    def test_z_quarter_turn_closed_form(self):
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        assert np.allclose(rot_gate("Z", np.pi / 2), expected, atol=1e-14)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_unitary(self, axis):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(-10, 10, size=20):
            assert unitarity_defect(rot_gate(axis, angle)) < 1e-10

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(InvalidArgumentError):
            rot_gate("X", np.nan)
        with pytest.raises(InvalidArgumentError):
            rot_gate("Q", 0.1)

    @pytest.mark.parametrize("angle", [1j, 0.1 + 0j, True, np.True_, "x", None])
    def test_rejects_an_angle_that_is_not_a_finite_real(self, angle):
        # a complex angle gave a non-unitary gate (defect 1.18 at 1j), a bool
        # ran as 1 rad, and a string or None escaped as a numpy TypeError
        with pytest.raises(InvalidArgumentError, match="angle must be finite and real"):
            rot_gate("X", angle)


class TestTwoSiteExp:
    def test_zero_time_is_identity(self):
        h = np.kron(PAULI_Z, PAULI_Z)
        assert np.allclose(two_site_exp(h, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_generator_closed_form(self):
        tau = 0.37
        got = two_site_exp(np.kron(PAULI_Z, PAULI_Z), tau)
        expected = np.diag(np.exp(-1j * tau * np.array([1, -1, -1, 1])))
        assert np.allclose(got, expected, atol=1e-12)

    def test_against_series_oracle(self):
        h = np.kron(PAULI_Z, PAULI_Z) + 0.5 * (
            np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X)
        )
        got = two_site_exp(h, 0.1)
        expected = series_exp(-1j * 0.1 * h)
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_unitary_for_random_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = z + z.conj().T
            u = two_site_exp(h, rng.uniform(0.01, 3.0))
            assert unitarity_defect(u) < 1e-10

    def test_takes_integer_and_numpy_time_steps(self):
        h = np.kron(PAULI_Z, PAULI_Z) + 0.1 * np.kron(PAULI_X, np.eye(2))
        for tau in (2, np.int64(2), np.float64(2.0)):
            assert np.array_equal(two_site_exp(h, tau), two_site_exp(h, 2.0))


# the two geev front ends, which both raise this on a zgeev that does not converge
EIGENSOLVERS = (leading_eig, eigenvalues)
GEEV_FAILED = "eigensolver failed (geev did not converge)"


def geev_not_converged(out):
    """What the geev gufuncs return when LAPACK's zgeev does not converge:
    NaN in every output, in the shapes of the real output ``out``."""
    if isinstance(out, tuple):
        return tuple(np.full_like(a, np.nan) for a in out)
    return np.full_like(out, np.nan)


def assert_matches_scipy_eig(m):
    """:func:`leading_eig`'s pair against ``scipy.linalg.eig`` with both
    eigenvectors: lambda, the right vector and the left row vector l^dag agree
    to 1e-12, the vectors up to phase."""
    lam, right, left = leading_eig(m)
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    k = np.argmax(np.abs(w))
    assert abs(lam - w[k]) <= 1e-12
    for got, want in ((right, vr[:, k]), (left, vl[:, k].conj())):
        phase = np.vdot(want, got)
        assert np.linalg.norm(got - phase / abs(phase) * want) <= 1e-12


class TestLeadingEig:
    def test_identity(self):
        lam, v, _ = leading_eig(np.eye(4, dtype=complex))
        assert abs(lam - 1.0) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_diagonal(self):
        lam, v, _ = leading_eig(np.diag([2.0, 1.0, 0.5, 0.1]).astype(complex))
        assert abs(lam - 2.0) < 1e-10
        assert abs(abs(v[0]) - 1.0) < 1e-8

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam, _, _ = leading_eig(m)
            roots = charpoly_roots(m)
            expected = roots[np.argmax(np.abs(roots))]
            assert abs(lam - expected) < 1e-8 * max(1.0, abs(expected))

    def test_residual_bound_on_seeded_ensemble(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam, v, _ = leading_eig(m)
            residual = np.linalg.norm(m @ v - lam * v)
            assert residual < 1e-9 * np.linalg.norm(m, ord=np.inf)

    def test_left_eigenvector(self):
        # the row vector l^dag of the same eigenvalue: l^dag m = lam l^dag
        rng = np.random.default_rng(24)
        for _ in range(200):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam, right, left = leading_eig(m)
            assert np.linalg.norm(left @ m - lam * left) <= 1e-12 * np.linalg.norm(m)
            assert abs(np.linalg.norm(left) - 1.0) < 1e-12
            assert abs(np.linalg.norm(right) - 1.0) < 1e-12

    def test_sizes_2_4_and_16_solve(self):
        for n in (2, 4, 16):
            m = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
            lam, v, _ = leading_eig(m)
            assert abs(lam - n) < 1e-12 and abs(abs(v[-1]) - 1.0) < 1e-12

    def test_residual_check_fires_on_a_corrupted_pair(self, monkeypatch):
        real_geev = qcore._geev

        def corrupted(m, vectors):
            w, v = real_geev(m, vectors)
            return w, np.roll(v, 1, axis=0)

        monkeypatch.setattr(qcore, "_geev", corrupted)
        m = np.diag([2.0, 1.0, 0.5, 0.1]).astype(complex)
        with pytest.raises(NumericFailure, match="did not converge") as err:
            leading_eig(m)
        residual = float(re.search(r"residual (\S+)\)", str(err.value)).group(1))
        assert residual > 1e-9 * np.linalg.norm(m, ord=np.inf)

    def test_geev_failure_raises(self, monkeypatch):
        real_geev = qcore._geev

        def not_converged(m, vectors):
            return geev_not_converged(real_geev(m, vectors))

        monkeypatch.setattr(qcore, "_geev", not_converged)
        for solve in EIGENSOLVERS:
            with pytest.raises(NumericFailure, match=re.escape(GEEV_FAILED)):
                solve(np.eye(4, dtype=complex))

    def test_non_converged_gufunc_raises_no_warning(self, monkeypatch):
        # the gufuncs' failure: NaN outputs and the invalid flag, raised here by
        # inf - inf; with every warning an error, a flag that escaped the front
        # ends would raise RuntimeWarning instead of NumericFailure
        def nan_like(m):
            return np.subtract(np.full(len(m), np.inf), np.inf).astype(complex)

        gufuncs = SimpleNamespace(
            eigvals=lambda m, signature: nan_like(m),
            eig=lambda m, signature: (nan_like(m), np.outer(nan_like(m), nan_like(m))),
            solve1=_umath_linalg.solve1,
        )
        monkeypatch.setattr(qcore, "_umath_linalg", gufuncs)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            gufuncs.eigvals(np.eye(4), signature="D->D")
        for solve in EIGENSOLVERS:
            with pytest.raises(NumericFailure, match=re.escape(GEEV_FAILED)):
                solve(np.eye(4, dtype=complex))

    def test_singular_eigenvectors_raise(self):
        # a nilpotent Jordan block: zgeev's two right vectors agree but for a
        # last entry of 1e-292, so the left vector's |u| overflows
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NumericFailure, match="singular eigenvectors"):
            leading_eig(m)

    def test_matches_scipy_eig_up_to_phase(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            assert_matches_scipy_eig(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )


class TestEigenvalues:
    def test_matches_sorted_numpy_eigvals(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            got, want = np.sort(eigenvalues(m)), np.sort(np.linalg.eigvals(m))
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_same_eigenvalues_as_the_leading_pair(self):
        # geev without eigenvectors: its largest is leading_eig's lambda
        rng = np.random.default_rng(30)
        for _ in range(200):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = eigenvalues(m)
            assert w.shape == (4,)
            assert abs(w[np.argmax(np.abs(w))] - leading_eig(m)[0]) <= 1e-14

    def test_non_finite_eigenvalue_raises(self, monkeypatch):
        real_geev = qcore._geev

        def overflowed(m, vectors):
            w = real_geev(m, vectors)
            w[1] = np.inf
            return w

        monkeypatch.setattr(qcore, "_geev", overflowed)
        with pytest.raises(NumericFailure, match="non-finite eigenvalue"):
            eigenvalues(np.diag([2.0, 1.0, 0.5, 0.1]))


class TestApplyGate:
    def test_identity_gate(self):
        rng = np.random.default_rng(29)
        psi = random_state(4, rng)
        assert np.allclose(apply_gate(psi, np.eye(4), (1, 3)), psi, atol=1e-14)

    def test_x_on_zero_state_sets_bit(self):
        # qubit 0 is the most significant bit
        psi = apply_gate(zero_state(3), PAULI_X, (0,))
        expected = np.zeros(8)
        expected[4] = 1.0
        assert np.allclose(psi, expected, atol=1e-14)
        psi = apply_gate(zero_state(3), PAULI_X, (2,))
        expected = np.zeros(8)
        expected[1] = 1.0
        assert np.allclose(psi, expected, atol=1e-14)

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(31)
        for targets in [(0, 1), (1, 3), (3, 1), (2, 0)]:
            gate = random_unitary(4, rng)
            psi = random_state(4, rng)
            got = apply_gate(psi, gate, targets)
            # dense 16x16 oracle: permute target qubits to the front,
            # apply kron(gate, identity), permute back
            perm = list(targets) + [q for q in range(4) if q not in targets]
            big = np.kron(gate, np.eye(4))
            t = psi.reshape([2] * 4).transpose(perm).reshape(-1)
            t = (big @ t).reshape([2] * 4)
            expected = t.transpose(np.argsort(perm)).reshape(-1)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_norm_preserved_along_gate_sequence(self):
        rng = np.random.default_rng(37)
        psi = random_state(5, rng)
        for _ in range(60):
            k = rng.integers(1, 3)
            targets = tuple(rng.choice(5, size=k, replace=False))
            psi = apply_gate(psi, random_unitary(2**k, rng), targets)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_composition(self):
        rng = np.random.default_rng(41)
        psi = random_state(3, rng)
        a = random_unitary(4, rng)
        b = random_unitary(4, rng)
        q = (0, 2)
        lhs = apply_gate(apply_gate(psi, a, q), b, q)
        rhs = apply_gate(psi, b @ a, q)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rejects_bad_targets(self):
        psi = zero_state(3)
        with pytest.raises(InvalidArgumentError):
            apply_gate(psi, np.eye(4), (1, 1))
        with pytest.raises(InvalidArgumentError):
            apply_gate(psi, np.eye(4), (0, 3))
        with pytest.raises(InvalidArgumentError):
            apply_gate(psi, np.eye(4), (0,))

    @pytest.mark.parametrize(
        "targets", [(1.7,), (1.0,), (True,), (np.True_,), ("1",), (-1,), (3,)]
    )
    def test_rejects_a_target_that_is_not_a_qubit_index(self, targets):
        # truncated, (1.7,) and (True,) would flip qubit 1
        with pytest.raises(InvalidArgumentError, match="targets must be qubits"):
            apply_gate(zero_state(3), PAULI_X, targets)


class TestCheckChoice:
    def test_takes_a_string_among_the_choices(self):
        qcore.check_choice("mode", "b", ("a", "b"))
        qcore.check_choice("mode", np.str_("a"), {"a": 1})

    @pytest.mark.parametrize(
        "value", ["c", "", b"a", None, 1, [], {}, ["a"], np.array(["a", "b"]), np.array("a")]
    )
    def test_rejects_anything_else(self, value):
        # unhashable values and arrays reached the membership test
        with pytest.raises(InvalidArgumentError, match="unknown mode"):
            qcore.check_choice("mode", value, ("a", "b"))


class TestStateHelpers:
    def test_zero_state_needs_a_qubit(self):
        assert np.array_equal(zero_state(2), [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            zero_state(0)

    @pytest.mark.parametrize("n_qubits", [True, np.True_, 2.0, -1, None])
    def test_zero_state_rejects_a_non_count(self, n_qubits):
        match = "n_qubits must be an integer of at least 1"
        with pytest.raises(InvalidArgumentError, match=match):
            zero_state(n_qubits)

    @pytest.mark.parametrize(
        "qubit, outcome", [(-1, 0), (3, 0), (5, 1), (1.0, 0), (True, 0)]
    )
    def test_projection_rejects_a_bad_qubit_or_outcome(self, qubit, outcome):
        # a measurement is diag(1 - outcome, outcome) through apply_gate, whose
        # target check rejects a hand-built measure op's qubit: unchecked, qubit
        # -1 would project the last qubit
        match = "targets must be qubits in"
        circuit = CostCircuit(qubit_count=3, ops=(CircuitOp("measure", (qubit,)),))
        with pytest.raises(InvalidArgumentError, match=match):
            exact_success_probability(circuit)
        with pytest.raises(InvalidArgumentError, match=match):
            apply_gate(zero_state(3), np.diag([1 - outcome, outcome]), (qubit,))

    def test_qubit_count_needs_a_power_of_two(self):
        # 8 amplitudes are 3 qubits: qubit 2 is a target, qubit 3 is not
        assert apply_gate(np.zeros(8), IDENTITY_2, (2,)).shape == (8,)
        with pytest.raises(InvalidArgumentError, match=r"in \[0, 3\)"):
            apply_gate(np.zeros(8), IDENTITY_2, (3,))
        with pytest.raises(InvalidArgumentError, match="power of 2"):
            apply_gate(np.zeros(6), IDENTITY_2, (0,))

    @pytest.mark.parametrize("state", [np.zeros(0), np.array(1.0), np.zeros((2, 2))])
    def test_qubit_count_needs_a_nonempty_vector(self, state):
        with pytest.raises(InvalidArgumentError, match="1-D shape"):
            apply_gate(state, IDENTITY_2, (0,))

    def test_projection_keeps_the_outcome_branch_unnormalized(self):
        rng = np.random.default_rng(9)
        psi = random_state(3, rng)
        for qubit in range(3):
            for outcome in (0, 1):
                projector = np.diag([1 - outcome, outcome])
                projected = apply_gate(psi, projector, (qubit,))
                kept = [(i >> (2 - qubit)) & 1 == outcome for i in range(8)]
                assert np.array_equal(projected[kept], psi[kept])
                assert np.all(projected[np.logical_not(kept)] == 0.0)
                again = apply_gate(projected, projector, (qubit,))
                assert np.array_equal(again, projected)
