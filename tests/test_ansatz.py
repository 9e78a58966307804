import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from quenchmps import ansatz, evolve, qcore
from quenchmps.ansatz import FULL15, AnsatzParams, build_unitary, mps_tensor, tensor_of
from quenchmps.qcore import InvalidArgumentError, rot_gate
from conftest import unitarity_defect


# angle k's Pauli string P_k (physical leg first) and scale s_k, as the
# module docstring defines them, for the oracles
PAULIS = {"I": qcore.IDENTITY_2, "X": qcore.PAULI_X, "Y": qcore.PAULI_Y, "Z": qcore.PAULI_Z}
STRINGS = "ZI XI ZI IZ IX IZ XX YY ZZ ZI XI ZI IZ IX IZ".split()
SCALES = [0.5] * 6 + [1.0] * 3 + [0.5] * 6


def random_params(rng, scale=np.pi):
    return AnsatzParams(rng.uniform(-scale, scale, 15))


def left_isometry_defect(a):
    return np.max(np.abs(np.einsum("sab,sac->bc", a.conj(), a) - np.eye(2)))


# every way in from angles, all under one check: the validated type, and the
# builders on raw angles (the optimizers' own iterate)
ENTRIES = [
    lambda x: AnsatzParams(x),
    build_unitary,
    tensor_of,
    lambda x: tensor_of(x, grad=True),
]


class TestBuildUnitary:
    def test_full15_zero_angles_is_identity(self):
        u = build_unitary(AnsatzParams(np.zeros(15)))
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            u = build_unitary(random_params(rng))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_wrong_angle_count_rejected(self):
        for entry, n in itertools.product(ENTRIES, (8, 14)):
            with pytest.raises(InvalidArgumentError, match="expects 15 angles"):
                entry(np.zeros(n))

    def test_only_full15_template_accepted(self):
        with pytest.raises(InvalidArgumentError, match="unknown template"):
            evolve.ground_state_optimize(1.0, 1.5, "Reduced8")

    @pytest.mark.parametrize("template", [[], {}, np.array([FULL15, "x"]), None])
    def test_template_that_is_not_a_string_rejected(self, template):
        # a list or dict escaped as "TypeError: unhashable type"
        with pytest.raises(InvalidArgumentError, match="unknown template"):
            evolve.ground_state_optimize(1.0, 1.5, template)

    def test_complex_angles_rejected(self):
        for entry in ENTRIES:
            with pytest.raises(InvalidArgumentError, match="real"):
                entry(np.zeros(15) + 0.5j)
            with pytest.raises(InvalidArgumentError, match="real"):
                entry(np.zeros((2, 15), dtype=complex))

    def test_non_numeric_angles_rejected(self):
        # strings, bytes and ragged nestings escaped as numpy's ValueError,
        # and bools ran as 0/1 radians
        bad = [
            ["x"] * 15,
            [b"x"] * 15,
            [[0.0] * 15, [0.0] * 14],
            np.zeros(15, dtype=bool),
            np.ones((2, 15), dtype=bool),
        ]
        for entry, angles in itertools.product(ENTRIES, bad):
            with pytest.raises(InvalidArgumentError, match="real"):
                entry(angles)
        # integers are real numbers; float input is taken as it is, uncopied
        assert np.array_equal(build_unitary(np.zeros(15, dtype=int)), np.eye(4))
        x = np.linspace(-1.0, 1.0, 15)
        assert ansatz._checked_angles(x) is x

    def test_bad_stacks_rejected(self):
        for entry, bad in itertools.product(ENTRIES, (np.nan, np.inf)):
            angles = np.zeros((3, 15))
            angles[1, 4] = bad
            with pytest.raises(InvalidArgumentError, match="finite"):
                entry(angles)
            with pytest.raises(InvalidArgumentError, match="finite"):
                entry(angles[1])
        shapes = [(2, 2, 15), (2, 3, 15), (0, 15), ()]
        for entry, shape in itertools.product(ENTRIES, shapes):
            with pytest.raises(InvalidArgumentError, match="expects 15 angles"):
                entry(np.zeros(shape))

    def test_stack_rows_equal_single_sets(self):
        # each row of a raw stack gives the floats of the same parameters on
        # their own, bit for bit
        rng = np.random.default_rng(4)
        angles = rng.uniform(-np.pi, np.pi, (5, 15))
        u, a = build_unitary(angles), tensor_of(angles)
        assert u.shape == (5, 4, 4) and a.shape == (5, 2, 2, 2)
        for row, u_row, a_row in zip(angles, u, a):
            single = AnsatzParams(row)
            assert np.array_equal(u_row, build_unitary(single))
            assert np.array_equal(a_row, tensor_of(single))
            assert np.array_equal(a_row, tensor_of(row))
            pairs = zip(tensor_of(row, grad=True), tensor_of(single, grad=True))
            assert all(np.array_equal(got, want) for got, want in pairs)
        with pytest.raises(InvalidArgumentError, match="one parameter set"):
            tensor_of(angles, grad=True)

    def test_params_hold_one_parameter_set(self):
        # the builders take raw stacks; the validated type holds one set
        with pytest.raises(InvalidArgumentError, match="one parameter set"):
            AnsatzParams(np.zeros((2, 15)))

    @pytest.mark.parametrize("magnitude", [0.0, 1.0, np.pi, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_unitary_and_stack_rows_at_large_angles(self, magnitude):
        # the proof that U is unitary, which no call checks again
        rng = np.random.default_rng(8)
        angles = magnitude * rng.choice([-1.0, 1.0], (4, 15)) * rng.uniform(1.0, 10.0, (4, 15))
        u = build_unitary(angles)
        assert unitarity_defect(u) < 1e-12
        for row, u_row in zip(angles, u):
            single = build_unitary(AnsatzParams(row))
            assert unitarity_defect(single) < 1e-12
            assert np.array_equal(u_row, single)

    @pytest.mark.parametrize("magnitude", [0.0, 1.0, np.pi, 1e3, 1e8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_gradient_path_equals_gradient_path(self, k, magnitude):
        # the halving tree without gradients and the prefix scan with them
        # form U in one bracketing, so the tensors agree bit for bit
        rng = np.random.default_rng(9)
        for trial in range(20):
            signs = rng.choice([-1.0, 1.0], (k, 15))
            angles = magnitude * (signs if trial == 0 else rng.uniform(-1.0, 1.0, (k, 15)))
            stack = tensor_of(angles)
            for row, a_row in zip(angles, stack):
                single = AnsatzParams(row)
                a, _ = tensor_of(single, grad=True)
                assert np.array_equal(tensor_of(single), a)
                assert np.array_equal(a_row, a)

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
            got = build_unitary(AnsatzParams(a))
            assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("magnitude", [1.0, np.pi, 1e3])
    def test_unitary_derivative_matches_complex_oracle(self, magnitude):
        # the module docstring's dU/da_k = U Pre_k^dag (-i s_k P_k) Pre_k in
        # complex arithmetic, each rotation exp(-i t P) from expm, sliced to
        # the tensor and its derivative dA/da_k as mps_tensor slices U. expm's
        # scaling and squaring loses 1e-13 at |t| = 500, so the oracle takes t
        # mod 2 pi (the period) in [-pi, pi], exact to rounding as
        # 2 pi = math.tau + 2.449e-16
        def reduced(t):
            r = math.remainder(t, math.tau)
            return r - round((t - r) / math.tau) * 2.4492935982947064e-16

        neg_i_p = [-1j * np.kron(PAULIS[p], PAULIS[q]) for p, q in STRINGS]
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = magnitude * rng.uniform(-1.0, 1.0, 15)
            pre, prefixes = np.eye(4), []
            for s, m, angle in zip(SCALES, neg_i_p, x):
                pre = scipy.linalg.expm(reduced(s * angle) * m) @ pre
                prefixes.append(pre)
            a, da = tensor_of(x, grad=True)
            assert np.max(np.abs(a - mps_tensor(pre))) < 1e-13
            for k, (s, m, pre_k) in enumerate(zip(SCALES, neg_i_p, prefixes)):
                expected = mps_tensor(pre @ pre_k.conj().T @ (s * m) @ pre_k)
                assert np.max(np.abs(da[k] - expected)) < 1e-13

    def test_angles_are_read_only(self):
        params = AnsatzParams(np.linspace(-1.0, 1.0, 15))
        with pytest.raises(ValueError):
            params.angles[0] = 0.0

    def test_callers_array_stays_writable_and_unaliased(self):
        a = np.zeros(15)
        params = AnsatzParams(a)
        a[0] = 1.0
        assert params.angles[0] == 0.0
        assert not np.shares_memory(params.angles, a)

    def test_full_turn_of_any_angle_changes_global_sign_at_most(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-np.pi, np.pi, 15)
        u = build_unitary(AnsatzParams(x))
        for k in range(15):
            turned = x.copy()
            turned[k] += 2.0 * np.pi
            u_turned = build_unitary(AnsatzParams(turned))
            assert min(np.max(np.abs(u_turned - u)), np.max(np.abs(u_turned + u))) < 1e-12


class TestRealForm:
    @staticmethod
    def real_form(m):
        r = np.empty((8, 8))
        r[:4, :4], r[:4, 4:] = m.real, -m.imag
        r[4:, :4], r[4:, 4:] = m.imag, m.real
        return r

    def test_gate_tables_are_real_forms_of_the_pauli_strings(self):
        assert ansatz._R_NEG_I_P.shape == ansatz._R_GENERATORS.shape == (15, 8, 8)
        for k, (s, (p, q)) in enumerate(zip(SCALES, STRINGS)):
            want = self.real_form(-1j * np.kron(PAULIS[p], PAULIS[q]))
            assert np.array_equal(ansatz._R_NEG_I_P[k], want)
            assert np.array_equal(ansatz._R_GENERATORS[k], s * want)

    def test_representation_is_multiplicative_and_takes_adjoint_to_transpose(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
            r_m = ansatz._real_form(m)
            assert np.array_equal(r_m, self.real_form(m))
            assert np.max(np.abs(ansatz._real_form(m @ n) - r_m @ ansatz._real_form(n))) < 1e-13
            assert np.array_equal(ansatz._real_form(m.conj().T), r_m.T)
            assert np.array_equal(ansatz._columns(r_m, 4), m)

    def test_outputs_are_complex_of_the_documented_shapes(self):
        rng = np.random.default_rng(14)
        x, stack = rng.uniform(-np.pi, np.pi, 15), rng.uniform(-np.pi, np.pi, (3, 15))
        outputs = [
            (tensor_of(x), (2, 2, 2)),
            *zip(tensor_of(x, grad=True), [(2, 2, 2), (15, 2, 2, 2)]),
            (tensor_of(stack), (3, 2, 2, 2)),
            (build_unitary(x), (4, 4)),
            (build_unitary(stack), (3, 4, 4)),
        ]
        for got, shape in outputs:
            assert got.dtype == np.complex128 and got.shape == shape


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
        for _ in range(20):
            assert left_isometry_defect(tensor_of(random_params(rng))) < 1e-10

    def test_rejects_bad_shapes(self):
        for shape in [(3, 3), (4,), (2, 2, 4, 4)]:
            with pytest.raises(InvalidArgumentError, match="4x4 unitary"):
                mps_tensor(np.zeros(shape, dtype=complex))

    def test_tensor_derivative_matches_central_differences(self):
        h = 1e-5
        rng = np.random.default_rng(7)
        x = rng.uniform(-np.pi, np.pi, 15)
        a, da = tensor_of(AnsatzParams(x), grad=True)
        assert np.array_equal(a, tensor_of(AnsatzParams(x)))
        assert da.shape == (15, 2, 2, 2)
        for k in range(15):
            step = np.zeros(15)
            step[k] = h
            fd = (
                tensor_of(AnsatzParams(x + step))
                - tensor_of(AnsatzParams(x - step))
            ) / (2 * h)
            assert np.max(np.abs(da[k] - fd)) <= 1e-8
