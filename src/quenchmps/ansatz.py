"""The ``Full15`` parametrization of the two-qubit iMPS unitary and its MPS
tensor.

``Full15`` (15 angles) is a generic two-qubit unitary as ZXZ Euler blocks on
both legs around a three-parameter XX+YY+ZZ entangler,

    U = [zxz(a9,a10,a11) (x) zxz(a12,a13,a14)]
        . exp(-i (a6 XX + a7 YY + a8 ZZ))
        . [zxz(a0,a1,a2) (x) zxz(a3,a4,a5)]

written in matrix order (rightmost factor acts first), where
zxz(r,s,t) = Rz(t) Rx(s) Rz(r) and the physical leg is the first tensor
factor. All angles zero gives the identity.

The two legs' blocks commute, and so do XX, YY and ZZ, so U is the product
of 15 Pauli rotations in angle order, U = G_14 ... G_1 G_0 with

    G_k = exp(-i s_k a_k P_k) = cos(s_k a_k) 1 - i sin(s_k a_k) P_k,

P_k the Pauli string of angle k, s_k = 1/2 for the twelve Euler angles and 1
for the entangler; each G_k is exactly unitary at any angle.

Every product runs on the real form of the gates,

    R(M) = [[Re M, -Im M], [Im M, Re M]]   (4x4 complex -> 8x8 real),

which is multiplicative, R(MN) = R(M) R(N), and takes the adjoint to the
transpose, R(M^dag) = R(M)^T. The reason is speed, not arithmetic: NumPy's
stacked complex128 matmul makes one ``zgemm`` call per 4x4 matrix, so a
(30, 4, 4) stack takes about 16 us, while OpenBLAS's small-matrix kernel
multiplies a float64 (30, 8, 8) stack in 3-5 us (OpenBLAS 0.3.31, one
thread, an Intel Xeon VM), for twice the flops. The 15 gates

    R(G_k) = cos(s_k a_k) 1 + sin(s_k a_k) R(-i P_k)

are built in one broadcast step, with the cosines written onto the zero
diagonal of R(-i P_k). With gradients (:func:`tensor_of` only), their prefix
products Pre_k = G_k ... G_0 come from a log-depth (Hillis-Steele) scan of
four batched products, U = Pre_14, and as dG_k/da_k = -i s_k P_k G_k the
derivative is three batched products,

    dU/da_k = G_14 ... G_{k+1} (-i s_k P_k) Pre_k = U Pre_k^dag (-i s_k P_k) Pre_k,
    R(dU/da_k) = R(U) R(Pre_k)^T R(-i s_k P_k) R(Pre_k).

Without gradients, U is a four-level halving tree over (1, G_0, ..., G_14),
each level multiplying neighbours in pairs. That is exactly the bracketing in
which the scan forms Pre_14,

    U = [((G14 G13)(G12 G11))((G10 G9)(G8 G7))] [((G6 G5)(G4 G3))((G2 G1) G0)],

with every product taken in the same operand order, so both paths give U bit
for bit. The tree needs 8 + 4 + 2 + 1 = 15 products per parameter set, and
its first one, G_0 1, is exact and skipped: 14 against the scan's
14 + 13 + 11 + 7 = 45, which dU's three batched products raise to 90.

The MPS tensor of a unitary is A^s_{ab} = <s, a| U |0, b> (physical index
first): U's first two columns. Unitarity of U makes A left-isometric:
sum_s (A^s)^dag A^s = 1. U is unitary by construction, as a product of
exactly unitary G_k; the tests prove it within 1e-12 at angles from 0 to 1e8,
and no call checks it again. The same slice of dU/da_k gives dA/da_k. Both
are read straight from the first columns of the real form, Re over Im, into
complex128 arrays; U itself is formed only by :func:`build_unitary`, which
returns no dU: :func:`tensor_of` is the one derivative path.

The float operations live once, in private helpers on raw angle arrays: the
rotation stack, the halving tree, the prefix scan with dU, and the read-back
from the real form. :func:`build_unitary` and :func:`tensor_of` are the one
way in from angles. They take the optimizers' own iterate, a raw (15,) array
or (k, 15) stack, as readily as an :class:`AnsatzParams`, and check the
angles once, as :class:`AnsatzParams` does; its one field holds one checked,
read-only set of angles.
"""

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import InvalidArgumentError

FULL15 = "Full15"
N_ANGLES = 15

# Pauli string P_k (physical leg first) and scale s_k of each angle's rotation
_PAULIS = {"I": qcore.IDENTITY_2, "X": qcore.PAULI_X, "Y": qcore.PAULI_Y, "Z": qcore.PAULI_Z}
_STRINGS = "ZI XI ZI IZ IX IZ XX YY ZZ ZI XI ZI IZ IX IZ".split()
_SCALES = np.array([0.5] * 6 + [1.0] * 3 + [0.5] * 6)


def _real_form(m):
    """R(M) = [[Re M, -Im M], [Im M, Re M]] of a complex matrix or a stack
    of them (trailing axes n x n give 2n x 2n)."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


# R(-i P_k) and R(-i s_k P_k): dR(G_k)/da_k = _R_GENERATORS[k] R(G_k)
_R_NEG_I_P = _real_form(
    np.stack([-1j * np.kron(_PAULIS[p], _PAULIS[q]) for p, q in _STRINGS])
)
_R_GENERATORS = _SCALES[:, None, None] * _R_NEG_I_P


@dataclass(frozen=True)
class AnsatzParams:
    """One set of ``FULL15`` rotation angles, its one field ``angles``:
    shape (15,), real and finite, copied and read-only. A (k, 15) stack,
    such as an SPSA +/- pair, stays a raw array; it is rejected here.
    """

    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        angles = _checked_angles(self.angles).copy()  # the caller's stays writable
        if angles.ndim != 1:
            raise InvalidArgumentError(
                f"AnsatzParams holds one parameter set, got shape {angles.shape}"
            )
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)

    def __array__(self, dtype=None, copy=None):
        """The angles, so that the builders take the parameters like a raw array."""
        return np.array(self.angles, dtype=dtype, copy=copy)


def build_unitary(angles):
    """Two-qubit unitary (physical leg = first factor) for raw ``FULL15``
    angles, (15,) or a (k, 15) stack, or an :class:`AnsatzParams`; a stack
    gives a (k, 4, 4) stack. No derivative: dA comes from :func:`tensor_of`.
    Angles that are not real numbers (complex, bool, string or ragged) or
    not finite, or of another shape, raise :class:`InvalidArgumentError`.
    U is unitary by construction and not checked per call. R(U) is the
    halving tree over the real 8x8 forms R(G_k), read back as complex128
    (see the module docstring)."""
    return _columns(_tree_unitary(_checked_angles(angles)), 4)


def mps_tensor(u):
    """MPS tensor A[s, a, b] = <s, a| U |0, b> of a two-qubit unitary.

    A (k, 4, 4) stack gives a (k, 2, 2, 2) stack of tensors. U must be
    unitary, as :func:`build_unitary`'s is by construction, for A to be
    left-isometric; only the shape is checked. Kept for ``TRACED`` in
    ``bench/tracing.py``; :func:`tensor_of` reads A from the real form.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (4, 4):
        raise InvalidArgumentError(
            f"expected a 4x4 unitary or a stack of them, got shape {u.shape}"
        )
    return u.reshape(u.shape[:-2] + (2, 2, 2, 2))[..., 0, :]


def tensor_of(angles, grad=False):
    """MPS tensor of the angles, taken as by :func:`build_unitary` (a stack
    of them for stacked angles), from the halving tree; with ``grad``, also
    dA/dtheta, shape (15, 2, 2, 2), of one parameter set, from the prefix
    scan (the tree's bracketing, so A is the same bit for bit). A and dA are
    complex128, read from the first two columns of R(U) and R(dU)."""
    a = _checked_angles(angles)
    if not grad:
        return _tensor(_tree_unitary(a))
    if a.ndim != 1:
        raise InvalidArgumentError("gradients take one parameter set, not a stack")
    r, dr = _scan_unitary(a)
    return _tensor(r), _tensor(dr)


def _checked_angles(angles):
    """The angles as a float array (no copy of one), checked: real numbers
    (no complex, bool, string or ragged input), of shape (15,) or a nonempty
    (k, 15), and finite (else InvalidArgumentError)."""
    try:
        angles = np.asarray(angles)
    except ValueError:  # a ragged nesting
        raise InvalidArgumentError("angles must be a real array, got a ragged one") from None
    if angles.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"angles must be real numbers, got dtype {angles.dtype}")
    angles = angles.astype(float, copy=False)
    if angles.ndim not in (1, 2) or angles.shape[-1] != N_ANGLES or not angles.size:
        raise InvalidArgumentError(
            f"{FULL15} expects {N_ANGLES} angles or a nonempty (k, {N_ANGLES}) stack, "
            f"got shape {angles.shape}"
        )
    if not np.isfinite(angles).all():
        raise InvalidArgumentError("angles must be finite")
    return angles


def _gates(angles):
    """The real forms R(G_k) = cos(s_k a_k) 1 + sin(s_k a_k) R(-i P_k) of
    the rotations of raw angles, shape (..., 15, 8, 8). R(-i P_k) has a zero
    diagonal, so the cosines are written onto it (every ninth entry of the
    flattened 8x8), not added as cos 1."""
    half = _SCALES * angles
    g = np.sin(half)[..., None, None] * _R_NEG_I_P
    g.reshape(g.shape[:-2] + (64,))[..., ::9] = np.cos(half)[..., None]
    return g


def _tree_unitary(angles):
    """R(U) of raw angles (or a stack) by the halving tree."""
    g = _gates(angles)
    # pairs (G_2 G_1), ..., (G_14 G_13) beside G_0, which stands for G_0 1
    g[..., 2::2, :, :] = g[..., 2::2, :, :] @ g[..., 1::2, :, :]
    tree = g[..., ::2, :, :]
    for _ in range(3):
        tree = tree[..., 1::2, :, :] @ tree[..., ::2, :, :]
    return tree[..., 0, :, :]


def _scan_unitary(angles):
    """(R(U), R(dU)) of one raw parameter set by the prefix scan."""
    pre = _gates(angles)
    for shift in (1, 2, 4, 8):  # prefix products Pre_k = G_k ... G_0
        pre[shift:] = pre[shift:] @ pre[:-shift]
    u = pre[-1]
    return u, u @ (pre.swapaxes(-1, -2) @ _R_GENERATORS @ pre)


def _columns(r, n):
    """The first ``n`` columns of M, as complex128, from its real form R(M)
    (trailing 8x8 axes): Re M over Im M."""
    m = np.empty(r.shape[:-2] + (4, n), dtype=complex)
    m.real = r[..., :4, :n]
    m.imag = r[..., 4:, :n]
    return m


def _tensor(r):
    """A[s, a, b] = <s, a| U |0, b> from R(U), a stack of them or their
    derivatives: the first two columns of U, rows (s, a)."""
    return _columns(r, 2).reshape(r.shape[:-2] + (2, 2, 2))
