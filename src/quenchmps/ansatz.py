"""The ``Full15`` parameter template of the two-qubit iMPS unitary and its
MPS tensor.

``Full15`` (15 angles) is a generic two-qubit unitary as ZXZ Euler blocks on
both legs around a three-parameter XX+YY+ZZ entangler,

    U = [zxz(a9,a10,a11) (x) zxz(a12,a13,a14)]
        . exp(-i (a6 XX + a7 YY + a8 ZZ))
        . [zxz(a0,a1,a2) (x) zxz(a3,a4,a5)]

written in matrix order (rightmost factor acts first), where
zxz(r,s,t) = Rz(t) Rx(s) Rz(r) and the physical leg is the first tensor
factor. All angles zero gives the identity. One closed form builds U and, on
request, dU/dtheta: 2x2 chains, and the entangler diagonal in the Bell basis
(exactly unitary at any angle).

The MPS tensor of a unitary is A^s_{ab} = <s, a| U |0, b> (physical index
first); unitarity of U makes A left-isometric: sum_s (A^s)^dag A^s = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import InvalidArgumentError

FULL15 = "Full15"
N_ANGLES = {FULL15: 15}

# Full15 slots of the (first, mid, last) angles of the four ZXZ chains:
# physical and auxiliary leg before the entangler, then after it
_CHAIN_SLOTS = np.array([[0, 3, 9, 12], [1, 4, 10, 13], [2, 5, 11, 14]])

_Z_SIGNS = np.array([1.0, -1.0])  # Rz(phi) = diag(exp(-i phi _Z_SIGNS / 2))

# Bell basis (columns Phi+, Phi-, Psi+, Psi-) and the eigenvalues of XX, YY
# and ZZ (rows) on it
_BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]
) / np.sqrt(2)
_BELL_PAULI = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]])


@dataclass(frozen=True)
class AnsatzParams:
    """Rotation angles of the iMPS unitary template (``FULL15``, the only
    one; any other template name is rejected).

    ``angles`` holds one parameter set, shape (n,), or a stack of them,
    shape (k, n), one candidate per row (an SPSA +/- pair is a (2, n) stack).
    :func:`build_unitary`, :func:`mps_tensor` and :func:`tensor_of` broadcast
    over the stack, and each row gives exactly the floats of the same
    parameter set on its own. The angles must be real and finite.
    """

    template: str
    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.template not in N_ANGLES:
            raise InvalidArgumentError(f"unknown template {self.template!r}")
        if np.iscomplexobj(self.angles):
            raise InvalidArgumentError("angles must be real")
        angles = np.array(self.angles, dtype=float)  # a copy: the caller's stays writable
        n = N_ANGLES[self.template]
        if angles.ndim not in (1, 2) or angles.shape[-1] != n or not angles.size:
            raise InvalidArgumentError(
                f"{self.template} expects {n} angles or a nonempty (k, {n}) stack, "
                f"got shape {angles.shape}"
            )
        if not np.isfinite(angles).all():
            raise InvalidArgumentError("angles must be finite")
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)

    def replace_angles(self, angles):
        return AnsatzParams(self.template, angles)


def _zxz(first, mid, last, grad=False):
    """Rz(last) Rx(mid) Rz(first) in closed form, broadcast over arrays of
    angles to shape (..., 2, 2); with ``grad``, also its derivatives with
    respect to (first, mid, last), shape (3, ..., 2, 2)."""
    half_mid = 0.5 * np.asarray(mid)[..., None, None]
    c, s = np.cos(half_mid), np.sin(half_mid)
    phase_in = np.exp(-0.5j * np.multiply.outer(first, _Z_SIGNS))[..., None, :]
    phase_out = np.exp(-0.5j * np.multiply.outer(last, _Z_SIGNS))[..., :, None]
    eye, x = qcore.IDENTITY_2, qcore.PAULI_X
    w = phase_out * (c * eye - 1j * s * x) * phase_in
    if not grad:
        return w
    d_mid = phase_out * (-0.5 * s * eye - 0.5j * c * x) * phase_in
    half = -0.5j * _Z_SIGNS
    return w, np.stack([w * half, d_mid, w * half[:, None]])


def _kron(x, y):
    """Kronecker product of two (..., 2, 2) stacks, broadcast over the stack."""
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _full15_unitary(a, grad):
    """Full15 unitary of the angles ``a``, shape (..., 15) to (..., 4, 4);
    with ``grad`` (one parameter set only), also dU/da, shape (15, 4, 4)."""
    chains = _zxz(*a.T[_CHAIN_SLOTS], grad=grad)  # (first, mid, last), each (4, ...)
    w, dw = chains if grad else (chains, None)
    pre, post = _kron(w[0::2], w[1::2])  # physical (x) auxiliary leg, either side
    phases = np.exp(-1j * (a[..., 6:9] @ _BELL_PAULI))
    ent = (_BELL * phases[..., None, :]) @ _BELL.T
    if not grad:
        return post @ ent @ pre
    left, right = post @ ent, ent @ pre
    d_ent = (_BELL * (-1j * _BELL_PAULI * phases)[:, None, :]) @ _BELL.T
    du = np.concatenate(
        [
            left @ _kron(dw[:, 0], w[1]),
            left @ _kron(w[0], dw[:, 1]),
            post @ d_ent @ pre,
            _kron(dw[:, 2], w[3]) @ right,
            _kron(w[2], dw[:, 3]) @ right,
        ]
    )
    return left @ pre, du


def build_unitary(params, grad=False):
    """Two-qubit unitary (physical leg = first factor) for the parameters.

    A (k, n) stack of angles gives a (k, 4, 4) stack of unitaries. With
    ``grad``, returns ``(U, dU)`` where dU[k] = dU/d(angle k), one 4x4 slice
    per angle of the template; gradients take one parameter set.
    """
    if grad and params.angles.ndim != 1:
        raise InvalidArgumentError("gradients take one parameter set, not a stack")
    return _full15_unitary(params.angles, grad)


def mps_tensor(u):
    """MPS tensor A[s, a, b] = <s, a| U |0, b> of a two-qubit unitary.

    A (k, 4, 4) stack gives a (k, 2, 2, 2) stack of tensors. The result is
    left-isometric for unitary input; input with a non-unitary slice is
    rejected.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (4, 4):
        raise InvalidArgumentError(
            f"expected a 4x4 unitary or a stack of them, got shape {u.shape}"
        )
    if not qcore.is_unitary(u, tol=1e-10):
        raise InvalidArgumentError("input is not unitary within 1e-10")
    return u.reshape(u.shape[:-2] + (2, 2, 2, 2))[..., 0, :]


def tensor_of(params, grad=False):
    """MPS tensor of the parameters (a stack of them for stacked angles);
    with ``grad``, also its derivatives dA/dtheta, shape (n_angles, 2, 2, 2)."""
    if not grad:
        return mps_tensor(build_unitary(params))
    u, du = build_unitary(params, grad=True)
    return mps_tensor(u), du.reshape(-1, 2, 2, 2, 2)[:, :, :, 0, :]
