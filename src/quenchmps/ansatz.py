"""Parameter templates for the two-qubit iMPS unitary, tensor conversion,
and the gauge / reparametrisation toolkit.

Templates
---------
``Reduced8`` (8 angles)::

    U = [Rx(p6) (x) Rx(p7)] . exp(-i pi/4 Z(x)Z) . [P (x) C]
    P = Rz(p5) Rx(p3) Rz(p2)        (physical leg, first tensor factor)
    C = Rz(p4) Rx(p1) Rz(p0)        (auxiliary leg, second tensor factor)

written in matrix order (rightmost factor acts first), so the auxiliary leg
is led by the Euler chain (p0, p1, p4) and closed by Rx(p7). Residual x-axis
gauge rotations act exactly on (p0, p1, p4, p7) and leave the physical state
invariant; the entangling angle is fixed at pi/4.

``Full15`` (15 angles): generic two-qubit unitary as ZXZ Euler blocks on both
legs around a three-parameter XX+YY+ZZ entangler,

    U = [zxz(a9,a10,a11) (x) zxz(a12,a13,a14)]
        . exp(-i (a6 XX + a7 YY + a8 ZZ))
        . [zxz(a0,a1,a2) (x) zxz(a3,a4,a5)]

where zxz(r,s,t) = Rz(t) Rx(s) Rz(r). All angles zero gives the identity, and
every Reduced8 unitary embeds exactly (see :func:`reduced_to_full`), so one
closed form serves both templates and returns dU/dtheta on request: 2x2 chains,
and the entangler diagonal in the Bell basis (exactly unitary at any angle).

The MPS tensor of a unitary is A^s_{ab} = <s, a| U |0, b> (physical index
first); unitarity of U makes A left-isometric: sum_s (A^s)^dag A^s = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import InvalidArgumentError, NumericFailure, rot_gate

REDUCED8 = "Reduced8"
FULL15 = "Full15"
N_ANGLES = {REDUCED8: 8, FULL15: 15}

# Full15 slots of the (first, mid, last) angles of the four ZXZ chains:
# physical and auxiliary leg before the entangler, then after it
_CHAIN_SLOTS = np.array([[0, 3, 9, 12], [1, 4, 10, 13], [2, 5, 11, 14]])

# Full15 slot of each Reduced8 angle under the embedding (slot 8 holds pi/4)
_REDUCED_SLOTS = [3, 4, 0, 1, 5, 2, 10, 13]

_Z_SIGNS = np.array([1.0, -1.0])  # Rz(phi) = diag(exp(-i phi _Z_SIGNS / 2))

# Bell basis (columns Phi+, Phi-, Psi+, Psi-) and the eigenvalues of XX, YY
# and ZZ (rows) on it
_BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]
) / np.sqrt(2)
_BELL_PAULI = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]])


class AmbiguousGaugeError(RuntimeError):
    """Leading eigenvalue of the mixed transfer matrix is degenerate."""

    def __init__(self, eigenvalues):
        super().__init__(
            "degenerate leading eigenvalues of mixed transfer matrix: "
            + ", ".join(f"{ev:.12g}" for ev in eigenvalues)
        )
        self.eigenvalues = tuple(eigenvalues)


@dataclass(frozen=True)
class AnsatzParams:
    """Rotation angles for one of the two iMPS unitary templates.

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
        angles = np.asarray(self.angles, dtype=float)
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
        return AnsatzParams(self.template, np.array(angles, dtype=float))


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
    per angle of the template; gradients take one parameter set. Reduced8
    goes through its exact linear embedding into Full15.
    """
    if grad and params.angles.ndim != 1:
        raise InvalidArgumentError("gradients take one parameter set, not a stack")
    if params.template == REDUCED8:
        out = _full15_unitary(reduced_to_full(params).angles, grad)
        return (out[0], out[1][_REDUCED_SLOTS]) if grad else out
    return _full15_unitary(params.angles, grad)


def reduced_to_full(params):
    """Exact embedding of a Reduced8 parameter set into the Full15 template."""
    if params.template != REDUCED8:
        raise InvalidArgumentError("reduced_to_full expects Reduced8 parameters")
    full = np.zeros(params.angles.shape[:-1] + (15,))
    full[..., _REDUCED_SLOTS] = params.angles
    full[..., 8] = np.pi / 4
    return AnsatzParams(FULL15, full)


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


def site_kraus(a_ket, a_bra):
    """Bond-space operator k = sum_s (B^s)^dag A^s of one overlap site.

    This is the success Kraus operator of one prepare/unprepare site of the
    sequential overlap circuit; it equals the identity iff bra and ket
    describe the same tensor in the same gauge.
    """
    return np.einsum("sca,scb->ab", a_bra.conj(), a_ket)


def mixed_transfer_1site(a_ket, a_bra):
    """One-site mixed transfer matrix E = sum_s A^s (x) conj(B^s)."""
    return np.einsum("sab,scd->acbd", a_ket, a_bra.conj()).reshape(4, 4)


def _spectrum_4x4(m):
    return np.linalg.eigvals(m)


def euler_zxz(w):
    """Angles (first, mid, last) and global phase with
    w = exp(i*phase) * Rz(last) Rx(mid) Rz(first).

    The input must be a 2x2 unitary. Branches are chosen so the
    reconstruction is exact to machine precision.
    """
    w = np.asarray(w, dtype=complex)
    det = np.linalg.det(w)
    phase = 0.5 * np.angle(det)
    v = np.exp(-1j * phase) * w
    mid = 2.0 * np.arctan2(abs(v[1, 0]), abs(v[0, 0]))
    # v00 = cos(mid/2) e^{-i(first+last)/2}, v01 = -i sin(mid/2) e^{i(first-last)/2}
    if abs(v[0, 0]) > 1e-12 and abs(v[0, 1]) > 1e-12:
        sum_half = -np.angle(v[0, 0])
        diff_half = np.angle(v[0, 1]) + 0.5 * np.pi
        first, last = sum_half + diff_half, sum_half - diff_half
    elif abs(v[0, 0]) > 1e-12:
        first = last = -np.angle(v[0, 0])
    else:
        diff_half = np.angle(v[0, 1]) + 0.5 * np.pi
        first, last = diff_half, -diff_half
    recon = _zxz(first, mid, last)
    if np.max(np.abs(recon - v)) > 1e-9:
        first += 2.0 * np.pi  # other sheet of the double cover
        recon = _zxz(first, mid, last)
    if np.max(np.abs(recon - v)) > 1e-9:
        raise NumericFailure(
            "ZXZ Euler extraction failed",
            residual=float(np.max(np.abs(recon - v))),
        )
    return first, mid, last, phase


def _nearest_branch(angle, reference):
    """Shift by multiples of 4*pi (exact period) toward `reference`."""
    period = 4.0 * np.pi
    return angle + period * np.round((reference - angle) / period)


def x_gauge_rotate(params, theta):
    """Exact x-axis gauge rotation of a Reduced8 parameter set.

    Returns parameters with p7' = p7 - theta and (p0', p1', p4') the Euler
    re-decomposition absorbing Rx(theta) at the input end of the auxiliary
    chain. The physical state is exactly unchanged: the tensors transform as
    A^s -> g A^s g^dag with g = Rx(-theta).
    """
    if params.template != REDUCED8:
        raise InvalidArgumentError("x-gauge rotations act on the Reduced8 template")
    if not np.isfinite(theta):
        raise InvalidArgumentError("gauge angle must be finite")
    a = params.angles
    chain = _zxz(a[0], a[1], a[4]) @ rot_gate("X", theta)
    p0, p1, p4, phase = euler_zxz(chain)
    if abs(np.exp(1j * phase) - 1.0) > 1e-9:
        # SU(2) product; any residual sign sits on the double cover
        p0 += 2.0 * np.pi
        phase = 0.0
    new = a.copy()
    new[0] = _nearest_branch(p0, a[0])
    new[1] = _nearest_branch(p1, a[1])
    new[4] = _nearest_branch(p4, a[4])
    new[7] = a[7] - theta
    return AnsatzParams(REDUCED8, new)


def match_gauge(params_a, params_b):
    """Bond-space unitary best relating two iMPS states.

    Returns ``(gauge, residual)`` where ``gauge`` is the polar-decomposed
    leading *left* eigenvector of the mixed transfer matrix E_{A,B} reshaped
    to 2x2 (for left-isometric tensors the unit-modulus bond operator of a
    gauge-related pair lives on the left), and ``residual = 1 - |lambda|``.

    For ``params_b = x_gauge_rotate(params_a, theta)`` the recovered gauge is
    Rx(theta) up to global phase and the residual vanishes.
    """
    e = mixed_transfer_1site(tensor_of(params_a), tensor_of(params_b))
    spectrum = sorted(_spectrum_4x4(e), key=abs, reverse=True)
    if abs(spectrum[0]) - abs(spectrum[1]) < 1e-8 * max(abs(spectrum[0]), 1e-30):
        raise AmbiguousGaugeError(spectrum[:2])
    lam, v_left = qcore.leading_eig(e.conj().T)
    n = v_left.reshape(2, 2)
    u_polar, _, vh_polar = np.linalg.svd(n)
    gauge = u_polar @ vh_polar
    return gauge, float(1.0 - abs(lam))


def _reparam_condition(a_old, params_new):
    """Deviation of Re diag of the one-site overlap Kraus from the identity."""
    k = site_kraus(a_old, tensor_of(params_new))
    return np.array([k[0, 0].real - 1.0, k[1, 1].real - 1.0])


_REPARAM_FREE = [3, 4, 6]


def _solve_reparam_leg(a_old, work, tol, max_iter):
    """Damped Gauss-Newton on (p3, p4, p6) for fixed p7; minimum-norm steps.

    Returns the solved angles and whether a stationary point was reached.
    """

    def residual(x):
        trial = work.copy()
        trial[_REPARAM_FREE] = x
        return _reparam_condition(a_old, AnsatzParams(REDUCED8, trial))

    x = work[_REPARAM_FREE].copy()
    f = residual(x)
    eps = 1e-6
    for _ in range(max_iter):
        if np.linalg.norm(f, ord=np.inf) < tol:
            return x, True
        jac = np.empty((2, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            jac[:, j] = (residual(x + step) - residual(x - step)) / (2 * eps)
        grad = jac.T @ f
        if np.linalg.norm(grad, ord=np.inf) < 1e-9:
            return x, True  # stationary point of |f|^2
        jtj = jac.T @ jac
        damping = 1e-6 * max(np.trace(jtj).real, 1e-12)
        try:
            dx = np.linalg.solve(jtj + damping * np.eye(3), -grad)
        except np.linalg.LinAlgError:
            return x, False
        scale = 1.0
        improved = False
        for _ in range(40):
            f_trial = residual(x + scale * dx)
            if f_trial @ f_trial < f @ f:
                gain = (f @ f) - (f_trial @ f_trial)
                x = x + scale * dx
                f = f_trial
                improved = gain > 1e-8 * max(f @ f, 1e-300)
                break
            scale *= 0.5
        if not improved:
            return x, True  # descent gain below resolvable floor
    return x, False


def reparametrise(params, phi7_new, tol=1e-10, max_iter=200):
    """Move p7 of a Reduced8 set while approximately preserving the state.

    (p3, p4, p6) are adjusted by a damped Gauss-Newton iteration on the real
    parts of the diagonal of the one-site overlap Kraus (the condition that
    the identity stays a fixed point of the mixed transfer matrix between the
    old and new parameters). p7 is moved in short continuation legs so the
    solution follows a smooth curve seeded from the current angles. The
    invariance is only approximate; the returned
    ``fidelity_defect = 1 - |lambda_mixed|`` reports the residual honestly.
    """
    if params.template != REDUCED8:
        raise InvalidArgumentError("reparametrise acts on the Reduced8 template")
    a_old = tensor_of(params)
    total = phi7_new - params.angles[7]
    work = params.angles.copy()
    n_legs = max(1, int(np.ceil(abs(total) / 0.1)))
    converged = True
    for _ in range(n_legs):
        work[7] += total / n_legs
        x, ok = _solve_reparam_leg(a_old, work, tol, max_iter)
        work[_REPARAM_FREE] = x
        converged = converged and ok
    work[7] = phi7_new
    result = AnsatzParams(REDUCED8, work)
    e = mixed_transfer_1site(a_old, tensor_of(result))
    lam, _ = qcore.leading_eig(e)
    defect = float(1.0 - abs(lam))
    if not converged:
        raise NumericFailure(
            "reparametrisation solver did not reach stationarity",
            residual=defect,
        )
    return result, defect
