"""Mixed transfer matrices, fidelity density, and power-method estimates.

Conventions
-----------
Bond operators are vectorized column-stacked into 4-vectors; the mixed
transfer matrix acts as E = sum_s A^s (x) conj(B^s) (ket factor first). The
identity vectorizes to (1, 0, 0, 1) either way, and for left-isometric
tensors it is an exact *left* eigenvector of E with eigenvalue 1.

With a two-site evolution gate G inserted between bra and ket, one
application of E covers one two-site unit cell::

         b ---[B*]---[B*]--- b'     (bra strand, conjugated)
                |      |
                [  G     ]          (even-bond gate, within the cell)
                |      |
         a ---[ A]---[ A]--- a'     (ket strand)

    E[(a b), (a' b')] = sum_{s t}  <t1 t2| G |s1 s2>
                        (A^{s2} A^{s1})[a, a']  conj(B^{t2} B^{t1})[b, b']

so that with G = identity the cell matrix is exactly the square of the
one-site E. The second-order insertion composes W_o(dt/2) W_e(dt) W_o(dt/2)
on the cell (for the same bond generator this collapses to the doubled even
gate; the full odd/even window used by the cost circuits lives in
:mod:`quenchmps.circuits`).

The power-method estimate of the fidelity density is

    ratio_n = <L E^n R> / <L E^{n-1} R>,

with approximate boundaries R = vec(identity) (the right fixed point of the
unevolved transfer matrix to order dt^2) and L = vec(identity) pulled back
through two copies of the current state's transfer matrix, which leaves it
exactly vec(identity) for left-isometric tensors. With the exact eigenvectors
as boundaries the ratio equals the true eigenvalue already at n = 1.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import qcore
from .qcore import InvalidArgumentError, NumericFailure

VEC_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
MIN_EIGVEC_OVERLAP = 1e-6  # eigenvalue condition number 1/|<l|r>| at most 1e6


class DegenerateEstimateError(RuntimeError):
    """Power-method denominator vanished; the ratio estimate is undefined."""


@dataclass(frozen=True)
class MixedTransfer:
    """A 4x4 mixed transfer matrix and the evolution insertion it carries."""

    E: np.ndarray = field(repr=False)
    annotation: str = "identity"


@dataclass(frozen=True)
class FixedPointPair:
    """Approximate left (row) and right (column) boundary 4-vectors."""

    left: np.ndarray
    right: np.ndarray


def strand_products(a, n_sites):
    """All ordered tensor products A^{s_n} ... A^{s_1} of a strand.

    Returns an array of shape (2**n_sites, 2, 2) indexed by the physical
    string with site 1 as the most significant bit; a (k, 2, 2, 2) stack of
    tensors gives a (k, 2**n_sites, 2, 2) stack.
    """
    prods = np.eye(2, dtype=complex)[None, :, :]
    for _ in range(n_sites):
        # new site multiplies from the left; its bit is least significant,
        # so reorder to keep site 1 most significant
        prods = np.einsum("...uab,...pbc->...puac", a, prods)
        prods = prods.reshape(prods.shape[:-4] + (-1, 2, 2))
    return prods


def cell_matrix(ket, b_bra):
    """Cell matrix E[(a c), (a' c')] = sum_t K[t]_{a a'} conj(B^{t2} B^{t1})_{c c'}
    of the ket side ``ket`` (:func:`window_ket` of two sites) and the bra
    tensor."""
    pb = strand_products(b_bra, 2)
    return np.einsum("tab,tcd->acbd", ket, pb.conj()).reshape(4, 4)


def cell_eigenvalue_gradient(ket, b_bra, db):
    """Leading eigenvalue of the cell matrix and its derivatives along the
    bra tangents ``db`` (shape (n, 2, 2, 2)).

    First-order perturbation theory of a simple eigenvalue,
    d lambda = <l| dE |r> / <l|r>, with both eigenvectors from one LAPACK call.
    Raises :class:`NumericFailure` when |<l|r>| of the unit eigenvectors falls
    below ``MIN_EIGVEC_OVERLAP``: the top eigenvalue is then (nearly) non-simple
    and its derivative unbounded.
    """
    w, vl, vr = scipy.linalg.eig(cell_matrix(ket, b_bra), left=True, right=True)
    k = int(np.argmax(np.abs(w)))
    left, right = vl[:, k].conj(), vr[:, k]
    overlap = left @ right
    if abs(overlap) < MIN_EIGVEC_OVERLAP:
        raise NumericFailure(
            "leading eigenvalue of the cell matrix is not simple",
            residual=abs(overlap),
        )
    # <l| dE |r> = sum_{t,c,d} M[t]_cd conj(dP[t])_cd, with M[t] = L^T K[t] R for
    # the 2x2 reshapes L, R of the eigenvectors and P[t] = B^{t2} B^{t1}; the
    # product rule leaves one environment per bra site, summed in ``env``
    m = (left.reshape(2, 2).T @ ket @ right.reshape(2, 2)).reshape(2, 2, 2, 2)
    b_conj = b_bra.conj()
    env = np.einsum("uvcd,ued->vce", m, b_conj) + np.einsum("vce,uvcd->ued", b_conj, m)
    dlam = db.reshape(len(db), 8).conj() @ env.reshape(8)
    return w[k], dlam / overlap


def transfer_matrix(a_ket, b_bra, gate=None):
    """Mixed transfer matrix E_{A,B}, optionally with an evolution insertion.

    ``gate`` may be ``None`` (plain one-site overlap), a 4x4 unitary (the
    first-order even-bond gate, one per two-site cell), or a ``(W_o, W_e)``
    pair (second-order sandwich composed on the cell).
    """
    a_ket = np.asarray(a_ket, dtype=complex)
    b_bra = np.asarray(b_bra, dtype=complex)
    if a_ket.shape != (2, 2, 2) or b_bra.shape != (2, 2, 2):
        raise InvalidArgumentError("tensors must have shape (2, 2, 2)")
    if gate is None:
        e = np.einsum("sab,scd->acbd", a_ket, b_bra.conj()).reshape(4, 4)
        return MixedTransfer(e, "identity")
    if isinstance(gate, tuple):
        w_o, w_e = (np.asarray(g, dtype=complex) for g in gate)
        if w_o.shape != (4, 4) or w_e.shape != (4, 4):
            raise InvalidArgumentError("second-order gates must be 4x4")
        return MixedTransfer(
            cell_matrix(window_ket(a_ket, w_o @ w_e @ w_o, 2), b_bra), "second-order"
        )
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise InvalidArgumentError("evolution gate must be 4x4")
    return MixedTransfer(cell_matrix(window_ket(a_ket, gate, 2), b_bra), "first-order")


def _matrix_of(e):
    return e.E if isinstance(e, MixedTransfer) else np.asarray(e, dtype=complex)


def fidelity_density(e):
    """Leading eigenvalue of the mixed transfer matrix."""
    lam, _ = qcore.leading_eig(_matrix_of(e))
    return lam


def approx_fixed_points(params_t):
    """Boundary vectors for the power method built from the current state.

    The right vector is the vectorized identity. The left vector applies the
    adjoint of the current state's own transfer matrix twice to the
    vectorized identity (two copies of the state unitary on the boundary);
    for left-isometric tensors this reproduces vec(identity) exactly.
    """
    from .ansatz import tensor_of

    a = tensor_of(params_t)
    e_uu = transfer_matrix(a, a).E
    left = e_uu.conj().T @ (e_uu.conj().T @ VEC_IDENTITY)
    return FixedPointPair(left=left.conj(), right=VEC_IDENTITY.copy())


def power_method_ratio(e, fp, n):
    """Ratio estimate C_n / C_{n-1} of the leading eigenvalue.

    C_m = <L| E^m |R> with the boundary vectors of ``fp``. Raises
    :class:`DegenerateEstimateError` if the normalizing C_{n-1} vanishes.
    """
    if n < 1:
        raise InvalidArgumentError("power-method order must be at least 1")
    m = _matrix_of(e)
    left = np.asarray(fp.left, dtype=complex)
    right = np.asarray(fp.right, dtype=complex)
    v = right
    for _ in range(n - 1):
        v = m @ v
    c_prev = left @ v
    c_next = left @ (m @ v)
    scale = np.linalg.norm(m, ord=np.inf) * np.linalg.norm(left) * np.linalg.norm(v)
    if abs(c_prev) < 1e-14 * max(scale, 1e-300):
        raise DegenerateEstimateError(
            f"vanishing power-method denominator C_{n - 1} = {c_prev:.3e}"
        )
    return c_next / c_prev


def site_overlap_map(m, a_ket, b_bra):
    """One site of the sequential overlap applied to a bond operator (or a
    stack of them): M -> sum_s (B^s)^dag M A^s."""
    return np.einsum("sca,...cd,sdb->...ab", b_bra.conj(), m, a_ket)


def window_ket(a_ket, gate_layer, n_sites):
    """Ket side K[t] = sum_s <t|L|s> A-prod_s of a block of ``n_sites``
    overlap sites with the dense gate layer L between the strands, shape
    (2**n_sites, 2, 2). It depends on the current state only, so an optimizer
    over the bra computes it once; an incoming bond operator M is folded in
    as ``M @ K``."""
    gate_layer = np.asarray(gate_layer, dtype=complex)
    dim = 2**n_sites
    if gate_layer.shape != (dim, dim):
        raise InvalidArgumentError(
            f"gate layer shape {gate_layer.shape} does not cover {n_sites} sites"
        )
    return np.einsum("ts,sab->tab", gate_layer, strand_products(a_ket, n_sites))


def window_overlap_map(ket, b_bra):
    """The window block applied to the identity bond operator,
    sum_t (B-prod_t)^dag K[t], for the ket side ``ket`` of
    :func:`window_ket`: one (2 x 2**(n+1)) . (2**(n+1) x 2) product, per
    bra tensor of a (k, 2, 2, 2) stack."""
    pb = strand_products(b_bra, len(ket).bit_length() - 1).conj()
    return pb.reshape(pb.shape[:-3] + (-1, 2)).swapaxes(-1, -2) @ ket.reshape(-1, 2)
