"""Mixed transfer matrices, the cell matrix and its eigenvalue gradient, a
state's right fixed point and tangent metric, and the window overlap maps of
the cost circuits.

Conventions
-----------
Bond operators are vectorized row-major into 4-vectors, X[b, d] at index
2b + d; the mixed transfer matrix is E = sum_s A^s (x) conj(B^s) (ket factor
first), so E vec(X) = vec(sum_s A^s X (B^s)^dag). The identity vectorizes to
(1, 0, 0, 1), and for left-isometric tensors it is an exact *left*
eigenvector of E with eigenvalue 1.

With a two-site evolution gate G inserted between bra and ket, the cell
matrix of :func:`cell_eigenvalue_gradient` covers one two-site unit cell::

         b ---[B*]---[B*]--- b'     (bra strand, conjugated)
                |      |
                [  G     ]          (even-bond gate, within the cell)
                |      |
         a ---[ A]---[ A]--- a'     (ket strand)

    E[(a b), (a' b')] = sum_{s t}  <t1 t2| G |s1 s2>
                        (A^{s2} A^{s1})[a, a']  conj(B^{t2} B^{t1})[b, b']

so that with G = identity the cell matrix is exactly the square of the
one-site E. One kernel forms every strand product, here and in the cost
circuits (:func:`join_strands`), one formula every cell matrix, and one
product rule every gradient through two-site products (:func:`pair_cotangent`).
The odd/even window of second-order Trotterisation used by the cost circuits
lives in :mod:`quenchmps.circuits`.
"""

import numpy as np

from . import qcore
from .qcore import NumericFailure

VEC_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
MIN_EIGVEC_OVERLAP = 1e-6  # eigenvalue condition number 1/|<l|r>| at most 1e6
# least eigenvalue ratio w / w_max of the tangent metric F counted in its range.
# On FULL15, along the dt = 0.05 "eigen" reference to t = 3.5, the 8 range
# eigenvalues stay at or above 4.1e-5 of the largest (3.9e-4 at the ground
# state), and the 7 null ones at or below 5.7e-16
TANGENT_RANK_RTOL = 1e-8


def strand_products(a, n_sites):
    """All ordered tensor products A^{s_n} ... A^{s_1} of a strand.

    Returns an array of shape (2**n_sites, 2, 2) indexed by the physical
    string with site 1 as the most significant bit; a (k, 2, 2, 2) stack of
    tensors gives a (k, 2**n_sites, 2, 2) stack. Each site after the first
    joins the strand in turn (:func:`join_strands`): n - 1 joins.
    """
    prods = a
    for _ in range(n_sites - 1):
        prods = join_strands(prods, a)
    return prods


def join_strands(first, then):
    """Strand products of ``first`` (more significant, acting first) then
    ``then``: then^q first^p at index p * 2**m + q, with m the sites of
    ``then``. Leading stack axes broadcast. The one kernel of every strand
    product in the package: ``then`` flattened to rows (q a), times each
    first^p in one batched matmul, out[p, (q a), c]."""
    flat = then.reshape(then.shape[:-3] + (-1, 2))
    out = flat[..., None, :, :] @ first
    return out.reshape(out.shape[:-3] + (-1, 2, 2))


def _cell_of_products(ket, pb_conj):
    """Cell matrix E[(a c), (a' c')] = sum_t K[t]_{a a'} conj(P_t)_{c c'} of the
    ket side ``ket`` (A itself for one site) and the bra's conjugated strand
    products ``pb_conj``: K's (a a', t) transpose times conj(P) in (t, c c') layout."""
    cell = ket.reshape(len(ket), 4).T @ pb_conj.reshape(len(ket), 4)
    return cell.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def cell_eigenvalue_gradient(ket, b_bra, db):
    """Leading eigenvalue of the two-site cell matrix of the ket side ``ket``
    (:func:`window_ket` of two sites) and the bra tensor ``b_bra``, and its
    derivatives along the bra tangents ``db`` (shape (n, 2, 2, 2)).

    The matrix is :func:`_cell_of_products`'s, from the bra's conjugated strand
    products conj(P[2 t1 + t2]) = conj(B^{t2} B^{t1}), joined from conj(B)
    (:func:`join_strands`). The derivative is first-order perturbation
    theory of a simple eigenvalue, d lambda = <l| dE |r> / <l|r>, with both
    eigenvectors from :func:`qcore.leading_eig`. Raises
    :class:`NumericFailure` when that does, or when |<l|r>| of the unit
    eigenvectors falls below ``MIN_EIGVEC_OVERLAP``: the top eigenvalue is
    then (nearly) non-simple and its derivative unbounded.
    """
    b_conj = b_bra.conj()
    cell = _cell_of_products(ket, join_strands(b_conj, b_conj))
    lam, right, left = qcore.leading_eig(cell)
    overlap = left @ right
    if abs(overlap) < MIN_EIGVEC_OVERLAP:
        raise NumericFailure(
            f"leading eigenvalue of the cell matrix is not simple (|<l|r>| {abs(overlap):.3e})"
        )
    # <l| dE |r> = sum_{t,c,d} M[t]_cd conj(dP[t])_cd, with M[t] = L^T K[t] R for
    # the 2x2 reshapes L, R of the eigenvectors: M is the cotangent on conj(P)
    m = (left.reshape(2, 2).T @ ket @ right.reshape(2, 2)).reshape(4, 2, 2)
    dlam = db.reshape(len(db), 8).conj() @ pair_cotangent(b_conj, m).reshape(8)
    return lam, dlam / overlap


def pair_cotangent(b, g):
    """The one product rule on two-site strand products: the cotangent e on
    the tensor ``b`` of a cotangent ``g`` (shape (4, 2, 2, ...)) on its
    products v = ``join_strands(b, b)``, with sum dB e = sum dv g for
    dv = join(dB, B) + join(B, dB), summed over all but the trailing axes of
    ``g``, which e keeps. One environment per site, summed; dv never formed."""
    g = g.reshape((2, 2) + g.shape[1:])  # v[2 t1 + t2] = B^{t2} B^{t1}: g[t1, t2, a, c, ...]
    return np.einsum("uvcd...,ued->vce...", g, b) + np.einsum("vce,uvcd...->ued...", b, g)


def transfer_matrix(a_ket, b_bra):
    """One-site mixed transfer matrix E_{A,B} = sum_s A^s (x) conj(B^s)."""
    return _cell_of_products(a_ket, b_bra.conj())


def right_fixed_point(a):
    """The pinned matrix P = 1 - E + |vec 1><vec 1| of E = ``transfer_matrix(a,
    a)`` for a left-isometric ``a``, and the trace-one right fixed point rho of
    E, shape (2, 2), from one solve P vec rho = vec 1. As <vec 1| is a left
    null vector of 1 - E, P is 1 - E on the vectors of trace zero, where
    P^-1 is the reduced resolvent of E at 1; :func:`pinned_solve` solves with it."""
    pinned = np.eye(4) - transfer_matrix(a, a)
    pinned += np.outer(VEC_IDENTITY, VEC_IDENTITY)
    return pinned, pinned_solve(pinned, VEC_IDENTITY).reshape(2, 2)


def pinned_solve(pinned, rhs):
    """``np.linalg.solve`` that raises :class:`NumericFailure` on a singular
    matrix, as the pinned matrix of a product state is: its fixed point is
    not unique."""
    try:
        return np.linalg.solve(pinned, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"fixed-point solve failed: {exc}") from exc


def tangent_metric(a, da):
    """The iMPS tangent-space metric F, real symmetric (n, n): the Hessian of
    1 - |lambda(E_{A,B(theta)})| at B = A for the left-isometric tensor ``a``
    and its tangents ``da`` = dA/dtheta, shape (n, 2, 2, 2), from
    ``tensor_of(x, grad=True)``. Under the identity gate the "eigen" step
    objective is -|lambda|^2 of the square of that matrix, whose Hessian is 2F.

    At B = A, lambda = 1 with the fixed points l = vec 1, r = vec rho, and
    second-order perturbation theory gives, with E_j = sum_s A^s (x) conj(dA_j^s),
    lambda_j = <l|E_j|r> = Tr C_j rho for C_j = sum_s dA_j^s^dag A^s, and the
    reduced resolvent R at 1,

        F_jk = Re sum_s Tr[dA_j^s rho dA_k^s^dag] - 2 Re sym <l|E_j R E_k|r>
               - Im lambda_j Im lambda_k.

    The normalization sum_s B^s^dag B^s = 1 turns the d^2B term into the first
    (the Gram form of the tangents), so F needs no second derivative. R E_k|r>
    is the solve on the pinned matrix P (:func:`right_fixed_point`) of
    E_k r - lambda_k r, which has trace zero, so F takes two solves on P: rho
    and all n of these at once. On ``FULL15`` F has rank 8, the dimension of
    the bond-dimension-2 iMPS manifold, counting the eigenvalues above
    ``TANGENT_RANK_RTOL`` = 1e-8 times the largest; it is zero on the gauge
    directions. A singular P raises :class:`NumericFailure`.
    """
    n = len(da)
    pinned, rho = right_fixed_point(a)
    # E_k r = vec sum_s A^s rho dA_k^s^dag: one product over (s, c)
    da_dag = da.conj().swapaxes(-1, -2).reshape(n, 4, 2)
    moved = (a @ rho).transpose(1, 0, 2).reshape(2, 4) @ da_dag
    # Tr C_j X = traces[j] @ vec X, as C_j^dag = sum_s A^s^dag dA_j^s
    traces = (a.reshape(4, 2).conj().T @ da.reshape(n, 4, 2)).reshape(n, 4).conj()
    lam = traces @ rho.reshape(4)
    resolved = pinned_solve(pinned, (moved - lam[:, None, None] * rho).reshape(n, 4).T)
    cross = (traces @ resolved).real  # <l|E_j R E_k|r>
    gram = ((da.reshape(-1, 2) @ rho).reshape(n, 8) @ da.reshape(n, 8).conj().T).real
    return gram - cross - cross.T - np.outer(lam.imag, lam.imag)


def site_overlap_map(m, a_ket, b_bra):
    """One site of the sequential overlap applied to a bond operator (or a
    stack of them): M -> sum_s (B^s)^dag M A^s. Kept for ``TRACED`` in
    ``bench/tracing.py``; the cost side reads its copies off E^2."""
    return np.einsum("sca,...cd,sdb->...ab", b_bra.conj(), m, a_ket)


def window_ket(a_ket, gate_layer):
    """Ket side K[t] = sum_s <t|L|s> A-prod_s of a block of n overlap sites
    with the dense gate layer L between the strands, shape (2**n, 2, 2). The
    site count n is read from the layer, a 2**n x 2**n square. K depends on
    the current state only, so an optimizer over the bra computes it once; an
    incoming bond operator M is folded in as ``M @ K``."""
    n_sites = len(gate_layer).bit_length() - 1
    return (gate_layer @ strand_products(a_ket, n_sites).reshape(-1, 4)).reshape(-1, 2, 2)


def window_overlap_map(side, b_bra):
    """The bra strand of a window contracted against a side of the diagram,
    per bra tensor of a (k, 2, 2, 2) stack.

    ``side`` has shape (2**n, 2, ...): the bra's physical string t and the
    incoming bond index a of its strand products Pb_t[a, c], then the side's
    own axes, of which the last is kept. The conjugated products, flattened
    in (t, a, c) order, are contracted with every axis of the side but its
    last; what is left of (t, a, c) becomes the rows. For the ket side K of
    :func:`window_ket` that is sum_t (Pb_t)^dag K[t], the window block on the
    identity bond operator; for a (2**n, 2, 2, m) side that also carries c, as
    the cost circuit's side with its boundary copies folded in does, a (1, m)
    row per bra tensor. Each row rounds as that bra tensor alone does.
    Nothing in the package calls it: it is the tests' reference for the cost
    circuit's bilinear form (:func:`quenchmps.circuits.success_probability_fn`),
    kept for ``TRACED`` in ``bench/tracing.py``.
    """
    pb = strand_products(b_bra, len(side).bit_length() - 1).conj()
    flat = side.reshape(-1, side.shape[-1])
    return pb.reshape(pb.shape[:-3] + (len(flat), -1)).swapaxes(-1, -2) @ flat
