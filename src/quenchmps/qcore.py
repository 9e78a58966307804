"""Dense complex linear algebra, a small statevector simulator, and the
package's one rule for scalar inputs: :func:`check_reals`,
:func:`check_count` and :func:`check_choice`.

Matrices and states are plain ``numpy.ndarray`` of ``complex128``; a "CMatrix"
is any 2-D array, a statevector is a 1-D array of length ``2**n``. Every
module checks its real, integer and named options with those three: NumPy
scalars count; bools, complex numbers, strings and ``None`` are not numbers,
and only a ``str`` is a name.

Conventions fixed project-wide here:

* Qubit 0 is the **most significant bit** of the amplitude index, i.e. for a
  state ``psi`` on ``n`` qubits the amplitude of basis state ``|b_0 b_1 ... >``
  sits at index ``b_0 * 2**(n-1) + b_1 * 2**(n-2) + ...``.
* Multi-qubit gates are indexed the same way: for ``apply_gate(psi, g, (p, q))``
  the first target ``p`` is the slow (first Kronecker factor) index of ``g``.
* All arithmetic is double precision complex.
"""

import functools
import math
import numbers

import numpy as np
import scipy.linalg

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# LAPACK's complex eigensolver and its workspace query
_GEEV, _GEEV_LWORK = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), dtype=complex)


class InvalidArgumentError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


class NumericFailure(RuntimeError):
    """Raised when a numerical routine fails to converge or its result is
    ill-defined (a non-simple eigenvalue, a singular fixed-point solve).

    Carries the best residual (or defect) achieved in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the dense-simulation size limits."""


def is_count(value):
    """Whether ``value`` is an integer and not a bool: Python and NumPy
    integers count, ``True`` and ``numpy.True_`` do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_reals(**values):
    """Reject a value that is not a finite real number (a bool is not) with
    :class:`InvalidArgumentError`, naming its keyword."""
    for name, value in values.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise InvalidArgumentError(f"{name} must be finite and real, got {value!r}")


def check_count(least, **values):
    """Reject a value that is not an integer (:func:`is_count`) of at least
    ``least`` with :class:`InvalidArgumentError`, naming its keyword."""
    for name, value in values.items():
        if not is_count(value) or value < least:
            msg = f"{name} must be an integer of at least {least}, got {value!r}"
            raise InvalidArgumentError(msg)


def check_choice(name, value, choices):
    """Reject a ``value`` that is not a ``str`` among ``choices`` with
    :class:`InvalidArgumentError`, naming it ``name``."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidArgumentError(f"unknown {name} {value!r}, expected one of {tuple(choices)}")


@functools.cache
def _geev_lwork(n):
    """``geev`` workspace for an n x n matrix with both eigenvectors (ample without)."""
    return int(_GEEV_LWORK(n, compute_vl=1, compute_vr=1)[0].real)


def rot_gate(axis, angle):
    """Single-qubit rotation exp(-i * angle * P / 2) = cos(angle/2) 1 -
    i sin(angle/2) P for the Pauli P named by ``axis`` ('X', 'Y' or 'Z'), at a
    finite real ``angle`` in radians. Kept for ``TRACED`` in ``bench/tracing.py``."""
    if axis not in _PAULIS:
        raise InvalidArgumentError(f"unknown rotation axis {axis!r}")
    check_reals(angle=angle)
    half = 0.5 * angle
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * _PAULIS[axis]


def two_site_exp(h, tau):
    """Unitary exp(-i * h * tau) of a 4x4 Hermitian generator, from its
    eigendecomposition (exactly unitary up to rounding at any ``tau``). A
    ``tau`` that is not a finite real (a complex one gives a non-unitary gate)
    is rejected by :func:`check_reals`."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 generator, got shape {h.shape}")
    if not np.max(np.abs(h - h.conj().T)) < 1e-10:
        raise InvalidArgumentError("generator is not Hermitian within 1e-10")
    check_reals(tau=tau)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * tau * w)) @ v.conj().T


def _geev(m, vectors):
    """``(m, ||m||_inf, w, vl, vr)`` of one checked ``geev``: eigenvectors if ``vectors``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvalidArgumentError(f"expected a non-empty square matrix, got {m.shape}")
    scale = np.abs(m).sum(axis=1).max()  # ||m||_inf, numpy's own definition of it
    if not 0.0 < scale < np.inf:
        raise InvalidArgumentError(f"matrix must be nonzero and finite, got norm {scale}")
    w, vl, vr, info = _GEEV(m, compute_vl=vectors, compute_vr=vectors, lwork=_geev_lwork(len(m)))
    if info != 0:
        raise NumericFailure(f"eigensolver failed (geev info {info})")
    return m, scale, w, vl, vr


def eigenvalues(m):
    """All eigenvalues of a matrix that :func:`leading_eig` takes, from one ``geev``
    without eigenvectors; it raises as that does, and on a non-finite eigenvalue."""
    w = _geev(m, 0)[2]
    if not np.isfinite(w).all():
        raise NumericFailure(f"eigensolver returned a non-finite eigenvalue: {w}")
    return w


def leading_eig(m):
    """Leading eigenpair (largest |eigenvalue|) of a small square matrix.

    One direct LAPACK ``geev`` call (the backward-stable QR algorithm) with
    both eigenvectors, its workspace queried once per matrix size. Returns
    ``(lam, right, left)``: m right = lam right, and the row vector ``left``
    (the conjugated left eigenvector l, so ``left`` is l^dag) gives
    left m = lam left; both are LAPACK's unit vectors. An empty, zero or
    non-finite ``m`` raises :class:`InvalidArgumentError` before LAPACK sees
    it; a ``geev`` that does not converge raises :class:`NumericFailure`, as
    does (residual attached) a right pair that misses ``1e-9 * ||m||``.
    """
    m, scale, w, vl, vr = _geev(m, 1)
    k = int(np.argmax(np.abs(w)))
    lam, right = w[k], vr[:, k]
    residual = np.linalg.norm(m @ right - lam * right)
    if not residual <= 1e-9 * scale:
        msg = f"leading eigenpair did not converge (residual {residual:.3e})"
        raise NumericFailure(msg, residual=residual)
    return lam, right, vl[:, k].conj()


def zero_state(n_qubits):
    """|0...0> on `n_qubits` qubits, an integer of at least 1 (:func:`check_count`)."""
    check_count(1, n_qubits=n_qubits)
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def n_qubits_of(state):
    """Qubit count n of a statevector: a 1-D array of length 2**n."""
    length = len(state) if np.ndim(state) == 1 else 0
    n = length.bit_length() - 1
    if not length or length != 2**n:
        raise InvalidArgumentError(
            f"a state needs a 1-D shape of a power of 2 length, got {np.shape(state)}"
        )
    return n


def apply_gate(state, gate, targets):
    """Apply a k-qubit gate to the given target qubits of a statevector.

    ``targets`` are distinct qubit indices, integers in [0, n) (a bool or a
    float is none); ``targets[0]`` corresponds to the first (slow) index of
    the gate matrix. Returns a new array.
    """
    state = np.asarray(state, dtype=complex)
    gate = np.asarray(gate, dtype=complex)
    n = n_qubits_of(state)
    targets = tuple(targets)
    k = len(targets)
    if gate.shape != (2**k, 2**k):
        raise InvalidArgumentError(
            f"gate shape {gate.shape} does not match {k} target qubits"
        )
    if not all(is_count(t) and 0 <= t < n for t in targets):
        raise InvalidArgumentError(f"targets must be qubits in [0, {n}), got {targets!r}")
    if len(set(targets)) != k:
        raise InvalidArgumentError(f"duplicate target qubits in {targets}")
    psi = state.reshape([2] * n)
    psi = np.moveaxis(psi, targets, range(k))
    shape = psi.shape
    psi = gate @ psi.reshape(2**k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), targets)
    return psi.reshape(-1)


def project_qubit(state, qubit, outcome):
    """Project (without renormalizing) onto the given measurement outcome.

    Used for exact success-branch bookkeeping of postselected circuits.
    ``qubit`` must be an integer in [0, n) and ``outcome`` the integer 0 or
    1 (bools are neither), as :class:`InvalidArgumentError` enforces.
    """
    state = np.asarray(state, dtype=complex)
    n = n_qubits_of(state)
    if not (is_count(qubit) and 0 <= qubit < n and is_count(outcome) and outcome in (0, 1)):
        raise InvalidArgumentError(
            f"need a qubit in [0, {n}) and an outcome 0 or 1, got {qubit!r}, {outcome!r}"
        )
    psi = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[qubit] = 1 - outcome
    psi[tuple(idx)] = 0.0
    return psi.reshape(-1)
