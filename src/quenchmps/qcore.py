"""Dense complex linear algebra, a small statevector simulator, and the
package's one rule for scalar inputs: :func:`check_reals`,
:func:`check_count` and :func:`check_choice`.

Matrices and states are plain ``numpy.ndarray`` of ``complex128``; a "CMatrix"
is any 2-D array, a statevector is a 1-D array of length ``2**n``. Each input
is checked once, at its entry: the drivers, oracles and statevector entry
points, what ``bench/`` calls, ``QuenchSpec``, ``AnsatzParams`` and
``tensor_of`` (the optimizers' iterates); reals, integers and names with those
three. NumPy scalars count; bools, complex numbers, strings and ``None`` are
not numbers, and only a ``str`` is a name. The kernels behind the entries
(:func:`two_site_exp`, the eigensolvers, the Trotter gates, the transfer
kernels) check nothing again. The simulator's primitives are :func:`zero_state`
and :func:`apply_gate`; a measurement is a projector applied as a gate.

Conventions fixed project-wide here:

* Qubit 0 is the **most significant bit** of the amplitude index, i.e. for a
  state ``psi`` on ``n`` qubits the amplitude of basis state ``|b_0 b_1 ... >``
  sits at index ``b_0 * 2**(n-1) + b_1 * 2**(n-2) + ...``.
* Multi-qubit gates are indexed the same way: for ``apply_gate(psi, g, (p, q))``
  the first target ``p`` is the slow (first Kronecker factor) index of ``g``.
* All arithmetic is double precision complex.
"""

import math
import numbers

import numpy as np
from scipy.linalg.lapack import zgeev as _GEEV

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class InvalidArgumentError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


class NumericFailure(RuntimeError):
    """Raised when a numerical routine fails to converge or its result is
    ill-defined (a non-simple eigenvalue, a singular fixed-point solve).
    """


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
    """Unitary exp(-i * h * tau) of a 4x4 Hermitian generator ``h`` at a
    finite real ``tau``, from its eigendecomposition (exactly unitary up to
    rounding at any such ``tau``)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * tau * w)) @ v.conj().T


def _geev(m, vectors):
    """``(w, vl, vr)`` of one ``geev`` on a square ``m``: eigenvectors if ``vectors``."""
    w, vl, vr, info = _GEEV(m, compute_vl=vectors, compute_vr=vectors)
    if info != 0:
        raise NumericFailure(f"eigensolver failed (geev info {info})")
    return w, vl, vr


def eigenvalues(m):
    """All eigenvalues of a matrix that :func:`leading_eig` takes, from one ``geev``
    without eigenvectors; it raises as that does, and on a non-finite eigenvalue."""
    w = _geev(m, 0)[0]
    if not np.isfinite(w).all():
        raise NumericFailure(f"eigensolver returned a non-finite eigenvalue: {w}")
    return w


def leading_eig(m):
    """Leading eigenpair (largest |eigenvalue|) of a small square matrix.

    One direct LAPACK ``zgeev`` call (the backward-stable QR algorithm) with
    both eigenvectors, on LAPACK's default workspace. Returns
    ``(lam, right, left)``: m right = lam right, and the row vector ``left``
    (the conjugated left eigenvector l, so ``left`` is l^dag) gives
    left m = lam left; both are LAPACK's unit vectors. A ``geev`` that does
    not converge raises :class:`NumericFailure`, as does (naming its
    residual) a right pair that misses ``1e-9 * ||m||_inf``.
    """
    w, vl, vr = _geev(m, 1)
    k = int(np.argmax(np.abs(w)))
    lam, right = w[k], vr[:, k]
    residual = np.linalg.norm(m @ right - lam * right)
    if not residual <= 1e-9 * np.abs(m).sum(axis=1).max():  # ||m||_inf
        msg = f"leading eigenpair did not converge (residual {residual:.3e})"
        raise NumericFailure(msg)
    return lam, right, vl[:, k].conj()


def zero_state(n_qubits):
    """|0...0> on `n_qubits` qubits, an integer of at least 1 (:func:`check_count`)."""
    check_count(1, n_qubits=n_qubits)
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def apply_gate(state, gate, targets):
    """Apply a k-qubit gate to the given target qubits of a statevector.

    ``targets`` are distinct qubit indices, integers in [0, n) (a bool or a
    float is none); ``targets[0]`` corresponds to the first (slow) index of
    the gate matrix. A ``state`` that is not a 1-D array of power-of-2
    length raises :class:`InvalidArgumentError`. Returns a new array.
    """
    state = np.asarray(state, dtype=complex)
    gate = np.asarray(gate, dtype=complex)
    length = len(state) if state.ndim == 1 else 0
    n = length.bit_length() - 1
    if not length or length != 2**n:
        raise InvalidArgumentError(
            f"a state needs a 1-D shape of a power of 2 length, got {state.shape}"
        )
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
