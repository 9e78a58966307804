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

The eigensolvers, :func:`eigenvalues` and :func:`leading_eig`, run LAPACK's
``zgeev`` (and, for the left vector, ``zgesv``) as built into NumPy, through
the gufuncs of ``numpy.linalg._umath_linalg`` that ``np.linalg`` wraps
(:func:`_geev`); the package imports no SciPy. A failed solve raises
:class:`NumericFailure`, also where warnings are errors.

Conventions fixed project-wide here:

* Qubit 0 is the **most significant bit** of the amplitude index, i.e. for a
  state ``psi`` on ``n`` qubits the amplitude of basis state ``|b_0 b_1 ... >``
  sits at index ``b_0 * 2**(n-1) + b_1 * 2**(n-2) + ...``.
* Multi-qubit gates are indexed the same way: for ``apply_gate(psi, g, (p, q))``
  the first target ``p`` is the slow (first Kronecker factor) index of ``g``.
* All arithmetic is double precision complex.
"""

import cmath
import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

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
    """One LAPACK ``zgeev`` on a square complex ``m``: the eigenvalues ``w``, or,
    if ``vectors``, ``(w, V)`` with the unit right eigenvectors as V's columns.

    It calls the gufuncs that ``np.linalg.eigvals`` and ``np.linalg.eig`` call,
    without those wrappers' Python checks. A ``zgeev`` that does not converge
    comes back as NaN with the floating-point invalid flag raised. The callers
    run it under ``np.errstate(invalid="ignore")``, so that the flag is no
    ``RuntimeWarning`` (an error where warnings are errors), and raise
    :class:`NumericFailure` on the NaN.
    """
    if vectors:
        return _umath_linalg.eig(m, signature="D->DD")
    return _umath_linalg.eigvals(m, signature="D->D")


def eigenvalues(m):
    """All eigenvalues of a matrix that :func:`leading_eig` takes, from one
    ``zgeev`` without eigenvectors (:func:`_geev`). A ``zgeev`` that does not
    converge (NaN) and an eigenvalue that overflows raise :class:`NumericFailure`."""
    with np.errstate(invalid="ignore"):
        w = _geev(m, False)
    if not np.isfinite(w).all():
        if np.isnan(w).any():
            raise NumericFailure("eigensolver failed (geev did not converge)")
        raise NumericFailure(f"eigensolver returned a non-finite eigenvalue: {w}")
    return w


def leading_eig(m):
    """Leading eigenpair (largest |eigenvalue|) of a small square matrix.

    One LAPACK ``zgeev`` (the backward-stable QR algorithm) gives the
    eigenvalues and the right eigenvectors V (:func:`_geev`); one ``zgesv``
    gives the left vector, row k of V^-1: the u with u V = e_k, so that
    u m = lam u. Returns ``(lam, right, left)``: m right = lam right, and the
    row vector ``left`` (the conjugated left eigenvector l, so ``left`` is
    l^dag) gives left m = lam left; both are unit vectors. It raises
    :class:`NumericFailure` on a ``zgeev`` that does not converge (NaN), on
    a V that is singular to working precision (a non-finite |u|), and, naming
    its residual, on a right pair that misses ``1e-9 * ||m||_inf``.
    """
    with np.errstate(invalid="ignore"):
        w, v = _geev(m, True)
        k = int(np.argmax(np.abs(w)))  # the first NaN, if there is one
        e_k = np.zeros(len(w), dtype=complex)
        e_k[k] = 1.0
        u = _umath_linalg.solve1(v.T, e_k, signature="DD->D")
    lam, right = w[k], v[:, k]
    if cmath.isnan(lam):
        raise NumericFailure("eigensolver failed (geev did not converge)")
    residual = np.linalg.norm(m @ right - lam * right)
    if not residual <= 1e-9 * np.abs(m).sum(axis=1).max():  # ||m||_inf
        msg = f"leading eigenpair did not converge (residual {residual:.3e})"
        raise NumericFailure(msg)
    scale = math.sqrt(np.vdot(u, u).real)
    if not math.isfinite(scale):
        raise NumericFailure(f"eigensolver failed (singular eigenvectors, |u| {scale})")
    return lam, right, u / scale


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
