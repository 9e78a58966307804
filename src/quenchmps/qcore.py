"""Dense complex linear algebra and a small statevector simulator.

Matrices and states are plain ``numpy.ndarray`` of ``complex128``; a "CMatrix"
is any 2-D array, a statevector is a 1-D array of length ``2**n``.

Conventions fixed project-wide here:

* Qubit 0 is the **most significant bit** of the amplitude index, i.e. for a
  state ``psi`` on ``n`` qubits the amplitude of basis state ``|b_0 b_1 ... >``
  sits at index ``b_0 * 2**(n-1) + b_1 * 2**(n-2) + ...``.
* Multi-qubit gates are indexed the same way: for ``apply_gate(psi, g, (p, q))``
  the first target ``p`` is the slow (first Kronecker factor) index of ``g``.
* All arithmetic is double precision complex.
"""

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class InvalidArgumentError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


class NumericFailure(RuntimeError):
    """Raised when a numerical routine fails to converge or its result is
    ill-defined (a non-simple eigenvalue, a zero gradient estimate).

    Carries the best residual (or defect) achieved in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the dense-simulation size limits."""


def is_unitary(m, tol=1e-10):
    """Whether the square matrix ``m``, or every slice of a stack of them,
    satisfies |m^dag m - 1| < ``tol`` entrywise."""
    m = np.asarray(m)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max() < tol


def is_hermitian(m, tol=1e-12):
    m = np.asarray(m)
    return np.max(np.abs(m - m.conj().T)) < tol


def rot_gate(axis, angle):
    """Single-qubit rotation exp(-i * angle * P / 2) for Pauli P on `axis`.

    Parameters
    ----------
    axis : {'X', 'Y', 'Z'}
    angle : float, radians; must be finite.
    """
    if axis not in _PAULIS:
        raise InvalidArgumentError(f"unknown rotation axis {axis!r}")
    if not np.isfinite(angle):
        raise InvalidArgumentError(f"rotation angle must be finite, got {angle!r}")
    half = 0.5 * angle
    c, s = np.cos(half), np.sin(half)
    if axis == "Z":
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c, -s], [s, c]], dtype=complex)


def two_site_exp(h, tau):
    """Unitary exp(-i * h * tau) of a 4x4 Hermitian generator, from its
    eigendecomposition (exactly unitary up to rounding at any ``tau``)."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 generator, got shape {h.shape}")
    if not is_hermitian(h, tol=1e-10):
        raise InvalidArgumentError("generator is not Hermitian within 1e-10")
    if not np.isfinite(tau):
        raise InvalidArgumentError("time step must be finite")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * tau * w)) @ v.conj().T


def leading_eig(m):
    """Leading eigenpair (largest |eigenvalue|) of a small square matrix.

    One call of the backward-stable QR algorithm. Returns
    ``(eigenvalue, eigenvector)`` with the eigenvector normalized. Raises
    :class:`NumericFailure` (residual attached) if the pair misses a residual
    of ``1e-9 * ||m||``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m, ord=np.inf)
    if scale == 0.0:
        raise InvalidArgumentError("matrix is zero")
    evals, evecs = np.linalg.eig(m)
    k = int(np.argmax(np.abs(evals)))
    lam, v = evals[k], evecs[:, k] / np.linalg.norm(evecs[:, k])
    residual = np.linalg.norm(m @ v - lam * v)
    if not residual <= 1e-9 * scale:
        msg = f"leading eigenpair did not converge (residual {residual:.3e})"
        raise NumericFailure(msg, residual=residual)
    return lam, v


def zero_state(n_qubits):
    """|0...0> on `n_qubits` qubits."""
    if n_qubits < 1:
        raise InvalidArgumentError("need at least one qubit")
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def n_qubits_of(state):
    n = int(np.log2(len(state)))
    if 2**n != len(state):
        raise InvalidArgumentError(f"state length {len(state)} is not a power of 2")
    return n


def apply_gate(state, gate, targets):
    """Apply a k-qubit gate to the given target qubits of a statevector.

    ``targets`` are distinct qubit indices; ``targets[0]`` corresponds to the
    first (slow) index of the gate matrix. Returns a new array.
    """
    state = np.asarray(state, dtype=complex)
    gate = np.asarray(gate, dtype=complex)
    n = n_qubits_of(state)
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if gate.shape != (2**k, 2**k):
        raise InvalidArgumentError(
            f"gate shape {gate.shape} does not match {k} target qubits"
        )
    if len(set(targets)) != k:
        raise InvalidArgumentError(f"duplicate target qubits in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise InvalidArgumentError(f"target out of range for {n} qubits: {targets}")
    psi = state.reshape([2] * n)
    psi = np.moveaxis(psi, targets, range(k))
    shape = psi.shape
    psi = gate @ psi.reshape(2**k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), targets)
    return psi.reshape(-1)


def outcome_probability(state, qubit, outcome):
    """Probability that measuring `qubit` in the computational basis gives
    `outcome` (0 or 1)."""
    state = np.asarray(state)
    n = n_qubits_of(state)
    if qubit < 0 or qubit >= n:
        raise InvalidArgumentError(f"qubit {qubit} out of range for {n} qubits")
    if outcome not in (0, 1):
        raise InvalidArgumentError(f"outcome must be 0 or 1, got {outcome!r}")
    psi = state.reshape([2] * n)
    block = np.take(psi, outcome, axis=qubit)
    return float(np.sum(np.abs(block) ** 2))


def project_qubit(state, qubit, outcome):
    """Project (without renormalizing) onto the given measurement outcome.

    Used for exact success-branch bookkeeping of postselected circuits.
    """
    state = np.asarray(state, dtype=complex)
    n = n_qubits_of(state)
    psi = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[qubit] = 1 - outcome
    psi[tuple(idx)] = 0.0
    return psi.reshape(-1)
