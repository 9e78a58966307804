import numpy as np


def random_unitary(dim, rng):
    """Haar-ish random unitary from QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitarity_defect(m):
    """Largest entry of |m^dag m - 1| for a square matrix or a stack of them."""
    m = np.asarray(m)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max()


def random_state(n_qubits, rng):
    v = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return v / np.linalg.norm(v)
