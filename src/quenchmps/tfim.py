"""Transverse-field Ising Hamiltonian, Trotter gates, and the exact
Loschmidt echo oracle.

The Hamiltonian is H = sum_i [J Z_i Z_{i+1} + g X_i]. The Loschmidt echo is
reported throughout as the rate density

    r(t) = -(1/N) log |<psi(0)|psi(t)>|^2,

i.e. the squared-overlap convention, per site.

One oracle evaluates r(t) for the quench g0 -> g1 in the thermodynamic
limit, :func:`loschmidt_exact_ff`, via the free-fermion (Jordan-Wigner /
Bogoliubov) momentum integral,

      r(t) = -(1/pi) int_0^pi dk  log| cos^2(D_k) + sin^2(D_k) e^{-2 i e_k(g1) t} |,

where 2*theta_k(g) = atan2(sin k, g/J - cos k) is the Bogoliubov angle,
D_k = theta_k(g1) - theta_k(g0), and e_k(g) = 2 sqrt(J^2 + g^2 - 2 J g cos k)
is the quasiparticle energy. Cusps of r(t) sit at the critical times
t*_n = (2n+1) pi / (2 e_{k*}(g1)) with cos k* = (1 + g0 g1) / (g0 + g1).
(The sign convention of H maps onto the standard ferromagnetic chain by a
sublattice spin flip plus a global Z conjugation, neither of which affects
overlaps, so the textbook formulas apply verbatim.) The tests check it
against exact diagonalization of finite periodic chains.

Both free-fermion integrals take the trapezoid rule on a fixed momentum grid
(``ECHO_K_POINTS``, ``ENERGY_K_POINTS``), exact for their smooth periodic
integrands away from a cusp time and the critical field: a test holds both
within 1e-12 of ``scipy.integrate.quad`` on the reference quench.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import InvalidArgumentError, check_reals

STEP_RTOL = 1e-9  # how far t_max / dt may lie from a whole number, relatively
ECHO_K_POINTS = 2048  # momentum intervals of loschmidt_exact_ff on [0, pi]
ENERGY_K_POINTS = 4096  # momentum intervals of ground_energy_density_ff on [0, pi]
# most steps a quench may take: a run stores a (steps + 1) x 15 angle array
# (12 MB at the bound) and its tensors, and at the ensembles' ~1,000 steps/s takes
# about two minutes; far beyond that a spec is a typo for a larger dt
MAX_STEPS = 100_000

_ZZ = np.kron(qcore.PAULI_Z, qcore.PAULI_Z)
_X_SUM = np.kron(qcore.PAULI_X, qcore.IDENTITY_2) + np.kron(
    qcore.IDENTITY_2, qcore.PAULI_X
)


@dataclass(frozen=True)
class QuenchSpec:
    """Parameters of a transverse-field quench experiment: t_max must be a
    whole number of at least 1 and at most ``MAX_STEPS`` time steps dt."""

    J: float = 1.0
    g0: float = 1.5
    g1: float = 0.2
    dt: float = 0.1
    t_max: float = 2.5
    trotter_order: int = 1

    def __post_init__(self):
        check_reals(J=self.J, g0=self.g0, g1=self.g1, t_max=self.t_max, dt=self.dt)
        if not self.dt > 0:
            raise InvalidArgumentError("dt must be positive")
        if self.J == 0.0:
            raise InvalidArgumentError("coupling J must be nonzero")
        steps = self.t_max / self.dt
        if not steps <= MAX_STEPS:
            raise InvalidArgumentError(
                f"t_max must be at most {MAX_STEPS} steps, got t_max/dt = {steps!r}"
            )
        if not (round(steps) >= 1 and abs(steps - round(steps)) <= STEP_RTOL * steps):
            raise InvalidArgumentError(
                f"t_max must be a positive whole number of steps, got t_max/dt = {steps!r}"
            )
        if not qcore.is_count(self.trotter_order) or self.trotter_order not in (1, 2):
            raise InvalidArgumentError(
                f"trotter_order must be the integer 1 or 2, got {self.trotter_order!r}"
            )

    @property
    def n_steps(self):
        return int(round(self.t_max / self.dt))

    @property
    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


REFERENCE_QUENCH = QuenchSpec()


def check_spec(spec):
    """Reject a ``spec`` that is not a :class:`QuenchSpec`."""
    if not isinstance(spec, QuenchSpec):
        raise InvalidArgumentError(f"spec must be a QuenchSpec, got {type(spec).__name__}")


def bond_hamiltonian(J, g):
    """Two-site bond term h2 = J Z(x)Z + (g/2)(X(x)1 + 1(x)X).

    The transverse field is split half-and-half onto the two adjacent bonds.
    ``J`` and ``g`` must be finite reals (:class:`InvalidArgumentError`).
    """
    check_reals(J=J, g=g)
    return J * _ZZ + 0.5 * g * _X_SUM


def trotter_gate_first_order(J, g, dt):
    """Single even-bond gate exp(-i * 2dt * h2).

    For translationally invariant states the first-order update only needs
    the even part of the Trotterisation with the time step doubled, so this
    one gate per two-site cell implements the full step.
    """
    return qcore.two_site_exp(bond_hamiltonian(J, g), 2.0 * dt)


def trotter_gates_second_order(J, g, dt):
    """Symmetric-split gates (W_o(dt/2), W_e(dt)) for the second-order step.

    Both act with the bond generator of :func:`bond_hamiltonian`; composing
    odd(dt/2) . even(dt) . odd(dt/2) layers gives local error O(dt^3).
    """
    h2 = bond_hamiltonian(J, g)
    return qcore.two_site_exp(h2, 0.5 * dt), qcore.two_site_exp(h2, dt)


def quasiparticle_energy(k, g, J=1.0):
    return 2.0 * np.sqrt(J**2 + g**2 - 2.0 * J * g * np.cos(k))


def bogoliubov_angle(k, g, J=1.0):
    return 0.5 * np.arctan2(np.sin(k), g / J - np.cos(k))


def loschmidt_exact_ff(g0, g1, t, *, J=1.0):
    """Thermodynamic-limit echo density from the free-fermion solution.

    Trapezoidal integration on the fixed grid of ``ECHO_K_POINTS`` intervals
    (see the module docstring); the integrand has only an integrable log
    singularity at cusp times, where the grid keeps the error well below
    plotting resolution. Accepts a scalar time or a 1-D array. A ``J``,
    ``g0`` or ``g1`` that is not a finite real, a zero ``J``, and a time
    that is not a finite real, a ragged list or an array of more than one
    dimension are rejected with :class:`InvalidArgumentError`.
    """
    check_reals(J=J, g0=g0, g1=g1)
    if J == 0.0:
        raise InvalidArgumentError("coupling J must be nonzero")
    try:
        times = np.atleast_1d(t)
    except ValueError:  # a ragged nesting
        raise InvalidArgumentError("times must be a real array, got a ragged one") from None
    if times.ndim > 1:
        raise InvalidArgumentError(f"times must be a scalar or 1-D, got shape {times.shape}")
    if times.dtype.kind not in "iuf" or not np.all(np.isfinite(times)):
        raise InvalidArgumentError(f"times must be finite and real, got {t!r}")
    k = np.linspace(0.0, np.pi, ECHO_K_POINTS + 1)
    delta = bogoliubov_angle(k, g1, J) - bogoliubov_angle(k, g0, J)
    eps1 = quasiparticle_energy(k, g1, J)
    cos2, sin2 = np.cos(delta) ** 2, np.sin(delta) ** 2
    f = cos2[None, :] + sin2[None, :] * np.exp(-2j * eps1[None, :] * times[:, None])
    rates = -np.trapezoid(np.log(np.maximum(np.abs(f), 1e-300)), k, axis=1) / np.pi
    return rates if np.ndim(t) else float(rates[0])


def critical_momentum(g0, g1, J=1.0):
    """Momentum k* where the quench Bogoliubov angles differ by pi/4. A
    ``J``, ``g0`` or ``g1`` that is not a finite real, and a zero ``J`` or
    ``g0 + g1``, are rejected with :class:`InvalidArgumentError`."""
    check_reals(J=J, g0=g0, g1=g1)
    if J * (g0 + g1) == 0.0:
        raise InvalidArgumentError(
            f"no critical momentum for J={J!r}, g0 + g1 = {g0 + g1!r}"
        )
    c = (J**2 + g0 * g1) / (J * (g0 + g1))
    if not -1.0 <= c <= 1.0:
        raise InvalidArgumentError(
            "quench does not cross the dynamical transition (no critical momentum)"
        )
    return float(np.arccos(c))


def cusp_times(g0, g1, t_max, J=1.0):
    """Nonanalytic times t*_n = (2n+1) pi / (2 e_{k*}(g1)) <= t_max; a
    ``t_max`` that is not a finite real, and couplings that
    :func:`critical_momentum` rejects, raise :class:`InvalidArgumentError`."""
    check_reals(t_max=t_max)
    eps_star = quasiparticle_energy(critical_momentum(g0, g1, J), g1, J)
    # n <= t_max e*/pi covers every t*_n <= t_max with half a period to spare
    t = (2 * np.arange(int(t_max * eps_star / np.pi) + 1) + 1) * np.pi / (2.0 * eps_star)
    return list(t[t <= t_max])


def ground_energy_density_ff(J, g):
    """Thermodynamic-limit ground energy per site from the free-fermion
    dispersion, e0 = -(1/2pi) int_0^pi e_k(g) dk with e_k the
    :func:`quasiparticle_energy`, by the trapezoid rule on ``ENERGY_K_POINTS``
    intervals. ``J`` and ``g`` must be finite reals (``J = 0`` gives -|g|)."""
    check_reals(J=J, g=g)
    k = np.linspace(0.0, np.pi, ENERGY_K_POINTS + 1)
    return float(-np.trapezoid(quasiparticle_energy(k, g, J), k) / (2.0 * np.pi))
