"""The sequential (time-like) cost circuit and its exact evaluation.

The circuit estimates the second-order power-method overlap between the
Trotter-evolved current state U(t) and a candidate W. One auxiliary qubit
carries the bond index; physical qubits are emitted by U(t), passed through
the evolution gate layer, absorbed by W^dag, and measured. Success is the
all-zero outcome on the measured (physical) qubits; the auxiliary qubit is
never measured, which realizes the identity approximation of the right
boundary, while the two leading/trailing copies of the current state unitary
realize the left boundary.

Layout for power-method order 2 (first-order Trotter; sites are numbered in
ket emission order, qubit 0 is the bond qubit)::

    site:     1    2  |  3    4   |   5    6
    ket:    U(q1) U(q2)|U(q3) U(q4)|U(q5) U(q6)     copies | cell 1 | cell 2
    gates:              G(q3,q4)    G(q5,q6)
    bra:    ... Udag(q2) Udag(q1)  <- Wdag(q4) Wdag(q3) <- Wdag(q6) Wdag(q5)
    measure: each physical qubit right after its bra unitary, then reset

so the bra strand unwinds in mirror order (innermost cell first) and every
measurement is mid-circuit except the last. For second-order Trotter the
four evolution sites carry the odd/even sandwich W_o(dt/2) on the straddling
bond, W_e(dt) on the two cell bonds, then W_o(dt/2) again.

The same diagram is contracted exactly in the 2x2 bond-operator algebra
(one `(B^s)^dag . A^s` overlap factor per site); agreement of the two routes
to 1e-9 is the core correctness gate of the whole artifact. The contraction
is split by what an optimizer varies. The gate layer depends on the quench
only (:func:`evolution_gate_layer`). :func:`success_probability_fn` builds
the side fixed by the current state once per step: the ket side of the
evolution window K[t] = sum_s <t|L|s> A-prod_s (16 x 2 x 2) and the two
boundary copies folded into one 2 x 4 map. It returns a function of the
candidates that builds only their tensors and strand products and does one
(2 x 32) . (32 x 2) product per candidate. The candidates come as one
:class:`~quenchmps.ansatz.AnsatzParams` with a (k, n) stack of angles (an
SPSA +/- pair is k = 2), and the function returns one probability per row,
each the same float that row gives on its own. :func:`dense_success_probability`
is that function evaluated on one candidate.

With the candidate equal to the current state and no evolution, every
prepare/unprepare pair composes to the identity on the bond register via the
left-isometry of the tensors, so the success probability is exactly 1; the
cost sampled by :func:`sample` is `1 - p_hat`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import qcore, tfim, transfer
from .ansatz import build_unitary, tensor_of
from .qcore import InvalidArgumentError, ResourceLimitError

MAX_CIRCUIT_QUBITS = 12
POWER_METHOD_ORDER = 2


@dataclass(frozen=True)
class CircuitOp:
    kind: str  # "gate" | "measure" | "reset"
    targets: tuple
    name: str = ""
    matrix: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class CostCircuit:
    qubit_count: int
    ops: tuple
    measured_qubits: tuple
    order: int = POWER_METHOD_ORDER
    trotter_order: int = 1


@dataclass(frozen=True)
class ShotEstimate:
    p_hat: float
    shots: int
    std_err: float
    seed: int


def evolution_gate_layer(spec, dt=None):
    """Dense gate layer on the four evolution sites of the cost window.

    ``dt = 0`` yields the identity layer (useful for overlap-only checks).
    """
    if dt is None:
        dt = spec.dt
    eye4 = np.eye(4, dtype=complex)
    if dt == 0.0:
        return np.eye(16, dtype=complex), []
    if spec.trotter_order == 1:
        g = tfim.trotter_gate_first_order(spec.J, spec.g1, dt)
        return np.kron(g, g), [("G", g, (0, 1)), ("G", g, (2, 3))]
    w_o, w_e = tfim.trotter_gates_second_order(spec.J, spec.g1, dt)
    placed = [
        ("Wo", w_o, (1, 2)),
        ("We", w_e, (0, 1)),
        ("We", w_e, (2, 3)),
        ("Wo", w_o, (1, 2)),
    ]
    layer = np.eye(16, dtype=complex)
    for _, gate, (lo, _hi) in placed:
        embedded = np.kron(
            np.eye(2**lo, dtype=complex),
            np.kron(gate, np.eye(2 ** (2 - lo), dtype=complex)),
        )
        layer = embedded @ layer
    return layer, placed


def build_cost_circuit(params_t, params_candidate, spec, dt=None, copies_params=None):
    """Sequential cost circuit for one evolution step.

    ``params_t`` describes the current state (ket strand), ``params_candidate``
    the trial update absorbed on the bra strand. The two boundary copies
    default to the current state unitary (``copies_params`` overrides, e.g.
    to probe the boundary-choice robustness). The evolution insertion follows
    ``spec`` (``dt`` may be overridden, e.g. zero for pure-overlap
    diagnostics).
    """
    if spec.trotter_order not in (1, 2):
        raise InvalidArgumentError("unsupported trotter_order")
    u = build_unitary(params_t)
    w = build_unitary(params_candidate)
    v = u if copies_params is None else build_unitary(copies_params)
    n_copies = 2
    n_evo = 2 * POWER_METHOD_ORDER
    n_sites = n_copies + n_evo
    qubit = lambda site: site  # qubit 0 is the bond register
    ops = []
    for site in range(1, n_copies + 1):
        ops.append(CircuitOp("gate", (qubit(site), 0), "V", v))
    for site in range(n_copies + 1, n_sites + 1):
        ops.append(CircuitOp("gate", (qubit(site), 0), "U", u))
    _, placed = evolution_gate_layer(spec, dt)
    first_evo = n_copies + 1
    for name, gate, (lo, hi) in placed:
        ops.append(
            CircuitOp("gate", (qubit(first_evo + lo), qubit(first_evo + hi)), name, gate)
        )
    w_dag = w.conj().T
    v_dag = v.conj().T
    bra_order = []
    for cell in reversed(range(POWER_METHOD_ORDER)):
        s1 = n_copies + 2 * cell + 1
        bra_order.extend([(s1 + 1, "W_dag", w_dag), (s1, "W_dag", w_dag)])
    bra_order.extend([(2, "V_dag", v_dag), (1, "V_dag", v_dag)])
    for site, name, mat in bra_order:
        ops.append(CircuitOp("gate", (qubit(site), 0), name, mat))
        ops.append(CircuitOp("measure", (qubit(site),)))
        ops.append(CircuitOp("reset", (qubit(site),)))
    return CostCircuit(
        qubit_count=n_sites + 1,
        ops=tuple(ops),
        measured_qubits=tuple(range(1, n_sites + 1)),
        order=POWER_METHOD_ORDER,
        trotter_order=spec.trotter_order,
    )


def exact_success_probability(circuit):
    """Probability that every measured qubit reads 0.

    Statevector simulation with exact branch bookkeeping: each measurement
    projects onto the 0 outcome without renormalizing, so the final squared
    norm is the joint success probability (the auxiliary qubit stays
    unmeasured and is traced implicitly by the norm).
    """
    if circuit.qubit_count > MAX_CIRCUIT_QUBITS:
        raise ResourceLimitError(
            f"statevector path limited to {MAX_CIRCUIT_QUBITS} qubits"
        )
    psi = qcore.zero_state(circuit.qubit_count)
    for op in circuit.ops:
        if op.kind == "gate":
            psi = qcore.apply_gate(psi, op.matrix, op.targets)
        elif op.kind == "measure":
            psi = qcore.project_qubit(psi, op.targets[0], 0)
        # reset is a no-op on the postselected branch
    return float(np.sum(np.abs(psi) ** 2))


def success_probability_fn(params_t, layer, copies_params=None):
    """Exact success probability of the cost diagram as a function of the
    candidates, for one evolution step with the dense gate layer ``layer``
    (:func:`evolution_gate_layer`).

    Everything fixed by the current state is built here, once: the window's
    ket side K[t] (:func:`transfer.window_ket` of the gate layer on the
    current state's four-site strand products) and the two boundary copies,
    folded into one linear map from the window's bond operator onto column 0
    of the final one. Each call of the returned function then builds only the
    candidate tensors and contracts the window
    (:func:`transfer.window_overlap_map`); the unmeasured bond qubit is
    traced by the norm of that column. It takes one parameter set or a (k, n)
    stack and returns a probability of shape () or (k,). Independent of the
    statevector route.
    """
    a = tensor_of(params_t)
    v = a if copies_params is None else tensor_of(copies_params)
    ket = transfer.window_ket(a, layer, 2 * POWER_METHOD_ORDER)
    copies = np.eye(4, dtype=complex).reshape(4, 2, 2)  # the unit bond operators
    for _ in range(2):
        copies = transfer.site_overlap_map(copies, v, v)
    boundary = copies[:, :, 0].T  # (2, 4): vec(M) -> column 0 of the copies' output

    def success_probability(candidates):
        m = transfer.window_overlap_map(ket, tensor_of(candidates))
        # a (2 x 4) . (4 x 1) product per candidate, the matrix-vector
        # product of a single candidate, so each row rounds as it would alone
        column = boundary @ m.reshape(m.shape[:-2] + (4, 1))
        return (np.abs(column[..., 0]) ** 2).sum(axis=-1)

    return success_probability


def dense_success_probability(params_t, params_candidate, spec, dt=None, copies_params=None):
    """Exact contraction of the cost diagram in the bond-operator algebra:
    the evolution window nested inside the two boundary copies, applied to
    the initial bond state |0> (:func:`success_probability_fn` on one
    candidate)."""
    layer, _ = evolution_gate_layer(spec, dt)
    success_probability = success_probability_fn(params_t, layer, copies_params)
    return float(success_probability(params_candidate))


def sample(circuit, shots, seed, per_shot=False):
    """Shot-noise estimate of the success probability.

    The default draws once from Binomial(shots, p_exact), statistically
    identical to per-shot simulation and much faster; ``per_shot=True``
    keeps the slow path that actually samples every mid-circuit measurement
    (for auditing the reset semantics).
    """
    if shots < 1:
        raise InvalidArgumentError("need at least one shot")
    rng = np.random.default_rng(seed)
    if per_shot:
        successes = sum(_run_single_shot(circuit, rng) for _ in range(shots))
    else:
        successes = rng.binomial(shots, exact_success_probability(circuit))
    p_hat = successes / shots
    return ShotEstimate(
        p_hat=float(p_hat),
        shots=int(shots),
        std_err=float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)),
        seed=int(seed),
    )


def _run_single_shot(circuit, rng):
    psi = qcore.zero_state(circuit.qubit_count)
    awaiting_reset = set()
    success = True
    for op in circuit.ops:
        if op.kind == "gate":
            psi = qcore.apply_gate(psi, op.matrix, op.targets)
        elif op.kind == "measure":
            q = op.targets[0]
            p0 = qcore.outcome_probability(psi, q, 0)
            outcome = 0 if rng.random() < p0 else 1
            psi = qcore.project_qubit(psi, q, outcome)
            psi = psi / np.linalg.norm(psi)
            if outcome == 1:
                success = False
                awaiting_reset.add(q)
        elif op.kind == "reset" and op.targets[0] in awaiting_reset:
            psi = qcore.apply_gate(psi, qcore.PAULI_X, op.targets)
            awaiting_reset.discard(op.targets[0])
    return 1 if success else 0


def _format_complex_row(mat):
    return " ".join(
        f"{z.real:.17g} {z.imag:.17g}" for z in np.asarray(mat).reshape(-1)
    )


def export_gate_list(circuit):
    """Plain-text gate list, one operation per line; round-trips exactly."""
    lines = [
        "# quenchmps cost circuit",
        f"qubits {circuit.qubit_count}",
        f"order {circuit.order}",
        f"trotter {circuit.trotter_order}",
        "measured " + " ".join(str(q) for q in circuit.measured_qubits),
    ]
    for op in circuit.ops:
        targets = " ".join(str(t) for t in op.targets)
        if op.kind == "gate":
            lines.append(f"gate {op.name} {targets} {_format_complex_row(op.matrix)}")
        else:
            lines.append(f"{op.kind} {targets}")
    return "\n".join(lines) + "\n"


def parse_gate_list(text):
    header = {}
    measured = ()
    ops = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("qubits", "order", "trotter"):
            header[parts[0]] = int(parts[1])
        elif parts[0] == "measured":
            measured = tuple(int(q) for q in parts[1:])
        elif parts[0] == "gate":
            name = parts[1]
            values = np.array([float(x) for x in parts[2:]])
            # targets come first; the matrix is the trailing 2*(4**k) floats
            for k in (1, 2):
                if len(values) == k + 2 * 4**k:
                    targets = tuple(int(v) for v in values[:k])
                    flat = values[k::2] + 1j * values[k + 1 :: 2]
                    ops.append(
                        CircuitOp("gate", targets, name, flat.reshape(2**k, 2**k))
                    )
                    break
            else:
                raise InvalidArgumentError(f"malformed gate line: {line!r}")
        elif parts[0] in ("measure", "reset"):
            ops.append(CircuitOp(parts[0], (int(parts[1]),)))
        else:
            raise InvalidArgumentError(f"unknown gate-list line: {line!r}")
    return CostCircuit(
        qubit_count=header["qubits"],
        ops=tuple(ops),
        measured_qubits=measured,
        order=header.get("order", POWER_METHOD_ORDER),
        trotter_order=header.get("trotter", 1),
    )
