"""The sequential (time-like) cost circuit and its exact evaluation.

The circuit estimates the second-order power-method overlap between the
Trotter-evolved current state U(t) and a candidate W. One auxiliary qubit
carries the bond index; physical qubits are emitted by U(t), passed through
the evolution gate layer, absorbed by W^dag, and measured. Success is the
all-zero outcome on the measured (physical) qubits; the auxiliary qubit is
never measured, which realizes the identity approximation of the right
boundary, while two copies of the current state unitary in front of the
window realize the left boundary.

Layout of the four evolution sites of :func:`evolution_gate_layer`, two
cells (first-order Trotter; sites are numbered in ket emission order, qubit 0
is the bond qubit)::

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
to 1e-9 is the core correctness gate of the whole artifact. The statevector
route (:func:`build_cost_circuit`, :func:`exact_success_probability` and
qcore's simulator) is kept for that reason, though only the tests and the
benchmark's output check run it: it is the independent proof that the dense
contraction is the circuit that hardware would run. The contraction
is split by what an optimizer varies. The gate layer depends on the quench
only (:func:`evolution_gate_layer`). The side fixed by the current state is
built once per step from its MPS tensor A, which the step loop of
:mod:`quenchmps.evolve` builds once per accepted state and hands over: the
ket side of the evolution window K[t] = sum_s <t|L|s> A-prod_s with the two
boundary copies folded in, as one (16 x 32) bilinear form in the candidate's
two-site strand products v (:func:`transfer.join_strands`). The copies map M
to sum_P P^dag M P over the products P = A^s A^s', so their part is two columns
of E^2 = sum_P P (x) conj(P), E the one-site transfer matrix (:func:`_cost_side`).
Two builders return functions of the candidates' raw angles on that form.
:func:`success_probability_fn` evaluates one angle set or a (k, 15) stack
(an SPSA +/- pair is k = 2), one probability per row, each the same float
that row gives on its own. :func:`success_probability_gradient_fn` returns,
for one set, p = sum_i |r_i|^2 with r_i = v^T W_i v and its exact angle
gradient: dr_i = dv . (W_i + W_i^T) v, pulled back to the tensor by
:func:`transfer.pair_cotangent`, and dp = 2 Re sum_i dr_i conj(r_i).
:func:`dense_success_probability` is the value on one candidate, from
parameters on both sides.

With the candidate equal to the current state and no evolution, every
prepare/unprepare pair composes to the identity on the bond register via the
left-isometry of the tensors, so the success probability is exactly 1. The
evolution is always one step ``spec.dt``; a check without evolution gives
:func:`success_probability_fn` the identity layer, or drops the gates that do
not touch qubit 0 from the circuit. The stochastic driver samples the cost
1 - p_hat, with p_hat a binomial shot-noise estimate of this probability
(:mod:`quenchmps.evolve`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import qcore, tfim, transfer
from .ansatz import AnsatzParams, build_unitary, tensor_of
from .qcore import InvalidArgumentError, ResourceLimitError

MAX_CIRCUIT_QUBITS = 12


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


def evolution_gate_layer(spec):
    """Dense gate layer on the four evolution sites of the cost window, one
    Trotter step ``spec.dt`` of ``spec``'s order, and the placed gates as
    ``(name, gate, (lo, hi))``. The layer is the placed gates applied by
    :func:`qcore.apply_gate` to the row qubits (the first four of eight) of
    the flattened 16x16 identity. A ``spec`` that is not a
    :class:`tfim.QuenchSpec` raises :class:`InvalidArgumentError`."""
    if not isinstance(spec, tfim.QuenchSpec):
        raise InvalidArgumentError(f"spec must be a QuenchSpec, got {type(spec).__name__}")
    if spec.trotter_order == 1:
        g = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        placed = [("G", g, (0, 1)), ("G", g, (2, 3))]
    else:
        w_o, w_e = tfim.trotter_gates_second_order(spec.J, spec.g1, spec.dt)
        placed = [
            ("Wo", w_o, (1, 2)),
            ("We", w_e, (0, 1)),
            ("We", w_e, (2, 3)),
            ("Wo", w_o, (1, 2)),
        ]
    layer = np.eye(16, dtype=complex).reshape(-1)
    for _, gate, targets in placed:
        layer = qcore.apply_gate(layer, gate, targets)
    return layer.reshape(16, 16), placed


def build_cost_circuit(params_t, params_candidate, spec):
    """Sequential cost circuit for one evolution step.

    ``params_t`` describes the current state: it is emitted on the ket
    strand and on the two boundary copies (gates named "V"), which the bra
    strand unprepares last. ``params_candidate`` is the trial update
    absorbed on the bra strand of the window. Each passes through
    :class:`~quenchmps.ansatz.AnsatzParams`, whose one-set rule rejects a stack.
    The evolution insertion is one step of ``spec``; its gates are the only ones
    that do not touch the bond register, qubit 0. Qubit q carries site q.
    """
    u = build_unitary(AnsatzParams(params_t))
    w = build_unitary(AnsatzParams(params_candidate))
    layer, placed = evolution_gate_layer(spec)
    n_copies = 2
    n_sites = n_copies + len(layer).bit_length() - 1  # the layer's sites follow the copies
    ops = []
    for site in range(1, n_sites + 1):
        ops.append(CircuitOp("gate", (site, 0), "V" if site <= n_copies else "U", u))
    for name, gate, (lo, hi) in placed:
        ops.append(CircuitOp("gate", (n_copies + 1 + lo, n_copies + 1 + hi), name, gate))
    w_dag, u_dag = w.conj().T, u.conj().T
    for site in range(n_sites, 0, -1):  # the bra unwinds in mirror order
        name, mat = ("V_dag", u_dag) if site <= n_copies else ("W_dag", w_dag)
        ops.append(CircuitOp("gate", (site, 0), name, mat))
        ops.append(CircuitOp("measure", (site,)))
        ops.append(CircuitOp("reset", (site,)))
    return CostCircuit(
        qubit_count=n_sites + 1,
        ops=tuple(ops),
        measured_qubits=tuple(range(1, n_sites + 1)),
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


def success_probability_fn(a_t, layer):
    """Exact success probability of the cost diagram as a function of the
    candidates, for one evolution step from the current state's MPS tensor
    ``a_t`` (shape (2, 2, 2), built by the caller) with the dense gate layer
    ``layer`` (:func:`evolution_gate_layer`).

    The form of :func:`_cost_form` is built here, once. The returned
    function takes raw angles, one set (15,) or a (k, 15) stack (anything
    :func:`ansatz.tensor_of` takes), builds only the candidates' tensors and
    v, and evaluates the form in a (1 x 16) . (16 x 32) and a
    (1 x 16) . (16 x 2) product; the unmeasured bond qubit is traced by the
    norm of that row, p = sum_i |r_i|^2, of shape () or (k,), each row the
    same float as on its own. Angles that :func:`ansatz.tensor_of` rejects
    (a non-finite one) raise :class:`~quenchmps.qcore.InvalidArgumentError`.
    """
    form = _cost_form(a_t, layer)

    def success_probability(candidates):
        b = tensor_of(candidates)
        stack = b.shape[:-3]
        v = transfer.join_strands(b, b).reshape(stack + (1, 16))  # a row per candidate
        row = v @ (v @ form).reshape(stack + (16, 2))
        return (np.abs(row[..., 0, :]) ** 2).sum(axis=-1)

    return success_probability


def success_probability_gradient_fn(a_t, layer):
    """The value of :func:`success_probability_fn` on one set of raw angles,
    the same float, and its exact angle gradient, shape (15,), from the same
    form: dr_i = dv . (W_i + W_i^T) v, where W_i^T v is the row ``half`` that
    the value forms, is pulled back to the candidate tensor by
    :func:`transfer.pair_cotangent`, contracted with its tangents from
    :func:`ansatz.tensor_of`, and dp = 2 Re sum_i dr_i conj(r_i)."""
    form = _cost_form(a_t, layer)
    w = np.ascontiguousarray(form.reshape(16, 16, 2).transpose(2, 0, 1))  # W_i

    def success_probability_and_gradient(x):
        b, db = tensor_of(x, grad=True)
        v = transfer.join_strands(b, b).reshape(1, 16)
        half = (v @ form).reshape(16, 2)
        row = v @ half
        cotangent = transfer.pair_cotangent(b, (half + (w @ v[0]).T).reshape(4, 2, 2, 2))
        dr = db.reshape(len(db), 8) @ cotangent.reshape(8, 2)
        return (np.abs(row[0]) ** 2).sum(), 2.0 * (dr @ row[0].conj()).real

    return success_probability_and_gradient


def _cost_form(a_t, layer):
    """The (16 x 32) bilinear form of both cost builders, W_i[k, j] at
    [k, 2 j + i]: the side S of :func:`_cost_side` in the candidate's two-site
    products v = vec P2, P2_p = B^{t2} B^{t1}, p = (t1 t2), in the layout of
    :func:`transfer.join_strands`. The window's bra string splits into p and
    q = (t3 t4), so column i of the row that S gives is conj(r_i), with
    r_i = v^T W_i v and W_i[(q a x), (p y c)] = delta_xy conj(S[(p q), a, c, i])."""
    side = _cost_side(a_t, layer).reshape(4, 4, 2, 4).conj()  # [p, q, a, (c i)]
    form = np.zeros((4, 2, 2, 4, 2, 4), dtype=complex)  # [q, a, x, p, y, (c i)]
    form[:, :, 0, :, 0] = form[:, :, 1, :, 1] = side.transpose(1, 2, 0, 3)
    return form.reshape(16, 32)


def _cost_side(a_t, layer):
    """The side of the cost diagram fixed by the current state's tensor
    ``a_t``: the window's ket side K[t] (:func:`transfer.window_ket` of the
    gate layer ``layer`` on the current state's four-site strand products)
    and the two boundary copies, a linear map from the window's bond
    operator M[c, d] onto column 0 of the final one, folded into it:
    S[t, a, c, i] = sum_d K[t]_{a d} C[i, (c d)], shape (16, 2, 2, 2). Two
    sites of M -> sum_s (A^s)^dag M A^s map e_c e_d^T to sum_P P^dag e_c e_d^T P
    over the products P = A^s A^s', so C[i, (c d)] = sum_P conj(P[c, i]) P[d, 0]
    = E^2[(d c), (0 i)] = conj(E^2)[(c d), (i 0)], as E = transfer_matrix(A, A)
    gives E^2 = sum_P P (x) conj(P): S is K's rows (t a) times E^2's first two
    columns read as [d, (c i)], one (32 x 2) . (2 x 4) product."""
    e = transfer.transfer_matrix(a_t, a_t)
    copies = (e @ e)[:, :2].reshape(2, 4)  # C[i, (c d)] at [d, (c i)]
    return (transfer.window_ket(a_t, layer).reshape(32, 2) @ copies).reshape(16, 2, 2, 2)


def dense_success_probability(params_t, params_candidate, spec):
    """Exact contraction of the cost diagram in the bond-operator algebra:
    the evolution window nested inside the two boundary copies, applied to
    the initial bond state |0> (:func:`success_probability_fn` on one
    candidate); both sides pass :class:`~quenchmps.ansatz.AnsatzParams`'s
    one-set rule. Kept for ``dense_statevector_mismatches`` in ``bench/harness.py``."""
    params_t, params_candidate = AnsatzParams(params_t), AnsatzParams(params_candidate)
    layer, _ = evolution_gate_layer(spec)
    success_probability = success_probability_fn(tensor_of(params_t), layer)
    return float(success_probability(params_candidate))
