from dataclasses import replace

import numpy as np
import pytest

from quenchmps import ansatz, circuits, qcore, tfim, transfer
from quenchmps.ansatz import AnsatzParams
from quenchmps.circuits import (
    CircuitOp,
    CostCircuit,
    build_cost_circuit,
    dense_success_probability,
    exact_success_probability,
    success_probability_fn,
)
from quenchmps.qcore import InvalidArgumentError
from conftest import random_unitary, unitarity_defect


def random_params(rng):
    return AnsatzParams(rng.uniform(-np.pi, np.pi, 15))


def run_single_shot(circuit, rng):
    """One shot of the circuit as the hardware runs it: every measurement
    samples an outcome and collapses the state, and a reset flips a qubit
    that read 1 back to 0. Returns 1 when every measured qubit read 0."""
    psi = qcore.zero_state(circuit.qubit_count)
    awaiting_reset = set()
    success = True
    for op in circuit.ops:
        if op.kind == "gate":
            psi = qcore.apply_gate(psi, op.matrix, op.targets)
        elif op.kind == "measure":
            q = op.targets[0]
            zero_branch = np.take(psi.reshape([2] * circuit.qubit_count), 0, axis=q)
            p0 = np.sum(np.abs(zero_branch) ** 2)
            outcome = 0 if rng.random() < p0 else 1
            psi = qcore.apply_gate(psi, np.diag([1 - outcome, outcome]), (q,))
            psi = psi / np.linalg.norm(psi)
            if outcome == 1:
                success = False
                awaiting_reset.add(q)
        elif op.kind == "reset" and op.targets[0] in awaiting_reset:
            psi = qcore.apply_gate(psi, qcore.PAULI_X, op.targets)
            awaiting_reset.discard(op.targets[0])
    return 1 if success else 0


def one_step(spec, dt):
    """``spec`` with the step ``dt``, which is also its whole horizon."""
    return replace(spec, dt=dt, t_max=dt)


def without_evolution(circuit):
    """The circuit with its evolution gates, the gate ops that do not touch
    bond qubit 0, filtered out."""
    ops = tuple(op for op in circuit.ops if op.kind != "gate" or 0 in op.targets)
    return replace(circuit, ops=ops)


def circuit_at(pa, pb, spec, dt):
    """Cost circuit of one step ``dt`` of ``spec``; ``dt = 0`` is the circuit
    without evolution."""
    if dt == 0.0:
        return without_evolution(build_cost_circuit(pa, pb, spec))
    return build_cost_circuit(pa, pb, one_step(spec, dt))


def layer_at(spec, dt):
    """Gate layer of one step ``dt`` of ``spec``; the identity at ``dt = 0``."""
    if dt == 0.0:
        return np.eye(16)
    return circuits.evolution_gate_layer(one_step(spec, dt))[0]


def embed(gate, lo, n_sites=4):
    """Dense embedding of a two-site gate on sites (lo, lo + 1)."""
    return np.kron(np.eye(2**lo), np.kron(gate, np.eye(2 ** (n_sites - 2 - lo))))


class TestEvolutionGateLayer:
    def test_default_step_is_the_spec_step(self):
        spec = tfim.QuenchSpec(dt=0.05, trotter_order=2)
        _, placed = circuits.evolution_gate_layer(spec)
        w_o, w_e = tfim.trotter_gates_second_order(spec.J, spec.g1, 0.05)
        for (_, gate, _), want in zip(placed, [w_o, w_e, w_e, w_o], strict=True):
            assert np.array_equal(gate, want)

    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_layer_is_the_product_of_its_placed_gates(self, trotter_order):
        spec = tfim.QuenchSpec(trotter_order=trotter_order)
        layer, placed = circuits.evolution_gate_layer(spec)
        expected = np.eye(16)
        for _, gate, (lo, hi) in placed:
            assert hi == lo + 1
            expected = embed(gate, lo) @ expected
        assert np.max(np.abs(layer - expected)) < 1e-14
        assert unitarity_defect(layer) < 1e-12
        names = [name for name, _, _ in placed]
        assert names == (["G", "G"] if trotter_order == 1 else ["Wo", "We", "We", "Wo"])

    @pytest.mark.parametrize("spec", [None, {"J": 1.0}], ids=["none", "dict"])
    def test_spec_that_is_not_a_quench_spec_rejected(self, spec):
        # it escaped as an AttributeError, here and from the two callers
        x = AnsatzParams(np.zeros(15))
        calls = [
            lambda: circuits.evolution_gate_layer(spec),
            lambda: circuits.build_cost_circuit(x, x, spec),
            lambda: circuits.dense_success_probability(x, x, spec),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="spec must be a QuenchSpec, got"):
                call()


class TestCostCircuitLayout:
    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_ket_gates_then_mirrored_bra_with_measure_and_reset(self, trotter_order):
        rng = np.random.default_rng(10)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)
        c = build_cost_circuit(random_params(rng), random_params(rng), spec)
        assert c.qubit_count == 7
        measured = [op.targets for op in c.ops if op.kind == "measure"]
        assert measured == [(q,) for q in (6, 5, 4, 3, 2, 1)]
        ket = [(op.name, op.targets) for op in c.ops[:6]]
        assert ket == [("V", (1, 0)), ("V", (2, 0))] + [("U", (q, 0)) for q in (3, 4, 5, 6)]
        n_evo = 2 if trotter_order == 1 else 4
        evo = c.ops[6 : 6 + n_evo]
        assert all(op.kind == "gate" and 0 not in op.targets for op in evo)
        bra = c.ops[6 + n_evo :]
        assert len(bra) == 18
        mirror = [(q, "W_dag") for q in (6, 5, 4, 3)] + [(q, "V_dag") for q in (2, 1)]
        for i, (site, name) in enumerate(mirror):
            gate, measure, reset = bra[3 * i : 3 * i + 3]
            assert (gate.kind, gate.name, gate.targets) == ("gate", name, (site, 0))
            assert (measure.kind, measure.targets) == ("measure", (site,))
            assert (reset.kind, reset.targets) == ("reset", (site,))


class TestExactSuccessProbability:
    def test_empty_circuit(self):
        c = CostCircuit(qubit_count=2, ops=())
        assert exact_success_probability(c) == pytest.approx(1.0)

    def test_single_x_measured_is_zero(self):
        ops = (
            CircuitOp("gate", (0,), "X", qcore.PAULI_X),
            CircuitOp("measure", (0,)),
        )
        c = CostCircuit(qubit_count=1, ops=ops)
        assert exact_success_probability(c) == pytest.approx(0.0)

    def test_identical_params_no_evolution_is_certain(self):
        rng = np.random.default_rng(1)
        spec = tfim.QuenchSpec()
        for _ in range(5):
            p = random_params(rng)
            c = without_evolution(build_cost_circuit(p, p, spec))
            assert exact_success_probability(c) == pytest.approx(1.0, abs=1e-12)

    def test_resource_limit(self):
        c = CostCircuit(qubit_count=13, ops=())
        with pytest.raises(InvalidArgumentError, match="limited to 12 qubits"):
            exact_success_probability(c)

    @pytest.mark.parametrize("kind", ["mesure", None, 0], ids=["typo", "none", "int"])
    def test_unknown_op_kind_rejected(self, kind):
        # skipped, a misspelt measure after X would read 1.0 where "measure" reads 0.0
        ops = (
            CircuitOp("gate", (0,), "X", qcore.PAULI_X),
            CircuitOp(kind, (0,)),
        )
        c = CostCircuit(qubit_count=2, ops=ops)
        with pytest.raises(InvalidArgumentError, match="unknown op kind"):
            exact_success_probability(c)

    @pytest.mark.parametrize("qubit", [2, -1])
    def test_reset_off_the_circuit_rejected(self, qubit):
        # skipped, a reset off the circuit would read 1.0
        c = CostCircuit(qubit_count=2, ops=(CircuitOp("reset", (qubit,)),))
        with pytest.raises(InvalidArgumentError, match="targets must be qubits in"):
            exact_success_probability(c)


class TestCircuitDenseEquivalence:
    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_matches_dense_contraction(self, trotter_order):
        rng = np.random.default_rng(2)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)
        for trial in range(30):
            dt = (0.0, 0.05, 0.1)[trial % 3]
            pa, pb = random_params(rng), random_params(rng)
            p_sv = exact_success_probability(circuit_at(pa, pb, spec, dt))
            if dt == 0.0:
                p_dense = success_probability_fn(ansatz.tensor_of(pa), np.eye(16))(pb)
            else:
                p_dense = dense_success_probability(pa, pb, one_step(spec, dt))
            assert abs(p_sv - p_dense) < 1e-10

    @pytest.mark.parametrize("trotter_order", [1, 2])
    @pytest.mark.parametrize("dt", [0.0, 0.05, 0.1])
    def test_full15_and_boundary_copies_match_statevector(self, trotter_order, dt):
        rng = np.random.default_rng(9)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)

        def full15():
            return AnsatzParams(rng.uniform(-np.pi, np.pi, 15))

        current, candidates = full15(), [full15() for _ in range(4)]
        stack = np.array([pb.angles for pb in candidates])
        layer = layer_at(spec, dt)
        # one per-step function serves every candidate, and a (k, 15) stack
        # of candidates gives each row's own probability exactly
        p_dense = success_probability_fn(ansatz.tensor_of(current), layer)
        p_stack = p_dense(stack)
        assert p_stack.shape == (len(candidates),)
        assert np.array_equal(p_stack, [p_dense(pb) for pb in candidates])
        for pb, p_row in zip(candidates, p_stack):
            p_sv = exact_success_probability(circuit_at(current, pb, spec, dt))
            assert abs(p_sv - p_dense(pb)) < 1e-10
            assert abs(p_sv - p_row) < 1e-10

    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_bilinear_form_matches_the_strand_contraction(self, trotter_order):
        # the per-step form in the two-site products against the four-site
        # strand contracted with the side it was folded from
        rng = np.random.default_rng(21)
        layer = layer_at(tfim.QuenchSpec(trotter_order=trotter_order), 0.1)
        for _ in range(10):
            a_t = ansatz.tensor_of(rng.uniform(-np.pi, np.pi, 15))
            candidates = rng.uniform(-np.pi, np.pi, (4, 15))
            side = circuits._cost_side(a_t, layer)
            row = transfer.window_overlap_map(side, ansatz.tensor_of(candidates))
            want = (np.abs(row[:, 0, :]) ** 2).sum(axis=-1)
            got = success_probability_fn(a_t, layer)(candidates)
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_cost_side_matches_the_overlap_map_copies(self, trotter_order):
        # the reference construction: the window ket as an einsum, and the two
        # boundary copies as two site_overlap_map applications to the unit
        # bond operators, of whose image column 0 is kept
        def reference_side(a_t, layer):
            ket = np.einsum("ts,sab->tab", layer, transfer.strand_products(a_t, 4))
            copies = np.eye(4, dtype=complex).reshape(4, 2, 2)
            for _ in range(2):
                copies = transfer.site_overlap_map(copies, a_t, a_t)
            return np.einsum("tad,cdi->taci", ket, copies[:, :, 0].reshape(2, 2, 2))

        rng = np.random.default_rng(22)
        layer = layer_at(tfim.QuenchSpec(trotter_order=trotter_order), 0.1)
        for _ in range(50):
            a_t = ansatz.tensor_of(rng.uniform(-np.pi, np.pi, 15))
            side = circuits._cost_side(a_t, layer)
            assert side.shape == (16, 2, 2, 2)
            assert np.max(np.abs(side - reference_side(a_t, layer))) <= 1e-14

    def test_one_parameter_set_each(self):
        # both entry points pass each side through AnsatzParams, whose one-set
        # rule rejects a stack before a gate is built
        p = random_params(np.random.default_rng(5))
        stack = np.tile(p.angles, (2, 1))
        spec = tfim.QuenchSpec()
        for call in (dense_success_probability, build_cost_circuit):
            for params_t, candidate in [(stack, p), (p, stack)]:
                with pytest.raises(
                    InvalidArgumentError, match="AnsatzParams holds one parameter set"
                ):
                    call(params_t, candidate, spec)

    def test_quench_step_cost_near_one_at_small_dt(self):
        # un-updated candidate already reaches p = 1 - O(dt^2)
        rng = np.random.default_rng(3)
        spec = tfim.QuenchSpec()
        p = AnsatzParams(0.7 * rng.standard_normal(15))
        dts = np.array([0.05, 0.1, 0.2])
        deficits = np.array(
            [1.0 - dense_success_probability(p, p, one_step(spec, dt)) for dt in dts]
        )
        exponent = np.polyfit(np.log(dts), np.log(deficits), 1)[0]
        assert abs(exponent - 2.0) < 0.5

    def test_trailing_identical_unitaries_leave_probability_unchanged(self):
        # extending the open turn of the circuit with any unitary applied to
        # both strands is a no-op (the reason the bond qubit stays unmeasured)
        rng = np.random.default_rng(4)
        spec = tfim.QuenchSpec()
        pa, pb = random_params(rng), random_params(rng)
        base = build_cost_circuit(pa, pb, spec)
        p_base = exact_success_probability(base)
        v = random_unitary(4, rng)
        extra_q = base.qubit_count
        n_ket = base.qubit_count - 1  # ket emissions come first in the op list
        turn = next(
            i for i, op in enumerate(base.ops[n_ket:], start=n_ket)
            if op.name == "W_dag"
        )
        extension = (
            CircuitOp("gate", (extra_q, 0), "V", v),
            CircuitOp("gate", (extra_q, 0), "V_dag", v.conj().T),
            CircuitOp("measure", (extra_q,)),
        )
        extended = CostCircuit(
            qubit_count=base.qubit_count + 1,
            ops=base.ops[:turn] + extension + base.ops[turn:],
        )
        assert abs(exact_success_probability(extended) - p_base) < 1e-10
        # dense statement: one overlap site with identical strands is exact identity
        a_v = ansatz.mps_tensor(v)
        m = transfer.site_overlap_map(np.eye(2, dtype=complex), a_v, a_v)
        assert np.max(np.abs(m - np.eye(2))) < 1e-12


class TestPerShotSimulation:
    def test_per_shot_path_consistent(self):
        # mid-circuit measurement with reset gives the postselected probability
        rng = np.random.default_rng(6)
        spec = tfim.QuenchSpec()
        pa = AnsatzParams(0.8 * rng.standard_normal(15))
        pb = AnsatzParams(pa.angles + 0.25 * rng.standard_normal(15))
        c = build_cost_circuit(pa, pb, spec)
        p = exact_success_probability(c)
        assert 0.05 < p < 0.95  # meaningful statistics for the check below

        def estimate(seed):
            shot_rng = np.random.default_rng(seed)
            return np.mean([run_single_shot(c, shot_rng) for _ in range(150)])

        p_hat = estimate(21)
        sigma = np.sqrt(p * (1 - p) / 150)
        assert abs(p_hat - p) < 4 * sigma
        assert estimate(21) == p_hat

    def test_certain_outcomes(self):
        spec = tfim.QuenchSpec()
        p = random_params(np.random.default_rng(7))
        certain = without_evolution(build_cost_circuit(p, p, spec))
        flip = CostCircuit(
            qubit_count=1,
            ops=(
                CircuitOp("gate", (0,), "X", qcore.PAULI_X),
                CircuitOp("measure", (0,)),
                CircuitOp("reset", (0,)),
            ),
        )
        shot_rng = np.random.default_rng(8)
        assert all(run_single_shot(certain, shot_rng) == 1 for _ in range(20))
        assert all(run_single_shot(flip, shot_rng) == 0 for _ in range(20))
