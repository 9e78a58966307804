import numpy as np
import pytest

from quenchmps import ansatz, circuits, qcore, tfim, transfer
from quenchmps.ansatz import FULL15, REDUCED8, AnsatzParams
from quenchmps.circuits import (
    CircuitOp,
    CostCircuit,
    build_cost_circuit,
    dense_success_probability,
    exact_success_probability,
    export_gate_list,
    parse_gate_list,
    sample,
    success_probability_fn,
)
from quenchmps.qcore import InvalidArgumentError, ResourceLimitError
from conftest import random_unitary


def random_reduced(rng):
    return AnsatzParams(REDUCED8, rng.uniform(-np.pi, np.pi, 8))


def hadamard_circuit():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    ops = (CircuitOp("gate", (0,), "H", h), CircuitOp("measure", (0,)))
    return CostCircuit(qubit_count=1, ops=ops, measured_qubits=(0,))


class TestExactSuccessProbability:
    def test_empty_circuit(self):
        c = CostCircuit(qubit_count=2, ops=(), measured_qubits=())
        assert exact_success_probability(c) == pytest.approx(1.0)

    def test_single_x_measured_is_zero(self):
        ops = (
            CircuitOp("gate", (0,), "X", qcore.PAULI_X),
            CircuitOp("measure", (0,)),
        )
        c = CostCircuit(qubit_count=1, ops=ops, measured_qubits=(0,))
        assert exact_success_probability(c) == pytest.approx(0.0)

    def test_identical_params_no_evolution_is_certain(self):
        rng = np.random.default_rng(1)
        spec = tfim.QuenchSpec()
        for _ in range(5):
            p = random_reduced(rng)
            c = build_cost_circuit(p, p, spec, dt=0.0)
            assert exact_success_probability(c) == pytest.approx(1.0, abs=1e-12)

    def test_resource_limit(self):
        c = CostCircuit(qubit_count=13, ops=(), measured_qubits=())
        with pytest.raises(ResourceLimitError):
            exact_success_probability(c)


class TestCircuitDenseEquivalence:
    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_matches_dense_contraction(self, trotter_order):
        rng = np.random.default_rng(2)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)
        for trial in range(30):
            dt = (0.0, 0.05, 0.1)[trial % 3]
            pa, pb = random_reduced(rng), random_reduced(rng)
            c = build_cost_circuit(pa, pb, spec, dt=dt)
            p_sv = exact_success_probability(c)
            p_dense = dense_success_probability(pa, pb, spec, dt=dt)
            assert abs(p_sv - p_dense) < 1e-10

    @pytest.mark.parametrize("trotter_order", [1, 2])
    @pytest.mark.parametrize("dt", [0.0, 0.05, 0.1])
    def test_full15_and_boundary_copies_match_statevector(self, trotter_order, dt):
        rng = np.random.default_rng(9)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)

        def full15():
            return AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15))

        current, candidates = full15(), [full15() for _ in range(4)]
        stack = AnsatzParams(FULL15, np.array([pb.angles for pb in candidates]))
        layer, _ = circuits.evolution_gate_layer(spec, dt)
        # one per-step function serves every candidate, with the current
        # state or other parameters on the boundary copies, and a (k, 15)
        # stack of candidates gives each row's own probability exactly
        for copies in (None, full15()):
            p_dense = success_probability_fn(current, layer, copies_params=copies)
            p_stack = p_dense(stack)
            assert p_stack.shape == (len(candidates),)
            assert np.array_equal(p_stack, [p_dense(pb) for pb in candidates])
            for pb, p_row in zip(candidates, p_stack):
                c = build_cost_circuit(current, pb, spec, dt=dt, copies_params=copies)
                p_sv = exact_success_probability(c)
                assert abs(p_sv - p_dense(pb)) < 1e-10
                assert abs(p_sv - p_row) < 1e-10
        # the "circuit_lw" boundary: the copies are the candidate itself
        for pb in candidates:
            c = build_cost_circuit(current, pb, spec, dt=dt, copies_params=pb)
            p = dense_success_probability(current, pb, spec, dt=dt, copies_params=pb)
            assert abs(exact_success_probability(c) - p) < 1e-10

    def test_quench_step_cost_near_one_at_small_dt(self):
        # un-updated candidate already reaches p = 1 - O(dt^2)
        rng = np.random.default_rng(3)
        spec = tfim.QuenchSpec()
        p = AnsatzParams(REDUCED8, 0.7 * rng.standard_normal(8))
        dts = np.array([0.05, 0.1, 0.2])
        deficits = np.array(
            [1.0 - dense_success_probability(p, p, spec, dt=dt) for dt in dts]
        )
        exponent = np.polyfit(np.log(dts), np.log(deficits), 1)[0]
        assert abs(exponent - 2.0) < 0.5

    def test_trailing_identical_unitaries_leave_probability_unchanged(self):
        # extending the open turn of the circuit with any unitary applied to
        # both strands is a no-op (the reason the bond qubit stays unmeasured)
        rng = np.random.default_rng(4)
        spec = tfim.QuenchSpec()
        pa, pb = random_reduced(rng), random_reduced(rng)
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
            measured_qubits=base.measured_qubits + (extra_q,),
        )
        assert abs(exact_success_probability(extended) - p_base) < 1e-10
        # dense statement: one overlap site with identical strands is exact identity
        a_v = ansatz.mps_tensor(v)
        m = transfer.site_overlap_map(np.eye(2, dtype=complex), a_v, a_v)
        assert np.max(np.abs(m - np.eye(2))) < 1e-12


class TestSample:
    def test_certain_outcomes(self):
        rng = np.random.default_rng(5)
        spec = tfim.QuenchSpec()
        p = random_reduced(rng)
        c = build_cost_circuit(p, p, spec, dt=0.0)
        est = sample(c, shots=50, seed=7)
        assert est.p_hat == 1.0
        ops = (
            CircuitOp("gate", (0,), "X", qcore.PAULI_X),
            CircuitOp("measure", (0,)),
        )
        zero = CostCircuit(qubit_count=1, ops=ops, measured_qubits=(0,))
        assert sample(zero, shots=50, seed=7).p_hat == 0.0

    def test_deterministic_given_seed(self):
        c = hadamard_circuit()
        a = sample(c, shots=200, seed=11)
        b = sample(c, shots=200, seed=11)
        assert a == b
        assert sample(c, shots=200, seed=12) != a

    def test_rms_error_scales_with_shot_noise(self):
        c = hadamard_circuit()
        shot_levels = np.array([100, 1000, 10000, 100000])
        rms = []
        for shots in shot_levels:
            errs = [
                sample(c, shots=int(shots), seed=s).p_hat - 0.5 for s in range(200)
            ]
            rms.append(np.sqrt(np.mean(np.square(errs))))
        exponent = np.polyfit(np.log(shot_levels), np.log(rms), 1)[0]
        assert abs(exponent + 0.5) < 0.1

    def test_estimator_unbiased(self):
        c = hadamard_circuit()
        estimates = [sample(c, shots=400, seed=s) for s in range(400)]
        mean = np.mean([e.p_hat for e in estimates])
        sem = np.mean([e.std_err for e in estimates]) / np.sqrt(len(estimates))
        assert abs(mean - 0.5) < 3 * sem

    def test_per_shot_path_consistent(self):
        rng = np.random.default_rng(6)
        spec = tfim.QuenchSpec()
        pa = AnsatzParams(REDUCED8, 0.8 * rng.standard_normal(8))
        pb = pa.replace_angles(pa.angles + 0.25 * rng.standard_normal(8))
        c = build_cost_circuit(pa, pb, spec)
        p = exact_success_probability(c)
        assert 0.05 < p < 0.95  # meaningful statistics for the check below
        est = sample(c, shots=150, seed=21, per_shot=True)
        sigma = np.sqrt(p * (1 - p) / 150)
        assert abs(est.p_hat - p) < 4 * sigma
        assert sample(c, shots=150, seed=21, per_shot=True) == est

    def test_rejects_zero_shots(self):
        with pytest.raises(InvalidArgumentError):
            sample(hadamard_circuit(), shots=0, seed=1)


class TestGateListFormat:
    @pytest.mark.parametrize("trotter_order", [1, 2])
    def test_round_trip(self, trotter_order):
        rng = np.random.default_rng(8)
        spec = tfim.QuenchSpec(trotter_order=trotter_order)
        c = build_cost_circuit(random_reduced(rng), random_reduced(rng), spec)
        text = export_gate_list(c)
        back = parse_gate_list(text)
        assert back.qubit_count == c.qubit_count
        assert back.measured_qubits == c.measured_qubits
        assert back.order == c.order
        assert back.trotter_order == c.trotter_order
        assert len(back.ops) == len(c.ops)
        for got, want in zip(back.ops, c.ops):
            assert got.kind == want.kind
            assert got.targets == want.targets
            if want.kind == "gate":
                assert np.array_equal(got.matrix, want.matrix)
        assert exact_success_probability(back) == exact_success_probability(c)
