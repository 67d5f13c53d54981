"""Tests for basis families, outcome bookkeeping, and circuit emission."""

from functools import reduce

import numpy as np
import pytest

import purestate.bases as bases
from purestate.bases import (
    COMPUTATIONAL,
    Gate,
    apply_gates,
    basis_id_from_dict,
    basis_id_to_dict,
    basis_states,
    circuit_gates,
    default_family,
    emit_circuit,
    emit_qasm,
    entangled_id,
    estimation_basis_ids,
    family_from_dicts,
    family_to_dicts,
    local_id,
    make_qubit_basis,
    outcome_role,
    rotate_qubit,
)
from purestate.benchmark import BenchConfig
from purestate.reconstruction import ReconstructionOptions
from reference import entangled_index_map, projector, run_circuit


def random_basis(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.05, np.pi / 2 - 0.05)
    return make_qubit_basis(np.cos(theta), np.sin(theta), rng.uniform(0, 2 * np.pi))


class TestMakeQubitBasis:
    def test_balanced_zero_phase_gives_plus_minus(self):
        qb = make_qubit_basis(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        s = 1 / np.sqrt(2)
        assert np.allclose(qb.plus_ket(), [s, s], atol=1e-15)
        assert np.allclose(qb.minus_ket(), [s, -s], atol=1e-15)

    def test_balanced_quarter_phase_gives_circular_pair(self):
        qb = make_qubit_basis(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 2)
        s = 1 / np.sqrt(2)
        assert np.allclose(qb.plus_ket(), [s, 1j * s], atol=1e-15)
        assert np.allclose(qb.minus_ket(), [s, -1j * s], atol=1e-15)

    def test_orthonormal_for_random_parameters(self):
        for seed in range(10):
            qb = random_basis(seed)
            assert np.isclose(np.vdot(qb.plus_ket(), qb.plus_ket()).real, 1.0, atol=1e-12)
            assert np.isclose(np.vdot(qb.minus_ket(), qb.minus_ket()).real, 1.0, atol=1e-12)
            assert abs(np.vdot(qb.plus_ket(), qb.minus_ket())) < 1e-12

    def test_unitary_columns_are_the_kets(self):
        qb = random_basis(3)
        U = qb.unitary()
        assert np.array_equal(U[:, 0], qb.plus_ket())
        assert np.array_equal(U[:, 1], qb.minus_ket())
        assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)

    def test_rejects_computational_basis(self):
        with pytest.raises(ValueError):
            make_qubit_basis(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_qubit_basis(0.0, 1.0, 0.5)

    def test_rejects_negative_or_unnormalized(self):
        with pytest.raises(ValueError):
            make_qubit_basis(-0.6, 0.8, 0.0)
        with pytest.raises(ValueError):
            make_qubit_basis(0.6, 0.7, 0.0)

    def test_rejects_non_finite_or_non_numeric(self):
        s = 1 / np.sqrt(2)
        for args in ((0.6, 0.8, np.inf), (0.6, 0.8, np.nan), (np.nan, s, 0.0), (s, s, "0"), (s, s, True)):
            with pytest.raises(ValueError):
                make_qubit_basis(*args)

    def test_phase_is_wrapped(self):
        qb = make_qubit_basis(0.6, 0.8, 2 * np.pi + 0.5)
        assert np.isclose(qb.phi, 0.5, atol=1e-12)

    def test_a_phi_whose_remainder_rounds_to_two_pi_wraps_to_zero(self):
        # -1e-17 % (2 pi) is 2 pi itself in floating point; a second reduction would give 0.0
        assert -1e-17 % (2 * np.pi) == 2 * np.pi
        qb = make_qubit_basis(0.6, 0.8, -1e-17)
        assert qb.phi == 0.0
        assert make_qubit_basis(0.6, 0.8, qb.phi) == qb


class TestDefaultFamily:
    def test_m2_reproduces_the_quarter_pair(self):
        fam = default_family(2)
        assert [qb.phi for qb in fam] == pytest.approx([0.0, np.pi / 2], abs=1e-15)
        assert all(np.isclose(qb.u, qb.v, atol=1e-15) for qb in fam)

    def test_m4_progression(self):
        fam = default_family(4)
        assert [qb.phi for qb in fam] == pytest.approx([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], abs=1e-15)

    def test_first_level_determinant(self):
        # rows (cos phi_a, sin phi_a) for a = 1, 2 have determinant sin(pi/m)
        for m in range(2, 7):
            fam = default_family(m)
            rows = np.array([[np.cos(qb.phi), np.sin(qb.phi)] for qb in fam[:2]])
            assert np.isclose(np.linalg.det(rows), np.sin(np.pi / m), atol=1e-12)

    def test_all_pairs_stay_invertible(self):
        for m in range(2, 7):
            fam = default_family(m)
            for i in range(m):
                for k in range(i + 1, m):
                    assert abs(np.sin(fam[k].phi - fam[i].phi)) > 1e-12

    def test_rejects_small_family(self):
        with pytest.raises(ValueError):
            default_family(1)


class TestFamilySizeRule:
    """Every entry point that takes m applies the one rule: m is an integer >= 2."""

    TAKERS = {
        "default_family": default_family,
        "estimation_basis_ids local": lambda m: estimation_basis_ids(3, m, "local"),
        "estimation_basis_ids entangled": lambda m: estimation_basis_ids(3, m, "entangled"),
        "ReconstructionOptions": lambda m: ReconstructionOptions(m=m),
        "BenchConfig": lambda m: BenchConfig(n_range=(2,), m=m),
    }

    @pytest.mark.parametrize("taker", TAKERS)
    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_m_below_two_is_refused(self, taker, m):
        # estimation_basis_ids(3, 0, "local") used to return the computational basis alone
        with pytest.raises(ValueError, match=f"^m={m}: the basis family needs at least 2 bases$"):
            self.TAKERS[taker](m)

    @pytest.mark.parametrize("taker", TAKERS)
    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3", None])
    def test_m_must_be_an_integer(self, taker, m):
        # 2.5 used to raise TypeError from default_family and estimation_basis_ids
        with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
            self.TAKERS[taker](m)

    @pytest.mark.parametrize("taker", TAKERS)
    def test_numpy_integers_are_taken(self, taker):
        assert self.TAKERS[taker](np.int64(3)) == self.TAKERS[taker](3)


class TestProjector:
    def test_single_qubit_plus(self):
        qb = make_qubit_basis(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        st = projector(1, 1, 0, qb)
        assert np.allclose(st.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_two_qubit_block_placement(self):
        qb = random_basis(1)
        st = projector(2, 1, 1, qb)
        # |1> (x) |+_a>: support on indices 2, 3
        assert np.allclose(st.amps[:2], 0.0, atol=1e-15)
        assert np.allclose(st.amps[2:], qb.plus_ket(), atol=1e-15)

    def test_distinct_blocks_are_orthogonal(self):
        qb = random_basis(2)
        n, j = 4, 2
        states = [projector(n, j, beta, qb) for beta in range(1 << (n - j))]
        for i in range(len(states)):
            for k in range(len(states)):
                expect = 1.0 if i == k else 0.0
                assert np.isclose(abs(np.vdot(states[i].amps, states[k].amps)), expect, atol=1e-12)

    def test_range_errors(self):
        qb = random_basis(0)
        with pytest.raises(ValueError):
            projector(2, 3, 0, qb)
        with pytest.raises(ValueError):
            projector(2, 0, 0, qb)
        with pytest.raises(ValueError):
            projector(2, 1, 2, qb)


class TestBasisStates:
    def test_computational_is_identity(self):
        fam = default_family(2)
        states = basis_states(2, COMPUTATIONAL, fam)
        mat = np.array([s.amps for s in states])
        assert np.array_equal(mat, np.eye(4, dtype=np.complex128))

    def test_local_depth_one_ordering(self):
        fam = default_family(2)
        qb = fam[0]
        states = basis_states(2, local_id(1, 1), fam)
        e0, e1 = np.eye(2)
        expected = [
            np.kron(e0, qb.plus_ket()),
            np.kron(e0, qb.minus_ket()),
            np.kron(e1, qb.plus_ket()),
            np.kron(e1, qb.minus_ket()),
        ]
        for got, want in zip(states, expected):
            assert np.allclose(got.amps, want, atol=1e-15)

    def test_entangled_two_qubit_ordering(self):
        fam = default_family(2)
        qb = fam[1]
        states = basis_states(2, entangled_id(2), fam)
        e0, e1 = np.eye(2)
        expected = [
            np.kron(e0, qb.plus_ket()),
            np.kron(e1, qb.plus_ket()),
            np.kron(qb.plus_ket(), qb.minus_ket()),
            np.kron(qb.minus_ket(), qb.minus_ket()),
        ]
        for got, want in zip(states, expected):
            assert np.allclose(got.amps, want, atol=1e-15)

    def test_gram_matrices_are_identity(self):
        fam = default_family(3)
        n = 3
        ids = estimation_basis_ids(n, 3, "local") + estimation_basis_ids(n, 3, "entangled")[1:]
        for id in ids:
            mat = np.array([s.amps for s in basis_states(n, id, fam)])
            assert np.allclose(mat.conj() @ mat.T, np.eye(1 << n), atol=1e-12)

    def test_gram_identity_at_six_qubits(self):
        fam = default_family(2)
        for id in (local_id(2, 4), entangled_id(1)):
            mat = np.array([s.amps for s in basis_states(6, id, fam)])
            assert np.allclose(mat.conj() @ mat.T, np.eye(64), atol=1e-10)

    def test_basis_states_never_decode_outcome_roles(self, monkeypatch):
        # each basis is built as whole tensor products, with no per-outcome decoding
        def no_decoding(*args):
            raise AssertionError("outcome_role called")

        monkeypatch.setattr(bases, "outcome_role", no_decoding)
        fam = default_family(3)
        for id in estimation_basis_ids(4, 3, "local") + estimation_basis_ids(4, 3, "entangled")[1:]:
            assert len(basis_states(4, id, fam)) == 16

    def test_invalid_ids_rejected(self):
        fam = default_family(2)
        with pytest.raises(ValueError):
            basis_states(2, local_id(3, 1), fam)
        with pytest.raises(ValueError):
            basis_states(2, local_id(1, 3), fam)
        with pytest.raises(ValueError):
            basis_states(2, entangled_id(0), fam)


class TestOutcomeRole:
    def test_entangled_level_two_example(self):
        role = outcome_role(entangled_id(1), 2, 2)
        assert (role.j, role.beta, role.sign0, role.tail) == (2, 0, 1, (-1,))
        assert role.a == 1
        assert role.is_canonical

    def test_local_depth_one_example(self):
        role = outcome_role(local_id(1, 1), 3, 2)
        assert (role.j, role.beta, role.sign0, role.tail) == (1, 1, -1, ())
        assert not role.is_canonical

    def test_computational_has_no_role(self):
        assert outcome_role(COMPUTATIONAL, 0, 2) is None

    def test_terminal_entangled_outcome_has_no_role(self):
        assert outcome_role(entangled_id(1), 3, 2) is None
        assert outcome_role(entangled_id(2), 15, 4) is None

    def test_out_of_range_outcome(self):
        with pytest.raises(ValueError):
            outcome_role(local_id(1, 1), 4, 2)

    def test_basis_states_are_explicit_kronecker_products(self):
        # basis_states places whole tensor products on diagonal blocks; check its outcome order against
        # the products written out from k, for a balanced and a random family
        for fam in (default_family(2), [random_basis(s) for s in (11, 12, 13)]):
            for n in range(1, 6):
                for a, qb in enumerate(fam, start=1):
                    for b in range(1, n + 1):
                        for k, st in enumerate(basis_states(n, local_id(a, b), fam)):
                            signs = [qb.minus_ket() if (k >> q) & 1 else qb.plus_ket() for q in range(b - 1, -1, -1)]
                            assert np.array_equal(st.amps, reduce(np.kron, [np.eye(1 << (n - b))[k >> b]] + signs))
                    want = [
                        reduce(np.kron, [np.eye(1 << (n - j))[beta], qb.plus_ket()] + [qb.minus_ket()] * (j - 1))
                        for j in range(1, n + 1)
                        for beta in range(1 << (n - j))
                    ]
                    want.append(reduce(np.kron, [qb.minus_ket()] * n))
                    assert np.array_equal([st.amps for st in basis_states(n, entangled_id(a), fam)], want)

    def test_canonical_local_outcome_index(self):
        # the canonical (j, beta) outcome of a depth-j basis is (beta << j) + 2^{j-1} - 1
        n = 5
        for b in (2, 3):
            for beta in range(1 << (n - b)):
                k = (beta << b) + (1 << (b - 1)) - 1
                role = outcome_role(local_id(1, b), k, n)
                assert role.is_canonical
                assert (role.j, role.beta) == (b, beta)

    def test_entangled_roles_exhaust_the_basis(self):
        n = 4
        roles = [outcome_role(entangled_id(1), k, n) for k in range(1 << n)]
        assert sum(1 for r in roles if r is None) == 1
        seen = {(r.j, r.beta) for r in roles if r is not None}
        assert len(seen) == (1 << n) - 1
        assert all(r.is_canonical for r in roles if r is not None)


class TestEntangledIndexMap:
    def test_is_a_permutation_with_stated_block_images(self):
        for n in (2, 3, 5, 12):
            perm = entangled_index_map(n)
            assert sorted(perm) == list(range(1 << n))
            assert perm[0] == 0  # j=1, beta=0 -> index 0
            assert perm[-1] == (1 << n) - 1
            # level-j block states land on 2^j beta + 2^(j-1) - 1
            roles = [outcome_role(entangled_id(1), k, n) for k in range((1 << n) - 1)]
            assert perm[:-1].tolist() == [(r.beta << r.j) + (1 << (r.j - 1)) - 1 for r in roles]

    def test_circuit_maps_basis_states_onto_the_permutation(self):
        # binding contract between basis ordering, index map, and gate ladder
        fam = default_family(2)
        for n in (2, 3, 4):
            perm = entangled_index_map(n)
            gates = circuit_gates(entangled_id(2), n, fam)
            for pos, st in enumerate(basis_states(n, entangled_id(2), fam)):
                out = run_circuit(st.amps, n, gates)
                expected = np.zeros(1 << n, dtype=np.complex128)
                expected[perm[pos]] = 1.0
                assert np.allclose(out, expected, atol=1e-12)

    def test_local_circuit_maps_outcome_k_to_bit_pattern_k(self):
        fam = default_family(2)
        n = 3
        for id in (local_id(1, 2), local_id(2, 3)):
            gates = circuit_gates(id, n, fam)
            for k, st in enumerate(basis_states(n, id, fam)):
                out = apply_gates(st.amps, n, gates)
                expected = np.zeros(1 << n, dtype=np.complex128)
                expected[k] = 1.0
                assert np.allclose(out, expected, atol=1e-12)


class TestCircuits:
    def test_computational_circuit_is_empty(self):
        assert circuit_gates(COMPUTATIONAL, 3, default_family(2)) == []
        assert emit_circuit(COMPUTATIONAL, 3, default_family(2)) == ""

    def test_local_full_depth_gate_list(self):
        fam = default_family(2)
        gates = circuit_gates(local_id(1, 2), 2, fam)
        assert len(gates) == 2
        assert all(g.controls == () for g in gates)
        assert sorted(g.target for g in gates) == [0, 1]

    def test_entangled_ladder_structure(self):
        fam = default_family(2)
        gates = circuit_gates(entangled_id(1), 2, fam)
        assert len(gates) == 2
        assert gates[0].controls == () and gates[0].target == 0
        assert gates[1].controls == (0,) and gates[1].target == 1
        assert len(circuit_gates(entangled_id(1), 5, fam)) == 5

    def test_gate_matrix_inverts_the_basis_unitary(self):
        qb = random_basis(7)
        g = Gate("u_dagger", (), 0, qb)
        assert np.allclose(g.matrix() @ qb.unitary(), np.eye(2), atol=1e-12)

    def test_emit_circuit_line_format(self):
        fam = default_family(2)
        text = emit_circuit(entangled_id(1), 2, fam)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("gate u_dagger [] 0 ")
        assert lines[1].startswith("gate u_dagger [0] 1 ")
        u = float(lines[0].split()[4])
        assert np.isclose(u, 1 / np.sqrt(2), atol=1e-15)

    def test_apply_gates_rejects_controlled_gates(self):
        fam = default_family(2)
        ladder = circuit_gates(entangled_id(1), 3, fam)
        amps = np.zeros(8, dtype=np.complex128)
        for gates in (ladder, ladder[1:], circuit_gates(local_id(1, 2), 3, fam) + ladder[2:]):
            with pytest.raises(ValueError, match="uncontrolled gates only"):
                apply_gates(amps, 3, gates)
        assert np.array_equal(apply_gates(amps, 3, ladder[:1]), amps)  # the ladder's first gate has no control

    def test_reference_circuit_rejects_partial_control_patterns(self):
        qb = random_basis(5)
        bad = Gate("u_dagger", (1,), 0, qb)
        with pytest.raises(ValueError):
            run_circuit(np.zeros(8, dtype=np.complex128), 3, [bad])

    def test_apply_gates_rejects_a_vector_of_another_size(self):
        gates = circuit_gates(local_id(1, 1), 2, default_family(2))
        for size in (2, 8):
            with pytest.raises(ValueError):
                apply_gates(np.zeros(size, dtype=np.complex128), 2, gates)


class TestRotateQubit:
    """rotate_qubit against the dense operator I (x) M (x) I, with qubit 0 least significant."""

    def test_matches_the_dense_operator_for_each_basis(self):
        rng = np.random.default_rng(5)
        fam = [random_basis(s) for s in (1, 2, 3)]
        u_dagger = np.array([qb.unitary().conj().T for qb in fam])
        n = 4
        amps = rng.normal(size=(len(fam), 1 << n)) + 1j * rng.normal(size=(len(fam), 1 << n))
        for q in range(n):
            for M in (u_dagger, u_dagger[:, 1:]):
                out = rotate_qubit(amps, q, M)
                for a in range(len(fam)):
                    dense = np.kron(np.kron(np.eye(1 << (n - q - 1)), M[a]), np.eye(1 << q))
                    assert np.allclose(out[a], dense @ amps[a], atol=1e-13)

    def test_one_array_broadcasts_over_the_family(self):
        fam = default_family(3)
        u_dagger = np.array([qb.unitary().conj().T for qb in fam])
        amps = np.arange(8, dtype=np.complex128)
        out = rotate_qubit(amps[None, :], 1, u_dagger)
        assert out.shape == (3, 8)
        for a in range(3):
            assert np.array_equal(out[a], rotate_qubit(amps, 1, u_dagger[a]))

    @pytest.mark.parametrize("n", [1, 3, 8, 12])
    def test_every_qubit_gives_the_bits_of_the_broadcast_form(self, n):
        # q = 0 with two rows is written row by row; it must stay the same products and sums
        rng = np.random.default_rng(60 + n)
        u_dagger = np.array([qb.u_dagger for qb in (random_basis(7), random_basis(8))])
        for lead in ((), (1,), (2,)):
            amps = rng.normal(size=lead + (1 << n,)) + 1j * rng.normal(size=lead + (1 << n,))
            for M in (u_dagger, u_dagger[:, 1:], u_dagger[0], u_dagger[0, 1:]):
                for q in range(n):
                    t = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << q))
                    want = M[..., None, :, 0, None] * t[..., :, 0, None, :]
                    want += M[..., None, :, 1, None] * t[..., :, 1, None, :]
                    got = rotate_qubit(amps, q, M)
                    assert np.array_equal(got, want.reshape(want.shape[:-3] + (-1,))), (lead, M.shape, q)


class TestQasm:
    @staticmethod
    def u3(theta, phi, lam):
        return np.array(
            [
                [np.cos(theta / 2), -np.exp(1j * lam) * np.sin(theta / 2)],
                [np.exp(1j * phi) * np.sin(theta / 2), np.exp(1j * (phi + lam)) * np.cos(theta / 2)],
            ]
        )

    def test_rotation_parameters_reproduce_u_dagger(self):
        qb = make_qubit_basis(0.6, 0.8, 1.234)
        theta = 2.0 * np.arctan2(qb.v, qb.u)
        emitted = self.u3(-theta, -np.pi, -qb.phi)
        assert np.allclose(emitted, qb.unitary().conj().T, atol=1e-12)

    def test_local_text_structure(self):
        fam = default_family(2)
        text = emit_qasm(local_id(2, 2), 3, fam)
        assert text.startswith("OPENQASM 2.0;")
        assert text.count("u3(") == 2
        assert "measure q -> c;" in text
        assert "qreg q[3];" in text

    def test_computational_has_no_rotations(self):
        text = emit_qasm(COMPUTATIONAL, 2, default_family(2))
        assert "u3(" not in text
        assert "measure q -> c;" in text

    def test_entangled_is_not_renderable(self):
        with pytest.raises(ValueError):
            emit_qasm(entangled_id(1), 2, default_family(2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_local_text_is_the_rendered_gate_list(self, m):
        # the exact text, and one u3 per gate of circuit_gates that reproduces the gate's U_a^dagger on its target
        fam = default_family(m)
        for n in range(1, 5):
            for a, qb in enumerate(fam, start=1):
                theta = 2.0 * np.arctan2(qb.v, qb.u)
                for b in range(1, n + 1):
                    text = emit_qasm(local_id(a, b), n, fam)
                    rotations = [f"u3({-theta:.17g},{-np.pi:.17g},{-qb.phi:.17g}) q[{q}];" for q in range(b)]
                    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
                    assert text == "\n".join(head + rotations + ["measure q -> c;"])
                    gates = circuit_gates(local_id(a, b), n, fam)
                    lines = text.splitlines()[4:-1]
                    assert len(lines) == len(gates)
                    for line, g in zip(lines, gates):
                        params, target = line.removeprefix("u3(").split(") q[")
                        assert int(target.removesuffix("];")) == g.target
                        assert np.allclose(self.u3(*map(float, params.split(","))), g.matrix(), atol=1e-12)


class TestEstimationBasisIds:
    def test_local_count_and_order(self):
        ids = estimation_basis_ids(3, 2, "local")
        assert len(ids) == 2 * 3 + 1
        assert ids[0] is COMPUTATIONAL
        assert str(ids[1]) == "local:1:1"
        assert str(ids[-1]) == "local:2:3"
        assert len(set(map(str, ids))) == len(ids)

    def test_entangled_count(self):
        ids = estimation_basis_ids(4, 3, "entangled")
        assert [str(i) for i in ids] == ["computational", "entangled:1", "entangled:2", "entangled:3"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            estimation_basis_ids(3, 2, "global")

    @pytest.mark.parametrize("n", [0, -2, True, 2.0, "3", None])
    def test_system_size_must_be_an_integer_of_at_least_one(self, n):
        for mode in ("local", "entangled"):
            with pytest.raises(ValueError, match="n"):
                estimation_basis_ids(n, 2, mode)
        assert len(estimation_basis_ids(np.int64(1), 2, "local")) == 3


class TestDescriptorSerialization:
    def test_basis_id_round_trips(self):
        for id in (COMPUTATIONAL, local_id(2, 3), entangled_id(1)):
            assert str(basis_id_from_dict(basis_id_to_dict(id))) == str(id)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            basis_id_from_dict({"tag": "diagonal"})

    def test_family_round_trips_exactly(self):
        fam = default_family(3)
        back = family_from_dicts(family_to_dicts(fam))
        assert all(a == b for a, b in zip(fam, back))
