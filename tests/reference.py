"""Test oracles: slow, independent paths that the package's fast ones are checked against.

Nothing here is part of ``purestate``; every function spells out a
definition that a package routine must reproduce:

* ``born_probs_naive`` projects onto each basis state one by one, the
  definition ``measurement.born_tables`` computes by circuit and contraction;
* ``projector``, ``block_probs`` and ``entangled_index_map`` state the
  outcome ordering of the basis families, one outcome at a time through
  ``bases.outcome_role`` and a Kronecker chain, where ``bases.basis_states``
  places whole tensor products at once;
* ``run_circuit`` runs a basis's whole gate list, the controlled ladder of an
  entangled basis included, which ``bases.apply_gates`` refuses;
* ``reference_reconstruct`` is the per-block estimator ``reconstruct`` must
  match bit for bit;
* ``oracle_grid_reconstruct`` is a likelihood grid search for n <= 2;
* ``read_rows_csv`` reads back ``benchmark.write_rows_csv``'s file.
"""

import csv
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from purestate.bases import (
    COMPUTATIONAL,
    QubitBasis,
    _entangled_block_offset,
    apply_gates,
    basis_states,
    default_family,
    entangled_id,
    local_id,
    outcome_role,
    rotate_qubit,
)
from purestate.benchmark import TrialRow
from purestate.measurement import ProbTable, to_empirical
from purestate.reconstruction import (
    AmbiguityError,
    ReconstructionOptions,
    amplitudes_from_counts,
    build_system,
    solve_phase,
)
from purestate.states import PureState, _freeze, global_phase_normalize


def born_probs_naive(state: PureState, id, family: list) -> ProbTable:
    """Outcome probabilities by explicit projection onto each basis state."""
    p = np.array([abs(np.vdot(b.amps, state.amps)) ** 2 for b in basis_states(state.n, id, family)])
    return ProbTable(n=state.n, basis=id, probs=p)


def _pattern_state(n: int, j: int, beta: int, sign0: int, tail, basis: QubitBasis) -> PureState:
    """|beta>_{n-j} (x) |sign0_a> (x) |tail_a ...> as a full 2^n statevector."""
    plus, minus = basis.plus_ket(), basis.minus_ket()
    block = reduce(np.kron, [plus if s == 1 else minus for s in (sign0, *tail)])
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[beta << j : (beta << j) + block.size] = block
    return PureState(n=n, amps=_freeze(amps))


def projector(n: int, j: int, beta: int, basis: QubitBasis) -> PureState:
    """The canonical phase projector |beta>_{n-j} (x) |+_a> (x) |-_a>^{x(j-1)}."""
    if not 1 <= j <= n:
        raise ValueError(f"level j={j} out of range for n={n}")
    if not 0 <= beta < (1 << (n - j)):
        raise ValueError(f"block beta={beta} out of range at level j={j}")
    return _pattern_state(n, j, beta, 1, (-1,) * (j - 1), basis)


def block_probs(st: PureState, j: int, beta: int, family: list) -> np.ndarray:
    """Every outcome probability of block (j, beta) in the local bases of family, in build_system's layout.

    Each outcome is decoded by outcome_role and projected onto its own state.
    """
    probs = np.empty((len(family), 2, 1 << (j - 1)))
    for a, qb in enumerate(family, start=1):
        for k in range(beta << j, (beta + 1) << j):
            role = outcome_role(local_id(a, j), k, st.n)
            state = _pattern_state(st.n, role.j, role.beta, role.sign0, role.tail, qb)
            probs[role_index(role)] = abs(np.vdot(state.amps, st.amps)) ** 2
    return probs


def entangled_index_map(n: int) -> np.ndarray:
    """perm[l] = computational index the l-th entangled-basis state maps to under its circuit.

    Level-j block states land on 2^j*beta + 2^{j-1} - 1 and the terminal
    all-minus state on 2^n - 1; the map is a permutation.
    """
    perm = np.empty(1 << n, dtype=np.int64)
    for j in range(1, n + 1):
        off = _entangled_block_offset(n, j)
        perm[off : off + (1 << (n - j))] = (np.arange(1 << (n - j), dtype=np.int64) << j) + (1 << (j - 1)) - 1
    perm[-1] = (1 << n) - 1
    return perm


def run_circuit(amps: np.ndarray, n: int, gates: list) -> np.ndarray:
    """A gate list applied to an amplitude vector: apply_gates for each plain gate, and the entangled ladder.

    A controlled gate fires only where the low ``target`` bits are all 1, so
    it rotates qubit 0 of that slice.
    """
    out = apply_gates(amps, n, [])  # a shape-checked complex128 copy
    for g in gates:
        if not g.controls:
            out = apply_gates(out, n, [g])
            continue
        k = g.target
        if tuple(g.controls) != tuple(range(k)):
            raise ValueError("only controls on all qubits below the target are supported")
        t = out.reshape(-1, 1 << k)
        t[:, -1] = rotate_qubit(t[:, -1], 0, g.matrix())
    return out


def read_rows_csv(path: str) -> list:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                TrialRow(
                    n=int(rec["n"]),
                    trial=int(rec["trial"]),
                    fidelity=float(rec["fidelity"]),
                    cond_max=float(rec["cond_max"]),
                    fallbacks=int(rec["fallbacks"]),
                )
            )
    return rows


def role_index(role):
    """Where build_system's probability layout holds an outcome: [a-1, pivot-sign bit, tail bits], a set bit meaning -."""
    tail = sum(1 << q for q, sign in enumerate(reversed(role.tail)) if sign == -1)
    return role.a - 1, int(role.sign0 == -1), tail


def solve_one(rows, opts=None):
    """solve_phase on one block's rows at opts' cond_threshold: (cos, sin, fallback, default_phase, cond) as scalars."""
    cond, phase, fallback, default = solve_phase(rows, (opts or ReconstructionOptions()).cond_threshold)
    return float(phase[0].real), float(phase[0].imag), bool(fallback[0]), bool(default[0]), float(cond[0])


@dataclass
class ReferenceDiagnostics:
    """What reference_reconstruct records, in plain dicts and lists filled block by block."""

    conds: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    null_branches: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)
    default_phases: list = field(default_factory=list)

    def to_dict(self) -> dict:
        cond = {f"{j},{beta}": (v if np.isfinite(v) else "inf") for (j, beta), v in self.conds.items()}
        return {
            "cond": cond,
            "fallbacks": len(self.fallbacks),
            "null_branches": len(self.null_branches),
            "default_phases": len(self.default_phases),
        }


def reference_reconstruct(records, n, opts):
    """The per-block estimator: build_system + solve_phase on one block at a time, in (j, beta) order.

    reconstruct must agree with it bit for bit: same null / fallback /
    default-phase lists, same conds and phases, and the same amplitudes.
    Its diagnostics are plain dicts and lists, filled one block at a time.
    Each block's children transforms are carried block by block: a solved
    block's B half takes its phase, and after the level every block goes
    through rotate_qubit on its top qubit on its own.
    """
    family = opts.family
    extra = opts.mode == "local" and opts.use_extra_rows
    u_dagger = np.array([qb.unitary().conj().T for qb in family[: opts.m]])
    rotation = u_dagger if extra else u_dagger[:, 1:]
    emp = {str(rec.basis): to_empirical(rec) for rec in records}
    work = amplitudes_from_counts(next(r for r in records if r.basis == COMPUTATIONAL), n, opts.null_threshold)
    work = work.astype(np.complex128)
    # one row per basis: U_a^dagger^{x(j-1)} of each level-j child with extra rows, else its <-_a|^{x(j-1)}
    carried = np.repeat(work[None], opts.m, axis=0)
    diag = ReferenceDiagnostics()
    for j in range(1, n + 1):
        half = 1 << (j - 1)
        width = 2 * half if extra else 2  # a block's entries in carried
        for beta in range(1 << (n - j)):
            lo = beta << j
            t = carried[:, beta * width : (beta + 1) * width]
            if not work[lo : lo + half].any() or not work[lo + half : lo + 2 * half].any():
                diag.null_branches.append((j, beta))
                continue
            # every outcome this block reads, placed through outcome_role rather than the kernel's gather
            probs = np.empty((opts.m, 2, half) if extra else opts.m)
            for a in range(1, opts.m + 1):
                if opts.mode == "local":
                    id = local_id(a, j)
                    ks = range(lo, lo + 2 * half) if extra else [lo + half - 1]
                else:
                    id = entangled_id(a)
                    ks = [(1 << n) - (1 << (n - j + 1)) + beta]
                for k in ks:
                    role = outcome_role(id, k, n)
                    assert (role.j, role.beta, role.a) == (j, beta, a)
                    assert extra or role.is_canonical
                    probs[role_index(role) if extra else a - 1] = emp[str(id)][k]
            ta, tb = (t[:, : width // 2], t[:, width // 2 :]) if extra else (t[:, 0], t[:, 1])
            cos_d, sin_d, fallback, default, cond = solve_one(build_system(j, beta, ta, tb, probs, family), opts)
            if fallback and opts.ambiguity_policy == "fail":
                raise AmbiguityError(j, beta, f"condition number {cond:.3g} above threshold")
            diag.conds[(j, beta)] = cond
            diag.phases[(j, beta)] = (cos_d, sin_d)
            if fallback:
                diag.fallbacks.append((j, beta))
            if default:
                diag.default_phases.append((j, beta))
            work[lo + half : lo + 2 * half] *= cos_d + 1j * sin_d
            t[:, width // 2 :] *= cos_d + 1j * sin_d
        blocks = np.split(carried, 1 << (n - j), axis=1)
        carried = np.concatenate([rotate_qubit(t, j - 1 if extra else 0, rotation) for t in blocks], axis=1)
    work /= np.linalg.norm(work)
    idx = np.flatnonzero(np.abs(work) > 1e-10)[0]
    return work * (abs(work[idx]) / work[idx]), diag


def oracle_grid_reconstruct(
    records: list,
    n: int,
    resolution: int = 10_000,
    family: list = None,
) -> PureState:
    """Independent estimator: grid search over relative phases maximizing the counts likelihood.

    Amplitudes are fixed to sqrt(p) exactly as in the main algorithm; the
    free relative phases (one per non-null amplitude past the first) are then
    scanned globally on a coarse lattice and the best candidates refined
    until the lattice step falls below 2*pi/resolution.  A slow cross-check
    for tiny systems, not an estimator in its own right.
    """
    if n > 2:
        raise ValueError("grid search is limited to n <= 2")
    if resolution < 10_000:
        raise ValueError("resolution below 1e4 grid points per phase")
    by_tag = {str(r.basis): r for r in records}
    comp = by_tag.get("computational")
    if comp is None:
        raise ValueError("computational-basis record is required")
    if family is None:
        m = max((r.basis.a for r in records if r.basis.tag != "computational"), default=2)
        family = default_family(m)
    c = amplitudes_from_counts(comp, n)
    live = np.flatnonzero(c)
    dim = 1 << n

    # stack all outcome projectors and counts into one matrix pair
    proj_rows = []
    weights = []
    for rec in records:
        states = basis_states(n, rec.basis, family)
        w = np.asarray(rec.counts, dtype=np.float64)
        for k in range(dim):
            if w[k] > 0:
                proj_rows.append(np.conj(states[k].amps))
                weights.append(w[k])
    M = np.array(proj_rows)
    wts = np.array(weights)

    free = live[1:] if live.size > 1 else np.array([], dtype=np.int64)
    if free.size == 0:
        amps = c.astype(np.complex128)
        return global_phase_normalize(PureState(n=n, amps=_freeze(amps / np.linalg.norm(amps))))

    def loglik(phases: np.ndarray) -> np.ndarray:
        # phases: (k, N) angles for the free amplitudes; returns (N,)
        out = np.empty(phases.shape[1])
        for lo in range(0, phases.shape[1], 1 << 15):
            chunk = phases[:, lo : lo + (1 << 15)]
            amps = np.repeat(c.astype(np.complex128)[:, None], chunk.shape[1], axis=1)
            amps[free, :] *= np.exp(1j * chunk)
            p = np.abs(M @ amps) ** 2
            out[lo : lo + chunk.shape[1]] = wts @ np.log(p + 1e-300)
        return out

    k = free.size
    coarse = 64
    step = 2 * np.pi / coarse
    axes = [np.arange(coarse) * step] * k
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    ll = loglik(mesh)
    keep = min(16, ll.size)
    centers = mesh[:, np.argsort(ll)[-keep:]]

    target_step = 2 * np.pi / resolution
    while step > target_step:
        step /= 4.0
        offsets = np.arange(-4, 5) * step
        cand_list = []
        for idx in range(centers.shape[1]):
            local_axes = [centers[d, idx] + offsets for d in range(k)]
            grid = np.stack([g.ravel() for g in np.meshgrid(*local_axes, indexing="ij")])
            cand_list.append(grid)
        cands = np.concatenate(cand_list, axis=1)
        ll = loglik(cands)
        order = np.argsort(ll)[-keep:]
        centers = cands[:, order]

    best = centers[:, -1]
    amps = c.astype(np.complex128)
    amps[free] *= np.exp(1j * best)
    return global_phase_normalize(PureState(n=n, amps=_freeze(amps / np.linalg.norm(amps))))
