"""Inductive phase recovery: from counts to a pure-state estimate.

The estimate is assembled level by level.  Amplitudes c_alpha = sqrt(p_alpha)
come from the computational record (small probabilities clamped to exact 0).
At level j the two halves of each length-2^j block differ by one unknown
relative phase delta; every basis of the family contributes one linear
equation

    Re[e^{i delta} X] = rhs,  i.e.  (Re X) cos(delta) - (Im X) sin(delta) = rhs,

on the unknowns (cos delta, sin delta).  The stacked k x 2 system is solved
by least squares and the solution projected radially onto the unit circle;
ill-conditioned systems fall back to intersecting the dominant single
equation with the circle and letting the residual over all rows pick the
candidate.  Merged blocks become the children of the next level, so j = n
yields the full estimate up to an (unobservable) global phase.

Each child block enters later systems with whatever global phase it was
assembled with; the equations are built from the children as produced, so
this is self-consistent.

reconstruct solves each level in one batched pass over all its blocks.
build_system and solve_phase are the per-block definition of the same
estimator; reconstruct runs them only on the blocks the batch flags as
other than plain least squares, so those take exactly the per-block branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import (
    QubitBasis,
    _entangled_block_offset,
    default_family,
    estimation_basis_ids,
    rotate_qubit,
)
from .measurement import CountsRecord, ProbTable, exact_record, to_empirical
from .states import PureState, _freeze, global_phase_normalize, state_to_dict

# Least-squares solutions shorter than this carry no phase direction.
ZERO_SOLUTION_EPS = 1e-15
# Residual / cosine ties in the ambiguity candidate pick.
TIE_EPS = 1e-12


class AmbiguityError(RuntimeError):
    """Raised under ambiguity_policy='fail' when a phase system cannot be solved uniquely."""

    def __init__(self, j: int, beta: int, message: str):
        super().__init__(f"phase system (j={j}, beta={beta}): {message}")
        self.j = j
        self.beta = beta


@dataclass(frozen=True)
class PhaseSystem:
    """Stacked linear equations for one relative phase; rows act on (cos delta, sin delta)."""

    j: int
    beta: int
    rows: np.ndarray  # (k, 2) real
    rhs: np.ndarray  # (k,) real
    cond: float  # singular-value ratio of rows; inf when rank < 2


@dataclass(frozen=True)
class ReconstructionOptions:
    """Estimation configuration.

    mode selects which measurement records are consumed: "local" needs the
    product bases (a = 1..m, b = 1..n), "entangled" the ladder bases
    (a = 1..m); both need the computational record.  family defaults to the
    balanced phase family of size m and must match the one the records were
    measured in.  null_threshold of None picks 0.5/shots for sampled records
    (zero observed counts clamp to a null amplitude) and 0 for exact ones.
    """

    mode: str = "local"
    m: int = 2
    family: tuple = None
    use_extra_rows: bool = False
    null_threshold: float = None
    cond_threshold: float = 1e6
    ambiguity_policy: str = "residual_pick"

    def __post_init__(self):
        if self.mode not in ("local", "entangled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 2:
            raise ValueError("need at least 2 bases (m >= 2)")
        if self.null_threshold is not None and not self.null_threshold > 0:
            raise ValueError("null_threshold must be positive")
        if not self.cond_threshold > 0:
            raise ValueError("cond_threshold must be positive")
        if self.ambiguity_policy not in ("residual_pick", "fail"):
            raise ValueError(f"unknown ambiguity_policy {self.ambiguity_policy!r}")
        if self.family is not None:
            fam = tuple(self.family)
            if len(fam) < self.m:
                raise ValueError(f"family has {len(fam)} bases, need m={self.m}")
            object.__setattr__(self, "family", fam)

    def resolved_family(self) -> list[QubitBasis]:
        return list(self.family) if self.family is not None else default_family(self.m)


@dataclass(frozen=True)
class PhaseFlags:
    """What solve_phase did: plain least squares unless one of these is set."""

    fallback: bool = False
    clamped: bool = False
    default_phase: bool = False


@dataclass
class Diagnostics:
    """Per-run solve statistics; one entry per non-null (j, beta) problem.

    conds holds every solved system's condition number (inf marks systems
    with no usable rows).  null_branches, fallbacks and default_phases are
    disjoint lists of (j, beta) labels; together with conds they account for
    all 2^n - 1 phase problems.
    """

    n: int
    conds: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    null_branches: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)
    default_phases: list = field(default_factory=list)

    @property
    def cond_max(self) -> float:
        return max(self.conds.values()) if self.conds else 0.0

    @property
    def n_fallbacks(self) -> int:
        return len(self.fallbacks)

    @property
    def n_null_branches(self) -> int:
        return len(self.null_branches)

    @property
    def n_default_phases(self) -> int:
        return len(self.default_phases)

    def to_dict(self) -> dict:
        cond = {f"{j},{beta}": (v if np.isfinite(v) else "inf") for (j, beta), v in self.conds.items()}
        return {
            "cond": cond,
            "fallbacks": self.n_fallbacks,
            "null_branches": self.n_null_branches,
            "default_phases": self.n_default_phases,
        }


def amplitudes_from_counts(comp: CountsRecord, n: int, null_threshold: float = None) -> np.ndarray:
    """c_alpha = sqrt(p_alpha) from the computational record, with small p clamped to exact 0."""
    if comp.basis.tag != "computational":
        raise ValueError(f"amplitude estimation needs the computational record, got {comp.basis}")
    p = to_empirical(comp)
    if p.shape != (1 << n,):
        raise ValueError(f"record has {p.size} outcomes, expected {1 << n}")
    if null_threshold is None:
        null_threshold = 0.5 / comp.shots if comp.shots > 0 else 0.0
    p = np.where(p < null_threshold, 0.0, p)
    return np.sqrt(p)


def _tail_state(qb: QubitBasis, bits: int, k: int) -> np.ndarray:
    """Tensor product of |+_a>/|-_a> kets over tail qubits k-1 .. 0 (a set bit means -); scalar 1 for k = 0."""
    w = np.ones(1, dtype=np.complex128)
    for q in range(k - 1, -1, -1):
        w = np.kron(w, qb.minus_ket() if (bits >> q) & 1 else qb.plus_ket())
    return w


def _normal_entries(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gram entries g11, g12, g22 and right sides b1, b2 of one k x 2 system."""
    c0, c1 = rows[:, 0], rows[:, 1]
    return np.array([c0 @ c0, c0 @ c1, c1 @ c1, c0 @ rhs, c1 @ rhs])


def _normal_solution(g) -> tuple:
    """Elementwise (cond, det, x, y) of normal equations (g11, g12, g22, b1, b2); cond is inf at rank < 2."""
    g11, g12, g22, b1, b2 = g
    half = 0.5 * (g11 + g22)
    disc = 0.5 * np.hypot(g11 - g22, 2.0 * g12)
    hi, lo = half + disc, half - disc
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = np.where((lo <= 0.0) | (hi <= 0.0), np.inf, np.sqrt(hi / lo))
        det = g11 * g22 - g12 * g12
        return cond, det, (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det


def build_system(
    j: int,
    beta: int,
    childA: np.ndarray,
    childB: np.ndarray,
    probs: np.ndarray,
    family: list[QubitBasis],
) -> PhaseSystem:
    """Assemble the phase system for block (j, beta) from its slice of the level's probabilities.

    childA and childB hold the block's two halves, 2^(j-1) amplitudes each.
    probs is (m, 2, 2^(j-1)), every outcome of family bases 1..m indexed by
    pivot-sign bit and tail bits (a set bit means -), or (m,), the canonical
    outcome only.  Rows run basis by basis, then in outcome order.

    The canonical outcome (pivot +, all-minus tail) yields
        X = e^{-i phi_a} <childA|W><W|childB>,   W = |-_a>^{x(j-1)},
        row = (Re X, -Im X),  rhs = (P - u^2|<W|childA>|^2 - v^2|<W|childB>|^2) / (2uv).
    Any other sign pattern yields the unscaled form
        A = <s0|0><W_w|childA>,  B = <s0|1><W_w|childB>,  X = conj(A) B,
        row = (2 Re X, -2 Im X),  rhs = P - |A|^2 - |B|^2.
    """
    half = 1 << (j - 1)
    childA = np.asarray(childA, dtype=np.complex128)
    childB = np.asarray(childB, dtype=np.complex128)
    if childA.shape != (half,) or childB.shape != (half,):
        raise ValueError(f"children of block (j={j}, beta={beta}) need {half} amplitudes each")
    if not (childA.any() and childB.any()):
        raise ValueError(f"phase system (j={j}, beta={beta}) requires non-null children")
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0] if probs.ndim else 0
    if m == 0 or probs.shape not in ((m,), (m, 2, half)):
        raise ValueError(f"probabilities of shape {probs.shape} fit neither (m,) nor (m, 2, {half})")
    if m > len(family):
        raise ValueError(f"probabilities for {m} bases, but the family has {len(family)}")
    width = probs.size // m
    rows = np.empty((probs.size, 2))
    rhs = np.empty(probs.size)
    for i, prob in enumerate(probs.ravel().tolist()):
        qb = family[i // width]
        sign_bit, tail = divmod(i % width, half) if probs.ndim == 3 else (0, half - 1)
        w = _tail_state(qb, tail, j - 1)
        wa = complex(np.vdot(w, childA))
        wb = complex(np.vdot(w, childB))
        if sign_bit == 0 and tail == half - 1:
            x = np.exp(-1j * qb.phi) * np.conj(wa) * wb
            rows[i] = (x.real, -x.imag)
            rhs[i] = (prob - qb.u**2 * abs(wa) ** 2 - qb.v**2 * abs(wb) ** 2) / (2.0 * qb.u * qb.v)
        else:
            ca = qb.u if sign_bit == 0 else qb.v
            cb = (qb.v if sign_bit == 0 else -qb.u) * np.exp(-1j * qb.phi)
            a = ca * wa
            b = cb * wb
            x = np.conj(a) * b
            rows[i] = (2.0 * x.real, -2.0 * x.imag)
            rhs[i] = prob - abs(a) ** 2 - abs(b) ** 2
    return PhaseSystem(j=j, beta=beta, rows=rows, rhs=rhs, cond=float(_normal_solution(_normal_entries(rows, rhs))[0]))


def phase_ls(sys: PhaseSystem) -> np.ndarray:
    """Unconstrained least-squares solution of the system (2x2 normal equations)."""
    _, det, x, y = _normal_solution(_normal_entries(sys.rows, sys.rhs))
    if det <= 0.0 or not np.isfinite(det):
        sol, *_ = np.linalg.lstsq(sys.rows, sys.rhs, rcond=None)
        return sol
    return np.array([x, y])


def _circle_candidates(row: np.ndarray, d: float) -> tuple[list, bool]:
    """Intersect row . x = d with the unit circle; clamp to the nearest point if disjoint."""
    norm = float(np.hypot(row[0], row[1]))
    unit = row / norm
    if abs(d) >= norm:
        sgn = 1.0 if d >= 0 else -1.0
        return [sgn * unit], abs(d) > norm
    foot = (d / norm) * unit
    h = float(np.sqrt(max(0.0, 1.0 - (d / norm) ** 2)))
    perp = np.array([-unit[1], unit[0]])
    return [foot + h * perp, foot - h * perp], False


def solve_phase(sys: PhaseSystem, opts: ReconstructionOptions) -> tuple[float, float, PhaseFlags]:
    """(cos delta, sin delta) on the unit circle, plus flags describing the path taken.

    Well-conditioned systems: least squares projected radially onto the
    circle.  Ill-conditioned ones (cond above the threshold): the dominant
    row is intersected with the circle and the candidate with the smaller
    residual over all rows wins; ties break toward delta = 0, then toward
    non-negative sine.  A system whose rows are all exactly zero, or whose
    least-squares solution sits at the origin, pins nothing: the default
    phase (1, 0) is returned and flagged.
    """
    if sys.rows.shape[0] < 1:
        raise ValueError("empty phase system")
    if not sys.rows.any():
        return 1.0, 0.0, PhaseFlags(default_phase=True)
    if sys.cond <= opts.cond_threshold:
        x = phase_ls(sys)
        r = float(np.hypot(x[0], x[1]))
        if r < ZERO_SOLUTION_EPS:
            return 1.0, 0.0, PhaseFlags(default_phase=True)
        return float(x[0] / r), float(x[1] / r), PhaseFlags()
    if opts.ambiguity_policy == "fail":
        raise AmbiguityError(sys.j, sys.beta, f"condition number {sys.cond:.3g} above threshold")
    dom = int(np.argmax(np.einsum("ij,ij->i", sys.rows, sys.rows)))
    cands, clamped = _circle_candidates(sys.rows[dom], float(sys.rhs[dom]))
    best = None
    best_res = np.inf
    for cand in cands:
        res = float(np.sum((sys.rows @ cand - sys.rhs) ** 2))
        if (
            best is None
            or res < best_res - TIE_EPS
            or (abs(res - best_res) <= TIE_EPS and (cand[0] > best[0] + TIE_EPS or (abs(cand[0] - best[0]) <= TIE_EPS and cand[1] > best[1])))
        ):
            best, best_res = cand, res
    return float(best[0]), float(best[1]), PhaseFlags(fallback=True, clamped=clamped)


def _records_by_id(records: list[CountsRecord], n: int) -> dict:
    dim = 1 << n
    by_id = {}
    for rec in records:
        if np.asarray(rec.counts).shape != (dim,):
            raise ValueError(f"record {rec.basis} has {np.asarray(rec.counts).size} outcomes, expected {dim} for n={n}")
        by_id[str(rec.basis)] = rec
    return by_id


class _FamilyArrays:
    """The family's per-basis constants, stacked along a leading basis axis of length m."""

    def __init__(self, family: list[QubitBasis]):
        self.u = np.array([qb.u for qb in family])[:, None]
        self.v = np.array([qb.v for qb in family])[:, None]
        self.e = np.exp(-1j * np.array([qb.phi for qb in family]))[:, None]
        self.u_dagger = np.array([qb.unitary().conj().T for qb in family])
        # A = ca <W|childA>, B = cb <W|childB> for pivot sign + (column 0) and - (column 1)
        self.ca = np.hstack([self.u, self.v])
        self.cb = np.hstack([self.v * self.e, -self.u * self.e])


def _canonical_rows(wa: np.ndarray, wb: np.ndarray, p: np.ndarray, fam: _FamilyArrays) -> np.ndarray:
    """Rows and rhs (stacked on axis 0) of canonical outcomes (pivot +, all-minus tail).

    wa, wb, p are (m, L); the 1/(2uv) weight matches build_system.
    """
    x = fam.e * np.conj(wa) * wb
    rhs = (p - fam.u**2 * np.abs(wa) ** 2 - fam.v**2 * np.abs(wb) ** 2) / (2.0 * fam.u * fam.v)
    return np.stack([x.real, -x.imag, rhs])


def _pattern_rows(wa: np.ndarray, wb: np.ndarray, p: np.ndarray, fam: _FamilyArrays) -> np.ndarray:
    """Rows and rhs (stacked on axis 0) of every outcome, each shaped like p: (m, L, pivot sign, tail).

    wa, wb are (m, L, h): <W_w|childA>, <W_w|childB> for every tail pattern w.
    """
    a = fam.ca[:, None, :, None] * wa[:, :, None, :]
    b = fam.cb[:, None, :, None] * wb[:, :, None, :]
    x = np.conj(a) * b
    out = np.stack([2.0 * x.real, -2.0 * x.imag, p - np.abs(a) ** 2 - np.abs(b) ** 2])
    c = wa.shape[2] - 1  # all-minus tail
    out[:, :, :, 0, c] = _canonical_rows(wa[:, :, c], wb[:, :, c], p[:, :, 0, c], fam)
    return out


def _normal_equations(blocks: np.ndarray, p: np.ndarray, fam: _FamilyArrays, extra: bool) -> np.ndarray:
    """Gram entries g11, g12, g22 and right sides b1, b2 of every block's phase system, shape (5, L).

    blocks is (L, 2, h): the two children of each block.  p holds the
    outcome probabilities per family basis: (m, L, 2, h) with extra rows,
    else the canonical outcome's (m, L).
    """
    L, _, h = blocks.shape
    m = len(fam.u)
    # U_a^dagger on each of the low k qubits gives <W_w|child> for every tail pattern w;
    # its <-_a| row alone contracts the tail to the canonical <-_a|^{x k}
    M = fam.u_dagger if extra else fam.u_dagger[:, 1:]
    w = blocks.reshape(1, -1)
    for q in range(h.bit_length() - 1):
        w = rotate_qubit(w, q if extra else 0, M)
    w = np.broadcast_to(w, (m, w.shape[1])).reshape(m, L, 2, -1)
    if extra:
        rows = _pattern_rows(w[:, :, 0], w[:, :, 1], p, fam)
    else:
        rows = _canonical_rows(w[:, :, 0, 0], w[:, :, 1, 0], p, fam)
    rows = rows.reshape(3, m, L, -1)
    gram = np.einsum("imlk,jmlk->ijl", rows[:2], rows)
    return np.stack([gram[0, 0], gram[0, 1], gram[1, 1], gram[0, 2], gram[1, 2]])


# Relative rounding error of the Gram-based condition number and of the
# normal-equation solution, per unit cond^2.
_GRAM_ERR = 64 * np.finfo(np.float64).eps
# Thresholds above this enter the batch's cond cut as this value; blocks with
# cond between the cut and a larger threshold take the per-block path.
_CUT_CAP = 1e6
# Least-squares radii below this are left to the per-block path.
_RADIUS_FLAG = 1e-6
# Rows whose squared norm is below this share of |childA|^2 |childB|^2 are
# rounding residue of cancelling overlaps, not phase information.
_ROW_FLOOR = 1e-20


def _solve_normal(g: np.ndarray, scale: np.ndarray, cond_threshold: float) -> tuple:
    """Batched closed-form 2x2 solve: (cond, cos, sin, flagged) per block.

    scale is |childA|^2 |childB|^2 per block.  A block is flagged, and its
    entries left for the per-block path, unless it is clearly a plain
    least-squares case: rows above rounding level, condition number below the
    threshold and solution away from the origin by more than their rounding
    error, so solve_phase would take the same branch on the same data.
    """
    cond, det, x, y = _normal_solution(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.hypot(x, y)
        t = min(cond_threshold, _CUT_CAP)
        cut = t / (1.0 + 1e-6 + _GRAM_ERR * t * t)
        clean = (cond <= cut) & (det > 0.0) & np.isfinite(det) & np.isfinite(r) & (g[0] + g[2] >= _ROW_FLOOR * scale)
        clean &= r >= np.maximum(_RADIUS_FLAG, _GRAM_ERR * cond * cond)
        return cond, x / r, y / r, ~clean


def reconstruct(records: list[CountsRecord], n: int, opts: ReconstructionOptions) -> tuple[PureState, Diagnostics]:
    """Estimate the n-qubit state from one record per required basis.

    Level j = 1..n: split each length-2^j block into its two children,
    solve the phase system from the level's measurement records, and merge.
    Blocks with a null child produce no system (the surviving child embeds
    with phase 0).  The estimate is renormalized and global-phase normalized;
    the whole procedure is deterministic.

    Each level is one batched pass over all its live blocks: rows, Gram
    entries, condition numbers and 2x2 solves for every block at once.  A
    block the batch cannot settle as plain least squares (see _solve_normal)
    is rebuilt by build_system from its slice of the level's probabilities
    and solved by solve_phase, which then decide its fallback, default phase
    or AmbiguityError.
    """
    family = opts.resolved_family()
    by_id = _records_by_id(records, n)
    comp = by_id.get("computational")
    if comp is None:
        raise ValueError("computational-basis record is required")
    # a-major: local L_ab sits at (a-1)*n + (b-1), entangled E_a at a-1
    ids = estimation_basis_ids(n, opts.m, opts.mode)[1:]
    missing = [str(id) for id in ids if str(id) not in by_id]
    if missing:
        raise ValueError(f"missing record for basis {missing[0]}")
    emp = [to_empirical(by_id[str(id)]) for id in ids]

    diag = Diagnostics(n=n)
    work = amplitudes_from_counts(comp, n, opts.null_threshold).astype(np.complex128)
    extra = opts.mode == "local" and opts.use_extra_rows
    fam = _FamilyArrays(family[: opts.m])
    for j in range(1, n + 1):
        half = 1 << (j - 1)
        view = work.reshape(-1, 2, half)
        live = view.any(axis=2).all(axis=1)
        diag.null_branches.extend((j, beta) for beta in np.flatnonzero(~live).tolist())
        betas = np.flatnonzero(live)
        if betas.size == 0:
            continue
        if opts.mode == "local":
            p = np.stack(emp[j - 1 :: n]).reshape(opts.m, -1, 2, half)[:, betas]
            if not extra:
                p = p[:, :, 0, half - 1]
        else:
            p = np.stack(emp)[:, _entangled_block_offset(n, j) + betas]
        blocks = view[betas]
        sq = (blocks.real**2 + blocks.imag**2).sum(axis=2)
        g = _normal_equations(blocks, p, fam, extra)
        cond, cos_d, sin_d, flagged = _solve_normal(g, sq[:, 0] * sq[:, 1], opts.cond_threshold)
        ok = ~flagged
        view[betas[ok], 1] *= (cos_d[ok] + 1j * sin_d[ok])[:, None]
        for i in np.flatnonzero(flagged).tolist():
            beta = int(betas[i])
            sys = build_system(j, beta, view[beta, 0], view[beta, 1], p[:, i], family)
            cos_i, sin_i, flags = solve_phase(sys, opts)
            cond[i], cos_d[i], sin_d[i] = sys.cond, cos_i, sin_i
            if flags.fallback:
                diag.fallbacks.append((j, beta))
            if flags.default_phase:
                diag.default_phases.append((j, beta))
            view[beta, 1] *= cos_i + 1j * sin_i
        keys = [(j, beta) for beta in betas.tolist()]
        diag.conds.update(zip(keys, cond.tolist()))
        diag.phases.update(zip(keys, zip(cos_d.tolist(), sin_d.tolist())))
    norm = float(np.linalg.norm(work))
    if norm == 0.0:
        raise ValueError("all amplitudes clamped to zero; nothing to reconstruct")
    estimate = global_phase_normalize(PureState(n=n, amps=_freeze(work / norm)))
    return estimate, diag


def reconstruct_from_probs(tables: list[ProbTable], n: int, opts: ReconstructionOptions) -> tuple[PureState, Diagnostics]:
    """Infinite-statistics reconstruction straight from exact outcome distributions."""
    return reconstruct([exact_record(t) for t in tables], n, opts)


def estimate_to_dict(state: PureState, diag: Diagnostics) -> dict:
    out = state_to_dict(state)
    out["diagnostics"] = diag.to_dict()
    return out
