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

reconstruct solves each level in one batched pass over all its blocks: the
level's rows (_level_rows) form one PhaseSystem, and solve_phase decides
every block's path in one call.  build_system is the same row assembly run
on a single block, a PhaseSystem of one block, and each system is summed
over its own rows, so a block's rows, cond and phase are the same bits
alone or in a batch.  Diagnostics keeps each level's solve as arrays (a
Level); its (j, beta) dicts and label lists are built from them on access.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .bases import (
    QubitBasis,
    _entangled_block_offset,
    default_family,
    estimation_basis_ids,
    rotate_qubit,
)
from .measurement import CountsRecord, ProbTable, exact_record, to_empirical
from .states import PureState, _freeze, _require_int, global_phase_normalize, state_to_dict

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
    """The phase systems of blocks betas at level j, k linear equations on (cos delta, sin delta) each.

    rows is (3, L, k), laid out as _level_rows returns it: axis 0 holds the
    two row columns and the right-hand side, axis 1 runs over the L blocks.
    """

    j: int
    betas: np.ndarray  # (L,) block indices
    rows: np.ndarray  # (3, L, k) real


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        if _require_int(self.m, "m") < 2:
            raise ValueError("need at least 2 bases (m >= 2)")
        null, cond = self.null_threshold, self.cond_threshold
        if null is not None and not (_is_real(null) and 0 < null < np.inf):
            raise ValueError(f"null_threshold must be a positive finite real number, got {null!r}")
        if not (_is_real(cond) and cond > 0):
            raise ValueError(f"cond_threshold must be a positive real number or inf, got {cond!r}")
        if self.ambiguity_policy not in ("residual_pick", "fail"):
            raise ValueError(f"unknown ambiguity_policy {self.ambiguity_policy!r}")
        if self.family is not None:
            if not (isinstance(self.family, (tuple, list)) and all(isinstance(qb, QubitBasis) for qb in self.family)):
                raise ValueError(f"family must be a tuple or list of QubitBasis, got {self.family!r}")
            fam = tuple(self.family)
            if len(fam) < self.m:
                raise ValueError(f"family has {len(fam)} bases, need m={self.m}")
            object.__setattr__(self, "family", fam)

    def resolved_family(self) -> list[QubitBasis]:
        return list(self.family) if self.family is not None else default_family(self.m)


class Level(NamedTuple):
    """One level's solve: its null blocks, its live blocks and solve_phase's arrays for them.

    nulls and betas are ascending block indices; cond, cos, sin and the
    fallback / default masks run parallel to betas.
    """

    j: int
    nulls: np.ndarray
    betas: np.ndarray
    cond: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    fallback: np.ndarray
    default: np.ndarray


@dataclass(eq=False)
class Diagnostics:
    """Per-run solve statistics, kept as one Level of arrays per level j.

    conds and phases are read-only (j, beta) dicts built from those arrays
    on each access, one entry per solved system, in level order and beta
    ascending: conds holds the condition numbers (inf marks systems with no
    usable rows), phases the (cos delta, sin delta) pairs.  null_branches,
    fallbacks and default_phases are disjoint lists of (j, beta) labels,
    also built on each access; together with conds they account for all
    2^n - 1 phase problems.  cond_max and the n_* counts cost O(levels).
    """

    levels: list = field(default_factory=list)

    def _by_block(self, column) -> MappingProxyType:
        return MappingProxyType(
            {(lv.j, beta): v for lv in self.levels for beta, v in zip(lv.betas.tolist(), column(lv))}
        )

    @property
    def conds(self) -> MappingProxyType:
        return self._by_block(lambda lv: lv.cond.tolist())

    @property
    def phases(self) -> MappingProxyType:
        return self._by_block(lambda lv: zip(lv.cos.tolist(), lv.sin.tolist()))

    @property
    def null_branches(self) -> list:
        return [(lv.j, beta) for lv in self.levels for beta in lv.nulls.tolist()]

    @property
    def fallbacks(self) -> list:
        return [(lv.j, beta) for lv in self.levels for beta in lv.betas[lv.fallback].tolist()]

    @property
    def default_phases(self) -> list:
        return [(lv.j, beta) for lv in self.levels for beta in lv.betas[lv.default].tolist()]

    @property
    def cond_max(self) -> float:
        return max((lv.cond.max().item() for lv in self.levels if lv.cond.size), default=0.0)

    @property
    def n_systems(self) -> int:
        return sum(lv.betas.size for lv in self.levels)

    @property
    def n_fallbacks(self) -> int:
        return sum(int(np.count_nonzero(lv.fallback)) for lv in self.levels)

    @property
    def n_null_branches(self) -> int:
        return sum(lv.nulls.size for lv in self.levels)

    @property
    def n_default_phases(self) -> int:
        return sum(int(np.count_nonzero(lv.default)) for lv in self.levels)

    def to_dict(self) -> dict:
        cond = {
            f"{lv.j},{beta}": (v if math.isfinite(v) else "inf")
            for lv in self.levels
            for beta, v in zip(lv.betas.tolist(), lv.cond.tolist())
        }
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


def _normal_solution(rows: np.ndarray) -> tuple:
    """Elementwise (cond, det, x, y) of the normal equations of the systems in rows (3, L, k); cond is inf at rank < 2.

    Each system's Gram entries are summed over its own contiguous last axis,
    so they are the same bits whether it is solved alone or in a batch.
    """
    (g11, g12, b1), (_, g22, b2) = np.einsum("ilk,jlk->ijl", rows[:2], rows)
    half = 0.5 * (g11 + g22)
    disc = 0.5 * np.hypot(g11 - g22, 2.0 * g12)
    hi, lo = half + disc, half - disc
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
    outcome only.  Rows run basis by basis, then in outcome order; the
    result is reconstruct's level system for a batch of this one block.

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
    rows = _level_rows(np.stack([childA, childB])[None], probs[:, None], _FamilyArrays(family[:m]), probs.ndim == 3)
    return PhaseSystem(j=j, betas=np.array([beta]), rows=rows)


def solve_phase(sys: PhaseSystem, opts: ReconstructionOptions) -> tuple:
    """Every block's (cond, cos delta, sin delta, fallback, default_phase), arrays of shape (L,).

    A block's least-squares solution is projected radially onto the unit
    circle; under a cond within the threshold, a Gram determinant <= 0
    (reachable only with cond_threshold=inf) or overflowing to inf is
    solved by np.linalg.lstsq.  A block whose rows are all exactly zero, or
    whose solution lies within ZERO_SOLUTION_EPS of the origin, pins
    nothing: it gets the default phase (1, 0).  A block with cond above the
    threshold raises AmbiguityError under ambiguity_policy='fail' (the first
    such block of the level) and otherwise falls back: its dominant row (the
    largest norm, the lowest index on ties) is intersected with the circle,
    or clamped to the nearest point when the line misses it, and of the two
    intersections the one with the smaller residual over all rows wins; ties
    break toward delta = 0, then toward non-negative sine.
    """
    rows = sys.rows
    if rows.shape[2] < 1:
        raise ValueError("empty phase system")
    fallback, default = np.zeros(rows.shape[1], dtype=bool), np.zeros(rows.shape[1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond, det, x, y = _normal_solution(rows)
        r = np.hypot(x, y)
        cos_d, sin_d = x / r, y / r
        rest = np.flatnonzero(
            ~((cond <= opts.cond_threshold) & (det > 0.0) & np.isfinite(det) & (r >= ZERO_SOLUTION_EPS))
        )
        if rest.size == 0:
            return cond, cos_d, sin_d, fallback, default
        live = rows[:2, rest].any(axis=(0, 2))
        within = cond[rest] <= opts.cond_threshold
        ls, ill = rest[live & within], rest[live & ~within]
        default[rest[~live]] = True
        if ill.size and opts.ambiguity_policy == "fail":
            i = ill[0]
            raise AmbiguityError(sys.j, int(sys.betas[i]), f"condition number {cond[i]:.3g} above threshold")
        for i in ls.tolist():
            if not (det[i] > 0.0 and np.isfinite(det[i])):
                x[i], y[i] = np.linalg.lstsq(rows[:2, i].T, rows[2, i], rcond=None)[0]
        r = np.hypot(x[ls], y[ls])
        cos_d[ls], sin_d[ls] = x[ls] / r, y[ls] / r
        default[ls[r < ZERO_SOLUTION_EPS]] = True
        if ill.size:
            fallback[ill] = True
            sub = rows[:, ill]
            dom = np.argmax(sub[0] * sub[0] + sub[1] * sub[1], axis=1)
            a, b, d = sub[:, np.arange(ill.size), dom]
            norm = np.hypot(a, b)
            ua, ub, t = a / norm, b / norm, d / norm
            h = np.sqrt(1.0 - t * t)  # NaN where the line misses the circle
            cands = np.array([[t * ua - h * ub, t * ub + h * ua], [t * ua + h * ub, t * ub - h * ua]])
            # each candidate's squared residual over all rows, (2, F)
            fit = sub[:2].transpose(1, 2, 0) @ cands.transpose(0, 2, 1)[..., None]
            res = ((fit[..., 0] - sub[2]) ** 2).sum(axis=2)
            (c0, s0), (c1, s1) = cands
            second = (res[1] < res[0] - TIE_EPS) | (
                (np.abs(res[1] - res[0]) <= TIE_EPS) & ((c1 > c0 + TIE_EPS) | ((np.abs(c1 - c0) <= TIE_EPS) & (s1 > s0)))
            )
            miss = np.abs(d) >= norm
            sgn = np.where(d >= 0, 1.0, -1.0)
            cos_d[ill] = np.where(miss, sgn * ua, np.where(second, c1, c0))
            sin_d[ill] = np.where(miss, sgn * ub, np.where(second, s1, s0))
    cos_d[default], sin_d[default] = 1.0, 0.0
    return cond, cos_d, sin_d, fallback, default


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

    wa, wb, p are (m, L).
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


def _level_rows(blocks: np.ndarray, p: np.ndarray, fam: _FamilyArrays, extra: bool) -> np.ndarray:
    """Row columns 0, 1 and rhs (axis 0) of every block's phase system, shape (3, L, k).

    blocks is (L, 2, h): the two children of each block.  p holds the
    outcome probabilities per family basis: (m, L, 2, h) with extra rows,
    else the canonical outcome's (m, L).  Each block's k rows run basis by
    basis, then in outcome order, and lie contiguous in memory.
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
    return np.ascontiguousarray(rows.reshape(3, m, L, -1).swapaxes(1, 2)).reshape(3, L, -1)


def reconstruct(records: list[CountsRecord], n: int, opts: ReconstructionOptions) -> tuple[PureState, Diagnostics]:
    """Estimate the n-qubit state from one record per required basis.

    Level j = 1..n: split each length-2^j block into its two children,
    solve the phase system from the level's measurement records, and merge.
    Blocks with a null child produce no system (the surviving child embeds
    with phase 0).  The estimate is renormalized and global-phase normalized;
    the whole procedure is deterministic.

    Each level is one batched pass over all its live blocks: _level_rows
    assembles every block's rows at once, and one solve_phase call returns
    every block's cond and phase and decides its least squares, fallback,
    default phase or AmbiguityError.  The diagnostics keep those arrays as
    the level's Level record; no per-block object is built.
    """
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

    diag = Diagnostics()
    work = amplitudes_from_counts(comp, n, opts.null_threshold).astype(np.complex128)
    extra = opts.mode == "local" and opts.use_extra_rows
    fam = _FamilyArrays(opts.resolved_family()[: opts.m])
    for j in range(1, n + 1):
        half = 1 << (j - 1)
        view = work.reshape(-1, 2, half)
        live = view.any(axis=2).all(axis=1)
        blocks = np.arange(live.size)
        nulls, betas = blocks[~live], blocks[live]
        if betas.size == 0:
            empty, unset = np.empty(0), np.zeros(0, dtype=bool)
            diag.levels.append(Level(j, nulls, betas, empty, empty, empty, unset, unset))
            continue
        if opts.mode == "local":
            p = np.stack(emp[j - 1 :: n]).reshape(opts.m, -1, 2, half)[:, betas]
            if not extra:
                p = p[:, :, 0, half - 1]
        else:
            p = np.stack(emp)[:, _entangled_block_offset(n, j) + betas]
        sys = PhaseSystem(j=j, betas=betas, rows=_level_rows(view[betas], p, fam, extra))
        cond, cos_d, sin_d, fallback, default = solve_phase(sys, opts)
        view[betas, 1] *= (cos_d + 1j * sin_d)[:, None]
        diag.levels.append(Level(j, nulls, betas, cond, cos_d, sin_d, fallback, default))
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
