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
every block's path in one call.  The rows need each child's transform
under every family basis a: U_a^dagger^{x(j-1)} child with extra rows, else
its <-_a|^{x(j-1)} contraction.  These are carried up the levels in one
(m, .) array: a merged block [A; e^{i delta} B] transforms as one
rotate_qubit on its top qubit of [T(A), e^{i delta} T(B)], so each level
costs one rotation, and extra rows cost O(m n 2^n) in all.  build_system is
the same row assembly run on a single block's transforms, a PhaseSystem of
one block.  rotate_qubit is elementwise and each system is summed over its
own rows, so a block's transforms, rows, cond and phase are the same bits
alone or in a batch.  Diagnostics keeps each level's solve as arrays (a
Level); its (j, beta) dicts and label lists are built from them on access.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .bases import (
    QubitBasis,
    _entangled_block_offset,
    default_family,
    estimation_basis_ids,
    make_qubit_basis,
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
            for i, qb in enumerate(fam):
                try:
                    make_qubit_basis(qb.u, qb.v, qb.phi)
                except ValueError as e:
                    raise ValueError(f"family entry {i} {qb!r}: {e}") from None
            object.__setattr__(self, "family", fam)

    def resolved_family(self) -> list[QubitBasis]:
        return list(self.family) if self.family is not None else default_family(self.m)

    @cached_property
    def _family_arrays(self) -> _FamilyArrays:
        """The constants of the m bases reconstruct uses, built on first use and kept with these options."""
        return _FamilyArrays(self.resolved_family()[: self.m])


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
    ta: np.ndarray,
    tb: np.ndarray,
    probs: np.ndarray,
    family: list[QubitBasis],
) -> PhaseSystem:
    """Assemble the phase system for block (j, beta) from its children's transforms and its probabilities.

    probs is (m, 2, 2^(j-1)), every outcome of family bases 1..m indexed by
    pivot-sign bit and tail bits (a set bit means -), or (m,), the canonical
    outcome only.  ta and tb are the transforms of the block's two halves
    (childA, childB) for each basis a: with every outcome, (m, 2^(j-1)) holding
    U_a^dagger^{x(j-1)} child, i.e. <W_w|child> for every tail pattern w; with
    the canonical outcome only, (m,) holding <-_a|^{x(j-1)} child.  Rows run
    basis by basis, then in outcome order; the result is reconstruct's level
    system for a batch of this one block.

    An outcome with pivot sign s0 and tail pattern w yields
        A = <s0|0><W_w|childA>,  B = <s0|1><W_w|childB>,  X = conj(A) B,
        row = (2 Re X, -2 Im X),  rhs = P - |A|^2 - |B|^2.
    The canonical outcome (pivot +, all-minus tail W = |-_a>^{x(j-1)}) has
    A = u <W|childA> and B = v e^{-i phi_a} <W|childB>; its row and rhs are
    divided by 2uv, which makes them
        X = e^{-i phi_a} <childA|W><W|childB>,
        row = (Re X, -Im X),  rhs = (P - u^2|<W|childA>|^2 - v^2|<W|childB>|^2) / (2uv).
    """
    half = 1 << (j - 1)
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0] if probs.ndim else 0
    if m == 0 or probs.shape not in ((m,), (m, 2, half)):
        raise ValueError(f"probabilities of shape {probs.shape} fit neither (m,) nor (m, 2, {half})")
    if m > len(family):
        raise ValueError(f"probabilities for {m} bases, but the family has {len(family)}")
    extra = probs.ndim == 3
    ta = np.asarray(ta, dtype=np.complex128)
    tb = np.asarray(tb, dtype=np.complex128)
    shape = (m, half) if extra else (m,)
    if ta.shape != shape or tb.shape != shape:
        raise ValueError(f"transforms of block (j={j}, beta={beta}) need shape {shape}, got {ta.shape} and {tb.shape}")
    rows = _level_rows(ta[:, None], tb[:, None], probs[:, None], _FamilyArrays(family[:m]), extra)
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
    """The records keyed by str(basis); each must hold 2^n outcomes, and non-integer ones must be finite and >= 0."""
    dim = 1 << n
    by_id = {}
    for rec in records:
        counts = np.asarray(rec.counts)
        if counts.shape != (dim,):
            raise ValueError(f"record {rec.basis} has {counts.size} outcomes, expected {dim} for n={n}")
        # min and max are NaN when any entry is: both comparisons then fail
        if counts.dtype.kind not in "biu" and not (counts.min() >= 0 and counts.max() < np.inf):
            raise ValueError(f"record {rec.basis} holds counts or probabilities that are negative or not finite")
        by_id[str(rec.basis)] = rec
    return by_id


class _FamilyArrays:
    """The family's per-basis constants, stacked along a leading basis axis of length m."""

    def __init__(self, family: list[QubitBasis]):
        u = np.array([qb.u for qb in family])[:, None]
        v = np.array([qb.v for qb in family])[:, None]
        e = np.exp(-1j * np.array([qb.phi for qb in family]))[:, None]
        self.u_dagger = np.array([qb.u_dagger for qb in family])
        self.minus_row = self.u_dagger[:, 1:]  # <-_a|
        # A = ca <W|childA>, B = cb <W|childB> for pivot sign + (column 0) and - (column 1)
        self.ca, self.cb = np.hstack([u, v]), np.hstack([v * e, -u * e])
        self.two_uv = 2.0 * u * v


def _outcome_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """Write 2 Re X, -2 Im X and p - |A|^2 - |B|^2, X = conj(A) B, into out[0], out[1] and out[2]."""
    x = np.conj(a)
    x *= b
    np.multiply(x.real, 2.0, out=out[0])
    np.multiply(x.imag, -2.0, out=out[1])
    np.subtract(p, np.abs(a) ** 2, out=out[2])
    out[2] -= np.abs(b) ** 2


def _level_rows(ta: np.ndarray, tb: np.ndarray, p: np.ndarray, fam: _FamilyArrays, extra: bool) -> np.ndarray:
    """Row columns 0, 1 and rhs (axis 0) of every block's phase system, shape (3, L, k).

    ta and tb hold the transforms of each block's two children, one row per
    family basis or a single row shared by all: (m, L, h) with extra rows,
    else (m, L) (see build_system).  p holds the outcome probabilities per
    family basis: (m, L, 2, h) with extra rows, else the canonical outcome's
    (m, L).  Each block's k rows run basis by basis, then in outcome order,
    and lie contiguous in memory: they are written straight into that layout.
    """
    m, L = p.shape[:2]
    rows = np.empty((3, L, m) + p.shape[2:])
    out = rows.swapaxes(1, 2)  # (3, m, L, ...), shaped like p
    if extra:
        a, b = fam.ca[:, None, :, None] * ta[:, :, None, :], fam.cb[:, None, :, None] * tb[:, :, None, :]
        _outcome_rows(a, b, p, out)
        canonical = out[:, :, :, 0, -1]  # pivot +, all-minus tail
    else:
        _outcome_rows(fam.ca[:, :1] * ta, fam.cb[:, :1] * tb, p, out)
        canonical = out
    canonical /= fam.two_uv
    return rows.reshape(3, L, -1)


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
    default phase or AmbiguityError.  The rows are built from the children's
    transforms, carried up the levels: once a level is solved, its B halves
    take their phases and one rotate_qubit on the new top qubit turns the
    merged blocks into the next level's children transforms.  The
    diagnostics keep the solve's arrays as the level's Level record; no
    per-block object is built.
    """
    by_id = _records_by_id(records, n)
    comp = by_id.get("computational")
    if comp is None:
        raise ValueError("computational-basis record is required")
    # a-major: local L_ab sits at (a-1)*n + (b-1), entangled E_a at a-1
    ids = [str(id) for id in estimation_basis_ids(n, opts.m, opts.mode)[1:]]
    missing = [id for id in ids if id not in by_id]
    if missing:
        raise ValueError(f"missing record for basis {missing[0]}")
    recs = [by_id[id] for id in ids]

    diag = Diagnostics()
    amps = amplitudes_from_counts(comp, n, opts.null_threshold)
    work = amps.astype(np.complex128)
    fam = opts._family_arrays
    extra = opts.mode == "local" and opts.use_extra_rows
    if opts.mode == "entangled":
        emp = np.stack([to_empirical(rec) for rec in recs])
    # The level's children transforms, one row per family basis: U_a^dagger^{x(j-1)} of each
    # child with extra rows, else its <-_a|^{x(j-1)} contraction.  At j = 1 a child is one
    # amplitude, its own transform, so work itself serves every basis.
    carry = work[None]
    rotation = fam.u_dagger if extra else fam.minus_row
    # whether each child of the level holds a nonzero amplitude; None while every one does
    occupied = None if amps.all() else amps != 0
    for j in range(1, n + 1):
        half, L = 1 << (j - 1), 1 << (n - j)
        t = carry.reshape(carry.shape[0], L, 2, -1)
        view = work.reshape(L, 2, half)
        # live picks the level's live blocks: a slice while every block is, so nothing is gathered
        if occupied is None:
            nulls, betas, live = np.empty(0, dtype=np.intp), np.arange(L), slice(None)
        else:
            pair = occupied.reshape(L, 2)
            occupied, both = pair.any(axis=1), pair.all(axis=1)
            nulls, betas = np.flatnonzero(~both), np.flatnonzero(both)
            live = betas
        if betas.size:
            if opts.mode == "entangled":
                off = _entangled_block_offset(n, j)
                p = emp[:, off : off + L][:, live]
            elif extra:
                p = np.stack([to_empirical(rec) for rec in recs[j - 1 :: n]]).reshape(-1, L, 2, half)[:, live]
            else:  # the canonical outcomes only: pivot +, all-minus tail
                p = np.stack([to_empirical(rec)[half - 1 :: 2 * half] for rec in recs[j - 1 :: n]])[:, live]
            ta, tb = t[:, live, 0], t[:, live, 1]
            if not extra:
                ta, tb = ta[:, :, 0], tb[:, :, 0]
            sys = PhaseSystem(j=j, betas=betas, rows=_level_rows(ta, tb, p, fam, extra))
            cond, cos_d, sin_d, fallback, default = solve_phase(sys, opts)
            phase = (cos_d + 1j * sin_d)[:, None]
            view[live, 1] *= phase
            if j > 1:  # at j = 1 carry is a view of work
                t[:, live, 1] *= phase
        else:
            cond = cos_d = sin_d = np.empty(0)
            fallback = default = np.zeros(0, dtype=bool)
        diag.levels.append(Level(j, nulls, betas, cond, cos_d, sin_d, fallback, default))
        if j < n:
            carry = rotate_qubit(carry, j - 1 if extra else 0, rotation)
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
