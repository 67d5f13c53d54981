"""Inductive phase recovery: from counts to a pure-state estimate.

The estimate is assembled level by level.  Amplitudes c_alpha = sqrt(p_alpha)
come from the computational record (small probabilities clamped to exact 0).
At level j the two halves of each length-2^j block differ by one unknown
relative phase delta; every basis of the family contributes one linear
equation

    Re[e^{i delta} X] = rhs,  i.e.  (Re X) cos(delta) - (Im X) sin(delta) = rhs,

on the unknowns (cos delta, sin delta).  The stacked k x 2 system is solved
by least squares and the solution projected radially onto the unit circle,
in closed form in complex numbers: in the system's Gram sums S1, S2 and C
its circle objective is S1/2 + Re(e^{2i delta} S2)/2 - 2 Re(e^{i delta} C) +
sum rhs^2, and its phase is z / |z| for the least-squares point
z = 2 (S1 conj(C) - conj(S2) C) / (S1^2 - |S2|^2) (see solve_phase).
Ill-conditioned systems fall back to intersecting the dominant single
equation with the circle, and the same objective picks one of the two
points.  Merged blocks become the children of the next level, so j = n
yields the full estimate up to an (unobservable) global phase.

Each child block enters later systems with whatever global phase it was
assembled with; the equations are built from the children as produced, so
this is self-consistent.

reconstruct reads at each level only that level's records, L_aj for a =
1..m or every E_a, through one selection of their outcomes, and solves the
level in one batched pass over all its blocks: solve_phase takes the
level's (3, L, k) rows (_level_rows), decides every block's path in one
call and returns the phases as unit complex numbers, which multiply the B
halves as they are; under ambiguity_policy='fail' reconstruct raises
AmbiguityError at the level's first fallback block.  The three estimator
variants differ only in the outcomes they feed one layout: (m, L, s, h)
probabilities, s pivot signs times h tail patterns, are (2, 2^(j-1)) with
extra rows and (1, 1) for the canonical outcome alone (canonical rows;
entangled bases).  The rows need each child's transform under every family
basis a, (m, L, h): U_a^dagger^{x(j-1)} child with extra rows, else its
<-_a|^{x(j-1)} contraction.  These are carried up the levels in one (m, .)
array: a merged block [A; e^{i delta} B] transforms as one rotate_qubit on
its top qubit of [T(A), e^{i delta} T(B)], so each level costs one
rotation, and extra rows cost O(m n 2^n) in all.  build_system returns the
same (3, 1, k) rows for a single block's transforms.  rotate_qubit is
elementwise and each system is summed over its own rows, so a block's
transforms, rows, cond and phase are the same bits alone or in a batch.
Diagnostics keeps each level's solve as arrays (a Level); its (j, beta)
dicts and label lists are built from them on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .bases import (
    ESTIMATION_MODES,
    QubitBasis,
    _entangled_block_offset,
    _require_family_size,
    default_family,
    estimation_basis_ids,
    make_qubit_basis,
    rotate_qubit,
)
from .measurement import CountsRecord, ProbTable, check_records, exact_record, to_empirical
from .states import PureState, _freeze, _is_real, global_phase_normalize, state_to_dict

# Least-squares solutions shorter than this carry no phase direction.
ZERO_SOLUTION_EPS = 1e-15
# Ties in the fallback's pick: of the objective's gap, relative to the block's own terms, and of the cosines.
TIE_EPS = 1e-12
# What an ill-conditioned system does: take the fallback's pick, or raise AmbiguityError.
AMBIGUITY_POLICIES = ("residual_pick", "fail")


class AmbiguityError(RuntimeError):
    """Raised under ambiguity_policy='fail' when a phase system cannot be solved uniquely."""

    def __init__(self, j: int, beta: int, message: str):
        super().__init__(f"phase system (j={j}, beta={beta}): {message}")
        self.j = j
        self.beta = beta


@dataclass(frozen=True)
class ReconstructionOptions:
    """Estimation configuration.

    mode selects which measurement records are consumed: "local" needs the
    product bases (a = 1..m, b = 1..n), "entangled" the ladder bases
    (a = 1..m); both need the computational record.  family defaults to the
    balanced phase family of size m and must match the one the records were
    measured in; its entries are kept as make_qubit_basis reduces them, as
    a counts file holds them.  use_extra_rows (local mode only) feeds every
    outcome of each local basis into the phase systems, the estimator every
    subcommand runs; False keeps the one canonical outcome per block, the only one an
    entangled basis offers.  null_threshold of None picks 0.5/shots for
    sampled records (zero observed counts clamp to a null amplitude) and 0
    for exact ones.
    """

    mode: str = "local"
    m: int = 2
    family: tuple = None
    use_extra_rows: bool = True
    null_threshold: float = None
    cond_threshold: float = 1e6
    ambiguity_policy: str = "residual_pick"

    def __post_init__(self):
        if self.mode not in ESTIMATION_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        _require_family_size(self.m)
        null, cond = self.null_threshold, self.cond_threshold
        if null is not None and not (_is_real(null) and 0 < null < np.inf):
            raise ValueError(f"null_threshold must be a positive finite real number, got {null!r}")
        if not (_is_real(cond) and cond > 0):
            raise ValueError(f"cond_threshold must be a positive real number or inf, got {cond!r}")
        if self.ambiguity_policy not in AMBIGUITY_POLICIES:
            raise ValueError(f"unknown ambiguity_policy {self.ambiguity_policy!r}")
        if self.family is not None:
            if not (isinstance(self.family, (tuple, list)) and all(isinstance(qb, QubitBasis) for qb in self.family)):
                raise ValueError(f"family must be a tuple or list of QubitBasis, got {self.family!r}")
            if len(self.family) < self.m:
                raise ValueError(f"family has {len(self.family)} bases, need m={self.m}")
            fam = []
            for i, qb in enumerate(self.family):
                try:
                    fam.append(make_qubit_basis(qb.u, qb.v, qb.phi))
                except ValueError as e:
                    raise ValueError(f"family entry {i} {qb!r}: {e}") from None
            object.__setattr__(self, "family", tuple(fam))

    def resolved_family(self) -> list[QubitBasis]:
        return list(self.family) if self.family is not None else default_family(self.m)

    def _basis_keys(self, n: int) -> list:
        """str() of each basis a run at n measures, in estimation_basis_ids order.

        Built once per n and kept with these options, as the family's arrays are.
        """
        keys = self.__dict__.setdefault("_keys_by_n", {})
        if n not in keys:
            keys[n] = [str(id) for id in estimation_basis_ids(n, self.m, self.mode)]
        return keys[n]

    @cached_property
    def _family_arrays(self) -> _FamilyArrays:
        """The constants of the m bases reconstruct uses, built on first use and kept with these options."""
        return _FamilyArrays(self.resolved_family()[: self.m])


class Level(NamedTuple):
    """One level's solve: its null blocks, its live blocks and solve_phase's arrays for them.

    nulls and betas are ascending block indices; cond, cos, sin (the unit
    phases' real and imaginary parts) and the fallback / default masks run
    parallel to betas.
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
        cond = {f"{j},{beta}": (v if math.isfinite(v) else "inf") for (j, beta), v in self.conds.items()}
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


def build_system(
    j: int,
    beta: int,
    ta: np.ndarray,
    tb: np.ndarray,
    probs: np.ndarray,
    family: list[QubitBasis],
) -> np.ndarray:
    """The (3, 1, k) rows of block (j, beta)'s phase system, from its children's transforms and its probabilities.

    probs is (m, 2, 2^(j-1)), every outcome of family bases 1..m indexed by
    pivot-sign bit and tail bits (a set bit means -), or (m,), the canonical
    outcome only.  ta and tb are the transforms of the block's two halves
    (childA, childB) for each basis a: with every outcome, (m, 2^(j-1)) holding
    U_a^dagger^{x(j-1)} child, i.e. <W_w|child> for every tail pattern w; with
    the canonical outcome only, (m,) holding <-_a|^{x(j-1)} child.  Both map
    onto _level_rows's one layout as a batch of this one block, the canonical
    outcome as one pivot sign and one tail pattern: (m, 1, 2, 2^(j-1)) or
    (m, 1, 1, 1) probabilities.  Rows run basis by basis, then in outcome
    order; the result is the rows reconstruct solves for that batch.

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
    ta = np.asarray(ta, dtype=np.complex128)
    tb = np.asarray(tb, dtype=np.complex128)
    shape = probs.shape[:1] + probs.shape[2:]
    if ta.shape != shape or tb.shape != shape:
        raise ValueError(f"transforms of block (j={j}, beta={beta}) need shape {shape}, got {ta.shape} and {tb.shape}")
    s, h = probs.shape[1:] or (1, 1)  # the canonical outcome is one pivot sign and one tail pattern
    return _level_rows(ta.reshape(m, 1, h), tb.reshape(m, 1, h), probs.reshape(m, 1, s, h), _FamilyArrays(family[:m]))


def solve_phase(rows: np.ndarray, cond_threshold: float) -> tuple:
    """Every block's (cond, phase, fallback, default_phase), arrays of shape (L,); phase holds the unit e^{i delta}.

    rows is (3, L, k), as _level_rows lays it out: axis 0 holds the two row
    columns and the right-hand side, axis 1 runs over the L blocks.  The
    circle objective of a block is, with x = (cos delta, sin delta),

        |rows x - rhs|^2 = S1/2 + Re(e^{2i delta} S2)/2 - 2 Re(e^{i delta} C) + sum rhs^2,

    in the Gram entries g11, g12, g22 = sum a1 a1, sum a1 a2, sum a2 a2 and
    b1, b2 = sum a1 rhs, sum a2 rhs of its rows (a1, a2, rhs): S1 = g11 + g22,
    S2 = (g11 - g22) - 2i g12 and C = b1 - i b2.  Twice the Gram eigenvalues
    are S1 +- |S2|, so cond = sqrt((S1 + |S2|) / (S1 - |S2|)) (inf at rank < 2)
    and the Gram determinant is det = (S1^2 - |S2|^2) / 4; the unconstrained
    least-squares point is
        z = cos + i sin = 2 (S1 conj(C) - conj(S2) C) / (S1^2 - |S2|^2),
    and the block's phase is z projected radially onto the unit circle, z / |z|.
    Each block's Gram entries are summed over its own contiguous rows, and
    the rest is elementwise, so a block gets the same bits alone or in a batch.

    That closed form stands unless cond is above the threshold, det is <= 0
    (reachable only with cond_threshold=inf) or not finite, or |z| is below
    ZERO_SOLUTION_EPS.  A det <= 0 leaves cond NaN or |z| inf or NaN, and an
    infinite one leaves |z| 0 or NaN, so the test reads cond and |z| alone.
    Under a cond within the threshold, a bad det is solved by np.linalg.lstsq
    instead.  A block whose rows are all exactly zero, or whose solution lies
    within ZERO_SOLUTION_EPS of the origin, pins nothing: it gets the default
    phase (1, 0).  A block with cond above cond_threshold falls back to its
    dominant row a cos + b sin = d (the largest norm, the lowest index on
    ties).  With w = (a + ib) / |(a, b)|
    and t = d / |(a, b)| clamped to [-1, 1] (the nearest point when the line
    misses), the row meets the circle at c0, c1 = w (t +- i h), h = sqrt(1 - t^2),
    where f(c1) - f(c0) = 2 h g for g = t Im(w^2 S2) - 2 Im(w C): the sign of
    g picks the point of smaller residual over all rows.  A |g| within TIE_EPS
    of the block's own terms |t w^2 S2| + 2 |w C| is a tie, whatever the
    rows' scale; ties break toward delta = 0, then toward non-negative sine.
    """
    if rows.shape[2] < 1:
        raise ValueError("empty phase system")
    L = rows.shape[1]
    fallback, default = np.zeros(L, dtype=bool), np.zeros(L, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # gram[j, l, i] = sum over block l's rows of column i times column j (rhs at j = 2); its
        # complex view pairs those columns: g1 = g11 + i g12, g2 = g12 + i g22, c_conj = b1 + i b2
        gram = np.empty((3, L, 2))
        np.einsum("ilk,jlk->ijl", rows[:2], rows, out=gram.transpose(2, 0, 1))
        g1, g2, c_conj = gram.view(np.complex128)[..., 0]
        trace = gram[0, :, 0] + gram[1, :, 1]  # S1
        s2_conj = g1 + 1j * g2  # (g11 - g22) + 2i g12
        lo = np.abs(s2_conj)
        hi, lo = trace + lo, trace - lo  # twice the Gram eigenvalues
        cond = np.sqrt(hi / lo)  # NaN or inf at rank < 2 (lo <= 0): set to inf below
        det4 = hi * lo  # S1^2 - |S2|^2, four times the determinant
        z = trace * c_conj
        z -= s2_conj * c_conj.conj()
        z *= 2.0 / det4
        r = np.abs(z)
        phase = z / r
        # a det <= 0 leaves cond NaN or r inf or NaN, an infinite one r 0 or NaN: cond and r decide
        ok = (cond <= cond_threshold) & (r >= ZERO_SOLUTION_EPS) & (r < np.inf)
        if np.count_nonzero(ok) == L:
            return cond, phase, fallback, default
        rest = np.flatnonzero(~ok)
        cond[rest[~(lo[rest] > 0.0)]] = np.inf
        live = rows[:2, rest].any(axis=(0, 2))
        within = cond[rest] <= cond_threshold
        ls, ill = rest[live & within], rest[live & ~within]
        default[rest[~live]] = True
        for i in ls.tolist():
            if not (det4[i] > 0.0 and det4[i] < np.inf):
                x, y = np.linalg.lstsq(rows[:2, i].T, rows[2, i], rcond=None)[0]
                z[i] = complex(x, y)
        r = np.abs(z[ls])
        phase[ls] = z[ls] / r
        default[ls[r < ZERO_SOLUTION_EPS]] = True
        if ill.size:
            fallback[ill] = True
            # the dominant row meets the circle at w (t +- i h); each part of t w and i h w is one real product
            dom = np.argmax(rows[0, ill] * rows[0, ill] + rows[1, ill] * rows[1, ill], axis=1)
            a, b, d = rows[:, ill, dom]
            norm = np.hypot(a, b)
            w, t = a / norm + 1j * (b / norm), np.clip(d / norm, -1.0, 1.0)
            tw, ihw = t * w, 1j * np.sqrt(1.0 - t * t) * w
            c0, c1 = tw + ihw, tw - ihw
            # f(c1) - f(c0) = 2 h g, with S2 = conj(s2_conj) and C = conj(c_conj)
            w2s2, wc = w * w * s2_conj[ill].conj(), w * c_conj[ill].conj()
            g = t * w2s2.imag - 2.0 * wc.imag
            tie = np.abs(g) <= TIE_EPS * (np.abs(t * w2s2) + 2.0 * np.abs(wc))
            by_cos = (c1.real > c0.real + TIE_EPS) | ((np.abs(c1.real - c0.real) <= TIE_EPS) & (c1.imag > c0.imag))
            phase[ill] = np.where(np.where(tie, by_cos, g < 0), c1, c0)
    phase[default] = 1.0
    return cond, phase, fallback, default


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


def _level_rows(ta: np.ndarray, tb: np.ndarray, p: np.ndarray, fam: _FamilyArrays) -> np.ndarray:
    """Row columns 0, 1 and rhs (axis 0) of every block's phase system, shape (3, L, k).

    p holds the outcome probabilities per family basis and block, (m, L, s, h):
    s pivot signs times h tail patterns, (2, 2^(j-1)) for every outcome of a
    local basis, (1, 1) for the canonical outcome (pivot +, all-minus tail)
    alone.  ta and tb hold the transforms of each block's two children, (m, L, h)
    or one row (1, L, h) shared by all bases (see build_system).  Each block's
    k = m s h rows run basis by basis, then in outcome order, and lie
    contiguous in memory: they are written straight into that layout.
    """
    m, L, s = p.shape[:3]
    rows = np.empty((3, L, m) + p.shape[2:])
    out = rows.swapaxes(1, 2)  # (3, m, L, s, h), shaped like p
    a, b = fam.ca[:, None, :s, None] * ta[:, :, None, :], fam.cb[:, None, :s, None] * tb[:, :, None, :]
    x = np.conj(a)  # X = conj(A) B: row (2 Re X, -2 Im X), rhs p - |A|^2 - |B|^2
    x *= b
    np.multiply(x.real, 2.0, out=out[0])
    np.multiply(x.imag, -2.0, out=out[1])
    np.subtract(p, np.abs(a) ** 2, out=out[2])
    out[2] -= np.abs(b) ** 2
    canonical = out[:, :, :, 0, -1]  # pivot +, all-minus tail
    canonical /= fam.two_uv
    return rows.reshape(3, L, -1)


def reconstruct(records: list[CountsRecord], n: int, opts: ReconstructionOptions) -> tuple[PureState, Diagnostics]:
    """Estimate the n-qubit state from one record per required basis.

    The records must pass check_records and cover every basis the options
    read.  Level j = 1..n: split each length-2^j block into its two
    children, solve the phase system from the level's measurement records,
    and merge.  Blocks with a null child produce no system (the surviving
    child embeds with phase 0).  The estimate is renormalized and
    global-phase normalized; the whole procedure is deterministic.

    Level j reads only its own m records, L_aj (a = 1..m) or every E_a, each
    through one selection of its outcomes: the whole table with extra rows,
    the canonical outcomes 2^j beta + 2^(j-1) - 1 with canonical rows, level
    j's blocks _entangled_block_offset(n, j) + beta in entangled mode.  Each
    level is one batched pass over all its live blocks: _level_rows
    assembles every block's rows at once, and one solve_phase call returns
    every block's cond and phase and decides its least squares, fallback or
    default phase.  Under ambiguity_policy='fail' the level's first fallback
    block raises AmbiguityError instead.  The rows are built from the children's
    transforms, carried up the levels: once a level is solved, its B halves
    take their phases, as the unit complex numbers the solve returns, and
    one rotate_qubit on the new top qubit turns the merged blocks into the
    next level's children transforms.  Diagnostics keep each level's arrays.
    """
    by_id = check_records(records, n)
    keys = opts._basis_keys(n)  # computational, then a-major: L_ab at (a-1)*n + (b-1), E_a at a-1
    missing = [id for id in keys if id not in by_id]
    if missing:
        raise ValueError(f"missing record for basis {missing[0]}")
    comp, *recs = [by_id[id] for id in keys]

    diag = Diagnostics()
    amps = amplitudes_from_counts(comp, n, opts.null_threshold)
    work = amps.astype(np.complex128)
    fam = opts._family_arrays
    extra = opts.mode == "local" and opts.use_extra_rows
    shots = np.array([rec.shots or 1 for rec in recs], dtype=np.float64)[:, None]  # exact records (shots 0) as they are
    # The level's children transforms, (m, 2^(n-j+1) h) for h tail patterns.  At j = 1 a child is
    # one amplitude, its own transform, so work itself serves every basis.
    carry = work[None]
    # whether each child of the level holds a nonzero amplitude; None while every one does
    occupied = None if amps.all() else amps != 0
    for j in range(1, n + 1):
        half, L = 1 << (j - 1), 1 << (n - j)
        t = carry.reshape(carry.shape[0], L, 2, -1)
        view = work.reshape(L, 2, half)
        if occupied is None:
            nulls, betas = np.empty(0, dtype=np.intp), np.arange(L)
        else:
            pair = occupied.reshape(L, 2)
            occupied, both = pair.any(axis=1), pair.all(axis=1)
            nulls, betas = np.flatnonzero(~both), np.flatnonzero(both)
        # live picks the level's live blocks: a slice unless the level holds a null block, so a level
        # whose blocks are all live gathers nothing
        live = betas if nulls.size else slice(None)
        # The variant, in one place: the level's m records, the one selection of outcomes read from
        # each, and the row that carries the transforms
        if opts.mode == "entangled":  # level j's blocks of every E_a
            off = _entangled_block_offset(n, j)
            level, outcomes, rotation = slice(None), slice(off, off + L), fam.minus_row
        elif extra:  # every outcome of L_aj
            level, outcomes, rotation = slice(j - 1, None, n), slice(None), fam.u_dagger
        else:  # the canonical outcomes of L_aj (pivot +, all-minus tail), at 2^j beta + 2^(j-1) - 1
            level, outcomes, rotation = slice(j - 1, None, n), slice(half - 1, None, 2 * half), fam.minus_row
        if betas.size:
            p = np.array([rec.counts[outcomes] for rec in recs[level]]) / shots[level]
            p = p.reshape((-1, L) + ((2, half) if extra else (1, 1)))
            rows = _level_rows(t[:, live, 0], t[:, live, 1], p[:, live], fam)
            cond, phase, fallback, default = solve_phase(rows, opts.cond_threshold)
            if opts.ambiguity_policy == "fail" and fallback.any():
                i = fallback.argmax()  # the level's first ill-conditioned block
                raise AmbiguityError(j, int(betas[i]), f"condition number {cond[i]:.3g} above threshold")
            view[live, 1] *= phase[:, None]
            if j > 1:  # at j = 1 carry is a view of work
                t[:, live, 1] *= phase[:, None]
        else:
            cond, phase = np.empty(0), np.empty(0, dtype=np.complex128)
            fallback = default = np.zeros(0, dtype=bool)
        diag.levels.append(Level(j, nulls, betas, cond, phase.real, phase.imag, fallback, default))
        if j < n:  # the block's top qubit sits just above its h tail patterns
            carry = rotate_qubit(carry, t.shape[3].bit_length() - 1, rotation)
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
