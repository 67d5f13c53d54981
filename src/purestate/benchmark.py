"""Monte Carlo benchmark runs, bootstrap error bars, and a grid-search cross-check.

A benchmark trial draws (or prepares) a state, simulates all required basis
measurements at the configured shot count, reconstructs, and records the
fidelity against the known input.  Per-trial RNG streams are derived from the
master seed by key splitting (state stream key (n, trial), basis streams
(n, trial, basis index)), so any single trial can be reproduced in isolation
and trial order never matters.

Results are emitted as a tidy CSV (one row per trial) plus a JSON summary
with per-n medians, means and interquartile ranges; both the median and the
mean are reported since either may be quoted as the headline statistic.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .bases import default_family, estimation_basis_ids
from .measurement import (
    R_ENTANGLING,
    R_LOCAL,
    CountsData,
    CountsRecord,
    check_noise_weight,
    compose_lambdas,
    gate_noise_lambda,
    sampling_distribution,
    seeded_rng,
    simulate_counts,
    to_empirical,
)
from .reconstruction import ReconstructionOptions, reconstruct
from .states import (
    MEMORY_BOUND_BYTES,
    PureState,
    _freeze,
    _require_int,
    exceeds_memory_bound,
    fidelity,
    global_phase_normalize,
    haar_random,
    named_state,
    random_separable,
)

STATE_FAMILIES = ("haar", "separable", "phi1", "phi2", "phi3", "phi4", "ghz")


def _system_size(n) -> int:
    """n as an int when it is a whole real number >= 1 (so 2.0 is 2); bools, strings and fractions are rejected."""
    whole = isinstance(n, numbers.Integral) or (isinstance(n, numbers.Real) and float(n).is_integer())
    if isinstance(n, bool) or not whole or n < 1:
        raise ValueError(f"n_range entries must be whole numbers >= 1, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class BenchConfig:
    n_range: tuple
    m: int = 2
    mode: str = "local"
    shots: int = 8192
    trials: int = 100
    state_family: str = "haar"
    seed: int = 0
    noise_lambda: float = None

    def __post_init__(self):
        object.__setattr__(self, "n_range", tuple(_system_size(n) for n in self.n_range))
        if not self.n_range:
            raise ValueError("n_range must be non-empty")
        if _require_int(self.trials, "trials") < 1 or _require_int(self.shots, "shots") < 1:
            raise ValueError("trials and shots must be >= 1")
        if _require_int(self.m, "m") < 2:
            raise ValueError(f"m={self.m}: the basis family needs at least 2 bases")
        if self.noise_lambda is not None:
            check_noise_weight(self.noise_lambda, "noise_lambda")
        if self.state_family not in STATE_FAMILIES:
            raise ValueError(f"unknown state family {self.state_family!r}")
        if self.mode not in ("local", "entangled"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    fidelity: float
    cond_max: float
    fallbacks: int


@dataclass
class BenchResult:
    config: BenchConfig
    rows: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def fidelities(self, n: int) -> np.ndarray:
        return np.array([r.fidelity for r in self.rows if r.n == n])

    def summary(self) -> dict:
        per_n = {}
        for n in self.config.n_range:
            f = self.fidelities(n)
            rows_n = [r for r in self.rows if r.n == n]
            finite = [r.cond_max for r in rows_n if np.isfinite(r.cond_max)]
            per_n[str(n)] = {
                "trials": int(f.size),
                "median": float(np.median(f)),
                "mean": float(np.mean(f)),
                "q25": float(np.percentile(f, 25)),
                "q75": float(np.percentile(f, 75)),
                "fallbacks_total": int(sum(r.fallbacks for r in rows_n)),
                "cond_max": (max(finite) if finite else None),
            }
        return {
            "mode": self.config.mode,
            "m": self.config.m,
            "shots": self.config.shots,
            "state_family": self.config.state_family,
            "seed": self.config.seed,
            "noise_lambda": self.config.noise_lambda,
            "runtime_seconds": self.runtime_seconds,
            "per_n": per_n,
        }


def make_bench_state(kind: str, n: int, rng: np.random.Generator) -> PureState:
    k = kind.lower()
    if k == "haar":
        return haar_random(n, rng)
    if k == "separable":
        return random_separable(n, rng)
    if k == "ghz":
        k = "phi4"
    return named_state(k.capitalize(), n)


def prep_gate_counts(kind: str, n: int) -> tuple[int, int]:
    """(single-qubit, entangling) gate counts of the standard preparation circuit."""
    k = kind.lower()
    if k in ("phi1", "phi2"):
        return n, 0
    if k == "phi3":
        pairs = n // 2
        return pairs, pairs
    if k in ("phi4", "ghz"):
        if n < 2:
            raise ValueError("the preparation needs n >= 2")
        return 1, n - 1
    raise ValueError(f"no preparation circuit for state family {kind!r}")


def prep_noise_lambda(kind: str, n: int, r_local: float = R_LOCAL, r_entangling: float = R_ENTANGLING) -> float:
    """White-noise weight of the whole preparation circuit, composed gate by gate."""
    n1, n2 = prep_gate_counts(kind, n)
    lam1 = gate_noise_lambda(n, r_local)
    lam2 = gate_noise_lambda(n, r_entangling)
    return compose_lambdas([lam1] * n1 + [lam2] * n2)


def run_trial(cfg: BenchConfig, n: int, trial: int) -> tuple[TrialRow, PureState, PureState]:
    """One benchmark trial; returns its row plus (truth, estimate) for callers that need them.

    Local-mode trials feed every outcome of each product basis into the phase
    systems (2^j equations per basis at level j): the bases are measured in
    full anyway, and keeping only the one canonical outcome per block makes a
    single noise-swamped low-level system poison all its ancestor merges.
    Entangled bases offer one outcome per block, so there the systems stay at
    m equations and the low-m medians degrade accordingly.
    """
    state_rng = seeded_rng(cfg.seed, (n, trial))
    state = make_bench_state(cfg.state_family, n, state_rng)
    family = default_family(cfg.m)
    ids = estimation_basis_ids(n, cfg.m, cfg.mode)
    data = simulate_counts(
        state,
        ids,
        family,
        cfg.shots,
        seed=cfg.seed,
        seed_key=(n, trial),
        noise_lambda=cfg.noise_lambda or 0.0,
    )
    opts = ReconstructionOptions(
        mode=cfg.mode, m=cfg.m, family=family, use_extra_rows=(cfg.mode == "local")
    )
    estimate, diag = reconstruct(data.records, n, opts)
    row = TrialRow(
        n=n,
        trial=trial,
        fidelity=fidelity(state, estimate),
        cond_max=diag.cond_max,
        fallbacks=diag.n_fallbacks,
    )
    return row, state, estimate


def bench_run(cfg: BenchConfig, memory_bound_bytes: int = MEMORY_BOUND_BYTES) -> BenchResult:
    """Run the full trial grid; deterministic for a fixed config."""
    for n in cfg.n_range:
        if exceeds_memory_bound(n, memory_bound_bytes):
            raise ValueError(f"n={n} exceeds the configured memory bound")
    t0 = time.perf_counter()
    rows = []
    for n in cfg.n_range:
        for trial in range(cfg.trials):
            row, _, _ = run_trial(cfg, n, trial)
            rows.append(row)
    rows.sort(key=lambda r: (r.n, r.trial))
    return BenchResult(config=cfg, rows=rows, runtime_seconds=time.perf_counter() - t0)


def write_rows_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "trial", "fidelity", "cond_max", "fallbacks"])
        for r in rows:
            w.writerow([r.n, r.trial, repr(r.fidelity), repr(r.cond_max), r.fallbacks])


def read_rows_csv(path: str) -> list:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
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


def write_summary_json(path: str, result: BenchResult) -> None:
    with open(path, "w") as fh:
        json.dump(result.summary(), fh, indent=1)
        fh.write("\n")


def bootstrap_ci(
    records: list,
    n: int,
    opts: ReconstructionOptions,
    target: PureState,
    B: int,
    seed: int,
) -> tuple[float, float, float]:
    """Bootstrap fidelity estimate against the target with a 16th-84th percentile band.

    Each resample redraws every record's counts multinomially from its own
    empirical distribution and reconstructs from scratch; exact-probability
    records (shots <= 0) are rejected before the first draw.  Each record's
    sampling_distribution is built once per call, so every draw is the one
    sample_counts would make.  The point estimate is the median of the
    resampled fidelities, so it always sits inside the band; the plug-in
    value is available through reconstruct + fidelity.
    """
    if B < 100:
        raise ValueError("need at least 100 bootstrap resamples")
    if any(rec.shots <= 0 for rec in records):
        raise ValueError("cannot bootstrap exact-probability records")
    probs = [sampling_distribution(to_empirical(rec)) for rec in records]
    fids = np.empty(B)
    for b in range(B):
        rng = seeded_rng(seed, (b,))
        resampled = [
            CountsRecord(basis=rec.basis, shots=rec.shots, counts=rng.multinomial(rec.shots, p))
            for rec, p in zip(records, probs)
        ]
        est_b, _ = reconstruct(resampled, n, opts)
        fids[b] = fidelity(target, est_b)
    lo, point, hi = np.percentile(fids, [16.0, 50.0, 84.0])
    return float(point), float(lo), float(hi)


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
    until the lattice step falls below 2*pi/resolution.  Intended as a slow
    cross-check for tiny systems, not as an estimator in its own right.
    """
    from .bases import basis_states
    from .reconstruction import amplitudes_from_counts

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
