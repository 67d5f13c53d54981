"""Correctness checks on purestate outputs, computed independently of the package.

Each check raises CheckFailed.  None compares against a stored copy of earlier
output: the references are properties the method must have (unit norm, unit
phases, one system or null branch per block, counts that sum to their shots)
or quantities recomputed here from raw numpy arrays (fidelities, percentiles,
Born probabilities, the Haar draw behind ``purestate simulate``).
"""

from __future__ import annotations

import math

import numpy as np

NORM_TOL = 1e-12
PHASE_TOL = 1e-12
FIDELITY_TOL = 1e-12
BORN_TOL = 1e-12
BAND_TOL = 1e-12
EXACT_FIDELITY_MIN = 1.0 - 1e-8


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def fidelity_raw(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 on two raw amplitude arrays."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def check_records(records, shots: int = None) -> None:
    """Every sampled record holds non-negative whole counts summing to its shots."""
    for rec in records:
        counts = np.asarray(rec.counts)
        if shots is not None and rec.shots != shots:
            raise CheckFailed(f"record {rec.basis} has {rec.shots} shots, expected {shots}")
        if rec.shots == 0:
            continue
        if counts.dtype.kind not in "iu" or (counts < 0).any():
            raise CheckFailed(f"record {rec.basis} holds counts that are not non-negative integers")
        total = int(counts.sum())
        if total != rec.shots:
            raise CheckFailed(f"record {rec.basis} counts sum to {total}, not its {rec.shots} shots")


def check_reconstruction(est_amps: np.ndarray, diag, n: int, records, shots: int = None) -> None:
    """The invariants every reconstruction must satisfy."""
    norm = float(np.linalg.norm(est_amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise CheckFailed(f"estimate norm {norm!r} is not 1 within {NORM_TOL}")
    for key, (c, s) in diag.phases.items():
        r = math.hypot(c, s)
        if abs(r - 1.0) > PHASE_TOL:
            raise CheckFailed(f"phase of system {key} has modulus {r!r}, not 1 within {PHASE_TOL}")
    blocks = len(diag.conds) + len(diag.null_branches)
    if blocks != (1 << n) - 1:
        raise CheckFailed(f"{len(diag.conds)} systems + {len(diag.null_branches)} null branches != 2^{n} - 1")
    check_records(records, shots)


def check_fidelity(reported: float, truth_amps: np.ndarray, est_amps: np.ndarray) -> None:
    """The program's fidelity agrees with |<truth|estimate>|^2 recomputed here."""
    f = fidelity_raw(truth_amps, est_amps)
    if not abs(f - reported) <= FIDELITY_TOL:
        raise CheckFailed(f"reported fidelity {reported!r} != recomputed {f!r}")


def check_exact_recovery(truth_amps: np.ndarray, est_amps: np.ndarray) -> None:
    f = fidelity_raw(truth_amps, est_amps)
    if not f >= EXACT_FIDELITY_MIN:
        raise CheckFailed(f"exact-probability data gave fidelity {f!r} < {EXACT_FIDELITY_MIN}")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the 'linear' definition), written out by hand."""
    s = sorted(float(v) for v in values)
    pos = q / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_band(point: float, lo: float, hi: float) -> None:
    """A bootstrap band is ordered and lies inside (0, 1]."""
    if not 0.0 < lo <= point <= hi <= 1.0:
        raise CheckFailed(f"bootstrap band (lo={lo!r}, point={point!r}, hi={hi!r}) is not 0 < lo <= point <= hi <= 1")


def check_band_matches(fids, point: float, lo: float, hi: float) -> None:
    """The band equals the 16/50/84th percentiles of the resample fidelities recomputed here."""
    for name, q, got in (("lo", 16.0, lo), ("point", 50.0, point), ("hi", 84.0, hi)):
        want = percentile(fids, q)
        if not abs(want - got) <= BAND_TOL:
            raise CheckFailed(f"bootstrap {name} {got!r} != percentile {q} of the resample fidelities {want!r}")


def _kets(u: float, v: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([u, v * e]), np.array([v, -u * e])


def own_probs(amps: np.ndarray, n: int, tag: str, b: int, basis_params) -> np.ndarray:
    """Outcome distribution of one basis, computed without the package.

    computational: |amps|^2.  local (b rotated qubits): U_a^dagger applied to
    qubits 0..b-1 by tensor contraction, with U_a = [|+_a>, |-_a>].
    entangled: |<beta|<+_a|<-_a|^(j-1) | block>|^2 level by level, then the
    all-minus state, in the package's documented outcome order.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if tag == "computational":
        return np.abs(amps) ** 2
    plus, minus = _kets(*basis_params)
    if tag == "local":
        u_dag = np.conj(np.column_stack([plus, minus])).T
        t = amps.reshape((2,) * n)
        for q in range(b):
            axis = n - 1 - q  # qubit 0 is the least significant index bit
            t = np.moveaxis(np.tensordot(u_dag, t, axes=([1], [axis])), 0, axis)
        return np.abs(t.reshape(-1)) ** 2
    out = []
    tail = np.ones(1, dtype=np.complex128)  # |-_a>^(j-1) on qubits j-2 .. 0
    for j in range(1, n + 1):
        blocks = amps.reshape(1 << (n - j), 1 << j)
        out.append(np.abs(blocks @ np.conj(np.kron(plus, tail))) ** 2)
        tail = np.kron(minus, tail)
    out.append(np.array([abs(np.vdot(tail, amps)) ** 2]))
    return np.concatenate(out)


def check_born(got: np.ndarray, want: np.ndarray, label: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if not err <= BORN_TOL:
        raise CheckFailed(f"born_probs for {label} differs from the direct computation by {err!r}")


def haar_draw(seed: int, key: tuple, n: int) -> np.ndarray:
    """A Haar state drawn as ``purestate simulate`` documents it: PCG64 keyed by (seed, key),
    2^n real then 2^n imaginary standard normals, normalized."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def check_counts_round_trip(read, written) -> None:
    """Counts data read back equals what was written: n, family and every record, bit for bit."""
    if read.n != written.n:
        raise CheckFailed(f"read n={read.n}, wrote n={written.n}")
    fam_r = [(qb.u, qb.v, qb.phi) for qb in read.family]
    fam_w = [(qb.u, qb.v, qb.phi) for qb in written.family]
    if fam_r != fam_w:
        raise CheckFailed(f"family read back {fam_r} differs from the one written {fam_w}")
    if len(read.records) != len(written.records):
        raise CheckFailed(f"read {len(read.records)} records, wrote {len(written.records)}")
    for r, w in zip(read.records, written.records):
        if r.basis != w.basis or r.shots != w.shots:
            raise CheckFailed(f"record {r.basis}/{r.shots} read back where {w.basis}/{w.shots} was written")
        if not np.array_equal(np.asarray(r.counts), np.asarray(w.counts)):
            raise CheckFailed(f"counts of record {w.basis} changed in the round trip")
    check_records(read.records)


def classical_fidelity(counts: np.ndarray, shots: int, probs: np.ndarray) -> float:
    """(sum_k sqrt(counts_k / shots * p_k))^2 between a counts vector and its exact distribution."""
    return float(np.sum(np.sqrt(np.asarray(counts, dtype=np.float64) / shots * probs)) ** 2)
