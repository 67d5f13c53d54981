"""Measurement simulation: Born probabilities, white noise, finite-shot sampling, counts I/O.

Probabilities are computed by running the basis-change circuit on the
statevector (single-qubit rotations for local bases, the controlled ladder
for entangled ones) and reading squared magnitudes, so the outcome index of a
probability entry is exactly the bit pattern the circuit produces.  A slower
projector-by-projector path is kept as an independent cross-check.

Sampling uses numpy's ``Generator.multinomial`` (PCG64), which draws the
outcome vector by sequential binomial conditioning in C.  Streams are pinned
by deriving one ``SeedSequence`` per (master seed, key tuple) so any record
can be regenerated in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisId,
    QubitBasis,
    basis_id_from_dict,
    basis_id_to_dict,
    basis_states,
    circuit_gates,
    apply_gates,
    entangled_index_map,
    family_from_dicts,
    family_to_dicts,
)
from .states import PureState, _require_int

# Depolarizing-noise rates per gate: single-qubit vs entangling.
R_LOCAL = 5e-4
R_ENTANGLING = 2e-2


@dataclass(frozen=True)
class ProbTable:
    """Outcome distribution of one basis measurement on one state."""

    n: int
    basis: BasisId
    probs: np.ndarray


@dataclass(frozen=True)
class CountsRecord:
    """Observed outcome counts for one basis; ``counts[k]`` indexed like the basis outcomes."""

    basis: BasisId
    shots: int
    counts: np.ndarray


@dataclass(frozen=True)
class CountsData:
    """A full measurement data set: system size, the basis family, one record per basis."""

    n: int
    family: list
    records: list


def born_probs(state: PureState, id: BasisId, family: list[QubitBasis]) -> ProbTable:
    """Outcome probabilities via the basis-change circuit (fast path)."""
    gates = circuit_gates(id, state.n, family)
    out = apply_gates(state.amps, state.n, gates) if gates else state.amps
    p = np.abs(out) ** 2
    if id.tag == "entangled":
        p = p[entangled_index_map(state.n)]
    return ProbTable(n=state.n, basis=id, probs=p)


def born_probs_naive(state: PureState, id: BasisId, family: list[QubitBasis]) -> ProbTable:
    """Outcome probabilities by explicit projection onto each basis state (cross-check path)."""
    p = np.array([abs(np.vdot(b.amps, state.amps)) ** 2 for b in basis_states(state.n, id, family)])
    return ProbTable(n=state.n, basis=id, probs=p)


def mix_white_noise(table: ProbTable, lam: float) -> ProbTable:
    """(1 - lam) * p + lam / 2^n: the outcome distribution of a white-noise-mixed state.

    Valid because the maximally mixed state assigns 1/2^n to every outcome of
    every orthonormal basis.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise weight {lam} outside [0, 1]")
    dim = 1 << table.n
    return ProbTable(n=table.n, basis=table.basis, probs=(1.0 - lam) * table.probs + lam / dim)


def gate_noise_lambda(n: int, r: float) -> float:
    """White-noise weight 2^n r / (2^n - 1) contributed by one gate of error rate r."""
    dim = 1 << n
    return dim * r / (dim - 1)


def compose_lambdas(lams) -> float:
    """Total white-noise weight of a gate sequence: 1 - prod(1 - lam_g)."""
    keep = 1.0
    for lam in lams:
        keep *= 1.0 - lam
    return 1.0 - keep


def seeded_rng(master_seed: int, key: tuple = ()) -> np.random.Generator:
    """PCG64 stream pinned to (master seed, key); identical inputs give identical draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=tuple(key))))


def sample_counts(table: ProbTable, shots: int, rng: np.random.Generator) -> CountsRecord:
    """Multinomial draw of ``shots`` outcomes from a probability table."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    p = np.clip(table.probs, 0.0, None)
    p = p / p.sum()
    counts = rng.multinomial(shots, p)
    return CountsRecord(basis=table.basis, shots=shots, counts=counts)


def exact_record(table: ProbTable, shots: int = 0) -> CountsRecord:
    """Infinite-statistics stand-in: stores probabilities, shots = 0 marks it exact."""
    return CountsRecord(basis=table.basis, shots=shots, counts=np.array(table.probs, dtype=np.float64))


def to_empirical(record: CountsRecord) -> np.ndarray:
    """Empirical outcome distribution counts / shots (or the stored exact one)."""
    if record.shots == 0:
        return np.asarray(record.counts, dtype=np.float64)
    return np.asarray(record.counts, dtype=np.float64) / record.shots


def simulate_counts(
    state: PureState,
    ids: list[BasisId],
    family: list[QubitBasis],
    shots: int,
    seed: int,
    seed_key: tuple = (),
    noise_lambda: float = 0.0,
) -> CountsData:
    """Measure ``shots`` copies in every listed basis and collect the records.

    Each basis gets its own pinned RNG stream keyed by (*seed_key, basis
    position), so appending bases never perturbs earlier records.
    """
    records = []
    for idx, id in enumerate(ids):
        table = born_probs(state, id, family)
        if noise_lambda > 0.0:
            table = mix_white_noise(table, noise_lambda)
        rng = seeded_rng(seed, (*seed_key, idx))
        records.append(sample_counts(table, shots, rng))
    return CountsData(n=state.n, family=list(family), records=records)


def _bitstring(k: int, n: int) -> str:
    return format(k, f"0{n}b")


def counts_to_dict(record: CountsRecord, n: int) -> dict:
    """JSON form of one record; zero-count outcomes are omitted.

    Bitstring keys read qubit n-1 leftmost, matching the tensor-product order
    used everywhere else.
    """
    if record.shots == 0:
        raise ValueError("exact probability records are not serialized as counts")
    vec = np.asarray(record.counts)
    nz = np.flatnonzero(vec)
    counts = {_bitstring(k, n): int(c) for k, c in zip(nz.tolist(), vec[nz].tolist())}
    return {"basis": basis_id_to_dict(record.basis), "shots": int(record.shots), "counts": counts}


def counts_from_dict(obj: dict, n: int) -> CountsRecord:
    basis = basis_id_from_dict(obj["basis"])
    shots = _require_int(obj["shots"], "shots")
    if shots <= 0:
        raise ValueError(f"record for basis {basis} has non-positive shots {shots}")
    vec = np.zeros(1 << n, dtype=np.int64)
    total = 0
    for key, c in obj["counts"].items():
        if len(key) != n or set(key) - {"0", "1"}:
            raise ValueError(f"bad outcome bitstring {key!r} for n={n}")
        if type(c) is not int or c < 0:
            raise ValueError(f"count {c!r} for outcome {key!r} is not a non-negative integer")
        k = int(key, 2)
        if vec[k]:
            raise ValueError(f"duplicate outcome {key!r}")
        vec[k] = c
        total += c
    if total != shots:
        raise ValueError(f"counts sum {total} does not match shots {shots}")
    return CountsRecord(basis=basis, shots=shots, counts=vec)


def counts_data_to_dict(data: CountsData) -> dict:
    return {
        "n": data.n,
        "family": family_to_dicts(data.family),
        "records": [counts_to_dict(r, data.n) for r in data.records],
    }


def counts_data_from_dict(obj: dict) -> CountsData:
    n = _require_int(obj["n"], "n")
    if n < 1:
        raise ValueError(f"bad system size n={n}")
    family = family_from_dicts(obj["family"])
    records = [counts_from_dict(r, n) for r in obj["records"]]
    seen = set()
    for rec in records:
        key = str(rec.basis)
        if key in seen:
            raise ValueError(f"duplicate record for basis {key}")
        seen.add(key)
    return CountsData(n=n, family=family, records=records)


def write_counts(path: str, data: CountsData) -> None:
    with open(path, "w") as fh:
        json.dump(counts_data_to_dict(data), fh, indent=1)
        fh.write("\n")


def read_counts(path: str) -> CountsData:
    with open(path) as fh:
        return counts_data_from_dict(json.load(fh))
