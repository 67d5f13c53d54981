"""Measurement simulation: Born probabilities, white noise, finite-shot sampling, counts I/O.

Local-basis probabilities are computed by running the basis-change circuit
(single-qubit U_a^dagger rotations) on the statevector and reading squared
magnitudes, so the outcome index of a probability entry is exactly the bit
pattern the circuit produces.  A local basis local:a:b listed right after
local:a:(b-1) continues from that basis's rotated vector with one more gate.
Entangled-basis probabilities come from the one-qubit contraction that
reconstruction carries up its levels: at each level one U_a^dagger on the
carried <-_a|^{j-1}|psi>, for every listed family basis at once.  That is the
arithmetic of the controlled ladder, which stays the circuit that measures
them (``circuit_gates``), so the tables equal the ladder's bit for bit.  A
slower projector-by-projector path is kept as an independent cross-check.

Sampling uses numpy's ``Generator.multinomial`` (PCG64), which draws the
outcome vector by sequential binomial conditioning in C.  Streams are pinned
by deriving one ``SeedSequence`` per (master seed, key tuple) so any record
can be regenerated in isolation; the master seed must be a non-negative
integer, since ``None`` would draw fresh OS entropy on every call.
``sample_tables`` is the one loop that draws a list of tables, one keyed
stream each: ``simulate_counts`` and the benchmark's trials both go through it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisId,
    QubitBasis,
    _check_id,
    apply_gates,
    basis_id_from_dict,
    basis_id_to_dict,
    basis_states,
    circuit_gates,
    family_from_dicts,
    family_to_dicts,
    rotate_qubit,
)
from .states import PureState, _require_int, _require_json, _unique_keys, exceeds_memory_bound

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


def _chains(ids: list[BasisId]) -> list[list[BasisId]]:
    """Split ids into runs local:a:b, local:a:(b+1), ...; every other id is a run of its own.

    A run grows only past local:a:b with b >= 1, so when its last id is valid
    (same a, b <= n) every id in it is.
    """
    runs = []
    for id in ids:
        prev = runs[-1][-1] if runs else None
        if prev is not None and id.tag == prev.tag == "local" and id.a == prev.a and id.b == prev.b + 1 >= 2:
            runs[-1].append(id)
        else:
            runs.append([id])
    return runs


def _entangled_tables(state: PureState, ids: list[BasisId], family: list[QubitBasis]) -> dict:
    """a -> outcome probabilities of entangled:a, for every entangled id in ids, from one pass.

    A level-j outcome is |<beta|<+_a|<-_a|^{j-1}|psi>|^2.  Level by level,
    one rotate_qubit on qubit 0 of the carried <-_a|^{j-1}|psi>, for every
    listed a at once, gives the <+_a| row, whose squares are the level's
    outcomes in outcome order, and the <-_a| row, carried to the next level;
    after level n the carry is the all-minus amplitude.  Ladder gate j-1
    rotates exactly the slice the carry holds, with the same arithmetic, so
    every table equals the circuit's bit for bit.  U_a^dagger goes in as two
    r = 1 matrices on their own axis, so each row comes out contiguous: at
    q = 0 numpy runs that as long loops over the blocks, about twice as fast
    as the interleaved r = 2 output.
    """
    n = state.n
    for id in ids:
        if id.tag == "entangled":
            _check_id(id, n, len(family))
    ent_as = list(dict.fromkeys(id.a for id in ids if id.tag == "entangled"))
    if not ent_as:
        return {}
    rows = np.stack([family[a - 1].u_dagger for a in ent_as])[:, :, None, :]
    probs = np.empty((len(ent_as), 1 << n))
    carry, off = state.amps[None, None], 0
    for _ in range(n):
        plus_minus = rotate_qubit(carry, 0, rows)
        size = plus_minus.shape[-1]
        probs[:, off : off + size] = np.abs(plus_minus[:, 0]) ** 2
        carry, off = plus_minus[:, 1:], off + size
    probs[:, off] = np.abs(carry[:, 0, 0]) ** 2
    return dict(zip(ent_as, probs))


def born_tables(state: PureState, ids: list[BasisId], family: list[QubitBasis]):
    """Yield the outcome probabilities of each basis in ids, in order.

    Along a run local:a:b, local:a:(b+1), ... the rotated vector of one basis
    is the start of the next, which adds only the gate on qubit b.  The gates
    and their order are those of a from-scratch run, so every table is
    bit-identical to one computed alone.  ``circuit_gates`` is asked once per
    run, for its last basis: the gates it returns are the gates applied.

    Every entangled basis in ids comes from one contraction pass over the
    family bases they name (``_entangled_tables``), the same <-_a|
    contraction ``reconstruct`` carries up its levels; the controlled ladder
    of ``circuit_gates`` stays the circuit that measures them.
    """
    n = state.n
    entangled = _entangled_tables(state, ids, family)
    for run in _chains(ids):
        if run[0].tag == "entangled":
            yield ProbTable(n=n, basis=run[0], probs=entangled[run[0].a])
            continue
        gates = circuit_gates(run[-1], n, family)
        # gates of the run's first basis; each later basis adds the next one
        first = len(gates) - len(run) + 1
        out = apply_gates(state.amps, n, gates[:first]) if first else state.amps
        for k, id in enumerate(run):
            if k:
                out = apply_gates(out, n, gates[first + k - 1 : first + k])
            yield ProbTable(n=n, basis=id, probs=np.abs(out) ** 2)


def born_probs(state: PureState, id: BasisId, family: list[QubitBasis]) -> ProbTable:
    """Outcome probabilities of one basis: the table born_tables gives for it (fast path)."""
    return next(born_tables(state, [id], family))


def born_probs_naive(state: PureState, id: BasisId, family: list[QubitBasis]) -> ProbTable:
    """Outcome probabilities by explicit projection onto each basis state (cross-check path)."""
    p = np.array([abs(np.vdot(b.amps, state.amps)) ** 2 for b in basis_states(state.n, id, family)])
    return ProbTable(n=state.n, basis=id, probs=p)


def check_noise_weight(lam, what: str = "noise weight") -> float:
    """lam as a float when it is a real number in [0, 1]; ValueError for NaN, infinities, bools and the rest."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0.0 <= lam <= 1.0:
        raise ValueError(f"{what} must be a real number in [0, 1], got {lam!r}")
    return float(lam)


def mix_white_noise(table: ProbTable, lam: float) -> ProbTable:
    """(1 - lam) * p + lam / 2^n: the outcome distribution of a white-noise-mixed state.

    Valid because the maximally mixed state assigns 1/2^n to every outcome of
    every orthonormal basis.
    """
    lam = check_noise_weight(lam)
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
    """PCG64 stream pinned to (master seed, key); identical inputs give identical draws.

    The master seed must be a non-negative integer: bools, floats, strings and
    None (which would seed from OS entropy) are rejected.
    """
    if _require_int(master_seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=tuple(key))))


def sampling_distribution(probs: np.ndarray) -> np.ndarray:
    """The distribution sample_counts draws from: probs clipped at 0 and normalized to sum 1."""
    p = np.clip(probs, 0.0, None)
    return p / p.sum()


def sample_counts(table: ProbTable, shots: int, rng: np.random.Generator) -> CountsRecord:
    """Multinomial draw of ``shots`` outcomes from a probability table; shots must be a positive integer."""
    if _require_int(shots, "shots") <= 0:
        raise ValueError("shots must be positive")
    counts = rng.multinomial(shots, sampling_distribution(table.probs))
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
    noise_lambda must be a real number in [0, 1]; 0 leaves the tables as
    they are.  Tables are computed one at a time as they are drawn.
    """
    noise_lambda = check_noise_weight(noise_lambda, "noise_lambda")
    tables = born_tables(state, ids, family)
    if noise_lambda > 0.0:
        tables = (mix_white_noise(table, noise_lambda) for table in tables)
    return CountsData(n=state.n, family=list(family), records=sample_tables(tables, shots, seed, seed_key))


def sample_tables(tables, shots: int, seed: int, seed_key: tuple = ()) -> list[CountsRecord]:
    """One sample_counts per table, table idx drawn from the stream (seed, (*seed_key, idx)).

    A record depends only on its table, the shots and its stream, so the
    same tables drawn under the same key give the same records however they
    were built.
    """
    return [sample_counts(table, shots, seeded_rng(seed, (*seed_key, idx))) for idx, table in enumerate(tables)]


# Top of the int64 counts vector: shots beyond it cannot be stored.
_INT64_MAX = np.iinfo(np.int64).max
# What json.dump(..., indent=1) writes for a record's counts when there are none.
_EMPTY_COUNTS = '"counts": {}'


def _bitstrings(ks: np.ndarray, n: int) -> list[str]:
    """format(k, f"0{n}b") for every k, built as one array of character codes."""
    codes = ((ks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint32) + ord("0")
    return codes.view(f"U{n}").ravel().tolist()


def counts_to_dict(record: CountsRecord, n: int) -> dict:
    """JSON form of one record; zero-count outcomes are omitted.

    Bitstring keys read qubit n-1 leftmost, matching the tensor-product order
    used everywhere else.
    """
    if record.shots == 0:
        raise ValueError("exact probability records are not serialized as counts")
    vec = np.asarray(record.counts)
    if vec.shape != (1 << n,):
        raise ValueError(f"record for basis {record.basis} holds counts of shape {vec.shape}, not ({1 << n},)")
    nz = np.flatnonzero(vec)
    counts = dict(zip(_bitstrings(nz, n), map(int, vec[nz].tolist())))
    return {"basis": basis_id_to_dict(record.basis), "shots": int(record.shots), "counts": counts}


def _key_bits(keys: list, n: int) -> np.ndarray:
    """Each key's character codes less ord("0"), one row per key, up to the first key not n characters long."""
    rows = len(keys) if set(map(len, keys)) <= {n} else next(i for i, k in enumerate(keys) if len(k) != n)
    bits = np.array(keys[:rows], dtype=f"U{n}").view(np.uint32).reshape(rows, n)
    bits -= ord("0")
    return bits


def _first_bad_count(values: list, shots: int) -> int:
    """Index of the first value that is not an integer in [0, shots]; len(values) if none."""
    if set(map(type, values)) <= {int} and (not values or (min(values) >= 0 and max(values) <= shots)):
        return len(values)
    return next(i for i, c in enumerate(values) if type(c) is not int or not 0 <= c <= shots)


def counts_from_dict(obj: dict, n: int) -> CountsRecord:
    """One record from its JSON form; of several malformed outcomes the first in file order is reported."""
    if exceeds_memory_bound(n):
        raise ValueError(f"n={n} exceeds the memory bound for a counts vector")
    basis = basis_id_from_dict(_require_json(obj, dict, "record")["basis"])
    shots = _require_int(obj["shots"], "shots")
    if shots <= 0:
        raise ValueError(f"record for basis {basis} has non-positive shots {shots}")
    if shots > _INT64_MAX:
        raise ValueError(f"record for basis {basis} has shots {shots} beyond the int64 range")
    counts = _require_json(obj["counts"], dict, "counts")
    keys, values = list(counts), list(counts.values())
    bits = _key_bits(keys, n)
    bad_chars = np.flatnonzero(bits > 1)
    bad_key = int(bad_chars[0]) // n if bad_chars.size else len(bits)
    bad_count = _first_bad_count(values, shots)
    if bad_key < len(keys) and bad_key <= bad_count:
        raise ValueError(f"bad outcome bitstring {keys[bad_key]!r} for n={n}")
    if bad_count < len(values):
        key, c = keys[bad_count], values[bad_count]
        if type(c) is not int or c < 0:
            raise ValueError(f"count {c!r} for outcome {key!r} is not a non-negative integer")
        raise ValueError(f"count {c} for outcome {key!r} exceeds the record's shots {shots}")
    total = sum(values)
    if total != shots:
        raise ValueError(f"counts sum {total} does not match shots {shots}")
    # length-n binary strings map one to one onto indices, and dict keys are unique
    vec = np.zeros(1 << n, dtype=np.int64)
    vec[bits @ (1 << np.arange(n - 1, -1, -1))] = values
    return CountsRecord(basis=basis, shots=shots, counts=vec)


def counts_data_to_dict(data: CountsData) -> dict:
    return {
        "n": data.n,
        "family": family_to_dicts(data.family),
        "records": [counts_to_dict(r, data.n) for r in data.records],
    }


def counts_data_from_dict(obj: dict) -> CountsData:
    n = _require_int(_require_json(obj, dict, "counts data")["n"], "n")
    if n < 1:
        raise ValueError(f"bad system size n={n}")
    family = family_from_dicts(obj["family"])
    records = [counts_from_dict(r, n) for r in _require_json(obj["records"], list, "records")]
    seen = set()
    for rec in records:
        key = str(rec.basis)
        if key in seen:
            raise ValueError(f"duplicate record for basis {key}")
        seen.add(key)
    return CountsData(n=n, family=family, records=records)


def _indented_counts(counts: dict) -> str:
    """A record's counts object as json.dump(..., indent=1) lays it out, encoded by the C encoder.

    The object sits three levels deep (file, records, record): its entries
    are indented by four spaces and its closing brace by three.
    """
    if not counts:
        return "{}"
    body = json.dumps(counts, separators=(",\n    ", ": "))
    return "{\n    " + body[1:-1] + "\n   }"


def write_counts(path: str, data: CountsData) -> None:
    """Write json.dump(counts_data_to_dict(data), fh, indent=1) and a newline, one record at a time.

    json.dump takes the pure-Python encoder, so it lays out only the file
    with every counts object empty; each record's counts object is then
    built and encoded on its own by the C encoder, in its place.
    """
    with open(path, "w") as fh:
        blank = np.zeros(1 << data.n, dtype=np.int64)
        shells = [CountsRecord(basis=r.basis, shots=r.shots, counts=blank) for r in data.records]
        layout = json.dumps(counts_data_to_dict(CountsData(n=data.n, family=data.family, records=shells)), indent=1)
        pieces = layout.split(_EMPTY_COUNTS)
        fh.write(pieces[0])
        for record, piece in zip(data.records, pieces[1:]):
            fh.write('"counts": ' + _indented_counts(counts_to_dict(record, data.n)["counts"]) + piece)
        fh.write("\n")


def read_counts(path: str) -> CountsData:
    with open(path) as fh:
        return counts_data_from_dict(json.load(fh, object_pairs_hook=_unique_keys))
