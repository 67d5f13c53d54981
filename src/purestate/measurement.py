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
them (``circuit_gates``), so the tables equal the ladder's bit for bit.

Sampling uses numpy's ``Generator.multinomial`` (PCG64), which draws the
outcome vector by sequential binomial conditioning in C.  Streams are pinned
by deriving one ``SeedSequence`` per (master seed, key tuple) so any record
can be regenerated in isolation; the master seed must be a non-negative
integer, since ``None`` would draw fresh OS entropy on every call.
``sample_tables`` is the one loop that draws a list of tables, one keyed
stream each: ``simulate_counts`` and the benchmark's trials both go through it.

A sampled record's counts are int32 when its shots are at most 2^31 - 1,
and int64 otherwise (``_counts_dtype``): ``sample_counts``, ``counts_from_dict``
and ``read_counts`` all apply that one rule, and every consumer converts
before its arithmetic.  Records built with int64 counts are taken everywhere.
An exact record (``exact_record``) holds a read-only view of its table's
float64 probabilities, not a copy.  ``check_records`` is the one rule for
valid records at every boundary, with one message per fault.

``counts_data_from_dict`` checks the file's n and record count against the
memory bound (``states.exceeds_memory_bound``: eight 2^n complex working
vectors plus 8 bytes per counts entry of every record, so the bound did not
move with the narrower counts) before it parses a record.  A missing
required key is refused with a ValueError that names the key and where it
is missing.

Counts files are written and read without a Python object per outcome:
``write_counts`` builds each counts object's text from the counts vector
with numpy, and ``read_counts`` reads a file in that layout back the same
way, with the data ``json`` would give.  That reader only reads: a file it
does not take, for its layout or for any fault, is parsed by ``json`` as a
whole, and ``counts_data_from_dict`` alone decides every refusal, naming
the first bad outcome in file order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import (
    BasisId,
    QubitBasis,
    _check_id,
    apply_gates,
    basis_id_from_dict,
    basis_id_to_dict,
    circuit_gates,
    family_from_dicts,
    family_to_dicts,
    make_qubit_basis,
    rotate_qubit,
)
from .states import (
    PureState,
    _is_real,
    _require_int,
    _require_json,
    _require_key,
    _unique_keys,
    exceeds_memory_bound,
)

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
    """Observed outcome counts for one basis; ``counts[k]`` indexed like the basis outcomes.

    Sampled and read-back counts are int32 when shots <= 2^31 - 1 and int64
    otherwise (``_counts_dtype``); records of any integer dtype are taken
    everywhere.  Cast to int64 or float64 before arithmetic that can pass
    2^31 (a product of counts, say): int32 arithmetic wraps silently.  An
    exact record (shots 0) holds float64 probabilities; see check_records.
    """

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


def check_noise_weight(lam, what: str = "noise weight") -> float:
    """lam as a float when it is a real number in [0, 1]; ValueError for NaN, infinities, bools and the rest."""
    if not _is_real(lam) or not 0.0 <= lam <= 1.0:
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


def _counts_dtype(shots: int) -> type:
    """The dtype of a sampled or read-back record's counts: int32 when shots <= 2^31 - 1, int64 otherwise.

    No count of a record exceeds its shots, so the shots alone decide it.
    """
    return np.int32 if shots <= _INT32_MAX else np.int64


def sample_counts(table: ProbTable, shots: int, rng: np.random.Generator) -> CountsRecord:
    """Multinomial draw of ``shots`` outcomes from a probability table; shots must be a positive integer.

    The counts are int32 when shots <= 2^31 - 1 and int64 otherwise
    (``_counts_dtype``); cast them before arithmetic that can pass 2^31.
    """
    if _require_int(shots, "shots") <= 0:
        raise ValueError("shots must be positive")
    counts = rng.multinomial(shots, sampling_distribution(table.probs)).astype(_counts_dtype(shots), copy=False)
    return CountsRecord(basis=table.basis, shots=shots, counts=counts)


def exact_record(table: ProbTable) -> CountsRecord:
    """Infinite-statistics stand-in: stores probabilities, shots = 0 marks it exact.

    The counts are a read-only float64 view of ``table.probs``, sharing its
    memory; only a table that is not float64 is copied.
    """
    probs = np.asarray(table.probs, dtype=np.float64).view()
    probs.flags.writeable = False
    return CountsRecord(basis=table.basis, shots=0, counts=probs)


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
# Largest shots whose counts are stored in four bytes.
_INT32_MAX = np.iinfo(np.int32).max
# What json.dump(..., indent=1) writes for a record's counts when there are none.
_EMPTY_COUNTS = '"counts": {}'
# What read_counts' reader of write_counts' layout says of any other text.
_NOT_WRITTEN = "not in write_counts' layout"


def _bits(ks: np.ndarray, n: int) -> np.ndarray:
    """The n binary digits of every k, qubit n-1 first: one row per k."""
    return (ks[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _bitstrings(ks: np.ndarray, n: int) -> list[str]:
    """format(k, f"0{n}b") for every k, built as one array of character codes."""
    return (_bits(ks, n).astype(np.uint32) + ord("0")).view(f"U{n}").ravel().tolist()


def _exact_sum(vec: np.ndarray) -> int | None:
    """Exact sum of a non-empty integer vector, None if an entry lies outside [0, 2^63 - 1]."""
    if vec.size <= 32:  # Python ints beat numpy's min, sum and max here: 6 % of a bootstrap-ghz4-noisy trial
        counts = vec.tolist()
        return sum(counts) if min(counts) >= 0 and max(counts) <= _INT64_MAX else None
    top = int(vec.max()) if vec.dtype.itemsize > 4 else 0
    if vec.min() < 0 or top > _INT64_MAX:
        return None
    return int(vec.sum()) if vec.size * top <= _INT64_MAX else sum(vec.tolist())


def check_records(records: list[CountsRecord], n: int) -> dict:
    """The records keyed by str(basis), once each obeys the rule every boundary applies, one message per fault.

    - shots are an integer >= 0;
    - the counts have shape (2^n,);
    - shots 0 marks an exact record, which holds finite, non-negative reals;
    - a sampled record holds integers in [0, 2^63 - 1] summing exactly to its shots;
    - no basis appears twice.
    """
    keys = []
    for rec in records:
        keys.append(key := str(rec.basis))
        shots = _require_int(rec.shots, f"shots of record {key}")
        if shots < 0:
            raise ValueError(f"record {key} has negative shots {shots}")
        vec = np.asarray(rec.counts)
        if vec.shape != (1 << n,):
            raise ValueError(f"record {key} holds counts of shape {vec.shape}, not ({1 << n},)")
        if shots == 0:  # min and max are NaN when any entry is: both comparisons then fail
            if vec.dtype.kind not in "biuf" or not (vec.min() >= 0 and vec.max() < np.inf):
                raise ValueError(f"exact record {key} holds probabilities that are not finite reals >= 0")
        elif vec.dtype.kind not in "iu" or (total := _exact_sum(vec)) is None:
            raise ValueError(f"record {key} holds counts that are not integers in [0, {_INT64_MAX}]")
        elif total != shots:
            raise ValueError(f"record {key} holds counts summing to {total}, not its shots {shots}")
    return _keyed(keys, records)


def _keyed(keys: list[str], records: list[CountsRecord]) -> dict:
    """The records keyed by their str(basis), keys, once no basis appears twice: the rule that needs no counts."""
    if len(by_id := dict(zip(keys, records))) < len(keys):
        raise ValueError(f"duplicate record for basis {next(k for i, k in enumerate(keys) if k in keys[:i])}")
    return by_id


def _counts_vectors(records: list[CountsRecord], n: int) -> list[np.ndarray]:
    """The records' counts vectors, once check_records takes them and none is exact: a file holds counts only."""
    check_records(records, n)
    if any(rec.shots == 0 for rec in records):
        raise ValueError("exact probability records are not serialized as counts")
    return [np.asarray(rec.counts) for rec in records]


def counts_to_dict(record: CountsRecord, n: int) -> dict:
    """JSON form of one record; zero-count outcomes are omitted.

    Bitstring keys read qubit n-1 leftmost, matching the tensor-product order
    used everywhere else.
    """
    (vec,) = _counts_vectors([record], n)
    nz = np.flatnonzero(vec)
    counts = dict(zip(_bitstrings(nz, n), map(int, vec[nz].tolist())))
    return {"basis": basis_id_to_dict(record.basis), "shots": int(record.shots), "counts": counts}


class _WrittenCounts(NamedTuple):
    """A record's counts vector, decoded by read_counts from a counts object in write_counts' layout."""

    vec: np.ndarray


def _counts_vector(counts: dict, n: int, shots: int) -> np.ndarray:
    """The counts vector of a counts object, each outcome checked and placed in file order.

    The first outcome whose key is not n characters 0/1, or whose count is
    not an int in [0, shots], is named.  The vector is allocated once, in
    ``_counts_dtype(shots)``.
    """
    vec = np.zeros(1 << n, dtype=_counts_dtype(shots))
    for key, c in counts.items():
        if len(key) != n or key.strip("01"):
            raise ValueError(f"bad outcome bitstring {key!r} for n={n}")
        if type(c) is not int or c < 0:
            raise ValueError(f"count {c!r} for outcome {key!r} is not a non-negative integer")
        if c > shots:
            raise ValueError(f"count {c} for outcome {key!r} exceeds the record's shots {shots}")
        # length-n binary strings map one to one onto indices, and dict keys are unique
        vec[int(key, 2)] = c
    return vec


def counts_from_dict(obj: dict, n: int, where: str = "record") -> CountsRecord:
    """One record from its JSON form; of several malformed outcomes the first in file order is reported.

    The counts vector is ``_counts_dtype(shots)``: int32 when shots <=
    2^31 - 1, int64 otherwise, so cast it before arithmetic that can pass
    2^31.  read_counts hands over counts objects laid out as write_counts
    lays them out as _WrittenCounts, already decoded.  Only their sum is
    checked: a count above shots puts the sum above shots, and read_counts
    then reads the file through json, which names that count.  where names
    the record in the message for a missing key ("records[3]", say).
    """
    if exceeds_memory_bound(n, 1):
        raise ValueError(f"n={n} exceeds the memory bound for a counts vector")
    basis = basis_id_from_dict(_require_key(_require_json(obj, dict, "record"), "basis", where), f"basis of {where}")
    where = f"{where} (basis {basis})"
    shots = _require_int(_require_key(obj, "shots", where), "shots")
    if shots <= 0:
        raise ValueError(f"record for basis {basis} has non-positive shots {shots}")
    if shots > _INT64_MAX:
        raise ValueError(f"record for basis {basis} has shots {shots} beyond the int64 range")
    counts = _require_key(obj, "counts", where)
    if isinstance(counts, _WrittenCounts):
        vec = counts.vec
    else:
        vec = _counts_vector(_require_json(counts, dict, "counts"), n, shots)
    if (total := _exact_sum(vec)) != shots:
        raise ValueError(f"counts sum {total} does not match shots {shots}")
    # the counts are non-negative and sum to shots, so this cast narrows no value
    return CountsRecord(basis=basis, shots=shots, counts=vec.astype(_counts_dtype(shots), copy=False))


def counts_data_to_dict(data: CountsData) -> dict:
    return {
        "n": data.n,
        "family": family_to_dicts(data.family),
        "records": [counts_to_dict(r, data.n) for r in data.records],
    }


def counts_data_from_dict(obj: dict) -> CountsData:
    n = _require_int(_require_key(_require_json(obj, dict, "counts data"), "n", "counts data"), "n")
    if n < 1:
        raise ValueError(f"bad system size n={n}")
    objs = _require_json(_require_key(obj, "records", "counts data"), list, "records")
    if exceeds_memory_bound(n, len(objs)):
        raise ValueError(f"{len(objs)} records at n={n} exceed the memory bound")
    family = family_from_dicts(_require_key(obj, "family", "counts data"))
    records = [counts_from_dict(r, n, f"records[{i}]") for i, r in enumerate(objs)]
    _keyed([str(rec.basis) for rec in records], records)  # counts_from_dict has checked the rest
    _check_data(n, family, records)
    return CountsData(n=n, family=family, records=records)


def _check_data(n: int, family: list, records: list) -> list[QubitBasis]:
    """The family as make_qubit_basis reduces it, once no entry is refused and every record's basis is in range."""
    family = [make_qubit_basis(qb.u, qb.v, qb.phi) for qb in family]
    for rec in records:
        _check_id(rec.basis, n, len(family))
    return family


def _counts_text(counts: np.ndarray, n: int) -> str:
    """A record's counts object as json.dump(..., indent=1) lays it out, built in one numpy pass.

    The object sits three levels deep (file, records, record): its entries
    are indented by four spaces and its closing brace by three.  Each
    nonzero outcome is one row of character codes: a comma, the newline and
    indent, the quoted bitstring, ": " and the count in as many digits as
    the largest count has.  Dropping each count's leading zeros and the
    first row's comma leaves the entries' text in outcome order.  The
    counts sum to positive shots (``check_records``), so one is nonzero.
    """
    ks = np.flatnonzero(counts)
    values = counts[ks].astype(np.int64)
    powers = 10 ** np.arange(len(str(values.max())) - 1, -1, -1, dtype=np.int64)
    lead = b',\n    "'
    head = lead + b"0" * n + b'": '
    rows = np.empty((ks.size, len(head) + powers.size), dtype=np.uint8)
    rows[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows[:, len(lead) : len(lead) + n] += _bits(ks, n).astype(np.uint8)
    rows[:, len(head) :] = values[:, None] // powers % 10 + ord("0")
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, len(head) :] = values[:, None] >= powers
    keep[0, 0] = False
    return "{" + rows[keep].tobytes().decode("ascii") + "\n   }"


def write_counts(path: str, data: CountsData) -> None:
    """Write data in json.dump(..., indent=1)'s layout, and a newline, one record at a time.

    The records go through check_records and exact ones are refused, then
    the family and the basis ids are checked, all before the file is opened,
    so refused data leaves an existing file as it was.  Family entries are
    written as make_qubit_basis reduces them, as read_counts reads them
    back (counts_data_to_dict keeps them as given), the records as in
    counts_to_dict.  Each record's counts object is built from its counts
    vector by ``_counts_text`` in one numpy pass, and written in its place.
    """
    vecs = _counts_vectors(data.records, data.n)
    family = _check_data(data.n, data.family, data.records)
    layout = {
        "n": data.n,
        "family": family_to_dicts(family),
        "records": [{"basis": basis_id_to_dict(r.basis), "shots": int(r.shots), "counts": {}} for r in data.records],
    }
    pieces = json.dumps(layout, indent=1).split(_EMPTY_COUNTS)
    with open(path, "w") as fh:
        fh.write(pieces[0])
        for vec, piece in zip(vecs, pieces[1:]):
            fh.write('"counts": ' + _counts_text(vec, data.n) + piece)
        fh.write("\n")


def _written_counts(body: np.ndarray, n: int) -> np.ndarray:
    """The counts vector of a counts object's entries in write_counts' layout; ValueError for any other text.

    body holds the entries' ASCII codes, one line per outcome, each ending
    in a newline: four spaces, the quoted key and ": " before the count,
    and a comma before every newline but the last.  Every character is
    checked: the fixed ones, n key characters 0/1, and 1 to 18 digits
    without a leading zero, so every count is a JSON integer in the int64
    range.  The keys must ascend, so none repeats.  So an object this
    accepts is one json reads, as these counts.  The vector is int32 when
    every count has at most 9 digits, so it fits, and int64 otherwise;
    counts_from_dict casts it to its record's dtype once its sum matches.
    """
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    stops = ends.copy()
    stops[:-1] -= 1
    indent = b'    "'
    head = np.frombuffer(indent + b"0" * n + b'": ', dtype=np.uint8)
    digits = stops - starts - head.size
    if digits.min() < 1 or digits.max() > len(str(_INT64_MAX)) - 1:
        raise ValueError(_NOT_WRITTEN)
    # key columns compare with their low bit set, so '0' and '1' both pass
    key = np.zeros(head.size, dtype=np.uint8)
    key[len(indent) : len(indent) + n] = 1
    lines = body[starts[:, None] + np.arange(head.size)]
    width = int(digits.max())
    chars = body[np.maximum(stops[:, None] - width + np.arange(width), 0)] - ord("0")
    is_digit = np.arange(width) >= width - digits[:, None]
    first = chars[np.arange(ends.size), width - digits]
    if (
        ((lines | key) != (head | key)).any()
        or (body[stops[:-1]] != ord(",")).any()
        or (chars[is_digit] > 9).any()
        or ((first == 0) & (digits > 1)).any()
    ):
        raise ValueError(_NOT_WRITTEN)
    index = (lines[:, len(indent) : len(indent) + n] & 1) @ (1 << np.arange(n - 1, -1, -1))
    if (np.diff(index) <= 0).any():
        raise ValueError(_NOT_WRITTEN)
    dtype = np.int32 if width <= len(str(_INT32_MAX)) - 1 else np.int64
    vec = np.zeros(1 << n, dtype=dtype)
    vec[index] = (chars * is_digit) @ 10 ** np.arange(width - 1, -1, -1, dtype=dtype)
    return vec


def _read_written(text: str) -> CountsData:
    """The data of a counts file whose nonempty counts objects are in write_counts' layout; ValueError otherwise.

    Each such object is cut out and its place taken by the JSON string
    holding one backslash, a value no string of a text without backslashes
    can hold; json then parses what is left, which is small.  When exactly
    the records hold those strings, and every cut-out object reads as
    _written_counts reads it, the parse equals json's parse of the whole
    text, so data counts_data_from_dict takes are the data json's parse
    gives.  This only reads: any ValueError, a refusal of the data too,
    sends read_counts to json, which alone decides what is refused.  The
    memory bound is checked before any counts vector is allocated.
    """
    if "\\" in text or not text.isascii():
        raise ValueError(_NOT_WRITTEN)
    opening, closing = '"counts": {\n', "\n   }"
    rest, spans, pos = [], [], 0
    while (start := text.find(opening, pos)) >= 0:
        end = text.find(closing, start + len(opening))
        if end < 0:
            raise ValueError(_NOT_WRITTEN)
        rest.append(text[pos:start])
        spans.append((start + len(opening), end + 1))
        pos = end + len(closing)
    rest.append(text[pos:])
    obj = json.loads('"counts": "\\\\"'.join(rest), object_pairs_hook=_unique_keys)
    records, n = (obj.get("records"), obj.get("n")) if type(obj) is dict else (None, None)
    if type(records) is not list or type(n) is not int or n < 1 or exceeds_memory_bound(n, len(records)):
        raise ValueError(_NOT_WRITTEN)
    slots = [r for r in records if type(r) is dict and r.get("counts") == "\\"]
    if len(slots) != len(spans):
        raise ValueError(_NOT_WRITTEN)
    for record, (start, end) in zip(slots, spans):
        body = np.frombuffer(text[start:end].encode("ascii"), dtype=np.uint8)
        record["counts"] = _WrittenCounts(_written_counts(body, n))
    return counts_data_from_dict(obj)


def read_counts(path: str) -> CountsData:
    """Read a counts file: as write_counts lays it out, without a Python object per outcome; otherwise through json.

    The data are those of counts_data_from_dict(json.load(fh)), with no key
    repeated in any object.  A file the written-layout reader does not take,
    for its layout or for a fault, is parsed by json as a whole, and every
    refusal comes from that path.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        return _read_written(text)
    except ValueError:
        pass
    # parsed once the except block has dropped the fast path's arrays
    return counts_data_from_dict(json.loads(text, object_pairs_hook=_unique_keys))
