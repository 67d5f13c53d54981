"""Pure n-qubit states: construction, named benchmark states, fidelity and JSON I/O.

Conventions used across the package:

* qubit 0 is the least significant bit of a computational index, so the
  basis label for index ``a`` reads ``a_{n-1} ... a_0`` left to right and
  the leftmost tensor factor is the most significant qubit;
* amplitude vectors are complex128 and unit norm;
* the unobservable global phase is fixed by making the first amplitude
  with modulus above ``PHASE_EPS`` real and positive.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

NORM_ATOL = 1e-10
PHASE_EPS = 1e-10
MAKE_STATE_NORM_TOL = 1e-6

NAMED_STATE_KINDS = ("Phi1", "Phi2", "Phi3", "Phi4")

# Working set per trial is a handful of 16-byte-per-amplitude vectors.
MEMORY_BOUND_BYTES = 1 << 31
# save_state writes its text in slices of this many amplitudes.
_WRITE_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm amplitude vector over the 2^n computational basis states."""

    n: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __repr__(self) -> str:
        return f"PureState(n={self.n})"


def held_bytes(n: int, vectors: int = 0) -> int:
    """Bytes a run at n holds: eight 2^n-entry complex128 working vectors, plus ``vectors`` 8-byte ones.

    The 8-byte vectors are one counts vector per record and, where a run
    keeps them, one float64 table per basis.  The guard still counts 8
    bytes per counts entry, though sampled and read-back counts are int32
    up to 2^31 - 1 shots, so no n is accepted that was refused before.
    """
    return (16 * 8 + 8 * vectors) << n


def exceeds_memory_bound(n: int, vectors: int = 0, bound: int = MEMORY_BOUND_BYTES) -> bool:
    """True when ``held_bytes(n, vectors)`` would not fit in ``bound`` bytes."""
    # the first test keeps 1 << n from being built for an absurd n
    return n >= bound.bit_length() or held_bytes(n, vectors) > bound


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _as_float(value) -> float:
    """float(value) for a real number float() converts; otherwise NaN, which every range check refuses (bools too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return np.nan
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return np.nan


def _require_int(value, what: str) -> int:
    """value as an int; booleans, floats and strings are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_qubits(n) -> None:
    """ValueError unless n is an integer >= 1, the qubit count of a system."""
    if _require_int(n, "n") < 1:
        raise ValueError(f"n={n}: a system needs at least 1 qubit")


def _require_json(value, kind: type, what: str):
    """value itself when it is a JSON object (kind dict) or array (kind list); ValueError otherwise."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {type(value).__name__}")
    return value


def _require_key(obj: dict, key: str, where: str):
    """obj[key], or a ValueError naming the key and where (a record, a family entry, the state) it is missing."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r} key") from None


def _unique_keys(pairs: list) -> dict:
    """json object_pairs_hook: the object as a dict, or ValueError if a key repeats (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise ValueError(f"repeated key {key!r} in a JSON object")
    return obj


def make_state(amps) -> PureState:
    """Validate and normalize an amplitude vector into a PureState.

    The length must be a power of two >= 2, every entry finite, and the input
    norm already within 1e-6 of 1; it is then renormalized exactly.
    """
    amps = np.asarray(amps, dtype=np.complex128).ravel()
    d = amps.size
    if d < 2 or (d & (d - 1)) != 0:
        raise ValueError(f"amplitude vector length {d} is not a power of two >= 2")
    if not np.isfinite(amps).all():
        raise ValueError("amplitude vector has non-finite entries")
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("zero amplitude vector")
    if abs(norm - 1.0) > MAKE_STATE_NORM_TOL:
        raise ValueError(f"amplitude vector norm {norm} not within {MAKE_STATE_NORM_TOL} of 1")
    return PureState(n=d.bit_length() - 1, amps=_freeze(amps / norm))


def _product(factors: list) -> np.ndarray:
    """reduce(np.kron, factors) for 1-D factors, bit for bit: one multiply per entry, as an outer product."""
    return reduce(lambda x, y: np.multiply.outer(x, y).ravel(), factors)


def haar_random(n: int, seed) -> PureState:
    """Haar-uniform random state: z / ||z|| for z a vector of 2^n standard complex Gaussians.

    The 2^n real parts are drawn first, then the 2^n imaginary parts; z is
    divided by its norm once, so the amplitudes are exactly z / ||z||.
    """
    _require_qubits(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(n=n, amps=_freeze(z / np.linalg.norm(z)))


def random_separable(n: int, seed) -> PureState:
    """Tensor product of n independent Haar-random single-qubit states."""
    _require_qubits(n)
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factors.append(z / np.linalg.norm(z))
    return make_state(_product(factors))


def named_state(kind: str, n: int) -> PureState:
    """Fixed benchmark states: two separable families, a Bell-pair chain, and GHZ.

    Phi1/Phi2 are n-fold products of (|0> -/+ e^{i pi/4}|1>)/sqrt(2); Phi3 is a
    chain of (|00>+|11>)/sqrt(2) pairs with a trailing |0> when n is odd; Phi4
    is the n-qubit GHZ state (n >= 2).
    """
    _require_qubits(n)
    if kind in ("Phi1", "Phi2"):
        sign = -1.0 if kind == "Phi1" else 1.0
        q = np.array([1.0, sign * np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        return make_state(_product([q] * n))
    if kind == "Phi3":
        bell = np.zeros(4, dtype=np.complex128)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        factors = [bell] * (n // 2)
        if n % 2:
            factors.append(np.array([1.0, 0.0], dtype=np.complex128))
        return make_state(_product(factors))
    if kind == "Phi4":
        if n < 2:
            raise ValueError("Phi4 requires n >= 2")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2)
        return make_state(amps)
    raise ValueError(f"unknown state kind {kind!r}; expected one of {NAMED_STATE_KINDS}")


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, invariant under a global phase on either argument."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def global_phase_normalize(state: PureState) -> PureState:
    """Rotate the global phase so the first significant amplitude is real positive."""
    amps = state.amps
    idx = np.flatnonzero(np.abs(amps) > PHASE_EPS)
    if idx.size == 0:
        return state
    pivot = amps[idx[0]]
    return PureState(n=state.n, amps=_freeze(amps * (abs(pivot) / pivot)))


def state_to_dict(state: PureState) -> dict:
    # float repr round-trips float64 exactly (17 significant digits at most)
    return {
        "n": state.n,
        "amps": [[re, im] for re, im in zip(state.amps.real.tolist(), state.amps.imag.tolist())],
    }


def state_from_dict(obj: dict) -> PureState:
    """A state from its JSON form: a list of 2^n [re, im] pairs of JSON numbers, finite and of unit norm.

    The types are checked over the pairs and over their flattened components
    at once, and the components converted by one np.array call.
    """
    n = _require_int(_require_key(_require_json(obj, dict, "state"), "n", "state"), "n")
    pairs = _require_key(obj, "amps", "state")
    if not (isinstance(pairs, list) and set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        raise ValueError("amps must be a list of [re, im] pairs of numbers")
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError("amps must be a list of [re, im] pairs of numbers")
    if len(pairs) != 1 << n:
        raise ValueError(f"state dict claims n={n} but has {len(pairs)} amplitudes")
    try:
        amps = np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError:  # an int beyond the float range
        raise ValueError("amplitude vector has non-finite entries") from None
    state = make_state(amps)
    # make_state's renormalization can move the last bit, so unit-norm input is kept as written
    return PureState(n=n, amps=_freeze(amps)) if abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL else state


def save_state(state: PureState, path) -> None:
    """Write json.dumps(state_to_dict(state)) and a newline, a slice of amplitudes at a time.

    Non-finite amplitudes, which json would write as NaN or Infinity and
    load_state refuses, are refused before the file is opened.  Each slice's
    text is the repr of its [re, im] pairs as float lists, the same
    float.__repr__ the JSON encoder writes, without the pair lists of
    state_to_dict.
    """
    pairs = np.ascontiguousarray(state.amps, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    if not np.isfinite(pairs).all():
        raise ValueError("amplitude vector has non-finite entries")
    head = '{"n": ' + json.dumps(state.n) + ', "amps": ['
    with open(path, "w") as f:
        f.write(head)
        for i in range(0, len(pairs), _WRITE_CHUNK):
            f.write((", " if i else "") + repr(pairs[i : i + _WRITE_CHUNK].tolist())[1:-1])
        f.write("]}\n")


def load_state(path) -> PureState:
    with open(path) as f:
        return state_from_dict(json.load(f, object_pairs_hook=_unique_keys))
