"""Pure n-qubit states and the reduced-state blocks the estimator works on.

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
from dataclasses import dataclass
from functools import reduce

import numpy as np

NORM_ATOL = 1e-10
PHASE_EPS = 1e-10
MAKE_STATE_NORM_TOL = 1e-6

NAMED_STATE_KINDS = ("Phi1", "Phi2", "Phi3", "Phi4")


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


@dataclass(frozen=True, eq=False)
class ReducedState:
    """Non-normalized contiguous block of 2^j amplitudes, labeled (j, beta).

    ``is_null`` is set exactly when every entry is zero; null blocks carry
    no phase information and are handled specially during reconstruction.
    """

    j: int
    beta: int
    amps: np.ndarray
    is_null: bool

    def __repr__(self) -> str:
        return f"ReducedState(j={self.j}, beta={self.beta}, is_null={self.is_null})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _require_int(value, what: str) -> int:
    """value as an int; booleans, floats and strings are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def make_reduced(j: int, beta: int, amps: np.ndarray) -> ReducedState:
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (1 << j,):
        raise ValueError(f"reduced state at level {j} needs {1 << j} amplitudes, got {amps.shape}")
    return ReducedState(j=j, beta=beta, amps=_freeze(amps), is_null=not np.any(amps))


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


def haar_random(n: int, seed) -> PureState:
    """Haar-uniform random state: a normalized vector of 2^n standard complex Gaussians."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return make_state(z / np.linalg.norm(z))


def random_separable(n: int, seed) -> PureState:
    """Tensor product of n independent Haar-random single-qubit states."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factors.append(z / np.linalg.norm(z))
    return make_state(reduce(np.kron, factors))


def named_state(kind: str, n: int) -> PureState:
    """Fixed benchmark states: two separable families, a Bell-pair chain, and GHZ.

    Phi1/Phi2 are n-fold products of (|0> -/+ e^{i pi/4}|1>)/sqrt(2); Phi3 is a
    chain of (|00>+|11>)/sqrt(2) pairs with a trailing |0> when n is odd; Phi4
    is the n-qubit GHZ state (n >= 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind in ("Phi1", "Phi2"):
        sign = -1.0 if kind == "Phi1" else 1.0
        q = np.array([1.0, sign * np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        return make_state(reduce(np.kron, [q] * n))
    if kind == "Phi3":
        bell = np.zeros(4, dtype=np.complex128)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        factors = [bell] * (n // 2)
        if n % 2:
            factors.append(np.array([1.0, 0.0], dtype=np.complex128))
        return make_state(reduce(np.kron, factors))
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


def reduced_slice(psi: PureState, j: int, beta: int) -> ReducedState:
    """Contiguous block of 2^j amplitudes starting at index 2^j * beta.

    reduced_slice(psi, n, 0) is the full state; stacking the two level-(j-1)
    children of a block reproduces the block itself.
    """
    if not 1 <= j <= psi.n:
        raise ValueError(f"level j={j} out of range for n={psi.n}")
    if not 0 <= beta < (1 << (psi.n - j)):
        raise ValueError(f"block index beta={beta} out of range at level j={j}")
    lo = beta << j
    return make_reduced(j, beta, psi.amps[lo : lo + (1 << j)])


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
    n = _require_int(obj["n"], "n")
    pairs = obj["amps"]
    if not (
        isinstance(pairs, list)
        and all(type(p) is list and len(p) == 2 for p in pairs)
        and {type(x) for p in pairs for x in p} <= {int, float}
    ):
        raise ValueError("amps must be a list of [re, im] pairs of numbers")
    if len(pairs) != 1 << n:
        raise ValueError(f"state dict claims n={n} but has {len(pairs)} amplitudes")
    amps = np.array(pairs, dtype=np.float64).view(np.complex128).ravel()
    state = make_state(amps)
    # make_state's renormalization can move the last bit, so unit-norm input is kept as written
    return PureState(n=n, amps=_freeze(amps)) if abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL else state


def save_state(state: PureState, path) -> None:
    with open(path, "w") as f:
        json.dump(state_to_dict(state), f)
        f.write("\n")


def load_state(path) -> PureState:
    with open(path) as f:
        return state_from_dict(json.load(f))
