"""Measurement-basis families and the outcome bookkeeping for phase recovery.

A single-qubit basis is the pair

    |+_a> = u|0> + v e^{i phi}|1>,      |-_a> = v|0> - u e^{i phi}|1>,

with u, v >= 0, u^2 + v^2 = 1 and u*v > 0 (never the computational basis).
From a family of m such bases three kinds of n-qubit measurement bases are
derived:

* ``computational`` -- the plain bit readout;
* ``local`` L_ab    -- top n-b qubits computational, bottom b qubits rotated
  into basis a (implementable with single-qubit gates only);
* ``entangled`` E_a -- the 2^{n-j} states |beta>|+_a>|-_a>^{j-1} for every
  level j = 1..n, closed by |-_a>^{xn}.

Outcome ordering is fixed so counts files are unambiguous.  For local bases
outcome k encodes the computational prefix in its high n-b bits and one sign
per rotated qubit in its low b bits (bit 0 means +, bit 1 means -), which is
exactly the bit pattern a hardware run reads after the basis-change circuit.
For entangled bases outcomes are listed level-block by level-block
(j = 1, ..., n) followed by the terminal all-minus state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .states import PureState, _freeze, _require_int, _require_json

BASIS_NORM_TOL = 1e-12


@dataclass(frozen=True)
class QubitBasis:
    """Parameters (u, v, phi) of a single-qubit basis distinct from the computational one."""

    u: float
    v: float
    phi: float

    def plus_ket(self) -> np.ndarray:
        return np.array([self.u, self.v * np.exp(1j * self.phi)])

    def minus_ket(self) -> np.ndarray:
        return np.array([self.v, -self.u * np.exp(1j * self.phi)])

    def unitary(self) -> np.ndarray:
        """U with U|0> = |+_a> and U|1> = |-_a>."""
        return np.column_stack([self.plus_ket(), self.minus_ket()])

    @cached_property
    def u_dagger(self) -> np.ndarray:
        """U^dagger, the measurement rotation; built on first use, kept with the basis and read-only."""
        m = self.unitary().conj().T
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class BasisId:
    """Tagged identifier for one measurement basis (a, b are 1-based)."""

    tag: str  # "computational" | "local" | "entangled"
    a: int = 0
    b: int = 0

    def __str__(self) -> str:
        if self.tag == "computational":
            return "computational"
        if self.tag == "local":
            return f"local:{self.a}:{self.b}"
        return f"entangled:{self.a}"


COMPUTATIONAL = BasisId("computational")


def local_id(a: int, b: int) -> BasisId:
    return BasisId("local", a=a, b=b)


def entangled_id(a: int) -> BasisId:
    return BasisId("entangled", a=a)


@dataclass(frozen=True)
class OutcomeRole:
    """Which phase equation an outcome feeds: level j, block beta, sign pattern, family index a.

    ``sign0`` is the sign (+1/-1) on the pivot qubit j-1; ``tail`` holds the
    signs on qubits j-2 down to 0.  The canonical projector pattern is
    sign0=+1 with an all-minus tail.
    """

    j: int
    beta: int
    sign0: int
    tail: tuple
    a: int

    @property
    def is_canonical(self) -> bool:
        return self.sign0 == 1 and all(s == -1 for s in self.tail)


def make_qubit_basis(u: float, v: float, phi: float) -> QubitBasis:
    """Validated basis constructor; rejects the computational basis (u*v = 0) and non-finite input."""
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) for x in (u, v, phi)):
        raise ValueError(f"u, v and phi must be finite real numbers, got {(u, v, phi)!r}")
    u, v, phi = float(u), float(v), float(phi)
    if u < 0 or v < 0:
        raise ValueError("u and v must be non-negative")
    if abs(u * u + v * v - 1.0) > BASIS_NORM_TOL:
        raise ValueError(f"u^2 + v^2 = {u * u + v * v} is not normalized")
    if u * v == 0.0:
        raise ValueError("u*v must be positive: basis must differ from the computational one")
    return QubitBasis(u=u, v=v, phi=phi % (2 * np.pi))


def default_family(m: int) -> list[QubitBasis]:
    """Balanced family u = v = 1/sqrt(2), phi_a = (a-1)*pi/m.

    For m = 2 this is phi = {0, pi/2}, for which the first-level system has
    determinant 1.  For any m, all pairwise phase differences avoid 0 and pi
    mod 2pi, so every 2x2 subsystem stays invertible.
    """
    if m < 2:
        raise ValueError("family needs at least 2 bases")
    s = 1.0 / np.sqrt(2)
    return [make_qubit_basis(s, s, (a - 1) * np.pi / m) for a in range(1, m + 1)]


def family_to_dicts(family: list[QubitBasis]) -> list[dict]:
    return [{"u": qb.u, "v": qb.v, "phi": qb.phi} for qb in family]


def family_from_dicts(objs: list[dict]) -> list[QubitBasis]:
    family = [_require_json(o, dict, "family entry") for o in _require_json(objs, list, "family")]
    return [make_qubit_basis(o["u"], o["v"], o["phi"]) for o in family]


def _check_id(id: BasisId, n: int, m: int) -> None:
    if id.tag == "computational":
        return
    if id.tag == "local":
        if not (1 <= id.a <= m and 1 <= id.b <= n):
            raise ValueError(f"local id {id} out of range for n={n}, m={m}")
        return
    if id.tag == "entangled":
        if not 1 <= id.a <= m:
            raise ValueError(f"entangled id {id} out of range for m={m}")
        return
    raise ValueError(f"unknown basis tag {id.tag!r}")


def basis_id_to_dict(id: BasisId) -> dict:
    if id.tag == "computational":
        return {"tag": "computational"}
    if id.tag == "local":
        return {"tag": "local", "a": id.a, "b": id.b}
    return {"tag": "entangled", "a": id.a}


def basis_id_from_dict(obj: dict) -> BasisId:
    tag = _require_json(obj, dict, "basis")["tag"]
    if tag == "computational":
        return COMPUTATIONAL
    if tag == "local":
        return local_id(_require_int(obj["a"], "a"), _require_int(obj["b"], "b"))
    if tag == "entangled":
        return entangled_id(_require_int(obj["a"], "a"))
    raise ValueError(f"unknown basis tag {tag!r}")


def projector(n: int, j: int, beta: int, basis: QubitBasis) -> PureState:
    """The canonical phase projector |beta>_{n-j} (x) |+_a> (x) |-_a>^{x(j-1)}."""
    if not 1 <= j <= n:
        raise ValueError(f"level j={j} out of range for n={n}")
    if not 0 <= beta < (1 << (n - j)):
        raise ValueError(f"block beta={beta} out of range at level j={j}")
    return _pattern_state(n, j, beta, 1, (-1,) * (j - 1), basis)


def _pattern_state(n: int, j: int, beta: int, sign0: int, tail, basis: QubitBasis) -> PureState:
    """|beta>_{n-j} (x) |sign0_a> (x) |tail_a ...> as a full 2^n statevector."""
    plus, minus = basis.plus_ket(), basis.minus_ket()
    kets = [plus if sign0 == 1 else minus]
    kets += [plus if s == 1 else minus for s in tail]
    block = reduce(np.kron, kets)
    amps = np.zeros(1 << n, dtype=np.complex128)
    lo = beta << j
    amps[lo : lo + block.size] = block
    return PureState(n=n, amps=_freeze(amps))


def role_state(n: int, role: OutcomeRole, basis: QubitBasis) -> PureState:
    """Statevector of the projector described by an outcome role."""
    return _pattern_state(n, role.j, role.beta, role.sign0, role.tail, basis)


def _entangled_block_offset(n: int, j: int) -> int:
    # outcomes 0 .. 2^{n-1}-1 are level 1, the next 2^{n-2} level 2, etc.
    return (1 << n) - (1 << (n - j + 1))


def basis_states(n: int, id: BasisId, family: list[QubitBasis]) -> list[PureState]:
    """Ordered orthonormal basis of the 2^n-dimensional space for a basis id.

    Every local and entangled outcome's state is the projector its
    outcome_role names; the computational one-hots and the terminal
    all-minus entangled state are the outcomes without a role.
    """
    _check_id(id, n, len(family))
    dim = 1 << n
    if id.tag == "computational":
        out = []
        for k in range(dim):
            amps = np.zeros(dim, dtype=np.complex128)
            amps[k] = 1.0
            out.append(PureState(n=n, amps=_freeze(amps)))
        return out
    qb = family[id.a - 1]
    out = []
    for k in range(dim):
        role = outcome_role(id, k, n)
        if role is None:  # the terminal all-minus entangled outcome
            out.append(PureState(n=n, amps=_freeze(reduce(np.kron, [qb.minus_ket()] * n))))
        else:
            out.append(role_state(n, role, qb))
    return out


def outcome_role(id: BasisId, outcome_index: int, n: int) -> OutcomeRole | None:
    """Map one basis outcome to the phase equation it contributes, if any.

    Computational outcomes and the terminal all-minus entangled outcome carry
    no phase equation and map to None.
    """
    if not 0 <= outcome_index < (1 << n):
        raise ValueError(f"outcome index {outcome_index} out of range for n={n}")
    if id.tag == "computational":
        return None
    if id.tag == "local":
        b = id.b
        beta = outcome_index >> b
        sign0 = -1 if (outcome_index >> (b - 1)) & 1 else 1
        tail = tuple(-1 if (outcome_index >> q) & 1 else 1 for q in range(b - 2, -1, -1))
        return OutcomeRole(j=b, beta=beta, sign0=sign0, tail=tail, a=id.a)
    if outcome_index == (1 << n) - 1:
        return None
    j = 1
    while outcome_index >= _entangled_block_offset(n, j) + (1 << (n - j)):
        j += 1
    beta = outcome_index - _entangled_block_offset(n, j)
    return OutcomeRole(j=j, beta=beta, sign0=1, tail=(-1,) * (j - 1), a=id.a)


def entangled_index_map(n: int) -> np.ndarray:
    """perm[l] = computational index the l-th entangled-basis state maps to under its circuit.

    Level-j block states land on 2^j*beta + 2^{j-1} - 1 and the terminal
    all-minus state on 2^n - 1; the map is a permutation.
    """
    perm = np.empty(1 << n, dtype=np.int64)
    for j in range(1, n + 1):
        off = _entangled_block_offset(n, j)
        perm[off : off + (1 << (n - j))] = (np.arange(1 << (n - j), dtype=np.int64) << j) + (1 << (j - 1)) - 1
    perm[-1] = (1 << n) - 1
    return perm


@dataclass(frozen=True)
class Gate:
    """One abstract circuit gate: U_a^dagger on ``target``, conditioned on all ``controls`` being 1."""

    name: str
    controls: tuple
    target: int
    basis: QubitBasis

    def matrix(self) -> np.ndarray:
        return self.basis.u_dagger


def circuit_gates(id: BasisId, n: int, family: list[QubitBasis]) -> list[Gate]:
    """Gate list realizing the basis: run the gates, then measure all qubits.

    Local bases need U_a^dagger on each rotated qubit.  Entangled bases use a
    ladder of multi-controlled U_a^dagger gates (controls on all lower-index
    qubits), kept abstract rather than decomposed into two-qubit gates.
    """
    _check_id(id, n, len(family))
    if id.tag == "computational":
        return []
    qb = family[id.a - 1]
    if id.tag == "local":
        return [Gate("u_dagger", (), q, qb) for q in range(id.b)]
    return [Gate("u_dagger", tuple(range(q)), q, qb) for q in range(n)]


def emit_circuit(id: BasisId, n: int, family: list[QubitBasis]) -> str:
    """Line-based circuit text: ``gate <name> [controls] <target> <u> <v> <phi>``."""
    lines = []
    for g in circuit_gates(id, n, family):
        ctrl = ",".join(str(c) for c in g.controls)
        lines.append(f"gate {g.name} [{ctrl}] {g.target} {g.basis.u:.17g} {g.basis.v:.17g} {g.basis.phi:.17g}")
    return "\n".join(lines)


def emit_qasm(id: BasisId, n: int, family: list[QubitBasis]) -> str:
    """OpenQASM 2.0 rendering, available for computational and local bases only.

    U_a = u3(theta, phi, pi) with theta = 2*atan2(v, u), so the measurement
    rotation is U_a^dagger = u3(-theta, -pi, -phi).
    """
    _check_id(id, n, len(family))
    if id.tag == "entangled":
        raise ValueError("standard-assembly rendering is limited to local bases")
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    if id.tag == "local":
        qb = family[id.a - 1]
        theta = 2.0 * np.arctan2(qb.v, qb.u)
        for q in range(id.b):
            lines.append(f"u3({-theta:.17g},{-np.pi:.17g},{-qb.phi:.17g}) q[{q}];")
    lines.append("measure q -> c;")
    return "\n".join(lines)


def rotate_qubit(amps: np.ndarray, q: int, M: np.ndarray) -> np.ndarray:
    """Apply the r x 2 matrix M to qubit q of amplitude arrays; the one place U_a^dagger is applied.

    amps is (..., N) and M is (..., r, 2), with broadcastable leading axes
    (one matrix per family basis, say).  r = 2 rotates the qubit (M = U_a^dagger);
    r = 1 applies one row, such as <-_a|, and contracts the qubit away.  The
    result is (..., N r / 2) in the same index order.
    """
    t = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << q))
    # out[..., :, r, :] = M[..., r, 0] t[..., :, 0, :] + M[..., r, 1] t[..., :, 1, :]
    out = M[..., None, :, 0, None] * t[..., :, 0, None, :] + M[..., None, :, 1, None] * t[..., :, 1, None, :]
    return out.reshape(out.shape[:-3] + (-1,))


def apply_gates(amps: np.ndarray, n: int, gates: list[Gate]) -> np.ndarray:
    """Apply a gate list to an amplitude vector (used to realize basis measurements)."""
    out = np.array(amps, dtype=np.complex128)
    if out.shape != (1 << n,):
        raise ValueError(f"amplitude vector of shape {out.shape} does not hold n={n} qubits")
    for g in gates:
        k = g.target
        if not g.controls:
            out = rotate_qubit(out, k, g.matrix())
            continue
        if tuple(g.controls) != tuple(range(k)):
            raise ValueError("only controls on all qubits below the target are supported")
        # fires only where the low k bits are all 1; the target is qubit 0 of that slice
        t = out.reshape(-1, 1 << k)
        t[:, -1] = rotate_qubit(t[:, -1], 0, g.matrix())
    return out


def estimation_basis_ids(n: int, m: int, mode: str) -> list[BasisId]:
    """The bases one estimation run measures, in the documented deterministic order.

    local: computational plus L_ab for a = 1..m, b = 1..n (m*n + 1 bases).
    entangled: computational plus E_a for a = 1..m (m + 1 bases).
    """
    if mode == "local":
        return [COMPUTATIONAL] + [local_id(a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
    if mode == "entangled":
        return [COMPUTATIONAL] + [entangled_id(a) for a in range(1, m + 1)]
    raise ValueError(f"unknown mode {mode!r}; expected 'local' or 'entangled'")
