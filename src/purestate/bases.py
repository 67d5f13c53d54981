"""Measurement-basis families and the outcome bookkeeping for phase recovery.

A single-qubit basis is the pair

    |+_a> = u|0> + v e^{i phi}|1>,      |-_a> = v|0> - u e^{i phi}|1>,

with u, v, phi finite, u, v >= 0, u^2 + v^2 = 1 and u*v > 0 (never the
computational basis).  From a family of m such bases three kinds of
n-qubit measurement bases are derived:

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

``circuit_gates`` describes each basis's measurement circuit: U_a^dagger on
every rotated qubit of a local basis, a ladder of multi-controlled
U_a^dagger gates for an entangled one.  ``apply_gates`` simulates the local
circuits only; the entangled tables come from the one-qubit contraction in
``measurement.born_tables``.  Both go through ``rotate_qubit``, the one
place U_a^dagger is applied.  ``basis_states`` builds a whole basis as
tensor products of |+_a> and |-_a> placed on diagonal blocks, for
``purestate bases --states``; ``outcome_role`` decodes one outcome at a
time and serves the test reference only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .states import PureState, _as_float, _require_int, _require_json, _require_key, _require_qubits

BASIS_NORM_TOL = 1e-12


@dataclass(frozen=True)
class QubitBasis:
    """Parameters (u, v, phi) of a single-qubit basis, checked by the module's rule when made; phi kept in [0, 2 pi)."""

    u: float
    v: float
    phi: float

    def __post_init__(self):
        u, v, phi = values = [_as_float(x) for x in (self.u, self.v, self.phi)]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"u, v and phi must be finite real numbers, got {(self.u, self.v, self.phi)!r}")
        phi %= 2 * np.pi
        if u < 0 or v < 0:
            raise ValueError("u and v must be non-negative")
        if abs(u * u + v * v - 1.0) > BASIS_NORM_TOL:
            raise ValueError(f"u^2 + v^2 = {u * u + v * v} is not normalized")
        if u * v == 0.0:
            raise ValueError("u*v must be positive: basis must differ from the computational one")
        # a phi just below 0 leaves a remainder that rounds to 2 pi itself, which a second reduction maps to 0.0
        self.__dict__.update(u=u, v=v, phi=phi if phi < 2 * np.pi else 0.0)  # frozen: set past __setattr__

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
    sign0=+1 with an all-minus tail.  Only ``outcome_role`` builds one.
    """

    j: int
    beta: int
    sign0: int
    tail: tuple
    a: int

    @property
    def is_canonical(self) -> bool:
        return self.sign0 == 1 and all(s == -1 for s in self.tail)


def default_family(m: int) -> list[QubitBasis]:
    """Balanced family u = v = 1/sqrt(2), phi_a = (a-1)*pi/m.

    For m = 2 this is phi = {0, pi/2}, for which the first-level system has
    determinant 1.  For any m, all pairwise phase differences avoid 0 and pi
    mod 2pi, so every 2x2 subsystem stays invertible.
    """
    _require_family_size(m)
    s = 1.0 / np.sqrt(2)
    return [QubitBasis(s, s, (a - 1) * np.pi / m) for a in range(1, m + 1)]


def family_to_dicts(family: list[QubitBasis]) -> list[dict]:
    return [{"u": qb.u, "v": qb.v, "phi": qb.phi} for qb in family]


def family_from_dicts(objs: list[dict]) -> list[QubitBasis]:
    family = [_require_json(o, dict, "family entry") for o in _require_json(objs, list, "family")]
    return [QubitBasis(*(_require_key(o, k, f"family[{i}]") for k in ("u", "v", "phi"))) for i, o in enumerate(family)]


def _require_family_size(m) -> None:
    """ValueError unless m is an integer >= 2: a phase system needs two bases at least."""
    if _require_int(m, "m") < 2:
        raise ValueError(f"m={m}: the basis family needs at least 2 bases")


def _check_id(id: BasisId, n: int, m: int) -> None:
    _require_qubits(n)
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


def basis_id_from_dict(obj: dict, where: str = "basis") -> BasisId:
    """A basis id from its JSON form; where names the basis in the message for a missing key."""
    tag = _require_key(_require_json(obj, dict, "basis"), "tag", where)
    if tag == "computational":
        return COMPUTATIONAL
    if tag == "local":
        a, b = (_require_int(_require_key(obj, key, where), key) for key in ("a", "b"))
        return local_id(a, b)
    if tag == "entangled":
        return entangled_id(_require_int(_require_key(obj, "a", where), "a"))
    raise ValueError(f"unknown basis tag {tag!r}")


def _entangled_block_offset(n: int, j: int) -> int:
    # outcomes 0 .. 2^{n-1}-1 are level 1, the next 2^{n-2} level 2, etc.
    return (1 << n) - (1 << (n - j + 1))


def basis_states(n: int, id: BasisId, family: list[QubitBasis]) -> list[PureState]:
    """Ordered orthonormal basis of the 2^n-dimensional space for a basis id, as the rows of one matrix.

    Each group of outcomes is one tensor product on the diagonal blocks of a
    zero matrix: L_ab's (|+_a>, |-_a>)^{xb} on all 2^{n-b} computational
    prefixes; E_a's |+_a>|-_a>^{x(j-1)} on level j's 2^{n-j} blocks, closed by
    |-_a>^{xn}.  Exact zeros are +0.0.
    """
    _check_id(id, n, len(family))
    dim = 1 << n
    if id.tag == "computational":
        rows = np.eye(dim, dtype=np.complex128)
    else:
        plus, minus = kets = family[id.a - 1].unitary().T

        def product(factors):
            return reduce(np.kron, factors) + 0.0  # + 0.0 turns the products' -0.0 into +0.0

        rows = np.zeros((dim, dim), dtype=np.complex128)
        if id.tag == "local":
            blocks = 1 << (n - id.b)
            diag = np.arange(blocks)
            rows.reshape(blocks, -1, blocks, dim // blocks)[diag, :, diag] = product([kets] * id.b)
        else:
            for j in range(1, n + 1):
                off, blocks = _entangled_block_offset(n, j), 1 << (n - j)
                diag = np.arange(blocks)
                rows[off : off + blocks].reshape(blocks, blocks, -1)[diag, diag] = product([plus] + [minus] * (j - 1))
            rows[-1] = product([minus] * n)
    rows.flags.writeable = False
    return [PureState(n=n, amps=amps) for amps in rows]


def outcome_role(id: BasisId, outcome_index: int, n: int) -> OutcomeRole | None:
    """Map one basis outcome to the phase equation it contributes, if any.

    Computational outcomes and the terminal all-minus entangled outcome carry
    no phase equation and map to None.  No package routine calls it: it is
    the per-outcome decoder the test reference places outcomes with,
    independently of the reconstruction kernel's gather, and perfbench counts
    its calls.
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
    """OpenQASM 2.0 rendering of ``circuit_gates``, available for computational and local bases only.

    U_a = u3(theta, phi, pi) with theta = 2*atan2(v, u), so the measurement
    rotation is U_a^dagger = u3(-theta, -pi, -phi).
    """
    gates = circuit_gates(id, n, family)
    if id.tag == "entangled":
        raise ValueError("standard-assembly rendering is limited to local bases")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    for g in gates:
        theta = 2.0 * np.arctan2(g.basis.v, g.basis.u)
        lines.append(f"u3({-theta:.17g},{-np.pi:.17g},{-g.basis.phi:.17g}) q[{g.target}];")
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
    if q == 0 and M.shape[-2] == 2:
        # written as (..., r, pairs), the products run along the pairs, not along a row pair of 2
        # entries; one transposing copy then interleaves the rows (the same products and sums)
        rows = M[..., :, 0, None] * t[..., None, :, 0, 0] + M[..., :, 1, None] * t[..., None, :, 1, 0]
        return rows.swapaxes(-1, -2).reshape(rows.shape[:-2] + (-1,))
    # out[..., :, r, :] = M[..., r, 0] t[..., :, 0, :] + M[..., r, 1] t[..., :, 1, :]
    out = M[..., None, :, 0, None] * t[..., :, 0, None, :] + M[..., None, :, 1, None] * t[..., :, 1, None, :]
    return out.reshape(out.shape[:-3] + (-1,))


def apply_gates(amps: np.ndarray, n: int, gates: list[Gate]) -> np.ndarray:
    """Apply a local basis's gate list, one uncontrolled U_a^dagger per rotated qubit, to an amplitude vector.

    A controlled gate (a rung of the entangled ladder) raises ValueError:
    ``measurement.born_tables`` computes entangled tables by contraction.
    """
    out = np.array(amps, dtype=np.complex128)
    if out.shape != (1 << n,):
        raise ValueError(f"amplitude vector of shape {out.shape} does not hold n={n} qubits")
    if any(g.controls for g in gates):
        raise ValueError("apply_gates runs uncontrolled gates only")
    for g in gates:
        out = rotate_qubit(out, g.target, g.matrix())
    return out


# which basis family a run measures, and so which records reconstruct reads
ESTIMATION_MODES = ("local", "entangled")


def estimation_basis_ids(n: int, m: int, mode: str) -> list[BasisId]:
    """The bases one estimation run measures, in the documented deterministic order.

    local: computational plus L_ab for a = 1..m, b = 1..n (m*n + 1 bases).
    entangled: computational plus E_a for a = 1..m (m + 1 bases).
    n must be an integer >= 1 and m an integer >= 2.
    """
    _require_qubits(n)
    _require_family_size(m)
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected {' or '.join(map(repr, ESTIMATION_MODES))}")
    if mode == "local":
        return [COMPUTATIONAL] + [local_id(a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
    return [COMPUTATIONAL] + [entangled_id(a) for a in range(1, m + 1)]
