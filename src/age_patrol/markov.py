"""Core Markov-chain analytics for randomized patrol trajectories.

Everything downstream needs four derived quantities of an irreducible
row-stochastic matrix P:

* the stationary distribution ``pi`` solving pi P = pi, from one square
  solve of (I - P + 1 1^T)^T pi^T = 1,
* the fundamental matrix ``Z = (I - P + Pi)^-1`` with Pi stacking pi in
  every row (its diagonal encodes return-time second moments),
* the discrepancy ``max_i sum_j |z_ij - pi_j|``, a computable mixing
  surrogate,
* the SLEM (second-largest eigenvalue modulus), a classical mixing
  diagnostic used for reporting; for a reversible chain it comes from a
  symmetric eigensolver on D^1/2 P D^-1/2, D = diag(pi).

Dense linear algebra throughout: instances stay small (n <= 2000), so
exactly testable O(n^3) solves beat iterative machinery.  `JsonRecord` is
the one JSON codec of the package's result records.
"""

from __future__ import annotations

import warnings
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .constants import TOL
from .errors import NumericalError, PeriodicityWarning, ReducibleChainError
from .graphs import strongly_connected

_PERIODIC_EIGENVALUE_CUTOFF = 1.0 - 1e-9
# largest ||S - S^T||_inf / 2 at which slem trusts the symmetric eigensolver
_SYMMETRIC_SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix; entries must be finite and nonnegative (no tolerance)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(p)):
            raise ValueError("transition matrix entries must be finite")
        if np.any(p < 0):
            raise ValueError("transition matrix entries must be nonnegative")
        rows = p.sum(axis=1)
        worst = np.max(np.abs(rows - 1.0))
        if worst > TOL.row_sum:
            raise ValueError(f"rows must sum to 1 (max deviation {worst:.3e})")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def support_violations(self, graph) -> list:
        """Off-diagonal positive entries that are not edges of the graph."""
        bad = []
        for i, j in zip(*np.nonzero(self.p > 0)):
            i, j = int(i), int(j)
            if i != j and not graph.has_edge(i, j):
                bad.append((i, j))
        return bad


class JsonRecord:
    """Mixin giving a dataclass a JSON form: its fields by name.

    Arrays and transition matrices are written as (nested) lists and every
    other value as it is.  `from_json` converts each value by its field
    annotation (an array field takes the dtype in its ``metadata``, float by
    default), leaves an absent field with a default at that default and
    ignores unknown keys, so a record can travel inside a larger payload.
    A missing required key or an ill-typed value raises ValueError.
    """

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict):
        if not isinstance(payload, dict):
            raise ValueError(f"{cls.__name__} JSON must be an object")
        hints = get_type_hints(cls)
        values = {}
        for f in fields(cls):
            if f.name in payload:
                values[f.name] = _decode(cls, f, hints[f.name], payload[f.name])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{cls.__name__} JSON lacks the key {f.name!r}")
        return cls(**values)


def _encode(value):
    if isinstance(value, TransitionMatrix):
        value = value.p
    return value.tolist() if isinstance(value, np.ndarray) else value


# field type -> the JSON value types it accepts
_JSON_TYPES = {np.ndarray: list, TransitionMatrix: list, dict: dict, bool: bool, int: int,
               float: (int, float)}


def _decode(cls, f, hint, value):
    args = get_args(hint)  # only optional fields, spelled `X | None`, have args
    if args and value is None:
        return None
    kind = args[0] if args else hint
    # bool is an int to isinstance, but a JSON true is no number
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{cls.__name__}.{f.name} must be a JSON "
                         f"{'array' if _JSON_TYPES[kind] is list else kind.__name__}, "
                         f"not {type(value).__name__}")
    try:
        if _JSON_TYPES[kind] is not list:
            return kind(value)
        array = np.array(value, dtype=f.metadata.get("dtype", float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{cls.__name__}.{f.name}: {exc}") from None
    return TransitionMatrix(array) if kind is TransitionMatrix else array


@dataclass(frozen=True)
class ChainAnalysis:
    """Derived quantities of one irreducible chain (immutable)."""

    matrix: TransitionMatrix
    pi: np.ndarray
    z: np.ndarray
    z_diag: np.ndarray
    discrepancy: float
    slem: float

    @property
    def n(self) -> int:
        return self.matrix.n

    def validate(self) -> None:
        """Re-check the defining residuals; raises on violation."""
        p = self.matrix.p
        if np.max(np.abs(self.pi @ p - self.pi)) > TOL.pi_residual:
            raise NumericalError("stationary residual out of tolerance")
        if abs(self.pi.sum() - 1.0) > TOL.pi_norm:
            raise NumericalError("stationary distribution does not sum to 1")
        if np.any(self.pi <= 0):
            raise NumericalError("stationary distribution must be positive")
        lhs = (np.eye(self.n) - p + np.tile(self.pi, (self.n, 1))) @ self.z
        if np.max(np.abs(lhs - np.eye(self.n))) > TOL.fundamental_residual:
            raise NumericalError("fundamental matrix residual out of tolerance")
        if self.discrepancy < 0:
            raise NumericalError("discrepancy must be nonnegative")


def check_irreducible(P: TransitionMatrix) -> bool:
    """True iff the support digraph of P is strongly connected."""
    return strongly_connected([np.flatnonzero(row).tolist() for row in P.p > 0])


def stationary_distribution(P: TransitionMatrix) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 for an irreducible P.

    Solves the square system (I - P + 1 1^T)^T pi^T = 1 (Stewart 1994,
    ch. 2).  Its matrix is nonsingular for every irreducible P: if
    (I - P + 1 1^T) y = 0, left-multiplying by pi gives 1^T y = 0, so
    (I - P) y = 0, y is constant and therefore zero.  The returned vector
    satisfies max|pi P - pi| <= 1e-10 or a NumericalError reports the
    residual.
    """
    if not check_irreducible(P):
        raise ReducibleChainError("chain is reducible; stationary distribution not unique")
    n = P.n
    a = np.eye(n) - P.p + 1.0
    pi = np.linalg.solve(a.T, np.ones(n))
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ P.p - pi)))
    if residual > TOL.pi_solve_residual or np.any(pi <= 0):
        raise NumericalError(
            f"stationary solve failed (residual {residual:.3e}, min pi {pi.min():.3e})")
    return pi


def fundamental_matrix(P: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    """Z = (I - P + Pi)^-1 where Pi has every row equal to pi."""
    pi = np.asarray(pi, dtype=float)
    if np.max(np.abs(pi @ P.p - pi)) > TOL.design_pi_residual:
        raise ValueError("pi is not stationary for P within tolerance")
    n = P.n
    m = np.eye(n) - P.p + np.tile(pi, (n, 1))
    z = np.linalg.solve(m, np.eye(n))
    residual = float(np.max(np.abs(m @ z - np.eye(n))))
    if residual > TOL.fundamental_residual:
        cond = float(np.linalg.cond(m))
        raise NumericalError(
            f"fundamental solve residual {residual:.3e} (condition estimate {cond:.3e}"
            f"{' > limit' if cond > TOL.condition_limit else ''})")
    return z


def slem(P: TransitionMatrix, pi: np.ndarray | None = None) -> float:
    """Second-largest eigenvalue modulus of P.

    With a positive ``pi`` the spectrum is read from S = D^1/2 P D^-1/2,
    D = diag(pi), which is similar to P.  When S is symmetric to within
    ``_SYMMETRIC_SPECTRUM_TOL`` (a reversible chain with its stationary
    pi), the eigenvalues of (S + S^T)/2 lie within ||S - S^T||_inf / 2 of
    those of P (Bauer-Fike), so the symmetric eigensolver answers;
    otherwise the general eigensolver does.

    Emits a PeriodicityWarning when a second eigenvalue sits on the unit
    circle (periodic chain): the value is then 1 and mixing surrogates
    carry no information.
    """
    moduli = None
    if pi is not None and np.all(np.asarray(pi) > 0):
        root = np.sqrt(pi)
        s = P.p * root[:, None] / root[None, :]
        if np.max(np.abs(s - s.T).sum(axis=1)) / 2 <= _SYMMETRIC_SPECTRUM_TOL:
            moduli = np.abs(np.linalg.eigvalsh((s + s.T) / 2))
    if moduli is None:
        moduli = np.abs(np.linalg.eigvals(P.p))
    moduli = np.sort(moduli)[::-1]
    value = float(moduli[1]) if len(moduli) > 1 else 0.0
    if value >= _PERIODIC_EIGENVALUE_CUTOFF:
        warnings.warn("chain is periodic; SLEM equals 1 and mixing diagnostics are meaningless",
                      PeriodicityWarning, stacklevel=2)
    return value


def discrepancy_of(z: np.ndarray, pi: np.ndarray) -> float:
    """max_i sum_j |z_ij - pi_j|."""
    return float(np.max(np.abs(z - pi[None, :]).sum(axis=1)))


def analyze(P: TransitionMatrix, pi: np.ndarray | None = None) -> ChainAnalysis:
    """Bundle stationary distribution, fundamental matrix, discrepancy, SLEM.

    ``pi`` may be supplied when it is known in closed form (e.g. for a
    designed chain); it is then verified rather than re-solved: it must be
    a positive distribution (summing to 1 within ``TOL.pi_norm``, since every
    multiple of pi is also a left fixed point) and stationary for P.
    """
    if pi is None:
        pi = stationary_distribution(P)
    else:
        pi = np.asarray(pi, dtype=float)
        # written so that a NaN entry fails it
        if not (pi.shape == (P.n,) and np.all(pi > 0) and abs(pi.sum() - 1.0) <= TOL.pi_norm):
            raise ValueError("supplied pi is not a positive distribution on the chain's states")
        if not check_irreducible(P):
            raise ReducibleChainError("chain is reducible")
        if np.max(np.abs(pi @ P.p - pi)) > TOL.design_pi_residual:
            raise ValueError("supplied pi is not stationary for P within tolerance")
    z = fundamental_matrix(P, pi)
    return ChainAnalysis(
        matrix=P,
        pi=pi,
        z=z,
        z_diag=np.diag(z).copy(),
        discrepancy=discrepancy_of(z, pi),
        slem=slem(P, pi),
    )


def return_time_moments(analysis: ChainAnalysis, i: int) -> tuple:
    """(mean, second moment) of the return time to terminal i.

    For an irreducible chain the mean is 1/pi_i and the second moment is
    -1/pi_i + 2 z_ii / pi_i^2.
    """
    pi_i = float(analysis.pi[i])
    z_ii = float(analysis.z_diag[i])
    mean = 1.0 / pi_i
    second = -1.0 / pi_i + 2.0 * z_ii / pi_i ** 2
    return mean, second
