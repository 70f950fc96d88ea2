"""Core Markov-chain analytics for randomized patrol trajectories.

The paper's ages and bounds need three derived quantities of an
irreducible row-stochastic matrix P, which `analyze` computes:

* the stationary distribution ``pi`` solving pi P = pi: for a reversible
  chain from detailed balance down a breadth-first tree of the support,
  kept when it passes the residual test, and otherwise from one square
  solve of (I - P + 1 1^T)^T pi^T = 1,
* the fundamental matrix ``Z = M^-1``, M = I - P + 1 pi^T, whose
  diagonal encodes return-time second moments: above 128 terminals a
  reversible chain inverts a Cholesky factor of D^1/2 M D^-1/2,
  D = diag(pi), and any other chain takes the LU inverse of M, which
  `_fundamental_system` builds; `_fundamental_residual`, the one check of
  max|M Z - I|, multiplies only the entries of P in its support,
* the discrepancy ``max_i sum_j |z_ij - pi_j|``, a computable mixing
  surrogate.

The SLEM (second-largest eigenvalue modulus), a classical mixing
diagnostic no age formula uses, is computed from the general
eigensolver only when `ChainAnalysis.slem` is first read.

Dense linear algebra throughout: instances stay small (n <= 2000), so
exactly testable O(n^3) solves beat iterative machinery.  At n = 2000 an
n x n float64 array is 30.5 MiB, so these routines keep no n x n
temporary beyond what their LAPACK call needs: M is built in place, the
residual check works a block of rows at a time from P, and elementwise
steps write into an array the routine already holds.

Irreducibility is strong connectivity of the support digraph: `bfs_tree`,
the one breadth-first search, walks a boolean mask a level at a time, and
`strongly_connected` runs it on the mask and its transpose, for chains and
graphs alike.  A `TransitionMatrix` keeps its support mask and its search
tree, which orders the detailed balance walk and the residual check.
`JsonRecord` is the one JSON codec of the package's records, graphs
included, and `read_json`/`write_json` its one file reader and writer.
`_inverse_cdf` is the one inverse-CDF sampling table, of walk rows and
queue laws alike; a `TransitionMatrix` keeps its rows' tables, with a guide
table per row, for every walk of the chain.
"""

from __future__ import annotations

import json
import warnings
from array import array
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .constants import TOL
from .errors import NumericalError, PeriodicityWarning, ReducibleChainError

_PERIODIC_EIGENVALUE_CUTOFF = 1.0 - 1e-9
# largest max|S - S^T| / (eps max|S|) at which the Cholesky inverse takes S as
# symmetric: MH chains at n = 300-2000 read up to 12 with a detailed-balance pi
# and up to 3 with their closed-form pi
_SYMMETRIC_INVERSE_ULPS = 64
# the Cholesky inverse runs above this many terminals: on geometric MH chains
# (BLAS on one thread) it took 2.2-2.6x the time of the LU inverse at n = 30 and
# 1.07x at n = 100, but 0.44-0.65x at n = 150 and 0.44-0.59x at n = 300-1000
_CHOLESKY_MIN_N = 128
# rows at which the triangular inverse stops halving and calls np.linalg.inv
_TRIANGULAR_LEAF_ROWS = 64
# buckets of a row's guide table; a power of two, so int(u * _GUIDE_BUCKETS) is exact
_GUIDE_BUCKETS = 256


def _inverse_cdf(probs, values) -> tuple:
    """The (cumulative probabilities, values) table of an inverse-CDF draw.

    A draw is `vals[bisect_right(cum, u)]`: the values carry their last one
    twice, so a uniform at or past the last cumulative probability (which
    rounding may leave just below 1) draws the last value.
    """
    return np.cumsum(probs).tolist(), list(values) + [values[-1]]


def _sampling_tables(p: np.ndarray) -> tuple:
    """(rows, guides) of a walk on p: each row's `_inverse_cdf` table and guide table.

    A row's table covers its nonzero entries.  Its guide table (indexed
    search; Chen and Asau, 1974) holds one entry per bucket k of the
    uniforms u with int(u * _GUIDE_BUCKETS) = k, in a C int array (half the
    memory of a list).  The draw is nondecreasing in u, so where the draws
    at both ends of a bucket agree, the entry is that draw for every u in
    the bucket; elsewhere it is -1, and the walk searches the row's table
    with `bisect_right`.
    """
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    rows, guides = [], []
    for row in p:
        nz = np.flatnonzero(row)
        cum, vals = _inverse_cdf(row[nz], nz.tolist())
        draws = np.array(vals)
        # the draws at u = k/B and at the largest u below (k+1)/B
        first = draws[np.searchsorted(cum, edges[:-1], side="right")]
        last = draws[np.searchsorted(cum, edges[1:], side="left")]
        guides.append(array("i", np.where(first == last, first, -1).tolist()))
        rows.append((cum, vals))
    return rows, guides


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix; entries must be finite and nonnegative (no tolerance).

    A read-only, C-contiguous float64 array that owns its data (no view of
    a writable array) is adopted without a copy; any other input is copied.
    """

    p: np.ndarray

    def __post_init__(self):
        p = self.p
        if not (type(p) is np.ndarray and p.dtype == np.float64 and not p.flags.writeable
                and p.flags.c_contiguous and p.flags.owndata):
            p = np.array(p, dtype=float)
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

    @cached_property
    def samplers(self) -> tuple:
        """`_sampling_tables` of the rows, built on first read and kept with the matrix."""
        return _sampling_tables(self.p)

    @cached_property
    def support(self) -> np.ndarray:
        """Read-only boolean mask of the positive entries, built on first read and kept."""
        support = self.p > 0
        support.flags.writeable = False
        return support

    @cached_property
    def support_tree(self) -> tuple:
        """`bfs_tree` of the support from terminal 0, then the terminals it misses; kept."""
        order, parent = bfs_tree(self.support, 0)
        return np.concatenate([order, np.flatnonzero(parent < 0)]), parent

    def support_violations(self, graph) -> list:
        """Off-diagonal positive entries that are not edges of the graph, in row-major order."""
        outside = self.support.copy()
        np.fill_diagonal(outside, False)
        m = min(self.n, graph.n)
        outside[:m, :m] &= ~graph.adjacency[:m, :m]
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(outside))]


class JsonRecord:
    """Mixin giving a dataclass a JSON form: its fields by name.

    Arrays and transition matrices are written as (nested) lists, a
    frozenset of pairs as its pairs in sorted order, nested records as
    objects and every other value as it is.  `from_json` converts each
    value by its field annotation (an array, list or frozenset field takes
    the dtype in its ``metadata``, float by default, and every entry must be
    a JSON number, a whole one for an int dtype; an array is flat unless its
    ``metadata`` declares a 2-D ``shape`` such as ``(None, 2)``, and a
    frozenset is read as a set of such rows), leaves an absent field with a
    default at that default and ignores unknown keys, so a record can
    travel inside a larger payload.  A missing required key or an
    ill-typed value raises ValueError, and so, with ``strict``, does an
    unknown key in the record or in any record nested in it.
    """

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict, strict: bool = False):
        if not isinstance(payload, dict):
            raise ValueError(f"{cls.__name__} JSON must be an object")
        unknown = strict and set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{cls.__name__} JSON has unknown keys {sorted(unknown)}")
        hints = get_type_hints(cls)
        values = {}
        for f in fields(cls):
            if f.name in payload:
                values[f.name] = _decode(cls, f, hints[f.name], payload[f.name], strict)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{cls.__name__} JSON lacks the key {f.name!r}")
        return cls(**values)


def read_json(path):
    """The JSON value in a file; text that is not JSON raises json.JSONDecodeError."""
    return json.loads(Path(path).read_text())


def write_json(path, payload) -> None:
    """Write payload as JSON with sorted keys, two-space indents and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _encode(value):
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, frozenset):  # of pairs
        return sorted(map(list, value))
    if isinstance(value, TransitionMatrix):
        value = value.p
    return value.tolist() if isinstance(value, np.ndarray) else value


# field type -> the JSON value types it accepts; a nested record takes an object
_JSON_TYPES = {np.ndarray: list, TransitionMatrix: list, list: list, frozenset: list,
               dict: dict, str: str, bool: bool, int: int, float: (int, float)}
_JSON_NAMES = {list: "a JSON array", dict: "a JSON object", str: "a JSON string",
               bool: "a JSON boolean", int: "an integer", (int, float): "a JSON number"}


def _numbers(value: list, kinds) -> bool:
    """True iff every leaf of the nested list is of `kinds`; a JSON true is no number."""
    return all(_numbers(x, kinds) if isinstance(x, list)
               else isinstance(x, kinds) and not isinstance(x, bool) for x in value)


def _decode(cls, f, hint, value, strict):
    args = get_args(hint)  # only optional fields (`X | None`, `X | Y | None`) have args
    if args and value is None:
        return None
    kinds = {k: dict if issubclass(k, JsonRecord) else _JSON_TYPES[k]
             for k in args or [hint] if k is not type(None)}
    # bool is an int to isinstance, but a JSON true is no number
    kind = next((k for k, t in kinds.items()
                 if isinstance(value, t) and isinstance(value, bool) == (k is bool)), None)
    if kind is None:
        raise ValueError(f"{cls.__name__}.{f.name} must be "
                         f"{' or '.join(_JSON_NAMES[t] for t in kinds.values())}, "
                         f"not {type(value).__name__}")
    if issubclass(kind, JsonRecord):
        return kind.from_json(value, strict)
    try:
        if kinds[kind] is not list:
            return kind(value)
        dtype = f.metadata.get("dtype", float)
        if not _numbers(value, int if dtype is int else (int, float)):
            raise ValueError(f"entries must be {'integers' if dtype is int else 'JSON numbers'}")
        array = np.array(value, dtype=dtype)
        shape = f.metadata.get("shape", (None,))  # None: any length
        if kind is not TransitionMatrix and not (
                array.ndim == len(shape)
                and all(want in (None, got) for want, got in zip(shape, array.shape))):
            raise ValueError("must be a flat array" if len(shape) == 1
                             else f"must be an array of rows of {shape[1]} entries")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{cls.__name__}.{f.name}: {exc}") from None
    if kind is list:
        return array.tolist()
    if kind is frozenset:
        return frozenset(map(tuple, array.tolist()))
    if kind is TransitionMatrix:
        array.flags.writeable = False  # so the matrix adopts it instead of copying
        return TransitionMatrix(array)
    return array


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """Derived quantities of one irreducible chain (immutable)."""

    matrix: TransitionMatrix
    pi: np.ndarray
    z: np.ndarray
    z_diag: np.ndarray
    discrepancy: float

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def slem(self) -> float:
        """`slem` of the chain, computed on first read (it may warn PeriodicityWarning)."""
        return slem(self.matrix)

    def validate(self) -> None:
        """Re-check the defining residuals; raises on violation, a NaN included."""
        # each test is written so that a NaN fails it
        if not np.max(np.abs(self.pi @ self.matrix.p - self.pi)) <= TOL.pi_residual:
            raise NumericalError("stationary residual out of tolerance")
        if not abs(self.pi.sum() - 1.0) <= TOL.pi_norm:
            raise NumericalError("stationary distribution does not sum to 1")
        if not np.all(self.pi > 0):
            raise NumericalError("stationary distribution must be positive")
        if not _fundamental_residual(self.matrix, self.pi, self.z) <= TOL.fundamental_residual:
            raise NumericalError("fundamental matrix residual out of tolerance")
        if not self.discrepancy >= 0:
            raise NumericalError("discrepancy must be nonnegative")


def bfs_tree(adjacency: np.ndarray, source: int) -> tuple:
    """(order, parent) of a breadth-first search from source over an n x n boolean mask.

    ``adjacency[u, v]`` marks an edge u -> v.  Taken a level at a time, each
    node reached from the first node of the level before with an edge to it,
    it gives the ``order`` (source first) and ``parent`` (source for itself,
    -1 if unreachable) of a first-in first-out search over sorted lists.
    """
    parent = np.full(len(adjacency), -1)
    parent[source] = source
    levels = [np.array([source])]
    while levels[-1].size and parent.min() < 0:
        frontier = levels[-1]
        reach = adjacency[frontier] & (parent < 0)
        reached = reach.any(axis=0).nonzero()[0]
        first = reach[:, reached].argmax(axis=0)  # each new node's parent, as a frontier position
        rank = first.argsort(kind="stable")
        parent[reached[rank]] = frontier[first[rank]]
        levels.append(reached[rank])
    return np.concatenate(levels), parent


def strongly_connected(adjacency: np.ndarray) -> bool:
    """True iff in the boolean mask's digraph node 0 reaches every node and every node reaches 0."""
    # the search gathers rows, so the reverse search reads a contiguous transposed copy
    return (bfs_tree(adjacency, 0)[1].min() >= 0
            and bfs_tree(np.ascontiguousarray(adjacency.T), 0)[1].min() >= 0)


def check_irreducible(P: TransitionMatrix) -> bool:
    """True iff the support digraph of P is strongly connected."""
    return strongly_connected(P.support)


# rows per block of the residual check, taken in breadth-first order of the
# support so that a block's rows share most of their support
_RESIDUAL_BLOCK_ROWS = 32


def _fundamental_system(p: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """M = I - P + 1 pi^T, built in one n x n array (pi = 1 gives I - P + 1 1^T)."""
    m = np.negative(p)
    m.flat[::p.shape[0] + 1] += 1.0
    m += pi[None, :]
    return m


def _fundamental_residual(P: TransitionMatrix, pi: np.ndarray, z: np.ndarray) -> float:
    """max|M Z - I| for M = I - P + 1 pi^T, as max|Z - P Z + 1 (pi^T Z) - I|; NaN if Z has one.

    The rows go in blocks of `_RESIDUAL_BLOCK_ROWS` in the order of
    `TransitionMatrix.support_tree`.  A block multiplies the columns of P
    that its rows' support touches by those rows of Z, or all of Z when
    they are more than half of it, since gathering that many rows of Z
    costs more than the products it saves.
    """
    p, n = P.p, P.n
    order = P.support_tree[0]
    pi_z = pi @ z
    worst = []
    for start in range(0, n, _RESIDUAL_BLOCK_ROWS):
        rows = order[start:start + _RESIDUAL_BLOCK_ROWS]
        block = p[rows]
        cols = np.flatnonzero(P.support[rows].any(axis=0))
        lhs = block[:, cols] @ z[cols] if 2 * len(cols) <= n else block @ z
        np.subtract(z[rows], lhs, out=lhs)
        lhs += pi_z
        lhs[np.arange(len(rows)), rows] -= 1.0
        worst.append(np.abs(lhs, out=lhs).max())
    return float(np.max(worst))  # np.max, unlike max, keeps a NaN


def _invert_lower(l: np.ndarray) -> None:
    """Invert the lower-triangular l in place, by halves as LAPACK's trtri does.

    [[L11, 0], [L21, L22]]^-1 = [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]]:
    both diagonal halves are inverted first, then L21 is overwritten.
    Blocks of at most `_TRIANGULAR_LEAF_ROWS` rows go to np.linalg.inv.
    """
    n = l.shape[0]
    if n <= _TRIANGULAR_LEAF_ROWS:
        l[...] = np.tril(np.linalg.inv(l))  # the LU solve may leave rounding above the diagonal
        return
    h = n // 2
    _invert_lower(l[:h, :h])
    _invert_lower(l[h:, h:])
    l[h:, :h] = (l[h:, h:] @ l[h:, :h]) @ l[:h, :h]
    np.negative(l[h:, :h], out=l[h:, :h])


def _reversible_inverse(p: np.ndarray, pi: np.ndarray) -> np.ndarray | None:
    """Z = M^-1 through a Cholesky factor; None if S is not symmetric or the factor fails.

    D^1/2 M D^-1/2 = I - S + sqrt(pi) sqrt(pi)^T for S = D^1/2 P D^-1/2,
    which is symmetric exactly when P is reversible with stationary
    distribution pi.  When max|S - S^T| is at most `_SYMMETRIC_INVERSE_ULPS`
    eps max|S|, np.linalg.cholesky, which reads only the lower triangle,
    factors A = L L^T, the symmetric matrix on that triangle; A is within
    half that asymmetry of I - (S + S^T)/2 + sqrt(pi) sqrt(pi)^T.  For an
    irreducible reversible chain A is positive definite: the eigenvalues
    1 - lambda of I - S are positive except on sqrt(pi), a unit vector,
    which A maps to itself.  With l = L^-1, Z = D^-1/2 l^T l D^1/2.
    """
    root = np.sqrt(pi)
    a = np.multiply(p, root[:, None])  # a holds S until A overwrites it
    a /= root[None, :]
    gap = np.subtract(a, a.T)
    np.abs(gap, out=gap)
    if not gap.max() <= _SYMMETRIC_INVERSE_ULPS * np.finfo(float).eps * a.max():
        return None
    del gap
    np.negative(a, out=a)
    a.flat[::p.shape[0] + 1] += 1.0
    a += np.outer(root, root)
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    del a
    _invert_lower(l)
    z = l.T @ l  # numpy runs a product of an array with its transpose as one syrk
    del l
    z /= root[:, None]
    z *= root[None, :]
    return z


def _detailed_balance(P: TransitionMatrix) -> np.ndarray | None:
    """pi from detailed balance down a breadth-first tree of the support, or None.

    From terminal 0, each terminal v first reached from u gets
    pi_v = pi_u P_uv / P_vu, and the result is normalised.  For a reversible
    P every tree gives its stationary distribution (Kelly 1979, ch. 1); for
    any other P the caller's residual test decides whether it is
    stationary.  A zero P_vu, or an overflow or underflow on the way, leaves
    a zero, infinite or NaN entry, and the result is None.  P must be
    irreducible, so that the tree (`TransitionMatrix.support_tree`) spans
    every terminal.
    """
    p = P.p
    order, parent = P.support_tree
    child = order[1:]
    up = parent[child]
    pi = [0.0] * P.n
    pi[0] = 1.0
    with np.errstate(all="ignore"):
        for v, u, ratio in zip(child.tolist(), up.tolist(), (p[up, child] / p[child, up]).tolist()):
            pi[v] = pi[u] * ratio
        pi = np.array(pi)
        pi /= pi.sum()  # an infinite entry leaves every entry NaN or zero
    return pi if np.all(pi > 0) else None


def stationary_distribution(P: TransitionMatrix) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 for an irreducible P.

    A reversible P takes pi from detailed balance, pi_u P_uv = pi_v P_vu,
    along a breadth-first tree of its support (`_detailed_balance`): O(n^2)
    time and no n x n float temporary.  That pi is returned when it passes the
    test below.  Otherwise (a non-reversible P, a support that is not
    symmetric) pi comes from the square system (I - P + 1 1^T)^T pi^T = 1
    (Stewart 1994, ch. 2).  Its matrix is nonsingular for every
    irreducible P: if (I - P + 1 1^T) y = 0, left-multiplying by pi gives
    1^T y = 0, so (I - P) y = 0, y is constant and therefore zero.  The
    returned vector is positive and satisfies max|pi P - pi| <= 1e-10, or a
    NumericalError reports the solve's residual.
    """
    if not check_irreducible(P):
        raise ReducibleChainError("chain is reducible; stationary distribution not unique")
    pi = _detailed_balance(P)
    if pi is not None and np.max(np.abs(pi @ P.p - pi)) <= TOL.pi_solve_residual:
        return pi
    ones = np.ones(P.n)
    pi = np.linalg.solve(_fundamental_system(P.p, ones).T, ones)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ P.p - pi)))
    if not (residual <= TOL.pi_solve_residual and np.all(pi > 0)):  # a NaN fails it
        raise NumericalError(
            f"stationary solve failed (residual {residual:.3e}, min pi {pi.min():.3e})")
    return pi


def fundamental_matrix(P: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    """Z = (I - P + Pi)^-1 where Pi has every row equal to pi.

    Above 128 terminals, a chain whose S = D^1/2 P D^-1/2 is symmetric to
    rounding level (a reversible chain with its stationary pi) takes the
    Cholesky inverse of `_reversible_inverse`, in about 0.6x the LU
    inverse's time with the same forward error.  Every other chain, every
    chain of at most 128 terminals (where the LU inverse is as fast or
    faster) and a system the factorisation finds not positive definite
    take the LU inverse of M = I - P + 1 pi^T.  Either Z must pass
    max|M Z - I| <= TOL.fundamental_residual, checked on the support of P
    by `_fundamental_residual`, or a NumericalError reports the residual.
    """
    pi = np.asarray(pi, dtype=float)
    if not np.max(np.abs(pi @ P.p - pi)) <= TOL.design_pi_residual:  # a NaN fails it
        raise ValueError("pi is not stationary for P within tolerance")
    z = _reversible_inverse(P.p, pi) if P.n > _CHOLESKY_MIN_N else None
    if z is None:
        z = np.linalg.inv(_fundamental_system(P.p, pi))
    residual = _fundamental_residual(P, pi, z)
    if not residual <= TOL.fundamental_residual:
        cond = float(np.linalg.cond(_fundamental_system(P.p, pi)))
        raise NumericalError(
            f"fundamental solve residual {residual:.3e} (condition estimate {cond:.3e}"
            f"{' > limit' if cond > TOL.condition_limit else ''})")
    return z


def slem(P: TransitionMatrix) -> float:
    """Second-largest eigenvalue modulus of P, from the general eigensolver.

    Emits a PeriodicityWarning when a second eigenvalue sits on the unit
    circle (periodic chain): the value is then 1 and mixing surrogates
    carry no information.
    """
    moduli = np.sort(np.abs(np.linalg.eigvals(P.p)))[::-1]
    value = float(moduli[1]) if len(moduli) > 1 else 0.0
    if value >= _PERIODIC_EIGENVALUE_CUTOFF:
        warnings.warn("chain is periodic; SLEM equals 1 and mixing diagnostics are meaningless",
                      PeriodicityWarning, stacklevel=2)
    return value


def analyze(P: TransitionMatrix, pi: np.ndarray | None = None) -> ChainAnalysis:
    """Bundle stationary distribution, fundamental matrix and discrepancy.

    The SLEM is left to the first read of ``ChainAnalysis.slem``, so this
    never warns PeriodicityWarning: every quantity it returns is valid for
    periodic irreducible chains too.

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
    z = fundamental_matrix(P, pi)  # checks that pi is stationary for P
    deviation = np.subtract(z, pi[None, :])
    return ChainAnalysis(
        matrix=P,
        pi=pi,
        z=z,
        z_diag=np.diag(z).copy(),
        discrepancy=float(np.abs(deviation, out=deviation).sum(axis=1).max()),
    )

