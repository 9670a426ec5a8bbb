"""Linear programming core.

A small, self-contained LP toolkit: a builder type with named variables and
labeled constraints, a bounded-variable two-phase revised simplex with
Bland's rule (deterministic: identical inputs give identical outputs), dual
extraction by constraint label, post-solve optimality certificates, and exact
dual multiplicity ranges computed over the optimal dual face.

A solve starts on one of three paths (``SolveStats.start``), and each ends
in the same phase 2. ``CRASHED``: a given starting point that is a feasible
vertex gets a basis crashed at it; each dual-face solve starts so at the
published dual. ``FEASIBLE_START``: with every column on a bound (free ones
at 0) the row slacks fit their bounds, and elimination gives each row its
lowest-index usable pivot; an LP without rows starts here. ``PHASE_1``:
otherwise, with artificials still basic driven out before phase 2.

Conventions
-----------
* ``sense`` is ``"max"`` or ``"min"``; bounds may be ``+-math.inf``, but
  not NaN, a lower bound of ``+inf`` or an upper bound of ``-inf``.
* Reported duals are oriented for the problem as stated: for a ``max``
  problem a binding ``<=`` row has a nonnegative dual.
* Tolerances (``docs/decisions.md`` tabulates their scaling): ``EPS``
  (1e-7) for certificates, phase 1's infeasibility verdict and a published
  dual's place in its range; ``_PIVOT_EPS`` (1e-9) for pivots, improving
  reduced costs and a crash's bound test; ``_RATIO_TIE`` (1e-12) for ties
  in the ratio test; ``_SINGULAR`` (1e-12) for a singular basis LU;
  ``_START_TOL`` (1e-12) for a feasible start's slacks; ``_ANCHOR_TOL``
  (1e-9) for how close an optimal column value or row slack must be to a
  bound for the dual face to count it as sitting there.
* ``_REFACTOR`` (64) is the number of basis changes between fresh
  factorizations of the basis.

The simplex keeps the LU factorization of its basis across pivots in
product form (Dantzig & Orchard-Hays, 1954), with the etas held as one
block (``_Factor``): each basis change adds the entering column's FTRAN,
less the unit vector of its leaving row, as a column of ``G``, and a row
to a small lower triangle ``L``. Applying every eta is then one
triangular solve with ``L`` and one product with ``G``, however many there
are, so FTRAN and BTRAN each make a fixed number of LAPACK and numpy
calls. The basis is factored afresh every ``_REFACTOR`` changes, and phase
2 starts on phase 1's final factor when no artificial column was driven
out. Pricing and the ratio test may use the updated factor, but every
verdict (optimal, unbounded) is reached again at a fresh factorization, so
reported duals always come from a fresh LU of the final basis. The pivot
path is the one a solve that refactors at every pivot takes: Bland's rule
for the entering column and the ``_RATIO_TIE`` rule for the leaving one.
Basic values are updated along the path and never recomputed; the
certificate check guards against drift. ``LpSolution.stats`` counts what a
solve did.

Pricing computes the reduced costs ``c - A.T @ y`` from the entries of
``A`` alone, not from the dense product: the standard form keeps the
coefficients as (row, column, value) arrays in row order with the slack
identity last, and phase 1 appends its artificial diagonal. Each column's
terms so add up in row order. The basis factorization, the start paths and
the certificate check use the dense ``A``, so the certificate stays an
independent check of the pricing.

Ranging builds one dual face per ranged solution: the duals complementary
to the optimal primal (Jansen, de Jong, Roos & Terlaky, EJOR 101, 1997),
whose finite endpoints are bid or bucket prices, or 0, up to rounding.
Every label's range solves the same face; only its objective, a single 1.0
on the label's dual, changes between labels. So ``dual_range`` keeps the
face on the primal LP for the solution it ranges, and ``solve`` keeps each
LP's standard form (its constraints, no objective) and the basis crashed at
the last ``start``: ranging T labels builds, standardizes and crashes the
face once and runs 2T certified phase-2 solves on it, each from the crash
at the published dual. ``stationarity_op`` is the rule that reads, from an
optimal column value or row slack, which side of its stationarity row the
face keeps; ``artifact.clearing`` applies the same rule to range the
storage-chain clearings without a face. Adding a variable or a row to an LP
drops what it keeps. An LP is a mutable builder, used from one thread at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg import lu, lu_factor
from scipy.linalg.lapack import dgetrs, dtrtrs

from .errors import LpNumericalError

EPS = 1e-7
_PIVOT_EPS = 1e-9
_RATIO_TIE = 1e-12
_SINGULAR = 1e-12
_START_TOL = 1e-12
_ANCHOR_TOL = 1e-9
_REFACTOR = 64

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

CRASHED = "crashed"
FEASIBLE_START = "feasible start"
PHASE_1 = "phase 1"

# the bounds of the slack s = b - a.x of a row ``a.x op b``
_SLACK_BOUNDS = {"<=": (0.0, math.inf), "==": (0.0, 0.0),
                 ">=": (-math.inf, 0.0)}
_OPS = tuple(_SLACK_BOUNDS)


class LinearProgram:
    """Mutable LP builder with named variables and labeled constraints.

    An LP keeps what its solves can reuse: its standard form (with the
    basis crashed at the last ``start``) and the dual face of its last
    ranged solution. Adding a variable or a row drops both. An LP is built
    and solved from one thread at a time."""

    def __init__(self, name: str = "lp", sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.name = name
        self.sense = sense
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._rows: list[tuple[str, dict[str, float], str, float]] = []
        self._labels: set[str] = set()
        self._standard: _Standard | None = None
        # (solution, face, sign, start) of the last ranged solution
        self._face: tuple | None = None

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, lb: float = 0.0, ub: float = math.inf,
                     objective: float = 0.0) -> int:
        """Add a variable with bounds ``lb <= x <= ub``; returns its index."""
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        if not lb <= ub or lb == math.inf or ub == -math.inf:
            raise ValueError(f"variable {name!r} has bounds [{lb}, {ub}]")
        self._standard = self._face = None
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(objective))
        return self._index[name]

    def add_constraint(self, label: str, coeffs: dict[str, float], op: str,
                       rhs: float) -> None:
        """Add a labeled row ``sum(coeffs[name] * x[name]) op rhs``."""
        if op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {op!r}")
        if label in self._labels:
            raise ValueError(f"duplicate constraint label {label!r}")
        for name in coeffs:
            if name not in self._index:
                raise ValueError(f"constraint {label!r} uses unknown variable {name!r}")
        self._standard = self._face = None
        self._labels.add(label)
        self._rows.append((label, dict(coeffs), op, float(rhs)))

    # -- introspection -----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self._names)

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def constraint_labels(self) -> tuple[str, ...]:
        return tuple(r[0] for r in self._rows)

    def bounds(self, name: str) -> tuple[float, float]:
        j = self._index[name]
        return self._lb[j], self._ub[j]

    def objective_coefficient(self, name: str) -> float:
        return self._obj[self._index[name]]


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the four optimality certificates for one solve."""

    primal_residual: float
    dual_residual: float
    complementarity_residual: float
    duality_gap: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return (self.primal_residual <= self.tolerance
                and self.dual_residual <= self.tolerance
                and self.complementarity_residual <= self.tolerance
                and self.duality_gap <= self.tolerance)


@dataclass
class PhaseStats:
    """Counts from one simplex phase."""

    pivots: int = 0
    bound_flips: int = 0
    # fresh LU factorizations of the basis: the first, the refreshes every
    # _REFACTOR basis changes, and the confirmations
    factorizations: int = 0
    # verdicts reached on an updated factor and taken again at a fresh one
    confirmations: int = 0
    # pivots whose step is 0: the basis changes, the point does not
    degenerate_pivots: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SolveStats:
    """What one solve did. ``start`` is ``CRASHED``, ``FEASIBLE_START`` or
    ``PHASE_1``; ``phase_1`` is None unless phase 1 ran and ``phase_2`` is
    None when phase 1 proved the LP infeasible. ``drive_outs`` counts the
    basis factorizations made driving artificial columns out after phase
    1."""

    start: str
    phase_1: PhaseStats | None
    phase_2: PhaseStats | None
    drive_outs: int = 0

    @property
    def factorizations(self) -> int:
        return self.drive_outs + sum(p.factorizations for p in self._phases())

    @property
    def pivots(self) -> int:
        return sum(p.pivots for p in self._phases())

    def _phases(self) -> list[PhaseStats]:
        return [p for p in (self.phase_1, self.phase_2) if p is not None]


@dataclass(frozen=True)
class LpSolution:
    """Result of one solve: status, objective in the stated sense, primal
    values by variable name, duals by constraint label. ``stats`` is
    telemetry: it takes no part in equality and is never reported."""

    status: str
    objective: float
    primal: dict[str, float]
    duals: dict[str, float]
    certificate: CertificateReport | None = None
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# standardization: internal minimization with equality rows and slack columns
# ---------------------------------------------------------------------------

class _Standard:
    """Internal min-form constraints A x = b, lb <= x <= ub, where columns
    [0, n) are the user's variables and [n, n+m) are row slacks, with
    ``b_scale = max(1, max|b|)``. No objective (``_objective`` reads that
    at each solve): it holds while the LP gains no variable or row."""

    def __init__(self, lp: LinearProgram):
        self.n = n = lp.n_variables
        self.m = m = lp.n_constraints
        self._crash_key: bytes | None = None
        self._crashed = None
        self.lb = np.concatenate([np.asarray(lp._lb, dtype=float), np.zeros(m)])
        self.ub = np.concatenate([np.asarray(lp._ub, dtype=float), np.zeros(m)])
        self.b = np.zeros(m)
        rows, cols, vals = [], [], []
        for i, (_label, coeffs, op, rhs) in enumerate(lp._rows):
            for name, coef in coeffs.items():
                rows.append(i)
                cols.append(lp._index[name])
                vals.append(coef)
            self.b[i] = rhs
            self.lb[n + i], self.ub[n + i] = _SLACK_BOUNDS[op]
        # A's entries in row order, the slack identity last, so that
        # pricing adds each column's terms in row order
        rows += range(m)
        cols += range(n, n + m)
        vals += [1.0] * m
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float) + 0.0  # -0.0 -> 0.0
        self.A = np.zeros((m, n + m))
        self.A[rows, cols] = vals
        self.entries = rows, cols, vals
        self.b_scale = max(1.0, float(np.max(np.abs(self.b), initial=0.0)))

    def crash(self, start: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``_crash_basis(self, start)``, kept for the last ``start`` (by its
        exact bytes). Hands out copies: phase 2 moves the point, the states
        and the basis in place."""
        key = start.tobytes()
        if key != self._crash_key:
            self._crash_key, self._crashed = key, _crash_basis(self, start)
        if self._crashed is None:
            return None
        return tuple(a.copy() for a in self._crashed)


def _objective(lp: LinearProgram, m: int) -> tuple[float, np.ndarray]:
    """The sign that turns the LP's sense into a minimization, and the
    min-form cost vector over its columns and ``m`` row slacks."""
    sign = -1.0 if lp.sense == "max" else 1.0
    return sign, np.concatenate([sign * np.asarray(lp._obj, dtype=float),
                                 np.zeros(m)])


def _initial_point(std: _Standard) -> tuple[np.ndarray, np.ndarray]:
    """Nonbasic start: each column at its finite lower bound, else at its
    finite upper bound, else free at 0."""
    has_lb, has_ub = std.lb > -math.inf, std.ub < math.inf
    x = np.where(has_lb, std.lb, np.where(has_ub, std.ub, 0.0))
    state = np.where(has_lb, _AT_LOWER,
                     np.where(has_ub, _AT_UPPER, _FREE)).astype(np.int8)
    return x, state


def _factor(A: np.ndarray, basis: np.ndarray):
    B = A[:, basis]
    lu, piv = lu_factor(B, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(1.0, float(np.max(np.abs(B))))
    if not np.all(np.isfinite(lu)) or float(np.min(diag)) < _SINGULAR * scale:
        raise LpNumericalError("singular basis matrix")
    return lu, piv


def _getrs(lu, b: np.ndarray, trans: int) -> np.ndarray:
    """``lu_solve(lu, b, trans)`` without its argument handling: the same
    LAPACK call, so the same bits."""
    x, info = dgetrs(lu[0], lu[1], b, trans=trans)
    if info:
        raise LpNumericalError(f"dgetrs rejected argument {-info}")
    return x


def _trtrs(L: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve with the lower triangle ``L`` (``trans`` 1: its transpose) by
    LAPACK ``dtrtrs``, called as ``_getrs`` calls ``dgetrs``."""
    x, info = dtrtrs(L, b, lower=1, trans=trans)
    if info:
        raise LpNumericalError(f"dtrtrs failed with info {info}")
    return x


class _Factor:
    """The LU of a basis ``B0`` and the ``k`` basis changes made since, as
    one eta block: ``B = B0 E1 ... Ek`` with ``Ej = I + g_j e_rj^T``, where
    ``r_j`` is the leaving row, ``w_j`` the entering column's FTRAN and
    ``g_j = w_j - e_rj``. ``G`` holds the ``g_j`` as columns and ``L`` is
    lower triangular with ``L[j, i] = G[r_j, i]`` (i < j) and
    ``L[j, j] = w_j[r_j]``: applying the k eta inverses in turn is one
    triangular solve with ``L`` and one product with ``G``, and a leaving
    row may repeat. Room for ``_REFACTOR`` changes is allocated once and
    serves every factorization of a solve; ``lu`` is None while the basis
    awaits one."""

    def __init__(self, m: int):
        self.lu = None
        self.G = np.empty((m, _REFACTOR), order="F")
        self.L = np.zeros((_REFACTOR, _REFACTOR), order="F")
        self.r = np.empty(_REFACTOR, dtype=np.intp)
        self.k = 0

    def refresh(self, A: np.ndarray, basis: np.ndarray) -> None:
        """Factor the basis ``A[:, basis]`` afresh, with no eta."""
        self.lu = _factor(A, basis)
        self.k = 0

    def update(self, r: int, w: np.ndarray) -> None:
        """Append the basis change that puts FTRAN column ``w`` in row
        ``r``."""
        k = self.k
        self.G[:, k] = w
        self.G[r, k] -= 1.0
        self.L[k, :k] = self.G[r, :k]
        self.L[k, k] = w[r]
        self.r[k] = r
        self.k = k + 1

    def ftran(self, a: np.ndarray) -> np.ndarray:
        """``B^-1 a``: solve with the LU of ``B0``, then apply the etas."""
        z = _getrs(self.lu, a, 0)
        k = self.k
        if k:
            z -= self.G[:, :k] @ _trtrs(self.L[:, :k], z[self.r[:k]], 0)
        return z

    def btran(self, v: np.ndarray) -> np.ndarray:
        """``B^-T v``: apply the transposed etas, then solve with the
        transposed LU of ``B0``."""
        k = self.k
        if k:
            t = _trtrs(self.L[:, :k], self.G[:, :k].T @ v, 1)
            v = v - np.bincount(self.r[:k], weights=t, minlength=len(v))
        return _getrs(self.lu, v, 1)


def _pricing(std: _Standard, A: np.ndarray):
    """The reduced costs ``c - A.T @ y`` as a function of ``(c, y)``,
    summed over the entries of ``A``: the standard form's, plus phase 1's
    artificial diagonal when ``A`` has one."""
    rows, cols, vals = std.entries
    if A.shape[1] > std.n + std.m:
        i = np.arange(std.m)
        art = std.n + std.m + i
        rows = np.concatenate([rows, i])
        cols = np.concatenate([cols, art])
        vals = np.concatenate([vals, A[i, art]])
    size = A.shape[1]

    def price(c: np.ndarray, y: np.ndarray) -> np.ndarray:
        return c - np.bincount(cols, weights=vals * y[rows], minlength=size)

    return price


def _entering(rc: np.ndarray, state: np.ndarray, fixed: np.ndarray
              ) -> tuple[int, float]:
    """Bland's rule: the lowest-index movable nonbasic column whose reduced
    cost improves the objective, and its direction (+1 up, -1 down); -1 at
    optimality."""
    eligible = ~fixed & (((state == _AT_LOWER) & (rc < -_PIVOT_EPS))
                         | ((state == _AT_UPPER) & (rc > _PIVOT_EPS))
                         | ((state == _FREE) & (np.abs(rc) > _PIVOT_EPS)))
    first = np.flatnonzero(eligible)
    if not first.size:
        return -1, 0.0
    q = int(first[0])
    if state[q] == _AT_LOWER:
        return q, 1.0
    if state[q] == _AT_UPPER:
        return q, -1.0
    return q, (1.0 if rc[q] < 0 else -1.0)


def _leaving(w: np.ndarray, sigma: float, x: np.ndarray, lb: np.ndarray,
             ub: np.ndarray, basis: np.ndarray, t_best: float
             ) -> tuple[float, int]:
    """Ratio test of a step of the entering column in direction ``sigma``
    against its own bound flip at distance ``t_best``. Returns (step, row of
    the first blocking basic column or -1 for the flip).

    Rows block in row order: a ratio more than ``_RATIO_TIE`` below the
    best so far wins, and one within ``_RATIO_TIE`` of it wins when its
    basic column has the lower index."""
    sw = sigma * w
    up = (sw > _PIVOT_EPS) & (lb[basis] != -math.inf)
    down = (sw < -_PIVOT_EPS) & (ub[basis] != math.inf)
    rows = np.flatnonzero(up | down)
    cols, swr = basis[rows], sw[rows]
    tk = np.where(up[rows], (x[cols] - lb[cols]) / swr,
                  (ub[cols] - x[cols]) / -swr)
    tk = np.where(tk < 0.0, 0.0, tk)
    r_best, j_best = -1, -1
    for k, tkk, jk in zip(rows.tolist(), tk.tolist(), cols.tolist()):
        if tkk < t_best - _RATIO_TIE:
            t_best, r_best, j_best = tkk, k, jk
        elif tkk <= t_best + _RATIO_TIE and (r_best == -1 or jk < j_best):
            t_best, r_best, j_best = min(t_best, tkk), k, jk
    return t_best, r_best


def _run_phase(std: _Standard, A: np.ndarray, c: np.ndarray, lb: np.ndarray,
               ub: np.ndarray, x: np.ndarray, state: np.ndarray,
               basis: np.ndarray, max_iter: int, factor: _Factor
               ) -> tuple[str, np.ndarray, PhaseStats]:
    """Iterate to optimality for cost vector c. Returns (status, duals,
    counts).

    ``factor`` holds the LU of ``basis`` with no eta, or no LU. The basis
    is factored when it has none, and the LU kept across pivots: each basis
    change joins the eta block, and the basis is factored afresh after
    ``_REFACTOR`` changes. A verdict reached on an updated factor is taken
    again at a fresh one, so the duals returned always come from a fresh
    factor of the final basis, and ``factor`` ends holding it.
    """
    m = len(basis)
    fixed = lb == ub
    stats = PhaseStats()
    price = _pricing(std, A)
    while True:
        if stats.pivots + stats.bound_flips >= max_iter:
            raise LpNumericalError(
                f"simplex exceeded {max_iter} iterations (possible cycling)")
        if m and (factor.lu is None or factor.k >= _REFACTOR):
            factor.refresh(A, basis)
            stats.factorizations += 1
        y = factor.btran(c[basis]) if m else np.zeros(0)
        rc = price(c, y)
        q, sigma = _entering(rc, state, fixed)
        if q >= 0:
            w = factor.ftran(A[:, q]) if m else np.zeros(0)
            flip = (ub[q] - lb[q] if lb[q] > -math.inf and ub[q] < math.inf
                    else math.inf)
            t_best, r_best = _leaving(w, sigma, x, lb, ub, basis, flip)
        if q < 0 or not math.isfinite(t_best):
            if factor.k:
                # confirm the verdict at a fresh factorization
                factor.lu = None
                stats.confirmations += 1
                continue
            return (OPTIMAL if q < 0 else UNBOUNDED), y, stats
        # apply the step
        if m:
            x[basis] -= sigma * t_best * w
        x[q] += sigma * t_best
        if r_best == -1:
            # entering column travels to its opposite bound; basis unchanged
            stats.bound_flips += 1
            if sigma > 0:
                x[q] = ub[q]
                state[q] = _AT_UPPER
            else:
                x[q] = lb[q]
                state[q] = _AT_LOWER
        else:
            stats.pivots += 1
            stats.degenerate_pivots += int(t_best == 0.0)
            leave = basis[r_best]
            if sigma * w[r_best] > 0:
                x[leave] = lb[leave]
                state[leave] = _AT_LOWER
            else:
                x[leave] = ub[leave]
                state[leave] = _AT_UPPER
            basis[r_best] = q
            state[q] = _BASIC
            factor.update(r_best, w)


def _feasible_start_basis(std: _Standard, x: np.ndarray,
                          state: np.ndarray) -> np.ndarray | None:
    """If the nonbasic start satisfies every row once slacks take their
    natural activity values, place those slacks, build a deterministic basis
    (lowest-index usable pivot per row, interior slacks forced basic), and
    return it. Returns None, writing nothing, when the start is
    infeasible."""
    n, m = std.n, std.m
    lo, hi = std.lb[n:], std.ub[n:]
    want = std.b - std.A[:, :n] @ x[:n]
    tol = _START_TOL * std.b_scale
    if np.any(want < lo - tol) or np.any(want > hi + tol):
        return None
    slack = np.minimum(np.maximum(want, lo), hi)
    # interior slacks go basic, others to the nearer bound (lower on a tie)
    forced = (slack > lo + tol) & (slack < hi - tol)
    upper = ~forced & (slack - lo > hi - slack)
    x[n:] = np.where(forced, want, np.where(upper, hi, lo))
    state[n:] = np.where(forced, _BASIC, np.where(upper, _AT_UPPER, _AT_LOWER))
    basis = np.where(forced, n + np.arange(m), -1)
    W = std.A.copy()
    for i in np.flatnonzero(~forced):
        usable = np.flatnonzero((state != _BASIC)
                                & (np.abs(W[i]) > _PIVOT_EPS))
        # a dependent row keeps its own slack, basic at a bound
        pivot = int(usable[0]) if usable.size else n + i
        basis[i] = pivot
        state[pivot] = _BASIC
        W[i] = W[i] / W[i, pivot]
        rows = np.flatnonzero(W[:, pivot])
        rows = rows[rows != i]
        W[rows] = W[rows] - W[rows, pivot, None] * W[i]
    return basis


def _drive_out_artificials(A: np.ndarray, state: np.ndarray,
                           basis: np.ndarray, n_real: int) -> int:
    """Replace basic artificial columns (all at value zero after a feasible
    phase 1) with the lowest-index real column having a usable pivot. An
    artificial without one (a redundant row) stays basic. Returns the number
    of basis factorizations made, one per artificial."""
    arts = np.flatnonzero(basis >= n_real)
    for k in arts:
        ek = np.zeros(len(basis))
        ek[k] = 1.0
        row = _getrs(_factor(A, basis), ek, 1) @ A[:, :n_real]
        usable = np.flatnonzero((state[:n_real] != _BASIC)
                                & (np.abs(row) > _PIVOT_EPS))
        if usable.size:
            state[basis[k]] = _AT_LOWER
            basis[k] = usable[0]
            state[basis[k]] = _BASIC
    return len(arts)


def _crash_basis(std: _Standard, start: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Build a feasible basis at a given point of the structural columns.

    Columns strictly inside their bounds (free ones: away from 0) become
    basic: structural ones on pivot rows taken from a partial-pivoting LU of
    their tight-row block, slacks of non-tight rows in their own rows. Every
    other row keeps its own slack; nonbasic columns rest on the bound they
    sit on (free ones at 0) and basic values are recomputed from the basis.
    Returns (x, state, basis), or None when the point is infeasible beyond a
    scale-aware tolerance or its interior columns are dependent (it is not
    a vertex).
    """
    n, m = std.n, std.m
    A, lb, ub = std.A, std.lb, std.ub
    x = np.concatenate([start, std.b - A[:, :n] @ start])
    if not np.all(np.isfinite(x)):
        return None
    tol = _PIVOT_EPS * max(float(np.max(np.abs(x))), std.b_scale)
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return None
    at_lower = (lb > -math.inf) & (x <= lb + tol)
    at_upper = ~at_lower & (ub < math.inf) & (x >= ub - tol)
    free_at_zero = (lb == -math.inf) & (ub == math.inf) & (np.abs(x) <= tol)
    interior = ~(at_lower | at_upper | free_at_zero)
    cols = np.flatnonzero(interior[:n])
    tight = np.flatnonzero(~interior[n:])
    basis = np.arange(n, n + m)
    if cols.size:
        if cols.size > tight.size:
            return None
        block = A[np.ix_(tight, cols)]
        perm, _lower, upper = lu(block, p_indices=True, check_finite=False)
        if float(np.min(np.abs(np.diag(upper)))) <= (
                _PIVOT_EPS * max(1.0, float(np.max(np.abs(block))))):
            return None
        basis[tight[np.argsort(perm)[:cols.size]]] = cols
    state = np.where(at_lower, _AT_LOWER,
                     np.where(at_upper, _AT_UPPER, _FREE)).astype(np.int8)
    state[basis] = _BASIC
    x = np.where(at_lower, lb, np.where(at_upper, ub, 0.0))
    x[basis] = 0.0
    # basic values: the interior columns from their pivot rows, then every
    # other row's own slack takes up what is left of its row
    rest = std.b - A @ x
    pivot = basis < n
    on_pivot = basis[pivot]
    x[on_pivot] = np.linalg.solve(A[np.ix_(pivot, on_pivot)], rest[pivot])
    rest -= A[:, on_pivot] @ x[on_pivot]
    x[basis[~pivot]] = rest[~pivot]
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return None
    return x, state, basis


def _solve_reference(std: _Standard, c: np.ndarray,
                     start: np.ndarray | None = None
                     ) -> tuple[str, np.ndarray, np.ndarray, SolveStats]:
    """Bounded simplex for the min-form costs ``c``. Phase 2 starts from a
    basis crashed at ``start`` when that is a feasible vertex, else from a
    feasible nonbasic start, else after phase 1. Returns (status, x,
    internal duals, counts)."""
    total = std.n + std.m
    m = std.m
    max_iter = 50 * (total + m)
    A, lb, ub = std.A, std.lb, std.ub
    phase_1, drive_outs, factor = None, 0, _Factor(m)
    crashed = std.crash(start) if start is not None and m else None
    if crashed is not None:
        path, (x, state, basis) = CRASHED, crashed
    else:
        x, state = _initial_point(std)
        basis = _feasible_start_basis(std, x, state)
        path = FEASIBLE_START if basis is not None else PHASE_1
    if basis is None:
        residual = std.b - A @ x
        art_sign = np.where(residual >= 0, 1.0, -1.0)
        A = np.hstack([A, np.diag(art_sign)])
        lb = np.concatenate([lb, np.zeros(m)])
        ub = np.concatenate([ub, np.full(m, math.inf)])
        x = np.concatenate([x, np.abs(residual)])
        state = np.concatenate([state, np.full(m, _BASIC, dtype=np.int8)])
        basis = np.arange(total, total + m)
        c1 = np.concatenate([np.zeros(total), np.ones(m)])
        status, _y, phase_1 = _run_phase(std, A, c1, lb, ub, x, state, basis,
                                         max_iter, factor)
        if status != OPTIMAL:
            raise LpNumericalError("phase 1 terminated abnormally")
        if float(x[total:].sum()) > EPS * std.b_scale:
            return (INFEASIBLE, x[:std.n], np.zeros(m),
                    SolveStats(PHASE_1, phase_1, None))
        drive_outs = _drive_out_artificials(A, state, basis, total)
        if drive_outs:
            # phase 1's final factor may not be of phase 2's basis
            factor.lu = None
        # artificials, basic ones included, are pinned at zero and priced
        # out for phase 2
        lb[total:] = ub[total:] = 0.0
        c = np.concatenate([c, np.zeros(m)])
    status, y, phase_2 = _run_phase(std, A, c, lb, ub, x, state, basis,
                                    max_iter, factor)
    return status, x[:std.n], y, SolveStats(path, phase_1, phase_2, drive_outs)


def check_certificates(lp: LinearProgram,
                       solution: LpSolution) -> CertificateReport:
    """Verify primal feasibility, dual feasibility, complementary slackness,
    and strong duality for an optimal (primal, dual) pair, to ``EPS``."""
    std = _Standard(lp)
    sign, c = _objective(lp, std.m)
    x = np.array([solution.primal[name] for name in lp.variable_names], dtype=float)
    y_user = np.array([solution.duals[label] for label in lp.constraint_labels],
                      dtype=float)
    return _certify(std, c, x, sign * y_user)


def _certify(std: _Standard, c: np.ndarray, x: np.ndarray,
             y: np.ndarray) -> CertificateReport:
    """Certificate residuals of structural values ``x`` and internal
    min-form duals ``y`` for the costs ``c`` against one standard form,
    judged to ``EPS``."""
    n = std.n
    # recover slack values from row activities
    xe = np.concatenate([x, std.b - std.A[:, :n] @ x])
    scale = max(std.b_scale, _max0(np.abs(xe)))
    primal_res = max(_max0(std.lb - xe), _max0(xe - std.ub))
    rc = c - std.A.T @ y
    # internal min form: positive rc must rest on a finite lower bound,
    # negative rc on a finite upper bound
    on_lb = (rc > 0) & (std.lb > -math.inf)
    on_ub = (rc < 0) & (std.ub < math.inf)
    dual_res = max(_max0(rc[(rc > 0) & ~on_lb]), _max0(-rc[(rc < 0) & ~on_ub]))
    comp_res = max(_max0(rc[on_lb] * (xe[on_lb] - std.lb[on_lb]) / scale),
                   _max0(-rc[on_ub] * (std.ub[on_ub] - xe[on_ub]) / scale))
    dual_obj = (float(std.b @ y)
                + float(rc[on_lb] @ std.lb[on_lb])
                + float(rc[on_ub] @ std.ub[on_ub]))
    primal_obj = float(c[:n] @ x)
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))
    return CertificateReport(
        primal_residual=float(primal_res) / scale,
        dual_residual=float(dual_res),
        complementarity_residual=float(comp_res),
        duality_gap=float(gap),
        tolerance=EPS,
    )


def _max0(values: np.ndarray) -> float:
    """Largest entry, or 0 when every entry is below 0 or there is none."""
    return max(0.0, float(np.max(values))) if values.size else 0.0


def solve(lp: LinearProgram, start: ArrayLike | None = None) -> LpSolution:
    """Solve the LP. Status is ``optimal``, ``infeasible`` or ``unbounded``;
    optimal solves carry duals by label and a verified certificate report.

    ``start`` optionally gives a feasible point of the variables, in
    declaration order. When it is a vertex the simplex starts there and
    skips phase 1; any other start is ignored.

    The standard form is kept on the LP between solves, and so is the basis
    crashed at the last ``start``: solving again with another objective or
    sense, or from the same start, rebuilds neither.
    """
    std = lp._standard
    if std is None:
        std = lp._standard = _Standard(lp)
    sign, c = _objective(lp, std.m)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (std.n,):
            raise ValueError(f"start has shape {start.shape}, expected "
                             f"({std.n},)")
    status, x, y, stats = _solve_reference(std, c, start)
    if status != OPTIMAL:
        return LpSolution(status=status, objective=math.nan, primal={},
                          duals={}, stats=stats)
    primal = {name: float(x[j]) for j, name in enumerate(lp.variable_names)}
    duals = {label: float(sign * y[i])
             for i, label in enumerate(lp.constraint_labels)}
    objective = float(np.dot(np.asarray(lp._obj, dtype=float), x))
    report = _certify(std, c, x, y)
    if not report.ok:
        raise LpNumericalError(
            f"optimality certificates failed for {lp.name!r}: {report}")
    return LpSolution(status=OPTIMAL, objective=objective, primal=primal,
                      duals=duals, certificate=report, stats=stats)


def dual_range(lp: LinearProgram, solution: LpSolution,
               label: str) -> tuple[float, float]:
    """Exact multiplicity range of one constraint's dual over the optimal dual
    face: the dual feasible points complementary to the optimal primal.
    Finite endpoints are a bid or bucket price, or 0, up to rounding.

    The face is solved twice, for the least and the greatest dual. Both
    solves go through ``solve``, so both are certificate-checked, and both
    start at the published dual: it is the dual of the primal's optimal
    basis and hence a vertex of the face, so phase 2 starts there and phase
    1 is skipped.

    One face serves every label of a solution: only its objective, a single
    1.0 on ``y[label]``, differs between labels. The face is built on the
    first label ranged and kept on ``lp`` for that ``solution`` (by
    identity); each label moves the 1.0 to itself and solves the same face,
    whose standard form and crashed start basis ``solve`` keeps in turn.
    Every label so takes the pivots a freshly built face would take.

    Finite endpoints are attained by optimal dual solutions; the published
    dual lies inside the returned interval. A face that is unbounded in a
    direction gives that endpoint as ``-math.inf`` or ``math.inf``.
    """
    if solution.status != OPTIMAL:
        raise ValueError("dual_range requires an optimal solution")
    if label not in lp._labels:
        raise ValueError(f"unknown constraint label {label!r}")
    if lp._face is None or lp._face[0] is not solution:
        face, sgn = _dual_face(lp, solution, label)
        # the published dual lies on the face: every solve starts there
        start = [sgn * solution.duals[lab] for lab in lp.constraint_labels]
        lp._face = solution, face, sgn, start
    _solution, face, sgn, start = lp._face
    face._obj[face._obj.index(1.0)] = 0.0
    face._obj[face._index[f"y[{label}]"]] = 1.0
    name = f"{lp.name}:dualface:{label}"
    ends = []
    for direction in ("min", "max"):
        # for a min primal the face holds negated duals: query the mirrored
        # extremum and negate back
        face.sense = "min" if (direction == "min") != (sgn < 0) else "max"
        face.name = f"{name}:{direction}"
        sol = solve(face, start=start)
        if sol.status == UNBOUNDED:
            ends.append(-math.inf if direction == "min" else math.inf)
            continue
        if sol.status != OPTIMAL:
            raise LpNumericalError(
                f"dual face for {lp.name!r} is {sol.status}; cannot range "
                f"{label!r}")
        ends.append(sgn * sol.objective)
    lo, hi = ends
    point = solution.duals[label]
    if not (lo - EPS <= point <= hi + EPS):
        raise LpNumericalError(
            f"published dual {point} for {label!r} outside computed range "
            f"[{lo}, {hi}]")
    return lo, hi


def stationarity_op(x: float, lb: float, ub: float) -> str | None:
    """The side of the stationarity row ``y.a_j op c_j`` of a max-form
    column that complementarity with its optimal value ``x`` admits: None
    for a fixed column (no row), ``"<="`` at its upper bound, ``">="`` at
    its lower bound and ``"=="`` strictly between, each bound judged to
    ``_ANCHOR_TOL``. It also reads a row's slack ``b - a.x`` within the
    slack's bounds: the slack column's row is ``y_row op 0``, so a row whose
    slack is beyond ``_ANCHOR_TOL`` has a zero dual."""
    if lb == ub:
        return None
    if ub < math.inf and x >= ub - _ANCHOR_TOL:
        return "<="
    if lb > -math.inf and x <= lb + _ANCHOR_TOL:
        return ">="
    return "=="


def _dual_face(lp: LinearProgram, solution: LpSolution,
               label: str) -> tuple[LinearProgram, float]:
    """The optimal dual face with objective ``y[label]``, and the sign that
    orients its variables: -1 when the primal is a min problem."""
    # The face, in max orientation (a min primal's duals negated), is the
    # dual feasible y complementary to the optimal primal x*. A row's slack
    # column has a 1 in the row and cost 0, so its side is a bound on the
    # row's dual: 0 when inactive, the slack's sign set when active.
    sgn = -1.0 if lp.sense == "min" else 1.0
    x = solution.primal
    face = LinearProgram(name=f"{lp.name}:dualface:{label}")
    cols: dict[str, dict[str, float]] = {name: {} for name in lp.variable_names}
    for lab, coeffs, op, rhs in lp._rows:
        slb, sub = _SLACK_BOUNDS[op]
        side = stationarity_op(
            rhs - sum(coef * x[name] for name, coef in coeffs.items()),
            slb, sub)
        ylb, yub = ((-math.inf, math.inf) if side is None
                    else (0.0, 0.0) if side == "==" else (slb, sub))
        face.add_variable(f"y[{lab}]", lb=ylb, ub=yub,
                          objective=1.0 if lab == label else 0.0)
        for name, coef in coeffs.items():
            cols[name][f"y[{lab}]"] = coef
    for name in lp.variable_names:
        op = stationarity_op(x[name], *lp.bounds(name))
        if op is not None:
            face.add_constraint(f"stationarity[{name}]", cols[name], op,
                                sgn * lp.objective_coefficient(name))
    return face, sgn


def write_lp_text(lp: LinearProgram) -> str:
    """Render the LP as readable text (objective, rows, bounds)."""
    out = [f"\\ {lp.name}"]
    out.append("maximize" if lp.sense == "max" else "minimize")
    out.append("  " + (_linear_text(
        {n: lp.objective_coefficient(n) for n in lp.variable_names
         if lp.objective_coefficient(n)}) or "0"))
    out.append("subject to")
    for label, coeffs, op, rhs in lp._rows:
        op_txt = {"<=": "<=", "==": "=", ">=": ">="}[op]
        out.append(f"  {label}: {_linear_text(coeffs) or '0'} {op_txt} {_num(rhs)}")
    out.append("bounds")
    for name in lp.variable_names:
        vlb, vub = lp.bounds(name)
        if vlb == -math.inf and vub == math.inf:
            out.append(f"  {name} free")
        elif vlb == vub:
            out.append(f"  {name} = {_num(vlb)}")
        else:
            left = "-inf" if vlb == -math.inf else _num(vlb)
            right = "+inf" if vub == math.inf else _num(vub)
            out.append(f"  {left} <= {name} <= {right}")
    out.append("end")
    return "\n".join(out) + "\n"


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _linear_text(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for name, coef in coeffs.items():
        if coef == 0:
            continue
        sign = "-" if coef < 0 else ("+" if parts else "")
        mag = abs(coef)
        term = name if mag == 1 else f"{_num(mag)} {name}"
        parts.append(f"{sign} {term}" if parts else f"{sign}{term}".lstrip())
    return " ".join(parts)
