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
  not NaN, a lower bound of ``+inf`` or an upper bound of ``-inf``;
  objective coefficients, row coefficients and right-hand sides are
  finite. The builder rejects other data with ``ValueError``. Finite data
  whose arithmetic overflows the float range fails ``solve`` or
  ``check_certificates`` with ``LpNumericalError``.
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
* ``_SPARSE_ROWS`` (150) is the basis size from which the basis LU is
  sparse (SuperLU) rather than dense (LAPACK).

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
Bland's rule is one pass over the reduced costs: each column's gain is its
reduced cost times the sign its state gives (``_GAIN_SIGN``; a free
column's gain is its absolute value, a fixed one's 0), and the first gain
above ``_PIVOT_EPS`` enters. The ratio test reads only the rows where the
entering column's FTRAN exceeds ``_PIVOT_EPS`` in magnitude, usually few,
one by one in Python floats.
Basic values are updated along the path and never recomputed; the
certificate check guards against drift. A bound flip changes neither the
basis nor its factor, so the iteration after it prices with the same duals
and reduced costs. ``LpSolution.stats`` counts what a solve did.

The basis LU takes one of two forms, by size alone (``_factor_basis``, the
one place that picks); either gathers the basis columns once from the
CSC a phase reads (below). A basis of fewer than ``_SPARSE_ROWS`` rows is
scattered into a column-major array that ``dgetrf`` (the routine
``scipy.linalg.lu_factor`` wraps, called directly) factors in place, and
``dgetrs`` solves with it. A larger basis goes to SuperLU
(``scipy.sparse.linalg.splu``) as CSC, factored in its given column
order, and ``SuperLU.solve`` solves with it. A storage chain's basis
holds about one nonzero per column, so at a week's 337 rows the dense LU
costs a ``dgetrf`` of the whole square and every solve streams all of it;
below about 150 rows the sparse LU's per-call overhead costs more than it
saves (``docs/decisions.md``). Both forms share the singularity rule, the
eta block and everything else.

The standard form keeps ``A`` as its CSC alone (``_Standard.columns``):
each column's (row, value) entries in row order, the slack identity last.
It is the one matrix: no solve builds a dense ``A``, and a solved LP keeps
no matrix but the LU of a crashed basis (below). Phase 1's artificial
columns are never stored: they are the sign vector ``art_sign``, column
``n + m + i`` being ``art_sign[i]`` in row ``i``, and
``_with_artificials`` forms the CSC of ``[A, diag(art_sign)]`` once per
phase. Every product reads the CSC and adds its terms in a fixed order.
``A @ x`` (``_Standard.product``: the feasible start's and the crash's
row activities, phase 1's residual, the certificate's slacks) adds each
row's terms in column order. ``y @ A`` (pricing's reduced costs, the
drive-out row, the certificate's reduced costs) adds each column's terms
in row order. ``_Standard.product`` and the certificate add with
``_sums`` (``np.add.at``), so that a sum of finite terms that leaves the
float range raises under ``_overflow_raises``, as the BLAS products did;
an inf row activity would otherwise read as an infeasible start. FTRAN
reads the entering column from the CSC, and each dense block is gathered
from it (``_gather``, ``_block``): the LU of a basis below
``_SPARSE_ROWS`` rows, the crash's two blocks, and the feasible start's
elimination workspace, which holds the open rows only. The certificate
check forms its reduced costs with its own product and never calls
``_pricing``: a pricing that hid an improving column would stop early,
and the certificate, which prices every column again, rejects that stop.
The dense BLAS products these replaced added in an order of their own;
of the changed bits only phase 1's residual reached a report, through
the charge-valuation LP, which a sort on price has since replaced
(``docs/decisions.md``).

Ranging builds one dual face per ranged solution: the duals complementary
to the optimal primal (Jansen, de Jong, Roos & Terlaky, EJOR 101, 1997),
whose finite endpoints are bid or bucket prices, or 0, up to rounding.
Every label's range solves the same face; only its objective, a single 1.0
on the label's dual, changes between labels. So ``dual_range`` keeps the
face on the primal LP for the solution it ranges, and ``solve`` keeps each
LP's standard form (its constraints, no objective) and the basis crashed at
the last ``start``, with that basis's LU: ranging T labels builds,
standardizes, crashes and factors the face once and runs 2T certified
phase-2 solves on it, each from the crash at the published dual. A face
LP so keeps its crash's LU while it ranges. ``stationarity_op`` is the
rule that reads, from an optimal column value or row slack, which side of
its stationarity row the face keeps; ``artifact.clearing`` applies the
same rule to range the storage-chain clearings without a face. Adding a
variable or a row to an LP drops what it keeps. An LP is a mutable
builder, used from one thread at a time.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg import lu
from scipy.linalg.lapack import dgetrf, dgetrs, dtrtrs
from scipy.sparse import csc_array
from scipy.sparse.linalg import SuperLU, splu

from .errors import LpNumericalError

EPS = 1e-7
_PIVOT_EPS = 1e-9
_RATIO_TIE = 1e-12
_SINGULAR = 1e-12
_START_TOL = 1e-12
_ANCHOR_TOL = 1e-9
_REFACTOR = 64
_SPARSE_ROWS = 150

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3
# by state: the sign that turns an improving reduced cost into a gain > 0
_GAIN_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])

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
    basis crashed at the last ``start`` and its LU) and the dual face of
    its last ranged solution. Adding a variable or a row drops both. An LP
    is built and solved from one thread at a time."""

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
        self._labels: dict[str, int] = {}
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
        if not math.isfinite(objective):
            raise ValueError(f"variable {name!r} has objective {objective}")
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
        for name, coef in coeffs.items():
            if name not in self._index:
                raise ValueError(f"constraint {label!r} uses unknown variable {name!r}")
            if not math.isfinite(coef):
                raise ValueError(f"constraint {label!r} has coefficient "
                                 f"{coef} on {name!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"constraint {label!r} has rhs {rhs}")
        self._standard = self._face = None
        self._labels[label] = len(self._rows)
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
        return tuple(self._labels)

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
    # fresh LU factorizations of the basis: the first (a crashed start
    # brings its own), the refreshes every _REFACTOR basis changes, and the
    # confirmations
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
    1. ``factorization`` names the basis LU the solve used, ``"dense"`` or
    ``"sparse"``; it takes no part in equality or repr."""

    start: str
    phase_1: PhaseStats | None
    phase_2: PhaseStats | None
    drive_outs: int = 0
    factorization: str = field(default="dense", compare=False, repr=False)

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
    ``b_scale = max(1, max|b|)``. ``A`` is held as its CSC alone
    (``columns``, with ``cols`` the column of each entry); every product
    and dense block reads it, and no dense ``A`` is ever built. No
    objective (``_objective`` reads that at each solve): it holds while
    the LP gains no variable or row."""

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
        # A's entries column by column, as CSC, and each column's in row
        # order, so that pricing adds them in row order
        rows += range(m)
        cols += range(n, n + m)
        vals += [1.0] * m
        order = np.argsort(cols, kind="stable")
        rows = np.asarray(rows, dtype=np.intp)[order]
        self.cols = cols = np.asarray(cols, dtype=np.intp)[order]
        vals = np.asarray(vals, dtype=float)[order] + 0.0  # -0.0 -> 0.0
        # column j's entries are [starts[j], starts[j + 1])
        self.columns = (np.searchsorted(cols, np.arange(n + m + 1)), rows,
                        vals)
        self.b_scale = max(1.0, float(np.max(np.abs(self.b), initial=0.0)))

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A[:, :k] @ x`` for ``k = len(x)``, each row's terms added in
        column order (``_sums``)."""
        starts, rows, vals = self.columns
        end = starts.item(len(x))
        return _sums(rows[:end], vals[:end] * x[self.cols[:end]], self.m)

    def crash(self, start: np.ndarray) -> tuple | None:
        """``_crash_basis(self, start)`` and the LU of its basis, kept for
        the last ``start`` (by its exact bytes). Hands out copies of the
        point, the states and the basis, which phase 2 moves in place, and
        the LU itself, which no solve writes."""
        key = start.tobytes()
        if key != self._crash_key:
            crashed = _crash_basis(self, start)
            if crashed is not None:
                crashed += (_factor_basis(self.columns, crashed[2]),)
            self._crash_key, self._crashed = key, crashed
        if self._crashed is None:
            return None
        *arrays, basis_lu = self._crashed
        return (*(a.copy() for a in arrays), basis_lu)


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


def _with_artificials(columns: tuple, art_sign: np.ndarray) -> tuple:
    """The CSC ``columns`` of ``A`` (as ``_Standard.columns`` holds them)
    extended to ``[A, diag(art_sign)]``: column ``total + i`` is
    ``art_sign[i]`` in row ``i``. Without artificials, ``columns`` itself."""
    if not len(art_sign):
        return columns
    starts, rows, vals = columns
    m = len(art_sign)
    return (np.concatenate([starts, starts[-1] + np.arange(1, m + 1)]),
            np.concatenate([rows, np.arange(m)]),
            np.concatenate([vals, art_sign]))


def _gather(columns: tuple, cols: np.ndarray) -> tuple:
    """The columns ``cols`` of the CSC ``columns``, in that order, as a CSC
    of their own."""
    starts, rows, vals = columns
    first = starts[cols]
    count = starts[cols + 1] - first
    indptr = np.concatenate([[0], np.cumsum(count)])
    at = np.repeat(first - indptr[:-1], count) + np.arange(indptr[-1])
    return indptr, rows[at], vals[at]


def _block(columns: tuple, rows: np.ndarray) -> np.ndarray:
    """The rows of the CSC ``columns`` that the mask ``rows`` selects, in
    order, as a dense column-major array; no other row is ever stored."""
    starts, index, vals = columns
    size, keep = len(starts) - 1, rows[index]
    block = np.zeros((int(np.count_nonzero(rows)), size), order="F")
    block[(np.cumsum(rows) - 1)[index[keep]],
          np.repeat(np.arange(size), np.diff(starts))[keep]] = vals[keep]
    return block


def _sums(index: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """The sums of ``terms`` by ``index`` into ``size`` bins, each bin's in
    entry order. ``np.add.at`` adds them, and not ``np.bincount``, so that
    a sum that overflows raises under ``_overflow_raises``."""
    out = np.zeros(size)
    np.add.at(out, index, terms)
    return out


def _factor_basis(columns: tuple, basis: np.ndarray):
    """The LU of the basis columns of the CSC ``columns``, gathered once:
    SuperLU, factored in the given column order, when the basis has
    ``_SPARSE_ROWS`` rows or more, else LAPACK ``dgetrf`` (the routine
    ``lu_factor`` wraps) on the basis scattered column-major. Either is
    singular, ``LpNumericalError``, when a factor is not finite or a pivot
    is below ``_SINGULAR`` times ``max(1, max|B|)``."""
    m = len(basis)
    indptr, index, data = sub = _gather(columns, basis)
    scale = max(1.0, float(np.abs(data).max(initial=0.0)))
    if m < _SPARSE_ROWS:
        # factored in place; an exact zero pivot fails the test below
        lu, piv, _info = dgetrf(_block(sub, np.ones(m, bool)), overwrite_a=1)
        factor, pivots = (lu, piv), lu.diagonal()
        finite = np.isfinite(lu).all()
    else:
        try:
            factor = splu(csc_array((data, index, indptr), shape=(m, m)),
                          permc_spec="NATURAL")
        except RuntimeError as err:  # "Factor is exactly singular"
            raise LpNumericalError("singular basis matrix") from err
        pivots = factor.U.diagonal()
        finite = (np.isfinite(factor.U.data).all()
                  and np.isfinite(factor.L.data).all())
    if not finite or float(np.abs(pivots).min()) < _SINGULAR * scale:
        raise LpNumericalError("singular basis matrix")
    return factor


def _lu_solve(lu, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve with an LU from ``_factor_basis`` (``trans`` 1: its
    transpose)."""
    if isinstance(lu, SuperLU):
        return lu.solve(b, "T" if trans else "N")
    return _getrs(lu, b, trans)


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
    serves every factorization of a solve; ``lu`` is an LU from
    ``_factor_basis``, dense or sparse, or None while the basis awaits
    one."""

    def __init__(self, m: int):
        self.lu = None
        self.G = np.empty((m, _REFACTOR), order="F")
        self.L = np.zeros((_REFACTOR, _REFACTOR), order="F")
        self.r = np.empty(_REFACTOR, dtype=np.intp)
        self.k = 0

    def refresh(self, columns: tuple, basis: np.ndarray) -> None:
        """Factor the basis of the CSC ``columns`` afresh
        (``_factor_basis``), with no eta."""
        self.lu = _factor_basis(columns, basis)
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
        z = _lu_solve(self.lu, a, 0)
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
        return _lu_solve(self.lu, v, 1)


def _column(columns: tuple, m: int, q: int) -> np.ndarray:
    """Column ``q`` of the CSC ``columns`` of ``m`` rows, dense."""
    starts, rows, vals = columns
    lo, hi = starts.item(q), starts.item(q + 1)
    a = np.zeros(m)
    a[rows[lo:hi]] = vals[lo:hi]
    return a


def _pricing(columns: tuple):
    """The reduced costs ``c - M.T @ y`` of the matrix ``M`` with CSC
    ``columns`` as a function of ``(c, y)``, each column's terms summed in
    row order."""
    starts, rows, vals = columns
    size = len(starts) - 1
    cols = np.repeat(np.arange(size), np.diff(starts))

    def price(c: np.ndarray, y: np.ndarray) -> np.ndarray:
        return c - np.bincount(cols, weights=vals * y[rows], minlength=size)

    return price


def _entering(rc: np.ndarray, state: np.ndarray, fixed: np.ndarray
              ) -> tuple[int, float]:
    """Bland's rule: the lowest-index movable nonbasic column whose reduced
    cost improves the objective, and its direction (+1 up, -1 down); -1 at
    optimality."""
    gain = rc * _GAIN_SIGN.take(state)
    np.abs(rc, out=gain, where=state == _FREE)
    gain[fixed] = 0.0
    q = int((gain > _PIVOT_EPS).argmax())
    if not gain[q] > _PIVOT_EPS:
        return -1, 0.0
    return q, (1.0 if rc[q] < 0 else -1.0)


def _leaving(w: np.ndarray, sigma: float, x: np.ndarray, lb: np.ndarray,
             ub: np.ndarray, basis: np.ndarray, t_best: float
             ) -> tuple[float, int]:
    """Ratio test of a step of the entering column in direction ``sigma``
    (+1 or -1) against its own bound flip at distance ``t_best``. Returns
    (step, row of the first blocking basic column or -1 for the flip).

    Rows block in row order: a ratio more than ``_RATIO_TIE`` below the
    best so far wins, and one within ``_RATIO_TIE`` of it wins when its
    basic column has the lower index. Only rows with ``|w| > _PIVOT_EPS``
    can block, and they are usually few: the loop runs over them in Python
    floats."""
    r_best, j_best = -1, -1
    for k in (np.abs(w) > _PIVOT_EPS).nonzero()[0].tolist():
        j, swk = basis.item(k), sigma * w.item(k)
        bound = lb.item(j) if swk > 0.0 else ub.item(j)
        if math.isinf(bound):
            continue
        tk = ((x.item(j) - bound) / swk if swk > 0.0
              else (bound - x.item(j)) / -swk)
        if tk < 0.0:
            tk = 0.0
        if tk < t_best - _RATIO_TIE:
            t_best, r_best, j_best = tk, k, j
        elif tk <= t_best + _RATIO_TIE and (r_best == -1 or j < j_best):
            t_best, r_best, j_best = min(t_best, tk), k, j
    return t_best, r_best


def _run_phase(std: _Standard, art_sign: np.ndarray, c: np.ndarray,
               lb: np.ndarray, ub: np.ndarray, x: np.ndarray,
               state: np.ndarray, basis: np.ndarray, max_iter: int,
               factor: _Factor) -> tuple[str, np.ndarray, PhaseStats]:
    """Iterate to optimality for cost vector c over the columns of
    ``[A, diag(art_sign)]``; pricing, FTRAN and the basis LU all read its
    CSC. Returns (status, duals, counts).

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
    columns = _with_artificials(std.columns, art_sign)
    price = _pricing(columns)
    flipped = False
    while True:
        if stats.pivots + stats.bound_flips >= max_iter:
            raise LpNumericalError(
                f"simplex exceeded {max_iter} iterations (possible cycling)")
        if m and (factor.lu is None or factor.k >= _REFACTOR):
            factor.refresh(columns, basis)
            stats.factorizations += 1
            flipped = False
        if not flipped:
            # a bound flip changes neither the basis nor its factor: the
            # last y and rc still hold
            y = factor.btran(c[basis]) if m else np.zeros(0)
            rc = price(c, y)
        q, sigma = _entering(rc, state, fixed)
        if q >= 0:
            w = factor.ftran(_column(columns, m, q)) if m else np.zeros(0)
            flip = ub.item(q) - lb.item(q)  # inf when either bound is
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
        flipped = r_best == -1
        if flipped:
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
    want = std.b - std.product(x[:n])
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
    # open rows only: a row's update reads itself and the pivot row alone
    open_rows = np.flatnonzero(~forced)
    W = _block(std.columns, ~forced)
    for k, i in enumerate(open_rows.tolist()):
        usable = np.flatnonzero((state != _BASIC)
                                & (np.abs(W[k]) > _PIVOT_EPS))
        # a dependent row keeps its own slack, basic at a bound
        pivot = int(usable[0]) if usable.size else n + i
        basis[i] = pivot
        state[pivot] = _BASIC
        W[k] = W[k] / W[k, pivot]
        rows = np.flatnonzero(W[:, pivot])
        rows = rows[rows != k]
        W[rows] = W[rows] - W[rows, pivot, None] * W[k]
    return basis


def _drive_out_artificials(columns: tuple, state: np.ndarray,
                           basis: np.ndarray) -> int:
    """Replace basic artificial columns (all at value zero after a feasible
    phase 1) with the lowest-index column of ``A`` having a usable pivot. An
    artificial without one (a redundant row) stays basic. ``columns`` is
    the CSC of ``[A, diag(art_sign)]``, whose basis each LU factors; the
    row of ``B^-1 A`` is the transposed product, each column's terms added
    in row order as pricing adds them. Returns the number of basis
    factorizations made, one per artificial."""
    n_real = len(state) - len(basis)
    price = _pricing(columns)
    arts = np.flatnonzero(basis >= n_real)
    for k in arts:
        ek = np.zeros(len(basis))
        ek[k] = 1.0
        # e_k B^-1 A, as the reduced costs of zero costs at duals -B^-T e_k
        row = price(0.0, -_lu_solve(_factor_basis(columns, basis), ek, 1))
        usable = np.flatnonzero((state[:n_real] != _BASIC)
                                & (np.abs(row[:n_real]) > _PIVOT_EPS))
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
    lb, ub = std.lb, std.ub
    x = np.concatenate([start, std.b - std.product(start)])
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
        block = _block(_gather(std.columns, cols), ~interior[n:])
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
    rest = std.b - std.product(x)
    pivot = basis < n
    x[basis[pivot]] = np.linalg.solve(
        _block(_gather(std.columns, basis[pivot]), pivot), rest[pivot])
    rest -= std.product(np.where(state[:n] == _BASIC, x[:n], 0.0))
    x[basis[~pivot]] = rest[~pivot]
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return None
    return x, state, basis


def _solve_reference(std: _Standard, c: np.ndarray,
                     start: np.ndarray | None = None
                     ) -> tuple[str, np.ndarray, np.ndarray, SolveStats]:
    """Bounded simplex for the min-form costs ``c`` over the standard form,
    every step of which reads its CSC. Phase 2 starts from a basis crashed
    at ``start`` when that is a feasible vertex, else from a feasible
    nonbasic start, else after phase 1, whose artificial columns are the
    signs ``art_sign`` alone: column ``total + i`` is ``art_sign[i]`` in
    row ``i``. Returns (status, x, internal duals, counts)."""
    total = std.n + std.m
    m = std.m
    max_iter = 50 * (total + m)
    lb, ub, art_sign = std.lb, std.ub, np.zeros(0)
    phase_1, drive_outs, factor = None, 0, _Factor(m)
    crashed = std.crash(start) if start is not None and m else None
    if crashed is not None:
        # phase 2 starts on the crash's LU
        path, (x, state, basis, factor.lu) = CRASHED, crashed
    else:
        x, state = _initial_point(std)
        basis = _feasible_start_basis(std, x, state)
        path = FEASIBLE_START if basis is not None else PHASE_1
    if basis is None:
        residual = std.b - std.product(x)
        art_sign = np.where(residual >= 0, 1.0, -1.0)
        lb = np.concatenate([lb, np.zeros(m)])
        ub = np.concatenate([ub, np.full(m, math.inf)])
        x = np.concatenate([x, np.abs(residual)])
        state = np.concatenate([state, np.full(m, _BASIC, dtype=np.int8)])
        basis = np.arange(total, total + m)
        c1 = np.concatenate([np.zeros(total), np.ones(m)])
        status, _y, phase_1 = _run_phase(std, art_sign, c1, lb, ub, x,
                                         state, basis, max_iter, factor)
        if status != OPTIMAL:
            raise LpNumericalError("phase 1 terminated abnormally")
        if float(x[total:].sum()) > EPS * std.b_scale:
            return (INFEASIBLE, x[:std.n], np.zeros(m),
                    SolveStats(PHASE_1, phase_1, None,
                               factorization=_kind(factor)))
        drive_outs = _drive_out_artificials(
            _with_artificials(std.columns, art_sign), state, basis)
        if drive_outs:
            # phase 1's final factor may not be of phase 2's basis
            factor.lu = None
        # artificials, basic ones included, are pinned at zero and priced
        # out for phase 2
        lb[total:] = ub[total:] = 0.0
        c = np.concatenate([c, np.zeros(m)])
    status, y, phase_2 = _run_phase(std, art_sign, c, lb, ub, x, state,
                                    basis, max_iter, factor)
    return status, x[:std.n], y, SolveStats(path, phase_1, phase_2, drive_outs,
                                            _kind(factor))


def _kind(factor: _Factor) -> str:
    """The ``SolveStats.factorization`` of a solve's factor."""
    return "sparse" if isinstance(factor.lu, SuperLU) else "dense"


def check_certificates(lp: LinearProgram,
                       solution: LpSolution) -> CertificateReport:
    """Verify primal feasibility, dual feasibility, complementary slackness,
    and strong duality for an optimal (primal, dual) pair, to ``EPS``.
    Raises ``ValueError`` unless ``solution`` is an optimal solution of
    ``lp``, and ``LpNumericalError`` when a residual overflows."""
    _check_solution(lp, solution, "check_certificates")
    std = _Standard(lp)
    sign, c = _objective(lp, std.m)
    x = np.array([solution.primal[name] for name in lp.variable_names], dtype=float)
    y_user = np.array([solution.duals[label] for label in lp.constraint_labels],
                      dtype=float)
    with _overflow_raises(lp):
        return _certify(std, c, x, sign * y_user)


def _check_solution(lp: LinearProgram, solution: LpSolution,
                    caller: str) -> None:
    """Raise ``ValueError`` unless ``solution`` is optimal and names exactly
    the variables and rows of ``lp``."""
    if solution.status != OPTIMAL:
        raise ValueError(f"{caller} requires an optimal solution")
    if (solution.primal.keys() != lp._index.keys()
            or solution.duals.keys() != lp._labels.keys()):
        raise ValueError(f"{caller}: the solution does not name the "
                         f"variables and rows of {lp.name!r}")


@contextmanager
def _overflow_raises(lp: LinearProgram):
    """Turn a floating-point overflow into ``LpNumericalError`` naming
    ``lp``: finite data whose products exceed the float range."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise LpNumericalError(
            f"{lp.name!r} overflows the floating-point range: {exc}") from exc


def _certify(std: _Standard, c: np.ndarray, x: np.ndarray,
             y: np.ndarray) -> CertificateReport:
    """Certificate residuals of structural values ``x`` and internal
    min-form duals ``y`` for the costs ``c`` against one standard form,
    judged to ``EPS``. Its reduced costs come from its own product, never
    from ``_pricing``: the check stays independent of the pivots' pricing."""
    _starts, rows, vals = std.columns
    # recover slack values from row activities
    xe = np.concatenate([x, std.b - std.product(x)])
    scale = _max0(np.abs(xe), [std.b_scale])
    primal_res = _max0(std.lb - xe, xe - std.ub)
    rc = c - _sums(std.cols, vals * y[rows], len(c))
    # internal min form: positive rc must rest on a finite lower bound,
    # negative rc on a finite upper bound
    on_lb = (rc > 0) & (std.lb > -math.inf)
    on_ub = (rc < 0) & (std.ub < math.inf)
    # a NaN reduced cost counts as infeasible
    dual_res = _max0(rc[~(rc <= 0) & ~on_lb], -rc[(rc < 0) & ~on_ub])
    comp_res = _max0(rc[on_lb] * (xe[on_lb] - std.lb[on_lb]) / scale,
                     -rc[on_ub] * (std.ub[on_ub] - xe[on_ub]) / scale)
    dual_obj = (float(std.b @ y)
                + float(rc[on_lb] @ std.lb[on_lb])
                + float(rc[on_ub] @ std.ub[on_ub]))
    primal_obj = float(c[:std.n] @ x)
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))
    return CertificateReport(
        primal_residual=float(primal_res) / scale,
        dual_residual=float(dual_res),
        complementarity_residual=float(comp_res),
        duality_gap=float(gap),
        tolerance=EPS,
    )


def _max0(*values: ArrayLike) -> float:
    """Largest entry of the arrays ``values``, or 0 when every entry is
    below 0 or there is none; NaN when any entry is NaN."""
    top = float(np.max(np.concatenate(values), initial=-math.inf))
    return top if not top <= 0.0 else 0.0


def solve(lp: LinearProgram, start: ArrayLike | None = None) -> LpSolution:
    """Solve the LP. Status is ``optimal``, ``infeasible`` or ``unbounded``;
    optimal solves carry duals by label and a verified certificate report.

    ``start`` optionally gives a feasible point of the variables, in
    declaration order. When it is a vertex the simplex starts there and
    skips phase 1; any other start is ignored.

    The standard form is kept on the LP between solves, and so is the basis
    crashed at the last ``start`` with its LU: solving again with another
    objective or sense, or from the same start, rebuilds neither.
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
    with _overflow_raises(lp):
        status, x, y, stats = _solve_reference(std, c, start)
        if status != OPTIMAL:
            return LpSolution(status=status, objective=math.nan, primal={},
                              duals={}, stats=stats)
        objective = float(np.dot(np.asarray(lp._obj, dtype=float), x))
        report = _certify(std, c, x, y)
    primal = dict(zip(lp._names, x.tolist()))
    duals = dict(zip(lp._labels, (sign * y).tolist()))
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
    1.0 on ``y[label]``, differs between labels, and the face's column of a
    label is its row's index in ``lp``. The face is built on the
    first label ranged and kept on ``lp`` for that ``solution`` (by
    identity); each label moves the 1.0 to itself and solves the same face,
    whose standard form and crashed start basis ``solve`` keeps in turn.
    Every label so takes the pivots a freshly built face would take.

    Finite endpoints are attained by optimal dual solutions; the published
    dual lies inside the returned interval. A face that is unbounded in a
    direction gives that endpoint as ``-math.inf`` or ``math.inf``.
    """
    _check_solution(lp, solution, "dual_range")
    if label not in lp._labels:
        raise ValueError(f"unknown constraint label {label!r}")
    if lp._face is None or lp._face[0] is not solution:
        face, sgn = _dual_face(lp, solution, label)
        # the published dual lies on the face: every solve starts there
        start = [sgn * solution.duals[lab] for lab in lp._labels]
        lp._face = solution, face, sgn, start
    _solution, face, sgn, start = lp._face
    face._obj = [0.0] * len(face._obj)
    face._obj[lp._labels[label]] = 1.0
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
    # column i is row i's dual
    for lab, coeffs, op, rhs in lp._rows:
        y = f"y[{lab}]"
        slb, sub = _SLACK_BOUNDS[op]
        side = stationarity_op(
            rhs - sum(coef * x[name] for name, coef in coeffs.items()),
            slb, sub)
        ylb, yub = ((-math.inf, math.inf) if side is None
                    else (0.0, 0.0) if side == "==" else (slb, sub))
        face.add_variable(y, lb=ylb, ub=yub,
                          objective=1.0 if lab == label else 0.0)
        for name, coef in coeffs.items():
            cols[name][y] = coef
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
