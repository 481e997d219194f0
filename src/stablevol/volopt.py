"""Volume extraction as mathematical optimization: optimal volumes, stable
volumes by optimization (any degree), stable sub-volumes, and the l1 linear
program they relax to.

The l1 relaxation swaps the coefficient field to the reals and the support
count for a sum of absolute values; every accepted solution is re-verified
exactly over Z/2 after rounding, so float error can flag a mismatch but can
never corrupt an output.

The programs are solved by HiGHS, through the extension module that SciPy
ships (`scipy.optimize._highspy._core`, checked on SciPy 1.17), loaded from
its file on the first solve by the package's `_scipy_extension`, as Qhull
is: the model, the options and the status codes are those of
`scipy.optimize.linprog(method="highs")`, without importing
`scipy.optimize` or `scipy.sparse`, which would cost a `vol` process about
as much start-up time as HiGHS spends solving.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from . import MissingExtensionError, _scipy_extension
from .complexes import OrderWithLevel, id_mask, z2_boundary
from .persistence import PersistencePair, StarPairError


class LPError(RuntimeError):
    """The l1 program or its rounding failed; the CLI exits 3."""


class InfeasibleError(LPError):
    """LP infeasible; for a valid problem this is an internal logic error."""


class UnboundedError(LPError):
    pass


class ApproximationMismatch(LPError):
    """Rounded l1 support is not Z/2-feasible (the relaxation gap showed)."""

    def __init__(self, violating):
        self.violating = list(violating)
        super().__init__(
            f"rounded support violates {len(self.violating)} constraint(s)"
        )


MODES = ("optimal", "stable", "sub")


@dataclass
class VolumeProblem:
    order: OrderWithLevel
    pair: PersistencePair
    mode: str
    candidates: np.ndarray  # (k+1)-simplex ids, ascending rank, death cell excluded
    constraints: np.ndarray  # k-simplex ids whose boundary coefficient must vanish


def make_problem(
    o: OrderWithLevel,
    pair: PersistencePair,
    mode: str,
    epsilon: float = 0.0,
    ov_cells: Optional[set] = None,
) -> VolumeProblem:
    """Candidate and constraint sets for one pair, as id arrays.

    optimal: candidates/constraints are the simplices strictly between birth
    and death in the order. stable: level at least birth + epsilon, strictly
    after the birth simplex and before the death cell (for epsilon > 0 the
    order bounds are implied by the level bound; at epsilon = 0 they make the
    problem degrade continuously to the optimal-volume window instead of
    constraining the birth simplex itself). sub: stable candidates restricted
    to a known optimal volume (pass ov_cells), constraints unchanged.

    The window is a slice of the order array; the ids of a dimension are
    contiguous, so each id's dimension is a range test.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if pair.essential:
        raise StarPairError("essential pairs have no volume problem")
    if mode == "sub" and ov_cells is None:
        raise ValueError("sub mode needs the optimal volume's cells")
    if epsilon < 0:
        raise ValueError("noise bandwidth must be >= 0")
    cx = o.cx
    k = pair.degree
    window = o.order_array[pair.birth_rank + 1 : pair.death_rank]
    if mode != "optimal":
        window = window[o.level_array[window] >= pair.birth_time + epsilon]
    cells, facets = cx.ids_of_dim(k + 1), cx.ids_of_dim(k)
    cands = window[(window >= cells.start) & (window < cells.stop)]
    cons = window[(window >= facets.start) & (window < facets.stop)]
    if mode == "sub":
        cands = cands[id_mask(cx, k + 1, cands, ov_cells)]
    return VolumeProblem(o, pair, mode, cands, cons)


# ---------------------------------------------------------------------------
# l1 linear program (real coefficients)


class Csc(NamedTuple):
    """A sparse matrix in compressed sparse column form: the rows of column
    j are `indices[indptr[j]:indptr[j+1]]`, ascending, with values `data`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


@dataclass(eq=False)
class L1Program:
    """The l1 relaxation in its literal form, as arrays.

    Variables are alpha (free) and alpha_bar (its absolute-value majorant),
    one of each per candidate. Constraints: alpha_bar - alpha >= 0 and
    alpha_bar + alpha >= 0 per candidate, plus one equality row per simplex
    tau of `taus`: const(tau) + sum_w coeff(w, tau) alpha_w = 0, with all
    coefficients in {-1, 0, +1}; const(tau) is the death cell's boundary
    coefficient at tau. With a `pin_sign`, the last row is the birth
    simplex's, and its left side must equal the pin sign instead of 0: the
    birth-simplex coefficient of the boundary is pinned to a nonzero value.

    The coefficients are stored by candidate column: the rows of column i
    are `row[indptr[i]:indptr[i+1]]`, ascending, with coefficients `coef`.
    """

    candidates: np.ndarray  # (m,) candidate ids, one column each, ascending rank
    taus: np.ndarray  # simplex id of each equality row, the pinned row last
    const: np.ndarray  # per row, in {-1, 0, 1}
    indptr: np.ndarray  # (m + 1,)
    row: np.ndarray
    coef: np.ndarray  # +-1
    pin_sign: Optional[int] = None

    @property
    def n_rows(self) -> int:
        """The number of equality rows, the pinned row not counted."""
        return len(self.taus) - (self.pin_sign is not None)

    def rhs(self) -> np.ndarray:
        """Per equality row, the value the candidate sum must take: -const,
        and pin sign - const on the pinned row."""
        b = -self.const.astype(float)
        if self.pin_sign is not None:
            b[-1] = -float(self.const[-1] - self.pin_sign)
        return b

    def matrix(self, n_rows: int, n_cols: int) -> Csc:
        """The coefficients of the first `n_rows` rows as a CSC matrix with
        `n_cols` columns; columns past the candidates are empty."""
        col = np.repeat(np.arange(len(self.candidates)), np.diff(self.indptr))
        keep = self.row < n_rows
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(col[keep], minlength=n_cols), out=indptr[1:])
        return Csc(indptr, self.row[keep], self.coef[keep].astype(float), (n_rows, n_cols))


def to_lp(p: VolumeProblem) -> L1Program:
    """Translate a volume problem into the l1 program, on arrays.

    Each candidate's faces come from `face_array(k+1)`, face j with
    coefficient (-1)^j; a `rowpos` array maps each constraint simplex to its
    row. The constants are the death cell's face rows. In optimal mode the
    side constraint "birth coefficient nonzero" is not expressible in an LP;
    the birth simplex gets the last row, pinned to +1 (`dataclasses.replace`
    with another `pin_sign` gives the program with that sign).
    """
    cx = p.order.cx
    k = p.pair.degree
    cells, facets = cx.ids_of_dim(k + 1), cx.ids_of_dim(k)
    faces = cx.face_array(k + 1)
    sign = 1 - 2 * (np.arange(k + 2) & 1)  # face j, vertex j removed: (-1)^j
    cands = np.asarray(p.candidates, dtype=np.int64)
    taus = np.asarray(p.constraints, dtype=np.int64)
    pinned = p.mode == "optimal"
    if pinned:
        taus = np.append(taus, p.pair.birth_simplex)
    rowpos = np.full(len(facets), -1, dtype=np.int64)
    rowpos[taus - facets.start] = np.arange(len(taus))
    const = np.zeros(len(taus), dtype=np.int64)
    death_rows = rowpos[faces[p.pair.death_simplex - cells.start] - facets.start]
    const[death_rows[death_rows >= 0]] = sign[death_rows >= 0]
    rows = rowpos[faces[cands - cells.start] - facets.start]
    col, j = np.nonzero(rows >= 0)
    row = rows[col, j]
    srt = np.lexsort((row, col))
    indptr = np.zeros(len(cands) + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=len(cands)), out=indptr[1:])
    return L1Program(cands, taus, const, indptr, row[srt], sign[j[srt]], 1 if pinned else None)


@dataclass
class RawSolution:
    alphas: np.ndarray  # per candidate, signed reals
    objective: float
    residual: float  # the largest violation of an equality row


_HIGHS_CORE = "scipy.optimize._highspy._core"

# the options that scipy.optimize.linprog(method="highs") gives HiGHS:
# presolve, the dual simplex (kSimplexStrategyDual), no debug checks
# (kHighsDebugLevelNone) and no output
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,
    "highs_debug_level": 0,
    "log_to_console": False,
    "output_flag": False,
}

# scipy.optimize.linprog's status code per HiGHS model status; any other
# model status is 4
_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2,
           "kModelError": 2, "kUnbounded": 3}

# linprog's tolerance for a reported optimum: 10 * sqrt(1e-9)
_FEASIBILITY_TOL = 10 * np.sqrt(1e-9)


def _highs():
    """SciPy's HiGHS extension module, from `stablevol._scipy_extension`,
    so that a later `import scipy.optimize` reuses it; importing its package
    would load `scipy.optimize` and `scipy.sparse`. A SciPy without the
    file (before `_highspy`) raises LPError.
    """
    try:
        return _scipy_extension(_HIGHS_CORE)
    except MissingExtensionError as e:
        raise LPError(f"HiGHS needs SciPy >= 1.17: {e}") from None


def _run_highs(cost, a: Csc, lhs, rhs, lb, ub):
    """Minimise cost @ x subject to lhs <= a @ x <= rhs and lb <= x <= ub
    with HiGHS, under `_HIGHS_OPTIONS`.

    Returns `status` (linprog's code), `success`, `x` and `fun` (None unless
    optimal), `nit` (simplex iterations, or else interior-point ones) and
    `message`. An optimum more than `_FEASIBILITY_TOL` outside a bound or
    row bound gets status 4, as in linprog.
    """
    h = _highs()
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(lhs)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    # the setters copy any sequence element by element, a list faster than
    # an array (4.7 against 7.2 ms on a torus program)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost.tolist(), lb.tolist(), ub.tolist()
    lp.row_lower_, lp.row_upper_ = lhs.tolist(), rhs.tolist()
    lp.a_matrix_.start_, lp.a_matrix_.index_ = a.indptr.tolist(), a.indices.tolist()
    lp.a_matrix_.value_ = a.data.tolist()
    highs = h._Highs()
    options = h.HighsOptions()
    for key, val in _HIGHS_OPTIONS.items():
        setattr(options, key, val)
    highs.passOptions(options)
    nit, x, fun, feasible = 0, None, None, False
    if highs.passModel(lp) == h.HighsStatus.kError:
        model = h.HighsModelStatus.kModelError
    elif highs.run() == h.HighsStatus.kError:
        model = highs.getModelStatus()
    else:
        model = highs.getModelStatus()
        info = highs.getInfo()
        nit = info.simplex_iteration_count or info.ipm_iteration_count
        if model == h.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x, fun = np.array(solution.col_value), info.objective_function_value
            row = np.array(solution.row_value)
            tol = _FEASIBILITY_TOL
            feasible = bool(np.all((lb - tol <= x) & (x <= ub + tol))
                            and np.all((lhs - tol <= row) & (row <= rhs + tol)))
    status = _STATUS.get(model.name, 4)
    message = f"{highs.modelStatusToString(model)} (HiGHS status {int(model)})"
    if status == 0 and not feasible:
        status = 4
        message = (f"the optimum HiGHS reports violates a bound or row by more "
                   f"than the tolerance {_FEASIBILITY_TOL:.2E}")
    return SimpleNamespace(status=status, success=status == 0, x=x, fun=fun, nit=nit,
                           message=message)


def linprog(c, *, A_ub: Csc, b_ub, A_eq: Csc, b_eq, lb, ub):
    """Minimise c @ x subject to A_ub @ x <= b_ub, A_eq @ x == b_eq and
    lb <= x <= ub, as `scipy.optimize.linprog(method="highs")` does.

    HiGHS gets the model that linprog hands it: A_ub stacked over A_eq in
    CSC form with ascending rows, row bounds (-inf, b_ub] and [b_eq, b_eq],
    and the column bounds. Its `x`, `fun`, `nit` and `status` are linprog's;
    the per-column marginals that linprog also reports are not computed.
    """
    return _run_highs(c, _vstack(A_ub, A_eq), np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
                      np.concatenate([b_ub, b_eq]), lb, ub)


def _vstack(top: Csc, bottom: Csc) -> Csc:
    """The CSC matrix of `top` over `bottom`, rows ascending per column."""
    n_cols = top.shape[1]
    counts = np.diff(top.indptr), np.diff(bottom.indptr)
    cols = np.repeat(np.tile(np.arange(n_cols), 2), np.concatenate(counts))
    rows = np.concatenate([top.indices, bottom.indices + top.shape[0]])
    srt = np.lexsort((rows, cols))
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(counts[0] + counts[1], out=indptr[1:])
    data = np.concatenate([top.data, bottom.data])[srt]
    return Csc(indptr, rows[srt], data, (top.shape[0] + bottom.shape[0], n_cols))


def solve_lp(prog: L1Program) -> RawSolution:
    """Solve the l1 program with a deterministic simplex backend (HiGHS).

    The program is fed literally through `linprog`: free alphas, majorant
    alpha_bars, the two coupling inequalities per candidate, and the
    equality rows, as CSC matrices built from the program's arrays. The
    residual is the largest violation of an equality row by the returned
    alphas.
    """
    m = len(prog.candidates)
    b_eq = prog.rhs()
    if m == 0:
        bad = prog.taus[b_eq != 0].tolist()
        if bad:
            raise InfeasibleError(f"no candidates and nonzero constants at {bad}")
        return RawSolution(np.zeros(0), 0.0, 0.0)
    cost = np.concatenate([np.zeros(m), np.ones(m)])
    A_eq = prog.matrix(len(prog.taus), 2 * m)
    # alpha - alpha_bar <= 0 and -alpha - alpha_bar <= 0: column i has rows
    # i and m + i, with +1, -1 for an alpha and -1, -1 for an alpha_bar
    i = np.arange(m)
    A_ub = Csc(
        np.arange(0, 4 * m + 1, 2),
        np.tile(np.stack([i, m + i], axis=1).ravel(), 2),
        np.concatenate([np.tile([1.0, -1.0], m), np.full(2 * m, -1.0)]),
        (2 * m, 2 * m),
    )
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.zeros(2 * m),
        A_eq=A_eq,
        b_eq=b_eq,
        lb=np.repeat([-np.inf, 0.0], m),
        ub=np.full(2 * m, np.inf),
    )
    if res.status == 2:
        raise InfeasibleError("l1 program infeasible")
    if res.status == 3:
        raise UnboundedError("l1 program unbounded")
    if not res.success:
        raise LPError(f"LP solver failed: {res.message}")
    alphas = res.x[:m]
    col = np.repeat(i, np.diff(prog.indptr))
    lhs = np.bincount(prog.row, weights=prog.coef * alphas[col], minlength=len(b_eq))
    resid = float(np.max(np.abs(lhs - b_eq), initial=0.0))
    return RawSolution(alphas, float(res.fun), resid)


@dataclass
class VolumeSolution:
    cells: set  # rounded support, death cell included
    objective: float


def round_support(
    p: VolumeProblem, raw: RawSolution, threshold: float = 1e-6
) -> VolumeSolution:
    """Round the l1 solution to a Z/2 chain and verify it exactly.

    Raises ApproximationMismatch with the violating constraint simplices when
    the rounded support is not Z/2-feasible; a mismatch is never returned as
    if it were a volume.
    """
    kept = np.asarray(p.candidates)[np.abs(raw.alphas) > threshold]
    support = {p.pair.death_simplex, *kept.tolist()}
    bad = z2_violations(p, support)
    if bad:
        raise ApproximationMismatch(bad)
    return VolumeSolution(support, raw.objective)


def z2_violations(p: VolumeProblem, support: set) -> list:
    """Constraint simplices whose Z/2 boundary coefficient is wrong: those
    in `complexes.z2_boundary` of the support's (k+1)-simplices, and in
    optimal mode the birth simplex if it is not."""
    cx = p.order.cx
    k = p.pair.degree
    cells = cx.ids_of_dim(k + 1)
    ids = np.fromiter(support, np.int64, len(support))
    bnd = z2_boundary(cx, k + 1, ids[(ids >= cells.start) & (ids < cells.stop)])
    cons = np.asarray(p.constraints, dtype=np.int64)
    bad = cons[id_mask(cx, k, cons, bnd)].tolist()
    if p.mode == "optimal" and p.pair.birth_simplex not in bnd:
        bad.append(p.pair.birth_simplex)
    return bad


def pin_sign_hint(prog: L1Program) -> int:
    """The pin sign that the equality rows imply: the sign of
    `_birth_coefficient` when it lies within 0.5 of +1 or -1, else +1."""
    return -1 if abs(_birth_coefficient(prog) + 1) < 0.5 else 1


def _birth_coefficient(prog: L1Program) -> float:
    """The birth-simplex coefficient of the boundary of a chain that meets
    the equality rows of a pinned program; NaN if HiGHS finds no such chain.

    Over a field, the equality rows fix that coefficient for every feasible
    real chain: two such chains differ by a chain whose boundary is a cycle
    that bounds before the death, and by the pairing lemma such a cycle has
    no birth-simplex term. So any one chain gives it. When no candidate
    touches the pinned row, it is the row's constant. Otherwise a zero-cost
    HiGHS solve of the equality rows, with free columns, gives one chain;
    on the torus programs presolve settles it in 0 iterations at exactly
    +-1. The solve does not go through `linprog`, whose calls are the
    program's solves.
    """
    n, m = prog.n_rows, len(prog.candidates)
    on_pin = np.flatnonzero(prog.row == n)
    value = float(prog.const[-1])
    if len(on_pin):
        b = -prog.const[:n].astype(float)
        res = _run_highs(np.zeros(m), prog.matrix(n, m), b, b, np.full(m, -np.inf), np.full(m, np.inf))
        if not res.success:
            return float("nan")
        col = np.repeat(np.arange(m), np.diff(prog.indptr))[on_pin]
        value += float(prog.coef[on_pin] @ res.x[col])
    return value


def solve_volume(
    o: OrderWithLevel,
    pair: PersistencePair,
    mode: str,
    epsilon: float = 0.0,
    ov_cells: Optional[set] = None,
    threshold: float = 1e-6,
) -> VolumeSolution:
    """make_problem + to_lp + solve + exact rounding.

    In optimal mode the pin sign comes from `pin_sign_hint`, so HiGHS
    normally solves one program. If that program is infeasible (the hint
    was wrong or undecided), it is solved again with the opposite sign.
    """
    p = make_problem(o, pair, mode, epsilon, ov_cells)
    prog = to_lp(p)
    if prog.pin_sign is None:
        return round_support(p, solve_lp(prog), threshold)
    sign = pin_sign_hint(prog)
    try:
        raw = solve_lp(replace(prog, pin_sign=sign))
    except InfeasibleError:
        raw = solve_lp(replace(prog, pin_sign=-sign))
    return round_support(p, raw, threshold)
