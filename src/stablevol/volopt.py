"""Volume extraction as mathematical optimization: optimal volumes, stable
volumes by optimization (any degree), stable sub-volumes, and the l1 linear
program they relax to.

The l1 relaxation swaps the coefficient field to the reals and the support
count for a sum of absolute values; every accepted solution is re-verified
exactly over Z/2 after rounding, so float error can flag a mismatch but can
never corrupt an output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .complexes import OrderWithLevel
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
    epsilon: float
    candidates: list  # (k+1)-simplex ids, ascending rank, death cell excluded
    constraints: list  # k-simplex ids whose boundary coefficient must vanish

    @property
    def degree(self) -> int:
        return self.pair.degree


def make_problem(
    o: OrderWithLevel,
    pair: PersistencePair,
    mode: str,
    epsilon: float = 0.0,
    ov_cells: Optional[set] = None,
) -> VolumeProblem:
    """Candidate and constraint sets for one pair.

    optimal: candidates/constraints are the simplices strictly between birth
    and death in the order. stable: level at least birth + epsilon, strictly
    after the birth simplex and before the death cell (for epsilon > 0 the
    order bounds are implied by the level bound; at epsilon = 0 they make the
    problem degrade continuously to the optimal-volume window instead of
    constraining the birth simplex itself). sub: stable candidates restricted
    to a known optimal volume (pass ov_cells), constraints unchanged.
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
    b_rank, d_rank = pair.birth_rank, pair.death_rank
    cands = []
    cons = []
    if mode == "optimal":
        for pos in range(b_rank + 1, d_rank):
            sid = o.order[pos]
            d = cx.dim_of(sid)
            if d == k + 1:
                cands.append(sid)
            elif d == k:
                cons.append(sid)
    else:
        threshold = pair.birth_time + epsilon
        for pos in range(b_rank + 1, d_rank):
            sid = o.order[pos]
            if o.level[sid] < threshold:
                continue
            d = cx.dim_of(sid)
            if d == k + 1:
                cands.append(sid)
            elif d == k:
                cons.append(sid)
        if mode == "sub":
            cands = [c for c in cands if c in ov_cells]
    return VolumeProblem(o, pair, mode, float(epsilon), cands, cons)


# ---------------------------------------------------------------------------
# l1 linear program (real coefficients)


@dataclass
class L1Program:
    """The l1 relaxation in its literal form.

    Variables are alpha (free) and alpha_bar (its absolute-value majorant),
    one of each per candidate. Constraints: alpha_bar - alpha >= 0 and
    alpha_bar + alpha >= 0 per candidate, plus one equality row per
    constraint simplex tau: const(tau) + sum_w coeff(w, tau) alpha_w = 0,
    with all coefficients in {-1, 0, +1}. An optional pinned row forces the
    birth-simplex coefficient of the boundary to a nonzero value.
    """

    candidates: list
    rows: list  # (tau_id, {candidate id: +-1}, const)
    pinned: Optional[tuple] = None  # (tau0_id, {cand: +-1}, const, target)

    @property
    def n_variables(self) -> int:
        return 2 * len(self.candidates)

    @property
    def n_constraints(self) -> int:
        return 2 * len(self.candidates) + len(self.rows) + (1 if self.pinned else 0)


def _boundary_coeff(cx, omega: int, tau: int) -> int:
    """tau*(boundary omega) with alternating signs on the sorted vertices."""
    verts = cx.simplices[omega]
    fv = cx.simplices[tau]
    for i in range(len(verts)):
        if verts[:i] + verts[i + 1 :] == fv:
            return 1 if i % 2 == 0 else -1
    return 0


def to_lp(p: VolumeProblem, pin_sign: int = 1) -> L1Program:
    """Translate a volume problem into the l1 program.

    In optimal mode the side constraint "birth coefficient nonzero" is not
    expressible in an LP; it is pinned to +-pin_sign instead (the caller may
    retry with the opposite sign).
    """
    cx = p.order.cx
    w0 = p.pair.death_simplex
    cand_set = set(p.candidates)
    rows = []
    for tau in p.constraints:
        coeffs = {}
        for om in cx.cofaces[tau]:
            if om in cand_set:
                coeffs[om] = _boundary_coeff(cx, om, tau)
        rows.append((tau, coeffs, _boundary_coeff(cx, w0, tau)))
    pinned = None
    if p.mode == "optimal":
        tau0 = p.pair.birth_simplex
        coeffs = {}
        for om in cx.cofaces[tau0]:
            if om in cand_set:
                coeffs[om] = _boundary_coeff(cx, om, tau0)
        pinned = (tau0, coeffs, _boundary_coeff(cx, w0, tau0), int(pin_sign))
    return L1Program(list(p.candidates), rows, pinned)


@dataclass
class RawSolution:
    alphas: np.ndarray  # per candidate, signed reals
    objective: float
    status: str
    residual: float


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first solve, so that the
    subcommands that solve no LP never load scipy.optimize."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _row_matrix(rows, col: dict, n_cols: int):
    """Coefficients of (tau, {candidate id: +-1}, const) rows as a sparse
    matrix, one row each, columns numbered by `col`."""
    from scipy import sparse

    data, ri, ci = [], [], []
    for r, (tau, coeffs, const) in enumerate(rows):
        for w, c in coeffs.items():
            data.append(float(c))
            ri.append(r)
            ci.append(col[w])
    return sparse.coo_matrix((data, (ri, ci)), shape=(len(rows), n_cols))


def solve_lp(prog: L1Program) -> RawSolution:
    """Solve the l1 program with a deterministic simplex backend (HiGHS).

    The program is fed literally: free alphas, majorant alpha_bars, the two
    coupling inequalities per candidate, and the equality rows.
    """
    from scipy import sparse

    m = len(prog.candidates)
    col = {w: i for i, w in enumerate(prog.candidates)}
    eq_rows = list(prog.rows)
    if prog.pinned is not None:
        tau0, coeffs, const, target = prog.pinned
        eq_rows = eq_rows + [(tau0, coeffs, const - target)]
    if m == 0:
        bad = [t for t, _, c0 in eq_rows if c0 != 0]
        if bad:
            raise InfeasibleError(f"no candidates and nonzero constants at {bad}")
        return RawSolution(np.zeros(0), 0.0, "optimal", 0.0)
    cost = np.concatenate([np.zeros(m), np.ones(m)])
    A_eq = _row_matrix(eq_rows, col, 2 * m).tocsc()
    b_eq = np.array([-float(const) for _, _, const in eq_rows])
    # alpha - alpha_bar <= 0 and -alpha - alpha_bar <= 0
    ud, uri, uci = [], [], []
    for i in range(m):
        ud += [1.0, -1.0, -1.0, -1.0]
        uri += [i, i, m + i, m + i]
        uci += [i, m + i, i, m + i]
    A_ub = sparse.coo_matrix((ud, (uri, uci)), shape=(2 * m, 2 * m)).tocsc()
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.zeros(2 * m),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * m + [(0, None)] * m,
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleError("l1 program infeasible")
    if res.status == 3:
        raise UnboundedError("l1 program unbounded")
    if not res.success:
        raise LPError(f"LP solver failed: {res.message}")
    alphas = res.x[:m]
    resid = 0.0
    for (tau, coeffs, const) in eq_rows:
        acc = float(const) + sum(c * alphas[col[w]] for w, c in coeffs.items())
        resid = max(resid, abs(acc))
    return RawSolution(alphas, float(res.fun), "optimal", resid)


@dataclass
class VolumeSolution:
    cells: set  # rounded support, death cell included
    objective: float
    status: str
    residual: float


def round_support(
    p: VolumeProblem, raw: RawSolution, threshold: float = 1e-6
) -> VolumeSolution:
    """Round the l1 solution to a Z/2 chain and verify it exactly.

    Raises ApproximationMismatch with the violating constraint simplices when
    the rounded support is not Z/2-feasible; a mismatch is never returned as
    if it were a volume.
    """
    support = {p.pair.death_simplex}
    for w, a in zip(p.candidates, raw.alphas):
        if abs(a) > threshold:
            support.add(w)
    bad = z2_violations(p, support)
    if bad:
        raise ApproximationMismatch(bad)
    return VolumeSolution(support, raw.objective, raw.status, raw.residual)


def z2_violations(p: VolumeProblem, support: set) -> list:
    """Constraint simplices whose Z/2 boundary coefficient is wrong."""
    cx = p.order.cx
    bad = []
    for tau in p.constraints:
        parity = sum(1 for om in cx.cofaces[tau] if om in support) & 1
        if parity:
            bad.append(tau)
    if p.mode == "optimal":
        tau0 = p.pair.birth_simplex
        parity = sum(1 for om in cx.cofaces[tau0] if om in support) & 1
        if not parity:
            bad.append(tau0)
    return bad


def pin_sign_hint(prog: L1Program) -> int:
    """The pin sign that the equality rows imply; +1 if they cannot tell.

    Over a field, the equality rows fix the birth-simplex coefficient of the
    boundary for every feasible real chain. When no candidate touches the
    pinned row, that coefficient is the row's constant. Otherwise one
    least-squares solution of the rows (LSMR) gives it. Its sign is taken
    when the value lies within 0.5 of +1 or -1. A program without a pin, or
    with a touched pin but no rows, gets +1.
    """
    if prog.pinned is None:
        return 1
    _, coeffs, const, _ = prog.pinned
    if not coeffs:
        value = const
    elif not prog.rows:
        return 1
    else:
        from scipy.sparse.linalg import lsmr

        col = {w: i for i, w in enumerate(prog.candidates)}
        A = _row_matrix(prog.rows, col, len(col)).tocsr()
        b = np.array([-float(const) for _, _, const in prog.rows])
        x = lsmr(A, b)[0]
        value = const + sum(c * x[col[w]] for w, c in coeffs.items())
    return -1 if abs(value + 1) < 0.5 else 1


def _pinned_to(prog: L1Program, sign: int) -> L1Program:
    """The program with its pin set to `sign`: `to_lp(p, pin_sign=sign)`."""
    return replace(prog, pinned=prog.pinned[:3] + (sign,))


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
    if prog.pinned is None:
        return round_support(p, solve_lp(prog), threshold)
    sign = pin_sign_hint(prog)
    try:
        raw = solve_lp(_pinned_to(prog, sign))
    except InfeasibleError:
        raw = solve_lp(_pinned_to(prog, -sign))
    return round_support(p, raw, threshold)
