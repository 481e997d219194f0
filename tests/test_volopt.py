import functools
import importlib.machinery
import importlib.util
import math
import random
import sys

import numpy as np
import pytest

from helpers import (
    TooLargeError,
    brute_force_volume,
    l1_program,
    program_rows,
    views_from_arrays,
)
from stablevol.alpha import alpha_filtration
from stablevol.dualtree import build_dual_graph, compute_tree, optimal_volume_tree, stable_volume_tree
from stablevol.fixtures import fig1_five_points, lattice_3x3x3
from stablevol.persistence import StarPairError, reduce
from stablevol import volopt as V


def fig1_tree():
    f = alpha_filtration(fig1_five_points().points)
    return f, compute_tree(build_dual_graph(f.order), f.order)


def test_make_problem_windows():
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prob = V.make_problem(f.order, square, "optimal")
    for c in prob.candidates:
        assert square.birth_rank < f.order.rank_array[c] < square.death_rank
        assert f.cx.dim_of(c) == 2
    for t in prob.constraints:
        assert square.birth_rank < f.order.rank_array[t] < square.death_rank
        assert f.cx.dim_of(t) == 1
    eps = 0.05
    sprob = V.make_problem(f.order, square, "stable", eps)
    for t in sprob.constraints:
        assert f.order.level_array[t] >= square.birth_time + eps
        assert f.order.rank_array[t] < square.death_rank
    # candidate levels sit in [birth + eps, death)
    for c in sprob.candidates:
        assert square.birth_time + eps <= f.order.level_array[c]


def test_make_problem_star_and_mode_errors():
    f, tree = fig1_tree()
    star = [p for p in reduce(f.order) if p.essential][0]
    with pytest.raises(StarPairError):
        V.make_problem(f.order, star, "optimal")
    pair = tree.pairs_table()[0]
    with pytest.raises(ValueError):
        V.make_problem(f.order, pair, "bogus")
    with pytest.raises(ValueError):
        V.make_problem(f.order, pair, "sub", 0.1)  # ov_cells missing


def test_huge_epsilon_problem_trivial():
    f, tree = fig1_tree()
    p = max(tree.pairs_table(), key=lambda q: q.death_time)
    prob = V.make_problem(f.order, p, "stable", 10.0)
    assert len(prob.candidates) == 0 and len(prob.constraints) == 0
    sol = V.solve_volume(f.order, p, "stable", 10.0)
    assert sol.cells == {p.death_simplex}


def highs_shapes(monkeypatch, prog):
    """The shapes of the inequality and equality matrices that `solve_lp`
    hands HiGHS for the program."""
    calls = capture_linprog(monkeypatch)
    try:
        V.solve_lp(prog)
    except V.InfeasibleError:
        pass
    (_, kwargs), = calls
    return kwargs["A_ub"].shape, kwargs["A_eq"].shape


def test_to_lp_counts_and_entries(monkeypatch):
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prog = V.to_lp(V.make_problem(f.order, square, "optimal"))
    rows, _ = program_rows(prog)
    m = len(prog.candidates)
    # 2m variables; 2m coupling rows, the equality rows and the pinned row
    assert highs_shapes(monkeypatch, prog) == ((2 * m, 2 * m), (len(rows) + 1, 2 * m))
    for tau, coeffs, const in rows:
        assert const in (-1, 0, 1)
        for w, c in coeffs.items():
            assert c in (-1, 1)
            assert tau in f.cx.face_array(2)[w - f.cx.ids_of_dim(2).start]
    # every equality row's support equals the coface incidence inside the candidates
    cand = set(prog.candidates)
    cofaces = views_from_arrays(f.cx)[3]
    for tau, coeffs, const in rows:
        assert set(coeffs) == {om for om in cofaces[tau] if om in cand}
        assert (const != 0) == (square.death_simplex in cofaces[tau])


def test_single_candidate_program_counts(monkeypatch):
    # one candidate, one constraint -> 2 variables, 3 constraints
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prob = V.make_problem(f.order, square, "stable", 0.05)
    prob.candidates = prob.candidates[:1]
    prob.constraints = prob.constraints[:1]
    prog = V.to_lp(prob)
    assert highs_shapes(monkeypatch, prog) == ((2, 2), (1, 2))


def test_solve_single_square():
    f = alpha_filtration([(0, 0), (1, 0), (1, 1), (0, 1)])
    tree = compute_tree(build_dual_graph(f.order), f.order)
    p = max(tree.pairs_table(), key=lambda q: q.death_time - q.birth_time)
    sol = V.solve_volume(f.order, p, "optimal")
    assert sol.cells == set(f.cx.ids_of_dim(2))
    assert abs(sol.objective - 1.0) < 1e-8
    assert sol.residual < 1e-8


def small_lp(a_ub, b_ub, lb):
    """volopt.linprog's arguments for min x0 + x1 subject to one inequality
    row a_ub @ x <= b_ub, no equality row and lb <= x < inf."""
    col = V.Csc(np.array([0, 1, 2]), np.array([0, 0]), np.array(a_ub, dtype=float), (1, 2))
    no_rows = V.Csc(np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), (0, 2))
    return dict(A_ub=col, b_ub=np.array([float(b_ub)]), A_eq=no_rows, b_eq=np.zeros(0),
                lb=np.array(lb, dtype=float), ub=np.full(2, np.inf))


@pytest.mark.parametrize(
    "a_ub, b_ub, lb, status",
    [([-1, -1], -1, [0, 0], 0), ([1, 1], -1, [0, 0], 2), ([1, 1], 1, [-np.inf, 0], 3)],
    ids=["optimal", "infeasible", "unbounded"],
)
def test_linprog_status_and_iterations_match_scipy(a_ub, b_ub, lb, status):
    from scipy.optimize import linprog

    res = V.linprog(np.ones(2), **small_lp(a_ub, b_ub, lb))
    ref = linprog(np.ones(2), A_ub=[a_ub], b_ub=[b_ub], bounds=[(lb[0], None), (lb[1], None)],
                  method="highs")
    assert (res.status, res.success, res.nit) == (ref.status, ref.success, ref.nit)
    assert res.status == status
    assert (res.x is None) == (ref.x is None)


def test_optimum_outside_linprog_tolerance_is_a_solver_failure(monkeypatch):
    # as in linprog, an optimum that misses a bound by more than the
    # tolerance is status 4; no optimum meets a negative tolerance
    res = V.linprog(np.ones(2), **small_lp([-1, -1], -1, [0, 0]))
    assert res.status == 0
    monkeypatch.setattr(V, "_FEASIBILITY_TOL", -1.0)
    res = V.linprog(np.ones(2), **small_lp([-1, -1], -1, [0, 0]))
    assert (res.status, res.success) == (4, False)
    assert res.message == ("the optimum HiGHS reports violates a bound or row by "
                           "more than the tolerance -1.00E+00")
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    with pytest.raises(V.LPError, match="LP solver failed: the optimum HiGHS reports violates"):
        V.solve_volume(f.order, square, "stable", 0.05)


def test_scipy_without_the_highs_extension_is_an_lp_error(monkeypatch, tmp_path):
    # a SciPy whose optimize/_highspy holds no _core extension, as before
    # SciPy had one, gives a one-line LPError that names the version needed
    find_spec = importlib.util.find_spec

    def empty_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.delitem(sys.modules, V._HIGHS_CORE, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    with pytest.raises(V.LPError) as ei:
        V.solve_volume(f.order, square, "stable", 0.05)
    highspy_dir = tmp_path / "optimize" / "_highspy"
    assert str(ei.value) == (f"HiGHS needs SciPy >= 1.17: no {V._HIGHS_CORE} "
                             f"extension in {highspy_dir}")


def test_round_support_threshold():
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prob = V.make_problem(f.order, square, "stable", 0.0)
    raw = V.solve_lp(V.to_lp(prob))
    raw.alphas = raw.alphas.copy()
    raw.alphas[np.abs(raw.alphas) > 0.5] = 1 - 1e-12  # near-one still counts
    sol = V.round_support(prob, raw)
    assert square.death_simplex in sol.cells


def test_round_support_mismatch_surfaces():
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prob = V.make_problem(f.order, square, "stable", 0.0)
    raw = V.solve_lp(V.to_lp(prob))
    raw.alphas = np.zeros_like(raw.alphas)  # force an infeasible support
    with pytest.raises(V.ApproximationMismatch) as ei:
        V.round_support(prob, raw)
    assert ei.value.violating


def test_lp_equals_tree_on_fig1_and_oracle():
    f, tree = fig1_tree()
    for p in tree.pairs_table():
        ov = optimal_volume_tree(tree, p)
        assert V.solve_volume(f.order, p, "optimal").cells == ov
        for eps in (0.0, 0.05, 0.1, 0.3):
            sv = stable_volume_tree(tree, p, eps).cells
            assert V.solve_volume(f.order, p, "stable", eps).cells == sv
            assert V.solve_volume(f.order, p, "sub", eps, ov_cells=ov).cells == sv
            prob = V.make_problem(f.order, p, "stable", eps)
            assert brute_force_volume(prob) == sv


def test_volume_cycle_laws():
    """The boundary of an optimal volume touches the birth simplex, stays at
    or below it in rank, and becomes a boundary exactly at the death cell."""
    from helpers import is_z2_boundary
    from stablevol.complexes import boundary, chain_z2

    random.seed(3)
    for _ in range(10):
        pts = [(random.random() * 2, random.random() * 2) for _ in range(12)]
        f = alpha_filtration(pts)
        tree = compute_tree(build_dual_graph(f.order), f.order)
        for p in tree.pairs_table():
            z = V.solve_volume(f.order, p, "optimal").cells
            bz = boundary(f.cx, chain_z2(z, f.cx))
            assert p.birth_simplex in bz.support()
            for e in bz.support():
                assert f.order.rank_array[e] <= p.birth_rank
            assert is_z2_boundary(f.order, bz.support(), p.death_rank + 1)
            assert not is_z2_boundary(f.order, bz.support(), p.death_rank)


def test_brute_force_too_large():
    f, tree = fig1_tree()
    p = tree.pairs_table()[0]
    prob = V.make_problem(f.order, p, "stable", 0.0)
    prob.candidates = list(range(25))
    with pytest.raises(TooLargeError):
        brute_force_volume(prob)


def test_brute_force_tie_count():
    f, tree = fig1_tree()
    square = max(tree.pairs_table(), key=lambda p: p.death_time)
    prob = V.make_problem(f.order, square, "stable", 0.05)
    chain, ties = brute_force_volume(prob, count_ties=True)
    assert ties >= 1


def test_lp_objective_never_beats_oracle_unrounded():
    random.seed(29)
    for _ in range(30):
        pts = [(random.random() * 2, random.random() * 2) for _ in range(10)]
        f = alpha_filtration(pts)
        tree = compute_tree(build_dual_graph(f.order), f.order)
        for p in list(tree.pairs_table())[:2]:
            prob = V.make_problem(f.order, p, "stable", 0.02)
            if len(prob.candidates) > 16:
                continue
            oracle = brute_force_volume(prob)
            raw = V.solve_lp(V.to_lp(prob))
            assert raw.objective <= len(oracle) - 1 + 1e-8
            sol = V.round_support(prob, raw)
            assert not V.z2_violations(prob, sol.cells)


def test_stable_volume_can_escape_optimal_volume_in_3d():
    """Synthetic 3D degree-1 fixture where the stable volume takes a tighter
    path outside the optimal volume, so the stable sub-volume (confined to
    the optimal volume) is strictly larger."""
    rng = np.random.default_rng(2)
    n = int(rng.integers(10, 16))
    pts = rng.random((n, 3)) * 2
    f = alpha_filtration(pts)
    d1 = [p for p in reduce(f.order) if p.degree == 1 and not p.essential]
    pair = next(p for p in d1 if abs(p.birth_time - 0.371702) < 1e-5)
    ov = V.solve_volume(f.order, pair, "optimal").cells
    sv = V.solve_volume(f.order, pair, "stable", 0.05).cells
    sub = V.solve_volume(f.order, pair, "sub", 0.05, ov_cells=ov).cells
    assert not sv <= ov          # the tighter path leaves the optimal volume
    assert sub <= ov | {pair.death_simplex}
    assert len(sub) > len(sv)    # confinement makes the sub-volume larger
    assert len(sub) <= len(ov)


def test_lp_equals_tree_in_3d_codim1():
    # the tree/LP identity is dimension-generic for codimension-1 pairs
    rng = np.random.default_rng(12)
    for _ in range(6):
        pts = rng.random((int(rng.integers(12, 22)), 3)) * 2
        f = alpha_filtration(pts)
        tree = compute_tree(build_dual_graph(f.order), f.order)
        for p in tree.pairs_table():
            for eps in (0.0, 0.03, 0.1):
                sv_tree = stable_volume_tree(tree, p, eps).cells
                assert V.solve_volume(f.order, p, "stable", eps).cells == sv_tree


def lattice_optimal_problems(keep=lambda prog: len(prog.candidates) and program_rows(prog)[0]):
    """Optimal-mode problems of the degree-1 pairs of lattice_3x3x3 seeds
    0-4 whose l1 program passes `keep` (default: it has candidates and
    equality rows)."""
    out = []
    for seed in range(5):
        f = alpha_filtration(lattice_3x3x3(seed).points)
        for p in reduce(f.order):
            if p.degree != 1 or p.essential or p.birth_time == p.death_time:
                continue
            prob = V.make_problem(f.order, p, "optimal")
            prog = V.to_lp(prob)
            if keep(prog):
                out.append((f.order, p, prob, prog))
    return out


def program_of(prog):
    """An `L1Program`'s candidates, equality rows and pin as Python values."""
    return prog.candidates.tolist(), program_rows(prog)


def count_linprog(monkeypatch):
    calls = []
    linprog = V.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(V, "linprog", counted)
    return calls


def test_pin_sign_hint_is_the_feasible_sign(monkeypatch):
    problems = lattice_optimal_problems()
    assert len(problems) > 100
    signs = set()
    calls = count_linprog(monkeypatch)
    for order, p, prob, prog in problems:
        hint = V.pin_sign_hint(prog)
        signs.add(hint)
        V.solve_lp(V._pinned_to(prog, hint))
        with pytest.raises(V.InfeasibleError):
            V.solve_lp(V._pinned_to(prog, -hint))
        del calls[:]
        V.solve_volume(order, p, "optimal")
        assert len(calls) == 1
    assert signs == {1, -1}


def test_wrong_pin_sign_hint_retries_to_the_same_cells(monkeypatch):
    problems = lattice_optimal_problems()[:12]
    expected = [V.solve_volume(o, p, "optimal").cells for o, p, _, _ in problems]
    hint = V.pin_sign_hint
    monkeypatch.setattr(V, "pin_sign_hint", lambda prog: -hint(prog))
    solve_lp = V.solve_lp
    solved = []

    def spy(prog):
        solved.append(prog)
        return solve_lp(prog)

    monkeypatch.setattr(V, "solve_lp", spy)
    for (order, p, prob, _), cells in zip(problems, expected):
        del solved[:]
        assert V.solve_volume(order, p, "optimal").cells == cells
        # the retry solves to_lp's program for the opposite sign
        first, second = solved
        sign = program_rows(first)[1][3]
        assert program_of(first) == program_of(V._pinned_to(V.to_lp(prob), sign))
        assert program_of(second) == program_of(V._pinned_to(V.to_lp(prob), -sign))


def test_untouched_pin_hint_is_the_feasible_sign(monkeypatch):
    problems = lattice_optimal_problems(keep=lambda prog: not program_rows(prog)[1][1])
    assert len(problems) > 10
    signs = set()
    calls = count_linprog(monkeypatch)
    for order, p, prob, prog in problems:
        hint = V.pin_sign_hint(prog)
        signs.add(hint)
        V.solve_lp(V._pinned_to(prog, hint))
        with pytest.raises(V.InfeasibleError):
            V.solve_lp(V._pinned_to(prog, -hint))
        del calls[:]
        V.solve_volume(order, p, "optimal")
        assert len(calls) <= 1
    assert -1 in signs


def test_birth_coefficient_is_exact_and_signs_match_lsmr_oracle():
    # every feasible chain has the same birth coefficient, +-1, and the
    # feasibility solve finds it to 1e-9 on every lattice and torus program
    from helpers import make_problem_oracle, pin_sign_hint_oracle, to_lp_oracle, torus3d_order

    orders = [alpha_filtration(lattice_3x3x3(seed).points).order for seed in range(5)]
    orders += [torus3d_order(seed=seed) for seed in range(2)]
    signs = []
    for o in orders:
        for p in reduce(o):
            if p.degree != 1 or p.essential or p.birth_time == p.death_time:
                continue
            prog = V.to_lp(V.make_problem(o, p, "optimal"))
            value = V._birth_coefficient(prog)
            assert abs(abs(value) - 1) <= 1e-9
            sign = V.pin_sign_hint(prog)
            assert sign == (1 if value > 0 else -1)
            assert sign == pin_sign_hint_oracle(to_lp_oracle(make_problem_oracle(o, p, "optimal")))
            signs.append(sign)
    assert len(signs) > 350 and set(signs) == {1, -1}


@pytest.mark.parametrize(
    "prog",
    [
        l1_program([5, 6], [], (0, {5: 1}, 0, 1)),  # no rows
    ],
    ids=["no-rows"],
)
def test_pin_sign_hint_keeps_plus_one_without_candidates_or_rows(prog):
    assert V.pin_sign_hint(prog) == 1


@pytest.mark.parametrize(
    "prog, sign",
    [
        (l1_program([], [(3, {}, 0)], (0, {}, -1, 1)), -1),  # no candidates
        (l1_program([5], [], (0, {}, -1, 1)), -1),  # no rows
        (l1_program([5], [(3, {5: 1}, 1)], (0, {}, 1, -1)), 1),
        (l1_program([], [], (0, {}, 0, 1)), 1),  # no sign to take
    ],
    ids=["no-candidates", "no-rows", "rows", "zero-constant"],
)
def test_untouched_pin_hint_is_the_constant_sign(prog, sign):
    assert V.pin_sign_hint(prog) == sign


# ---------------------------------------------------------------------------
# the array problem and program against the per-simplex oracle assembly


def capture_linprog(monkeypatch):
    calls = []
    linprog = V.linprog

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(V, "linprog", recording)
    return calls


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, so -0.0 too


def capture_highs(monkeypatch):
    """Record each HiGHS solve as (model arguments, result)."""
    calls = []
    run = V._run_highs

    def recording(*args):
        res = run(*args)
        calls.append((args, res))
        return res

    monkeypatch.setattr(V, "_run_highs", recording)
    return calls


def assert_same_highs_model(args, want):
    """The model that `volopt.linprog` handed HiGHS is, bit for bit, the one
    that SciPy's linprog hands it (from `helpers.highs_model_oracle`)."""
    cost, a, lhs, rhs, lb, ub = args
    got = dict(c=cost, data=a.data, lhs=lhs, rhs=rhs, lb=lb, ub=ub)
    for name, arr in got.items():
        assert_same_array(arr, want[name])
    # HiGHS reads both index arrays as its own integer type
    assert a.indptr.tolist() == want["indptr"].tolist()
    assert a.indices.tolist() == want["indices"].tolist()
    assert V._HIGHS_OPTIONS == want["options"]


def assert_same_result(res, ref):
    """x, fun, nit and status as scipy.optimize.linprog gives them."""
    assert (res.status, res.success, res.nit) == (ref.status, ref.success, ref.nit)
    if ref.x is None:
        assert res.x is None and res.fun is None
    else:
        assert_same_array(res.x, ref.x)
        assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()


@functools.lru_cache(maxsize=None)
def oracle_problems():
    """(name, order, pair, mode, epsilon, ov_cells) for every finite degree-1
    pair of lattice_3x3x3 seeds 0-4 in modes optimal, stable (epsilon 0 and
    0.05) and sub (epsilon 0.05, inside the oracle's optimal volume), and
    the most persistent degree-1 pair of a 3D torus complex."""
    from helpers import solve_volume_oracle, torus3d_order

    sources = [(f"lattice-{seed}", alpha_filtration(lattice_3x3x3(seed).points).order, None)
               for seed in range(5)]
    sources.append(("torus3d", torus3d_order(), "most-persistent"))
    out = []
    for name, o, pick in sources:
        pairs = [p for p in reduce(o)
                 if p.degree == 1 and not p.essential and p.birth_time != p.death_time]
        if pick:
            pairs = [max(pairs, key=lambda p: p.death_time - p.birth_time)]
        for p in pairs:
            ov = solve_volume_oracle(o, p, "optimal")
            for mode, eps, cells in [("optimal", 0.0, None), ("stable", 0.0, None),
                                     ("stable", 0.05, None), ("sub", 0.05, ov)]:
                out.append((name, o, p, mode, eps, cells))
    return out


def test_program_and_highs_arguments_match_oracle(monkeypatch):
    from helpers import (
        highs_model_oracle,
        lp_arguments_oracle,
        make_problem_oracle,
        pin_sign_hint_oracle,
        to_lp_oracle,
    )

    problems = oracle_problems()
    assert len(problems) > 1000
    calls = capture_highs(monkeypatch)
    pinned = 0
    for name, o, p, mode, eps, ov in problems:
        prob = V.make_problem(o, p, mode, eps, ov)
        ref = make_problem_oracle(o, p, mode, eps, ov)
        assert prob.candidates.tolist() == ref.candidates
        assert prob.constraints.tolist() == ref.constraints
        for sign in (1, -1) if mode == "optimal" else (1,):
            prog, ref_prog = V.to_lp(prob), to_lp_oracle(ref, sign)
            if prog.pin_sign is not None:
                prog = V._pinned_to(prog, sign)
            assert prog.candidates.tolist() == ref_prog.candidates
            assert program_rows(prog) == (ref_prog.rows, ref_prog.pinned)
            if prog.pin_sign is not None:
                assert V.pin_sign_hint(prog) == pin_sign_hint_oracle(ref_prog)
                pinned += 1
            del calls[:]
            try:
                V.solve_lp(prog)
            except V.InfeasibleError:
                pass
            if len(prog.candidates):
                (args, res), = calls
                model, ref_res = highs_model_oracle(lp_arguments_oracle(ref_prog))
                assert_same_highs_model(args, model)
                assert_same_result(res, ref_res)
            else:
                assert not calls
    assert pinned > 400


def test_volumes_and_z2_violations_match_oracle():
    from helpers import make_problem_oracle, solve_volume_oracle, z2_violations_oracle

    rng = np.random.default_rng(11)
    problems = [q for i, q in enumerate(oracle_problems()) if i % 3 == 0 or q[0] == "torus3d"]
    for name, o, p, mode, eps, ov in problems:
        cells = V.solve_volume(o, p, mode, eps, ov).cells
        assert cells == solve_volume_oracle(o, p, mode, eps, ov)
        prob = V.make_problem(o, p, mode, eps, ov)
        ref = make_problem_oracle(o, p, mode, eps, ov)
        pool = sorted(cells | set(prob.candidates.tolist()))
        for _ in range(4):
            support = set(rng.choice(pool, size=rng.integers(0, len(pool) + 1), replace=False).tolist())
            assert V.z2_violations(prob, support) == z2_violations_oracle(ref, support)
