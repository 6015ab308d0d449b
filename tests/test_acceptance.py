"""Acceptance suite: one test per criterion, each printing a pass line with
its measured margin (run with -s to see them; pytest -v gives the verdict
per criterion either way)."""

import time

import numpy as np

from voltgame.acflow import equation_residuals, sweep_solve
from voltgame.controls import ControlSpec
from voltgame.dynamics import (
    OperatingConstants,
    anticipating_stepper,
    condition_report,
    run,
    taking_stepper,
)
from voltgame.equilibrium import objective_F, solve_iterative
from voltgame.experiments import SweepSpec, load_sce42, run_sweep
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (
    DegreeDistribution,
    chain_network,
    random_instance,
    random_tree,
    tree_laplacian,
)

from oracles import (
    chain_feeder,
    chain_x_inverse,
    droop_scalar,
    grid_best_response_nash,
    grid_minimize,
    objective_F_batch,
    objective_F_direct,
    pi_matrix,
    search_alpha_window,
    uniform_chain_eigenvalues,
)


def _report(num, label, detail):
    print(f"[acceptance] criterion {num} ({label}): PASS -- {detail}")


def _bounded_tree(dist, seed, n_max):
    for attempt in range(60):
        net, y = random_instance(dist, seed + 131 * attempt)
        if net.n <= n_max:
            return net, y
    raise RuntimeError("no tree under the size cap")


def test_criterion_01_pi_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    dist = DegreeDistribution({1: 0.6, 2: 0.4}, max_depth=7,
                              x_range=(0.0, 2.0), y_range=(0.5, 1.5))
    worst = 0.0
    for seed in range(50):
        net, y = _bounded_tree(dist, seed, n_max=50)
        S = build_sensitivity(net)
        Pi = pi_matrix(S, y)
        spec = ControlSpec.quadratic(y)
        for _ in range(50):
            dv = rng.uniform(-1.0, 1.0, net.n)
            vt = OperatingConstants(1.0 + dv, dv)
            eq = solve_iterative("F", S, spec, vt)
            na = solve_iterative("W", S, spec, vt)
            gap = objective_F(S, spec, vt, na.q_a) - objective_F(S, spec, vt, eq.q_star)
            quad = 0.5 * float(dv @ Pi @ dv)
            rel = abs(quad - gap) / abs(quad)
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, "Pi-oracle equivalence", f"max rel err {worst:.2e} over 2500 checks, {elapsed:.1f}s")


def test_criterion_02_analytic_inverse_identity():
    t0 = time.monotonic()
    shapes = [
        DegreeDistribution({1: 1.0}, max_depth=500, x_range=(0.5, 2.0)),          # chains
        DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=12, x_range=(0.5, 2.0)),   # binary-ish
        DegreeDistribution({1: 0.3, 2: 0.3, 3: 0.4}, max_depth=6, x_range=(0.5, 2.0)),
        DegreeDistribution({1: 0.7, 2: 0.3}, max_depth=20, x_range=(0.5, 2.0)),   # deep, lean
    ]
    worst = 0.0
    n_max_seen = 0
    for k in range(100):
        dist = shapes[k % len(shapes)]
        net, _ = _bounded_tree(dist, 9000 + k, n_max=500)
        n_max_seen = max(n_max_seen, net.n)
        S = build_sensitivity(net)
        P = S.X @ tree_laplacian(net).toarray()
        err = float(np.linalg.norm(P - np.eye(net.n)) / np.sqrt(net.n))
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, "analytic inverse identity", f"max rel Frobenius {worst:.2e}, "
            f"largest n={n_max_seen}, {elapsed:.1f}s")


def test_criterion_03_chain_eigenvalue_formula():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(1, 201):
        a = float(rng.uniform(0.3, 3.0))
        lam = uniform_chain_eigenvalues(n, a)
        num = np.linalg.eigvalsh(chain_x_inverse([a] * n))[::-1]
        rel = float(np.max(np.abs(lam - num) / np.abs(num)))
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(3, "chain eigenvalue closed form", f"max rel err {worst:.2e} for n=1..200")


def _assert_row_ordering(row):
    slack = 1e-9 * max(1.0, abs(row["upper"]))
    assert row["lower"] <= row["posa_max"] + slack
    assert row["posa_max"] <= row["refined_upper"] + slack
    assert row["refined_upper"] <= row["upper"] + slack
    assert row["upper"] - row["lower"] <= row["gap_bound"] + slack


def test_criterion_04_bound_ordering_and_gap():
    checked = 0
    # homogeneous chain, x=1, Y=I, up to n=1000
    rows_hom = run_sweep(SweepSpec(kind="chain-size",
                                   sizes=[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
                                   x=1.0, y=1.0))
    for row in rows_hom:
        _assert_row_ordering(row)
    checked += len(rows_hom)
    gap = {row["n"]: row["upper"] - row["lower"] for row in rows_hom}
    assert gap[1000] < 0.1 * gap[10]

    # heterogeneous chains with the published parameter ranges
    rows_het = run_sweep(SweepSpec(kind="chain-size", sizes=[5, 20, 80, 200],
                                   x_range=(0.0, 200.0), y_range=(0.0, 100.0),
                                   repetitions=10, seed=41))
    for row in rows_het:
        _assert_row_ordering(row)
    checked += len(rows_het)

    # random trees: binary to depth 15, ternary capped at the same node scale
    rows_bin = run_sweep(SweepSpec(kind="random-tree-depth", depths=[3, 6, 9, 12, 15],
                                   dist_probs={1: 0.5, 2: 0.5}, repetitions=10, seed=42,
                                   x_range=(0.0, 200.0), y_range=(0.0, 100.0)))
    rows_ter = run_sweep(SweepSpec(kind="random-tree-depth", depths=[3, 5, 7, 9],
                                   dist_probs={1: 0.3, 2: 0.3, 3: 0.4}, repetitions=10,
                                   seed=43, x_range=(0.0, 200.0), y_range=(0.0, 100.0)))
    largest = 0
    for row in rows_bin + rows_ter:
        _assert_row_ordering(row)
        largest = max(largest, row["n"])
    checked += len(rows_bin) + len(rows_ter)
    _report(4, "bound ordering and gap", f"{checked} instances, largest tree n={largest}, "
            f"chain gap ratio {gap[1000] / gap[10]:.3f}")


def test_criterion_05_certificate_strictness_and_window():
    rng = np.random.default_rng(5)
    for k in range(200):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=int(rng.integers(2, 7)),
                                  x_range=(0.05, 2.0))
        net = random_tree(dist, int(rng.integers(0, 2**31)))
        alpha = rng.uniform(0.05, 5.0, net.n)
        spec = ControlSpec(alpha, np.zeros(net.n),
                           np.full(net.n, -np.inf), np.full(net.n, np.inf))
        rep = condition_report(build_sensitivity(net), spec)
        assert rep.sigma_anticipating < rep.sigma_taking

    S = build_sensitivity(chain_network([1.0] * 10))
    alpha = search_alpha_window(S)
    spec = ControlSpec.uniform(10, alpha=alpha)
    rep = condition_report(S, spec)
    assert rep.sigma_anticipating < 1.0 < rep.sigma_taking
    dv = np.full(10, 0.05)
    vt = OperatingConstants(1.0 + dv, dv)
    anti = run(anticipating_stepper(S, spec, vt), np.zeros(10), tol=1e-10, max_iter=100_000)
    take = run(taking_stepper(S, spec, vt), np.zeros(10), tol=1e-10, max_iter=100_000)
    assert anti.converged
    assert take.status == "diverged"
    _report(5, "certificate strictness", f"200 strict orderings; window alpha={alpha:.4f} "
            f"(sigmas {rep.sigma_taking:.3f} / {rep.sigma_anticipating:.3f})")


def test_criterion_06_fixed_point_vs_optimum():
    count = 0
    seed = 0
    worst = 0.0
    while count < 20:
        seed += 1
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=4 + seed % 3,
                                  x_range=(0.1, 1.5))
        net = random_tree(dist, seed)
        S = build_sensitivity(net)
        rng = np.random.default_rng(seed)
        n = net.n
        alpha = rng.uniform(0.5, 2.0, n)
        spec = ControlSpec(alpha, rng.uniform(0.0, 0.04, n),
                           np.full(n, -rng.uniform(0.1, 0.6)), np.full(n, rng.uniform(0.1, 0.6)))
        rep = condition_report(S, spec)
        if rep.sigma_taking >= 1.0:
            spec = ControlSpec(alpha * (0.85 / rep.sigma_taking), spec.delta,
                               spec.q_min, spec.q_max)
            rep = condition_report(S, spec)
        assert rep.sigma_taking < 1.0 and rep.sigma_anticipating < 1.0
        dv = rng.uniform(-0.1, 0.1, n)
        vt = OperatingConstants(1.0 + dv, dv)

        take = run(taking_stepper(S, spec, vt), np.zeros(n), tol=1e-11)
        anti = run(anticipating_stepper(S, spec, vt), np.zeros(n), tol=1e-11)
        assert take.converged and anti.converged
        eq = solve_iterative("F", S, spec, vt, tol=1e-12)
        na = solve_iterative("W", S, spec, vt, tol=1e-12)
        err_t = float(np.max(np.abs(take.q_final - eq.q_star)))
        err_a = float(np.max(np.abs(anti.q_final - na.q_a)))
        worst = max(worst, err_t, err_a)
        assert err_t <= 1e-7 and err_a <= 1e-7
        count += 1
    _report(6, "fixed point vs optimum", f"20 boxed/deadband instances, max gap {worst:.2e}")


def test_criterion_07_brute_force_desk_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial, n in enumerate([2, 3, 4, 4]):
        xs = rng.uniform(0.3, 1.2, n)
        S = build_sensitivity(chain_network(xs))
        y = rng.uniform(0.8, 1.6, n)
        delta = rng.uniform(0.0, 0.02, n)
        qmin = np.full(n, -0.25)
        qmax = np.full(n, 0.25)
        dv = rng.uniform(-0.3, 0.3, n)
        vt = OperatingConstants(1.0 + dv, dv)
        spec = ControlSpec(1.0 / y, delta, qmin, qmax)

        eq = solve_iterative("F", S, spec, vt, tol=1e-12)
        na = solve_iterative("W", S, spec, vt, tol=1e-12)
        gap_solver = na.F_at_qa - eq.F_value

        fF = lambda Q: objective_F_batch(S.X, y, delta, dv, np.clip(Q, qmin, qmax))
        _, F_grid = grid_minimize(fF, qmin, qmax, rounds=10, points=13)
        q_nash = grid_best_response_nash(S.X, y, delta, dv, qmin, qmax)
        gap_grid = objective_F_direct(S.X, y, delta, dv, q_nash) - F_grid

        err = abs(gap_solver - gap_grid)
        worst = max(worst, err)
        assert err <= 1e-4, f"trial {trial}"
    _report(7, "brute-force desk oracle", f"max |gap - grid gap| {worst:.2e} on n<=4")


def test_criterion_08_ac_sweep_correctness():
    # SCE feeder residuals at convergence
    data = load_sce42()
    p = np.array([b.p_g - b.p_c for b in data.net.buses])
    q = np.array([-b.q_c for b in data.net.buses])
    state = sweep_solve(data.net, p, q, tol=1e-8)
    res = equation_residuals(data.net, p, q, state)
    assert res < 1e-8

    # two-bus closed form
    r, x, pl, ql = 0.03, 0.08, -0.4, -0.25
    net2 = chain_feeder([x], rs=[r])
    state2 = sweep_solve(net2, np.array([pl]), np.array([ql]), tol=1e-13)
    A = r * r + x * x
    B = -(2 * pl * r + 2 * ql * x + 1.0)
    C = pl * pl + ql * ql
    ell = (-B - np.sqrt(B * B - 4 * A * C)) / (2 * A)
    v1_sq = 1.0 - 2 * (r * (-pl + r * ell) + x * (-ql + x * ell)) + A * ell
    assert abs(state2.ell[0] - ell) < 1e-10
    assert abs(state2.v_sq[1] - v1_sq) < 1e-10

    # linearization error scales quadratically with loading
    net5 = chain_feeder([0.02] * 5, rs=[0.01] * 5)
    S5 = build_sensitivity(net5)
    p5 = np.full(5, -0.1)
    q5 = np.full(5, -0.05)
    gaps = []
    for scale in (1.0, 0.5):
        st = sweep_solve(net5, scale * p5, scale * q5, tol=1e-13)
        v_lin = 1.0 + S5.R @ (scale * p5) + S5.X @ (scale * q5)
        gaps.append(float(np.max(np.abs(st.v - v_lin))))
    ratio = gaps[0] / gaps[1]
    assert 3.0 < ratio < 5.0
    _report(8, "AC sweep correctness", f"SCE residual {res:.1e}, 2-bus err "
            f"{abs(state2.v_sq[1] - v1_sq):.1e}, halving ratio {ratio:.2f}")


def test_criterion_09_sce_qualitative_reproduction():
    # efficiency loss positive and decreasing in the cost coefficient
    y_values = [0.02, 0.04, 0.08, 0.16, 0.32]
    rows_y = run_sweep(SweepSpec(kind="cost-coefficient", y_values=y_values))
    posa = [row["posa_max"] for row in rows_y]
    assert all(v > 0 for v in posa)
    assert all(a > b for a, b in zip(posa, posa[1:]))

    # convergence comparison across droop slopes, full AC loop
    rows_a = run_sweep(SweepSpec(kind="alpha", alphas=[9.0, 18.0, 27.0], delta=0.02, ac=True))
    by_alpha = {}
    for row in rows_a:
        by_alpha.setdefault(row["alpha"], {})[row["law"]] = row["status"]
    gap_alphas = []
    for alpha, status in sorted(by_alpha.items()):
        taking_ok = status["taking"] == "converged"
        anticipating_ok = status["anticipating"] == "converged"
        if taking_ok:
            assert anticipating_ok, f"anticipating failed where taking converged (alpha={alpha})"
        if anticipating_ok and not taking_ok:
            gap_alphas.append(alpha)
    # the scanned range does contain a splitting slope; the sweep must report it
    sigma_t = {row["alpha"]: row["sigma_taking"] for row in rows_a}
    if any(s > 0.98 for s in sigma_t.values()):
        assert gap_alphas, "no alpha reported where only the anticipating loop converges"
    _report(9, "SCE qualitative reproduction",
            f"posa_max decreasing over y={y_values}; split alphas {gap_alphas}")


def test_criterion_10_droop_response_consistency():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10_000):
        alpha = float(rng.uniform(0.05, 20.0))
        delta = float(rng.uniform(0.0, 0.2))
        xii = float(rng.uniform(0.0, 5.0))
        c = float(rng.uniform(-5.0, 5.0))
        spec = ControlSpec.uniform(1, alpha=alpha, delta=delta)
        q = float(spec.project(spec.eval_anticipating(xii, c))[0])
        err = abs(q - droop_scalar(alpha, delta, 2 * xii * q + c))
        worst = max(worst, err)
        assert err <= 1e-12
    _report(10, "droop/anticipating consistency", f"max fixed-point defect {worst:.2e} "
            "over 10000 tuples")
