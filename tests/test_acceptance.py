"""End-to-end acceptance checks.

Each test prints one pass/fail line on the real stdout so the summary
survives pytest's capture; the assertions carry the same condition.
"""

import dataclasses
import time

import numpy as np
import pytest

from helpers import (CX, line4_five_gate_circuit, numeric_fidelity_budget, plain_links,
                     prepared, random_layered_circuit, reference_solution_text,
                     without_family)
from qaroute.bipmodel import assemble_problem
from qaroute.extract import (FreeSwap, GateOp, RoutedCircuit, decode, encode,
                             stats, verify_structural, verify_unitary)
from qaroute.gatefid import (avg_gate_fidelity, cnot_budget_fidelities,
                             FidelityModel)
from qaroute.heuristic import run_variant_full
from qaroute.hwgraph import builtin_topology
from qaroute.lexopt import lexicographic_solve
from qaroute.modelio import export_model, export_solution, import_model, import_solution
from qaroute.qvbench import (benchmark_batch, gen_qv_circuit, haar_su4,
                             heavy_output_mass, hop_under_noise, qv_instance)
from qaroute.circuit import LayeredCircuit
from qaroute.solver import (NoRouteError, SolveLimits, SolveStatus, solve_branch_and_bound,
                            solve_exhaustive)

T0 = time.time()


@pytest.fixture
def report(capsys):
    """One always-visible pass/fail line per criterion."""
    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


# ---------------------------------------------------------------------------
# Shared instance batches.

@pytest.fixture(scope="module")
def line4():
    return builtin_topology("line", 4)


@pytest.fixture(scope="module")
def exact_batch(line4):
    """30 line-4 instances, 3 gate layers, 2 dummy steps in between."""
    out = []
    for s in range(30):
        c = random_layered_circuit(4, (2, 2, 2), [101, s])
        c, fid = prepared(c, line4, 2)
        out.append((s, c, fid))
    return out


@pytest.fixture(scope="module")
def desk_batch(line4):
    """20 lowered QV circuits, half on line-4 and half on grid-6.

    Per instance: the two-stage run, the unconstrained depth optimum,
    and the four other variants, reused by several criteria below.
    """
    grid6 = builtin_topology("grid", 6)
    rows = []
    for i in range(20):
        if i < 10:
            g, layers = line4, 2 + (i % 3)
        else:
            g, layers = grid6, 2 + (i % 2)
        qv, c = qv_instance(4, [202, i], g.n, layers)  # the cut draw and its circuit
        fid = FidelityModel.build(c, g)
        lex = lexicographic_solve(c, g, fid, ("error", "depth"))
        _, p_err = assemble_problem(c, g, fid, objective="error")
        err_vec = p_err.objective
        rc_bip = lex.routed
        bip = dict(rc=rc_bip, st=stats(rc_bip, fid, g),
                   achieved=float(np.dot(err_vec, lex.result.assignment)))
        _, p_depth = assemble_problem(c, g, fid, objective="depth")
        depth_free = solve_branch_and_bound(p_depth, SolveLimits())
        runs = {}
        for variant in ("sabre_like", "bip_routing", "bip_constrained"):
            try:
                runs[variant] = run_variant_full(variant, c, g, fid)
            except NoRouteError:
                runs[variant] = None
        rows.append(dict(idx=i, g=g, c=c, fid=fid, qv=qv, lex=lex, bip=bip,
                         depth_free=depth_free.objective, runs=runs))
    return rows


# ---------------------------------------------------------------------------

def test_criterion_01_solver_matches_exhaustive(report, exact_batch, line4):
    worst_dev, worst_time, n_opt = 0.0, 0.0, 0
    stats_dev = 0.0
    for s, c, fid in exact_batch:
        t0 = time.time()
        vs, p = assemble_problem(c, line4, fid, objective="error")
        res = solve_branch_and_bound(p, SolveLimits())
        (ref,), _ = solve_exhaustive(c, line4, fid, ("error",))
        dt = time.time() - t0
        if res.status is SolveStatus.OPTIMAL:
            n_opt += 1
        worst_dev = max(worst_dev, abs(res.objective - ref))
        worst_time = max(worst_time, dt)
        rc = decode(vs, res.assignment, c, line4, fid)
        stats_dev = max(stats_dev, abs(stats(rc, fid, line4).error_objective_value
                                       - res.objective))
    ok = n_opt == 30 and worst_dev <= 1e-9 and worst_time < 60.0 and stats_dev <= 1e-9
    report(1, ok, f"{n_opt}/30 optimal, max|bb-exhaustive|={worst_dev:.2e}, "
                   f"max time {worst_time:.2f}s")


def test_criterion_02_reference_assignment_accepted(report, line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    res = import_solution(p, reference_solution_text())
    rc = decode(vs, res.assignment, c, line4, fid)
    merged = {(t, op.gid) for t, ops in enumerate(rc.steps) for op in ops
              if isinstance(op, GateOp) and op.merged_swap}
    structural = verify_structural(rc, c, line4)
    dev = verify_unitary(rc, c)
    ok = (res.status is SolveStatus.FEASIBLE
          and merged == {(0, 0), (0, 1), (1, 2)}
          and rc.final_map == (2, 0, 3, 1)
          and structural is None and dev <= 1e-8)
    report(2, ok, f"feasible, 3 merged swaps in the first two steps, "
                   f"final map (2,0,3,1), unitary dev {dev:.1e}")


def test_criterion_03_no_error_depth_tradeoff(report, desk_batch):
    bad = []
    for row in desk_batch:
        constrained = row["lex"].stage_values[1]
        free = row["depth_free"]
        if abs(constrained - free) > 1e-9:
            bad.append((row["idx"], constrained, free))
    detail = f"{len(desk_batch) - len(bad)}/{len(desk_batch)} instances with " \
             f"stage-2 depth == unconstrained depth"
    if bad:
        detail += f"; counterexamples {bad}"
    report(3, not bad, detail)


def test_criterion_04_crosstalk_tradeoff_exists(report):
    y6 = builtin_topology("y", 6)
    values = []
    for s in range(20):
        sizes = (2, 2) if s % 2 == 0 else (3, 1)
        c = random_layered_circuit(6, sizes, [303, s])
        c, fid = prepared(c, y6, 1)
        lex = lexicographic_solve(c, y6, fid, ("error", "depth", "crosstalk"))
        values.append(lex.stage_values[2])
    n_pos = sum(1 for v in values if v > 1e-9)
    report(4, n_pos >= 1,
            f"{n_pos}/20 instances keep crosstalk > 0 on the min-error, "
            f"min-depth face (max {max(values):.0f})")


def test_criterion_05_exact_dominates_greedy(report, desk_batch):
    violations = []
    reductions = []
    for row in desk_batch:
        b, s = row["bip"]["st"], row["runs"]["sabre_like"].stats
        if (b.error_objective_value > s.error_objective_value + 1e-9
                or b.cnot_count > s.cnot_count):
            violations.append(row["idx"])
        if s.cnot_count:
            reductions.append(100.0 * (s.cnot_count - b.cnot_count) / s.cnot_count)
    mean_red = float(np.mean(reductions))
    report(5, not violations,
            f"error and CNOTs <= greedy on {len(desk_batch)}/{len(desk_batch)} "
            f"instances, mean CNOT reduction {mean_red:.1f}%")


def test_criterion_06_variant_ordering(report, desk_batch):
    eps = 1e-9
    bad = []
    n_constrained = 0
    for row in desk_batch:
        bip = row["bip"]["st"].error_objective_value
        sabre = row["runs"]["sabre_like"].stats.error_objective_value
        routing = row["runs"]["bip_routing"].stats.error_objective_value
        if not (bip <= routing + eps <= sabre + 2 * eps):
            bad.append((row["idx"], "routing", bip, routing, sabre))
        constrained = row["runs"]["bip_constrained"]
        if constrained is not None:
            n_constrained += 1
            if bip > constrained.stats.error_objective_value + eps:
                bad.append((row["idx"], "constrained"))
    report(6, not bad,
            f"bip <= bip_routing <= sabre_like on 20/20; bip <= "
            f"bip_constrained on {n_constrained} feasible instances"
            + (f"; violations {bad}" if bad else ""))


def test_criterion_07_fidelity_math(report):
    checks = []
    gates = [haar_su4([707, i]) for i in range(100)]
    f3_dev = max(abs(cnot_budget_fidelities(u)[3] - 1.0) for u in gates)
    checks.append(f3_dev <= 1e-9)
    checks.append(all(a <= b + 1e-12
                      for u in gates
                      for a, b in zip(cnot_budget_fidelities(u),
                                      cnot_budget_fidelities(u)[1:])))
    oracle_dev = 0.0
    for u in gates[:20]:
        closed = cnot_budget_fidelities(u)[:3]
        numeric = numeric_fidelity_budget(u, k_max=2)
        oracle_dev = max(oracle_dev, max(abs(a - b)
                                         for a, b in zip(closed, numeric)))
    checks.append(oracle_dev <= 1e-4)
    checks.append(avg_gate_fidelity(CX, np.eye(4)) == 0.4)
    report(7, all(checks),
            f"F(.,3)=1 within {f3_dev:.1e} on 100 gates, monotone, "
            f"oracle dev {oracle_dev:.1e} on 20 gates, F(CX,I)=0.4")


def test_criterion_08_objective_accounting(report, desk_batch, line4):
    c = LayeredCircuit(4, ((), ()))
    fid = FidelityModel.build(c, line4)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    rc = RoutedCircuit(n_nodes=4, initial_map=(0, 1, 2, 3),
                       final_map=(0, 1, 3, 2),
                       steps=((FreeSwap(edge=(2, 3)),), ()))
    vec = encode(rc, vs)
    assert p.check_assignment(vec) is None
    one_swap = p.objective_value(vec)
    target = -3.0 * np.log(0.9936)
    swap_dev = abs(one_swap - target)

    cross_dev = max(abs(row["bip"]["st"].error_objective_value
                        - row["bip"]["achieved"]) for row in desk_batch)
    ok = swap_dev <= 1e-12 and cross_dev <= 1e-9
    report(8, ok, f"one free swap costs {one_swap:.10f} "
                   f"(dev {swap_dev:.1e}); stats vs model dev {cross_dev:.1e} "
                   f"across {len(desk_batch)} solved instances")


def test_criterion_09_linearization_and_symmetry_safety(report, exact_batch, line4):
    # The model against its reference forms, built from its rows by
    # family: plain McCormick links, no dummy-step chain, and both.
    worst = 0.0
    for s, c, fid in exact_batch[:10]:
        vs, p = assemble_problem(c, line4, fid, objective="error")
        plain = plain_links(vs, p)
        values = []
        for form in (p, plain, without_family(p, "SYM_CHAIN"),
                     without_family(plain, "SYM_CHAIN")):
            res = solve_branch_and_bound(form, SolveLimits())
            assert res.status is SolveStatus.OPTIMAL
            values.append(res.objective)
        worst = max(worst, max(values) - min(values))
    report(9, worst <= 1e-9,
            f"optima agree across both linearizations and chain on/off "
            f"on 10 instances (max spread {worst:.1e})")


def test_criterion_10_heavy_output_behavior(report, desk_batch):
    masses = [heavy_output_mass(gen_qv_circuit(4, [404, i]))[1]
              for i in range(200)]
    mean_mass = float(np.mean(masses))
    in_band = 0.75 < mean_mass < 0.92

    # Strict monotonicity on a fixed circuit: the same schedule with one
    # extra free swap has a strictly larger error and a strictly lower HOP.
    row = desk_batch[0]
    rc, fid, qv = row["bip"]["rc"], row["fid"], row["qv"]
    i, j = row["g"].edges[0]
    qa, qb = rc.final_map.index(i), rc.final_map.index(j)
    fm = list(rc.final_map)
    fm[qa], fm[qb] = fm[qb], fm[qa]
    worse = dataclasses.replace(rc, steps=rc.steps + ((FreeSwap(edge=(i, j)),),),
                                final_map=tuple(fm), time_aligned=False)
    assert verify_structural(worse, row["c"], row["g"]) is None
    strictly = hop_under_noise(qv, worse, fid) < hop_under_noise(qv, rc, fid)

    pair_ok = True
    for row in desk_batch:
        sabre = row["runs"]["sabre_like"]
        if (row["bip"]["st"].error_objective_value
                < sabre.stats.error_objective_value - 1e-9):
            pair_ok = (hop_under_noise(row["qv"], row["bip"]["rc"], row["fid"])
                       > hop_under_noise(row["qv"], sabre.routed, row["fid"]))
            break

    line4 = builtin_topology("line", 4)
    grid6 = builtin_topology("grid", 6)
    batch_ok = True
    for g, n, seed, jobs in ((line4, 5, 505, 1), (grid6, 4, 606, 2)):
        res = benchmark_batch(n, 4, ("bip", "sabre_like"), g, seed=seed,
                              dummy_steps=1, n_layers=2, jobs=jobs)
        if res.estimates["bip"].mean < res.estimates["sabre_like"].mean - 1e-12:
            batch_ok = False
    elapsed = time.time() - T0
    ok = in_band and strictly and pair_ok and batch_ok and elapsed < 1800
    report(10, ok, f"mean heavy mass {mean_mass:.4f} on 200 circuits, "
                    f"HOP strictly rises as error falls, batch means ordered; "
                    f"suite at {elapsed:.0f}s")


def test_criterion_11_export_integrity(report, line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    vs, p = assemble_problem(c, line4, fid, objective="error")

    lp = export_model(p, "lp")
    binaries = [ln.strip() for ln in lp[lp.index("Binary"):].split("\n")[1:]
                if ln.strip() and ln.strip() != "End"]
    mps = export_model(p, "mps")
    in_int, mps_cols = False, set()
    for ln in mps.split("\n"):
        if "'MARKER'" in ln:
            in_int = "'INTORG'" in ln
        elif ln.startswith(("RHS", "BOUNDS", "RANGES", "ENDATA")):
            break
        elif in_int and ln.split():
            mps_cols.add(ln.split()[0])
    counts_ok = len(binaries) == 158 and len(mps_cols) == 158 and p.num_vars == 158
    round_ok = (export_model(import_model(lp), "lp") == lp
                and export_model(import_model(mps), "mps") == mps)

    external = "no external solver"
    external_ok = True
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import lil_matrix
    except ImportError:
        milp = None
    if milp is not None:
        c1 = random_layered_circuit(4, (2, 2, 2), [101, 0])
        c1, fid1 = prepared(c1, line4, 2)
        _, p1 = assemble_problem(c1, line4, fid1, objective="error")
        a = lil_matrix((len(p1.rows), p1.num_vars))
        lo, hi = [], []
        for r, row in enumerate(p1.rows):
            for v, coef in zip(row.vars, row.coefs):
                a[r, v] = coef
            lo.append(row.rhs if row.sense in ("=", ">=") else -np.inf)
            hi.append(row.rhs if row.sense in ("=", "<=") else np.inf)
        res = milp(c=p1.objective,
                   constraints=LinearConstraint(a.tocsr(), lo, hi),
                   integrality=np.ones(p1.num_vars), bounds=Bounds(0, 1),
                   options={"mip_rel_gap": 0.0})
        assert res.success
        text = export_solution(p1, np.round(res.x).astype(int))
        back = import_solution(p1, text)
        embedded = solve_branch_and_bound(p1, SolveLimits())
        external_ok = abs(back.objective - embedded.objective) <= 1e-9
        external = (f"external MILP optimum matches embedded within "
                    f"{abs(back.objective - embedded.objective):.1e}")
    report(11, counts_ok and round_ok and external_ok,
            f"158 binaries in LP and MPS, round trips byte-identical; {external}")
