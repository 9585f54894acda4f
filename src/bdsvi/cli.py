"""Scenario-driven command line.

Commands: prox-check | compat-check | sde-sim | solve | cauchy | field | report.
Each command is a pure function of the Scenario that `load_scenario`, the only
reader of the file, builds; it returns (CSV header, CSV rows, report lines,
pass).  `run` alone writes the artifacts, `<command>.csv` then `<command>.txt`
(`-` as `_`), with a fixed float format so reruns are byte-identical.  Every
run derives all randomness from the scenario seed.  Exit codes: 0 success,
2 validation failure, 3 numerical failure or a failed check.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .convex import _sum_last, check_compatibility, prox_property_suite, validate_weights
from .drivers import generate_paths
from .field import continuity_diagnostic, sample_field
from .reflected import _BOUNDARY_TOL, local_time_identity_residual, simulate_reflected
from .scenarios import Scenario, ScenarioError, load_scenario
from .solver import (
    cauchy_study,
    penalization_diagnostics,
    solve_penalized,
    verify_vi_inclusion,
    weighted_norms,
)

__all__ = ["main", "run"]

_FMT = "%.17g"


def _build_run(scn: Scenario):
    """The ensemble of a scenario: reflected in its domain when it has one."""
    grid = scn.solver.grid
    if scn.model is None:
        return generate_paths(grid, scn.d, scn.n_paths, scn.seed, a_spec=scn.a_spec)
    noise = generate_paths(grid, scn.d, scn.n_paths, scn.seed, shared_backward=True)
    return simulate_reflected(scn.model, (grid.t0, scn.start), noise)


def _status(ok):
    return "PASS" if ok else "FAIL"


def cmd_prox_check(scn: Scenario):
    """Resolvent/gradient law suite on the scenario's own phi and psi."""
    tol = 1e-9
    lines = ["prox-check: resolvent nonexpansiveness, gradient Lipschitz/monotone laws,"
             " cross-eps product bound, envelope sandwich, subgradient membership"]
    rows, all_ok = [], True
    for i, (role, theta) in enumerate((("phi", scn.phi), ("psi", scn.psi))):
        name = f"{role}={theta.label}"
        worst = prox_property_suite(theta, n_samples=2000, seed=scn.seed + i)
        rows += [(name, prop, float(v)) for prop, v in worst.items()]
        ok = max(worst.values()) <= tol
        all_ok &= ok
        lines.append(f"{_status(ok)} {name}: worst violation {max(worst.values()):.3e} (tol {tol:.0e})")
    return ["function", "property", "worst_violation"], rows, lines, all_ok


def cmd_compat_check(scn: Scenario):
    """Coupling inequalities between (phi, psi) and (f, g) on a sample grid."""
    ladder = scn.eps_ladder or [1e-1, 1e-2, 1e-3]
    rng = np.random.default_rng(scn.seed)
    y, z = rng.uniform(-3, 3, 64)[:, None], rng.uniform(-3, 3, 64)[:, None, None]
    rep = check_compatibility(scn.phi, scn.psi, scn.coeffs.f, scn.coeffs.g, ladder, 0.5, y, z)
    rows = [("grad_product", rep.worst_i), ("phi_vs_g", rep.worst_ii), ("psi_vs_f", rep.worst_iii)]
    labels = ("gradient product >= 0", "phi-gradient vs g bound", "psi-gradient vs f bound")
    lines = ["compat-check: gradient-product positivity and the two one-sided"
             " coupling bounds between the convex pair and (f, g)"]
    lines += [f"{_status(w <= 1e-9)} {label}: worst {w:.3e}" for label, (_, w) in zip(labels, rows)]
    return ["inequality", "worst_violation"], rows, lines, rep.ok


def cmd_sde_sim(scn: Scenario):
    """Reflected-diffusion ensemble with containment and local-time checks."""
    if scn.model is None:
        raise ScenarioError("sde-sim needs a domain section")
    run = _build_run(scn)
    lv = scn.model.domain.level(run.X)
    contained = float(np.min(lv))
    res = local_time_identity_residual(run, scn.model)
    # node-major arrays: each node's paths are one contiguous row of lv.T and run.A.T
    lv_t, a_t = lv.T, run.A.T
    rows = zip(scn.solver.grid.nodes.tolist(), lv_t.mean(axis=1).tolist(), lv_t.min(axis=1).tolist(),
               a_t.mean(axis=1).tolist(), a_t.max(axis=1).tolist())
    ok = contained >= -_BOUNDARY_TOL  # _check_closure's tolerance: a start the loader accepts passes
    lines = [
        "sde-sim: projection-Euler reflected ensemble",
        f"{_status(ok)} containment in the closed domain: min level {contained:.3e}",
        f"local-time reconstruction residual: rms {res['rms']:.3e}, max {res['max']:.3e}",
    ]
    return ["t", "mean_level", "min_level", "mean_A", "max_A"], rows, lines, ok


def _solve_scenario(scn: Scenario):
    return solve_penalized(scn.coeffs, scn.phi, scn.psi, scn.solver, _build_run(scn))


def cmd_solve(scn: Scenario):
    sol = _solve_scenario(scn)  # holds only the A of its noise, so the temporaries below reuse the rest
    # node-major arrays: each node's paths are one contiguous row of q.T, so its mean is the
    # pairwise sum of a 1-d np.mean
    y, abs_z, u, v, a = (q.T for q in (
        sol.Y[:, :, 0], np.sqrt(_sum_last(sol.Z[:, :, 0] ** 2)), sol.U[:, :, 0], sol.V[:, :, 0], sol.A))
    rows = zip(scn.solver.grid.nodes.tolist(), y.mean(axis=1).tolist(), y.std(axis=1).tolist(),
               abs_z.mean(axis=1).tolist(), u.mean(axis=1).tolist(), v.mean(axis=1).tolist(),
               a.mean(axis=1).tolist())
    lines = [f"solve: scenario {scn.name!r}, scheme {scn.solver.scheme}, eps {scn.solver.eps:g}",
             f"Y at the initial node: mean {np.mean(sol.Y[:, 0, 0]):.10g}, std {np.std(sol.Y[:, 0, 0]):.3e}"]
    if not callable(scn.coeffs.terminal):
        xi = float(np.atleast_1d(scn.coeffs.terminal)[0])
        gap = float(np.max(np.abs(sol.Y[:, -1, 0] - xi)))
        lines.append(f"{_status(gap <= 1e-15)} terminal exactness: max |Y_T - xi| = {gap:.3e}")
    if scn.weight_warning:
        lines.append(f"WARN {scn.weight_warning}")
    return ["t", "mean_Y", "std_Y", "mean_abs_Z", "mean_U", "mean_V", "mean_A"], rows, lines, True


def cmd_cauchy(scn: Scenario):
    """Coupled eps-ladder convergence study; the rate exponent of the
    weighted sup gap in (eps + delta) should sit near one."""
    rep = cauchy_study(scn.coeffs, scn.phi, scn.psi, scn.solver, scn.eps_ladder, _build_run(scn))
    rows = [(float(a), float(b), float(g)) for (a, b), g in zip(rep.eps_pairs, rep.gaps_sq)]
    ok = 0.75 <= rep.slope <= 1.25
    lines = [
        "cauchy: weighted sup-gap between coupled penalized runs along the eps ladder",
        f"fitted log-log slope of the sup gap vs (eps + delta): {rep.slope:.4f}",
        f"{_status(ok)} slope within [0.75, 1.25]",
    ]
    return ["eps", "delta", "sup_gap_sq"], rows, lines, ok


def cmd_field(scn: Scenario):
    if scn.lattice is None:
        raise ScenarioError("field needs domain and lattice sections")
    est = sample_field(scn.model, scn.coeffs, scn.phi, scn.psi, scn.solver, scn.lattice,
                       n_paths=scn.n_paths, seed=scn.seed, n_b_draws=scn.draws)
    cont = continuity_diagnostic(est)
    t, x = np.meshgrid(est.grid.times, est.grid.points[:, 0], indexing="ij")
    rows = zip(t.ravel().tolist(), x.ravel().tolist(), est.values.ravel().tolist(), est.stderr.ravel().tolist())
    lines = ["field: Monte-Carlo value field on the space-time lattice",
             f"{_status(not cont['blowup'])} continuity modulus stable across strides "
             f"(fine {cont['worst_fine']:.3g}, coarse {cont['worst_coarse']:.3g})"]
    return ["t", "x", "u", "stderr"], rows, lines, not cont["blowup"]


def cmd_report(scn: Scenario):
    """Full diagnostic pass: solve, weighted norms, penalization energies,
    and the subgradient-inequality audit."""
    sol = _solve_scenario(scn)  # the analysis reads the constants, eps, phi and psi of the solve
    wr = validate_weights(sol.constants)
    norms = weighted_norms(sol)
    diag = penalization_diagnostics(sol) if sol.config.eps > 0.0 else {}  # eps = 0: no envelope
    vi = verify_vi_inclusion(sol, (-1.0, 0.0, 0.25, 0.5))  # audit points r of dimension k = 1
    lines = [
        f"report: scenario {scn.name!r}",
        f"{_status(wr.ok)} weight exponents beyond the sufficient bounds "
        f"(lam margin {wr.lam_margin:.3g}, mu margin {wr.mu_margin:.3g})",
        "weighted norms (exponential weight in t and A):",
    ]
    for key, v in norms.items():
        lines.append(f"  {key} = {v:.6g}")
    lines.append("penalization energies at the run eps:" if diag else "penalization energies: not defined at eps = 0")
    for key, v in diag.items():
        lines.append(f"  {key} = {v:.6g}")
    dA_line = f"worst dA-violation {vi['worst_psi']:.3e}" if vi["worst_psi"] > -np.inf else "no active dA"
    lines.append(f"subgradient-inequality audit: worst dt-violation {vi['worst_phi']:.3e}, {dA_line}")
    rows = ([("norm:" + key, float(v)) for key, v in norms.items()]
            + [("penalization:" + key, float(v)) for key, v in diag.items()]
            + [("vi:worst_phi", float(vi["worst_phi"])), ("vi:worst_psi", float(vi["worst_psi"]))])
    return ["quantity", "value"], rows, lines, True


_COMMANDS = {
    "prox-check": cmd_prox_check,
    "compat-check": cmd_compat_check,
    "sde-sim": cmd_sde_sim,
    "solve": cmd_solve,
    "cauchy": cmd_cauchy,
    "field": cmd_field,
    "report": cmd_report,
}


_PARSER = argparse.ArgumentParser(prog="bdsvi", description=__doc__)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--scenario", required=True, help="path to a YAML scenario file")
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--out", default="out")
_PARSER.add_argument("--paths", type=int, default=None)
_PARSER.add_argument("--steps", type=int, default=None)
_PARSER.add_argument("--eps", default=None, help="eps override; a comma list replaces the ladder")
_PARSER.add_argument("--quiet", action="store_true")


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    overrides = {"seed": args.seed, "paths": args.paths, "steps": args.steps}
    try:
        if args.eps is not None:  # one value sets eps; a list sets the ladder and eps to its last rung
            vals = [float(v) for v in args.eps.split(",") if v.strip()]
            if not vals:
                raise ValueError(f"--eps needs at least one value, got {args.eps!r}")
            overrides["eps"] = vals[-1]
            if len(vals) > 1:
                overrides["eps_ladder"] = vals
        scn = load_scenario(args.scenario, overrides)
        if scn.weight_warning and not args.quiet:
            sys.stderr.write(f"WARN {scn.weight_warning}\n")
        header, rows, lines, ok = _COMMANDS[args.command](scn)
        stem = os.path.join(args.out, args.command.replace("-", "_"))
        os.makedirs(args.out, exist_ok=True)
        with open(stem + ".csv", "w", newline="") as fh:  # fixed float format, '\n' line endings
            out = csv.writer(fh, lineterminator="\n")  # quotes only a field that holds a comma
            out.writerow(header)
            out.writerows([_FMT % v if isinstance(v, float) else v for v in row] for row in rows)
        text = "\n".join(lines) + "\n"
        with open(stem + ".txt", "w", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            sys.stdout.write(text)
        return 0 if ok else 3
    except (OSError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 2
    except (RuntimeError, RuntimeWarning, FloatingPointError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "detail": str(exc)}) + "\n")
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
