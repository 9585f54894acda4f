"""Scenario files: named catalogs plus YAML parsing.

One scenario file describes one experiment: the convex pair (phi, psi), the
coefficient selections, structural constants, optional domain, grid, solver
settings, eps ladder, and seed.  All randomness in a run derives from the
scenario seed.  `load_scenario` is the only reader of the file: it builds
every object a command uses, so a bad section fails at load for every command.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from .convex import AssumptionConstants, ConvexFunction, make_convex, validate_weights
from .drivers import TimeGrid, load_a_table
from .field import FieldGrid
from .reflected import DomainSpec, make_domain
from .solver import CoefficientSet, SolverConfig

__all__ = ["Scenario", "ScenarioError", "load_scenario", "make_coefficients", "make_terminal"]


# libyaml's parser when PyYAML was built with it; both loaders resolve and
# construct with the same safe Python code, so they yield equal documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Raised when a scenario file fails validation."""


def _whole(value, key):
    """A count or seed setting as an int: 7.0 loads as 7, but int() would truncate
    7.9 to another run's setting, so a fraction, inf or nan fails."""
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _affine(spec: dict, noise: bool):
    kind = spec.get("kind", "zero")
    if kind not in ("zero", "constant", "linear"):
        raise ScenarioError(f"unknown coefficient kind {kind!r}")
    a_y, a_z, c = (float(spec.get(key, 0.0)) if kind == "linear" else 0.0 for key in ("a_y", "a_z", "c"))
    if kind == "constant":
        c = float(spec["value"])
    if not (a_y or a_z):  # zero and constant: one fill and no arithmetic pass
        fill = np.zeros if c == 0.0 else lambda shape: np.full(shape, c)
        if noise:
            return lambda t, x, y, z: fill(y.shape + (z.shape[-1],))
        return lambda t, x, y, z=None: fill(y.shape)

    def affine(t, x, y, z=None):
        v = a_y * y + a_z * np.sum(z, axis=-1) + c if a_z and z is not None else a_y * y + c
        return v[..., None] * np.ones(z.shape[-1]) if noise else v
    return affine


def make_coefficients(co: dict):
    """The maps f, g and h that a coefficients section spells.

    Each is the affine map a_y y + a_z sum(z) + c: kind zero (the default) is
    the map 0, constant the map `value`, and linear reads a_y, a_z and c, each
    0 when absent.  g takes no z, so an a_z on g is a ScenarioError, and h
    repeats its value along the last axis of z, as CoefficientSet expects.
    """
    if "a_z" in co.get("g", {}):
        raise ScenarioError("coefficient g takes no z, so it has no a_z")
    return tuple(_affine(co.get(role, {}), role == "h") for role in ("f", "g", "h"))


def make_terminal(spec: dict):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return float(spec.get("value", 0.0))
    if kind == "quadratic_norm":
        return lambda x: np.sum(x * x, axis=-1)
    if kind == "identity":
        return lambda x: x[..., 0]
    raise ScenarioError(f"unknown terminal kind {kind!r}")


@dataclass
class Scenario:
    name: str
    phi: ConvexFunction
    psi: ConvexFunction
    coeffs: CoefficientSet
    grid: TimeGrid
    solver: SolverConfig
    seed: int
    n_paths: int
    eps_ladder: list
    domain: Optional[DomainSpec]
    d: int  # the domain's dimension, else the file's dim
    start: np.ndarray  # (d,) launch point of a reflected ensemble
    sigma: float
    drift: float
    a_spec: Optional[Callable]  # A = t, None for A = 0, or a table; the local time replaces it in a domain
    lattice: Optional[FieldGrid]  # the field lattice, its times on grid nodes
    draws: int  # backward-noise draws of the field
    vi_test_points: list
    weight_warning: Optional[str] = None


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must be a mapping")
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})

    def top(key, section, default):  # a top-level key, such as a CLI override, wins over its section's
        return raw[key] if raw.get(key) is not None else section.get(key, default)

    try:
        name = raw.get("name", "unnamed")
        phi = make_convex(raw.get("phi", "zero"))
        psi = make_convex(raw.get("psi", "zero"))
        constants = AssumptionConstants(**{k: float(v) for k, v in raw.get("constants", {}).items()})
        co = raw.get("coefficients", {})
        f, g, h = make_coefficients(co)
        coeffs = CoefficientSet(f, g, h, make_terminal(co.get("terminal", {"kind": "constant"})), constants)
        gs = raw.get("grid", {})
        grid = TimeGrid.uniform(float(gs.get("t0", 0.0)), float(gs.get("T", 1.0)),
                                _whole(top("steps", gs, 100), "steps"))
        sv = raw.get("solver", {})
        regression = sv.get("regression", "sample-mean")
        if isinstance(regression, dict):
            regression = (regression["kind"], _whole(regression.get("degree", regression.get("cells", 2)),
                                                     "regression degree or cells"))
        solver = SolverConfig(
            grid=grid,
            eps=float(top("eps", sv, 1e-3)),
            scheme=sv.get("scheme", "implicit-prox"),
            regression=regression,
        )
        domain = None
        if raw.get("domain"):
            dspec = dict(raw["domain"])
            if "dim" in dspec:
                dspec["dim"] = _whole(dspec["dim"], "domain dim")
            domain = make_domain(dspec.pop("kind"), **dspec)
        d = domain.d if domain is not None else _whole(raw.get("dim", 1), "dim")
        start = np.atleast_1d(np.asarray(raw.get("start", np.zeros(d)), dtype=float))
        if start.shape != (d,):
            raise ScenarioError(f"start must be a point of dimension {d}, got shape {start.shape}")
        if regression == "sample-mean" and (domain is not None or callable(coeffs.terminal)):
            # the pathwise value update it takes holds only for state-free data
            raise ScenarioError("regression sample-mean needs a constant terminal and no domain;"
                                " use poly or partition")
        ladder = [float(e) for e in raw.get("eps_ladder", [])]
        a_process = raw.get("a_process", "time")
        if a_process == "time":
            a_spec = lambda t: np.asarray(t, dtype=float)
        elif a_process == "none":
            a_spec = None
        else:  # a table path, relative to the scenario file
            a_spec = load_a_table(os.path.join(os.path.dirname(os.path.abspath(path)), a_process))
        lattice, draws, lat = None, 1, raw.get("lattice")
        if lat is not None:
            if domain is None or domain.d != 1:
                raise ScenarioError("a field lattice needs a one-dimensional domain")
            n_times, n_points = (_whole(lat.get(key, 5), f"lattice {key}") for key in ("times", "points"))
            idx = np.linspace(0, grid.n_steps, n_times).round().astype(int)
            lo, hi = domain.bounding_box
            pts = np.linspace(float(lo[0]), float(hi[0]), n_points)[:, None]
            lattice = FieldGrid.build(domain, grid.nodes[idx], pts)
            draws = _whole(lat.get("draws", 1), "lattice draws")
        scn = Scenario(
            name=name,
            phi=phi,
            psi=psi,
            coeffs=coeffs,
            grid=grid,
            solver=solver,
            seed=_whole(raw.get("seed", 0), "seed"),
            n_paths=_whole(raw.get("paths", 100), "paths"),
            eps_ladder=ladder,
            domain=domain,
            d=d,
            start=start,
            sigma=float(raw.get("sigma", 1.0)),
            drift=float(raw.get("drift", 0.0)),
            a_spec=a_spec,
            lattice=lattice,
            draws=draws,
            vi_test_points=raw.get("vi_test_points", [-1.0, 0.0, 0.25, 0.5]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ScenarioError(str(exc)) from exc
    wr = validate_weights(constants)
    if not wr.ok:
        # sufficient-not-necessary inequalities: warn, do not abort
        scn.weight_warning = (
            f"weight constants outside the sufficient region: "
            f"lam margin {wr.lam_margin:.4g}, mu margin {wr.mu_margin:.4g}"
        )
    return scn
