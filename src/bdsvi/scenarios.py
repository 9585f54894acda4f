"""Scenario files: named catalogs plus YAML parsing.

One scenario file describes one experiment: the convex pair (phi, psi), the
coefficient selections, structural constants, optional domain, grid, solver
settings, eps ladder, and seed.  All randomness in a run derives from the
scenario seed.  `load_scenario` is the only reader of the file: it builds
every object a command uses, so a bad section fails at load for every command.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from .convex import AssumptionConstants, ConvexFunction, make_convex, validate_weights
from .drivers import TimeGrid
from .field import FieldGrid
from .reflected import DomainSpec, make_domain
from .solver import CoefficientSet, SolverConfig, _Affine

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


def _mapping(spec, where):
    """spec, which must be a mapping: a list or a number would fail later, with a message naming no section."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(spec).__name__} {spec!r}")
    return spec


def _keys(spec, where, *known):
    """spec, its keys all known: a misspelled key fails at load instead of leaving its default in force."""
    unknown = sorted(map(str, _mapping(spec, where).keys() - known))
    if unknown:
        raise ScenarioError(f"unknown {where} key(s) {', '.join(unknown)}; known: {', '.join(known)}")
    return spec


def _kind(spec, where, default, kinds):
    """The kind a section names, with its other keys checked against that kind's."""
    kind = _mapping(spec, where).get("kind", default)
    if kind not in kinds:
        raise ScenarioError(f"unknown {where} kind {kind!r}")
    _keys(spec, where, "kind", *kinds[kind])
    return kind


def _affine(spec: dict, role: str) -> _Affine:
    kind = _kind(spec, f"coefficient {role}", "zero",
                 {"zero": (), "constant": ("value",), "linear": ("a_y", "a_z", "c")})
    a_y, a_z, c = (float(spec.get(key, 0.0)) if kind == "linear" else 0.0 for key in ("a_y", "a_z", "c"))
    if kind == "constant":
        if "value" not in spec:
            raise ScenarioError(f"coefficient {role} of kind constant needs a value")
        c = float(spec["value"])
    return _Affine(a_y, a_z, c, role == "h")


def make_coefficients(co: dict):
    """The maps f, g and h that a coefficients section spells.

    Each is the affine map a_y y + a_z sum(z) + c: kind zero (the default) is
    the map 0, constant the map `value`, and linear reads a_y, a_z and c, each
    0 when absent; any other key is a ScenarioError.  g takes no z, so an a_z
    on g is one too, and h repeats its value along the last axis of z.
    """
    if "a_z" in _mapping(co.get("g", {}), "coefficient g"):
        raise ScenarioError("coefficient g takes no z, so it has no a_z")
    return tuple(_affine(co.get(role, {}), role) for role in ("f", "g", "h"))


def make_terminal(spec: dict):
    kind = _kind(spec, "terminal", "constant", {"constant": ("value",), "quadratic_norm": ()})
    if kind == "constant":
        return float(spec.get("value", 0.0))
    return lambda x: np.sum(x * x, axis=-1)


@dataclass
class Scenario:
    name: str
    phi: ConvexFunction
    psi: ConvexFunction
    coeffs: CoefficientSet
    solver: SolverConfig  # its grid is the scenario's
    seed: int
    n_paths: int
    eps_ladder: list
    domain: Optional[DomainSpec]
    d: int  # the domain's dimension, else the file's dim
    start: np.ndarray  # (d,) launch point of a reflected ensemble
    sigma: float
    drift: float
    a_spec: Optional[Callable]  # A = t, or None for A = 0; the local time replaces it in a domain
    lattice: Optional[FieldGrid]  # the field lattice, its times on grid nodes
    draws: int  # backward-noise draws of the field
    vi_test_points: list
    weight_warning: Optional[str] = None


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    def top(key, section, default):  # a top-level key, such as a CLI override, wins over its section's
        return raw[key] if raw.get(key) is not None else section.get(key, default)

    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must be a mapping")
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        _keys(raw, "scenario", *"""name phi psi constants coefficients grid solver domain dim start sigma drift
              eps_ladder a_process lattice seed paths vi_test_points steps eps""".split())
        name = raw.get("name", "unnamed")
        phi = make_convex(raw.get("phi", "zero"))
        psi = make_convex(raw.get("psi", "zero"))
        constants = AssumptionConstants(**{k: float(v) for k, v in
                                           _mapping(raw.get("constants", {}), "constants").items()})
        co = _keys(raw.get("coefficients", {}), "coefficients", "f", "g", "h", "terminal")
        f, g, h = make_coefficients(co)
        coeffs = CoefficientSet(f, g, h, make_terminal(co.get("terminal", {"kind": "constant"})), constants)
        gs = _keys(raw.get("grid", {}), "grid", "t0", "T", "steps")
        grid = TimeGrid.uniform(float(gs.get("t0", 0.0)), float(gs.get("T", 1.0)),
                                _whole(top("steps", gs, 100), "steps"))
        sv = _keys(raw.get("solver", {}), "solver", "eps", "scheme", "regression")
        regression = sv.get("regression", "sample-mean")
        if regression != "sample-mean":  # a poly or partition mapping, its count key named by its kind
            kind = _kind(regression, "regression", None, {"poly": ("degree",), "partition": ("cells",)})
            count = {"poly": "degree", "partition": "cells"}[kind]
            regression = (kind, _whole(regression.get(count, 2), f"regression {count}"))
        solver = SolverConfig(
            grid=grid,
            eps=float(top("eps", sv, 1e-3)),
            scheme=sv.get("scheme", "implicit-prox"),
            regression=regression,
        )
        domain = None
        if raw.get("domain"):
            dspec = dict(_mapping(raw["domain"], "domain"))
            if "dim" in dspec:
                dspec["dim"] = _whole(dspec["dim"], "domain dim")
            domain = make_domain(dspec.pop("kind", None), **dspec)
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
        else:
            raise ScenarioError(f"unknown a_process {a_process!r}; known: time, none")
        lattice, draws, lat = None, 1, raw.get("lattice")
        if lat is not None:
            _keys(lat, "lattice", "times", "points", "draws")
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
    except (KeyError, TypeError, AttributeError, yaml.YAMLError) as exc:
        # a KeyError's str() is the repr of its message: the message itself, without quotes
        raise ScenarioError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc
    wr = validate_weights(constants)
    if not wr.ok:
        # sufficient-not-necessary inequalities: warn, do not abort
        scn.weight_warning = (
            f"weight constants outside the sufficient region: "
            f"lam margin {wr.lam_margin:.4g}, mu margin {wr.mu_margin:.4g}"
        )
    return scn
