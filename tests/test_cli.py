import csv
import itertools
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from bdsvi import scenarios
from bdsvi.cli import _COMMANDS, _build_run, _solve_scenario, run
from bdsvi.convex import prox_property_suite
from bdsvi.field import sample_field
from bdsvi.scenarios import _YAML_LOADER, ScenarioError, load_scenario, make_coefficients, make_terminal
from bdsvi.solver import penalization_diagnostics, weighted_norms

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _scn(name):
    return os.path.join(SCEN, name)


# ---------------------------------------------------------------- scenario parsing

def test_load_zero_scenario():
    scn = load_scenario(_scn("zero.yaml"))
    assert scn.name == "zero-penalty-linear"
    assert scn.phi.label == "zero"
    assert scn.solver.grid.n_steps == 100
    assert scn.n_paths == 1000
    assert scn.weight_warning is None


def test_overrides_apply():
    scn = load_scenario(_scn("zero.yaml"), {"steps": 10, "paths": 7, "seed": 5, "eps": 0.5})
    assert scn.solver.grid.n_steps == 10
    assert scn.n_paths == 7
    assert scn.seed == 5
    assert scn.solver.eps == 0.5


@pytest.mark.parametrize("key, value", [("steps", 10), ("eps", 0.5)])
def test_top_level_steps_or_eps_in_a_file_fails_at_load(tmp_path, capsys, key, value):
    """steps belongs under grid and eps under solver.  A top-level one in a
    file used to override its section's silently; now it is an unknown key,
    named at load (exit 2).  The CLI's --steps and --eps go into the
    sections (test_overrides_apply)."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw.update({key: value}))
    with pytest.raises(ScenarioError, match=f"unknown scenario key\\(s\\) {key};"):
        load_scenario(p)
    assert run(["solve", "--scenario", p, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation" and f"key(s) {key};" in record["detail"]
    assert not (tmp_path / "out").exists()


def test_weight_warning_set_when_outside_region(tmp_path):
    raw = yaml.safe_load(open(_scn("zero.yaml")))
    raw["constants"]["lam"] = 0.1
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(raw))
    scn = load_scenario(p)
    assert scn.weight_warning is not None


def test_unknown_catalog_name_raises(tmp_path):
    raw = yaml.safe_load(open(_scn("zero.yaml")))
    raw["phi"] = "mystery"
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(raw))
    with pytest.raises((KeyError, ScenarioError)):
        load_scenario(p)


def test_coefficient_builders():
    y = np.array([[1.0], [-2.0], [0.5], [3.0]])
    z = np.arange(8.0).reshape(4, 1, 2)
    f, g, h = make_coefficients({"f": {"kind": "linear", "a_y": 2.0, "c": 1.0},
                                 "g": {"kind": "constant", "value": -1.0},
                                 "h": {"kind": "constant", "value": 0.5}})
    assert np.array_equal(f(0.0, None, y, z), 2.0 * y + 1.0)
    assert np.array_equal(g(0.0, None, y), np.full((4, 1), -1.0))
    assert np.array_equal(h(0.0, None, y, z), np.full((4, 1, 2), 0.5))
    f, g, h = make_coefficients({"f": {"kind": "linear", "a_y": -0.5, "a_z": 0.25, "c": 0.3},
                                 "g": {"kind": "linear", "a_y": -0.2}, "h": {"kind": "linear", "c": 0.1}})
    assert np.array_equal(f(0.0, None, y, z), -0.5 * y + 0.25 * np.sum(z, axis=-1) + 0.3)
    assert np.array_equal(g(0.0, None, y), -0.2 * y + 0.0)
    assert np.array_equal(h(0.0, None, y, z), np.full((4, 1, 2), 0.1))
    for m, args in zip(make_coefficients({}), [(y, z), (y,), (y, z)]):  # every kind defaults to zero
        assert not np.any(m(0.0, None, *args)) and m(0.0, None, *args).shape[:2] == (4, 1)
    chi = make_terminal({"kind": "quadratic_norm"})
    assert np.allclose(chi(np.array([[3.0, 4.0]])), 25.0)
    with pytest.raises(ScenarioError):
        make_coefficients({"f": {"kind": "cubic"}})


def test_zero_overrides_apply(tmp_path):
    """An override of 0 is applied, not read as absent."""
    assert load_scenario(_scn("vi_oracle.yaml"), {"eps": 0.0}).solver.eps == 0.0
    assert run(["solve", "--scenario", _scn("vi_oracle.yaml"), "--out", str(tmp_path), "--steps", "50",
                "--eps", "0", "--quiet"]) == 0
    assert (tmp_path / "solve.txt").read_text().splitlines()[0].endswith(", eps 0")


def test_unknown_a_process_fails_at_load(tmp_path, capsys):
    """a_process is time or none; any other value, such as a file name, is a
    validation error named at load (exit 2)."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw.update(a_process="a.csv"))
    with pytest.raises(ScenarioError, match="a_process 'a.csv'"):
        load_scenario(p)
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err


@pytest.mark.parametrize("name, lattice", [("ball.yaml", {"times": 3, "points": 3}), ("field.yaml", [5, 5])],
                         ids=["planar-ball", "not-a-mapping"])
def test_bad_lattice_fails_at_load(tmp_path, name, lattice):
    """Field lattices are one-dimensional mappings; a lattice section on the
    planar ball, or one that is not a mapping, fails at load, whatever the
    command."""
    p = _variant(tmp_path, name, lambda raw: raw.update(lattice=lattice))
    with pytest.raises(ScenarioError, match="lattice"):
        load_scenario(p)
    assert run(["sde-sim", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("section, value, named", [
    ("grid", 5, "grid"), ("solver", 3, "solver"), ("coefficients", {"f": "zero"}, "coefficient f"),
    ("coefficients", {"g": 2}, "coefficient g"), ("constants", 3, "constants"), ("domain", [1, 2], "domain")],
    ids=["grid", "solver", "coefficient-f", "coefficient-g", "constants", "domain"])
def test_section_that_is_not_a_mapping_names_itself(tmp_path, capsys, section, value, named):
    """A list or a number where a mapping belongs failed with "'list' object
    has no attribute 'keys'"; the validation error names the section."""
    p = _variant(tmp_path, "ball.yaml", lambda raw: raw.update({section: value}))
    with pytest.raises(ScenarioError, match=f"^{named} must be a mapping"):
        load_scenario(p)
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert f"{named} must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prox-check", "solve"])
@pytest.mark.parametrize("regression, message", [
    ({"kind": "poly", "cells": 3}, "unknown regression key(s) cells"),
    ({"kind": "partition", "degree": 4}, "unknown regression key(s) degree"),
    ({"kind": "banana"}, "unknown regression kind 'banana'"),
    ({"degree": 2}, "unknown regression kind None"),
    ("poly", "regression must be a mapping"),
    ({"kind": "poly", "degree": -1}, "poly degree must be a whole number >= 0, got -1"),
    ({"kind": "partition", "cells": 0}, "partition cells must be m**2 for a whole m >= 1, got 0"),
    ({"kind": "partition", "cells": 2}, "partition cells must be m**2 for a whole m >= 1, got 2"),
    ({"kind": "partition", "cells": 3}, "partition cells must be m**2 for a whole m >= 1, got 3")],
    ids=["poly-cells", "partition-degree", "banana", "no-kind", "string", "negative-degree", "no-cells", "cells-2",
         "cells-3"])
def test_regression_fails_at_load_by_its_kind(tmp_path, capsys, regression, message, command):
    """poly takes a degree and partition cells: poly with cells: 3 ran degree
    3 and partition with degree: 4 ran 4 cells, and an unknown kind passed
    prox-check, all with exit 0.  So did the counts the projector changed
    on the planar ball: degree -1 fitted a constant, cells 0 one cell, and
    cells 2 and 3 ran as 1 and 4 cells."""
    p = _variant(tmp_path, "ball.yaml", lambda raw: raw["solver"].update(regression=regression))
    assert run([command, "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["1", "2", "3"])
def test_lattice_with_more_times_than_grid_nodes_fails_at_load(tmp_path, capsys, steps):
    """field.yaml's 5 lattice times on steps + 1 <= 4 nodes would snap two
    times to one node, and the continuity check read a zero time gap as a
    NaN ratio and passed."""
    with pytest.raises(ScenarioError, match="lattice times 5 exceed"):
        load_scenario(_scn("field.yaml"), {"steps": int(steps)})
    assert run(["field", "--scenario", _scn("field.yaml"), "--steps", steps, "--out", str(tmp_path), "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation" and "lattice times 5 exceed" in record["detail"]


@pytest.mark.parametrize("command", ["field", "sde-sim"])
@pytest.mark.parametrize("key, count", [("times", 0), ("points", 0), ("draws", 0),
                                        ("times", -1), ("points", -1), ("draws", -1)])
def test_empty_lattice_is_a_validation_error(tmp_path, capsys, key, count, command):
    """points: 0 divided by zero blocks in the sweep (exit 1), times: 0
    reduced an empty array, and -1 exited 2 with numpy's message, naming
    no key.  draws: 0 passed the load, so sde-sim exited 0.  Each count
    below 1 now fails at load, for every command."""
    p = _variant(tmp_path, "field.yaml", lambda raw: raw["lattice"].update({key: count}))
    with pytest.raises(ScenarioError, match=f"lattice has no {key}"):
        load_scenario(p)
    assert run([command, "--scenario", p, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "validation", "detail": f"lattice has no {key}"}


@pytest.mark.parametrize("command", ["compat-check", "prox-check"])
@pytest.mark.parametrize("paths", [0, -3])
def test_paths_below_one_fail_at_load(tmp_path, capsys, paths, command):
    """paths: 0 and -3 ran compat-check and prox-check, which draw no paths,
    to exit 0."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw.update(paths=paths))
    detail = f"paths must be at least 1, got {paths}"
    with pytest.raises(ScenarioError, match=detail):
        load_scenario(p)
    assert run([command, "--scenario", p, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
    assert not (tmp_path / "out").exists()


def _without_start(raw, **domain):
    raw["domain"].update(domain)
    del raw["start"]


def _with_domain(raw, section):
    """zero.yaml with a domain section and without its domain-free key a_process."""
    del raw["a_process"]
    raw["domain"] = section


_LADDER = "eps ladder must be finite, > 0 and strictly decreasing, got "
_REAL = "{} must be a real number, got {}"
_KNOWN = "; known: name, phi, psi, constants, coefficients, grid, solver, domain, eps_ladder, lattice, seed, paths, "
_NO_DOMAIN_KEY = "unknown scenario key(s) {}" + _KNOWN + "dim, a_process"  # a key of a file without a domain
_DOMAIN_KEY = "unknown scenario key(s) {}" + _KNOWN + "start, sigma, drift"  # a key of a file with one
_LOAD_MUTATIONS = {  # id: (scenario, edit of its document, the owner's message)
    "poly-no-domain": ("zero.yaml", lambda raw: raw["solver"].update(regression={"kind": "poly", "degree": 2}),
                       "regression poly needs a state: a domain, or an ensemble that carries X"),
    "partition-no-domain": ("zero.yaml", lambda raw: raw["solver"].update(regression={"kind": "partition",
                                                                                      "cells": 4}),
                            "regression partition needs a state: a domain, or an ensemble that carries X"),
    "ladder-zero": ("zero.yaml", lambda raw: raw.update(eps_ladder=[0.1, 0]), _LADDER + "[0.1, 0.0]"),
    "ladder-negative": ("zero.yaml", lambda raw: raw.update(eps_ladder=[0.1, -0.01]), _LADDER + "[0.1, -0.01]"),
    "ladder-increasing": ("cauchy.yaml", lambda raw: raw.update(eps_ladder=[0.1, 0.2]), _LADDER + "[0.1, 0.2]"),
    "start-outside": ("ball.yaml", lambda raw: raw.update(start=[5, 0]),
                      "start point lies outside the closure of the domain"),
    "start-nan": ("ball.yaml", lambda raw: raw.update(start=[float("nan"), 0.0]),
                  "start point lies outside the closure of the domain"),
    "vi-test-points": ("vi_oracle.yaml", lambda raw: raw.update(vi_test_points=[-1.0, 0.0, 0.25, 0.5]),
                       _NO_DOMAIN_KEY.format("vi_test_points")),
    "interval-empty": ("field.yaml", lambda raw: raw["domain"].update(lo=0.5, hi=0.5),
                       "interval needs finite lo < hi, got lo 0.5, hi 0.5"),
    "interval-reversed": ("field.yaml", lambda raw: raw["domain"].update(lo=1.0, hi=-1.0),
                          "interval needs finite lo < hi, got lo 1.0, hi -1.0"),
    "ball-radius-0": ("ball.yaml", lambda raw: raw["domain"].update(radius=0.0),
                      "ball needs dim >= 1 and a finite radius > 0, got dim 2, radius 0.0"),
    "ball-dim-0": ("ball.yaml", lambda raw: _without_start(raw, dim=0),
                   "ball needs dim >= 1 and a finite radius > 0, got dim 0, radius 1.0"),
    "dim-0": ("zero.yaml", lambda raw: raw.update(dim=0), "dim must be at least 1, got 0"),
    "seed-negative": ("zero.yaml", lambda raw: raw.update(seed=-1), "seed -1 is outside [0, 2**64)"),
    "seed-wide": ("zero.yaml", lambda raw: raw.update(seed=2 ** 70), f"seed {2 ** 70} is outside [0, 2**64)"),
    "grid-T-nan": ("zero.yaml", lambda raw: raw["grid"].update(T=float("nan")),
                   "a time grid needs finite t0 < T, got t0 0.0, T nan"),
    "constant-lam-nan": ("zero.yaml", lambda raw: raw["constants"].update(lam=float("nan")),
                         "constant lam must be finite, got nan"),
    "coefficient-c-nan": ("zero.yaml", lambda raw: raw["coefficients"].update(f={"kind": "linear", "a_y": -0.5,
                                                                                 "c": float("nan")}),
                          "coefficient a_y, a_z and c must be finite, got -0.5, 0.0, nan"),
    "zero-sigma": ("zero.yaml", lambda raw: raw.update(sigma=5), _NO_DOMAIN_KEY.format("sigma")),
    "zero-drift": ("zero.yaml", lambda raw: raw.update(drift=2), _NO_DOMAIN_KEY.format("drift")),
    "zero-start": ("zero.yaml", lambda raw: raw.update(start=[3]), _NO_DOMAIN_KEY.format("start")),
    "ball-a-process": ("ball.yaml", lambda raw: raw.update(a_process="none"), _DOMAIN_KEY.format("a_process")),
    "ball-dim-3": ("ball.yaml", lambda raw: raw.update(dim=3), _DOMAIN_KEY.format("dim")),
    "ball-dim-negative": ("ball.yaml", lambda raw: raw.update(dim=-5), _DOMAIN_KEY.format("dim")),
    "ball-sigma-nan": ("ball.yaml", lambda raw: raw.update(sigma=float("nan")),
                       "constant sigma must be finite, got nan"),
    "field-drift-inf": ("field.yaml", lambda raw: raw.update(drift=float("inf")),
                        "constant drift must be finite, got inf"),
    "phi-quadratic-negative": ("zero.yaml", lambda raw: raw.update(phi="quadratic(-1.0)"),
                               "quadratic coefficient must be finite and >= 0, got -1.0"),
    "phi-quadratic-nan": ("vi_oracle.yaml", lambda raw: raw.update(phi="quadratic(nan)"),
                          "quadratic coefficient must be finite and >= 0, got nan"),
    "phi-quadratic-inf": ("vi_oracle.yaml", lambda raw: raw.update(phi="quadratic(inf)"),
                          "quadratic coefficient must be finite and >= 0, got inf"),
    "phi-box-nan": ("vi_oracle.yaml", lambda raw: raw.update(phi="indicator_box(nan,0.5)"),
                    "indicator box must contain 0 (normalization theta(0)=0)"),
    "domain-empty": ("zero.yaml", lambda raw: _with_domain(raw, {}), "domain section names no kind; known: ball, "
                     "interval"),
    "domain-list": ("zero.yaml", lambda raw: _with_domain(raw, []), "domain must be a mapping, got list []"),
    "domain-zero": ("zero.yaml", lambda raw: _with_domain(raw, 0), "domain must be a mapping, got int 0"),
    "domain-null": ("zero.yaml", lambda raw: _with_domain(raw, None), "domain must be a mapping, got NoneType None"),
    "paths-true": ("zero.yaml", lambda raw: raw.update(paths=True), "paths must be a whole number, got True"),
    "seed-false": ("zero.yaml", lambda raw: raw.update(seed=False), "seed must be a whole number, got False"),
    "steps-true": ("zero.yaml", lambda raw: raw["grid"].update(steps=True), "steps must be a whole number, got True"),
    "eps-true": ("zero.yaml", lambda raw: raw["solver"].update(eps=True), _REAL.format("eps", True)),
    "T-true": ("zero.yaml", lambda raw: raw["grid"].update(T=True), _REAL.format("T", True)),
    "lam-true": ("zero.yaml", lambda raw: raw["constants"].update(lam=True), _REAL.format("constant lam", True)),
    "a-y-true": ("zero.yaml", lambda raw: raw["coefficients"]["f"].update(a_y=True),
                 _REAL.format("coefficient f a_y", True)),
    "terminal-true": ("zero.yaml", lambda raw: raw["coefficients"]["terminal"].update(value=True),
                      _REAL.format("terminal value", True)),
    "ladder-true": ("zero.yaml", lambda raw: raw.update(eps_ladder=[True, 0.5]), _REAL.format("eps_ladder", True)),
    "sigma-true": ("ball.yaml", lambda raw: raw.update(sigma=True), _REAL.format("sigma", True)),
    "drift-false": ("ball.yaml", lambda raw: raw.update(drift=False), _REAL.format("drift", False)),
    "start-booleans": ("ball.yaml", lambda raw: raw.update(start=[True, False]), _REAL.format("start", True)),
    "radius-true": ("ball.yaml", lambda raw: raw["domain"].update(radius=True), _REAL.format("domain radius", True)),
    "interval-booleans": ("field.yaml", lambda raw: raw["domain"].update(lo=False, hi=True),
                          _REAL.format("domain hi", True)),  # safe_dump sorts the keys
    "start-nested": ("ball.yaml", lambda raw: raw.update(start=[[0.0, 0.0]]),
                     "start must be a point of dimension 2, got shape (1, 2)"),
    "lattice-null": ("field.yaml", lambda raw: raw.update(lattice=None),
                     "lattice must be a mapping, got NoneType None"),
    "lattice-2x2": ("field.yaml", lambda raw: raw["lattice"].update(times=2, points=2),
                    "lattice too small for continuity pairs"),
    "lattice-1x2": ("field.yaml", lambda raw: raw["lattice"].update(times=1, points=2),
                    "lattice too small for continuity pairs"),
    "poly-no-degree": ("ball.yaml", lambda raw: raw["solver"].update(regression={"kind": "poly"}),
                       "regression poly needs its degree"),
    "partition-no-cells": ("ball.yaml", lambda raw: raw["solver"].update(regression={"kind": "partition"}),
                           "regression partition needs its cells"),
}


def _fails_at_load_for_every_command(tmp_path, capsys, p, detail):
    """load_scenario raises detail, and every command exits 2 with it as one validation record and no artifact."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert str(err.value) == detail
    for command in sorted(_COMMANDS):
        out = tmp_path / command
        assert run([command, "--scenario", p, "--out", str(out), "--quiet"]) == 2, command
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}, command
        assert not out.exists(), command


@pytest.mark.parametrize("case", sorted(_LOAD_MUTATIONS))
def test_a_bad_input_fails_at_load_for_every_command(tmp_path, capsys, case):
    """Each rule has one owner (the estimator rule, the eps ladder, the
    domain's closure, a domain builder's parameters, the seed's range, the
    finiteness of the grid, the constants, the coefficients and the forward
    model's drift and sigma, the catalog's parameters, and the keys of a run
    kind) and the loader reaches it, so every command exits 2 with the
    owner's message before it does any work.  Before the loader reached
    these rules the commands disagreed on each case: some exited 0, some 1
    with a traceback, some 2 after a solve or with another message, and a
    nan T, lam or c let prox-check, report or compat-check exit 0.  The
    forward-model keys of the other run kind (sigma, drift or start without
    a domain; dim or a_process with one) were dropped, so every command
    exited 0 as if they were absent; a nan sigma or an inf drift exited 3
    from the simulating commands, blaming the time step, and 0 from
    prox-check and compat-check.  An empty or null domain section loaded as
    a file without one, a boolean count or seed ran as 1 or 0, each with
    exit 0, and so did a boolean real (eps, T, a constant, a coefficient, the
    terminal value, a ladder rung, sigma, drift, start or a domain bound), read
    as 1.0 or 0.0.  A null lattice section loaded as a file without one: solve
    exited 0 and field 2 with "field needs domain and lattice sections".  A
    lattice with fewer than three times and three points exited 0 from solve
    and 2 from field only after sampling, and a regression without its count
    ran with a count of 2 the file never wrote.  A nan catalog argument made
    prox-check, compat-check, solve and report exit 3 as a numerical
    failure, and quadratic(inf) let the same four exit 0."""
    name, edit, detail = _LOAD_MUTATIONS[case]
    _fails_at_load_for_every_command(tmp_path, capsys, _variant(tmp_path, name, edit), detail)


def test_real_keys_read_yaml_text_as_numbers(tmp_path):
    """PyYAML reads 1e-3, which has no dot, as a string; a real key loads it
    as its number, as float() did, while a boolean fails (_LOAD_MUTATIONS)."""
    text = open(_scn("ball.yaml")).read().replace("eps: 1.0e-3", "eps: 1e-3").replace("T: 1.0", "T: 2e0")
    text = text.replace("radius: 1.0", "radius: 1e0").replace("start: [0.0, 0.0]", "start: [1e-1, 0]")
    p = tmp_path / "text.yaml"
    p.write_text(text)
    assert yaml.safe_load(text)["solver"]["eps"] == "1e-3"
    scn = load_scenario(str(p))
    assert scn.solver.eps == 1e-3 and scn.solver.grid.T == 2.0 and scn.model.domain.d == 2
    assert scn.start.dtype == float and scn.start.tolist() == [0.1, 0.0]


def test_a_scenario_file_that_is_a_list_fails_at_load(tmp_path, capsys):
    p = tmp_path / "list.yaml"
    p.write_text(yaml.safe_dump([yaml.safe_load(open(_scn("zero.yaml")))]))
    _fails_at_load_for_every_command(tmp_path, capsys, str(p), "scenario file must be a mapping")


def test_a_start_the_loader_accepts_passes_containment(tmp_path, capsys):
    """A start 5e-10 outside the interval loads (the loader's closure check,
    up to reflected._BOUNDARY_TOL), and sde-sim reports its min level -5e-10
    with no status of its own and exits 0: the loader owns the start."""
    p = _variant(tmp_path, "field.yaml", lambda raw: [raw.pop("lattice"), raw.update(start=[1.0000000005])])
    assert run(["sde-sim", "--scenario", p, "--out", str(tmp_path / "out"), "--paths", "20"]) == 0
    assert "\ncontainment in the closed domain: min level -5.000e-10\n" in capsys.readouterr().out


def test_a_projection_that_stays_outside_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    """A domain whose project returns its point leaves an exited path
    outside after every push round: sde-sim exits 3 with the numerical
    record, and writes no artifact."""
    make = scenarios.make_domain
    monkeypatch.setattr(scenarios, "make_domain", lambda kind, **p: replace(make(kind, **p), project=lambda x: x))
    out = tmp_path / "out"
    assert run(["sde-sim", "--scenario", _scn("ball.yaml"), "--out", str(out), "--paths", "100", "--steps", "20",
                "--quiet"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "numerical", "detail": "projection did not reach the closed domain; reduce the time step"}
    assert not out.exists()


def test_weight_warning_goes_to_stderr_and_into_solve_txt(tmp_path, capsys):
    """Weight constants outside the sufficient region warn and do not fail:
    solve exits 0, writes WARN on stderr and into solve.txt, and --quiet
    keeps it off stderr only."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw["constants"].update(lam=0.1))
    warning = f"WARN {load_scenario(p).weight_warning}"
    for quiet in (False, True):
        out = tmp_path / f"quiet-{quiet}"
        argv = ["solve", "--scenario", p, "--out", str(out), "--steps", "10", "--paths", "20"]
        assert run(argv + ["--quiet"] * quiet) == 0
        assert capsys.readouterr().err == ("" if quiet else warning + "\n")
        assert warning in (out / "solve.txt").read_text().splitlines()


def test_every_command_on_every_scenario_ends_in_a_known_exit_code(tmp_path, capsys):
    """A short run of each command on each shipped scenario exits 0, 2 or 3,
    with a numpy RuntimeWarning raised as an error: nothing escapes run as
    an exception (exit 1)."""
    names = sorted(f for f in os.listdir(SCEN) if f.endswith(".yaml"))
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, command in itertools.product(names, sorted(_COMMANDS)):
            argv = [command, "--scenario", _scn(name), "--steps", "3", "--paths", "2", "--out", str(tmp_path),
                    "--quiet"]
            try:
                codes[name, command] = run(argv)
            except Exception as exc:  # an exception escaping run is the exit 1 this test looks for
                codes[name, command] = f"1 ({exc!r})"
    assert len(codes) == 56  # 8 scenarios x 7 commands
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3)} == {}


# ---------------------------------------------------------------- commands

def test_solve_zero_scenario(tmp_path):
    out = tmp_path / "o"
    rc = run(["solve", "--scenario", _scn("zero.yaml"), "--out", str(out),
              "--paths", "50", "--quiet"])
    assert rc == 0
    lines = (out / "solve.txt").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("Y at the initial node: mean ")  # no terminal line
    assert (out / "solve.csv").exists()


def test_prox_check(tmp_path):
    rc = run(["prox-check", "--scenario", _scn("zero.yaml"),
              "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    assert "FAIL" not in (tmp_path / "prox_check.txt").read_text()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_prox_check_audits_the_scenarios_pair(tmp_path):
    """prox-check runs the law suite on the scenario's own phi (seed) and psi
    (seed + 1), not on a fixed catalog."""
    scn = load_scenario(_scn("cauchy.yaml"))
    assert run(["prox-check", "--scenario", _scn("cauchy.yaml"), "--out", str(tmp_path), "--quiet"]) == 0
    header, *rows = _csv_rows(tmp_path / "prox_check.csv")
    assert header == ["function", "property", "worst_violation"]
    assert [r[0] for r in rows] == ["phi=indicator_box(-inf,0.5)"] * 8 + ["psi=zero"] * 8
    expected = [(prop, v) for theta, seed in ((scn.phi, 7), (scn.psi, 8))
                for prop, v in prox_property_suite(theta, n_samples=2000, seed=seed).items()]
    assert [(r[1], float(r[2])) for r in rows] == expected


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCEN) if f.endswith(".yaml")))
def test_prox_check_csv_parses_to_three_fields(tmp_path, name):
    """A function label such as indicator_box(-inf,0.5) holds a comma, so the
    writer quotes it, and every row reads back as three fields."""
    assert run(["prox-check", "--scenario", _scn(name), "--out", str(tmp_path), "--quiet"]) == 0
    assert {len(row) for row in _csv_rows(tmp_path / "prox_check.csv")} == {3}


def test_compat_check(tmp_path):
    rc = run(["compat-check", "--scenario", _scn("vi_oracle.yaml"),
              "--out", str(tmp_path), "--quiet"])
    assert rc == 0


def test_compat_check_lines_report_their_own_inequality(tmp_path):
    """With g = 1 only the phi-gradient vs g bound fails; the other two lines
    pass, and the run exits 3."""
    p = _variant(tmp_path, "vi_oracle.yaml",
                 lambda raw: raw["coefficients"].update(g={"kind": "constant", "value": 1.0}))
    assert run(["compat-check", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 3
    lines = (tmp_path / "compat_check.txt").read_text().splitlines()[1:]
    assert [line.split()[0] for line in lines] == ["PASS", "FAIL", "PASS"]


def test_compat_check_samples_z_in_the_scenario_dimension(tmp_path):
    """f gets z of shape (m, k, d) with the scenario's d, as in the sweep: on
    a ball copy (d = 2) with f = sum(z) and psi = abs, f reads (64, 1, 2)
    and the psi-vs-f bound reads about 5.3.  A z drawn in one dimension
    gave f (64, 1, 1) and a worst violation of 2.99 there."""
    p = _variant(tmp_path, "ball.yaml", lambda raw: [raw.update(psi="abs"),
                                                     raw["coefficients"].update(f={"kind": "linear", "a_z": 1.0})])
    scn, shapes = load_scenario(p), []
    f = lambda t, x, y, z, f=scn.coeffs.f: [shapes.append(z.shape), f(t, x, y, z)][1]  # noqa: E731
    _, rows, _, ok = _COMMANDS["compat-check"](replace(scn, coeffs=replace(scn.coeffs, f=f)))
    assert shapes == [(64, 1, 2)] and not ok
    assert dict(rows)["psi_vs_f"] > 3.0


@pytest.mark.parametrize("eps", ["abc", "", ","])
def test_malformed_eps_is_a_validation_error(tmp_path, capsys, eps):
    out = tmp_path / "o"
    assert run(["solve", "--scenario", _scn("vi_oracle.yaml"), "--out", str(out), "--eps", eps, "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["malformed-yaml", "directory"])
def test_unreadable_scenario_is_a_validation_error(tmp_path, capsys, case):
    """A file that does not parse as YAML, or a --scenario that names a
    directory, exits 2 with a validation record, not a traceback and exit 1;
    through the library a parse error is a ScenarioError."""
    p = tmp_path
    if case == "malformed-yaml":
        p = tmp_path / "bad.yaml"
        p.write_text("name: [unclosed\nsteps: 10\n")
        with pytest.raises(ScenarioError):
            load_scenario(p)
    assert run(["solve", "--scenario", str(p), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, detail", [
    (lambda raw: raw.update(domain={"kind": "ellipsoid", "semi_axes": [2.0, 0.5]}),
     "unknown domain kind 'ellipsoid'; known: ball, interval"),
    (lambda raw: raw.update(domain={"dim": 2}), "domain section names no kind; known: ball, interval"),
    (lambda raw: raw["coefficients"].update(terminal={"kind": "identity"}), "unknown terminal kind 'identity'"),
    (lambda raw: raw.update(phi="nosuch"), "unknown convex function 'nosuch'"),
    (lambda raw: raw["coefficients"].update(g={"kind": "constant"}), "coefficient g of kind constant needs a value")],
    ids=["domain", "domain-no-kind", "terminal", "convex", "constant-no-value"])
def test_unknown_domain_or_terminal_kind_fails_at_load(tmp_path, capsys, edit, detail):
    """The domain kinds are ball and interval, the terminal kinds constant and
    quadratic_norm; any other kind, or a domain with none, exits 2 with a
    record that names the section and the kind, as does an unknown convex
    function.  Through the library it is a ScenarioError."""
    p = _variant(tmp_path, "ball.yaml", edit)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p)
    assert str(exc.value) == detail
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}


def test_sde_sim(tmp_path):
    rc = run(["sde-sim", "--scenario", _scn("ball.yaml"), "--out", str(tmp_path),
              "--paths", "50", "--steps", "100", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "sde_sim.txt").read_text().splitlines()
    assert lines[1].startswith("containment in the closed domain: min level ")  # no PASS or FAIL


def test_field_command(tmp_path):
    rc = run(["field", "--scenario", _scn("field.yaml"), "--out", str(tmp_path),
              "--paths", "30", "--steps", "20", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "t,x,u,stderr"
    assert len(lines) == 26


def test_report_command(tmp_path):
    rc = run(["report", "--scenario", _scn("vi_oracle.yaml"), "--out", str(tmp_path),
              "--steps", "100", "--quiet"])
    assert rc == 0
    text = (tmp_path / "report.txt").read_text()
    assert "subgradient-inequality audit" in text
    assert "no active dA" in text and "-inf" not in text  # a_process none: dA = 0 at every node


def test_report_at_eps_zero_has_no_penalization_energies(tmp_path):
    """eps = 0 is valid for implicit-prox, but the Yosida envelopes and their
    energies are not defined there: the report says so and writes no
    penalization rows, instead of energies taken at another eps."""
    argv = ["report", "--scenario", _scn("vi_oracle.yaml"), "--eps=0", "--steps", "100", "--quiet"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.txt").read_text()
    assert "penalization energies: not defined at eps = 0" in text and "at the run eps" not in text
    rows = dict(line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()[1:])
    assert not [key for key in rows if key.startswith("penalization:")]
    assert "norm:Y_M2" in rows and "vi:worst_phi" in rows
    assert run(argv[:3] + ["--eps=1e-4"] + argv[4:] + ["--out", str(tmp_path / "pos")]) == 0
    assert "penalization:grad_energy" in (tmp_path / "pos" / "report.csv").read_text()


@pytest.mark.parametrize("name", ["cauchy.yaml", "penalization.yaml"])
def test_report_audit_is_finite_on_explicit_runs(tmp_path, name):
    """The explicit Y lies outside Dom phi by O(eps); the audit reads its
    multipliers at the resolvent points, where they are subgradients."""
    assert run(["report", "--scenario", _scn(name), "--out", str(tmp_path), "--quiet"]) == 0
    rows = dict(line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()[1:])
    assert float(rows["vi:worst_phi"]) <= 1e-12
    assert "inf" not in (tmp_path / "report.txt").read_text()


def test_cauchy_command_small(tmp_path):
    rc = run(["cauchy", "--scenario", _scn("cauchy.yaml"), "--out", str(tmp_path),
              "--steps", "2000", "--eps", "1e-1,1e-2,1e-3", "--quiet"])
    assert rc == 0
    assert "PASS slope" in (tmp_path / "cauchy.txt").read_text()


def _variant(tmp_path, name, edit):
    raw = yaml.safe_load(open(_scn(name)))
    edit(raw)
    p = tmp_path / name
    p.write_text(yaml.safe_dump(raw))
    return str(p)


def test_cauchy_rejects_non_explicit_scheme(tmp_path):
    p = _variant(tmp_path, "cauchy.yaml", lambda raw: raw["solver"].update(scheme="implicit-prox"))
    assert run(["cauchy", "--scenario", p, "--out", str(tmp_path), "--steps", "200", "--quiet"]) == 2
    assert not (tmp_path / "cauchy.csv").exists()


@pytest.mark.parametrize("command, override", [("solve", "--eps=nan"), ("report", "--eps=-1"),
                                               ("solve", "--eps=inf"), ("solve", None)],
                         ids=["solve-nan", "report-negative", "solve-inf", "scenario-negative"])
def test_eps_must_be_finite_and_non_negative(tmp_path, capsys, command, override):
    """Every scheme rejects a non-finite or negative eps at load, with a
    validation record and no artifact; eps = 0 stays valid for implicit-prox."""
    scenario = _scn("vi_oracle.yaml")
    if override is None:
        scenario = _variant(tmp_path, "vi_oracle.yaml", lambda raw: raw["solver"].update(eps=-1))
    argv = [command, "--scenario", scenario, "--out", str(tmp_path / "out"), "--steps", "20", "--quiet"]
    assert run(argv + ([override] if override else [])) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation" and "eps must be finite and >= 0" in record["detail"]
    assert not (tmp_path / "out").exists()
    assert load_scenario(_scn("vi_oracle.yaml"), {"eps": 0.0}).solver.eps == 0.0


@pytest.mark.parametrize("warning_mode", ["default", "error"])
def test_cauchy_with_equal_rungs_exits_3(tmp_path, capsys, warning_mode):
    """phi = psi = zero: every rung gives the same Y, so every gap is 0 and no
    rate can be fitted.  The run says so and exits 3, also when a numpy
    RuntimeWarning is an error."""
    p = _variant(tmp_path, "cauchy.yaml", lambda raw: raw.update(phi="zero", psi="zero"))
    with warnings.catch_warnings():
        warnings.simplefilter(warning_mode, RuntimeWarning)
        rc = run(["cauchy", "--scenario", p, "--out", str(tmp_path / "out"), "--steps", "2000", "--quiet"])
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical" and "same Y: no rate to fit" in record["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, edit", [
    ("field.yaml", lambda raw: raw["solver"].update(regression="sample-mean")),  # Markov state
    ("zero.yaml", lambda raw: raw["coefficients"].update(terminal={"kind": "quadratic_norm"})),  # callable terminal
], ids=["domain", "callable-terminal"])
def test_sample_mean_rejects_state_dependent_data(tmp_path, name, edit):
    with pytest.raises(ScenarioError, match="sample-mean"):
        load_scenario(_variant(tmp_path, name, edit))


def test_shipped_scenarios_load():
    names = sorted(f for f in os.listdir(SCEN) if f.endswith(".yaml"))
    assert names
    for name in names:
        load_scenario(_scn(name))
        with open(_scn(name)) as fh:
            text = fh.read()
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.safe_load(text)  # libyaml reads what pure Python reads


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["solve", "--scenario", _scn("zero.yaml"), "--out", str(out),
                    "--paths", "64", "--quiet"]) == 0
    assert (a / "solve.csv").read_bytes() == (b / "solve.csv").read_bytes()


@pytest.mark.parametrize("name", ["ball.yaml", "zero.yaml"])
def test_solve_csv_matches_per_node_reductions(tmp_path, name):
    """solve.csv reduces whole node-major arrays at once; each value equals
    the per-node 1-d reduction bit for bit."""
    overrides = {"paths": 1000, "steps": 12, "seed": 4}
    assert run(["solve", "--scenario", _scn(name), "--out", str(tmp_path), "--quiet"]
               + [f"--{k}={v}" for k, v in overrides.items()]) == 0
    sol = _solve_scenario(load_scenario(_scn(name), overrides))
    lines = (tmp_path / "solve.csv").read_text().splitlines()[1:]
    for j, t in enumerate(sol.grid.nodes):
        ref = (t, np.mean(sol.Y[:, j, 0]), np.std(sol.Y[:, j, 0]),
               np.mean(np.linalg.norm(sol.Z[:, j, 0], axis=-1)),
               np.mean(sol.U[:, j, 0]), np.mean(sol.V[:, j, 0]), np.mean(sol.A[:, j]))
        assert lines[j] == ",".join("%.17g" % v for v in ref)


@pytest.mark.parametrize("name", ["ball.yaml", "field.yaml"])
def test_sde_sim_csv_matches_per_node_reductions(tmp_path, name):
    """sde_sim.csv reduces whole node-major arrays at once; each value equals
    the per-node 1-d reduction bit for bit."""
    overrides = {"paths": 1000, "steps": 12, "seed": 4}
    assert run(["sde-sim", "--scenario", _scn(name), "--out", str(tmp_path), "--quiet"]
               + [f"--{k}={v}" for k, v in overrides.items()]) == 0
    scn = load_scenario(_scn(name), overrides)
    ens = _build_run(scn)
    lv = scn.model.domain.level(ens.X)
    lines = (tmp_path / "sde_sim.csv").read_text().splitlines()[1:]
    for j, t in enumerate(scn.solver.grid.nodes):
        ref = (t, np.mean(lv[:, j]), np.min(lv[:, j]), np.mean(ens.A[:, j]), np.max(ens.A[:, j]))
        assert lines[j] == ",".join("%.17g" % v for v in ref)


def test_field_csv_matches_per_node_rows(tmp_path):
    """field.csv writes the lattice as whole-array rows; each row equals the
    node of a per-node loop bit for bit."""
    overrides = {"paths": 30, "steps": 20, "seed": 4}
    assert run(["field", "--scenario", _scn("field.yaml"), "--out", str(tmp_path), "--quiet"]
               + [f"--{k}={v}" for k, v in overrides.items()]) == 0
    scn = load_scenario(_scn("field.yaml"), overrides)
    est = sample_field(scn.model, scn.coeffs, scn.phi, scn.psi, scn.solver, scn.lattice, scn.n_paths,
                       scn.seed, scn.draws)
    lines = (tmp_path / "field.csv").read_text().splitlines()[1:]
    times, pts = scn.lattice.times, scn.lattice.points
    ref = [(times[i], pts[j, 0], est.values[i, j], est.stderr[i, j])
           for i in range(len(times)) for j in range(len(pts))]
    assert lines == [",".join("%.17g" % v for v in row) for row in ref]


def test_field_lattice_too_small_leaves_no_artifact(tmp_path):
    """A lattice with no neighbours has no continuity pairs: exit 2 at load,
    and no field.csv is written."""
    p = _variant(tmp_path, "field.yaml", lambda raw: raw.update(lattice={"times": 1, "points": 1}))
    out = tmp_path / "out"
    assert run(["field", "--scenario", p, "--out", str(out), "--paths", "10", "--quiet"]) == 2
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("times, points", [(3, 1), (1, 3)])
def test_field_runs_on_a_lattice_with_pairs_along_one_axis(tmp_path, times, points):
    """The continuity check needs pairs at strides 1 and 2 along the times or
    the points, not along both: three times of one point, or three points at
    one time, load and run field with exit 0."""
    p = _variant(tmp_path, "field.yaml", lambda raw: raw["lattice"].update(times=times, points=points))
    out = tmp_path / "out"
    assert run(["field", "--scenario", p, "--out", str(out), "--paths", "10", "--steps", "20", "--quiet"]) == 0
    assert len((out / "field.csv").read_text().splitlines()) == 1 + times * points


def test_missing_scenario_is_validation_error(tmp_path):
    assert run(["solve", "--scenario", str(tmp_path / "nope.yaml"),
                "--out", str(tmp_path), "--quiet"]) == 2


def test_bad_scenario_is_validation_error(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("phi: mystery\n")
    assert run(["solve", "--scenario", str(p), "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_is_validation_error(tmp_path, capsys, seed):
    """A seed outside [0, 2**64) cannot key a stream: exit 2 with a JSON record."""
    code = run(["solve", "--scenario", _scn("vi_oracle.yaml"), "--seed", seed,
                "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert '"error": "validation"' in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.5, 0.999, float("inf"), float("nan")])
def test_fractional_seed_in_file_is_validation_error(tmp_path, capsys, seed):
    """seed: 1.5 used to load as seed 1, the streams of another run."""
    p = _variant(tmp_path, "vi_oracle.yaml", lambda raw: raw.update(seed=seed))
    with pytest.raises(ScenarioError, match="whole number"):
        load_scenario(p)
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err


def test_whole_float_seed_in_file_loads():
    assert load_scenario(_scn("vi_oracle.yaml"), {"seed": 7.0}).seed == 7


def test_non_finite_value_is_numerical_error(tmp_path, capsys):
    """A coefficient f that overflows Y is a numerical failure (exit 3), not bad input."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw["coefficients"].update(
        f={"kind": "linear", "a_y": 1.0e308}, terminal={"kind": "constant", "value": 1.0}))
    with np.errstate(all="ignore"):
        code = run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"])
    assert code == 3
    assert '"error": "numerical"' in capsys.readouterr().err


@pytest.mark.parametrize("errstate, action, detail", [
    ("warn", "ignore", "non-finite U at step 299"),
    ("ignore", "ignore", "non-finite U at step 299"),
    ("warn", "error", "overflow encountered in divide"),
])
def test_non_finite_multiplier_with_finite_y_is_numerical_error(tmp_path, capsys, errstate, action, detail):
    """phi = quadratic(1000) from the terminal 1e306 at 300 steps: the implicit
    step keeps Y finite but its U overflows.  The run used to write inf into
    mean_U of solve.csv with exit 0; it is now a numerical failure naming U
    and the step, whether numpy warns of the overflow or not.  With
    RuntimeWarning raised as an error (PYTHONWARNINGS=error::RuntimeWarning)
    the overflow's warning is the numerical failure, not a traceback."""
    def edit(raw):
        raw["phi"] = "quadratic(1000.0)"
        raw["coefficients"]["terminal"] = {"kind": "constant", "value": 1.0e306}

    p = _variant(tmp_path, "vi_oracle.yaml", edit)
    with warnings.catch_warnings(), np.errstate(all=errstate):
        warnings.simplefilter(action, RuntimeWarning)
        code = run(["solve", "--scenario", p, "--steps", "300", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "numerical", "detail": detail}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("steps", [10, 100, 10_000])
def test_explicit_scheme_runs_at_any_dt_over_eps(tmp_path, steps):
    """The barrier oracle with the explicit scheme at eps = 1e-4: dt / eps
    is 1000, 100 and 1.  The phi step is the resolvent of the envelope
    phi_eps, nonexpansive at any dt, so each run exits 0 with Y_0 at the
    penalized plateau 0.5 + eps.  (The gradient step that preceded it
    returned Y_0 = 0 at 100 steps, and was then held to dt <= eps by a
    guard that exited 3.)"""
    p = _variant(tmp_path, "vi_oracle.yaml", lambda raw: raw["solver"].update(scheme="explicit-yosida"))
    scn = load_scenario(p, {"steps": steps})
    assert scn.solver.eps == 1e-4
    assert abs(_solve_scenario(scn).Y[0, 0, 0] - (0.5 + 1e-4)) < 1e-9
    assert run(["solve", "--scenario", p, "--steps", str(steps), "--out", str(tmp_path / "out"), "--quiet"]) == 0


@pytest.mark.parametrize("name", ["cauchy.yaml", "penalization.yaml", "boundary.yaml"])
def test_explicit_multipliers_are_the_yosida_gradients_at_the_solution(name):
    """Under explicit-yosida U_i = grad phi_eps(Y_i) and V_i = grad psi_eps(Y_i):
    each step is prox_{tau theta_eps}, whose multiplier grad theta_{eps+tau}(j)
    is grad theta_eps at the step's output.  Each scenario moves one penalty,
    so report's gradient energy, read at Y, is U_M2 + V_Mbar2 to rounding.
    (The gradient step at Ytil missed it by 75% on cauchy.yaml.)"""
    sol = _solve_scenario(load_scenario(_scn(name)))
    assert sol.config.scheme == "explicit-yosida"
    norms = weighted_norms(sol)
    energy = norms["U_M2"] + norms["V_Mbar2"]
    assert energy > 0.0
    assert penalization_diagnostics(sol)["grad_energy"] == pytest.approx(energy, rel=1e-10, abs=0.0)


def test_a_z_on_g_is_validation_error(tmp_path, capsys):
    """g takes no z, so an a_z on it is rejected (exit 2), not silently dropped."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw["coefficients"].update(
        g={"kind": "linear", "a_y": 1.0, "a_z": 5.0}))
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert "no a_z" in capsys.readouterr().err


def test_unknown_constant_fails_at_load(tmp_path, capsys):
    """A key under constants that AssumptionConstants does not name is a
    validation error (exit 2), not silently ignored."""
    p = _variant(tmp_path, "zero.yaml", lambda raw: raw["constants"].update(gamma=1.0))
    with pytest.raises(ScenarioError, match="gamma"):
        load_scenario(p)
    assert run(["solve", "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err


@pytest.mark.parametrize("start", [[0.5], [0.0, 0.0, 0.0]], ids=["too-short", "too-long"])
def test_start_of_the_wrong_dimension_fails_at_load(tmp_path, start):
    """The launch point of the planar ball has two coordinates; one or three
    are a validation error at load, not a broadcast or a silent run."""
    p = _variant(tmp_path, "ball.yaml", lambda raw: raw.update(start=start))
    with pytest.raises(ScenarioError, match="start"):
        load_scenario(p)
    out = tmp_path / "out"
    assert run(["solve", "--scenario", p, "--out", str(out), "--paths", "20", "--quiet"]) == 2
    assert not (out / "solve.csv").exists()


def test_field_with_no_backward_draws_is_validation_error(tmp_path):
    """draws: 0 averages no field: exit 2 and no field.csv, not an all-nan
    field that passes the continuity check."""
    p = _variant(tmp_path, "field.yaml", lambda raw: raw["lattice"].update(draws=0))
    out = tmp_path / "out"
    assert run(["field", "--scenario", p, "--out", str(out), "--paths", "10", "--quiet"]) == 2
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCEN) if f.endswith(".yaml")))
def test_compat_check_writes_no_negative_zero(tmp_path, name):
    """A violation that is never positive is written as 0, never as -0."""
    assert run(["compat-check", "--scenario", _scn(name), "--out", str(tmp_path), "--quiet"]) == 0
    values = [line.split(",")[1] for line in (tmp_path / "compat_check.csv").read_text().splitlines()[1:]]
    assert "-0" not in values


def test_field_without_domain_is_validation_error(tmp_path):
    assert run(["field", "--scenario", _scn("zero.yaml"),
                "--out", str(tmp_path), "--quiet"]) == 2


def _set(section, key, value):
    def edit(raw):
        (raw.setdefault(section, {}) if section else raw)[key] = value
    return edit


_COUNTS = [  # (scenario, section, key, command): every whole-number setting the reader takes
    ("zero.yaml", None, "paths", "solve"),
    ("zero.yaml", "grid", "steps", "solve"),
    ("zero.yaml", None, "dim", "solve"),
    ("ball.yaml", "domain", "dim", "sde-sim"),
    ("field.yaml", "lattice", "times", "field"),
    ("field.yaml", "lattice", "points", "field"),
    ("field.yaml", "lattice", "draws", "field"),
]


@pytest.mark.parametrize("name, section, key, command", _COUNTS + [
    ("ball.yaml", "regression", "degree", "solve")], ids=lambda v: str(v))
def test_fractional_count_in_file_is_validation_error(tmp_path, capsys, name, section, key, command):
    """int() truncated these: paths: 7.9 ran 7 paths and steps: 10.6 ran 10 steps, with exit 0."""
    edit = (lambda raw: raw["solver"]["regression"].update(degree=2.5)) if section == "regression" \
        else _set(section, key, 2.5)
    p = _variant(tmp_path, name, edit)
    with pytest.raises(ScenarioError, match="whole number"):
        load_scenario(p)
    assert run([command, "--scenario", p, "--out", str(tmp_path), "--quiet"]) == 2
    assert '"error": "validation"' in capsys.readouterr().err


_LOADED = {"paths": lambda scn: scn.n_paths, "steps": lambda scn: scn.solver.grid.n_steps, "dim": lambda scn: scn.d,
           "times": lambda scn: scn.lattice.times.size, "points": lambda scn: scn.lattice.points.shape[0],
           "draws": lambda scn: scn.draws}


@pytest.mark.parametrize("name, section, key, command", _COUNTS, ids=lambda v: str(v))
def test_whole_float_count_in_file_loads(tmp_path, name, section, key, command):
    whole = {"zero.yaml": 1.0, "ball.yaml": 2.0}[name] if key == "dim" else 3.0
    scn = load_scenario(_variant(tmp_path, name, _set(section, key, whole)))
    assert _LOADED[key](scn) == int(whole)


_MISSPELLED = [  # (scenario, section path, key the reader does not take there, command)
    ("zero.yaml", (), "pahts", "solve"),
    ("zero.yaml", ("grid",), "step", "solve"),
    ("zero.yaml", ("solver",), "shceme", "solve"),
    ("ball.yaml", ("solver", "regression"), "degre", "solve"),
    ("zero.yaml", ("coefficients",), "terminl", "solve"),
    ("zero.yaml", ("coefficients", "f"), "ay", "solve"),
    ("zero.yaml", ("coefficients", "g"), "cc", "solve"),
    ("zero.yaml", ("coefficients", "h"), "vlaue", "solve"),
    ("field.yaml", ("coefficients", "f"), "a_y", "field"),  # a key of linear on a constant
    ("zero.yaml", ("coefficients", "terminal"), "vlaue", "solve"),
    ("ball.yaml", ("coefficients", "terminal"), "value", "solve"),  # quadratic_norm has no value
    ("ball.yaml", ("domain",), "raduis", "sde-sim"),
    ("field.yaml", ("lattice",), "drawz", "field"),
    ("zero.yaml", ("constants",), "lamb", "solve"),
]


@pytest.mark.parametrize("name, section, key, command", _MISSPELLED, ids=lambda v: str(v))
def test_misspelled_key_fails_at_load(tmp_path, capsys, name, section, key, command):
    """A key the reader does not take is a validation error that names it
    (exit 2), not a run with that setting's default: raduis: 0.5 ran a ball of
    radius 1, ay: -0.5 ran f = c and pahts: 7 ran the file's paths."""
    def edit(raw):
        spec = raw
        for part in section:
            spec = spec[part]
        spec[key] = 0.5
    p = _variant(tmp_path, name, edit)
    with pytest.raises(ScenarioError, match=key):
        load_scenario(p)
    out = tmp_path / "out"
    assert run([command, "--scenario", p, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, edit", [("ball.yaml", lambda raw: [raw["domain"].pop("dim"), raw.pop("start")]),
                                        ("field.yaml", lambda raw: raw["domain"].update(dim=1))],
                         ids=["ball-without-dim", "interval-with-dim"])
def test_domain_section_keys_are_its_builders(tmp_path, name, edit):
    """The domain section's keys go to its builder, whose signature holds the
    defaults: a ball names its dim (without it, it was one-dimensional), and
    an interval takes none."""
    with pytest.raises(ScenarioError, match="'dim'"):
        load_scenario(_variant(tmp_path, name, edit))
