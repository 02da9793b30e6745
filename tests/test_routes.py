"""One route per geometry type and channel: the route table, the checks
before it, and the README table rendered from it.

Run as a script, this file prints the README Routes table and legend.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cslbounds import (CollapseParams, Cuboid, Cylinder, Multilayer, Point,
                       PointLattice, Sphere, TwoBody, csl_force_spectrum,
                       csl_force_spectrum_two_body, csl_torque_spectrum,
                       cslnoise)
from cslbounds.geometry import MassGeometry
from cslbounds.quadrature import QuadratureSpec

P = CollapseParams(1.0, 1e-6)
A = 3e-6   # below every body's saturation separation at rC = 1e-6
BODIES = {
    Point: Point(1e-12),
    PointLattice: PointLattice(
        [[0.0, 0.0, 0.0], [3e-7, 1e-7, 0.0], [0.0, 4e-7, 2e-7]],
        [1e-14, 2e-14, 3e-14]),
    Sphere: Sphere(1e-12, 5e-7),
    Cuboid: Cuboid(1e-12, 1e-6, 2e-6, 3e-6),
    Multilayer: Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, "z"),
    Cylinder: Cylinder(1e-14, 1e-7, 1e-6, (0.0, 1.0, 0.0)),
}
SPECTRA = {"force": csl_force_spectrum, "torque": csl_torque_spectrum}

EXPECTED = {
    (Point, "force"): "closed form",
    (Point, "two_body"): "pair kernel",
    (Point, "torque"): "zero",
    (PointLattice, "force"): "pair kernel",
    (PointLattice, "two_body"): "pair kernel",
    (PointLattice, "torque"): "pair kernel",
    (Sphere, "force"): "radial",
    (Sphere, "two_body"): "ball moment",
    (Sphere, "torque"): "zero",
    (Cuboid, "force"): "1D moments",
    (Cuboid, "two_body"): "1D moments",
    (Cuboid, "torque"): "1D moments",
    (Multilayer, "force"): "1D moments",
    (Multilayer, "two_body"): "1D moments",
    (Multilayer, "torque"): "1D moments",
    (Cylinder, "force"): "disc and slab moments",
    (Cylinder, "two_body"): "disc and slab moments",
    (Cylinder, "torque"): "disc and slab torque",
}

# the functions a route calls first, through cslnoise's globals
SPIES = ("force_pair_kernel_sum", "two_body_pair_kernel_sum",
         "torque_pair_kernel_sum", "integrate_k3", "_profile_moment",
         "_torque_bracket")


def first_calls(route, channel, method):
    """The route function each route's cell calls, then, each once in
    order of first call, the spied functions it calls itself."""
    return {"closed form": ["_point_force"] + (
                ["integrate_k3"] if method == "quadrature" else []),
            "pair kernel": ["_pair_kernel", f"{channel}_pair_kernel_sum"],
            "zero": ["_zero"],
            "radial": ["_radial_force", "integrate_k3"],
            "ball moment": ["_ball_moment", "_profile_moment"],
            "1D moments": ["_separable", "_profile_moment"] + (
                ["_torque_bracket"] if channel == "torque" else []),
            "disc and slab moments": ["_cylinder", "_profile_moment"],
            "disc and slab torque": ["_cylinder_torque",
                                     "_torque_bracket"]}[route]


def spy_on_routes(monkeypatch):
    """Wrap every route in _ROUTES, and SPIES in cslnoise; returns the
    list of the routes called and of the spied calls made directly
    inside a route, each once."""
    calls, depth = [], [0]

    def spying(name, orig):
        def spy(*args, **kwargs):
            if depth[0] < 2 and name not in calls:
                calls.append(name)
            depth[0] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                depth[0] -= 1
        return spy

    for cell, (route_name, route) in cslnoise._ROUTES.items():
        monkeypatch.setitem(cslnoise._ROUTES, cell,
                            (route_name, spying(route.__name__, route)))
    for name in SPIES:
        monkeypatch.setattr(cslnoise, name,
                            spying(name, getattr(cslnoise, name)))
    return calls


def test_table_holds_every_geometry_and_channel():
    assert cslnoise._ROUTES.keys() == EXPECTED.keys()


@pytest.mark.parametrize("cell", EXPECTED,
                         ids=[f"{cls.__name__}-{ch}" for cls, ch in EXPECTED])
def test_each_cell_takes_the_route_the_table_names(cell, monkeypatch):
    """The table names the expected route, and the spectrum function
    takes it, under both methods where the channel has them."""
    cls, channel = cell
    route = cslnoise._ROUTES[cell][0]
    assert route == EXPECTED[cell]
    calls = spy_on_routes(monkeypatch)
    methods = ["auto"] if channel == "two_body" or route == "pair kernel" \
        else ["auto", "quadrature"]
    for method in methods:
        calls.clear()
        if channel == "two_body":
            s = csl_force_spectrum_two_body(TwoBody(BODIES[cls], A), P)
        else:
            s = SPECTRA[channel](BODIES[cls], P, method=method)
        assert calls == first_calls(route, channel, method), method
        assert float(s) == 0.0 if route == "zero" else float(s) > 0.0


@pytest.mark.parametrize("cell", EXPECTED,
                         ids=[f"{cls.__name__}-{ch}" for cls, ch in EXPECTED])
def test_each_route_returns_two_python_floats(cell):
    """A route returns (value, error) as two Python floats, not numpy
    scalars or a SpectralValue, under both methods where the channel has
    them, also for parameters given as numpy scalars."""
    cls, channel = cell
    name, route = cslnoise._ROUTES[cell]
    a = A if channel == "two_body" else 0.0
    methods = [True] if channel == "two_body" or name == "pair kernel" \
        else [True, False]
    for p in (P, CollapseParams(np.float64(1.0), np.float64(1e-6))):
        for closed_form in methods:
            result = route(BODIES[cls], channel, p, QuadratureSpec(),
                           closed_form, a)
            assert type(result) is tuple and len(result) == 2, closed_form
            assert all(type(x) is float for x in result), \
                (p, closed_form, result)


def test_spectral_value_made_only_where_a_spectrum_leaves():
    """SpectralValue(...) is called in _spectrum, at its lam = 0 return
    and its route's, and in the three public pair sums, nowhere else in
    the library."""
    made = Counter()
    for path in Path(cslnoise.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "SpectralValue" in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None)):
                        made[fn.name] += 1
    assert made == {"_spectrum": 2, "force_pair_kernel_sum": 1,
                    "two_body_pair_kernel_sum": 1,
                    "torque_pair_kernel_sum": 1}


@pytest.mark.parametrize("cls", [Cuboid, Multilayer, Cylinder],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("channel", ["force", "torque"])
def test_quadrature_integrates_the_moments_of_the_same_route(
        cls, channel, monkeypatch):
    """Under "auto" these moments are closed forms, but for the cylinder
    torque's; under "quadrature" the same route integrates them."""
    integrals, original = [], cslnoise.integrate_1d

    def counting(*args, **kwargs):
        integrals.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cslnoise, "integrate_1d", counting)
    auto = SPECTRA[channel](BODIES[cls], P)
    assert bool(integrals) == (cls is Cylinder and channel == "torque")
    integrals.clear()
    quad = SPECTRA[channel](BODIES[cls], P, method="quadrature")
    assert integrals
    assert abs(float(quad) - float(auto)) <= quad.error + auto.error \
        + 1e-12 * float(auto)


@pytest.mark.parametrize("channel", ["force", "torque"])
def test_two_body_has_only_the_two_body_channel(channel):
    with pytest.raises(TypeError, match="TwoBody"):
        SPECTRA[channel](TwoBody(Sphere(1e-12, 5e-7), A), P)


@pytest.mark.parametrize("cls", BODIES, ids=lambda cls: cls.__name__)
def test_two_body_spectrum_needs_a_two_body(cls):
    with pytest.raises(TypeError, match="TwoBody"):
        csl_force_spectrum_two_body(BODIES[cls], P)


def test_bare_mass_geometry_has_no_route():
    for spectrum in SPECTRA.values():
        with pytest.raises(TypeError, match="no .* route for MassGeometry"):
            spectrum(MassGeometry(), P)
    with pytest.raises(TypeError, match="no two_body route for MassGeometry"):
        csl_force_spectrum_two_body(TwoBody(MassGeometry(), A), P)


@pytest.mark.parametrize("channel", ["force", "torque"])
@pytest.mark.parametrize("lam", [1.0, 0.0])
def test_point_lattice_has_no_quadrature(channel, lam):
    """Its pair sums are exact: asking for a quadrature is a ValueError,
    at lam = 0 too."""
    with pytest.raises(ValueError, match="exact"):
        SPECTRA[channel](BODIES[PointLattice], CollapseParams(lam, 1e-6),
                         method="quadrature")


@pytest.mark.parametrize("cls", [Point, Sphere], ids=lambda c: c.__name__)
def test_point_and_sphere_torque_is_exactly_zero_under_quadrature(cls):
    s = csl_torque_spectrum(BODIES[cls], P, method="quadrature")
    assert float(s) == 0.0 and s.error == 0.0


# ---------------------------------------------------------------------------
# the README table

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN = ("<!-- routes: generated from cslnoise._ROUTES by "
         "`python tests/test_routes.py` -->\n")
END = "<!-- end of routes -->\n"


def render_routes():
    """The Routes table of README.md and a legend line per route, the
    first paragraph of the route function's docstring."""
    routes = cslnoise._ROUTES
    lines = ["| geometry | force | two-body | torque about x |",
             "|---|---|---|---|"]
    for cls in dict.fromkeys(cls for cls, _ in routes):
        names = [routes[cls, channel][0] for channel in cslnoise._CHANNELS]
        lines.append(f"| {cls.__name__} | " + " | ".join(names) + " |")
    lines.append("")
    for name, route in dict(routes.values()).items():
        legend = " ".join(route.__doc__.split("\n\n")[0].split())
        lines.append(f"- **{name}**: {legend}")
    return "\n".join(lines) + "\n"


def test_readme_routes_table_is_rendered_from_the_route_table():
    text = README.read_text(encoding="utf-8")
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    block = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert block == render_routes(), \
        "README.md is stale: run python tests/test_routes.py"


if __name__ == "__main__":
    print(BEGIN + render_routes() + END, end="")
