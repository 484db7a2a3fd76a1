"""The degeneracy decisions at their thresholds: each one at value =
threshold x scale exactly and at the next float on either side, at a point
(a Python bool) and on a batch (a bool array), decides as its docstring
says; and no other library module reads a tolerance."""
import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from focalnet import decisions as dc
from focalnet.classify import CLASS_NAMES
from focalnet.errors import CanalDegenerate
from focalnet.frames import FramePoint

TOL = dc.DEFAULT_TOLERANCES
SRC = Path(dc.__file__).parent
FIELDS = {f.name for f in dataclasses.fields(dc.ToleranceSet)}


def _around(x: float):
    """The float below `x`, `x` and the float above it."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _decides(decide, values, want):
    """`decide` at each of `values` one at a time gives the Python bools
    `want`, and on the array of them the bool array `want`."""
    got = [decide(x) for x in values]
    assert [type(g) for g in got] == [bool] * len(values)
    assert got == list(want)
    batch = decide(np.array(values))
    assert isinstance(batch, np.ndarray) and batch.dtype == bool
    assert batch.tolist() == list(want)


def _like(ref, x: float):
    """`x` at a point, or an array of it shaped as the array `ref`."""
    return np.full(np.shape(ref), x) if np.ndim(ref) else x


# at or below the threshold fires
AT_OR_BELOW = (True, True, False)


def test_metric_degenerate_at_its_bound():
    trace = 3.0
    bound = TOL.metric * trace ** 2
    _decides(lambda det: dc.metric_degenerate(det, _like(det, trace), TOL),
             _around(bound), AT_OR_BELOW)


def test_near_umbilic_at_its_bound():
    """disc is on both sides of its test, so the boundary is the fixed
    point of disc = umbilic (4 h^2 + 4 |disc| + floor^2)."""
    h = 0.5
    bound = lambda disc: TOL.umbilic * (4 * h ** 2 + 4 * abs(disc)
                                        + TOL.curvature_floor ** 2)
    disc = 0.0
    for _ in range(50):
        disc, last = bound(disc), disc
        if disc == last:
            break
    assert bound(disc) == disc
    _decides(lambda d: dc.near_umbilic(d, _like(d, h), TOL), _around(disc),
             AT_OR_BELOW)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_parabolic_at_its_bound(sign):
    a, b = 0.5, -0.25
    bound = TOL.parabolic * (abs(a) + abs(b) + TOL.curvature_floor) ** 2
    _decides(lambda p: dc.parabolic(sign * p, _like(p, a), _like(p, b), TOL),
             _around(bound), AT_OR_BELOW)


def test_e1_flipped_at_the_sign_tolerance():
    """A first component of magnitude tol.sign does not decide, so the
    second one (positive) does; just above it the first (negative) does."""
    def flipped(first):
        return dc.e1_flipped((-first, _like(first, 1.0), _like(first, 0.5)),
                             TOL)
    _decides(flipped, _around(TOL.sign), (False, False, True))


def test_e1_flipped_by_the_first_deciding_component():
    assert dc.e1_flipped((0.0, -1e-13, -0.5), TOL) is True
    assert dc.e1_flipped((0.0, 0.5, -0.5), TOL) is False
    assert dc.e1_flipped((0.0, -0.0, 1e-12), TOL) is False
    batch = dc.e1_flipped((np.array([0.0, 0.5]), np.array([-1.0, -1.0]),
                           np.array([1.0, 1.0])), TOL)
    assert batch.tolist() == [True, False]


def _frame(own, sheet):
    """A frame point with k1 = 2, k2 = -0.5 whose sheet `sheet` has own
    derivative `own`; the other gradient entries are not read."""
    like = lambda x: _like(own, x)
    grad = (own, like(0.3)) if sheet == 1 else (like(0.3), own)
    other = (like(0.7), like(-0.2))
    zero = (like(0.0),) * 3
    return FramePoint(
        u=like(0.0), v=like(0.0), pd=None, k1=like(2.0), k2=like(-0.5),
        q1=like(0.1), q2=like(0.2),
        grad_k1=grad if sheet == 1 else other,
        grad_k2=grad if sheet == 2 else other,
        x=zero, e1=zero, e2=zero, e3=zero)


@pytest.mark.parametrize("sheet", [1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_canal_at_its_bound(sheet, sign):
    bound = TOL.canal * (2.0 ** 3 + TOL.curvature_floor)
    assert dc.canal_threshold(_frame(1.0, sheet), TOL) == bound
    _decides(lambda own: dc.is_canal(_frame(sign * own, sheet), sheet, TOL),
             _around(bound), AT_OR_BELOW)
    # check_canal raises where is_canal holds at a point, never on a batch
    below, at, above = _around(bound)
    for own in (below, at):
        with pytest.raises(CanalDegenerate) as raised:
            dc.check_canal(_frame(sign * own, sheet), sheet, TOL)
        assert raised.value.sheet == sheet
    assert dc.check_canal(_frame(sign * above, sheet), sheet, TOL) is False
    batch = dc.check_canal(_frame(sign * np.array([below, at, above]),
                                  sheet), sheet, TOL)
    assert batch.tolist() == list(AT_OR_BELOW)


def _flags(wd=1.0, md=1.0, **normed):
    """`flags_from_defects` with every defect 1.0 (no flag) but those
    given, at a point or, where one given is an array, on a batch."""
    ref = next((x for x in (wd, md, *normed.values()) if np.ndim(x)), 1.0)
    like = lambda x: _like(ref, x)
    values = {name: normed.get(name, like(1.0)) for name in CLASS_NAMES}
    return dc.flags_from_defects(wd, values, md, like(False), like(False),
                                 TOL)


@pytest.mark.parametrize("name", CLASS_NAMES)
def test_class_flag_at_its_bound(name):
    _decides(lambda d: _flags(**{name: d})[name], _around(TOL.classify),
             AT_OR_BELOW)
    copies = {"mean": "cmc", "gauss": "const_gauss"}
    if name in copies:
        _decides(lambda d: _flags(**{name: d})[copies[name]],
                 _around(TOL.classify), AT_OR_BELOW)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_weingarten_flag_at_its_bound(sign):
    _decides(lambda wd: _flags(wd=sign * wd)["weingarten"],
             _around(TOL.classify), AT_OR_BELOW)


def test_moulding_flag_at_its_bound():
    _decides(lambda md: _flags(md=md)["moulding"], _around(TOL.moulding),
             AT_OR_BELOW)


def test_zero_net_at_its_bound():
    _decides(dc.zero_net, _around(2 * dc.NET_NORM_FLOOR), AT_OR_BELOW)


def test_imaginary_net_at_its_bound():
    """Strictly below -NET_ROOT_TOL: at it the directions are real."""
    _decides(dc.imaginary_net, _around(-dc.NET_ROOT_TOL),
             (True, False, False))


def _tolerance_reads(path: Path):
    """(line, field) of each read of a `ToleranceSet` field in the module
    at `path`: an attribute or a `getattr` of a name that holds one
    (`tol`, a parameter annotated `ToleranceSet`, DEFAULT_TOLERANCES, or a
    module name bound to it)."""
    tree = ast.parse(path.read_text())
    names = {"DEFAULT_TOLERANCES", "tol"}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None \
                and "ToleranceSet" in ast.unparse(node.annotation):
            names.add(node.arg)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) \
                and node.value.id in ("DEFAULT_TOLERANCES", "ToleranceSet"):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS \
                and isinstance(node.value, ast.Name) \
                and node.value.id in names:
            reads.append((node.lineno, node.attr))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in names:
            reads.append((node.lineno, ast.unparse(node.args[1])))
    return reads


def test_tolerances_are_read_only_in_decisions():
    """`checks` is exempt: its multiples of tol.classify are check bounds.
    The scan finds the reads of both, so it is not blind."""
    assert _tolerance_reads(SRC / "decisions.py")
    assert _tolerance_reads(SRC / "checks.py")
    outside = {path.name: _tolerance_reads(path)
               for path in sorted(SRC.glob("*.py"))
               if path.name not in ("decisions.py", "checks.py")}
    assert {name: r for name, r in outside.items() if r} == {}


def test_decisions_import_only_jet_and_errors():
    tree = ast.parse((SRC / "decisions.py").read_text())
    local = {alias.name if node.module is None else node.module
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names}
    assert local == {"jet", "errors"}
