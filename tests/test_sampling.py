"""`checks.sample_frame_points` against the point-at-a-time sampler it
replaced: the same draws kept, the same rng state after, the same
exhaustion error, under each of its filters."""
import numpy as np
import pytest

from focalnet import jet as jt
from focalnet.central import canal_threshold, own_curvature
from focalnet.checks import domain_points, sample_frame_points
from focalnet.errors import FRAME_ERRORS, FocalnetError
from focalnet.frames import frame_point


def _reference_sample(prog, n, rng, tol, *, sheets=(), healthy=10.0,
                      min_k=0.0, min_gap=0.0):
    """(kept (u, v) pairs, draws): one draw, one `frame_point` and one test
    per filter at a time."""
    out = []
    draws, cap = 0, max(4000, 400 * n)
    while len(out) < n and draws < cap:
        draws += 1
        (u, v), = domain_points(prog, 1, rng)
        try:
            fp = frame_point(prog, u, v, tol, jt.MAX_ORDER)
        except FRAME_ERRORS:
            continue
        if min(abs(fp.k1), abs(fp.k2)) < min_k:
            continue
        if abs(fp.k1 - fp.k2) < min_gap * (abs(fp.k1) + abs(fp.k2)):
            continue
        thr = healthy * canal_threshold(fp, tol)
        if any(abs(own_curvature(fp, s)[2]) < thr for s in sheets):
            continue
        out.append((u, v))
    if len(out) < n:
        raise FocalnetError(
            f"sampling exhausted on {prog.definition.name}: "
            f"{len(out)}/{n} points after {draws} draws")
    return out, draws


CASES = {
    "plain": ("graph_generic", 30, {}),
    "sheets": ("graph_generic", 20, {"sheets": (1, 2), "healthy": 1e7}),
    "one_sheet": ("helicoid", 20, {"sheets": (1,), "healthy": 1e6}),
    "min_k": ("graph_generic", 20, {"min_k": 0.3}),
    "min_gap": ("graph_generic", 20, {"min_gap": 0.5}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_batch_sampler_keeps_the_point_sampler_draws(prog, tol, case):
    """The kept (u, v) in order, the rng state after, and at the last point
    the bits of `frame_point`; each filter case rejects some draws."""
    name, n, filters = CASES[case]
    program = prog(name)
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    want, draws = _reference_sample(program, n, ref_rng, tol, **filters)
    if filters:
        assert draws > n, "the filters rejected no draw"
    fp = sample_frame_points(program, n, rng, tol, **filters)
    assert list(zip(fp.u.tolist(), fp.v.tolist())) == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    u, v = want[-1]
    point = frame_point(program, u, v, tol, jt.MAX_ORDER)
    assert (fp.k1[-1], fp.q1[-1], fp.grad_k2[1][-1]) == (
        point.k1, point.q1, point.grad_k2[1])


def test_batch_sampler_exhausts_as_the_point_sampler(prog, tol):
    """Torus sheet 2 is canal everywhere: both samplers give up after the
    same draws, with the same message and rng state."""
    program = prog("torus")
    ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(FocalnetError) as want:
        _reference_sample(program, 2, ref_rng, tol, sheets=(1, 2))
    with pytest.raises(FocalnetError) as got:
        sample_frame_points(program, 2, rng, tol, sheets=(1, 2))
    assert str(got.value) == str(want.value)
    assert "0/2 points after 4000 draws" in str(got.value)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
