"""Acceptance gate: one test per shipping criterion, so `pytest -v` prints
one pass/fail line for each.  The full self-check suite runs once per module
(`run_suite("all")`, seed 7); each criterion asserts on the check lines it
claims by name prefix, and every numeric bound is pinned inside the
`focalnet.checks` routine that produces the line.  Run with `-s` to see the
individual check lines and measured residuals.
"""
import time

import pytest

from focalnet.checks import run_suite

# criterion test -> the check-name prefixes it asserts on
CLAIMS = {
    "test_criterion_1_structure_equations": ("structure.",),
    "test_criterion_2_focal_fundamentals_match_oracle": ("central.oracle.",),
    "test_criterion_3_focal_pfaffians_fd_and_df": (
        "central.pfaffian_fd.", "central.df_consistency."),
    "test_criterion_4_divergence_identity": (
        "central.divergence_identity.", "central.divergence_and_w_defect.",
        "central.cubic_power."),
    "test_criterion_5_exact_rearrangements": ("nets.rearrangements.",),
    "test_criterion_6_net_condition_equivalences": (
        "props.orthogonality.", "props.conjugacy.",
        "props.spherical_identity."),
    "test_criterion_7_degeneracy_paths": ("props.status.",),
    "test_criterion_8_coincidence_and_imaginary_nets": (
        "nets.coincide_and_bisect.", "nets.reality."),
    "test_criterion_9_toolchain_and_budget": ("jets.",),
    "test_classification_lattice_and_minimal_case": (
        "props.implication_lattice.", "props.moulding_exclusion."),
}


@pytest.fixture(scope="module")
def suite():
    """(results, seconds) of one full self-check run."""
    t0 = time.perf_counter()
    results = run_suite("all")
    dt = time.perf_counter() - t0
    print(f"run_suite('all'): {len(results)} checks in {dt:.1f}s")
    return results, dt


def _assert_claimed(suite, test_name):
    results, _ = suite
    mine = [r for r in results if r.name.startswith(CLAIMS[test_name])]
    for r in mine:
        print(r.line())
    assert mine, f"no check lines match {CLAIMS[test_name]}"
    bad = [r.line() for r in mine if not r.passed]
    assert not bad, "failed checks:\n" + "\n".join(bad)


def test_criterion_1_structure_equations(suite):
    """Codazzi/Gauss residuals <= 1e-10 relative at >= 200 points on each of
    five generic gallery surfaces and the torus, within the runtime
    budget."""
    _assert_claimed(suite, "test_criterion_1_structure_equations")


def test_criterion_2_focal_fundamentals_match_oracle(suite):
    """Closed-form focal (a, b, c, q1, q2) equals the from-scratch focal
    oracle to relative 1e-7 and the closed-form coframe equals the
    projection of dy to 1e-10, both sheets, 100 points per usable surface;
    on the first 20 of them the focal positions equal x + e3/k_i built
    without jets (finite differences, h = 3e-3) to 1e-7."""
    _assert_claimed(suite, "test_criterion_2_focal_fundamentals_match_oracle")


def test_criterion_3_focal_pfaffians_fd_and_df(suite):
    """Focal-sheet directional derivatives match finite differences along
    the focal coordinate curves to 1e-6, and reassemble the coordinate
    differential to 1e-10."""
    _assert_claimed(suite, "test_criterion_3_focal_pfaffians_fd_and_df")


def test_criterion_4_divergence_identity(suite):
    """The focal connection divergence equals
    k_i^3 * J / ((k1 - k2)^3 * D_i k_i)  (J the curvature Jacobian), to
    relative 1e-9; on minimal and constant-K surfaces the divergence and the
    functional-relation defect vanish together (1e-10 and 1e-12).  The
    variant with k_i^2 in place of k_i^3 misses the divergence by exactly
    the factor k_i (relative 1e-6), so the corrected power stays
    load-bearing."""
    _assert_claimed(suite, "test_criterion_4_divergence_identity")


def test_criterion_5_exact_rearrangements(suite):
    """Asymptotic-net orthogonality/conjugacy defects and their spherical
    images equal the matching curvature-gradient expressions to 1e-12
    (pure identities), 50 points on a generic graph."""
    _assert_claimed(suite, "test_criterion_5_exact_rearrangements")


def test_criterion_6_net_condition_equivalences(suite):
    """Minimal surface: curvature-line-net orthogonality defect <= 1e-8;
    constant-curvature surface: conjugacy defect <= 1e-8; spherical-image
    orthogonality identity <= 1e-8 on a generic graph."""
    _assert_claimed(suite, "test_criterion_6_net_condition_equivalences")


def test_criterion_7_degeneracy_paths(suite):
    """Sphere -> umbilic, plane and cubic-saddle origin -> parabolic,
    torus -> canal on every sample, helicoid v = 0 -> canal on sheet 1;
    all asserted through status strings, never through values."""
    _assert_claimed(suite, "test_criterion_7_degeneracy_paths")


def test_criterion_8_coincidence_and_imaginary_nets(suite):
    """Where grad(k1 - k2) = 0 the two asymptotic-net pullbacks coincide
    projectively and bisect the principal directions to 1e-6 rad; on the
    helicoid the sheet-1 net has negative reality discriminant
    everywhere."""
    _assert_claimed(suite, "test_criterion_8_coincidence_and_imaginary_nets")


def test_criterion_9_toolchain_and_budget(suite):
    """Jet-vs-FD convergence ratios >= 3 per halving, surface-source and
    JSON round-trips, byte-deterministic mesh output; the full self-check
    suite finishes within 60 s."""
    _assert_claimed(suite, "test_criterion_9_toolchain_and_budget")
    _, dt = suite
    assert dt <= 60.0, f"self-check suite took {dt:.1f}s (budget 60s)"


def test_classification_lattice_and_minimal_case(suite):
    """Cross-cutting guards: every class membership implies the
    functional-relation criterion across the gallery, and no gallery
    sample realizes the excluded moulding/non-canal combination with
    vanishing net defects."""
    _assert_claimed(suite, "test_classification_lattice_and_minimal_case")


def test_every_check_claimed_once(suite):
    """Check names are unique and each is asserted by exactly one criterion
    test above, so a new check cannot ship unasserted."""
    results, _ = suite
    names = [r.name for r in results]
    assert len(names) == len(set(names)), "duplicate check names"
    assert set(CLAIMS) <= set(globals()), "claim for a missing test"
    for name in names:
        owners = [t for t, prefixes in CLAIMS.items()
                  if name.startswith(prefixes)]
        assert len(owners) == 1, f"{name} claimed by {owners}"
