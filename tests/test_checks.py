"""The guarantee checks fail when a value they gate is NaN.

Python's ``min`` and ``max`` skip a NaN, and a ``>`` test never flags
one as a violation. Each test here patches NaN into the values a check
reads, through the module attribute the check calls, and asserts that
the check fails. Unpatched, every check passes at this scale (``iprox
verify`` runs them there). Criterion 7 reads grid records, built here by
hand. Two tests give a wrong run instead: criterion 5 one that never
extrapolates, and criteria 1-4 a wrong step.
"""

import dataclasses

import numpy as np
import pytest

from iprox import bench, checks, fixtures, numkit, splitting, vi_core

NAN = float("nan")
SCALE = 0.1


def _after(monkeypatch, module, name, edit):
    """Patch ``module.name`` to pass each call's result to ``edit``."""
    original = getattr(module, name)

    def patched(*args, **kw):
        result = original(*args, **kw)
        edit(result)
        return result

    monkeypatch.setattr(module, name, patched)


def test_criterion_1_fails_on_a_nan_slack(monkeypatch):
    monkeypatch.setattr(splitting, "vi_residual_check", lambda *args: NAN)
    result = checks.step_characterization(SCALE)
    assert not result.ok and "min slack nan" in result.detail


def test_criterion_2_fails_on_a_nan_distance(monkeypatch):
    _after(monkeypatch, splitting, "run_ladmm",
           lambda trace: trace.phi.__setitem__(-1, NAN))
    result = checks.distance_contraction(SCALE)
    assert not result.ok and "violation nan" in result.detail


def test_criterion_3_fails_on_a_nan_residual(monkeypatch):
    # a NaN residual fails the monotone test against both its neighbours
    _after(monkeypatch, splitting, "run_ladmm",
           lambda trace: trace.step_residuals.__setitem__(10, NAN))
    result = checks.nonergodic_rate(SCALE)
    assert not result.ok and "monotone violations 2," in result.detail


def test_criterion_4_fails_on_a_nan_gap(monkeypatch):
    def poison(rep):
        for gaps in rep.gaps.values():
            gaps[0] = NAN

    _after(monkeypatch, splitting, "ergodic_report", poison)
    result = checks.ergodic_gap(SCALE)
    assert not result.ok and "excess nan" in result.detail


def test_criterion_5_fails_on_a_nan_residual(monkeypatch):
    # the running minimum carries the NaN through all 50 steps
    _after(monkeypatch, vi_core, "run_inertial_ppa",
           lambda trace: trace.step_residuals.__setitem__(0, NAN))
    result = checks.residual_envelope(SCALE)
    assert not result.ok and " 13.5/50 " in result.detail


def test_criterion_5_shows_the_constant_it_measured(monkeypatch):
    # an unextrapolated run holds the envelope 1 + 2 / (1 - 0) = 3
    assert checks.residual_envelope(SCALE).detail == (
        "envelope constant/violations per fixture 13.5/0 (gate 13.5/0)")
    monkeypatch.setattr(checks, "INERTIAL_ALPHA", 0.0)
    result = checks.residual_envelope(SCALE)
    assert not result.ok
    assert result.detail == "envelope constant/violations per fixture 3/0 (gate 13.5/0)"


def test_criterion_6_fails_on_a_nan_objective(monkeypatch):
    _after(monkeypatch, vi_core, "nesterov_ippa",
           lambda trace: trace.objective.__setitem__(5, NAN))
    result = checks.objective_rate(SCALE)
    assert not result.ok and "max k^2 gap nan" in result.detail


def test_criterion_9_fails_on_a_nan_spectrum(monkeypatch):
    monkeypatch.setattr(numkit, "singular_values",
                        lambda M: np.full(min(np.shape(M)), NAN))
    result = checks.exact_identities(SCALE)
    assert not result.ok and "spectrum error nan" in result.detail


def _recovery_cell(**changes):
    """Records of one 32x32 cell at 0.28 with one converged trial; each
    keyword names a solver and the outcome fields to change in it."""
    solve = {"converged": True, "iters": 100, "rel_l": 1e-6, "rel_s": 1e-6}
    trial = {s: dict(solve, **changes.get(s, {})) for s in ("ladmm", "iladmm")}
    return [bench.RunRecord(32, 32, 2, 0.05, 0.8, "dct2", 0.28, trials=[trial])]


@pytest.mark.parametrize("solver", ["ladmm", "iladmm"])
def test_criterion_7_fails_on_a_nan_recovery_error(solver):
    assert checks.recovery(_recovery_cell()).ok
    result = checks.recovery(_recovery_cell(**{solver: {"rel_l": NAN}}))
    assert not result.ok and "max rel err nan" in result.detail


def test_criterion_7_counts_the_converged_runs_only_when_some_did_not():
    result = checks.recovery(_recovery_cell())
    assert result.detail.startswith("2 runs at 32x32 converged, ")
    result = checks.recovery(_recovery_cell(iladmm={"converged": False}))
    assert not result.ok and result.detail.startswith("1 of 2 runs at 32x32 converged, ")


@pytest.fixture(scope="module")
def plain_run():
    prob, star = fixtures.random_qp(4, 4, 3, numkit.SeededRng(5))
    params = splitting.LadmmParams(beta=1.0, tau=0.9 / prob.rho_ata,
                                   eta=0.9 / prob.rho_btb)
    return prob, star, params, splitting.run_ladmm(prob, params, tol=0.0, max_iter=30)


@pytest.mark.parametrize("where", ["residual", "w_star"])
def test_nonergodic_report_is_not_ok_on_nan(plain_run, where):
    prob, star, params, trace = plain_run
    assert splitting.nonergodic_report(trace, prob, params, star).ok
    if where == "residual":
        residuals = list(trace.step_residuals)
        residuals[10] = NAN
        trace = dataclasses.replace(trace, step_residuals=residuals)
    else:
        star = np.full_like(star, NAN)
    rep = splitting.nonergodic_report(trace, prob, params, star)
    assert not rep.ok


def test_residual_rate_bound_flags_a_nan_residual():
    problem, w_star = fixtures.strongly_monotone_affine_vi(4, numkit.SeededRng(7))
    G = vi_core.WeightOperator(np.eye(4))
    trace = vi_core.run_inertial_ppa(problem, G, vi_core.InertialSchedule(0.28),
                                     np.ones(4), tol=0.0, max_iter=20)
    assert vi_core.check_residual_rate_bound(trace, G, w_star).ok
    trace.step_residuals[3] = NAN
    rep = vi_core.check_residual_rate_bound(trace, G, w_star)
    assert not rep.ok and rep.violations == list(range(4, 21))


def test_criteria_1_to_4_fail_on_a_flipped_multiplier_sign(monkeypatch):
    # the step returns p1 = pb + beta r instead of pb - beta r, that is
    # 2 pb - p1; its y-update still reads the right multiplier
    step = splitting._step

    def flipped(prob, beta, tau, eta, xb, yb, pb, axb, byb):
        x1, y1, p1, ax1, by1, obj = step(prob, beta, tau, eta, xb, yb, pb, axb, byb)
        return x1, y1, 2.0 * pb - p1, ax1, by1, obj

    scaled = (checks.step_characterization, checks.distance_contraction,
              checks.nonergodic_rate, checks.ergodic_gap)
    assert all(check(SCALE).ok for check in scaled)
    monkeypatch.setattr(splitting, "_step", flipped)
    failed = [check(SCALE) for check in scaled]
    assert not any(result.ok for result in failed), [r.detail for r in failed]
