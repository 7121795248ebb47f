"""Acceptance gate: every criterion at its stated tolerance and draw count.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure).  Criteria 1-9 drive the
library directly; criterion 10 exercises the batch harness end to end.
"""

import time

import numpy as np

from octoweak.core import (
    ONE,
    CplxOcton,
    abs_rows,
    associator,
    bar_star,
    exp_assoc,
    mul,
    norm,
    structure_table,
)
from octoweak.fields import dexp_rows, eval_at, random_field
from octoweak.gauge import (
    covariance_alpha_rows,
    covariance_beta_rows,
    general_coupling_residual,
    scal_der_u_rows,
    scal_ww_rows,
)
from octoweak.grading import (
    AB_CLOSURE,
    SubspaceTag,
    draw,
    exchange_residuals,
    ipmove_residuals,
    membership_defect,
    residual_zvengrowski,
)
from octoweak.lorentz import (
    Theta,
    double_cover_residual,
    gamma5_analogue,
    infinitesimal_dc_rows,
    lambda_S,
    lorentz_algebra_rows,
)
from octoweak.suites import (
    GAUGE_PARAM_BOUND,
    GAUGE_PARAM_VALUE_CAP,
    PROP2_WITNESS_ALPHA,
    PROP2_WITNESS_POINT,
    PROP2_WITNESS_U,
    PROP4_WITNESS,
    SuiteConfig,
    render_json,
    run_all,
)

from oracles import (
    along,
    cd_basis_product,
    central_difference,
    exp_taylor,
    global_alpha_invariance_residual,
    lorentz_invariance_residual,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def _gauge_draws(rng, n):
    """Shared sampler for the local-gauge criteria: a point as a block of one row,
    the parameter's value and derivative along x_rho there, W_rho's value there, rho."""
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = random_field(rng, 2, SubspaceTag.A_MINUS, GAUGE_PARAM_BOUND)
        m = abs(u(p))
        if m > GAUGE_PARAM_VALUE_CAP:
            u = u * (GAUGE_PARAM_VALUE_CAP / m)
        W = [random_field(rng, 2, SubspaceTag.A_MINUS) for _ in range(4)]
        rho = int(rng.integers(4))
        yield p[None], along(u, rho, p[None]), along(W[rho], 0, p[None])[0], rho


def test_criterion_01_gamma5_triviality():
    res = abs(gamma5_analogue() - ONE)
    _report("01 gamma5-triviality", res < 1e-14, f"residual {res:.2e} < 1e-14")


def test_criterion_02_lorentz_algebra_exhaustive():
    worst = float(np.max(abs_rows(lorentz_algebra_rows(*np.indices((4, 4, 4, 4))))))
    _report("02 lorentz-algebra", worst < 1e-12, f"256 tuples, max {worst:.2e} < 1e-12")


def test_criterion_03_infinitesimal_double_cover_exhaustive():
    worst = float(np.max(abs_rows(infinitesimal_dc_rows(*np.indices((4, 4, 4))))))
    _report("03 infinitesimal-dc", worst < 1e-12, f"64 tuples, max {worst:.2e} < 1e-12")


def test_criterion_04_finite_double_cover_and_conjugacy():
    rng = np.random.default_rng(104)
    worst_dc = max(
        double_cover_residual(Theta.random(rng, 2.0)) for _ in range(500)
    )
    worst_rot = 0.0
    for _ in range(100):
        lam = lambda_S(Theta.random_rotation(rng, 2.0))
        worst_rot = max(worst_rot, abs(mul(bar_star(lam), lam) - ONE))
    worst_boost = 0.0
    for _ in range(100):
        axis = int(rng.integers(1, 4))
        lam = lambda_S(Theta.single(0, axis, float(rng.uniform(-2, 2))))
        worst_boost = max(worst_boost, abs(bar_star(lam) - lam))
    ok = worst_dc < 1e-9 and worst_rot < 1e-10 and worst_boost < 1e-10
    _report(
        "04 finite-double-cover",
        ok,
        f"500 draws max {worst_dc:.2e} < 1e-9; rotations {worst_rot:.2e},"
        f" boosts {worst_boost:.2e} < 1e-10",
    )


def test_criterion_05_composition_algebra_identities():
    rng = np.random.default_rng(105)
    n = 1000
    worst = {}

    w = 0.0
    for _ in range(n):
        x, y, z = (draw(SubspaceTag.FULL_CO, rng) for _ in range(3))
        w = max(w, max(map(abs, ipmove_residuals(x, y, z))))
    worst["ip-moves"] = w

    w = 0.0
    for _ in range(n):
        x, y, z = (draw(SubspaceTag.FULL_CO, rng) for _ in range(3))
        w = max(w, abs(residual_zvengrowski(x, y, z)))
    worst["zvengrowski"] = w

    w = 0.0
    for _ in range(n):
        a, a2 = draw(SubspaceTag.A, rng), draw(SubspaceTag.A, rng)
        b, b2 = draw(SubspaceTag.B, rng), draw(SubspaceTag.B, rng)
        w = max(w, max(map(abs, exchange_residuals(a, a2, b, b2))))
    worst["ab-identities"] = w

    w = 0.0
    for _ in range(n):
        for pair, target in AB_CLOSURE.items():
            prod = mul(draw(pair[0], rng), draw(pair[1], rng))
            w = max(w, membership_defect(prod, target) / max(1.0, abs(prod)))
    worst["grading-closure"] = w

    w = 0.0
    for _ in range(n):
        x, y = draw(SubspaceTag.FULL_CO, rng), draw(SubspaceTag.FULL_CO, rng)
        scale = max(1.0, abs(x) ** 2 * abs(y) ** 2)
        w = max(w, abs(norm(mul(x, y)) - norm(x) * norm(y)) / scale)
    worst["composition-law"] = w

    w = 0.0
    for _ in range(n):
        x, y = draw(SubspaceTag.FULL_CO, rng), draw(SubspaceTag.FULL_CO, rng)
        w = max(w, abs(associator(x, x, y)), abs(associator(x, y, y)))
    worst["alternativity"] = w

    peak = max(worst.values())
    _report(
        "05 composition-identities",
        peak < 1e-12,
        f"1000 draws per family, max {peak:.2e} < 1e-12 over {sorted(worst)}",
    )


def test_criterion_06_derivative_bilinear_invariance():
    rng = np.random.default_rng(106)
    worst = {}
    for tag in (SubspaceTag.A, SubspaceTag.B):
        w = 0.0
        for _ in range(200):
            f = random_field(rng, 2, tag)
            theta = Theta.random(rng, 1.5)
            p = rng.uniform(-1.0, 1.0, 4)
            w = max(w, lorentz_invariance_residual(f, theta, p))
        worst[tag.value] = w
    ok = all(v < 1e-9 for v in worst.values())
    _report(
        "06 spinor-bilinear-invariance",
        ok,
        f"200 triples per tag, max A {worst['A']:.2e}, B {worst['B']:.2e} < 1e-9",
    )


def test_criterion_07_gauge_sector_sweeps():
    rng = np.random.default_rng(107)
    n = 300

    w_global = 0.0
    for _ in range(n):
        alpha = random_field(rng, 2, SubspaceTag.A)
        u0 = draw(SubspaceTag.A_MINUS, rng)
        p = rng.uniform(-1.0, 1.0, 4)
        w_global = max(w_global, global_alpha_invariance_residual(alpha, u0, p))

    w_alpha = 0.0
    for p, u, w, rho in _gauge_draws(rng, n):
        alpha = random_field(rng, 2, SubspaceTag.A)
        w_alpha = max(w_alpha, covariance_alpha_rows(*along(alpha, rho, p), w, *u)[0])

    w_beta = 0.0
    for p, u, w, rho in _gauge_draws(rng, n):
        beta = random_field(rng, 2, SubspaceTag.B)
        r = float(rng.uniform(0.25, 1.5))
        w_beta = max(w_beta, covariance_beta_rows(*along(beta, rho, p), w, *u, r)[0])

    w_l3 = 0.0
    for _p, u, _w, _rho in _gauge_draws(rng, n):
        w_l3 = max(w_l3, abs(scal_der_u_rows(*u)[0]))

    w_l4 = 0.0
    for _p, u, w, _rho in _gauge_draws(rng, n):
        w_l4 = max(w_l4, abs(scal_ww_rows(w, *u)[0]))

    witness = global_alpha_invariance_residual(
        PROP2_WITNESS_ALPHA, PROP2_WITNESS_U, PROP2_WITNESS_POINT
    )
    peak = max(w_global, w_alpha, w_beta, w_l3, w_l4)
    ok = peak < 1e-8 and witness > 1e-3
    _report(
        "07 gauge-sector",
        ok,
        f"300 draws per family, max {peak:.2e} < 1e-8;"
        f" non-anti-Hermitian witness {witness:.2e} > 1e-3",
    )


def test_criterion_08_coupling_dichotomy():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(0.1, 1.0))
        worst = max(
            worst,
            general_coupling_residual(
                0.5 * r,
                0.5 * r,
                Theta.random(rng, 2.0),
                draw(SubspaceTag.A_MINUS, rng),
                draw(SubspaceTag.B, rng),
            ),
        )
    witness = general_coupling_residual(**PROP4_WITNESS)
    ok = worst < 1e-10 and witness > 1e-3
    _report(
        "08 coupling-dichotomy",
        ok,
        f"equal weights max {worst:.2e} < 1e-10; unequal witness {witness:.2e} > 1e-3",
    )


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(109)

    worst_exp = 0.0
    for _ in range(200):
        c = rng.uniform(-0.35, 0.35, 8)
        arr = np.zeros(8, dtype=np.complex128)
        arr[:4] = c[:4] + 1j * c[4:]
        u = CplxOcton(arr)
        assert abs(u) <= 1.0
        worst_exp = max(
            worst_exp, float(np.max(np.abs((exp_assoc(u) - exp_taylor(u, 20)).c)))
        )

    worst_dexp = 0.0
    for _ in range(50):  # 200 derivative checks across the four axes
        u = random_field(rng, 1, SubspaceTag.A, 0.12)
        p = rng.uniform(-1.0, 1.0, 4)
        for mu in range(4):
            fd = central_difference(lambda q: exp_assoc(eval_at(u, q)), p, mu)
            dexp = dexp_rows(*along(u, mu, p[None]))[0]
            worst_dexp = max(worst_dexp, float(abs_rows(dexp - fd.c)))

    table = structure_table()
    signs_exact = all(
        (table.sign[a, b], table.index[a, b]) == cd_basis_product(a, b)
        for a in range(8)
        for b in range(8)
    )

    ok = worst_exp < 1e-12 and worst_dexp < 1e-7 and signs_exact
    _report(
        "09 oracle-equivalence",
        ok,
        f"exp vs series {worst_exp:.2e} < 1e-12; dexp vs finite diff"
        f" {worst_dexp:.2e} < 1e-7; 64 basis pairs sign-exact: {signs_exact}",
    )


def test_criterion_10_full_run_determinism_and_budget():
    cfg = SuiteConfig()
    start = time.perf_counter()
    reports, code = run_all(cfg)
    elapsed = time.perf_counter() - start
    first = render_json(reports, cfg)
    second = render_json(run_all(cfg)[0], cfg)
    ok = code == 0 and elapsed < 60.0 and first == second
    _report(
        "10 full-run",
        ok,
        f"exit {code}, wall {elapsed:.1f}s < 60s, repeat JSON identical: {first == second}",
    )
