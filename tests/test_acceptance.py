"""Acceptance gate: one test per criterion, each printed as a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Criteria 3
(polynomial family) and 7 assert bounds that the underlying reduction
formulas provably cannot meet; they are implemented as stated and fail
honestly.  See README.md ("Known discrepancies") and the reconstruction
demo for the measured analysis; the corrected reconstruction variant and
the smaller verdict step meet the same tolerances and are exercised in
the module test suites.
"""

import math

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, vector_exterior, vector_interior
from biaxial.cauchy import (
    FullBallCauchy,
    KernelParams,
    kernel_I_closed,
    kernel_I_oracle,
    reconstruct_ab_variants,
)
from biaxial.cli import main as cli_main
from biaxial.fields import (
    ExpLinear,
    ck_extend,
    constant_field,
    dirac_apply_fd,
    eval_series,
    linear_monogenic_field,
    modified_dirac_correspondence,
)
from biaxial.planewave import (
    eval_planewave,
    exp_hpw_axial_field,
    exp_hpw_series,
    fourier_kernel_closed,
    fourier_kernel_oracle,
    hpw_exp_closed,
    poly_coeff_a,
    radialize_poly,
    radialize_poly_oracle,
    _exp_profile,
)
from biaxial.quadrature import funk_hecke_check, hemisphere_rule, sphere_rule
from biaxial.rng import SplitMix64

S2 = np.array([1.0, 0.0])


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def _rel(a: Multivector, b: Multivector) -> float:
    scale = max(a.norm_inf, b.norm_inf, 1.0)
    return (a - b).norm_inf / scale


def _random_point(rng, p, q, rmin, rmax, ymax):
    x = rng.unit_vector(p) * rng.uniform(rmin, rmax)
    y = rng.uniform_array(q, -ymax, ymax)
    return BiaxialPoint(p, q, x, y)


def test_criterion_1_algebra_suite():
    rng = SplitMix64(1001)
    tol = 1e-12
    worst_anti = 0.0
    worst_assoc = 0.0
    worst_split = 0.0
    dims = [4, 5, 6, 7, 8]
    for i in range(1000):
        dim = dims[i % len(dims)]
        u = rng.uniform_array(dim, -1, 1)
        v = rng.uniform_array(dim, -1, 1)
        mu, mv = Multivector.vector(dim, u), Multivector.vector(dim, v)
        anti = mu * mv + mv * mu
        worst_anti = max(
            worst_anti, _rel(anti, Multivector.scalar(dim, -2.0 * float(np.dot(u, v))))
        )
    for i in range(334):
        dim = dims[i % len(dims)]
        a, b, c = (Multivector(dim, rng.complex_coeffs(1 << dim)) for _ in range(3))
        worst_assoc = max(worst_assoc, _rel((a * b) * c, a * (b * c)))
    for i in range(1000):
        dim = dims[i % len(dims)]
        x = Multivector.vector(dim, rng.complex_coeffs(dim))
        a = Multivector(dim, rng.complex_coeffs(1 << dim))
        worst_split = max(worst_split, _rel(vector_interior(x, a) + vector_exterior(x, a), x * a))
    worst = max(worst_anti, worst_assoc, worst_split)
    ok = worst < tol
    _report(
        "criterion 1 (algebra suite)",
        ok,
        f"anticommute={worst_anti:.2e} assoc={worst_assoc:.2e} "
        f"interior+exterior={worst_split:.2e} tol={tol:.0e}",
    )
    assert ok


def test_criterion_2_recurrence_vs_closed_form():
    tol = 1e-12
    worst_series = 0.0
    worst_ck = 0.0
    for p in (2, 3, 4, 5):
        rng = SplitMix64(2000 + p)
        series = exp_hpw_series(p, 2, S2, J=40)
        ck = ck_extend(ExpLinear.exponential(S2), p, 2, J=40)
        for _ in range(8):
            x = rng.unit_vector(p) * rng.uniform(0.0, 2.0)
            y = rng.uniform_array(2, -0.8, 0.8)
            pt = BiaxialPoint(p, 2, x, y)
            closed = hpw_exp_closed(pt, S2)
            worst_series = max(worst_series, _rel(closed, eval_planewave(series, pt)[0]))
            worst_ck = max(worst_ck, _rel(closed, eval_series(ck, pt)[0]))
    ok = worst_series < tol and worst_ck < tol
    _report(
        "criterion 2 (recurrence vs closed form)",
        ok,
        f"series-vs-Bessel={worst_series:.2e} extension-route={worst_ck:.2e} tol={tol:.0e}",
    )
    assert ok


def _dirac_family_residuals(name, fn, points, h):
    worst = 0.0
    for pt in points:
        res = dirac_apply_fd(fn, pt, h=h)
        worst = max(worst, res.norm_inf / max(1.0, fn(pt).norm_inf))
    return worst


def test_criterion_3_dirac_annihilation():
    tol = 1e-6
    h = 1e-3
    rng = SplitMix64(3001)
    ck_exp = ck_extend(ExpLinear.exponential(S2), 3, 2, J=40)
    ck_generic = ck_extend(ExpLinear(0.7, S2, [1.0, 0.0, 1.0]), 3, 2, J=40)
    families = [
        ("exp-hpw", lambda pt: hpw_exp_closed(pt, S2)),
        ("fourier", lambda pt: fourier_kernel_closed(pt, S2)),
        ("ck-exp", lambda pt: eval_series(ck_exp, pt)[0]),
        ("ck-poly-exp", lambda pt: eval_series(ck_generic, pt)[0]),
        ("poly-k3", lambda pt: radialize_poly(3, pt, S2)),
        ("poly-k6", lambda pt: radialize_poly(6, pt, S2)),
    ]
    points = [_random_point(rng, 3, 2, 0.1, 1.5, 0.6) for _ in range(6)]
    details = []
    failures = []
    orders = []
    for name, fn in families:
        res_h = _dirac_family_residuals(name, fn, points, h)
        res_h2 = _dirac_family_residuals(name, fn, points, h / 2.0)
        if res_h > 1e-10:
            orders.append((name, math.log2(res_h / res_h2)))
        details.append(f"{name}={res_h:.2e}")
        if res_h >= tol:
            failures.append((name, res_h))
    min_order = min(o for _, o in orders)
    ok = not failures and min_order >= 1.8
    _report(
        "criterion 3 (Dirac annihilation, h=1e-3)",
        ok,
        " ".join(details) + f" min_order={min_order:.2f} tol={tol:.0e}",
    )
    assert min_order >= 1.8
    assert not failures, (
        f"families {failures} exceed 1e-6 at h=1e-3: the residual is pure "
        "second-order truncation (order >= 1.8 above confirms it); degree-k "
        "polynomial third derivatives scale like k^3, so the stated bound is "
        "arithmetically out of reach at this step. The same residuals measure "
        "below 1e-6 at the verdict step h=1e-4 (see test_planewave and the "
        "dirac verify suite); README 'Known discrepancies' has the analysis."
    )


def test_criterion_4_modified_dirac_correspondence():
    tol = 1e-8
    h = 3e-5
    worst = 0.0
    count = 0
    for p in (2, 3, 4):
        q = 2
        rng = SplitMix64(4000 + p)
        e_mv = Multivector.basis_vector(q + 1, 1)
        s_small = Multivector.vector(q + 1, [0.0, 1.0, 0.0])

        def exp_small(r, y):
            c, d = _exp_profile(p, r, 0), _exp_profile(p, r, 1)
            phase = math.exp(float(np.dot(y, S2)))
            return (c * phase) * Multivector.scalar(q + 1, 1.0) + (d * phase) * (e_mv * s_small)

        def poly_small(r, y):
            return Multivector.scalar(q + 1, float(np.dot(y, S2))) \
                + (r / p) * (e_mv * s_small)

        for i in range(7):
            pt = _random_point(rng, p, q, 0.4, 1.2, 0.6)
            fn = exp_small if i % 2 == 0 else poly_small
            m_big, d_big = modified_dirac_correspondence(fn, p, q, pt, h=h)
            worst = max(worst, (m_big - d_big).norm_inf)
            count += 1
    ok = worst < tol
    _report(
        "criterion 4 (axial-operator correspondence)",
        ok,
        f"max |Mf - Df| = {worst:.2e} over {count} points, tol={tol:.0e}",
    )
    assert ok


def test_criterion_5_funk_hecke_suite():
    tol = 1e-8
    battery = [
        ("one", lambda t: np.ones_like(t)),
        ("t", lambda t: t),
        ("t2", lambda t: t ** 2),
        ("t3", lambda t: t ** 3),
        ("exp", np.exp),
    ]
    res = {2: 96, 3: 48, 4: 24, 5: 16}
    worst = 0.0
    anchor_err = 1.0
    for m in (2, 3, 4, 5):
        for k in (0, 1, 2):
            for name, psi in battery:
                lhs, rhs = funk_hecke_check(psi, k, m, resolution=res[m])
                err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
                worst = max(worst, err)
                if m == 3 and k == 0 and name == "one":
                    anchor_err = max(
                        abs(lhs - 4.0 * math.pi), abs(rhs - 4.0 * math.pi)
                    ) / (4.0 * math.pi)
    ok = worst < tol and anchor_err < tol
    _report(
        "criterion 5 (Funk-Hecke suite)",
        ok,
        f"max lhs/rhs gap={worst:.2e}; 4pi anchor err={anchor_err:.2e}; tol={tol:.0e}",
    )
    assert ok


def test_criterion_6_kernel_suite():
    tol = 1e-8
    worst = 0.0
    grids = 0
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        rule = sphere_rule(p, 64)
        nu = np.zeros(q)
        nu[0] = 1.0
        yhat = np.zeros(q)
        yhat[-1] = 1.0
        for r in np.linspace(0.0, 0.55, 5):
            for theta in np.linspace(0.0, 0.5 * math.pi, 5):
                for ylen in (0.0, 0.2, 0.4):
                    kp = KernelParams(p, q, float(r), ylen * yhat, float(theta), nu)
                    closed = kernel_I_closed(kp)
                    x = np.zeros(p)
                    x[0] = r
                    oracle = kernel_I_oracle(x, ylen * yhat, float(theta), nu, rule)
                    worst = max(worst, abs(closed - oracle) / max(abs(closed), abs(oracle)))
                    grids += 1
    ok = worst < tol
    _report(
        "criterion 6 (kernel closed form vs oracle)",
        ok,
        f"max rel gap={worst:.2e} over {grids} grid points, tol={tol:.0e}",
    )
    assert ok


def test_criterion_7_reconstruction_suite():
    tol_direct = 1e-4
    tol_ball = 1e-5
    p = q = 2
    fields = [
        ("constant", constant_field(p, q)),
        ("linear", linear_monogenic_field(p, q, S2)),
        ("exp-hpw", exp_hpw_axial_field(p, q, S2)),
    ]
    points = [
        BiaxialPoint(p, q, np.array([0.30, 0.00]), np.array([0.00, 0.00])),
        BiaxialPoint(p, q, np.array([0.20, 0.10]), np.array([0.15, -0.10])),
        BiaxialPoint(p, q, np.array([0.15, -0.20]), np.array([0.10, 0.20])),
    ]
    ball = sphere_rule(4, 28)
    worst_direct = {"full": 0.0, "corrected": 0.0}
    worst_ball = {"full": 0.0, "corrected": 0.0}
    shrink_ok = True
    for name, field in fields:
        oracle = FullBallCauchy(field.boundary_value, ball)
        errs_by_res = {}
        for res in (20, 40):
            hrule = hemisphere_rule(p, q, res)
            for pt in points:
                variants = reconstruct_ab_variants(field, pt, hrule)
                a_direct = field.A(pt.r, pt.y)
                b_direct = field.B(pt.r, pt.y)
                ball_value = oracle.evaluate(pt)
                for key in ("full", "corrected"):
                    a_v, b_v = variants[key]
                    err_direct = max((a_v - a_direct).norm_inf, (b_v - b_direct).norm_inf)
                    assembled = a_v + pt.embed_unit_x() * b_v
                    err_ball = (assembled - ball_value).norm_inf
                    if res == 40:
                        worst_direct[key] = max(worst_direct[key], err_direct)
                        worst_ball[key] = max(worst_ball[key], err_ball)
                    errs_by_res.setdefault((key, res), 0.0)
                    errs_by_res[(key, res)] = max(errs_by_res[(key, res)], err_direct)
        # Doubling the resolution must shrink the reduced-integrand error
        # for the criterion to hold; it converges to a fixed defect instead.
        if errs_by_res[("full", 40)] > 1e-12:
            shrink_ok = shrink_ok and (
                errs_by_res[("full", 40)] < 0.5 * errs_by_res[("full", 20)]
            )
    ok = worst_direct["full"] < tol_direct and worst_ball["full"] < tol_ball and shrink_ok
    _report(
        "criterion 7 (hemisphere reconstruction, reduced integrand)",
        ok,
        f"reduced: direct-err={worst_direct['full']:.2e} ball-err={worst_ball['full']:.2e} "
        f"shrinks={shrink_ok} | corrected variant: direct-err={worst_direct['corrected']:.2e} "
        f"ball-err={worst_ball['corrected']:.2e} | tol={tol_direct:.0e}/{tol_ball:.0e}",
    )
    assert ok, (
        "the reduced reconstruction misses interior values by "
        f"{worst_direct['full']:.3e} (full-sphere oracle gap {worst_ball['full']:.3e}): "
        "the omega-odd kernel terms dropped by the hemisphere reduction do not "
        "cancel, since the kernel is not even in omega; for the constant field "
        "at y=0 the reduced value is exactly 1/(1-r^2) (Poisson mass) instead "
        "of 1. The corrected two-kernel variant meets both bounds "
        f"({worst_direct['corrected']:.2e} / {worst_ball['corrected']:.2e}); see "
        "README 'Known discrepancies' and demos/run_reconstruction.py."
    )


def test_criterion_8_plane_wave_radialization():
    tol = 1e-9
    worst_poly = 0.0
    worst_fourier = 0.0
    for p in (2, 3, 4):
        rng = SplitMix64(8000 + p)
        rule = sphere_rule(p, 48)
        for k in range(7):
            pt = _random_point(rng, p, 2, 0.1, 1.2, 0.8)
            closed = radialize_poly(k, pt, S2)
            oracle = radialize_poly_oracle(k, pt, S2, rule)
            worst_poly = max(worst_poly, _rel(closed, oracle))
        for r in (0.5, 1.0, 2.0):
            pt = BiaxialPoint(p, 2, r * np.eye(p)[0], rng.uniform_array(2, -0.5, 0.5))
            worst_fourier = max(
                worst_fourier, _rel(fourier_kernel_closed(pt, S2),
                                    fourier_kernel_oracle(pt, S2, rule))
            )
    # p=2, k=1 anchor: the radialized linear wave equals pi x.
    pt = BiaxialPoint(2, 2, np.array([1.0, 0.0]), np.zeros(2))
    anchor1 = abs(complex(radialize_poly(1, pt, S2).coeffs[1]) - math.pi) / math.pi
    anchor1 = max(anchor1, abs(2.0 * poly_coeff_a(0, 1, 2) - math.pi) / math.pi)
    # p=2 scalar anchor: 2 pi I_0(r) against the periodic-trapezoid integral.
    r = 1.1
    phi = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    bessel_integral = float(np.mean(np.exp(r * np.cos(phi)))) * 2.0 * math.pi
    pt = BiaxialPoint(2, 2, np.array([r, 0.0]), np.zeros(2))
    s_part = complex(fourier_kernel_closed(pt, S2).coeffs[0b0100]).imag
    anchor2 = abs(s_part - bessel_integral) / bessel_integral
    ok = worst_poly < tol and worst_fourier < tol and anchor1 < tol and anchor2 < tol
    _report(
        "criterion 8 (plane-wave radialization)",
        ok,
        f"poly={worst_poly:.2e} fourier={worst_fourier:.2e} "
        f"pi-x anchor={anchor1:.2e} 2piI0 anchor={anchor2:.2e} tol={tol:.0e}",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for run in (1, 2):
        path = tmp_path / f"algebra-{run}.json"
        code = cli_main([
            "verify", "algebra", "--p", "2", "--q", "2", "--seed", "99",
            "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    same_algebra = outputs[0] == outputs[1]
    tables = []
    for run in (1, 2):
        path = tmp_path / f"kernel-{run}.csv"
        code = cli_main([
            "kernel-table", "--p", "2", "--q", "2", "--grid-r", "0:0.4:3",
            "--grid-theta", "0:1.5:3", "--res", "32", "--seed", "7",
            "--format", "csv", "--out", str(path),
        ])
        assert code == 0
        tables.append(path.read_bytes())
    same_table = tables[0] == tables[1]
    ok = same_algebra and same_table
    _report(
        "criterion 9 (byte-identical reports)",
        ok,
        f"verify-json identical={same_algebra}, kernel-csv identical={same_table}",
    )
    assert ok
