"""Command-line front end.

biaxial verify|eval|kernel-table|reconstruct

Reports are written atomically as JSON or RFC-4180-style CSV with LF line
endings; identical configurations (including --seed) produce byte-identical
files.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or configuration error, including an overflow, an eval value that
is not finite (the error names its grid point), a table report of more than
MAX_REPORT_CELLS cells, a reconstruct sweep of more than MAX_RECONSTRUCT_WORK
point x node evaluations (hemisphere and ball nodes) and a kernel table of
more than MAX_RECONSTRUCT_WORK row x node evaluations (S^{p-1} oracle nodes).
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from functools import lru_cache

import numpy as np

from .algebra import BiaxialPoint, Multivector, _vector_product_parts, batch_product, blade_name
from .cauchy import (
    BALL_RADIUS_MAX,
    FullBallCauchy,
    KernelParams,
    kernel_I_closed,
    kernel_I_oracle,
    reconstruct_ab_variants,
)
from .fields import (
    FD_STEP_MAX,
    FD_STEP_MIN,
    MAX_TRUNCATION,
    AxialField,
    ExpLinear,
    ck_extend,
    constant_field,
    dirac_apply_fd,
    dirac_residual_relative,
    eval_series,
    linear_monogenic_field,
    vekua_residual,
)
from .special import ConvergenceError, _check_range
from .planewave import (
    MAX_POLY_DEGREE,
    exp_coeffs_closed,
    exp_hpw_axial_field,
    exp_hpw_series,
    fourier_axial_field,
    fourier_kernel_oracle,
    hpw_exp_closed,
    poly_hpw_axial_field,
    radialize_poly_oracle,
)
from .quadrature import (_funk_hecke_rules, _funk_hecke_sides, hemisphere_rule, sphere_area,
                         sphere_rule)
from .rng import SplitMix64

MAX_REPORT_CELLS = 1_000_000  # largest table report, in rows x columns
# Largest quadrature sweep: reconstruct's points x nodes, kernel-table's rows x nodes.
MAX_RECONSTRUCT_WORK = 50_000_000


class ConfigError(ValueError):
    pass


def _check_limit(count: int, what: str, limit=MAX_REPORT_CELLS, unit="cells") -> None:
    if count > limit:
        raise ConfigError(f"{what} needs {count} {unit}, above the limit of {limit}")


def _check_finite(name: str, text, *values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ConfigError(f"{name} must hold finite numbers, got {text!r}")


def _parse_floats(name: str, text: str) -> np.ndarray:
    """The comma-separated numbers of option name."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{name} must be comma-separated numbers, got {text!r}") from exc


@dataclasses.dataclass
class RunConfig:
    p: int
    q: int
    s: np.ndarray
    k: int
    J: int
    res: int
    h: float
    seed: int
    fmt: str
    out: str


def _build_config(args) -> RunConfig:
    p, q = args.p, args.q
    _check_range("--p", p, 2, 7)
    _check_range("--q (p + q <= 8)", q, 1, 8 - p)
    if args.res < 8:
        raise ConfigError(f"need resolution >= 8, got {args.res}")
    _check_range("--h", args.h, FD_STEP_MIN, FD_STEP_MAX)
    if args.s is None:
        s = np.zeros(q)
        s[0] = 1.0
    else:
        s = _parse_floats("--s", args.s)
        _check_finite("--s", args.s, s)
        if s.size != q:
            raise ConfigError(f"direction s needs {q} components, got {s.size}")
        norm = float(np.linalg.norm(s))
        if norm == 0.0:
            raise ConfigError("direction s must be nonzero")
        s = s / norm
    _check_range("--k", args.k, 0, MAX_POLY_DEGREE)
    _check_range("--J", args.J, 1, MAX_TRUNCATION)
    return RunConfig(p, q, s, args.k, args.J, args.res, args.h, args.seed,
                     args.format, args.out)


def _config_echo(cfg: RunConfig) -> dict:
    """The fields of cfg that fix a report's values; format and path do not."""
    echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)[:8]}
    echo["s"] = [float(v) for v in cfg.s]
    return echo


def _check(name: str, measured: float, tolerance: float) -> dict:
    measured = float(measured)
    return {
        "name": name,
        "measured": measured,
        "tolerance": float(tolerance),
        "pass": bool(measured <= tolerance),
    }


def _rel(a: Multivector, b: Multivector) -> float:
    scale = max(a.norm_inf, b.norm_inf, 1.0)
    return (a - b).norm_inf / scale


def _random_point(rng: SplitMix64, p: int, q: int, rmin=0.15, rmax=0.9, ymax=0.6):
    x = rng.unit_vector(p) * rng.uniform(rmin, rmax)
    y = rng.uniform_array(q, -ymax, ymax)
    return BiaxialPoint(p, q, x, y)


def _interior_point(rng: SplitMix64, p: int, q: int, rho: float):
    # |x + y| <= rho with |x| bounded away from the axis.
    while True:
        pt = _random_point(rng, p, q, 0.1, rho, rho / 2.0)
        if 0.1 <= pt.r and math.sqrt(pt.r ** 2 + float(np.dot(pt.y, pt.y))) <= rho:
            return pt


def _worst(rng: SplitMix64, cfg: RunConfig, rmin: float, rmax: float, error) -> float:
    """Largest error(pt) over five random points with |x| in [rmin, rmax]."""
    worst = 0.0
    for _ in range(5):
        worst = max(worst, error(_random_point(rng, cfg.p, cfg.q, rmin, rmax)))
    return worst


def _ck_exp(cfg: RunConfig):
    """The CK extension of exp(<y, s>) and its pointwise value function."""
    series = ck_extend(ExpLinear.exponential(cfg.s), cfg.p, cfg.q, J=cfg.J)
    return series, lambda pt: eval_series(series, pt)[0]


def _axial_fields(cfg: RunConfig) -> dict:
    """Fields with closed A and B parts, by their reconstruct --field names."""
    return {
        "constant": constant_field(cfg.p, cfg.q),
        "linear": linear_monogenic_field(cfg.p, cfg.q, cfg.s),
        "exp-hpw": exp_hpw_axial_field(cfg.p, cfg.q, cfg.s),
    }


# Pointwise value functions by eval --field name, each built once per command.
_VALUE_FNS = {
    "exp-hpw": lambda cfg: exp_hpw_axial_field(cfg.p, cfg.q, cfg.s).value_at,
    "fourier-kernel": lambda cfg: fourier_axial_field(cfg.p, cfg.q, cfg.s).value_at,
    "poly": lambda cfg: poly_hpw_axial_field(cfg.p, cfg.q, cfg.s, cfg.k).value_at,
    "ck": lambda cfg: _ck_exp(cfg)[1],
    "constant": lambda cfg: constant_field(cfg.p, cfg.q).value_at,
    "linear": lambda cfg: linear_monogenic_field(cfg.p, cfg.q, cfg.s).value_at,
}
FIELDS = tuple(_VALUE_FNS)


def _point_columns(cfg: RunConfig) -> list:
    return [f"x{i + 1}" for i in range(cfg.p)] + [f"y{i + 1}" for i in range(cfg.q)]


def _ball_rule(cfg: RunConfig):
    """Sphere rule for the full-ball oracle; its node count grows like
    res^(p+q-1), so the resolution is capped per dimension."""
    ball_res = {4: 28, 5: 16, 6: 10}.get(cfg.p + cfg.q, 10)
    return sphere_rule(cfg.p + cfg.q, min(cfg.res, ball_res))


_RECONSTRUCTION_ERRORS = (
    "err_A_full", "err_B_full", "err_A_printed", "err_B_printed",
    "err_A_corrected", "err_B_corrected", "err_fullball_corrected", "printed_vs_full_B",
)


def _reconstruction_errors(field, pt: BiaxialPoint, hrule, oracle) -> dict:
    """The _RECONSTRUCTION_ERRORS at pt: each variant's A and B against the
    direct parts, the corrected assembly against the full-ball oracle, and
    the printed variant's B against the full variant's."""
    variants = reconstruct_ab_variants(field, pt, hrule)
    direct = {"A": field.A(pt.r, pt.y), "B": field.B(pt.r, pt.y)}
    errs = {f"err_{part}_{key}": (value - direct[part]).norm_inf
            for key in ("full", "printed", "corrected")
            for part, value in zip("AB", variants[key])}
    a_c, b_c = variants["corrected"]
    assembled = AxialField(pt.p, pt.q, lambda r, y: a_c, lambda r, y: b_c).value_at(pt)
    errs["err_fullball_corrected"] = (assembled - oracle.evaluate(pt)).norm_inf
    errs["printed_vs_full_B"] = (variants["full"][1] - variants["printed"][1]).norm_inf
    return errs


# -- verification suites ---------------------------------------------------
# Each suite draws from the run's generator in a fixed order and yields
# (check name, measured, tolerance) rows.

def _suite_algebra(cfg: RunConfig, rng: SplitMix64):
    # Samplers draw in per-sample order; batches of 20 bound the (20, 2^dim) arrays.
    p, dim = cfg.p, cfg.p + cfg.q
    size = 1 << dim

    def products(a: list, b: list) -> list:
        rows = batch_product([x.coeffs for x in a], [y.coeffs for y in b], dim)
        return [Multivector(dim, row) for row in rows]

    def anticommutation(n):
        uv = rng.uniform_array(n * 2 * dim, -1, 1).reshape(n, 2, dim)
        us, vs = ([Multivector.vector(dim, w) for w in uv[:, j]] for j in (0, 1))
        anti = [p1 + p2 for p1, p2 in zip(products(us, vs), products(vs, us))]
        return anti, [Multivector.scalar(dim, -2.0 * float(np.dot(u, v))) for u, v in uv]

    def associativity(n):
        draws = rng.uniform_array(n * 3 * 2 * size, -1, 1).reshape(3 * n, 2, size)
        mvs = [Multivector(dim, re + 1j * im) for re, im in draws]
        a, b, c = mvs[0::3], mvs[1::3], mvs[2::3]
        return products(products(a, b), c), products(a, products(b, c))

    def interior_plus_exterior(n):
        draws = rng.uniform_array(n * 2 * (dim + size), -1, 1).reshape(n, -1)
        xs = [Multivector.vector(dim, d[:dim] + 1j * d[dim:2 * dim]) for d in draws]
        ms = [Multivector(dim, d[2 * dim:2 * dim + size] + 1j * d[2 * dim + size:]) for d in draws]
        split = [Multivector(dim, np.add(*_vector_product_parts(x, m))) for x, m in zip(xs, ms)]
        return split, products(xs, ms)

    def embedded_vector_square(n):
        xy = rng.uniform_array(n * dim, -1, 1).reshape(n, dim)
        vs = [BiaxialPoint(p, cfg.q, w[:p], w[p:]).embed() for w in xy]
        norms = [-(float(np.dot(w[:p], w[:p])) + float(np.dot(w[p:], w[p:]))) for w in xy]
        return products(vs, vs), [Multivector.scalar(dim, v) for v in norms]

    for sampler, count in ((anticommutation, 200), (associativity, 100),
                           (interior_plus_exterior, 200), (embedded_vector_square, 100)):
        worst = 0.0
        for _ in range(count // 20):
            worst = max([worst] + [_rel(g, e) for g, e in zip(*sampler(20))])
        yield sampler.__name__, worst, 1e-12


_PSI_BATTERY = (
    ("one", lambda t: np.ones_like(t)),
    ("t", lambda t: t),
    ("t2", lambda t: t ** 2),
    ("t3", lambda t: t ** 3),
    ("exp", np.exp),
)


def _suite_funkhecke(cfg: RunConfig, rng: SplitMix64):
    m = cfg.p
    _check_range("funkhecke suite p", m, 2, 5)
    # Product-rule node counts grow like res^(m-1); cap the high dims.
    rules = _funk_hecke_rules(m, min(cfg.res, {2: cfg.res, 3: 48, 4: 32, 5: 20}[m]))
    for k in (0, 1, 2):
        for name, psi in _PSI_BATTERY:
            lhs, rhs = _funk_hecke_sides(psi, k, m, *rules)
            err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            yield f"funkhecke_m{m}_k{k}_{name}", err, 1e-8


def _suite_vekua(cfg: RunConfig, rng: SplitMix64):
    h = min(cfg.h, 1e-4)
    tolerances = {"constant": 1e-12, "linear": 1e-9, "exp-hpw": 1e-8}
    for name, field in _axial_fields(cfg).items():
        worst = _worst(rng, cfg, 0.3, 1.0, lambda pt: max(
            res.norm_inf for res in vekua_residual(field, pt.r, pt.y, h=h)))
        yield f"vekua_{name.replace('-', '_')}_h{h:g}", worst, tolerances[name]


def _suite_dirac(cfg: RunConfig, rng: SplitMix64):
    for name, field in (("exp_hpw", "exp-hpw"), ("fourier", "fourier-kernel"), ("ck_exp", "ck")):
        fn = _VALUE_FNS[field](cfg)
        worst = _worst(rng, cfg, 0.2, 1.2, lambda pt: dirac_residual_relative(fn, pt, cfg.h))
        yield f"dirac_{name}_h{cfg.h:g}", worst, 1e-6
    # Degree-k polynomials need the smaller verdict step: their third
    # derivatives scale like k^3 and dominate the h^2 truncation.
    k = max(cfg.k, 2)
    poly = poly_hpw_axial_field(cfg.p, cfg.q, cfg.s, k).value_at
    worst = _worst(rng, cfg, 0.2, 1.0, lambda pt: dirac_residual_relative(poly, pt, 1e-4))
    yield f"dirac_poly_k{k}_h0.0001", worst, 1e-6


def _kernel_pairs(cfg: RunConfig, rule, r: float, theta: float, ys, nu):
    """(KernelParams, closed I, S^{p-1} oracle at x = r e_1) for each y of the stack ys."""
    kps = [KernelParams(cfg.p, cfg.q, r, y, theta, nu) for y in ys]
    closed = [kernel_I_closed(kp) for kp in kps]
    x = np.zeros(cfg.p)
    x[0] = r
    return list(zip(kps, closed, kernel_I_oracle(x, ys, theta, nu, rule).tolist()))


def _suite_kernel(cfg: RunConfig, rng: SplitMix64):
    if cfg.q < 2:
        raise ConfigError("kernel suite needs q >= 2")
    rule = sphere_rule(cfg.p, min(cfg.res, 64))
    nu = np.eye(cfg.q)[0]
    ys = np.outer((0.0, 0.2, 0.4), np.eye(cfg.q)[-1])
    worst = 0.0
    anchor = 0.0
    for r in np.linspace(0.0, 0.55, 5):
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            for kp, closed, oracle in _kernel_pairs(cfg, rule, float(r), float(theta), ys, nu):
                worst = max(worst, abs(closed - oracle) / max(abs(closed), abs(oracle)))
                if r == 0.0:
                    expected = sphere_area(cfg.p) * kp.tau ** (-0.5 * (cfg.p + cfg.q))
                    anchor = max(anchor, abs(closed - expected) / expected)
    yield f"kernel_closed_vs_oracle_p{cfg.p}_q{cfg.q}", worst, 1e-8
    yield "kernel_r0_equals_sphere_measure", anchor, 1e-12


def _suite_cauchy(cfg: RunConfig, rng: SplitMix64):
    hrule = hemisphere_rule(cfg.p, cfg.q, min(cfg.res, 40))
    ball = _ball_rule(cfg)
    pts = [_interior_point(rng, cfg.p, cfg.q, 0.5) for _ in range(2)]
    for name, field in _axial_fields(cfg).items():
        name = name.replace("-", "_")
        oracle = FullBallCauchy(field.boundary_value, ball)
        worst_corr = 0.0
        worst_full = 0.0
        worst_ball = 0.0
        for pt in pts:
            errs = _reconstruction_errors(field, pt, hrule, oracle)
            worst_corr = max(worst_corr, errs["err_A_corrected"], errs["err_B_corrected"])
            worst_full = max(worst_full, errs["err_A_full"], errs["err_B_full"])
            worst_ball = max(worst_ball, errs["err_fullball_corrected"])
        yield f"reconstruct_corrected_vs_direct_{name}", worst_corr, 1e-4
        yield f"reconstruct_corrected_vs_fullball_{name}", worst_ball, 1e-5
        # The omega-odd kernel terms do not cancel, so the reduced
        # integrand misses the field by an order-|x+y|^2 defect; the check
        # records the measured gap against the tolerance the reduction
        # would need to meet.
        yield f"reconstruct_reduced_vs_direct_{name}", worst_full, 1e-4


def _suite_planewave(cfg: RunConfig, rng: SplitMix64):
    exp_closed = _VALUE_FNS["exp-hpw"](cfg)
    fourier_closed = _VALUE_FNS["fourier-kernel"](cfg)
    series = exp_hpw_series(cfg.p, cfg.q, cfg.s, J=cfg.J)
    worst = _worst(rng, cfg, 0.0, 1.8,
                   lambda pt: _rel(exp_closed(pt), eval_series(series, pt)[0]))
    yield "exp_closed_vs_series", worst, 1e-12
    worst = 0.0
    for j in range(min(cfg.J, 20)):
        profile = series.C[j] if j % 2 == 0 else series.D[j]
        got = complex(profile.poly[0]).real
        want = exp_coeffs_closed(j, cfg.p)
        worst = max(worst, abs(got - want) / want)
    yield "exp_coeffs_closed_vs_recurrence", worst, 1e-13
    rule = sphere_rule(cfg.p, min(cfg.res, 48))
    worst = 0.0
    for k in range(min(cfg.k, 4) + 1):
        pt = _random_point(rng, cfg.p, cfg.q, 0.1, 1.0)
        closed = poly_hpw_axial_field(cfg.p, cfg.q, cfg.s, k).value_at(pt)
        oracle = radialize_poly_oracle(k, pt, cfg.s, rule)
        worst = max(worst, _rel(closed, oracle))
    yield "radialize_closed_vs_oracle", worst, 1e-9
    worst = 0.0
    conv = 0.0
    fine = sphere_rule(cfg.p, min(2 * cfg.res, 96))
    for r in (0.5, 1.0, 2.0):
        pt = BiaxialPoint(cfg.p, cfg.q, r * np.eye(cfg.p)[0],
                          rng.uniform_array(cfg.q, -0.5, 0.5))
        closed = fourier_closed(pt)
        oracle = fourier_kernel_oracle(pt, cfg.s, rule)
        worst = max(worst, _rel(closed, oracle))
        conv = max(conv, (oracle - fourier_kernel_oracle(pt, cfg.s, fine)).norm_inf)
    yield "fourier_closed_vs_oracle", worst, 1e-9
    yield "fourier_oracle_self_convergence", conv, 1e-10


def _suite_ck(cfg: RunConfig, rng: SplitMix64):
    if cfg.J < 2:
        raise ConfigError(f"ck suite needs J >= 2, got J={cfg.J}")
    linear = ck_extend(ExpLinear.polynomial(cfg.s, [0.0, 1.0]), cfg.p, cfg.q)
    term_err = 0.0 if (linear.terminated and linear.truncation == 2) else 1.0
    term_err = max(term_err, abs(complex(linear.D[1].poly[0]) - 1.0 / cfg.p))
    yield "ck_linear_datum_terminates", term_err, 1e-14
    series, ck_fn = _ck_exp(cfg)
    coeff_err = abs(complex(series.D[1].poly[0]) - 1.0 / cfg.p)
    coeff_err = max(coeff_err, abs(complex(series.C[2].poly[0]) - 1.0 / (2.0 * cfg.p)))
    yield "ck_exp_low_coefficients", coeff_err, 1e-14
    worst = _worst(rng, cfg, 0.0, 1.8, lambda pt: _rel(hpw_exp_closed(pt, cfg.s), ck_fn(pt)))
    yield "ck_bessel_form_vs_series", worst, 1e-12
    worst = _worst(rng, cfg, 0.2, 1.2, lambda pt: dirac_apply_fd(ck_fn, pt, h=cfg.h).norm_inf)
    yield f"ck_dirac_annihilation_h{cfg.h:g}", worst, 1e-6


_SUITE_RUNNERS = {
    "algebra": _suite_algebra,
    "funkhecke": _suite_funkhecke,
    "vekua": _suite_vekua,
    "dirac": _suite_dirac,
    "kernel": _suite_kernel,
    "cauchy": _suite_cauchy,
    "planewave": _suite_planewave,
    "ck": _suite_ck,
}
SUITES = tuple(_SUITE_RUNNERS)


# -- table commands ---------------------------------------------------------

def _parse_range(spec: str, name: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"{name} must look like start:stop:count, got {spec!r}") from exc
    _check_finite(name, spec, start, stop)
    if count < 1:
        raise ConfigError(f"{name} needs at least one sample")
    _check_limit(count, name)
    return np.linspace(start, stop, count)


def _format_float(v: float) -> str:
    return repr(float(v))


def _cmd_verify(cfg: RunConfig, args):
    rows = _SUITE_RUNNERS[args.suite](cfg, SplitMix64(cfg.seed))
    checks = [_check(*row) for row in rows]
    code = 0 if all(c["pass"] for c in checks) else 1
    return code, {"suite": args.suite, "checks": checks, "config": _config_echo(cfg)}


def _cmd_eval(cfg: RunConfig, args):
    fn = _VALUE_FNS[args.field](cfg)
    rs = _parse_range(args.grid_r, "--grid-r")
    ts = _parse_range(args.grid_t, "--grid-t")
    dim = cfg.p + cfg.q
    columns = _point_columns(cfg)
    for mask in range(1 << dim):
        columns.append(f"{blade_name(mask)}_re")
        columns.append(f"{blade_name(mask)}_im")
    _check_limit(rs.size * ts.size * len(columns), "report")
    rows = []
    for r in rs:
        for t in ts:
            x = np.zeros(cfg.p)
            x[0] = r
            y = t * cfg.s
            pt = BiaxialPoint(cfg.p, cfg.q, x, y)
            try:
                # A value that overflows is refused below; numpy need not warn.
                with np.errstate(over="ignore", invalid="ignore"):
                    value = fn(pt)
            except OverflowError:
                value = None
            if value is None or not np.isfinite(value.coeffs).all():
                raise OverflowError(f"{args.field} is not finite at the grid point |x| = {r}, t = {t}")
            row = [float(v) for v in x] + [float(v) for v in y]
            for c in value.coeffs:
                row.extend([float(c.real), float(c.imag)])
            rows.append(row)
    return 0, {"command": "eval", "field": args.field, "config": _config_echo(cfg),
               "columns": columns, "rows": rows}


def _cmd_kernel_table(cfg: RunConfig, args):
    if cfg.q < 2:
        raise ConfigError("kernel-table needs q >= 2")
    _check_finite("--tol", args.tol, args.tol)
    if args.tol < 0:
        raise ConfigError(f"--tol must be >= 0, got {args.tol!r}")
    rs = _parse_range(args.grid_r, "--grid-r")
    thetas = _parse_range(args.grid_theta, "--grid-theta")
    columns = ["r", "theta", "I_closed", "I_oracle", "abs_diff"]
    _check_limit(rs.size * thetas.size * len(columns), "report")
    if args.y is None:
        y = np.zeros(cfg.q)
    else:
        y = _parse_floats("--y", args.y)
        _check_finite("--y", args.y, y)
        if y.size != cfg.q:
            raise ConfigError(f"--y needs {cfg.q} components")
    nu = np.zeros(cfg.q)
    nu[0] = 1.0
    _check_range("grid |x+y|", math.sqrt(float(max(rs)) ** 2 + float(np.dot(y, y))),
                 0, BALL_RADIUS_MAX)
    rule = sphere_rule(cfg.p, min(cfg.res, 64))
    _check_limit(rs.size * thetas.size * rule.points.shape[0], "kernel-table",
                 MAX_RECONSTRUCT_WORK, "row x node evaluations")
    rows = []
    failed = False
    for r in rs:
        for theta in thetas:
            [(_, closed, oracle)] = _kernel_pairs(cfg, rule, float(r), float(theta), y[None], nu)
            diff = abs(closed - oracle)
            failed = failed or diff > args.tol * max(1.0, abs(closed))
            rows.append([float(r), float(theta), closed, oracle, diff])
    payload = {"command": "kernel-table", "config": _config_echo(cfg),
               "tolerance": args.tol, "columns": columns, "rows": rows}
    return (1 if failed else 0), payload


def _reconstruct_points(cfg: RunConfig, args):
    if args.points:
        pts = []
        for spec in args.points:
            try:
                xs, ys = spec.split(";")
                x, y = _parse_floats("--points", xs), _parse_floats("--points", ys)
            except ValueError as exc:  # also ConfigError: a bad number gets this message too
                raise ConfigError(f"point must look like x1,..;y1,.., got {spec!r}") from exc
            _check_finite("--points", spec, x, y)
            if x.size != cfg.p or y.size != cfg.q:
                raise ConfigError(f"point {spec!r} does not match p={cfg.p}, q={cfg.q}")
            pts.append(BiaxialPoint(cfg.p, cfg.q, x, y))
        return pts
    rng = SplitMix64(cfg.seed)
    return [_interior_point(rng, cfg.p, cfg.q, 0.5) for _ in range(args.num_points)]


def _cmd_reconstruct(cfg: RunConfig, args):
    if args.num_points < 1:
        raise ConfigError(f"need --num-points >= 1, got {args.num_points}")
    columns = _point_columns(cfg) + list(_RECONSTRUCTION_ERRORS)
    n_points = len(args.points) if args.points else args.num_points
    _check_limit(n_points * len(columns), "report")
    field_name = args.field
    fields = _axial_fields(cfg)
    if field_name not in fields:
        raise ConfigError(f"unknown field {field_name!r}; choose from {sorted(fields)}")
    field = fields[field_name]
    hrule, ball = hemisphere_rule(cfg.p, cfg.q, min(cfg.res, 48)), _ball_rule(cfg)
    nodes = hrule.theta_nodes.size * hrule.nu.points.shape[0] + ball.points.shape[0]
    _check_limit(n_points * nodes, "reconstruct", MAX_RECONSTRUCT_WORK, "point x node evaluations")
    pts = _reconstruct_points(cfg, args)
    oracle = FullBallCauchy(field.boundary_value, ball)
    rows = []
    for pt in pts:
        errs = _reconstruction_errors(field, pt, hrule, oracle)
        row = [float(v) for v in pt.x] + [float(v) for v in pt.y]
        rows.append(row + [errs[name] for name in _RECONSTRUCTION_ERRORS])
    payload = {"command": "reconstruct", "field": field_name,
               "config": _config_echo(cfg), "columns": columns, "rows": rows}
    return 0, payload


_COMMANDS = {
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "kernel-table": _cmd_kernel_table,
    "reconstruct": _cmd_reconstruct,
}


# -- output -----------------------------------------------------------------

def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "checks" in payload:
        writer.writerow(["name", "measured", "tolerance", "pass"])
        for check in payload["checks"]:
            writer.writerow([
                check["name"], _format_float(check["measured"]),
                _format_float(check["tolerance"]), str(check["pass"]).lower(),
            ])
    else:
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_format_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _write_output(text: str, out_path):
    data = text.encode("utf-8")
    if not out_path:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".biaxial-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- entry point ------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--p", type=int, default=2, help="x-axis dimension (>= 2)")
    parser.add_argument("--q", type=int, default=2, help="y-axis dimension")
    parser.add_argument("--s", type=str, default=None,
                        help="direction in R^q as comma floats (normalized)")
    parser.add_argument("--k", type=int, default=2, help="polynomial degree")
    parser.add_argument("--J", type=int, default=40, help="series truncation")
    parser.add_argument("--res", type=int, default=64, help="nodes per 1-D quadrature factor")
    parser.add_argument("--h", type=float, default=1e-3, help="finite-difference step")
    parser.add_argument("--seed", type=int, default=2024, help="deterministic test-point seed")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaxial",
        description="Verification suites and tables for axial Dirac-null fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)

    p_eval = sub.add_parser("eval", help="evaluate a field on an (|x|, t) grid")
    p_eval.add_argument("field", choices=FIELDS)
    p_eval.add_argument("--grid-r", type=str, default="0:1.5:7",
                        help="|x| samples as start:stop:count")
    p_eval.add_argument("--grid-t", type=str, default="-1:1:5",
                        help="y-coordinate along s as start:stop:count")
    _add_common(p_eval)

    p_kernel = sub.add_parser("kernel-table", help="closed kernel vs quadrature oracle")
    p_kernel.add_argument("--grid-r", type=str, default="0:0.5:5")
    p_kernel.add_argument("--grid-theta", type=str, default=f"0:{0.5 * math.pi}:5")
    p_kernel.add_argument("--y", type=str, default=None, help="fixed y as comma floats")
    p_kernel.add_argument("--tol", type=float, default=1e-8)
    _add_common(p_kernel)

    p_rec = sub.add_parser("reconstruct", help="hemisphere reconstruction report")
    p_rec.add_argument("--field", type=str, default="exp-hpw")
    p_rec.add_argument("--points", action="append", default=None,
                       help="evaluation point as x1,..;y1,.. (repeatable)")
    p_rec.add_argument("--num-points", type=int, default=3)
    _add_common(p_rec)
    return parser


# Parsing leaves no state in the parser, so one instance serves every call.
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        code, payload = _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, ConvergenceError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    text = _render_json(payload) if cfg.fmt == "json" else _render_csv(payload)
    _write_output(text, cfg.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
