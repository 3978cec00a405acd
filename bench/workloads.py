"""The benchmark's workloads.

A workload is built once from the seed (its constructor is the set-up the
``setup_s`` metric times) and then runs items ``run_item(0)``,
``run_item(1)``, ... back to back: one client, one process, a closed loop.
Every input of item k derives from (seed, k) alone, so a traced pass can
replay exactly the items of an untraced one.

``run_item`` raises ``OracleMiss`` when a gated check exceeds its
tolerance and returns the measured values of the checks that miss by
construction (acceptance criteria 3 and 7), which are recorded but never
gate an item.

Library calls go through module attributes (``cauchy.reconstruct_ab_variants``)
so that the traced run's rebound names are the ones called.
"""

import hashlib
import json
import math
import os
import random

import numpy as np

import biaxial.algebra as algebra
import biaxial.cauchy as cauchy
import biaxial.cli as cli
import biaxial.fields as fields
import biaxial.planewave as planewave
import biaxial.quadrature as quadrature

Q = 2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


class OracleMiss(AssertionError):
    """A gated check exceeded its oracle tolerance."""


def check(name: str, measured: float, tolerance: float) -> None:
    if not measured <= tolerance:
        raise OracleMiss(f"{name}: measured {measured:.3e} > tolerance {tolerance:.1e}")


def rel_err(a, b) -> float:
    """Max-blade difference relative to max(|a|, |b|, 1), as the CLI reports it."""
    return (a - b).norm_inf / max(a.norm_inf, b.norm_inf, 1.0)


def item_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}")


def unit_vector(rng: random.Random, d: int) -> np.ndarray:
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
    return v / np.linalg.norm(v)


def warm_algebra(dims) -> None:
    """Fill the blade sign tables the items will use."""
    for dim in dims:
        one = algebra.Multivector.scalar(dim, 1.0)
        one * one


class Reconstruct:
    """Hemisphere reconstruction at res 40; three of every four items are
    p=q=2 (also checked against the full-ball oracle), the fourth p=3, q=2."""

    name = "reconstruct"
    cycle = 4
    trace_items = 8
    RES = 40
    BALL_RES = 28
    FIELDS = ("constant", "linear", "exp-hpw")
    TOL_DIRECT = 1e-4
    TOL_BALL = 1e-5

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.s = unit_vector(rng, Q)
        self.offsets = (rng.random(), rng.random())
        warm_algebra((2 + Q, 3 + Q))
        self.hrules = {p: quadrature.hemisphere_rule(p, Q, self.RES) for p in (2, 3)}
        self.fields = {p: self._fields(p) for p in (2, 3)}
        ball = quadrature.sphere_rule(2 + Q, self.BALL_RES)
        self.oracles = {
            name: cauchy.FullBallCauchy(field.boundary_value, ball)
            for name, field in self.fields[2].items()
        }

    def _fields(self, p: int) -> dict:
        return {
            "constant": fields.constant_field(p, Q),
            "linear": fields.linear_monogenic_field(p, Q, self.s),
            "exp-hpw": planewave.exp_hpw_axial_field(p, Q, self.s),
        }

    def point(self, k: int, p: int):
        """|x+y| over (0.1, 0.5] and the angle between x and x+y over
        [0, pi/3] from two low-discrepancy sequences with seeded offsets, so
        every stretch of items covers both evenly; directions are seeded."""
        rng = item_rng(self.seed, k)
        rho = 0.5 - 0.4 * ((self.offsets[0] + k * _GOLDEN) % 1.0)
        split = math.pi / 3.0 * ((self.offsets[1] + k * _SILVER) % 1.0)
        x = unit_vector(rng, p) * (rho * math.cos(split))
        y = unit_vector(rng, Q) * (rho * math.sin(split))
        return algebra.BiaxialPoint(p, Q, x, y)

    def run_item(self, k: int) -> dict:
        p = 3 if k % self.cycle == self.cycle - 1 else 2
        name = self.FIELDS[k % len(self.FIELDS)]
        field = self.fields[p][name]
        pt = self.point(k, p)
        variants = cauchy.reconstruct_ab_variants(field, pt, self.hrules[p])
        a_direct = field.A(pt.r, pt.y)
        b_direct = field.B(pt.r, pt.y)
        err = {
            key: max((a - a_direct).norm_inf, (b - b_direct).norm_inf)
            for key, (a, b) in variants.items()
        }
        check(f"reconstruct_corrected_vs_direct_{name}_p{p}", err["corrected"], self.TOL_DIRECT)
        if p == 2:
            a_c, b_c = variants["corrected"]
            assembled = a_c + pt.embed_unit_x() * b_c
            ball_err = (assembled - self.oracles[name].evaluate(pt)).norm_inf
            check(f"reconstruct_corrected_vs_fullball_{name}", ball_err, self.TOL_BALL)
        # Criterion 7: the reduced and printed variants drop omega-odd
        # kernel terms and miss the field by construction.
        return {"reconstruct_reduced_vs_direct": err["full"],
                "reconstruct_printed_vs_direct": err["printed"]}


class Series:
    """Scalar closed forms against their series at one point per item."""

    name = "series"
    cycle = 1
    trace_items = 1200
    PS = (2, 3, 5)
    J = 40
    FD_EVERY = 8
    FD_FAMILIES = ("exp-hpw", "fourier", "ck", "poly")
    ORACLE_RES = {2: 48, 3: 48, 5: 12}
    TOL_SERIES = 1e-12
    TOL_ORACLE = 1e-9
    TOL_DIRAC = 1e-6
    SMOOTH_STEP = 1e-3
    POLY_STEP = 1e-4
    POLY_CRITERION_STEP = 1e-3

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.s = {}
        self.planewaves = {}
        self.ck = {}
        self.rules = {}
        warm_algebra(p + Q for p in self.PS)
        for p in self.PS:
            s = unit_vector(rng, Q)
            self.s[p] = s
            self.planewaves[p] = planewave.exp_hpw_series(p, Q, s, J=self.J)
            self.ck[p] = fields.ck_extend(fields.ExpLinear.exponential(s), p, Q, J=self.J)
            self.rules[p] = quadrature.sphere_rule(p, self.ORACLE_RES[p])

    def run_item(self, k: int) -> dict:
        p = self.PS[k % len(self.PS)]
        s = self.s[p]
        degree = (k // len(self.PS)) % 5
        fd_item = k % self.FD_EVERY == self.FD_EVERY - 1
        rng = item_rng(self.seed, k)
        # Finite differences use the CLI's dirac-suite radii; |x| <= 1.8
        # stays inside the bessel_j accuracy range.
        r = rng.uniform(0.2, 1.0) if fd_item else rng.uniform(0.0, 1.8)
        x = unit_vector(rng, p) * r
        y = np.array([rng.uniform(-0.6, 0.6) for _ in range(Q)])
        pt = algebra.BiaxialPoint(p, Q, x, y)

        closed = planewave.hpw_exp_closed(pt, s)
        series, _ = planewave.eval_planewave(self.planewaves[p], pt)
        check(f"hpw_closed_vs_series_p{p}", rel_err(closed, series), self.TOL_SERIES)
        closed = fields.ck_bessel_form(pt, s)
        series, _ = fields.eval_series(self.ck[p], pt)
        check(f"ck_bessel_vs_series_p{p}", rel_err(closed, series), self.TOL_SERIES)
        fourier = planewave.fourier_kernel_closed(pt, s)
        poly = planewave.radialize_poly(degree, pt, s)
        if not fd_item:
            return {}

        rule = self.rules[p]
        check(f"fourier_closed_vs_oracle_p{p}",
              rel_err(fourier, planewave.fourier_kernel_oracle(pt, s, rule)), self.TOL_ORACLE)
        check(f"radialize_closed_vs_oracle_p{p}_k{degree}",
              rel_err(poly, planewave.radialize_poly_oracle(degree, pt, s, rule)),
              self.TOL_ORACLE)
        family = self.FD_FAMILIES[(k // self.FD_EVERY) % len(self.FD_FAMILIES)]
        ck = self.ck[p]
        fn = {
            "exp-hpw": lambda q: planewave.hpw_exp_closed(q, s),
            "fourier": lambda q: planewave.fourier_kernel_closed(q, s),
            "ck": lambda q: fields.eval_series(ck, q)[0],
            "poly": lambda q: planewave.radialize_poly(degree, q, s),
        }[family]
        step = self.POLY_STEP if family == "poly" else self.SMOOTH_STEP
        residual = fields.dirac_residual_relative(fn, pt, step)
        check(f"dirac_{family}_p{p}_h{step:g}", residual, self.TOL_DIRAC)
        if family != "poly":
            return {}
        # Criterion 3: at h = 1e-3 the k^3-scaled truncation error of the
        # polynomial family exceeds 1e-6 by construction (for k >= 3).
        return {"dirac_poly_h0.001": fields.dirac_residual_relative(
            fn, pt, self.POLY_CRITERION_STEP)}


def _cli_commands():
    commands = []
    for p, q in ((2, 2), (3, 2), (4, 4)):
        for suite in ("algebra", "funkhecke", "vekua", "dirac", "kernel", "planewave", "ck"):
            commands.append(["verify", suite, "--p", str(p), "--q", str(q)])
    commands.append(["verify", "funkhecke", "--p", "5", "--q", "2"])
    for field in cli.FIELDS:
        commands.append(["eval", field])
    commands.append(["kernel-table"])
    return commands


class CliVerify:
    """In-process ``biaxial`` commands, one per item, sweeping the list."""

    name = "cli_verify"
    COMMANDS = _cli_commands()
    cycle = len(COMMANDS)
    trace_items = len(COMMANDS)
    FORMATS = ("json", "csv")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.digests = {}

    def run_item(self, k: int) -> dict:
        j = k % len(self.COMMANDS)
        fmt = self.FORMATS[(j + k // len(self.COMMANDS)) % 2]
        out = os.path.join(self.workdir, f"report.{fmt}")
        argv = self.COMMANDS[j] + ["--seed", str(self.seed), "--format", fmt, "--out", out]
        label = " ".join(argv[:-2])
        code = cli.main(argv)
        if code != 0:
            raise OracleMiss(f"{label}: exit code {code}")
        with open(out, "rb") as fh:
            data = fh.read()
        if argv[0] == "verify":
            if fmt == "json":
                passed = [c["pass"] for c in json.loads(data)["checks"]]
            else:
                rows = data.decode("utf-8").splitlines()[1:]
                passed = [row.rsplit(",", 1)[1] == "true" for row in rows]
            if not passed or not all(passed):
                raise OracleMiss(f"{label}: a check failed")
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault((j, fmt), digest) != digest:
            raise OracleMiss(f"{label}: repeated config wrote different bytes")
        return {}


WORKLOADS = {cls.name: cls for cls in (Reconstruct, Series, CliVerify)}
