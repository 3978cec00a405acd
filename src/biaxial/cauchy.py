"""Hemisphere Cauchy machinery for axial fields in the unit ball.

The sphere of R^{p+q} splits as S^{p-1} x S^{q-1} x [0, pi/2]; the inner
integral over S^{p-1} of the Cauchy kernel against boundary data reduces
to two zonal moments of (tau - 2 r cos(theta) u)^{-(p+q)/2}:

  I   - the plain moment, C (tau + c2)^{-a} 2F1(a, b; 2b; z),
  Phi - the u-weighted moment, C (a/p) c2 (tau + c2)^{-a-1} 2F1(a+1, b+1; 2b+2; z),

with a = (p+q)/2, b = (p-1)/2, c2 = 2 r cos(theta), z = 2 c2/(tau + c2)
and one constant C; both follow from the Euler integral of 2F1 (DLMF
15.6.1, 15.5.1, 15.8).

reconstruct_ab_variants assembles three variants of the reduced integral:

  'full'      keeps I (A + (x+y)(sin(theta) nu A - cos(theta) B)) and
              grade-splits it,
  'printed'   additionally drops the cos(theta) B term from the odd part,
  'corrected' adds the Phi terms that the first two variants discard.

The discarded terms are odd in omega but integrate against a kernel that
is not even in omega, so they do not vanish: only 'corrected' reproduces
interior values (the full-sphere Cauchy quadrature is the referee; see
tests and demos for the measured discrepancy of the other variants).

Both reconstruction and the full-sphere oracle work on whole arrays of
quadrature nodes: they need fields whose A/B (or boundary function)
accept arrays, as AxialField documents.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .algebra import BiaxialPoint, Multivector, batch_vector_product
from .fields import AxialField
from .quadrature import _ORACLE_BLOCK, HemisphereRule, SphereRule, sphere_area
from .special import _check_range, hyp2f1_symmetric

BALL_RADIUS_MAX = 0.9
_MIN_BOUNDARY_DISTANCE = 0.05
# Nodes per array pass of the hemisphere sweep; bounds the (nodes x 2^dim),
# (nodes x Jacobi) and (nodes x q) work arrays for fine rules.  The kernel
# oracle walks its rule in blocks of quadrature._ORACLE_BLOCK.
_NODE_BLOCK = 4096


def _check_interior(r: float, y: np.ndarray) -> None:
    _check_range("|x+y|", math.sqrt(r * r + float(np.dot(y, y))), 0, BALL_RADIUS_MAX)


def _check_nodes(theta, nu: np.ndarray) -> None:
    """theta in [0, pi/2] (slack for rounding) and |nu| = 1 at a node or a rule's nodes."""
    _check_range("theta", theta, 0, 0.5 * math.pi + 1e-12)
    _check_range("|nu| of the unit vector nu", np.linalg.norm(nu, axis=-1),
                 1.0 - 1e-9, 1.0 + 1e-9)


def _inverse_half_power(d: np.ndarray, m: int, work: np.ndarray) -> np.ndarray:
    """d^{-m/2} for an integer m >= 2, in place in d; work is an array of d's
    shape that the ladder may overwrite.  One reciprocal r = 1/d, then a
    square-and-multiply ladder over the bits of m // 2 and, for odd m, one
    sqrt(r) as its first factor.  Within m eps of the exact power for d in
    [0.0025, 10] (tests); on (3, 16384) rows it takes 0.4 (m = 8) to 0.8
    (m = 7) of the time of np.power with a float exponent (2-vCPU Xeon)."""
    k, odd = divmod(m, 2)
    np.divide(1.0, d, out=d)
    taken = np.sqrt(d, out=work) if odd else None  # product of the factors taken
    while k > 1:
        if k & 1:
            if taken is None:
                taken = work
                np.copyto(taken, d)
            else:
                taken *= d
        d *= d
        k >>= 1
    if taken is not None:
        d *= taken
    return d


def _node_geometry(r: float, y: np.ndarray, c: np.ndarray, s: np.ndarray, nu: np.ndarray):
    """tau = r^2 + cos^2(theta) + |y - sin(theta) nu|^2 and c2 = 2 r cos(theta)
    at hemisphere nodes c = cos(theta), s = sin(theta) (N,), nu (N, q), for
    one point (r, y)."""
    tau = r ** 2 + c * c + np.sum((y - s[:, None] * nu) ** 2, axis=1)
    return tau, 2.0 * r * np.maximum(c, 0.0)  # 0 in the slack past pi/2


def _moment_args(p: int, q: int, tau, c2):
    """a, b, z and the constant C shared by the closed moments I and Phi."""
    a = 0.5 * (p + q)
    b = 0.5 * (p - 1.0)
    z = 2.0 * c2 / (tau + c2)
    const = sphere_area(p - 1) * 2.0 ** (p - 2) * math.gamma(b) ** 2 / math.gamma(p - 1.0)
    return a, b, z, const


def _kernel_I(p: int, q: int, tau, c2):
    """Closed moment I from tau and c2; floats or equal-shape arrays."""
    a, b, z, const = _moment_args(p, q, tau, c2)
    return const * (tau + c2) ** (-a) * hyp2f1_symmetric(a, b, z)


def _kernel_phi(p: int, q: int, tau, c2):
    """Closed moment Phi from tau and c2, 0.0 where c2 = 0; floats or arrays."""
    a, b, z, const = _moment_args(p, q, tau, c2)
    return (const * (a / p) * c2 * (tau + c2) ** (-(a + 1.0))
            * hyp2f1_symmetric(a + 1.0, b + 1.0, z))


@dataclass(frozen=True)
class KernelParams:
    """Arguments of the reduced kernel at one hemisphere node."""

    p: int
    q: int
    r: float
    y: np.ndarray
    theta: float
    nu: np.ndarray
    # The hemisphere sweep's _node_geometry at this one node.
    tau: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        _check_range("p", self.p, 2, math.inf)
        _check_range("q", self.q, 2, math.inf)
        _check_range("radius r", self.r, 0, math.inf)
        y = np.asarray(self.y, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if y.shape != (self.q,) or nu.shape != (self.q,):
            raise ValueError("y and nu must be length-q vectors")
        _check_nodes(self.theta, nu)
        _check_interior(self.r, y)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "nu", nu)
        theta = np.array([self.theta])
        tau, c2 = _node_geometry(self.r, y, np.cos(theta), np.sin(theta), nu[None])
        object.__setattr__(self, "tau", float(tau[0]))
        object.__setattr__(self, "c2", float(c2[0]))

    @property
    def z(self) -> float:
        return 2.0 * self.c2 / (self.tau + self.c2)


def kernel_I_closed(kp: KernelParams) -> float:
    """Closed hypergeometric form of the zonal kernel moment.

    I = kappa_p (2^{p-2} Gamma((p-1)/2)^2 / Gamma(p-1))
        (tau + 2 r cos theta)^{-(p+q)/2} 2F1((p+q)/2, (p-1)/2; p-1; z)
    with z = 4 r cos(theta) / (tau + 2 r cos(theta)); at r = 0 this is the
    sphere measure |S^{p-1}| times tau^{-(p+q)/2}.
    """
    return float(_kernel_I(kp.p, kp.q, kp.tau, kp.c2))


def kernel_phi(kp: KernelParams) -> float:
    """First-order zonal moment kappa_p int u (1-u^2)^{(p-3)/2} K(u) du.

    K(u) = (tau - 2 r cos(theta) u)^{-(p+q)/2}.  Closed form: one
    2F1(a+1, b+1; 2b+2; z) on kernel_I_closed's z (DLMF 15.6.1, 15.5.1,
    15.8; module docstring).  It is exactly 0.0 at r = 0 and multiplies
    the omega-odd boundary terms in the corrected reconstruction.
    """
    return float(_kernel_phi(kp.p, kp.q, kp.tau, kp.c2))


def kernel_I_oracle(x: np.ndarray, y: np.ndarray, theta: float | np.ndarray, nu: np.ndarray,
                    rule: SphereRule):
    """Direct S^{p-1} quadrature of the kernel integral.

    Integrates |x + y - cos(theta) omega - sin(theta) nu|^{-(p+q)} over
    omega; depends on x only through |x|, which the zonal-invariance tests
    exercise.  y of shape (q,) gives a float; a stack (K, q) gives the K
    floats as an array.  theta may also be a 1-D array of T angles, which
    prepends an axis of length T: (T,) for one y, (T, K) for a stack.
    Every theta and nu must be a hemisphere node, as KernelParams requires:
    theta in [0, pi/2] and nu a unit vector of shape (q,); every theta is
    checked before the first node is touched.

    The oracle walks rule.blocks(_ORACLE_BLOCK) and never builds or holds
    the rule's node array; the (K, block) rows stay in L2 cache through
    every pass over them.  The block boundaries do not depend on how the
    rule stores its nodes, so every value is the same float either way.
    With |omega| = 1 to rounding, c = cos(theta) and dy = y - sin(theta) nu,
      |x - c omega|^2 + |dy|^2 = (|x|^2 + c^2 + |dy|^2) - 2c <x, omega>,
    so one matvec <x, omega> per block serves every theta and every y.
    Each theta's K rows are written into two (K, block) buffers that live
    for the whole call.  The expansion rounds apart from the direct square
    and can put an exact zero slightly below 0, which the distance check
    refuses like any tiny distance, before any reciprocal is taken.  The
    squared distances go to the power -(p+q)/2 through
    _inverse_half_power's integer ladder, and each row's dot with the
    block's weights adds to that row's running sum.  Each row is formed
    from the same floats as its single-theta, single-y call and summed in
    the same order, so a battery gives the per-call floats bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    thetas = np.asarray(theta, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    p = x.size
    q = ys.shape[-1]
    if rule.dim != p:
        raise ValueError("oracle rule must live on S^{p-1}")
    if nu.shape != (q,):
        raise ValueError(f"nu must have the shape ({q},) of y's last axis, got {nu.shape}")
    if thetas.ndim > 1:
        raise ValueError(f"theta must be a float or a 1-D array, got shape {thetas.shape}")
    _check_nodes(thetas, nu)
    one_y = ys.ndim == 1
    ys = ys.reshape(-1, q)
    x2 = float(np.dot(x, x))
    cosines = []
    offsets = []
    for th in thetas.reshape(-1).tolist():
        c, s = math.cos(th), math.sin(th)
        dy = ys - s * nu
        cosines.append(c)
        offsets.append(np.array([x2 + c * c + float(np.dot(row, row)) for row in dy])[:, None])
    sums = np.zeros((len(cosines), len(ys)))
    block = min(_ORACLE_BLOCK, rule.size)
    scaled = np.empty(block)
    dist2 = np.empty((len(ys), block))
    work = np.empty_like(dist2)
    for points, weights in rule.blocks(_ORACLE_BLOCK):
        t = points @ x
        n = t.size
        for c, offset, row_sums in zip(cosines, offsets, sums):
            np.multiply(t, -2.0 * c, out=scaled[:n])
            d = np.add(offset, scaled[:n], out=dist2[:, :n])
            _check_range("squared distance to a boundary node", float(np.min(d, initial=np.inf)),
                         _MIN_BOUNDARY_DISTANCE ** 2, math.inf)
            _inverse_half_power(d, p + q, work[:, :n])
            for i, row in enumerate(d):
                row_sums[i] += np.dot(weights, row)
    if one_y:
        sums = sums[:, 0]
    if thetas.ndim:
        return sums
    return float(sums[0]) if one_y else sums[0]


def _live_columns(rows):
    """(live, block, width) of complex rows (N, M): the float64 columns that are
    nonzero at some node as one (N, L) real block, their indices in the float64
    view, and its width 2 M.  Real fields fill one or a few of the 2 M columns.
    The gather along axis 1 lays the block out column by column (Fortran
    order), so block.T is a C-ordered (L, N) array."""
    view = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    live = np.flatnonzero(view.any(axis=0))
    return live, view[:, live], view.shape[1]


def _scattered(live: np.ndarray, width: int, product: np.ndarray) -> np.ndarray:
    """A (k, L) product over the live float64 columns, scattered into +0.0
    columns of the given width and viewed as (k, width / 2) complex."""
    out = np.zeros((product.shape[0], width))
    out[:, live] = product
    return out.view(np.complex128)


def _live_product(weights: np.ndarray, cols) -> np.ndarray:
    """weights (k, N) @ the rows _live_columns gathered: one real product,
    scattered by _scattered."""
    live, block, width = cols
    return _scattered(live, width, weights @ block)


# The point-independent half of the hemisphere sweep: per rule, its node
# blocks and, per field, the live columns of A and B on each block.  Weak
# on both keys, so an entry lives only as long as its rule and its field;
# rules keep read-only arrays, so an entry cannot go stale.
_SWEEPS = weakref.WeakKeyDictionary()


def _node_blocks(hrule: HemisphereRule) -> tuple:
    """(cos theta, sin theta, nu, w) of each block of at most _NODE_BLOCK
    nodes, nu in the rule's inner order."""
    theta = hrule.theta_nodes
    _check_nodes(theta, hrule.nu.points)
    n_nu = hrule.nu.points.shape[0]
    total = theta.size * n_nu
    blocks = []
    for start in range(0, total, _NODE_BLOCK):
        i_theta, i_nu = np.divmod(np.arange(start, min(start + _NODE_BLOCK, total)), n_nu)
        block_theta = theta[i_theta]
        blocks.append((np.cos(block_theta), np.sin(block_theta), hrule.nu.points[i_nu],
                       hrule.theta_weights[i_theta] * hrule.nu.weights[i_nu]))
    return tuple(blocks)


def _boundary_sweep(field: AxialField, hrule: HemisphereRule):
    """The rule's node blocks and, per block, the _live_columns of the
    boundary values A and B there.  Built on the first call for a (field,
    rule) pair and stored only once the whole build succeeded."""
    blocks, per_field = _SWEEPS.get(hrule, (None, None))
    cols = None if per_field is None else per_field.get(field)
    if cols is not None:
        return blocks, cols
    if blocks is None:
        blocks = _node_blocks(hrule)
    cols = []
    for c, s, nu, _ in blocks:
        y_b = s[:, None] * nu
        cols.append((_live_columns(field.A(c, y_b)), _live_columns(field.B(c, y_b))))
    cols = tuple(cols)
    if per_field is None:
        per_field = weakref.WeakKeyDictionary()
        _SWEEPS[hrule] = (blocks, per_field)
    per_field[field] = cols
    return blocks, cols


def _node_moments(p: int, q: int, r: float, y: np.ndarray, block, cols) -> np.ndarray:
    """Weighted sums of the boundary values over one block of nodes.

    Returns (2, q + 2, 2^dim) coefficients: the A values summed against
    w I, w Phi cos(theta) and w I sin(theta) nu_j, and the B values summed
    against w Phi, w I cos(theta) and w Phi sin(theta) nu_j.
    """
    c, s, nu, w = block
    tau, c2 = _node_geometry(r, y, c, s, nu)
    w_i = w * _kernel_I(p, q, tau, c2)
    w_phi = w * _kernel_phi(p, q, tau, c2)
    weights_a = np.vstack([w_i, w_phi * c, (w_i * s) * nu.T])
    weights_b = np.vstack([w_phi, w_i * c, (w_phi * s) * nu.T])
    return np.stack([_live_product(weights_a, cols[0]), _live_product(weights_b, cols[1])])


def reconstruct_ab_variants(field: AxialField, pt: BiaxialPoint, hrule: HemisphereRule):
    """All reconstruction variants in one sweep over the hemisphere nodes.

    Returns {variant: (A_value, B_value)} of y-subalgebra multivectors
    such that the field at pt is A_value + (x/|x|) B_value.  The nodes go
    through the kernels as arrays, in blocks of at most _NODE_BLOCK nodes.
    The boundary values field.A/field.B on those blocks do not depend on
    pt: they are computed once per (field, rule) and kept while both live
    (_boundary_sweep).  The node-dependent vectors nu and the fixed y enter
    linearly, so they multiply weighted sums instead of rows:
    sum_n w_n nu_n f_n = sum_j e_{p+j} (sum_n w_n nu_{n,j} f_n).
    """
    p, q = field.p, field.q
    if (pt.p, pt.q) != (p, q) or (hrule.p, hrule.q) != (p, q):
        raise ValueError("field, point, and rule must share (p, q)")
    _check_interior(pt.r, pt.y)
    blocks, cols = _boundary_sweep(field, hrule)
    dim = p + q
    r = pt.r
    mom = np.zeros((2, q + 2, 1 << dim), dtype=np.complex128)
    for block, block_cols in zip(blocks, cols):
        mom += _node_moments(p, q, r, pt.y, block, block_cols)
    mom /= sphere_area(dim)
    y_basis = np.eye(dim)[p:]  # components of e_{p+1}..e_{p+q}
    nu_a = batch_vector_product(y_basis, mom[0, 2:], dim).sum(axis=0)
    nu_b = batch_vector_product(y_basis, mom[1, 2:], dim).sum(axis=0)
    core = nu_a - mom[1, 1]
    odd = nu_b - mom[0, 1]
    y_mv = pt.embed_y_vector(pt.y)
    y_core, y_odd = ((y_mv * Multivector._wrap(dim, v)).coeffs for v in (core, odd))
    a_full = Multivector(dim, mom[0, 0] + y_core)
    return {
        "full": (a_full, Multivector(dim, r * core)),
        "printed": (a_full, Multivector(dim, r * nu_a)),
        "corrected": (
            Multivector(dim, a_full.coeffs + r * odd),
            Multivector(dim, mom[1, 0] + y_odd + r * core),
        ),
    }


class FullBallCauchy:
    """Full-sphere Cauchy integral, the master oracle of the hemisphere
    reconstruction: (1/lambda_{m-1}) int (z - eta)/|z - eta|^m eta f(eta) dS(eta)
    over S^{m-1}.  f_boundary maps the (N, m) node block to (N, 2^m)
    coefficients (AxialField.boundary_value does) and is called once.

    The oracle keeps two arrays.  _rows is one C-ordered (m + 1, N) real
    array: the rows eta_1..eta_m and then |eta|^2.  _cols holds the L live
    float64 columns of the boundary block (_live_columns), whose transpose
    (L, N) is C-ordered.  An evaluation takes the squared distances from one
    matvec,
      |z - eta|^2 = (|z|^2 + |eta|^2) - 2 <z, eta>,
    the expansion that kernel_I_oracle documents; it rounds apart from the
    direct square, so an exact hit may come out slightly below 0, and the
    distance check refuses it before any reciprocal is taken.  The weights
    w |z - eta|^{-m} then scale the (L, N) block in one pass, and one
    product of _rows with it gives every moment.  Beside the (m + 1, L)
    moments, an evaluation holds at most L + 1 arrays of N floats.
    """

    def __init__(self, f_boundary, rule: SphereRule):
        self.rule = rule
        self.dim = rule.dim
        points = rule.points
        values = np.asarray(f_boundary(points))
        expected = (points.shape[0], 1 << self.dim)
        if values.shape != expected:
            raise ValueError(
                f"f_boundary must map the {points.shape} node block to {expected} "
                f"coefficients, got shape {values.shape}"
            )
        self._cols = _live_columns(values)
        self._rows = np.empty((self.dim + 1, points.shape[0]))
        self._rows[:-1] = points.T
        np.einsum("ij,ij->i", points, points, out=self._rows[-1])

    def evaluate(self, pt: BiaxialPoint) -> Multivector:
        if pt.dim != self.dim:
            raise ValueError("point dimension does not match the rule")
        _check_interior(pt.r, pt.y)
        dim = self.dim
        rows = self._rows
        z = np.concatenate([pt.x, pt.y])
        dots = (2.0 * z) @ rows[:dim]
        dist2 = rows[dim] + float(np.dot(z, z))
        dist2 -= dots
        _check_range("squared distance to a boundary node", float(np.min(dist2)),
                     _MIN_BOUNDARY_DISTANCE ** 2, math.inf)
        scale = _inverse_half_power(dist2, dim, dots)  # dots: the ladder's work row
        del dots  # freed before the (L, N) block below
        scale *= self.rule.weights
        # Bilinearity, with eta eta = -|eta|^2:
        # sum scale (z - eta) eta f = z sum_i e_i (sum scale eta_i f) + sum scale |eta|^2 f.
        live, block, width = self._cols
        moments = _scattered(live, width, rows @ (block.T * scale).T)
        eta_f = batch_vector_product(np.eye(dim), moments[:-1], dim).sum(axis=0)
        total = (pt.embed() * Multivector._wrap(dim, eta_f)).coeffs + moments[-1]
        return Multivector(dim, total / sphere_area(dim))
