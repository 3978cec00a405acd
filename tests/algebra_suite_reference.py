"""The algebra suite that biaxial.cli replaced, kept verbatim.

Its samplers wrapped every draw and every product row in a Multivector,
turned the lists back into arrays for batch_product, and took one
relative error per pair with _rel.  The tests hold the suite's
array samplers and row-wise error to it bit for bit.
"""

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, _vector_product_parts, batch_product
from biaxial.cli import RunConfig
from biaxial.rng import SplitMix64


def _rel(a: Multivector, b: Multivector) -> float:
    scale = max(a.norm_inf, b.norm_inf, 1.0)
    return (a - b).norm_inf / scale


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
