# The reduced hemisphere kernel: hypergeometric closed form against the
# direct S^{p-1} quadrature oracle on a grid of (r, theta), plus the
# zonal-invariance property (the kernel depends on x only through |x|).

import math

import numpy as np

from biaxial.cauchy import KernelParams, kernel_I_closed, kernel_I_oracle
from biaxial.quadrature import sphere_area, sphere_rule

p, q = 3, 2
rule = sphere_rule(p, 64)
nu = np.array([1.0, 0.0])
y = np.array([0.1, 0.2])

print(f"p={p}, q={q}, y={y}, nu={nu}")
print()
print("r     theta   I_closed           I_oracle           |diff|")
thetas = np.array([0.0, 0.5, 1.0, 1.5])
for r in (0.0, 0.2, 0.4, 0.6):
    x = np.zeros(p)
    x[0] = r
    # One oracle pass over the rule serves the whole theta grid of this r.
    oracles = kernel_I_oracle(x, y, thetas, nu, rule)
    for theta, oracle in zip(thetas.tolist(), oracles.tolist()):
        closed = kernel_I_closed(KernelParams(p, q, r, y, theta, nu))
        print(f"{r:3.1f}   {theta:3.1f}    {closed:.12e} {oracle:.12e} {abs(closed - oracle):.2e}")
print()

kp0 = KernelParams(p, q, 0.0, y, 0.8, nu)
print(f"r=0 anchor: I = |S^{{p-1}}| tau^-(p+q)/2 "
      f"-> {kernel_I_closed(kp0):.12e} vs "
      f"{sphere_area(p) * kp0.tau ** (-0.5 * (p + q)):.12e}")
print()

r = 0.45
x1 = np.array([r, 0.0, 0.0])
x2 = r * np.array([0.0, 0.6, 0.8])
i1 = kernel_I_oracle(x1, y, 0.7, nu, rule)
i2 = kernel_I_oracle(x2, y, 0.7, nu, rule)
print(f"zonal invariance: same |x|, different directions -> {i1:.12e} vs {i2:.12e}")

# The hypergeometric argument approaches 1 only near the boundary sphere.
print()
print("|x+y|  worst-case kernel argument z")
for rho in (0.3, 0.5, 0.7, 0.9):
    worst = 0.0
    for theta in np.linspace(0.0, 0.5 * math.pi, 40):
        kp = KernelParams(p, q, rho, np.zeros(q), float(theta), nu)
        worst = max(worst, kp.z)
    print(f"{rho:3.1f}    {worst:.6f}")
