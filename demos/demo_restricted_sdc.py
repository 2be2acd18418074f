"""Restricted-SDC: extend a pair by one or two dimensions so the
extension is SDC while the originals sit bitwise in the top-left corner.

The one-dimension construction borders the canonical form with entries
given in closed form by the chosen points, so the extended pencil's
eigenvalues land on them; the two-dimension variant places each point
twice through a conjugate pair of blocks and is usually far better
conditioned.
"""

import numpy as np

from sdckit.matcore import f_mat
from sdckit.qcqp import generate_instance
from sdckit.rsdc import rsdc1_construct, rsdc2_construct

print("=" * 70)
print("1. The 2x2 pair with pencil eigenvalues +-i")
print("=" * 70)
A, B = f_mat(2), np.diag([1.0, -1.0])
cert = rsdc1_construct(A, B, strategy="spread")
print("extended pair (one extra dimension):")
print(cert.A_tilde.a)
print(cert.B_tilde.a)
ev = np.sort(np.linalg.eigvals(np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)).real)
print(f"pencil eigenvalues now: {np.round(ev, 10)} (the chosen points)")
print(f"kappa(P) = {cert.kappa:.3f}")

print()
print("=" * 70)
print("2. Doubled placement with two extra dimensions")
print("=" * 70)
cert2 = rsdc2_construct(A, B, strategy="spread")
ev = np.sort(np.linalg.eigvals(np.linalg.solve(cert2.A_tilde.a, cert2.B_tilde.a)).real)
print(f"eigenvalues: {np.round(ev, 10)} (each point twice)")
print(f"kappa(P) = {cert2.kappa:.3f}")

print()
print("=" * 70)
print("3. Conditioning at experiment scale (n = 20, k = 3)")
print("=" * 70)
k1s, k2s = [], []
for seed in range(15):
    inst = generate_instance(20, 3, 100, seed=seed)
    k1s.append(rsdc1_construct(inst.A1.a, inst.A2.a).kappa)
    k2s.append(rsdc2_construct(inst.A1.a, inst.A2.a).kappa)
print(f"median kappa, one extra dimension:  {np.median(k1s):.4e}")
print(f"median kappa, two extra dimensions: {np.median(k2s):.4e}")
print("the two-dimension construction is typically much better conditioned,")
print("matching its observed advantage on larger problems")
