"""Correspondence analysis, MCA, and the ridge-regularized MCA sweep.

Run with: python3 demos/03_correspondence_analysis.py
"""

import numpy as np

from gmdecomp import ca, disjunctive_coding, mca, rmca

rng = np.random.default_rng(7)

print("=== CA of a contingency table ===")
counts = rng.integers(1, 50, size=(6, 4)).astype(float)
res = ca(counts)
print("eigenvalues (inertia per dimension):", np.round(res.l_full, 5))
print("total inertia (= chi-square / N):", round(res.l_full.sum(), 5))

print("\n=== MCA of categorical survey data ===")
levels = [("low", "mid", "high"), ("yes", "no"), ("a", "b", "c", "d")]
table = [[rng.choice(lv) for lv in levels] for _ in range(40)]
tab = disjunctive_coding(table, variable_names=["income", "member", "region"])
print("indicator columns:", tab.level_labels)
res = mca(tab)
print("indicator columns:", tab.indicator.shape[1],
      "| variables:", len(tab.variable_spans),
      "| retained components:", res.n_retained)

print("\n=== regularized MCA: the omega sweep shrinks the solution ===")
for omega in (0, 1, 5, 25):
    r = rmca(tab, omega)
    print(f"omega={omega:<3} leading eigenvalue share="
          f"{r.l_full[0] / r.l_full.sum():.4f} "
          f"max |fj|={np.abs(r.fj).max():.4f}")
print("(omega = 0 matches standard MCA up to per-component scaling)")
