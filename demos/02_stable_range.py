"""Stabilization of the low-degree Betti numbers.

For fixed ``s`` the coefficient ``b_{2s}(Hilb^n)`` grows with ``n`` and
freezes once ``2s <= n``.  The frozen values have their own one-variable
generating series; this script shows the two side by side.
"""

from motivic_betti import hilb_poincare, stable_series

SMAX = 6
NMAX = 12

rows = [hilb_poincare(n) for n in range(NMAX + 1)]
stable = stable_series(2 * SMAX + 1)

header = "s\\n |" + "".join(f"{n:5d}" for n in range(NMAX + 1)) + "   stable"
print(header)
print("-" * len(header))
for s in range(SMAX + 1):
    cells = []
    for n in range(NMAX + 1):
        value = rows[n].betti(2 * s)
        mark = "*" if 2 * s <= n else " "
        cells.append(f"{value:4d}{mark}")
    print(f"{s:3d} |" + "".join(cells) + f"   {stable.coeff(2 * s):6d}")

print()
print("Starred entries are in the stable range 2s <= n; every one of them")
print("matches the stable column on the right.")
