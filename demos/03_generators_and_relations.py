"""Monomial counting for the tautological generator system.

The moduli Chow ring has a minimal generating set of ``3d - 7`` classes:
two in degree 1 and three in each degree ``2 .. d-2``.  Counting monomials
in those generators and comparing with the Betti numbers measures how free
the presentation is: no relations through degree ``d - 1``, then exactly
three in degree ``d``.
"""

from motivic_betti import (
    generator_system,
    m_betti_table,
    monomial_count_bruteforce,
    monomial_series,
    stable_series,
)

for d in (5, 6, 7):
    degrees = generator_system(d)
    print(f"d = {d}: {sum(degrees.values())} generators, degree multiset "
          f"{dict(sorted(degrees.items()))}")
print()

d = 6
chi = -d - 1
print(f"Monomial counts vs. Betti numbers at d = {d}")
print("=" * 64)
print(f"{'i':>3} {'a_2i (series)':>14} {'a_2i (enum)':>12} {'stable':>8} "
      f"{'b_2i(M)':>8} {'relations':>10}")
table = m_betti_table(d, chi)
monomials = monomial_series(d, 2 * d + 1)
stable = stable_series(2 * d + 1)
for i in range(d + 1):
    a_series = monomials.coeff(2 * i)
    a_enum = monomial_count_bruteforce(generator_system(d), i)
    b = table.value(i)
    print(f"{i:>3} {a_series:>14} {a_enum:>12} {stable.coeff(2 * i):>8} "
          f"{b:>8} {a_series - b:>10}")

print()
print("The monomial count tracks the stable values until degree d-1, where")
print("it dips by 3 -- exactly cancelling the -3 Betti correction, so no")
print("relation appears there.  In degree d the count dips by 9 against a")
print("-12 correction, leaving the three independent relations.")
