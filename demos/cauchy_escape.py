"""A distance-Cauchy sequence that leaves every compact set.

The ladder's marked points, joined by their embedded disc maps, have
certified consecutive distances U(nu) that sum geometrically, so the
sequence is Cauchy for the Kobayashi distance; meanwhile the Euclidean norms
also shrink to 0, i.e. the points escape to the boundary point at the
origin.  The ambient here is the bidisc, which contains every segment.
"""

from koblab import DyadicLadder, cauchy_table, unit_bidisc

table = cauchy_table(unit_bidisc(), DyadicLadder(20), n=2, margin=1e-3)

print("nu   U(nu)           T(nu) = certified tail   ||x(nu)||")
for row in table.rows:
    print(f"{row.nu:>2}   {row.upper:.12f}  {row.tail:.12f}           {row.norm:.3e}")

print()
print("T decreases to 0 while the norms decrease to 0: the sequence is")
print("Cauchy in the metric but converges to a boundary point, not an")
print("interior one.")
print()
print("ratio certificate used for the tail:", table.ratio)
print("`koblab cauchy-demo --N 20 --out out/` writes these rows to cauchy_table.csv")
