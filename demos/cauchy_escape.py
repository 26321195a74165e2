"""The ladder's Cauchy table: summable certified steps, norms going to 0.

The ladder's marked points, joined by their embedded disc maps, have
certified consecutive distances U(nu) that sum geometrically, so the
sequence is Cauchy for the Kobayashi distance, and their Euclidean norms
shrink to 0.  The ambient here is the bidisc, which contains every segment;
there the limit, the origin, is an interior point, so this run certifies
the summable steps and the shrinking norms, not an escape to the boundary.
"""

from koblab import DyadicLadder, cauchy_table, unit_bidisc

table = cauchy_table(unit_bidisc(), DyadicLadder(20), n=2, margin=1e-3)

print("nu   U(nu)           T(nu) = certified tail   ||x(nu)||")
for row in table.rows:
    print(f"{row.nu:>2}   {row.upper:.12f}  {row.tail:.12f}           {row.norm:.3e}")

print()
print("T decreases to 0 while the norms decrease to 0: the certified steps")
print("are summable, so the sequence is Cauchy in the metric, and its points")
print("approach the origin (an interior point of the bidisc).")
print()
print("ratio certificate used for the tail:", table.ratio)
print("`koblab cauchy-demo --N 20 --out out/` writes these rows to cauchy_table.csv")
