"""The dyadic ladder, exactly.

Marked points x(nu) = (a, a^2) sit on complex segments that consecutive
affine disc maps thread together; every identity is checked in rational
arithmetic, and the hyperbolic distances between the disc parameters form a
summable series with a geometric tail certificate.
"""

from koblab import DyadicLadder, base3_mutated_ladder, chain_term_table, verify_ladder

ladder = DyadicLadder(40)

print("== marked points (exact) ==")
for nu in (1, 2, 3):
    print(f"  x({nu}) =", ladder.point(nu))

print()
print("== disc map hits consecutive points ==")
zin, zout = ladder.disc_parameters(1)
print("  parameters:", zin, zout, " (the dyadic values b(1), b(1)/4)")
print("  map(zin)  =", ladder.segment_map_exact(1, zin), "= x(1)")
print("  map(zout) =", ladder.segment_map_exact(1, zout), "= x(2)")

print()
print("== exact verification at depth 40 ==")
report = verify_ladder(ladder)
for check in report.checks:
    print(f"  [{check.item}] {check.name}: {'ok' if check.passed else 'FAIL ' + check.witness}")

print()
print("== fault injection: base-3 scales ==")
mutated = verify_ladder(base3_mutated_ladder(15))
print("  items flagged:", mutated.failed_items(), " (membership still holds, the")
print("  dyadic parameter forms do not)")

print()
print("== hyperbolic term table ==")
table = chain_term_table(ladder)
print("  nu  term            partial sum     tail bound")
for nu in (1, 2, 3, 10, 20, 40):
    print(
        f"  {nu:>2}  {table.term(nu):.12f}  {table.partial_sum(nu):.12f}  "
        f"{table.tail_bounds[nu - 1]:.3e}"
    )
print("  ratio certificate:", table.ratio)
print("  certified tail from nu=10:", table.tail_from(10))
print("  `koblab verify-ladder --N 40 --out out/` writes every row to chain_table.csv")
