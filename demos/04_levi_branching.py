"""Restriction to subdiagrams (Levi branching).

Forgetting the edge colors outside a chosen vertex set turns a crystal
into one over the induced subdiagram; decomposing it there gives the
branching rule.  The framing/restriction dictionaries predict how the
combinatorial labels transform.

Run as:  python3 demos/04_levi_branching.py
"""

from crystal_forge import branch, build_crystal, dynkin, levi_maps
from crystal_forge.dimensions import dominance_vector
from crystal_forge.dynkin import induced_subdiagram

a2 = dynkin("A", 2)
d4 = dynkin("D", 4)

print("== The 3-dimensional A2 crystal restricted to one vertex ==")
dec, sub = branch(build_crystal(a2, (1, 0)), [0])
print(f"  over {sub.label}:", dict(dec.summands))

print("\n== D4 adjoint (28 vertices) restricted to the A3 spine ==")
dec, sub = branch(build_crystal(d4, (0, 1, 0, 0)), [1, 2, 3])
print(f"  over {sub.label}:")
for w, m in sorted(dec.summands.items(), reverse=True):
    print(f"    {w}: {m}")
total = sum(m * sub.weyl_dimension(w) for w, m in dec.summands.items())
print("  cardinality check:", total, "== 28")

print("\n== Branching to the empty diagram counts vertices ==")
dec, sub = branch(build_crystal(a2, (1, 1)), [])
print("  summands:", dict(dec.summands))

print("\n== The dimension dictionaries match the weight function ==")
d, v, keep = (2, 0, 1, 0), (1, 1, 0, 2), [0, 2, 3]
framing, rho_v = levi_maps(d4, d, v, keep)
sub, kept = induced_subdiagram(d4, keep)
wt = dominance_vector(d4, d, v)
lhs = tuple(wt[i] for i in kept)
rhs = dominance_vector(sub, framing, rho_v)
print("  restricted weight:", lhs)
print("  via dictionaries: ", rhs)
