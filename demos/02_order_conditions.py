"""The three order conditions: shelling, weak shelling, strong gcd.

Checkers validate a given permutation and return a replayable witness on
failure; finders decide existence by depth-first search over prefix sets and
return a certificate that the matching checker accepts.
"""

import shellcert as sc
from shellcert import catalog

# a shelling order of two triangles, then a complex with none
u = sc.VertexSet.of(range(1, 7))
c = sc.from_facets(u, [{1, 2, 3}, {2, 3, 4}])
cert = sc.find_shelling_order(c)
print("two triangles, shelling order:", cert.members())

glued = sc.from_facets(u, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
print("glued triangles shellable:", sc.find_shelling_order(glued) is not None)
report = sc.check_shelling_order(glued, list(glued.facets))
print("  witness: fails at position", report.witness.step,
      "needing pure dimension", report.witness.required_dim,
      "where it meets the earlier facets in", report.witness.intersection)

# weak shelling: only facet pairs covering the whole universe constrain it
triangle_boundary = sc.from_facets(sc.VertexSet.of(range(1, 4)),
                                   [{1, 2}, {2, 3}, {1, 3}])
print("triangle boundary weakly shellable:",
      sc.find_weak_shelling_order(triangle_boundary) is not None)

dunce = catalog.dunce_hat()
print("dunce hat trivially weakly shellable:",
      sc.is_trivially_weakly_shellable(dunce),
      "(%d vertices >= 2*%d + 3)" % (dunce.universe.n, dunce.dim))
print("dunce hat shellable:", sc.find_shelling_order(dunce) is not None)

# strong gcd-orders live on the minimal non-faces and are decided through
# the dual: reverse a weak shelling order of the dual and take complements
w = catalog.strong_gcd_witness()
gcd_cert = sc.find_strong_gcd_order(w)
print("gcd witness order:", gcd_cert.members())
print("  validates:", sc.check_strong_gcd_order(w, gcd_cert).ok)

violator = catalog.gcd_violator()
print("gcd violator has a strong gcd-order:",
      sc.find_strong_gcd_order(violator) is not None)
