"""Exact homology and the link-vanishing (Cohen-Macaulay) tests.

All ranks are computed by exact elimination: GF(2) by bitmask XOR, GF(p) and
the rationals by one sparse kernel (mod p, or fraction-free over the
integers).  The projective plane shows why the field matters.
"""

import shellcert as sc
from shellcert import catalog

pentagon = catalog.pentagon_circle()
print("pentagon over GF(2):", sc.reduced_homology(pentagon, sc.GF2))
print("pentagon over Q:    ", sc.reduced_homology(pentagon, sc.QQ))

dunce = catalog.dunce_hat()
print("dunce hat over Q:   ", sc.reduced_homology(dunce, sc.QQ))
print("dunce hat CM over GF(2):", sc.is_cohen_macaulay(dunce, sc.GF2).ok)

# a non-CM complex, with the witness face and its offending link
glued = sc.alexander_dual(catalog.strong_gcd_witness())
rep = sc.is_cohen_macaulay(glued, sc.QQ)
print("glued triangles CM:", rep.ok, " witness:", rep.witness)
print("  the link there:  ", sc.link(glued, rep.witness.face).facet_members())

# characteristic 2 is special for the projective plane
# (Q ranks come from the GF(2) kernel unless 2-torsion can hide, as here in degrees 1 and 2)
pp = catalog.projective_plane()
print("projective plane over GF(2):", sc.reduced_homology(pp, sc.GF2))
print("projective plane over Q:    ", sc.reduced_homology(pp, sc.QQ))
print("projective plane CM over GF(2):", sc.is_cohen_macaulay(pp, sc.GF2).ok)
print("projective plane CM over Q:    ", sc.is_cohen_macaulay(pp, sc.QQ).ok)

# sequential Cohen-Macaulayness tests every pure skeleton; the dual of the
# ten-vertex catalog complex fails already in its top skeleton
gd = sc.restrict_to_support(sc.alexander_dual(catalog.gcd_violator()))
rep = sc.is_sequentially_cm(gd, sc.QQ)
print("violator dual sequentially CM:", rep.ok,
      " witness skeleton:", rep.witness.skeleton_dim,
      " face:", rep.witness.face, " degree:", rep.witness.degree)
