"""Walk the built-in symbol gallery and classify each map.

Every analytic self-map of the disc that is not the identity falls into one
of four dynamical classes: elliptic automorphism (conjugate to a rotation),
interior attracting point, or a boundary attracting point of hyperbolic
(derivative < 1) or parabolic (derivative = 1) type.  The class alone
already decides most of the ergodic behaviour of the composition operator.
"""

import disc_ergodics as de

print(f"{'symbol':12s}  {'class':24s}  details")
print("-" * 72)
for name in de.GALLERY_NAMES:
    s = de.gallery_symbol(name)
    cls = de.classify(s)
    if isinstance(cls, de.EllipticAutomorphism):
        period = cls.period if cls.periodic else "aperiodic"
        detail = f"fixed point {cls.fixed_point:.3g}, multiplier {cls.multiplier:.6g}, period {period}"
    elif isinstance(cls, de.InteriorDW):
        detail = f"attractor {cls.z0:.3g}, multiplier modulus {cls.multiplier_modulus:.3g}"
    elif isinstance(cls, de.Identity):
        detail = ""
    else:
        detail = f"attractor {cls.z0:.3g}, angular derivative {cls.angular_derivative:.6g}"
    print(f"{name:12s}  {cls.kind:24s}  {detail}")

print()
print("Fixed points of the hyperbolic automorphism (2z+1)/(z+2):")
hyp = de.gallery_symbol("hyperbolic")
for p, mult in de.moebius_fixed_points(hyp):
    deriv = abs(complex(hyp.derivative(p)))
    side = "attracting" if deriv < 1 else "repelling"
    print(f"  z = {p:+.3g}   |phi'| = {deriv:.4g}   ({side}, multiplicity {mult})")

print()
print("Where each non-automorphism Moebius map sends the closed disc, read from")
print("the evidence of its verdict on the disc algebra:")
for name in ("z_half", "tangent"):
    evidence = dict(de.verdict(de.gallery_symbol(name), "A").evidence)
    if "image_radius_bound" in evidence:
        where = f"strictly inside the disc: |phi| <= {evidence['image_radius_bound']:.3g}"
    else:
        where = (f"tangent to the circle at the attractor {evidence['z0']:.3g}: "
                 f"tangency gap {evidence['tangency_gap']:.3g}")
    print(f"  {name:8s} -> {where}")
