"""Star-equation classes, weighted and one-sided core inverses,
(b,c) inverses and hybrids, and (p,q)/Bott-Duffin inverses."""

from .errors import (PreconditionError, UnsupportedInvolutionError,
                     VerificationError)
from .geninv import (InverseReport, any_inner, core_inverse,
                     dual_core_inverse, enumerate_inverse_set)
from .ideals import LEFT, RIGHT, annihilator, principal
from .prescribed import IdealConstraints, outer_with
from .rings import inverse_of_unit, is_invertible

STAR_CLASS_EQS = {
    "13": ("1", "3"),
    "14": ("1", "4"),
    "134": ("1", "3", "4"),
    "136": ("1", "3", "6"),
    "148": ("1", "4", "8"),
    "137": ("1", "3", "7"),
    "149": ("1", "4", "9"),
}


def _require_involution(ring, what):
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "%s needs an involution; %s has none" % (what, ring.short_name))


def star_class_set(a, tag):
    """All members of the class on a finite ring, canonical order."""
    if tag not in STAR_CLASS_EQS:
        raise PreconditionError("unknown star class %r" % tag)
    _require_involution(a.ring, "star class %s" % tag)
    return enumerate_inverse_set(a, STAR_CLASS_EQS[tag])


def _require_weight(w, name):
    ring = w.ring
    _require_involution(ring, "weight %s" % name)
    if not is_invertible(w):
        raise PreconditionError("weight %s is not invertible" % name)
    if w.star != w:
        raise PreconditionError("weight %s is not symmetric" % name)


# -- weighted Moore-Penrose ---------------------------------------------

def weighted_mp_ideals(a, e, f):
    """(S, T, S', T') for the (e,f) Moore-Penrose inverse."""
    astar = a.star
    finv = inverse_of_unit(f)
    s = principal(finv * astar, RIGHT)
    t = annihilator(astar * e, RIGHT)
    sp = principal(astar * e, LEFT)
    tp = annihilator(finv * astar, LEFT)
    return s, t, sp, tp


def weighted_mp(a, e, f):
    """The (e,f) Moore-Penrose inverse a_dagger_{e,f}, or none."""
    _require_weight(e, "e")
    _require_weight(f, "f")
    cons = IdealConstraints.of(("S", "T"), *weighted_mp_ideals(a, e, f))
    rep = outer_with(a, cons, reflexive=True)
    if not rep.exists:
        return InverseReport("ef-mp", False, reason=rep.reason)
    x = rep.value
    eax, fxa = e * a * x, f * x * a
    if eax.star != eax:
        return InverseReport("ef-mp", False,
                             reason="candidate fails (eax)* = eax")
    if fxa.star != fxa:
        return InverseReport("ef-mp", False,
                             reason="candidate fails (fxa)* = fxa")
    return InverseReport("ef-mp", True, x, satisfied=("1", "2"))


# -- e-core and f-dual core ---------------------------------------------

def e_core_ideals(a, e):
    """(S, T, S', T') for the e-core inverse."""
    ase = a.star * e
    return (principal(a, RIGHT), annihilator(ase, RIGHT),
            principal(ase, LEFT), annihilator(a, LEFT))


def f_dual_core_ideals(a, f):
    """(S, T, S', T') for the f-dual core inverse."""
    fas = inverse_of_unit(f) * a.star
    return (principal(fas, RIGHT), annihilator(a, RIGHT),
            principal(a, LEFT), annihilator(fas, LEFT))


def _core_like(name, a, ideals):
    """The reflexive inverse with xR = S and rann(x) = T, which has Rx = S'
    (the e-core and f-dual core inverses)."""
    rep = outer_with(a, IdealConstraints.of(("S", "T"), *ideals),
                     reflexive=True)
    if not rep.exists:
        return InverseReport(name, False, reason=rep.reason)
    x = rep.value
    # outer_with has checked xR = S.  Rx = S' follows: rann(x) = T =
    # rann(g) with S' = Rg, and x and g are regular, so Rx = lann(rann(x))
    # = lann(rann(g)) = Rg.
    if principal(x, LEFT) != ideals[2]:
        raise VerificationError("%s candidate fails Rx = S'" % name)
    return InverseReport(name, True, x, satisfied=("1", "2"))


def e_core(a, e):
    """The e-core inverse: x in a{1}, xR = aR, Rx = Ra*e."""
    _require_weight(e, "e")
    return _core_like("e-core", a, e_core_ideals(a, e))


def f_dual_core(a, f):
    """The f-dual core inverse: x in a{1}, xR = f^{-1}a*R, Rx = Ra."""
    _require_weight(f, "f")
    return _core_like("f-dual-core", a, f_dual_core_ideals(a, f))


# -- w-core and v-dual core ---------------------------------------------

def w_core(a, w):
    """The w-core inverse: x = (aw)^core with aR <= awR."""
    _require_involution(a.ring, "w-core inverse")
    b = a * w
    rep = core_inverse(b)
    if not rep.exists:
        return InverseReport("w-core", False,
                             reason="(aw)^core does not exist: %s"
                             % rep.reason)
    if not principal(a, RIGHT).is_subideal_of(principal(b, RIGHT)):
        return InverseReport("w-core", False,
                             reason="aR is not contained in awR")
    x = rep.value
    bx = b * x
    if bx.star != bx or x * b * a != a or b * x * x != x:
        raise VerificationError("w-core candidate fails its equations")
    return InverseReport("w-core", True, x, satisfied=("1", "2"))


def v_dual_core(a, v):
    """The v-dual core inverse: x = (va)_core with Ra <= Rva."""
    _require_involution(a.ring, "v-dual core inverse")
    c = v * a
    rep = dual_core_inverse(c)
    if not rep.exists:
        return InverseReport("v-dual-core", False,
                             reason="(va)_core does not exist: %s"
                             % rep.reason)
    if not principal(a, LEFT).is_subideal_of(principal(c, LEFT)):
        return InverseReport("v-dual-core", False,
                             reason="Ra is not contained in Rva")
    x = rep.value
    xc = x * c
    if xc.star != xc or a * v * a * x != a or x * x * c != x:
        raise VerificationError("v-dual core candidate fails its equations")
    return InverseReport("v-dual-core", True, x, satisfied=("1", "2"))


# -- right w-core and left v-dual core (set-valued) ----------------------

def right_w_core_member(a, w, x):
    """Is x a right w-core inverse (awxa=a, (awx)*=awx, awx^2=x)?"""
    _require_involution(a.ring, "right w-core inverse")
    bx = a * w * x
    return bx * a == a and bx.star == bx and bx * x == x


def right_w_core(a, w):
    """Right w-core inverses; the full set on finite rings, a witness
    via (aw)^core on infinite rings (a right w-core inverse exists iff
    (aw)^core does and aR <= awR)."""
    ring = a.ring
    _require_involution(ring, "right w-core inverse")
    b = a * w
    if ring.finite:
        # a member solves the linear awxa = a and lies in awR (x =
        # awx x), where (1 - e)x = 0 for the idempotent e = aw (aw)^(1);
        # the member test, the one definition of the set, picks them out
        f = ring.one - b * any_inner(b)
        space = (ring.table or ring).linear_solutions([
            (lambda x: b * x * a, a), (lambda x: f * x, ring.zero)])
        members = [x for x in space or ()
                   if right_w_core_member(a, w, x)]
        if not members:
            return InverseReport("right-w-core", False,
                                 reason="no right w-core inverse exists")
        return InverseReport("right-w-core", True, members[0],
                             extra={"members": members})
    if not principal(a, RIGHT).is_subideal_of(principal(b, RIGHT)):
        return InverseReport("right-w-core", False,
                             reason="aR is not contained in awR")
    rep = core_inverse(b)
    if not rep.exists:
        return InverseReport(
            "right-w-core", False,
            reason="(aw){1,3,7} is empty: %s" % rep.reason)
    x = rep.value
    if not right_w_core_member(a, w, x):  # pragma: no cover
        raise VerificationError("witness fails the right w-core equations")
    return InverseReport("right-w-core", True, x)


def left_v_dual_core_member(a, v, x):
    """Is x a left v-dual core inverse (axva=a, (xva)*=xva, x^2va=x)?"""
    _require_involution(a.ring, "left v-dual core inverse")
    xc = x * v * a
    return a * xc == a and xc.star == xc and x * xc == x


def left_v_dual_core(a, v):
    """Left v-dual core inverses; set on finite rings, witness otherwise."""
    ring = a.ring
    _require_involution(ring, "left v-dual core inverse")
    c = v * a
    if ring.finite:
        # a member solves the linear axva = a and lies in Rva (x =
        # x xva), where x(1 - e) = 0 for the idempotent e = (va)^(1) va
        f = ring.one - any_inner(c) * c
        space = (ring.table or ring).linear_solutions([
            (lambda x: a * x * c, a), (lambda x: x * f, ring.zero)])
        members = [x for x in space or ()
                   if left_v_dual_core_member(a, v, x)]
        if not members:
            return InverseReport("left-v-dual-core", False,
                                 reason="no left v-dual core inverse exists")
        return InverseReport("left-v-dual-core", True, members[0],
                             extra={"members": members})
    if not principal(a, LEFT).is_subideal_of(principal(c, LEFT)):
        return InverseReport("left-v-dual-core", False,
                             reason="Ra is not contained in Rva")
    rep = dual_core_inverse(c)
    if not rep.exists:
        return InverseReport(
            "left-v-dual-core", False,
            reason="(va){1,4,9} is empty: %s" % rep.reason)
    x = rep.value
    if not left_v_dual_core_member(a, v, x):  # pragma: no cover
        raise VerificationError(
            "witness fails the left v-dual core equations")
    return InverseReport("left-v-dual-core", True, x)


# -- (b,c) inverses ------------------------------------------------------

BC_FLAVORS = ("full", "right_hybrid", "left_hybrid", "annihilator")


def _bc_constraints(b, c, flavor):
    if flavor == "full":
        return IdealConstraints(right_principal=principal(b, RIGHT),
                                left_principal=principal(c, LEFT))
    if flavor == "right_hybrid":
        return IdealConstraints(right_principal=principal(b, RIGHT),
                                right_annihilator=annihilator(c, RIGHT))
    if flavor == "left_hybrid":
        return IdealConstraints(left_principal=principal(c, LEFT),
                                left_annihilator=annihilator(b, LEFT))
    if flavor == "annihilator":
        return IdealConstraints(left_annihilator=annihilator(b, LEFT),
                                right_annihilator=annihilator(c, RIGHT))
    raise PreconditionError("unknown (b,c) flavor %r" % flavor)


def bc_invertibility_hypotheses(a, b, c):
    """(rann(ab) = 0 and cR = R, lann(ca) = 0 and Rb = R); under either,
    cab is invertible and b (cab)^{-1} c is the matching hybrid inverse."""
    return (annihilator(a * b, RIGHT).is_zero()
            and principal(c, RIGHT).is_full(),
            annihilator(c * a, LEFT).is_zero()
            and principal(b, LEFT).is_full())


def bc_flavor_inverse(a, b, c, flavor):
    """The (b,c) inverse of a in one flavor, without the extras that
    bc_inverse adds."""
    rep = outer_with(a, _bc_constraints(b, c, flavor), reflexive=False)
    return InverseReport("bc-" + flavor.replace("_", "-"), rep.exists,
                         rep.value, satisfied=rep.satisfied,
                         reason=rep.reason)


def bc_inverse(a, b, c, flavor="full"):
    """The (b,c) inverse of a in the requested flavor, with the extras
    shared by every flavor: the closed form b (cab)^(1) c when cab is
    regular, and cab_invertible when an invertibility hypothesis holds
    and cab is invertible."""
    out = bc_flavor_inverse(a, b, c, flavor)
    cab = c * a * b
    g = any_inner(cab)
    if g is not None:
        out.extra["closed_form"] = b * g * c
    if any(bc_invertibility_hypotheses(a, b, c)) and is_invertible(cab):
        out.extra["cab_invertible"] = True
    return out


# -- (p,q) inverses ------------------------------------------------------

def _require_idempotent(p, name):
    if p * p != p:
        raise PreconditionError("%s is not idempotent" % name)


def image_kernel_inverse(a, p, q):
    """a^(2) with xR = pR and rann(x) = qR."""
    _require_idempotent(p, "p")
    _require_idempotent(q, "q")
    cons = IdealConstraints(right_principal=principal(p, RIGHT),
                            right_annihilator=principal(q, RIGHT))
    rep = outer_with(a, cons, reflexive=False)
    return InverseReport("pq-image-kernel", rep.exists, rep.value,
                         satisfied=rep.satisfied, reason=rep.reason)


def djordjevic_wei_inverse(a, p, q):
    """x in a{2} with xa = p and ax = 1 - q, or none."""
    ik = image_kernel_inverse(a, p, q)
    if not ik.exists:
        return InverseReport("pq-djordjevic-wei", False, reason=ik.reason)
    x = ik.value
    if x * a != p or a * x != a.ring.one - q:
        return InverseReport(
            "pq-djordjevic-wei", False,
            reason="the image-kernel inverse does not realize xa = p "
                   "and ax = 1 - q")
    return InverseReport("pq-djordjevic-wei", True, x, satisfied=("2",))


def bott_duffin_inverse(a, p, q=None):
    """Bott-Duffin p inverse p(1-p+ap)^{-1}, or the (p,q) variant."""
    _require_idempotent(p, "p")
    ring = a.ring
    if q is None:
        u = ring.one - p + a * p
        if not is_invertible(u):
            return InverseReport("pq-bott-duffin", False,
                                 reason="1 - p + ap is not invertible")
        x = p * inverse_of_unit(u)
        _check_bott_duffin_equations(a, p, p, x)
        return InverseReport("pq-bott-duffin", True, x)
    _require_idempotent(q, "q")
    ik = image_kernel_inverse(a, p, ring.one - q)
    if not ik.exists:
        return InverseReport("pq-bott-duffin", False, reason=ik.reason)
    x = ik.value
    _check_bott_duffin_equations(a, p, q, x)
    return InverseReport("pq-bott-duffin", True, x)


def _check_bott_duffin_equations(a, p, q, x):
    if not (p * x == x and x * q == x and x * a * p == p
            and q * a * x == q):
        raise VerificationError(
            "candidate fails the Bott-Duffin (p,q) equations")


PQ_FLAVORS = ("djordjevic_wei", "image_kernel", "bott_duffin")


def pq_inverse(a, p, q=None, flavor="image_kernel"):
    if flavor == "image_kernel":
        return image_kernel_inverse(a, p, q)
    if flavor == "djordjevic_wei":
        return djordjevic_wei_inverse(a, p, q)
    if flavor == "bott_duffin":
        return bott_duffin_inverse(a, p, q)
    raise PreconditionError("unknown (p,q) flavor %r" % flavor)
