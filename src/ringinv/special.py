"""Star-equation classes, weighted and one-sided core inverses,
(b,c) inverses and hybrids, and (p,q)/Bott-Duffin inverses."""

from .errors import (NotEnumerableError, PreconditionError,
                     UnsupportedInvolutionError, VerificationError)
from .geninv import (InverseReport, any_inner, core_inverse,
                     dual_core_inverse, iter_inverse_set, satisfies)
from .ideals import LEFT, RIGHT, annihilator, principal
from .prescribed import IdealConstraints, outer_with
from .projectors import phi_equals_projector as phieq
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

# classes whose projector conditions are only sufficient for membership
_SUFFICIENT_ONLY = ("136", "148")


def _require_involution(ring, what):
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "%s needs an involution; %s has none" % (what, ring.short_name))


def _star_class_clauses(a, x, tag):
    """The projector conditions attached to the class, by label."""
    ax, xa = a * x, x * a
    astar = a.star
    ar, asr = principal(a, RIGHT), principal(astar, RIGHT)
    ra, ras = principal(a, LEFT), principal(astar, LEFT)
    rann_a, rann_as = annihilator(a, RIGHT), annihilator(astar, RIGHT)
    lann_a, lann_as = annihilator(a, LEFT), annihilator(astar, LEFT)
    c13 = {
        "phi_ax=rho_{aR,rann(a*)}": phieq(ax, ar, rann_as),
        "ax_phi=rho_{Ra*,lann(a)}": phieq(ax, ras, lann_a),
    }
    c14 = {
        "phi_xa=rho_{a*R,rann(a)}": phieq(xa, asr, rann_a),
        "xa_phi=rho_{Ra,lann(a*)}": phieq(xa, ra, lann_as),
    }
    if tag == "13":
        return c13
    if tag == "14":
        return c14
    if tag == "134":
        out = {}
        for la, va in c13.items():
            for lb, vb in c14.items():
                out["%s+%s" % (la, lb)] = va and vb
        return out
    if tag == "136":
        c6 = {
            "phi_xa=rho_{aR,rann(a)}": phieq(xa, ar, rann_a),
            "xa_phi=rho_{Ra,lann(a)}": phieq(xa, ra, lann_a),
        }
        return {"%s+%s" % (la, lb): va and vb
                for la, va in c13.items() for lb, vb in c6.items()}
    if tag == "148":
        c8 = {
            "phi_ax=rho_{aR,rann(a)}": phieq(ax, ar, rann_a),
            "ax_phi=rho_{Ra,lann(a)}": phieq(ax, ra, lann_a),
        }
        return {"%s+%s" % (la, lb): va and vb
                for la, va in c8.items() for lb, vb in c14.items()}
    if tag == "137":
        return {
            "phi_ax=rho_{aR,rann(a*)}+x_in_aR":
                c13["phi_ax=rho_{aR,rann(a*)}"] and ar.contains(x),
            "ax_phi=rho_{Ra*,lann(a)}+lann(a)<=lann(x)":
                c13["ax_phi=rho_{Ra*,lann(a)}"]
                and lann_a.is_subideal_of(annihilator(x, LEFT)),
        }
    if tag == "149":
        return {
            "phi_xa=rho_{a*R,rann(a)}+rann(a)<=rann(x)":
                c14["phi_xa=rho_{a*R,rann(a)}"]
                and rann_a.is_subideal_of(annihilator(x, RIGHT)),
            "xa_phi=rho_{Ra,lann(a*)}+x_in_Ra":
                c14["xa_phi=rho_{Ra,lann(a*)}"] and ra.contains(x),
        }
    raise PreconditionError("unknown star class %r" % tag)


def star_class_membership(a, x, tag):
    """(member?, clauses): equations and projector conditions, reconciled.

    For the {1,3,6} and {1,4,8} classes the projector conditions are only
    sufficient, so clauses may be False for a member; any True clause
    still forces membership.
    """
    if tag not in STAR_CLASS_EQS:
        raise PreconditionError("unknown star class %r" % tag)
    _require_involution(a.ring, "star class %s" % tag)
    member = satisfies(a, x, STAR_CLASS_EQS[tag])
    clauses = _star_class_clauses(a, x, tag)
    if tag in _SUFFICIENT_ONLY:
        if any(clauses.values()) and not member:
            raise VerificationError(
                "a sufficient projector condition held for a non-member")
    else:
        values = {member} | set(clauses.values())
        if len(values) > 1:
            raise VerificationError(
                "projector conditions disagree with the equations: %r"
                % clauses)
    return member, clauses


def star_class_set(a, tag):
    """All members of the class on a finite ring, canonical order."""
    if tag not in STAR_CLASS_EQS:
        raise PreconditionError("unknown star class %r" % tag)
    _require_involution(a.ring, "star class %s" % tag)
    return list(iter_inverse_set(a, STAR_CLASS_EQS[tag]))


def star_class_identity_report(a, tag):
    """Compare the class with its {1}-inverse ideal descriptions.

    Returns the class members, the described set(s), and whether they are
    equal; for {1,3,6}/{1,4,8} only containment of the described set is
    asserted and equality is recorded.
    """
    ring = a.ring
    _require_involution(ring, "star class %s" % tag)
    if not ring.finite:
        raise NotEnumerableError("set identities need a finite ring")
    astar = a.star
    ar, asr = principal(a, RIGHT), principal(astar, RIGHT)
    ra, ras = principal(a, LEFT), principal(astar, LEFT)
    rann_a, rann_as = annihilator(a, RIGHT), annihilator(astar, RIGHT)
    lann_a, lann_as = annihilator(a, LEFT), annihilator(astar, LEFT)

    def ideal_desc(x):
        ax, xa = a * x, x * a
        facts = {
            "xaR=aR": principal(xa, RIGHT) == ar,
            "xaR=a*R": principal(xa, RIGHT) == asr,
            "rann(ax)=rann(a)": annihilator(ax, RIGHT) == rann_a,
            "rann(ax)=rann(a*)": annihilator(ax, RIGHT) == rann_as,
            "Rax=Ra": principal(ax, LEFT) == ra,
            "Rax=Ra*": principal(ax, LEFT) == ras,
            "lann(xa)=lann(a)": annihilator(xa, LEFT) == lann_a,
            "lann(xa)=lann(a*)": annihilator(xa, LEFT) == lann_as,
            "x_in_aR": ar.contains(x),
            "x_in_Ra": ra.contains(x),
            "lann(a)<=lann(x)":
                lann_a.is_subideal_of(annihilator(x, LEFT)),
            "rann(a)<=rann(x)":
                rann_a.is_subideal_of(annihilator(x, RIGHT)),
        }
        return facts

    variants = {
        "13": (["rann(ax)=rann(a*)"], ["Rax=Ra*"]),
        "14": (["xaR=a*R"], ["lann(xa)=lann(a*)"]),
        "134": (["xaR=a*R", "rann(ax)=rann(a*)"],
                ["lann(xa)=lann(a*)", "rann(ax)=rann(a*)"],
                ["xaR=a*R", "Rax=Ra*"],
                ["Rax=Ra*", "lann(xa)=lann(a*)"]),
        "136": (["xaR=aR", "rann(ax)=rann(a*)"],
                ["lann(xa)=lann(a)", "rann(ax)=rann(a*)"],
                ["xaR=aR", "Rax=Ra*"],
                ["Rax=Ra*", "lann(xa)=lann(a)"]),
        "148": (["xaR=a*R", "rann(ax)=rann(a)"],
                ["lann(xa)=lann(a*)", "rann(ax)=rann(a)"],
                ["xaR=a*R", "Rax=Ra"],
                ["Rax=Ra", "lann(xa)=lann(a*)"]),
        "137": (["rann(ax)=rann(a*)", "x_in_aR"],
                ["Rax=Ra*", "lann(a)<=lann(x)"]),
        "149": (["xaR=a*R", "rann(a)<=rann(x)"],
                ["lann(xa)=lann(a*)", "x_in_Ra"]),
    }[tag]
    members = star_class_set(a, tag)
    inners = [(x, ideal_desc(x)) for x in ring.elements()
              if satisfies(a, x, ("1",))]

    def described_by(variant):
        return [x for x, desc in inners if all(desc[f] for f in variant)]

    described = described_by(variants[0])
    # the remaining variants must describe the same set
    for variant in variants[1:]:
        if described_by(variant) != described:
            raise VerificationError(
                "equivalent ideal descriptions of class %s disagree" % tag)
    superset = all(x in members for x in described) \
        if tag in _SUFFICIENT_ONLY else None
    if tag in _SUFFICIENT_ONLY and not superset:
        raise VerificationError(
            "described set escapes the class %s" % tag)
    return {
        "members": members,
        "described": described,
        "equal": members == described,
        "sufficient_only": tag in _SUFFICIENT_ONLY,
    }


# -- generic condition grids --------------------------------------------

def condition_grid(target, *clause_lists):
    """Evaluate grid clause lists against a target truth value.

    Each list is a dict label -> bool; the theorem contract is
    target <=> (some clause in every list holds).  Violation raises
    VerificationError; returns the merged report.
    """
    combined = all(any(lst.values()) for lst in clause_lists)
    if combined != target:
        raise VerificationError(
            "condition grid disagrees with the target: %r vs %r"
            % (target, clause_lists))
    report = {"target": target}
    for i, lst in enumerate(clause_lists):
        for label, value in lst.items():
            report["%d:%s" % (i, label)] = value
    return report


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
    s, t, _, _ = weighted_mp_ideals(a, e, f)
    rep = outer_with(a, IdealConstraints(right_principal=s,
                                         right_annihilator=t),
                     reflexive=True)
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


def weighted_mp_conditions(a, e, f, x, rep=None):
    """The projector/side condition grid for x = a_dagger_{e,f}."""
    s, t, sp, tp = weighted_mp_ideals(a, e, f)
    ax, xa = a * x, x * a
    ar, ra = principal(a, RIGHT), principal(a, LEFT)
    rann_a, lann_a = annihilator(a, RIGHT), annihilator(a, LEFT)
    proj = {
        "phi_ax+phi_xa": phieq(ax, ar, t) and phieq(xa, s, rann_a),
        "ax_phi+xa_phi": phieq(ax, sp, lann_a) and phieq(xa, ra, tp),
        "phi_ax+xa_phi": phieq(ax, ar, t) and phieq(xa, ra, tp),
        "ax_phi+phi_xa": phieq(ax, sp, lann_a) and phieq(xa, s, rann_a),
    }
    side = {
        "xR<=S": principal(x, RIGHT).is_subideal_of(s),
        "lann(S)<=lann(x)": tp.is_subideal_of(annihilator(x, LEFT)),
        "Rx<=S'": principal(x, LEFT).is_subideal_of(sp),
        "T<=rann(x)": t.is_subideal_of(annihilator(x, RIGHT)),
    }
    if rep is None:
        rep = weighted_mp(a, e, f)
    target = rep.exists and rep.value == x
    return condition_grid(target, proj, side)


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


def _core_like(name, a, ideals, sides):
    """The reflexive inverse with xR = S and rann(x) = T, when it also has
    Rx = S' (the e-core and f-dual core inverses)."""
    s, t, sp, _ = ideals
    rep = outer_with(a, IdealConstraints(right_principal=s,
                                         right_annihilator=t),
                     reflexive=True)
    if not rep.exists:
        return InverseReport(name, False, reason=rep.reason)
    x = rep.value
    if principal(x, RIGHT) != s or principal(x, LEFT) != sp:
        return InverseReport(name, False,
                             reason="candidate fails %s" % sides)
    return InverseReport(name, True, x, satisfied=("1", "2"))


def e_core(a, e):
    """The e-core inverse: x in a{1}, xR = aR, Rx = Ra*e."""
    _require_weight(e, "e")
    return _core_like("e-core", a, e_core_ideals(a, e),
                      "xR = aR and Rx = Ra*e")


def f_dual_core(a, f):
    """The f-dual core inverse: x in a{1}, xR = f^{-1}a*R, Rx = Ra."""
    _require_weight(f, "f")
    return _core_like("f-dual-core", a, f_dual_core_ideals(a, f),
                      "xR = f^{-1}a*R and Rx = Ra")


def _grid_for_core_like(a, x, s, t, sp, tp, sides, target):
    ax, xa = a * x, x * a
    proj = {
        "phi_ax+phi_xa": phieq(ax, principal(a, RIGHT), t)
                         and phieq(xa, s, annihilator(a, RIGHT)),
        "ax_phi+xa_phi": phieq(ax, sp, annihilator(a, LEFT))
                         and phieq(xa, principal(a, LEFT), tp),
        "phi_ax+xa_phi": phieq(ax, principal(a, RIGHT), t)
                         and phieq(xa, principal(a, LEFT), tp),
        "ax_phi+phi_xa": phieq(ax, sp, annihilator(a, LEFT))
                         and phieq(xa, s, annihilator(a, RIGHT)),
    }
    return condition_grid(target, proj, sides)


def e_core_conditions(a, e, x, rep=None):
    s, t, sp, tp = e_core_ideals(a, e)
    sides = {
        "xR<=aR": principal(x, RIGHT).is_subideal_of(s),
        "lann(a)<=lann(x)": tp.is_subideal_of(annihilator(x, LEFT)),
        "Rx<=Ra*e": principal(x, LEFT).is_subideal_of(sp),
        "rann(a*e)<=rann(x)": t.is_subideal_of(annihilator(x, RIGHT)),
    }
    if rep is None:
        rep = e_core(a, e)
    target = rep.exists and rep.value == x
    # the projector rows pair phi_ax with rho_{aR, rann(a*e)} etc.
    return _grid_for_core_like(a, x, s, t, sp, tp, sides, target)


def f_dual_core_conditions(a, f, x, rep=None):
    s, t, sp, tp = f_dual_core_ideals(a, f)
    sides = {
        "xR<=f^{-1}a*R": principal(x, RIGHT).is_subideal_of(s),
        "lann(f^{-1}a*)<=lann(x)":
            tp.is_subideal_of(annihilator(x, LEFT)),
        "Rx<=Ra": principal(x, LEFT).is_subideal_of(sp),
        "rann(a)<=rann(x)": t.is_subideal_of(annihilator(x, RIGHT)),
    }
    if rep is None:
        rep = f_dual_core(a, f)
    target = rep.exists and rep.value == x
    return _grid_for_core_like(a, x, s, t, sp, tp, sides, target)


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


def w_core_conditions(a, w, x, rep=None):
    """The three-list condition grid for x = a^{core,w} (b = aw)."""
    b = a * w
    bstar = b.star
    bx, xb = b * x, x * b
    br, rb = principal(b, RIGHT), principal(b, LEFT)
    bsr, rbs = principal(bstar, RIGHT), principal(bstar, LEFT)
    rann_b, lann_b = annihilator(b, RIGHT), annihilator(b, LEFT)
    rann_bs = annihilator(bstar, RIGHT)
    proj = {
        "phi_bx+phi_xb": phieq(bx, br, rann_bs) and phieq(xb, br, rann_b),
        "bx_phi+xb_phi": phieq(bx, rbs, lann_b) and phieq(xb, rb, lann_b),
        "phi_bx+xb_phi": phieq(bx, br, rann_bs) and phieq(xb, rb, lann_b),
        "bx_phi+phi_xb": phieq(bx, rbs, lann_b) and phieq(xb, br, rann_b),
    }
    side = {
        "xR<=bR": principal(x, RIGHT).is_subideal_of(br),
        "lann(b)<=lann(x)": lann_b.is_subideal_of(annihilator(x, LEFT)),
        "Rx<=Rb*": principal(x, LEFT).is_subideal_of(rbs),
        "rann(b*)<=rann(x)": rann_bs.is_subideal_of(
            annihilator(x, RIGHT)),
    }
    extra = {
        "aR<=bR": principal(a, RIGHT).is_subideal_of(br),
        "lann(b)<=lann(a)": lann_b.is_subideal_of(annihilator(a, LEFT)),
    }
    if rep is None:
        rep = w_core(a, w)
    target = rep.exists and rep.value == x
    return condition_grid(target, proj, side, extra)


def v_dual_core_conditions(a, v, x, rep=None):
    """The three-list condition grid for x = a_{core,v} (c = va)."""
    c = v * a
    cstar = c.star
    cx, xc = c * x, x * c
    cr, rc = principal(c, RIGHT), principal(c, LEFT)
    csr = principal(cstar, RIGHT)
    rann_c, lann_c = annihilator(c, RIGHT), annihilator(c, LEFT)
    lann_cs = annihilator(cstar, LEFT)
    proj = {
        "phi_cx+phi_xc": phieq(cx, cr, rann_c) and phieq(xc, csr, rann_c),
        "cx_phi+xc_phi": phieq(cx, rc, lann_c) and phieq(xc, rc, lann_cs),
        "phi_cx+xc_phi": phieq(cx, cr, rann_c) and phieq(xc, rc, lann_cs),
        "cx_phi+phi_xc": phieq(cx, rc, lann_c) and phieq(xc, csr, rann_c),
    }
    side = {
        "xR<=c*R": principal(x, RIGHT).is_subideal_of(csr),
        "lann(c*)<=lann(x)": lann_cs.is_subideal_of(
            annihilator(x, LEFT)),
        "Rx<=Rc": principal(x, LEFT).is_subideal_of(rc),
        "rann(c)<=rann(x)": rann_c.is_subideal_of(annihilator(x, RIGHT)),
    }
    extra = {
        "Ra<=Rc": principal(a, LEFT).is_subideal_of(rc),
        "rann(c)<=rann(a)": rann_c.is_subideal_of(annihilator(a, RIGHT)),
    }
    if rep is None:
        rep = v_dual_core(a, v)
    target = rep.exists and rep.value == x
    return condition_grid(target, proj, side, extra)


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
        members = [x for x in ring.elements()
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
        members = [x for x in ring.elements()
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


def _bc_ideal_formulations(a, b, c):
    """The two g-independent ideal formulations of each construction
    item, by label."""
    cab, ab = c * a * b, a * b
    return {
        "x_in_a1": (
            principal(ab, RIGHT) == principal(a, RIGHT)
            and annihilator(cab, RIGHT) == annihilator(ab, RIGHT),
            principal(ab, RIGHT) == principal(a, RIGHT)
            and principal(cab, LEFT) == principal(ab, LEFT)),
        "outer_with_xR=bR": (
            annihilator(cab, RIGHT) == annihilator(b, RIGHT),
            principal(cab, LEFT) == principal(b, LEFT)),
        "outer_with_rann(x)=rann(c)": (
            principal(cab, RIGHT) == principal(c, RIGHT),
            annihilator(cab, LEFT) == annihilator(c, LEFT)),
        "outer_with_Rx=Rc": (
            annihilator(cab, LEFT) == annihilator(c, LEFT),
            principal(cab, RIGHT) == principal(c, RIGHT)),
        "outer_with_lann(x)=lann(b)": (
            principal(cab, LEFT) == principal(b, LEFT),
            annihilator(cab, RIGHT) == annihilator(b, RIGHT)),
    }


def bc_construction_clauses(a, b, c, inners):
    """Theorem items for each x = b g c with g in inners = (cab){1}.

    Returns {x: clause report}; each item's formulation in x must agree
    with its two ideal formulations or VerificationError is raised.
    """
    ideal_forms = _bc_ideal_formulations(a, b, c)
    reports = {}
    for g in inners:
        x = b * g * c
        if x in reports:
            continue
        in_a2 = satisfies(a, x, ("2",))
        report = {
            "x_in_a1": satisfies(a, x, ("1",)),
            "outer_with_xR=bR":
                in_a2 and principal(x, RIGHT) == principal(b, RIGHT),
            "outer_with_rann(x)=rann(c)":
                in_a2 and annihilator(x, RIGHT) == annihilator(c, RIGHT),
            "outer_with_Rx=Rc":
                in_a2 and principal(x, LEFT) == principal(c, LEFT),
            "outer_with_lann(x)=lann(b)":
                in_a2 and annihilator(x, LEFT) == annihilator(b, LEFT),
        }
        for label, value in report.items():
            values = (value,) + ideal_forms[label]
            if len(set(values)) > 1:
                raise VerificationError(
                    "equivalent formulations of %s disagree: %r"
                    % (label, values))
        reports[x] = report
    return reports


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


def regular_reflexive_iff_idempotent_ideals(a):
    """a{1,2} nonempty iff idempotents p, q realize rann(a) = rann(p)
    and aR = qR; returns the four clause values (finite rings)."""
    ring = a.ring
    if not ring.finite:
        raise NotEnumerableError("idempotent search needs a finite ring")
    idems = [p for p in ring.elements() if p * p == p]
    rann_a, lann_a = annihilator(a, RIGHT), annihilator(a, LEFT)
    ar, ra = principal(a, RIGHT), principal(a, LEFT)
    clauses = {
        "a12_nonempty": any(satisfies(a, x, ("1", "2"))
                            for x in ring.elements()),
        "rann+right_range": any(
            annihilator(p, RIGHT) == rann_a and principal(q, RIGHT) == ar
            for p in idems for q in idems),
        "left_range+lann": any(
            principal(p, LEFT) == ra and annihilator(q, LEFT) == lann_a
            for p in idems for q in idems),
        "both_ranges": any(
            principal(p, LEFT) == ra and principal(q, RIGHT) == ar
            for p in idems for q in idems),
    }
    if len(set(clauses.values())) > 1:
        raise VerificationError(
            "reflexive-existence characterizations disagree: %r" % clauses)
    return clauses
