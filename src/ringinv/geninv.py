"""Generalized inverses defined by equation systems.

Equation tokens (a is the subject, x the candidate inverse):
  1: axa = a        2: xax = x        3: (ax)* = ax     4: (xa)* = xa
  5: ax = xa        6: xa^2 = a       7: ax^2 = x
  8: a^2x = a       9: x^2a = x
  1k: xa^(k+1) = a^k   (k given separately)
  k1: a^(k+1)x = a^k

Named systems: inner {1}, outer {2}, reflexive {1,2}, group {1,2,5},
Drazin {2,5,1k}, Moore-Penrose {1,2,3,4}, core {1,2,3,6,7},
dual core {1,2,4,8,9}.

Written in ring and ideal operations only: an inner inverse is the
backend's own construction (Ring.inner), and the rest is built from it.
"""

from .errors import (NotEnumerableError, PreconditionError,
                     UnsupportedInvolutionError)
from .ideals import RIGHT, all_ideals, principal
from .rings import Coset, RingElement, memoized

EQUATION_TOKENS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "1k", "k1")

NAMED_SYSTEMS = {
    "inner": ("1",),
    "outer": ("2",),
    "reflexive": ("1", "2"),
    "group": ("1", "2", "5"),
    "drazin": ("2", "5", "1k"),
    "moore-penrose": ("1", "2", "3", "4"),
    "core": ("1", "2", "3", "6", "7"),
    "dual-core": ("1", "2", "4", "8", "9"),
}


def parse_equations(spec):
    """Parse '1,2,5' or a named system into a tuple of tokens."""
    spec = spec.strip().lower()
    if spec in NAMED_SYSTEMS:
        return NAMED_SYSTEMS[spec]
    toks = tuple(t.strip() for t in spec.split(",") if t.strip())
    for t in toks:
        if t not in EQUATION_TOKENS:
            raise ValueError("unknown equation token %r" % t)
    return toks


def satisfies(a, x, equations, k=None):
    """Check every listed equation for the pair (a, x)."""
    return _solution_test(a, equations, k)(x)


def _solution_test(a, equations, k=None):
    """The test x -> satisfies(a, x, equations, k) for one subject a.

    Each test forms ax and xa at most once, when a token first reads
    them, and every token reads them: (1) (ax)a, (2) (xa)x, (3)/(4) the
    star of ax or xa, (5) ax = xa, (6) (xa)a, (7) (ax)x, (9) x(xa), so
    no token list costs more products than its tokens one by one.  a^2,
    a^k and a^(k+1) are formed when a token first needs them and then
    kept, so a scan of many x pays for them once.  As for one satisfies
    call, a token raises its error only when it is reached.
    """
    ring = a.ring
    squares = []
    powers = []

    def test(x):
        ax = xa = None
        for eq in equations:
            if eq == "1":
                if ax is None:
                    ax = a * x
                ok = ax * a == a
            elif eq == "2":
                if xa is None:
                    xa = x * a
                ok = xa * x == x
            elif eq == "3":
                if not ring.has_involution:
                    raise UnsupportedInvolutionError(
                        "equation (3) needs an involution")
                if ax is None:
                    ax = a * x
                ok = ax.star == ax
            elif eq == "4":
                if not ring.has_involution:
                    raise UnsupportedInvolutionError(
                        "equation (4) needs an involution")
                if xa is None:
                    xa = x * a
                ok = xa.star == xa
            elif eq == "5":
                if ax is None:
                    ax = a * x
                if xa is None:
                    xa = x * a
                ok = ax == xa
            elif eq == "6":
                if xa is None:
                    xa = x * a
                ok = xa * a == a
            elif eq == "7":
                if ax is None:
                    ax = a * x
                ok = ax * x == x
            elif eq == "8":
                if not squares:
                    squares.append(a * a)
                ok = squares[0] * x == a
            elif eq == "9":
                if xa is None:
                    xa = x * a
                ok = x * xa == x
            elif eq in ("1k", "k1"):
                if k is None:
                    raise PreconditionError("equation %s needs k" % eq)
                if not powers:
                    powers.extend(_power_pair(a, k))
                ak, ak1 = powers
                ok = (x * ak1 if eq == "1k" else ak1 * x) == ak
            else:
                raise ValueError("unknown equation token %r" % eq)
            if not ok:
                return False
        return True

    return test


def _power_pair(a, k):
    """(a^k, a^(k+1)), the second one product past the first."""
    ak = a ** k
    return ak, ak * a


# the tokens whose equation is linear in x
_LINEAR = frozenset(("1", "3", "4", "5", "6", "8", "1k", "k1"))


def _linear_equations(a, tokens, k):
    """Each linear token as (f, c), f additive: x satisfies the token iff
    f(x) = c.  a^2, a^k and a^(k+1) are computed once, when needed."""
    zero = a.ring.zero
    aa = a * a if {"6", "8"} & set(tokens) else None
    ak = ak1 = None
    if {"1k", "k1"} & set(tokens):
        ak, ak1 = _power_pair(a, k)
    table = {
        "1": (lambda x: a * x * a, a),
        "3": (lambda x: _skew(a * x), zero),
        "4": (lambda x: _skew(x * a), zero),
        "5": (lambda x: a * x - x * a, zero),
        "6": (lambda x: x * aa, a),
        "8": (lambda x: aa * x, a),
        "1k": (lambda x: x * ak1, ak),
        "k1": (lambda x: ak1 * x, ak),
    }
    return [table[eq] for eq in tokens]


def _skew(y):
    return y.star - y


def _raises(ring, eq, k):
    """Does the test of token eq raise rather than answer?"""
    return (eq not in EQUATION_TOKENS
            or eq in ("3", "4") and not ring.has_involution
            or eq in ("1k", "k1") and k is None)


def _candidates(a, equations, k):
    """(space, rest): a{equations} is the members of space, in canonical
    order, that satisfy the tokens rest.

    With a linear token, space is the Coset its equations cut out.  Else
    with (2), space is a{2}: at most one outer inverse per pair (S, T) of
    right ideals, the one with xR = S and rann(x) = T (outer_with), and
    only pairs with |S| |T| = |R| hold one, since r -> xr maps R onto xR
    with kernel rann(x).  Only a{7}, a{9} and a{7,9} scan the ring.

    A token whose test raises does so in a scan on the first x that
    satisfies the tokens before it, so here it raises exactly when they
    have a solution.
    """
    ring = a.ring
    if not ring.finite:
        raise NotEnumerableError(
            "cannot enumerate solutions over %s" % ring.short_name)
    for i, eq in enumerate(equations):
        if _raises(ring, eq, k):
            for x in _solutions(a, equations[:i], k):
                _solution_test(a, (eq,), k)(x)  # raises
            return [], ()
    linear = [eq for eq in equations if eq in _LINEAR]
    if linear or not equations:
        space = (ring.table or ring).linear_solutions(
            _linear_equations(a, linear, k))
        rest = tuple(eq for eq in equations if eq not in _LINEAR)
        return [] if space is None else space, rest
    if "2" in equations:
        return (_outer_inverses(a),
                tuple(eq for eq in equations if eq != "2"))
    return ring.elements(), equations


def _outer_inverses(a):
    from .prescribed import IdealConstraints, outer_with
    ring = a.ring
    ideals = all_ideals(ring, RIGHT)
    by_size = {}
    for t in ideals:
        by_size.setdefault(t.size(), []).append(t)
    out = []
    for s in ideals:
        for t in by_size.get(ring.size // s.size(), ()):
            rep = outer_with(a, IdealConstraints(right_principal=s,
                                                 right_annihilator=t))
            if rep.exists:
                out.append(rep.value)
    return sorted(out, key=ring.sort_key)


def _solutions(a, equations, k):
    space, rest = _candidates(a, equations, k)
    test = _solution_test(a, rest, k)
    return (x for x in space if test(x))


def enumerate_inverse_set(a, equations, k=None):
    """a{equations}: all solutions x in a finite ring, canonical order."""
    return list(_solutions(a, equations, k))


def count_inverse_set(a, equations, k=None):
    """|a{equations}|, read from the solution space when every token is
    linear, so that such a set is never listed."""
    space, rest = _candidates(a, equations, k)
    if rest:
        return sum(1 for _ in filter(_solution_test(a, rest, k), space))
    return _size(space)


def listed_inverse_set(a, equations, k=None):
    """(|a{equations}|, its members in canonical order).  When every
    token is linear the members are the solution Coset itself, listed
    lazily, so a large set is never held whole."""
    space, rest = _candidates(a, equations, k)
    if rest:
        space = list(filter(_solution_test(a, rest, k), space))
    return _size(space), space


def _size(space):
    return space.size() if isinstance(space, Coset) else len(space)


class InverseReport:
    """Outcome of a named-inverse computation."""

    __slots__ = ("name", "exists", "value", "satisfied", "reason", "extra")

    def __init__(self, name, exists, value=None, satisfied=(), reason="",
                 extra=None):
        self.name = name
        self.exists = exists
        self.value = value
        self.satisfied = tuple(satisfied)
        self.reason = reason
        self.extra = dict(extra or {})

    def __repr__(self):
        if self.exists:
            return "InverseReport(%s, value=%r)" % (self.name, self.value)
        return "InverseReport(%s, none: %s)" % (self.name, self.reason)

    def to_json(self):
        out = {"inverse": self.name, "exists": self.exists}
        if self.exists:
            out["value"] = self.value.ring.to_json(self.value)
            out["satisfied"] = list(self.satisfied)
        else:
            out["reason"] = self.reason
        for key, val in sorted(self.extra.items()):
            if isinstance(val, RingElement):
                val = val.ring.to_json(val)
            elif isinstance(val, (list, tuple)):
                val = [v.ring.to_json(v) if isinstance(v, RingElement)
                       else v for v in val]
            out[key] = val
        return out


def _validated(name, a, x, k=None, extra=None):
    """The report of x as the named inverse, checked against its system
    NAMED_SYSTEMS[name]."""
    from .errors import VerificationError
    equations = NAMED_SYSTEMS[name]
    if not satisfies(a, x, equations, k=k):
        raise VerificationError(
            "constructed %s inverse fails its defining equations" % name)
    return InverseReport(name, True, x, satisfied=equations, extra=extra)


@memoized
def any_inner(a):
    """Some x with axa = a, or None: the backend's own construction
    (see Ring.inner)."""
    return a.ring.inner(a)


def inner_inverse(a):
    x = any_inner(a)
    if x is None:
        return InverseReport("inner", False,
                             reason="a is not regular: a{1} is empty")
    return _validated("inner", a, x)


def reflexive_inverse(a):
    """Some x in a{1,2}: x = a^(1) a a^(1) for any inner inverse."""
    g = any_inner(a)
    if g is None:
        return InverseReport("reflexive", False,
                             reason="a is not regular: a{1} is empty")
    return _validated("reflexive", a, g * a * g)


def drazin_index(a):
    """Least k >= 0 with a^k R = a^(k+1) R: rank(a^k) = rank(a^(k+1)) on
    matrix rings, a^k = 0 modulo the prime powers of n whose primes divide
    a on Z_n.  The chain a^k R descends, so it stops on these rings."""
    return len(_power_chain(a)) - 1


def _power_chain(a):
    """[a, a^2, ..., a^(k+1)] for k = drazin_index(a), the powers that
    the walk down the chain a^k R forms, one product each."""
    powers = [a]
    ideal, nxt = principal(a.ring.one, RIGHT), principal(a, RIGHT)
    while nxt != ideal:
        powers.append(powers[-1] * a)
        ideal, nxt = nxt, principal(powers[-1], RIGHT)
    return powers


def _drazin(a):
    """(a^D, index), a^D not yet validated: a^D = a^l (a^(2l+1))^(1) a^l
    with l = max(index, 1) and any inner inverse, as a^l = (a^D)^(l+1)
    a^(2l+1) = a^(2l+1) (a^D)^(l+1).  a^l and a^(l+1) are read from the
    power chain of a, and a^(2l+1) = a^l a^(l+1)."""
    powers = _power_chain(a)
    k = len(powers) - 1
    if not k:
        powers.append(a * a)
    l = max(k, 1)
    al = powers[l - 1]
    return al * any_inner(al * powers[l]) * al, k


def _no_group_reason(index):
    return "index is %d > 1, so a{1,2,5} is empty" % index


def drazin_inverse(a):
    """a^D: the unique x in a{2,5,1k} for k the Drazin index."""
    x, k = _drazin(a)
    return _validated("drazin", a, x, k=k, extra={"index": k})


def group_inverse(a):
    """a^#: the Drazin inverse when the index is at most 1."""
    x, idx = _drazin(a)
    if idx > 1:
        return InverseReport("group", False, reason=_no_group_reason(idx),
                             extra={"index": idx})
    return _validated("group", a, x, extra={"index": idx})


def moore_penrose(a):
    """a^dagger: the unique element of a{1,2,3,4}, when it exists.

    Urquhart's formula a^dagger = a^(1,4) a a^(1,3) (Ben-Israel and
    Greville, Generalized Inverses, ch. 1), with both factors from
    _inner_13; a^dagger exists iff both of them do, on every field.
    """
    ring = a.ring
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "Moore-Penrose needs an involution; %s has none" % ring.short_name)
    g13, g14 = _inner_13(a), _inner_13(a.star)
    if g13 is None or g14 is None:
        return InverseReport(
            "moore-penrose", False,
            reason="a{1,2,3,4} is empty: rank(a* a) or rank(a a*) "
                   "drops below rank(a)")
    return _validated("moore-penrose", a, g14.star * a * g13)


def _inner_13(a):
    """a^(1,3) = (a* a)^(1) a*, or None when rank(a* a) < rank(a).

    The test a x a = a for x = (a* a)^(1) a* is that rank test.  The
    columns of y = a x a - a lie in col(a), and a* y = 0, so they lie in
    col(a) meet null(a*), which is zero iff rank(a* a) = rank(a).
    Conversely rank(a x a) <= rank(a* a) <= rank(a).  The mirror
    a^(1,4) = a* (a a*)^(1) is _inner_13(a.star).star.
    """
    astar = a.star
    x = any_inner(astar * a) * astar
    return x if a * x * a == a else None


def _no_core_type(name, a, index):
    if a.ring.finite:
        reason = "no element satisfies {%s}" % ",".join(NAMED_SYSTEMS[name])
    else:  # over Q a^(1,3) and a^(1,4) always exist
        reason = _no_group_reason(index)
    return InverseReport(name, False, reason=reason)


def core_inverse(a):
    """a^core: the unique element of a{1,2,3,6,7}, when it exists.

    a^core = a^# a a^(1,3), so it exists iff a^# exists and
    rank(a* a) = rank(a) (Rakic, Dincic and Djordjevic, LAA 463, 2014);
    re-validated against the defining equations.
    """
    ring = a.ring
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "core inverse needs an involution; %s has none" % ring.short_name)
    grp, idx = _drazin(a)
    g13 = _inner_13(a) if idx <= 1 else None
    if g13 is None:
        return _no_core_type("core", a, idx)
    return _validated("core", a, grp * a * g13)


def dual_core_inverse(a):
    """a_core: the unique element of a{1,2,4,8,9}, when it exists.

    a_core = a^(1,4) a a^#, so it exists iff a^# exists and
    rank(a a*) = rank(a); re-validated against the defining equations.
    """
    ring = a.ring
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "dual core inverse needs an involution; %s has none"
            % ring.short_name)
    grp, idx = _drazin(a)
    g14 = _inner_13(a.star) if idx <= 1 else None
    if g14 is None:
        return _no_core_type("dual-core", a, idx)
    return _validated("dual-core", a, g14.star * a * grp)


NAMED_INVERSES = {
    "inner": inner_inverse,
    "reflexive": reflexive_inverse,
    "group": group_inverse,
    "drazin": drazin_inverse,
    "moore-penrose": moore_penrose,
    "core": core_inverse,
    "dual-core": dual_core_inverse,
}

