"""Independent answer checks for the request workloads.

Everything here re-derives the expected answer with the benchmark's own
exact arithmetic (Fraction over Q, ints mod p or mod n) and never calls
into ringinv, so a fault in the layer under test cannot hide itself.

A check returns None when the output is right and a one-line reason when
it is wrong.
"""

import json
from fractions import Fraction
from itertools import product
from math import gcd

# Rings at most this large are searched exhaustively to confirm a
# negative answer (and, for enumerate, a complete member list).
BRUTE_FORCE_MAX = 2401


# -- rings ---------------------------------------------------------------

class MatArith:
    """k x k matrices over Q (p is None) or GF(p), as tuples of rows."""

    def __init__(self, k, p):
        self.k, self.p = k, p
        self.zero = tuple((0,) * k for _ in range(k))
        self.one = tuple(tuple(int(i == j) for j in range(k))
                         for i in range(k))
        self.size = None if p is None else p ** (k * k)

    def scalar(self, s):
        return Fraction(str(s)) if self.p is None else int(str(s)) % self.p

    def parse(self, obj):
        return tuple(tuple(self.scalar(v) for v in row) for row in obj)

    def mul(self, a, b):
        return mat_mul(a, b, self.p)

    def add(self, a, b):
        return _entrywise(a, b, self.p, 1)

    def sub(self, a, b):
        return _entrywise(a, b, self.p, -1)

    def star(self, a):
        return tuple(zip(*a))

    def rank(self, a):
        return len(rref(a, self.p)[1])

    def elements(self):
        k = self.k
        for flat in product(range(self.p), repeat=k * k):
            yield tuple(flat[i * k:(i + 1) * k] for i in range(k))

    def sort_key(self, a):
        return tuple(v for row in a for v in row)

    # Canonical subspaces of x: colspace, nullspace, rowspace, left null.
    def invariant(self, slot, x):
        p = self.p
        if slot == "S":
            return span(self.star(x), p)
        if slot == "T":
            return span(null_basis(x, p), p)
        if slot == "Sp":
            return span(x, p)
        return span(null_basis(self.star(x), p), p)

    def ideal(self, side, desc):
        """Canonical subspace of a constraint descriptor on one side."""
        (key, val), = desc.items()
        if key in ("colspace", "rowspace", "span"):
            return span([[self.scalar(v) for v in vec] for vec in val],
                        self.p)
        b = self.parse(val)
        if key == "principal":
            return self.invariant("S" if side == "right" else "Sp", b)
        return self.invariant("T" if side == "right" else "Tp", b)


class ZnArith:
    """Z/nZ with int residues; an ideal is held as its divisor of n."""

    k = None
    p = None

    def __init__(self, n):
        self.n = n
        self.zero, self.one = 0, 1 % n
        self.size = n

    def parse(self, obj):
        return int(str(obj)) % self.n

    def mul(self, a, b):
        return a * b % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    star = None

    def elements(self):
        return range(self.n)

    def sort_key(self, a):
        return a

    def invariant(self, slot, x):
        g = gcd(x, self.n)
        return g if slot in ("S", "Sp") else self.n // g

    def ideal(self, side, desc):
        (key, val), = desc.items()
        b = self.parse(val)
        return self.invariant("S" if key == "principal" else "T", b)


def arith_for(name):
    """Checker ring for a ringinv shorthand such as m3q, m2f5, zn:12."""
    if name.startswith("zn:"):
        return ZnArith(int(name[3:]))
    k, tail = int(name[1]), name[2:]
    return MatArith(k, None if tail == "q" else int(tail[1:]))


# -- exact linear algebra ------------------------------------------------

def _entrywise(a, b, p, sign):
    out = tuple(tuple(x + sign * y for x, y in zip(ra, rb))
                for ra, rb in zip(a, b))
    if p is None:
        return out
    return tuple(tuple(v % p for v in row) for row in out)


def mat_mul(a, b, p):
    cols = tuple(zip(*b))
    if p is None:
        return tuple(tuple(sum(x * y for x, y in zip(row, col))
                           for col in cols) for row in a)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                       for col in cols) for row in a)


def rref(rows, p):
    """(nonzero rows of the reduced echelon form, pivot columns)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        if p is None:
            inv = Fraction(1) / m[r][c]
            m[r] = [v * inv for v in m[r]]
        else:
            inv = pow(m[r][c], -1, p)
            m[r] = [v * inv % p for v in m[r]]
        for j in range(len(m)):
            f = m[j][c]
            if j != r and f:
                if p is None:
                    m[j] = [x - f * y for x, y in zip(m[j], m[r])]
                else:
                    m[j] = [(x - f * y) % p for x, y in zip(m[j], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def span(vectors, p):
    """Canonical basis (RREF rows) of the span of some vectors."""
    return rref(vectors, p)[0] if len(vectors) else ()


def null_basis(a, p):
    """Basis of {v : a v = 0}."""
    n = len(a[0])
    red, pivots = rref(a, p)
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][f] % p if p else -red[i][f]
        out.append(tuple(v))
    return out


def inverse(a, p):
    n = len(a)
    aug = [tuple(row) + tuple(int(i == j) for j in range(n))
           for i, row in enumerate(a)]
    red, pivots = rref(aug, p)
    if pivots[:n] != tuple(range(n)) or len(red) < n:
        return None
    return tuple(row[n:] for row in red)


def outer_reference(ar, a, onto, kernel_perp):
    """The unique x with xax = x, colspace(x) = onto and nullspace(x) =
    kernel_perp^perp, as U (V a U)^-1 V; None when none exists."""
    if len(onto) != len(kernel_perp):
        return None
    if not onto:
        return ar.zero
    u = tuple(zip(*onto))
    m = inverse(mat_mul(mat_mul(kernel_perp, a, ar.p), u, ar.p), ar.p)
    if m is None:
        return None
    return mat_mul(mat_mul(u, m, ar.p), kernel_perp, ar.p)


def perp(basis, ar):
    return span(null_basis(basis, ar.p), ar.p) if basis else ar.one


def direct_sum(u, v, ar):
    return len(u) + len(v) == ar.k and len(span(u + v, ar.p)) == ar.k


# -- equations -------------------------------------------------------------

def power(ar, a, e):
    out = ar.one
    for _ in range(e):
        out = ar.mul(out, a)
    return out


def holds(ar, tok, a, x, k=None):
    m = ar.mul
    if tok == "1":
        return m(m(a, x), a) == a
    if tok == "2":
        return m(m(x, a), x) == x
    if tok == "3":
        ax = m(a, x)
        return ar.star(ax) == ax
    if tok == "4":
        xa = m(x, a)
        return ar.star(xa) == xa
    if tok == "5":
        return m(a, x) == m(x, a)
    if tok == "6":
        return m(m(x, a), a) == a
    if tok == "7":
        return m(m(a, x), x) == x
    if tok == "8":
        return m(m(a, a), x) == a
    if tok == "9":
        return m(m(x, x), a) == x
    if tok == "1k":
        return m(x, power(ar, a, k + 1)) == power(ar, a, k)
    if tok == "k1":
        return m(power(ar, a, k + 1), x) == power(ar, a, k)
    raise ValueError("unknown equation %r" % tok)


def all_hold(ar, toks, a, x, k=None):
    return all(holds(ar, t, a, x, k) for t in toks)


def drazin_index(ar, a):
    """Least k with rank(a^k) = rank(a^(k+1)) over Q; over a finite ring
    the preperiod of the power sequence (the two agree on matrices)."""
    if ar.p is None and ar.k is not None:
        power_k, prev = ar.one, ar.k
        for k in range(ar.k + 1):
            nxt = ar.rank(ar.mul(power_k, a))
            if nxt == prev:
                return k
            prev, power_k = nxt, ar.mul(power_k, a)
        return ar.k
    seen, x, i = {}, ar.one, 0
    while x not in seen:
        seen[x] = i
        x, i = ar.mul(x, a), i + 1
    return seen[x]


NAMED = {
    "inner": ("1",),
    "reflexive": ("1", "2"),
    "group": ("1", "2", "5"),
    "drazin": ("2", "5", "1k"),
    "moore-penrose": ("1", "2", "3", "4"),
    "core": ("1", "2", "3", "6", "7"),
    "dual-core": ("1", "2", "4", "8", "9"),
}


def _searchable(ar):
    """Z_n always (int arithmetic is cheap); finite matrix rings up to
    BRUTE_FORCE_MAX elements."""
    return ar.size is not None and (ar.k is None
                                    or ar.size <= BRUTE_FORCE_MAX)


def named_answer(ar, name, a):
    """The group, Drazin, core or dual core inverse of a matrix, built as
    the outer inverse with its known column space and nullspace; None
    when it does not exist."""
    k = drazin_index(ar, a)
    b = power(ar, a, k) if name == "drazin" else a
    cols, rows = span(ar.star(b), ar.p), span(b, ar.p)
    onto, kernel_perp = {"group": (cols, rows), "drazin": (cols, rows),
                         "core": (cols, cols), "dual-core": (rows, rows)}[name]
    x = outer_reference(ar, a, onto, kernel_perp)
    if x is None or not all_hold(ar, NAMED[name], a, x, k):
        return None
    return x


def _brute_exists(ar, pred):
    return any(pred(x) for x in ar.elements())


def _named_exists(ar, name, a, k):
    """Whether the named inverse exists: brute force on small rings,
    rank criteria over fields otherwise."""
    if _searchable(ar):
        toks = NAMED[name]
        return _brute_exists(ar, lambda x: all_hold(ar, toks, a, x, k))
    r = ar.rank(a)
    group = ar.rank(ar.mul(a, a)) == r
    left = ar.rank(ar.mul(ar.star(a), a)) == r      # a{1,3} nonempty
    right = ar.rank(ar.mul(a, ar.star(a))) == r     # a{1,4} nonempty
    return {"inner": True, "reflexive": True, "drazin": True,
            "group": group, "moore-penrose": left and right,
            "core": group and left, "dual-core": group and right}[name]


# -- per-command checks --------------------------------------------------

def _decode(out, code):
    lines = out.splitlines()
    if len(lines) != 1:
        return None, "expected one JSON line, got %d" % len(lines)
    doc = json.loads(lines[0])
    exists = doc.get("exists", True)
    if code != (0 if exists else 1):
        return None, "exit code %r for exists=%r" % (code, exists)
    return doc, None


def check(spec, code, out):
    """None if (code, out) is the right answer to the request spec."""
    doc, why = _decode(out, code)
    if why:
        return why
    ar = arith_for(spec["ring"])
    if doc.get("ring") != spec["ring"]:
        return "ring %r echoed as %r" % (spec["ring"], doc.get("ring"))
    a = ar.parse(spec["element"])
    return {"compute": _check_compute, "enumerate": _check_enumerate,
            "prescribe": _check_prescribe}[spec["command"]](ar, a, spec, doc)


def _value(ar, doc):
    return ar.parse(doc["value"]) if doc["exists"] else None


def _check_compute(ar, a, spec, doc):
    name = spec["inverse"]
    x = _value(ar, doc)
    if name in NAMED:
        return _check_named(ar, a, name, doc, x)
    opt = {key: ar.parse(val) for key, val in spec.get("options", {}).items()}
    if name in ("ef-mp", "e-core", "f-dual-core"):
        return _check_weighted(ar, a, name, opt, x)
    if name in ("w-core", "v-dual-core", "right-w-core", "left-v-dual-core"):
        return _check_core_like(ar, a, name, opt, x)
    if name == "bc":
        b, c = opt["b"], opt["c"]
        want = outer_reference(ar, a, span(ar.star(b), ar.p), span(c, ar.p))
        return _same(ar, x, want)
    if name in ("pq", "bott-duffin"):
        return _check_pq(ar, a, spec, opt, x)
    return "no check for inverse %r" % name


def _same(ar, got, want):
    if got != want:
        return "got %r, expected %r" % (got, want)
    return None


def _check_named(ar, a, name, doc, x):
    k = drazin_index(ar, a)
    if name in ("group", "drazin") and doc.get("index") != k:
        return "index %r, expected %r" % (doc.get("index"), k)
    if x is None:
        if _named_exists(ar, name, a, k):
            return "%s reported missing but exists" % name
        return None
    if not all_hold(ar, NAMED[name], a, x, k):
        return "%s value fails its equations" % name
    return None


def _check_weighted(ar, a, name, opt, x):
    """(e,f)-MP, e-core and f-dual core over Q with positive definite
    weights: outer inverses with a fixed column space and nullspace."""
    e, f = opt.get("e", ar.one), opt.get("f", ar.one)
    at = ar.star(a)
    fat = ar.mul(inverse(f, ar.p), at)
    onto = span(ar.star(a if name == "e-core" else fat), ar.p)
    kernel_perp = span(a if name == "f-dual-core" else ar.mul(at, e), ar.p)
    want = outer_reference(ar, a, onto, kernel_perp)
    if want is not None and not all_hold(ar, ("1", "2"), a, want):
        want = None
    return _same(ar, x, want)


def _check_core_like(ar, a, name, opt, x):
    m = ar.mul
    if name in ("w-core", "right-w-core"):
        b = m(a, opt.get("w", ar.one))
        possible = ar.rank(b) == ar.rank(a) == ar.rank(m(b, b))
        bx = m(b, x) if x is not None else None
        eqs = x is not None and ar.star(bx) == bx and m(bx, x) == x and (
            m(m(x, b), a) == a if name == "w-core" else m(bx, a) == a)
    else:
        c = m(opt.get("v", ar.one), a)
        possible = ar.rank(c) == ar.rank(a) == ar.rank(m(c, c))
        xc = m(x, c) if x is not None else None
        eqs = x is not None and ar.star(xc) == xc and m(x, xc) == x and (
            m(m(a, c), x) == a if name == "v-dual-core" else m(a, xc) == a)
    if x is None:
        return "%s reported missing but exists" % name if possible else None
    if not possible:
        return "%s returned but its existence criterion fails" % name
    return None if eqs else "%s value fails its equations" % name


def _check_pq(ar, a, spec, opt, x):
    p, q = opt["p"], opt.get("q")
    one, m = ar.one, ar.mul
    flavor = spec.get("flavor", "image_kernel") if spec["inverse"] == "pq" \
        else "bott_duffin"
    if flavor == "bott_duffin" and q is None:
        u = ar.add(ar.sub(one, p), m(a, p))
        ui = inverse(u, ar.p)
        return _same(ar, x, None if ui is None else m(p, ui))
    # x in a{2} with colspace(x) = colspace(p) and nullspace(x) = image of
    # the kernel idempotent (q for image_kernel/djordjevic_wei, 1-q else)
    kernel = q if flavor != "bott_duffin" else ar.sub(one, q)
    want = outer_reference(ar, a, span(ar.star(p), ar.p),
                           span(ar.sub(one, kernel), ar.p))
    if flavor == "djordjevic_wei" and want is not None and (
            m(want, a) != p or m(a, want) != ar.sub(one, q)):
        want = None
    return _same(ar, x, want)


def _check_enumerate(ar, a, spec, doc):
    toks = tuple(spec["equations"].split(","))
    k = spec.get("k")
    members = [ar.parse(v) for v in doc["members"]]
    if doc["count"] != len(members):
        return "count %r but %d members" % (doc["count"], len(members))
    keys = [ar.sort_key(x) for x in members]
    if keys != sorted(set(keys)):
        return "members are not sorted and distinct"
    if not all(all_hold(ar, toks, a, x, k) for x in members):
        return "a member fails the equations"
    if _searchable(ar):
        want = sum(1 for x in ar.elements() if all_hold(ar, toks, a, x, k))
        if want != len(members):
            return "%d members, brute force finds %d" % (len(members), want)
    elif toks == ("1",):
        r = ar.rank(a)
        if len(members) != ar.p ** (ar.k * ar.k - r * r):
            return "|a{1}| is not p^(k^2 - r^2)"
    return None


SLOT_SIDES = {"right_principal": ("S", "right"),
              "right_annihilator": ("T", "right"),
              "left_principal": ("Sp", "left"),
              "left_annihilator": ("Tp", "left")}


def _constraints(ar, spec):
    """{tag: canonical ideal} for the request's constraint slots."""
    out = {}
    for slot, desc in spec["constraints"].items():
        tag, side = SLOT_SIDES[slot]
        out[tag] = ar.ideal(side, desc)
    return out


def _meets(ar, a, x, cons, products):
    """Do x's ideals (or those of xa, ax for {1}-families) match?"""
    for tag, want in cons.items():
        y = x
        if products:
            y = ar.mul(x, a) if tag in ("S", "Tp") else ar.mul(a, x)
        if ar.invariant(tag, y) != want:
            return False
    return True


def _check_prescribe(ar, a, spec, doc):
    cons = _constraints(ar, spec)
    mode = spec["mode"]
    if mode == "one":
        return _check_family(ar, a, cons, doc)
    toks = ("1", "2") if mode == "reflexive" else ("2",)
    x = _value(ar, doc)
    if ar.k is not None:
        want = _matrix_outer(ar, a, cons)
        if want is not None and mode == "reflexive" and \
                ar.rank(want) != ar.rank(a):
            want = None
        why = _same(ar, x, want)
        if why or x is not None or not _searchable(ar):
            return why
    elif x is not None:
        ok = all_hold(ar, toks, a, x) and _meets(ar, a, x, cons, False)
        return None if ok else "prescribed value fails its conditions"
    if _brute_exists(ar, lambda y: all_hold(ar, toks, a, y)
                     and _meets(ar, a, y, cons, False)):
        return "prescribed %s inverse reported missing but exists" % mode
    return None


def _matrix_outer(ar, a, cons):
    """Outer inverse with the prescribed column space / nullspace."""
    if "S" in cons:
        onto = cons["S"]
    else:
        onto = perp(cons["Tp"], ar)
    if "Sp" in cons:
        kernel_perp = cons["Sp"]
    else:
        kernel_perp = perp(cons["T"], ar)
    return outer_reference(ar, a, onto, kernel_perp)


def _family_exists(ar, a, cons):
    """A {1}-inverse with prescribed xa/ax ideals exists iff each
    prescribed ideal is complementary to the matching ideal of a."""
    ideal_a = {"S": ar.invariant("T", a), "T": ar.invariant("S", a),
               "Sp": ar.invariant("Tp", a), "Tp": ar.invariant("Sp", a)}
    return all(direct_sum(cons[tag], ideal_a[tag], ar) for tag in cons)


def _check_family(ar, a, cons, doc):
    def member(x):
        return holds(ar, "1", a, x) and _meets(ar, a, x, cons, True)
    brute = _searchable(ar)
    if not doc["exists"]:
        if ar.k is not None and _family_exists(ar, a, cons):
            return "{1}-family reported missing but exists"
        if brute and _brute_exists(ar, member):
            return "{1}-family reported missing but brute force finds one"
        return None
    base, left, right = (ar.parse(doc[key]) for key in
                         ("base", "left_mult", "right_mult"))
    if not member(base):
        return "family base fails a x a = a or the prescribed ideals"
    if ar.size is None:
        # over Q: spot-check members base + left y right for fixed y
        for y in (ar.one, _probe(ar)):
            if not member(ar.add(base, ar.mul(ar.mul(left, y), right))):
                return "a family member fails its conditions"
        return None
    members = [ar.parse(v) for v in doc["members"]]
    if doc["count"] != len(members):
        return "family count disagrees with its members"
    if not all(member(x) for x in members):
        return "a listed family member fails its conditions"
    if brute:
        want = sorted((x for x in ar.elements() if member(x)),
                      key=ar.sort_key)
        if want != sorted(members, key=ar.sort_key):
            return "family has %d members, brute force finds %d" % (
                len(members), len(want))
    return None


def _probe(ar):
    """A fixed dense matrix used to sample one member of a Q family."""
    k = ar.k
    return tuple(tuple(Fraction(i * k + j + 1, j + 2) for j in range(k))
                 for i in range(k))
