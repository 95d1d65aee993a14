"""Seeded inputs for the three workloads.

Each workload is a closed loop with one client: the next operation starts
when the last one returns.  Inputs depend only on the seed.  The request
workloads hand ringinv nothing but the argv of one `ringinv` call; the
catalog workload hands it a ring and a theorem id.

  catalog      oracle.verify on zn:6, zn:8 and m2f2, one call per
               (ring, theorem), every entry capped at CASE_CAP cases.
  named-q      compute and prescribe on m3q-m5q: the constructive path
               over Q (Fraction linear algebra and the CLI).
  finite-scan  compute, enumerate and prescribe on m2f5, m2f7, m3f2, m3f3
               and zn:n with n up to ~1e5: the enumeration path.
"""

import itertools
import json
import random
from fractions import Fraction

import answers

# -- catalog ---------------------------------------------------------------

CATALOG_RINGS = ("zn:6", "zn:8", "m2f2")
CASE_CAP = 40

THEOREMS = (
    "T-invertible-lemma", "L-idempotent-ideals",
    "L-regular-ideal-inclusions", "L-star-ideal-duality",
    "L-orthogonal-range", "L-projector-algebra", "L-inverse-product-ideals",
    "L-core-equation-systems", "L-inner-of-product", "R-reflexive-upgrade",
    "T-1I-projectors", "T-2I-projectors", "T-12I-projectors",
    "T-15-projectors", "T-drazin-projectors", "T-one-prescribed-families",
    "P-one-solution-sets", "T-mitsch-order", "T-mitsch-extremes",
    "T-2I-prescribed", "T-12I-prescribed", "T-12I-clause-grid",
    "T-star-classes", "T-weighted-mp-grid", "T-e-core-grid",
    "T-w-core-grid", "T-one-sided-core", "T-bc-inverses", "T-pq-inverses",
    "T-bott-duffin", "T-regular-idempotent-ideals", "O-named-inverses",
)

# cases_checked per (ring, theorem) under the cap: the full case count of
# entries with fewer than CASE_CAP cases, else CASE_CAP.  The catalog
# workload checks these instead of the report's `complete` flag, which is
# False for an entry with exactly CASE_CAP cases.
_SHORT = {
    "zn:6": {"T-invertible-lemma": 6, "L-idempotent-ideals": 20,
             "L-regular-ideal-inclusions": 36, "L-star-ideal-duality": 0,
             "L-orthogonal-range": 0, "L-projector-algebra": 8,
             "L-inverse-product-ideals": 36, "L-core-equation-systems": 6,
             "L-inner-of-product": 36, "R-reflexive-upgrade": 36,
             "T-1I-projectors": 36, "T-2I-projectors": 36,
             "T-12I-projectors": 36, "T-15-projectors": 36,
             "T-drazin-projectors": 36, "T-star-classes": 0,
             "T-weighted-mp-grid": 0, "T-e-core-grid": 0,
             "T-w-core-grid": 0, "T-one-sided-core": 0,
             "T-bott-duffin": 24, "T-regular-idempotent-ideals": 6,
             "O-named-inverses": 6},
    "zn:8": {"T-invertible-lemma": 8, "L-idempotent-ideals": 6,
             "L-star-ideal-duality": 0, "L-orthogonal-range": 0,
             "L-projector-algebra": 4, "L-core-equation-systems": 8,
             "L-inner-of-product": 36, "T-mitsch-order": 38,
             "T-star-classes": 0, "T-weighted-mp-grid": 0,
             "T-e-core-grid": 0, "T-w-core-grid": 0, "T-one-sided-core": 0,
             "T-pq-inverses": 32, "T-bott-duffin": 16,
             "T-regular-idempotent-ideals": 8, "O-named-inverses": 8},
    "m2f2": {"T-invertible-lemma": 16, "L-orthogonal-range": 16,
             "L-projector-algebra": 16, "L-core-equation-systems": 16,
             "T-regular-idempotent-ideals": 16, "O-named-inverses": 16},
}
EXPECTED_CASES = {(ring, tid): _SHORT[ring].get(tid, CASE_CAP)
                  for ring in CATALOG_RINGS for tid in THEOREMS}


def catalog_calls(seed):
    """One pass: every (ring, theorem) once, in a seeded order."""
    calls = sorted(EXPECTED_CASES)
    random.Random(seed).shuffle(calls)
    return calls


# -- request specs ---------------------------------------------------------

def argv(spec):
    """The ringinv command line for a request spec."""
    out = [spec["command"], "--ring", spec["ring"],
           "--element", json.dumps(spec["element"])]
    if spec["command"] == "compute":
        out += ["--inverse", spec["inverse"]]
        for key, val in sorted(spec.get("options", {}).items()):
            out += ["--" + key, json.dumps(val)]
        if "flavor" in spec:
            out += ["--flavor", spec["flavor"]]
    elif spec["command"] == "enumerate":
        out += ["--equations", spec["equations"]]
        if "k" in spec:
            out += ["--k", str(spec["k"])]
    else:
        out += ["--constraints", json.dumps(spec["constraints"],
                                            sort_keys=True),
                "--mode", spec["mode"]]
    return out


def _render(m):
    return [[str(v) for v in row] for row in m]


NAMED = tuple(answers.NAMED)
TWO_SHAPES = (("S", "T"), ("Sp", "Tp"), ("S", "Sp"), ("T", "Tp"))
ONE_SHAPES = TWO_SHAPES + (("S",), ("T",), ("Sp",), ("Tp",))
SLOTS = {"S": "right_principal", "T": "right_annihilator",
         "Sp": "left_principal", "Tp": "left_annihilator"}


def _shape(rng, mode):
    return rng.choice(ONE_SHAPES if mode == "one" else TWO_SHAPES)


# -- named-q: matrices over Q ------------------------------------------------

class QGen:
    """Random rational matrices of a chosen rank and entry size."""

    SCALES = ("small", "large", "fraction")

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def scalar(self, scale):
        rng = self.rng
        if scale == "small":
            return rng.randint(-3, 3)
        if scale == "large":
            return rng.randint(-10 ** 6, 10 ** 6)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def dense(self, rows, cols, scale):
        return tuple(tuple(self.scalar(scale) for _ in range(cols))
                     for _ in range(rows))

    def of_rank(self, k, r, scale):
        """X Y with X k x r and Y r x k: rank r unless entries collide."""
        if r == 0:
            return answers.MatArith(k, None).zero
        return answers.mat_mul(self.dense(k, r, scale),
                               self.dense(r, k, scale), None)

    def conjugate(self, k, block):
        """S block S^-1 for S a product of integer column additions, so
        S^-1 is integral too."""
        rng = self.rng
        s = [[int(i == j) for j in range(k)] for i in range(k)]
        s_inv = [row[:] for row in s]
        for _ in range(k * k):
            i, j = rng.sample(range(k), 2)
            c = rng.choice((-2, -1, 1, 2))
            for row in s:
                row[j] += c * row[i]
            s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[j])]
        return answers.mat_mul(answers.mat_mul(s, block, None), s_inv, None)

    def nilpotent_part(self, k, scale):
        """S diag(J_m, B) S^-1 with a nilpotent Jordan block J_m, m >= 2:
        index >= 2, so the group, core and dual core inverses fail."""
        m = self.rng.randint(2, k)
        b = self.of_rank(k - m, self.rng.randint(0, k - m), scale)
        block = [[0] * k for _ in range(k)]
        for i in range(m - 1):
            block[i][i + 1] = 1
        for i in range(k - m):
            block[m + i][m:] = b[i]
        block = tuple(tuple(row) for row in block)
        return self.conjugate(k, block)

    def idempotent(self, k, r):
        return self.conjugate(k, tuple(tuple(int(i == j and i < r)
                                             for j in range(k))
                                       for i in range(k)))

    def weight(self, k):
        """M M^T + I: symmetric positive definite, hence invertible."""
        m = self.dense(k, k, "small")
        mmt = answers.mat_mul(m, tuple(zip(*m)), None)
        return tuple(tuple(v + (i == j) for j, v in enumerate(row))
                     for i, row in enumerate(mmt))

    def element(self, k, scale, shape):
        """A fresh subject of the given rank, or with a nilpotent part when
        shape is NILPOTENT.  No subject repeats: once the zero matrix has
        been used, a rank-0 request takes another shape at random."""
        while True:
            if shape == NILPOTENT:
                a = self.nilpotent_part(k, scale)
            else:
                a = self.of_rank(k, shape, scale)
            if a not in self.seen:
                self.seen.add(a)
                return a
            shape = self.rng.choice(shapes(k)[1:])


Q_COMPUTE = NAMED + ("ef-mp", "e-core", "f-dual-core", "w-core",
                     "v-dual-core", "right-w-core", "left-v-dual-core",
                     "bc:full", "bc:right_hybrid", "bc:left_hybrid",
                     "bc:annihilator", "pq:image_kernel",
                     "pq:djordjevic_wei", "pq:bott_duffin", "bott-duffin",
                     "bott-duffin:q")
Q_PRESCRIBE = ("outer", "reflexive", "one")


NILPOTENT = "nilpotent"


def shapes(k):
    """Subject shapes: every rank 0..k, and a nilpotent part."""
    return list(range(k + 1)) + [NILPOTENT]


def named_q(seed):
    """Endless rounds of named-q requests.  A round holds every request
    kind once for each size (m3q, m4q, m5q) and entry scale of the
    subject, shuffled.  Each of these cells steps through the subject
    shapes from a random start, one shape per round."""
    rng = random.Random(seed)
    gen = QGen(rng)
    kinds = [(cmd, what, k, scale) for k in (3, 4, 5)
             for scale in QGen.SCALES
             for cmd, whats in (("compute", Q_COMPUTE),
                                ("prescribe", Q_PRESCRIBE))
             for what in whats]
    start = {cell: rng.randrange(cell[2] + 2) for cell in kinds}
    for turn in itertools.count():
        rng.shuffle(kinds)
        yield [(_q_compute if cmd == "compute" else _q_prescribe)(
            gen, k, gen.element(k, scale, shapes(k)[
                (start[cmd, what, k, scale] + turn) % (k + 2)]), what)
            for cmd, what, k, scale in kinds]


def _q_compute(gen, k, a, what):
    rng = gen.rng
    ring = "m%dq" % k
    name, _, flavor = what.partition(":")
    spec = {"command": "compute", "ring": ring, "element": _render(a),
            "inverse": name}
    opts = {}
    if name in ("ef-mp", "e-core"):
        opts["e"] = gen.weight(k)
    if name in ("ef-mp", "f-dual-core"):
        opts["f"] = gen.weight(k)
    if name in ("w-core", "right-w-core"):
        opts["w"] = gen.of_rank(k, rng.randint(k - 1, k), "small")
    if name in ("v-dual-core", "left-v-dual-core"):
        opts["v"] = gen.of_rank(k, rng.randint(k - 1, k), "small")
    if name == "bc":
        r = rng.randint(1, k)
        opts["b"] = gen.of_rank(k, r, "small")
        opts["c"] = gen.of_rank(k, r if rng.random() < 0.75
                                else rng.randint(0, k), "small")
    if name in ("pq", "bott-duffin"):
        r = rng.randint(0, k)
        opts["p"] = gen.idempotent(k, r)
        if name == "pq" or flavor == "q":
            qr = k - r if rng.random() < 0.75 else rng.randint(0, k)
            opts["q"] = gen.idempotent(k, qr)
    if name == "pq":
        spec["flavor"] = flavor
    if opts:
        spec["options"] = {key: _render(m) for key, m in opts.items()}
    return spec


def _subspace(gen, k, dim):
    return [[str(v) for v in row] for row in gen.dense(dim, k, "small")]


def _q_prescribe(gen, k, a, mode):
    """Prescribed column/row spaces, sized to fit rank(a) three times in
    four so that the inverse often exists."""
    rng = gen.rng
    shape = _shape(rng, mode)
    r = answers.MatArith(k, None).rank(a)
    if rng.random() < 0.25:
        r = rng.randint(0, k)
    cons = {}
    for tag in shape:
        dim = r if tag in ("S", "Sp") else k - r
        key = "colspace" if tag in ("S", "T") else "rowspace"
        cons[SLOTS[tag]] = {key: _subspace(gen, k, dim)}
    return {"command": "prescribe", "ring": "m%dq" % k,
            "element": _render(a), "constraints": cons, "mode": mode}


# -- finite-scan: GF(p) matrices and Z_n ------------------------------------

MATRIX_RINGS = (("m2f5", 2, 5), ("m2f7", 2, 7), ("m3f2", 3, 2),
                ("m3f3", 3, 3))
ZN_NAMED = ("inner", "reflexive", "group", "drazin")
MATRIX_EQUATIONS = ("1", "1,2", "1,3", "1,4", "1,5", "1,2,3,4", "2",
                    "1,2,5", "2,5,1k")
ZN_EQUATIONS = ("1", "1,2", "1,5", "2", "1,2,5", "2,5,1k")
# Z_n sizes: compute and enumerate scan all n residues; prescribe builds
# extensional ideals, which costs far more per residue.
ZN_SCAN = (10000, 100003)
ZN_PRESCRIBE = (1000, 10007)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _moduli(rng, lo, hi, count):
    """count moduli in [lo, hi], one from each of count log-spaced strata,
    so that every round scans the same spread of ring sizes.  Each is a
    prime or a composite with a repeated factor, at random."""
    out = []
    for i in range(count):
        while True:
            n = int(lo * (hi / lo) ** ((i + rng.random()) / count))
            if rng.random() < 0.5:
                if _is_prime(n):
                    break
            else:
                sq = rng.choice((4, 8, 9, 25, 27, 49))
                n = max(sq, n - n % sq)
                break
        out.append(n)
    rng.shuffle(out)
    return out


def finite_scan(seed):
    """Endless rounds of finite-scan requests, with uniformly drawn
    elements.  A round holds, per matrix ring, every named inverse, one
    request per prescribe mode and enumerate requests (one on m3f3, three
    elsewhere); on Z_n every named inverse and two enumerate requests with
    n in ZN_SCAN, and one request per prescribe mode with n in
    ZN_PRESCRIBE, the moduli of a round spread evenly over each range.
    Each round is shuffled."""
    rng = random.Random(seed)
    kinds = []
    for ring in MATRIX_RINGS:
        kinds += [(ring, "compute", name) for name in NAMED]
        kinds += [(ring, "enumerate", None)] * (1 if ring[0] == "m3f3"
                                                else 3)
        kinds += [(ring, "prescribe", mode) for mode in Q_PRESCRIBE]
    kinds += [(ZN_SCAN, "compute", name) for name in ZN_NAMED]
    kinds += [(ZN_SCAN, "enumerate", None)] * 2
    kinds += [(ZN_PRESCRIBE, "prescribe", mode) for mode in Q_PRESCRIBE]
    while True:
        rng.shuffle(kinds)
        moduli = {span: _moduli(rng, *span, sum(k[0] == span for k in kinds))
                  for span in (ZN_SCAN, ZN_PRESCRIBE)}
        strata = _strata(rng)
        yield [_zn_request(rng, moduli[ring].pop(), cmd, what)
               if ring in moduli else _matrix_request(
                   rng, ring, cmd, what,
                   strata.get(what) if ring[0] == STRATIFIED_RING
                   and cmd == "compute" else None)
               for ring, cmd, what in kinds]


def _uniform_matrix(rng, k, p):
    return [[str(rng.randrange(p)) for _ in range(k)] for _ in range(k)]


# On m3f3, ringinv finds the group, Drazin, core and dual core inverses by
# scanning the ring, so a request costs in proportion to where its answer
# sits in the scan order, and a whole scan when there is none.  So that
# rounds cost alike, each round asks one of these four requests about an
# element without the inverse (not Drazin, which always exists), and the
# other three about elements whose answers lie in different thirds of the
# scan order; each element is drawn uniformly among those that qualify.
SCANNED = ("group", "drazin", "core", "dual-core")
STRATIFIED_RING = "m3f3"
NO_ANSWER = 3


def scan_share(ar, name, a):
    """Where the scan meets the named inverse of a, as a share of the
    ring; 1.0 when there is none."""
    x = answers.named_answer(ar, name, a)
    if x is None:
        return 1.0
    pos = 0
    for v in (v for row in x for v in row):
        pos = pos * ar.p + v
    return pos / ar.size


def _scanned_element(rng, ring, name, stratum):
    """A uniform element whose answer lies in the given third of the scan
    order, or that has no answer (stratum NO_ANSWER)."""
    label, k, p = ring
    ar = answers.MatArith(k, p)
    while True:
        a = _uniform_matrix(rng, k, p)
        if min(int(3 * scan_share(ar, name, ar.parse(a))), 3) == stratum:
            return a


def _strata(rng):
    none = rng.choice(("group", "core", "dual-core"))
    others = [name for name in SCANNED if name != none]
    strata = dict(zip(others, rng.sample(range(3), 3)))
    strata[none] = NO_ANSWER
    return strata


def _matrix_request(rng, ring, cmd, what, stratum=None):
    name, k, p = ring
    if stratum is None:
        element = _uniform_matrix(rng, k, p)
    else:
        element = _scanned_element(rng, ring, what, stratum)
    spec = {"command": cmd, "ring": name, "element": element}
    if cmd == "compute":
        spec["inverse"] = what
    elif cmd == "enumerate":
        _equations(rng, spec, MATRIX_EQUATIONS)
    else:
        spec["mode"] = what
        spec["constraints"] = {
            SLOTS[tag]: {rng.choice(("principal", "annihilator")):
                         _uniform_matrix(rng, k, p)}
            for tag in _shape(rng, spec["mode"])}
    return spec


def _equations(rng, spec, choices):
    spec["equations"] = rng.choice(choices)
    if "1k" in spec["equations"]:
        spec["k"] = rng.randint(1, 3)


def _zn_request(rng, n, cmd, what):
    spec = {"command": cmd, "ring": "zn:%d" % n,
            "element": str(rng.randrange(n))}
    if cmd == "compute":
        spec["inverse"] = what
    elif cmd == "enumerate":
        _equations(rng, spec, ZN_EQUATIONS)
    else:
        spec["mode"] = what
        spec["constraints"] = {
            SLOTS[tag]: {rng.choice(("principal", "annihilator")):
                         str(rng.randrange(n))}
            for tag in _shape(rng, spec["mode"])}
    return spec


REQUEST_ROUNDS = {"named-q": named_q, "finite-scan": finite_scan}
