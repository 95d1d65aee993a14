"""CLI replay over finite rings: a fixed, seeded set of compute, enumerate
and prescribe requests on m2f5, m2f7, m3f2, m3f3 and a few Z_n, pinned by
one sha256 of every (exit code, stdout, stderr).

The subspace questions of the M_k(GF(p)) backend (meets, complements,
preimages, projectors and the ideal lattice) may change how they compute,
never what the CLI prints.  The requests cover every inverse `compute`
takes, enumerate with the equation sets 2, 1,2 and 2,5,1k, and every
prescribe mode and shape with principal, annihilator, colspace and
rowspace descriptors.  The inputs are built here from integer arithmetic
alone, so that no library change moves them.
"""

import hashlib
import json
import random

from ringinv.cli import main

MATRIX_RINGS = (("m2f5", 2, 5), ("m2f7", 2, 7), ("m3f2", 3, 2),
                ("m3f3", 3, 3))
ZN_MODULI = (8, 12, 36, 97)
INVERSES = ("inner", "reflexive", "group", "drazin", "moore-penrose", "core",
            "dual-core", "ef-mp", "e-core", "f-dual-core", "w-core",
            "v-dual-core", "right-w-core", "left-v-dual-core", "bc:full",
            "bc:right_hybrid", "bc:left_hybrid", "bc:annihilator",
            "pq:image_kernel", "pq:djordjevic_wei", "pq:bott_duffin",
            "bott-duffin", "bott-duffin:q")
EQUATIONS = ("2", "1,2", "2,5,1k")
# slot, the vector-span key of its side, and whether its subspace is sized
# to rank(a) (an image) rather than to k - rank(a) (a kernel)
S, T = ("right_principal", "colspace", True), ("right_annihilator",
                                                "colspace", False)
SP, TP = ("left_principal", "rowspace", True), ("left_annihilator",
                                               "rowspace", False)
TWO_SHAPES = ((S, T), (SP, TP), (S, SP), (T, TP))
ONE_SHAPES = TWO_SHAPES + ((S,), (T,), (SP,), (TP,))
SHAPES = {"outer": TWO_SHAPES, "reflexive": TWO_SHAPES, "one": ONE_SHAPES}
# sha256 of the replay, taken before each subspace question of the
# GF(p) backend became one elimination
REPLAY_SHA256 = ("d7ae8262e165b9d1f4a9fe4b6f3f7073"
                 "df4749c4f385b6758da4190e227f7acf")


def _mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


class _Requests:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def dense(self, rows, cols, p):
        return [[self.rng.randrange(p) for _ in range(cols)]
                for _ in range(rows)]

    def of_rank(self, k, r, p):
        """A product of a k x r and an r x k matrix: rank r at most."""
        if r == 0:
            return [[0] * k for _ in range(k)]
        return _mul(self.dense(k, r, p), self.dense(r, k, p), p)

    def unimodular(self, k, p):
        """(s, s^-1), s a product of column additions."""
        s = [[int(i == j) for j in range(k)] for i in range(k)]
        s_inv = [row[:] for row in s]
        for _ in range(k * k):
            i, j = self.rng.sample(range(k), 2)
            c = self.rng.randrange(1, p)
            for row in s:
                row[j] = (row[j] + c * row[i]) % p
            s_inv[i] = [(x - c * y) % p for x, y in zip(s_inv[i], s_inv[j])]
        return s, s_inv

    def conjugate(self, block, p):
        s, s_inv = self.unimodular(len(block), p)
        return _mul(_mul(s, block, p), s_inv, p)

    def nilpotent_part(self, k, p):
        """S diag(J_m, B) S^-1 with J_m a nilpotent Jordan block, m >= 2."""
        m = self.rng.randint(2, k)
        b = self.of_rank(k - m, self.rng.randint(0, k - m), p)
        block = [[int(j == i + 1 and i < m - 1) for j in range(k)]
                 for i in range(k)]
        for i in range(k - m):
            block[m + i][m:] = b[i]
        return self.conjugate(block, p)

    def idempotent(self, k, r, p):
        return self.conjugate([[int(i == j and i < r) for j in range(k)]
                               for i in range(k)], p)

    def weight(self, k, p):
        """s s^T, s invertible: symmetric and invertible."""
        s, _ = self.unimodular(k, p)
        return _mul(s, [list(c) for c in zip(*s)], p)

    def subject(self, k, p, shape):
        """(a, rank or None): shape k + 1 stands for a nilpotent part, and
        shape k + 2 for a uniform matrix."""
        if shape == k + 2:
            return self.dense(k, k, p), None
        if shape == k + 1:
            return self.nilpotent_part(k, p), None
        return self.of_rank(k, shape, p), shape

    def compute(self, ring, k, p, a, what):
        rng = self.rng
        name, _, flavor = what.partition(":")
        opts = {}
        if name in ("ef-mp", "e-core"):
            opts["e"] = self.weight(k, p)
        if name in ("ef-mp", "f-dual-core"):
            opts["f"] = self.weight(k, p)
        if name in ("w-core", "right-w-core"):
            opts["w"] = self.of_rank(k, rng.randint(k - 1, k), p)
        if name in ("v-dual-core", "left-v-dual-core"):
            opts["v"] = self.of_rank(k, rng.randint(k - 1, k), p)
        if name == "bc":
            r = rng.randint(1, k)
            opts["b"] = self.of_rank(k, r, p)
            opts["c"] = self.of_rank(k, r if rng.random() < 0.75
                                     else rng.randint(0, k), p)
        if name in ("pq", "bott-duffin"):
            r = rng.randint(0, k)
            opts["p"] = self.idempotent(k, r, p)
            if name == "pq" or flavor == "q":
                opts["q"] = self.idempotent(k, k - r if rng.random() < 0.75
                                            else rng.randint(0, k), p)
        argv = ["compute", "--ring", ring, "--element", _json(a),
                "--inverse", name]
        for key, m in sorted(opts.items()):
            argv += ["--" + key, _json(m)]
        if name in ("bc", "pq"):
            argv += ["--flavor", flavor]
        return argv

    def enumerate(self, ring, element, equations):
        argv = ["enumerate", "--ring", ring, "--element", element,
                "--equations", equations]
        if "1k" in equations:
            argv += ["--k", str(self.rng.randint(1, 3))]
        return argv

    def prescribe(self, ring, k, p, a, r, mode, picked, turn):
        """Spaces sized to rank(a) three times in four; the descriptor of
        each slot steps through principal, annihilator and the vector
        span of its side."""
        rng = self.rng
        if r is None or rng.random() < 0.25:
            r = rng.randint(0, k)
        cons = {}
        for i, (slot, span, image) in enumerate(picked):
            dim = r if image else k - r
            key = ("principal", "annihilator", span)[(turn + i) % 3]
            if key == span:
                val = self.dense(dim, k, p)
            else:
                val = self.of_rank(k, dim if key == "principal" else k - dim,
                                   p)
            cons[slot] = {key: _strings(val)}
        return ["prescribe", "--ring", ring, "--element", _json(a),
                "--constraints", json.dumps(cons, sort_keys=True),
                "--mode", mode]

    def zn_compute(self, n, a, what):
        """p and q are idempotents, every other option a uniform residue."""
        rng = self.rng
        name, _, flavor = what.partition(":")
        idempotents = [e for e in range(n) if e * e % n == e]
        flags = {"ef-mp": "ef", "e-core": "e", "f-dual-core": "f",
                 "w-core": "w", "right-w-core": "w", "v-dual-core": "v",
                 "left-v-dual-core": "v", "bc": "bc", "pq": "pq",
                 "bott-duffin": "pq" if flavor else "p"}.get(name, "")
        argv = ["compute", "--ring", "zn:%d" % n, "--element", str(a),
                "--inverse", name]
        for flag in flags:
            v = (rng.choice(idempotents) if flag in "pq"
                 else rng.randrange(n))
            argv += ["--" + flag, str(v)]
        if name in ("bc", "pq"):
            argv += ["--flavor", flavor]
        return argv

    def zn_prescribe(self, n, a, mode, picked, turn):
        cons = {slot: {("principal", "annihilator")[(turn + i) % 2]:
                       str(self.rng.randrange(n))}
                for i, (slot, _, _) in enumerate(picked)}
        return ["prescribe", "--ring", "zn:%d" % n, "--element", str(a),
                "--constraints", json.dumps(cons, sort_keys=True),
                "--mode", mode]


def _strings(m):
    return [[str(v) for v in row] for row in m]


def _json(m):
    return json.dumps(_strings(m))


def replay_argvs(seed=0):
    """On each matrix ring one request per inverse and equation set and
    two per (mode, shape), the subject shapes stepping through rank 0..k, a
    nilpotent part and a uniform matrix; on each Z_n the same with
    uniform residues."""
    gen = _Requests(seed)
    out = []
    for ring, k, p in MATRIX_RINGS:
        turn = 0
        for what in INVERSES:
            a, _ = gen.subject(k, p, turn % (k + 3))
            out.append(gen.compute(ring, k, p, a, what))
            turn += 1
        for equations in EQUATIONS:
            a, _ = gen.subject(k, p, turn % (k + 3))
            out.append(gen.enumerate(ring, _json(a), equations))
            turn += 1
        for mode, shapes in SHAPES.items():
            for picked in shapes + shapes:
                a, r = gen.subject(k, p, turn % (k + 3))
                out.append(gen.prescribe(ring, k, p, a, r, mode, picked,
                                         turn))
                turn += 1
    for n in ZN_MODULI:
        turn = 0
        for what in INVERSES:
            out.append(gen.zn_compute(n, gen.rng.randrange(n), what))
        for equations in EQUATIONS:
            out.append(gen.enumerate("zn:%d" % n,
                                     str(gen.rng.randrange(n)), equations))
        for mode, shapes in SHAPES.items():
            for picked in shapes:
                out.append(gen.zn_prescribe(n, gen.rng.randrange(n), mode,
                                            picked, turn))
                turn += 1
    return out


def test_finite_replay_is_byte_identical(capsys):
    sha = hashlib.sha256()
    codes = set()
    for argv in replay_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        sha.update((json.dumps([code, captured.out, captured.err]) + "\n")
                   .encode())
    # the replay reaches an answer, its absence and a ring with no
    # involution
    assert {0, 1, 65} <= codes
    assert sha.hexdigest() == REPLAY_SHA256
