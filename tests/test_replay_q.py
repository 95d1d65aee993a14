"""CLI replay over Q: a fixed, seeded set of compute and prescribe requests
on m3q-m5q, pinned by one sha256 of every (exit code, stdout, stderr).

The elimination over Q may change how it computes, never what it prints:
the RREF is unique, so every answer is.  The requests cover each of the
23 inverses `compute` takes over Q and the three prescribe modes, on
every size, with small, large and fractional entries, and subjects of
each rank and with a nilpotent part.  The inputs are built here from
integer arithmetic alone, so that no library change moves them.
"""

import hashlib
import json
import random
from fractions import Fraction

from ringinv.cli import main

INVERSES = ("inner", "reflexive", "group", "drazin", "moore-penrose", "core",
            "dual-core", "ef-mp", "e-core", "f-dual-core", "w-core",
            "v-dual-core", "right-w-core", "left-v-dual-core", "bc:full",
            "bc:right_hybrid", "bc:left_hybrid", "bc:annihilator",
            "pq:image_kernel", "pq:djordjevic_wei", "pq:bott_duffin",
            "bott-duffin", "bott-duffin:q")
MODES = ("outer", "reflexive", "one")
SCALES = ("small", "large", "fraction")
S, T = ("right_principal", "colspace", True), ("right_annihilator",
                                                "colspace", False)
SP, TP = ("left_principal", "rowspace", True), ("left_annihilator",
                                               "rowspace", False)
TWO_SHAPES = ((S, T), (SP, TP), (S, SP), (T, TP))
ONE_SHAPES = TWO_SHAPES + ((S,), (T,), (SP,), (TP,))
# sha256 of the replay, taken before the elimination over Q ran on
# integer rows
REPLAY_SHA256 = ("131743d48a6f9bcbe5258feb7f32c5b7"
                 "c6092da3949f5cb1bc0d9a3f0986dc7b")


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


class _Requests:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def scalar(self, scale):
        rng = self.rng
        if scale == "small":
            return rng.randint(-3, 3)
        if scale == "large":
            return rng.randint(-10 ** 6, 10 ** 6)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def dense(self, rows, cols, scale):
        return [[self.scalar(scale) for _ in range(cols)]
                for _ in range(rows)]

    def of_rank(self, k, r, scale):
        if r == 0:
            return [[0] * k for _ in range(k)]
        return _mul(self.dense(k, r, scale), self.dense(r, k, scale))

    def conjugate(self, block):
        """S block S^-1, S a product of integer column additions."""
        k = len(block)
        s = [[int(i == j) for j in range(k)] for i in range(k)]
        s_inv = [row[:] for row in s]
        for _ in range(k * k):
            i, j = self.rng.sample(range(k), 2)
            c = self.rng.choice((-2, -1, 1, 2))
            for row in s:
                row[j] += c * row[i]
            s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[j])]
        return _mul(_mul(s, block), s_inv)

    def nilpotent_part(self, k, scale):
        """S diag(J_m, B) S^-1 with J_m a nilpotent Jordan block, m >= 2."""
        m = self.rng.randint(2, k)
        b = self.of_rank(k - m, self.rng.randint(0, k - m), scale)
        block = [[int(j == i + 1 and i < m - 1) for j in range(k)]
                 for i in range(k)]
        for i in range(k - m):
            block[m + i][m:] = b[i]
        return self.conjugate(block)

    def idempotent(self, k, r):
        return self.conjugate([[int(i == j and i < r) for j in range(k)]
                               for i in range(k)])

    def weight(self, k):
        """M M^T + I: symmetric positive definite."""
        m = self.dense(k, k, "small")
        return [[v + (i == j) for j, v in enumerate(row)]
                for i, row in enumerate(_mul(m, list(zip(*m))))]

    def subject(self, k, scale, shape):
        """(a, rank or None): shape k + 1 stands for a nilpotent part."""
        if shape > k:
            return self.nilpotent_part(k, scale), None
        return self.of_rank(k, shape, scale), shape

    def compute(self, k, a, what):
        rng = self.rng
        name, _, flavor = what.partition(":")
        opts = {}
        if name in ("ef-mp", "e-core"):
            opts["e"] = self.weight(k)
        if name in ("ef-mp", "f-dual-core"):
            opts["f"] = self.weight(k)
        if name in ("w-core", "right-w-core"):
            opts["w"] = self.of_rank(k, rng.randint(k - 1, k), "small")
        if name in ("v-dual-core", "left-v-dual-core"):
            opts["v"] = self.of_rank(k, rng.randint(k - 1, k), "small")
        if name == "bc":
            r = rng.randint(1, k)
            opts["b"] = self.of_rank(k, r, "small")
            opts["c"] = self.of_rank(k, r if rng.random() < 0.75
                                     else rng.randint(0, k), "small")
        if name in ("pq", "bott-duffin"):
            r = rng.randint(0, k)
            opts["p"] = self.idempotent(k, r)
            if name == "pq" or flavor == "q":
                opts["q"] = self.idempotent(k, k - r if rng.random() < 0.75
                                            else rng.randint(0, k))
        argv = ["compute", "--ring", "m%dq" % k, "--element", _json(a),
                "--inverse", name]
        for key, m in sorted(opts.items()):
            argv += ["--" + key, _json(m)]
        if name == "pq":
            argv += ["--flavor", flavor]
        return argv

    def prescribe(self, k, a, r, mode):
        """Spaces sized to rank(a) three times in four."""
        rng = self.rng
        if r is None or rng.random() < 0.25:
            r = rng.randint(0, k)
        picked = rng.choice(ONE_SHAPES if mode == "one" else TWO_SHAPES)
        cons = {slot: {key: _strings(self.dense(r if principal else k - r,
                                                k, "small"))}
                for slot, key, principal in picked}
        return ["prescribe", "--ring", "m%dq" % k, "--element", _json(a),
                "--constraints", json.dumps(cons, sort_keys=True),
                "--mode", mode]


def _strings(m):
    return [[str(v) for v in row] for row in m]


def _json(m):
    return json.dumps(_strings(m))


def replay_argvs(seed=0):
    """One request per (size, scale, inverse or mode), the subject shapes
    stepping through rank 0..k and a nilpotent part, from a start that
    moves with the scale."""
    gen = _Requests(seed)
    out = []
    for k in (3, 4, 5):
        for start, scale in enumerate(SCALES):
            for turn, what in enumerate(INVERSES + MODES, start):
                a, r = gen.subject(k, scale, turn % (k + 2))
                out.append(gen.compute(k, a, what) if what in INVERSES
                           else gen.prescribe(k, a, r, what))
    return out


def test_q_replay_is_byte_identical(capsys):
    sha = hashlib.sha256()
    codes = set()
    for argv in replay_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        sha.update((json.dumps([code, captured.out, captured.err]) + "\n")
                   .encode())
    # the replay reaches both an answer and its absence
    assert codes == {0, 1}
    assert sha.hexdigest() == REPLAY_SHA256
