"""The ringinv benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload catalog|named-q|finite-scan \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ringinv from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 measures for at least S seconds, stopping after a whole round
(one pass over the catalog, or one round of requests), with nothing
wrapped, and reports the end-to-end metrics:
  setup_s      median of SETUP_RUNS set-ups (import ringinv, build the
               rings, generate the inputs) made in this process
  ops_per_s    operations per second of time spent in them; for catalog,
               cases checked per second
  op_p50_ms    median latency of one operation: one cli.main call, or for
               catalog one oracle.verify call (a call's latency being its
               median over the passes)
  op_tail_ms   latency at the workload's TAIL_PERCENTILE, over the same
               samples; the percentile and the sample count are printed
               on the line before the result
  ok_ratio     operations answered correctly / operations attempted
  peak_rss_mb  ru_maxrss of the process when the loop ends
Times are given at a reference machine speed (see PROBE_REF_S); the
measured times are printed on the line before the result.

--trace 1 runs the loop untraced for S/2 seconds, then replays the same
operations with every ringinv layer wrapped (see tracer.py).  It checks
that both passes produce the same output, and reports the per-layer
metrics: counts and self times per operation from the traced pass, the
per-theorem catalog times from the untraced pass, and trace.overhead_ratio
(time in traced operations / time in untraced ones).  The full span table
is printed before the result.

Answers are checked after the loop by answers.py (request workloads) or
against the recorded case counts (catalog).  For the default seed the
sha256 of the first DIGEST_OPS outputs must match the recorded digest.
"""

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import answers
import workloads
from tracer import CALLS, ITEMS, MODULES, REPEATS, SELF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
# op_tail_ms percentile per workload: the highest with at least ten of the
# samples of MIN_ROUNDS rounds beyond it (for catalog, of the 96 per-call
# medians).  A shorter run, as in the smoke test, falls back to the highest
# of TAIL_FALLBACK that has ten beyond.
TAIL_PERCENTILE = {"catalog": 89, "named-q": 99, "finite-scan": 97}
# Whole rounds a run measures at the least, so that the percentile above
# always has ten samples beyond it: a slow machine makes a run longer
# rather than its tail a different percentile.
MIN_ROUNDS = {"catalog": 3, "named-q": 6, "finite-scan": 8}
TAIL_FALLBACK = (90, 75, 50)
# On a shared host, speed can drift by 2x within seconds.  A probe (a
# fixed slice of pure-Python work) is timed before every
# operation; end-to-end times are reported at the reference speed, where
# the probe takes PROBE_REF_S: each latency is scaled by PROBE_REF_S over
# the median probe time of the PROBE_WINDOW operations on either side.
PROBE_REF_S = 0.0008
PROBE_WINDOW = 10
DEFAULT_SEED = 0
DIGEST_OPS = 50
# Rounds of requests generated during set-up; more are drawn from the same
# seeded stream if a run gets through all of them.
POOL_ROUNDS = {"named-q": 4, "finite-scan": 5}
# sha256 of the first DIGEST_OPS outputs: catalog reports (any seed; the
# `complete` flag is left out) and request stdout for DEFAULT_SEED.
DIGESTS = {
    "catalog":
        "03f9e97d68a0b3938a740e795b1df7d277d74d1c59259731b78a2ba31a7d5a56",
    "named-q":
        "a146e668b9720c0d0c53e0a283f265f382c406bd5cf41a6b90479a0916849127",
    "finite-scan":
        "95daab6e2a5b2cf8af4195df65b1312bbebf22d3412e812283673f0fbc4eaecb",
}


# -- workloads -------------------------------------------------------------

class Catalog:
    """oracle.verify per (ring, theorem); an operation is one call."""

    step = len(workloads.EXPECTED_CASES)   # stop only after whole passes

    def setup(self, seed):
        from ringinv import oracle
        from ringinv.rings import ring_from_name
        self.oracle = oracle
        rings = {name: ring_from_name(name)
                 for name in workloads.CATALOG_RINGS}
        self.calls = [(rings[r], r, tid)
                      for r, tid in workloads.catalog_calls(seed)]

    def ops(self):
        while True:
            for ring, name, tid in self.calls:
                yield (name, tid), self._call(ring, tid)

    def _call(self, ring, tid):
        def op():
            try:
                start = time.perf_counter()
                rep = self.oracle.verify(tid, ring,
                                         max_cases=workloads.CASE_CAP)
                return time.perf_counter() - start, rep
            except Exception:  # a traceback is a failed operation
                return 0.0, traceback.format_exc()
        return op

    @staticmethod
    def render(key, result):
        if isinstance(result, str):
            return result
        return json.dumps([result.ring, result.theorem, result.cases_checked,
                           result.counterexample])

    @staticmethod
    def check(key, result):
        if isinstance(result, str):
            return result.strip().splitlines()[-1]
        if result.counterexample is not None:
            return "counterexample %s" % result.counterexample
        want = workloads.EXPECTED_CASES[key]
        if result.cases_checked != want:
            return "%d cases checked, expected %d" % (result.cases_checked,
                                                      want)
        return None

    @staticmethod
    def work(results):
        return sum(r.cases_checked for r in results if not isinstance(r, str))

    @staticmethod
    def samples(run):
        """Every pass makes the same calls, so the latency samples are the
        calls' medians over the passes."""
        per_call = {}
        for key, spent in zip(run.keys, run.scaled):
            per_call.setdefault(key, []).append(spent)
        return {key: statistics.median(v) for key, v in per_call.items()}

    def digest_outputs(self, keys, outputs):
        """The first pass, in (ring, theorem) order: seed-independent."""
        first = sorted(zip(keys[:self.step], outputs[:self.step]))
        return [out for _, out in first]


class Requests:
    """cli.main(argv) with stdout and stderr captured; one op per call.
    A run stops only after a whole round of requests."""

    def __init__(self, name):
        self.name = name

    def setup(self, seed):
        from ringinv import cli
        self.cli = cli
        self.rounds = workloads.REQUEST_ROUNDS[self.name](seed)
        self.pool = [[(spec, workloads.argv(spec)) for spec in batch]
                     for batch in islice(self.rounds,
                                         POOL_ROUNDS[self.name])]
        self.step = len(self.pool[0])

    def ops(self):
        for batch in chain(self.pool, self._more()):
            for spec, argv in batch:
                yield spec, self._call(argv)

    def _more(self):
        for batch in self.rounds:
            batch = [(spec, workloads.argv(spec)) for spec in batch]
            self.pool.append(batch)
            yield batch

    def _call(self, argv):
        def op():
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a traceback is a failed request
                    code = traceback.format_exc()
                spent = time.perf_counter() - start
            finally:
                sys.stdout, sys.stderr = saved
            return spent, (code, out.getvalue(), err.getvalue())
        return op

    @staticmethod
    def render(key, result):
        return result[1]

    @staticmethod
    def check(spec, result):
        code, out, err = result
        if not isinstance(code, int):
            return "traceback: %s" % code.strip().splitlines()[-1]
        if err:
            return "stderr: %s" % err.strip()
        try:
            return answers.check(spec, code, out)
        except Exception:  # a malformed output is a wrong answer
            return "unreadable output: %s" % traceback.format_exc(
                ).strip().splitlines()[-1]

    @staticmethod
    def work(results):
        return len(results)

    @staticmethod
    def samples(run):
        return dict(enumerate(run.scaled))

    @staticmethod
    def digest_outputs(keys, outputs):
        return outputs[:DIGEST_OPS]


WORKLOADS = {"catalog": Catalog, "named-q": lambda: Requests("named-q"),
             "finite-scan": lambda: Requests("finite-scan")}


# -- measuring -------------------------------------------------------------

def probe():
    """Seconds taken by a fixed slice of pure-Python work like the
    library's own (Fraction arithmetic, 3x3 products mod 3 on tuples,
    hashing, int arithmetic): the machine's speed right now."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 30):
        acc += Fraction(i, i + 3)
        seen[tuple(acc * j for j in range(3))] = i
    x = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
    cols = tuple(zip(*x))
    for i in range(40):
        x = tuple(tuple(sum(a * b for a, b in zip(row, col)) % 3
                        for col in cols) for row in x)
        seen[x] = i
    total = 0
    for i in range(1500):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scale(probes):
    """Per sample, PROBE_REF_S over the median probe time of the samples
    within PROBE_WINDOW of it."""
    w = PROBE_WINDOW
    return [PROBE_REF_S / statistics.median(probes[max(0, i - w):i + w + 1])
            for i in range(len(probes))]


class Pass:
    """The operations of one loop: keys, results, measured latencies and
    latencies scaled to the reference speed, wall time."""

    def __init__(self, workload, seconds=None, count=None, min_ops=1):
        self.keys, self.latency, self.results, probes = [], [], [], []
        start = time.perf_counter()
        for key, op in workload.ops():
            probes.append(probe())
            spent, result = op()
            self.keys.append(key)
            self.latency.append(spent)
            self.results.append(result)
            done = len(self.results)
            if count is not None:
                if done == count:
                    break
            elif done % workload.step == 0 and done >= min_ops and \
                    time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.probe_s = statistics.median(probes)
        self.scaled = [spent * scale for spent, scale in
                       zip(self.latency, speed_scale(probes))]
        self.outputs = [workload.render(k, r)
                        for k, r in zip(self.keys, self.results)]


def setup(workload, seed):
    """Import ringinv afresh and set the workload up.  Returns the seconds
    taken, measured and scaled to the reference speed."""
    for name in [m for m in sys.modules
                 if m == "ringinv" or m.startswith("ringinv.")]:
        del sys.modules[name]
    probes = [probe() for _ in range(2 * PROBE_WINDOW + 1)]
    start = time.perf_counter()
    importlib.import_module("ringinv")
    workload.setup(seed)
    spent = time.perf_counter() - start
    return spent, spent * PROBE_REF_S / statistics.median(probes)


def percentile(sorted_values, q):
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)


def tail(name, latency):
    n = len(latency)
    q = next((q for q in (TAIL_PERCENTILE[name],) + TAIL_FALLBACK
              if n * (1 - q / 100.0) >= 10), TAIL_FALLBACK[-1])
    return q, percentile(sorted(latency), q)


def digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()


def check_pass(workload, run, problems):
    failed = 0
    for key, result in zip(run.keys, run.results):
        why = workload.check(key, result)
        if why:
            failed += 1
            if len(problems) < 20:
                problems.append("%s: %s" % (json.dumps(key)[:200], why))
    return failed


def digest_problem(name, seed, workload, run):
    got = digest(workload.digest_outputs(run.keys, run.outputs))
    want = DIGESTS[name]
    if (name == "catalog" or seed == DEFAULT_SEED) and got != want:
        return got, "output digest %s, recorded %s" % (got, want)
    return got, None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, workload, run, setups, failed):
    """The end-to-end metrics, with times at the reference speed; the
    measured times go into the info line."""
    n = len(run.results)
    work = workload.work(run.results)
    samples = list(workload.samples(run).values())
    q, tail_s = tail(name, samples)
    measured, scaled = zip(*setups)
    info = {"operations": n, "samples": len(samples), "tail_percentile": q,
            "wall_s": run.wall,
            "probe_median_s": run.probe_s, "measured": {
                "setup_s": statistics.median(measured),
                "ops_per_s": work / sum(run.latency)}}
    metrics = {
        "setup_s": metric(statistics.median(scaled), "s"),
        "ops_per_s": metric(work / sum(run.scaled), "1/s"),
        "op_p50_ms": metric(statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "ok_ratio": metric((n - failed) / n, "ratio"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
    }
    return metrics, info


def theorem_seconds(run):
    """Per theorem: the sum over rings of the median call time, at the
    reference speed."""
    out = dict.fromkeys(workloads.THEOREMS, 0.0)
    for (ring, tid), spent in Catalog.samples(run).items():
        out[tid] += spent
    return out


def per_layer(tracer, untraced, traced, is_catalog):
    """The per-layer metrics: counts and self times per operation of the
    traced pass, per-theorem times of the untraced one."""
    n = len(traced.results)
    m = {}

    def count(name, pattern, field=CALLS):
        m[name] = metric(tracer.total(pattern, field) / n, "count/op")

    def self_s(name, pattern):
        m[name] = metric(tracer.total(pattern, SELF) / n, "s/op")

    def repeat_ratio(name, pattern):
        calls = tracer.total(pattern, CALLS)
        m[name] = metric(tracer.total(pattern, REPEATS) / calls
                         if calls else 0.0, "ratio")

    for fn in ("rref", "mat_mul"):
        count("linalg.%s.calls" % fn, "linalg.%s" % fn)
        self_s("linalg.%s.self_s" % fn, "linalg.%s" % fn)
    count("linalg.Subspace.calls", "linalg.Subspace.__init__")
    self_s("linalg.Subspace.self_s", "linalg.Subspace.*")
    count("linalg.mat_inverse.calls", "linalg.mat_inverse")
    for fn in ("principal", "annihilator"):
        count("ideals.%s.calls" % fn, "ideals.%s" % fn)
        self_s("ideals.%s.self_s" % fn, "ideals.%s" % fn)
        repeat_ratio("ideals.%s.repeat_ratio" % fn, "ideals.%s" % fn)
    count("ideals.all_ideals.calls", "ideals.all_ideals")
    self_s("ideals.all_ideals.self_s", "ideals.all_ideals")
    count("ideals.from_elements.calls", "ideals.SidedIdeal.from_elements")
    count("rings.mul.calls", "rings.*.mul")
    count("rings.elements.calls", "rings.*.elements")
    count("rings.elements.items", "rings.*.elements", ITEMS)
    count("geninv.satisfies.calls", "geninv.satisfies")
    self_s("geninv.satisfies.self_s", "geninv.satisfies")
    count("geninv.any_inner.calls", "geninv.any_inner")
    for fn in ("prescribed.outer_with", "prescribed.one_inverse_family",
               "special.weighted_mp", "special.bc_inverse",
               "special.djordjevic_wei_inverse", "special.right_w_core"):
        self_s(fn + ".self_s", fn)
    for short in MODULES:
        m[short + ".self_s"] = metric(tracer.module_self(short) / n, "s/op")
    per_theorem = theorem_seconds(untraced) if is_catalog else \
        dict.fromkeys(workloads.THEOREMS, 0.0)
    for tid, spent in per_theorem.items():
        m["oracle.theorem.%s.s" % tid] = metric(spent, "s")
    m["trace.overhead_ratio"] = metric(sum(traced.scaled) /
                                       sum(untraced.scaled), "ratio")
    return m


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(name, seed, seconds, trace, min_rounds):
    """Set up and run one workload.  Returns (result, info, spans): the
    result object, the info line and, when traced, the span table."""
    workload = WORKLOADS[name]()
    setups = [setup(workload, seed) for _ in range(SETUP_RUNS)]
    problems, spans = [], None
    if not trace:
        run = Pass(workload, seconds=seconds,
                   min_ops=min_rounds * workload.step)
        failed = check_pass(workload, run, problems)
        metrics, info = end_to_end(name, workload, run, setups, failed)
    else:
        run = Pass(workload, seconds=seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Pass(workload, count=len(run.results))
        finally:
            tracer.restore()
        failed = check_pass(workload, run, problems)
        if traced.outputs != run.outputs:
            problems.append("traced and untraced outputs differ")
        metrics = per_layer(tracer, run, traced,
                            isinstance(workload, Catalog))
        info = {"operations": len(run.results), "untraced_wall_s": run.wall,
                "traced_wall_s": traced.wall}
        spans = tracer.table()
    info["digest"], why = digest_problem(name, seed, workload, run)
    if why:
        problems.append(why)
    info.update(workload=name, seed=seed, problems=problems)
    result = {"correct": failed == 0 and not problems,
              "attempted": len(run.results), "failed": failed,
              "metrics": metrics}
    return result, info, spans


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ringinv" / "__init__.py").is_file():
        sys.stderr.write("error: no ringinv package under %s\n" % src)
        return 2
    sys.path.insert(0, str(src))
    result, info, spans = benchmark(args.workload, args.seed, args.seconds,
                                    args.trace, MIN_ROUNDS[args.workload])
    for line in info["problems"]:
        sys.stderr.write("problem: %s\n" % line)
    if spans is not None:
        print(json.dumps({"spans": spans}, sort_keys=True))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
