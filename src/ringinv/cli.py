"""Command-line front end: compute, enumerate, prescribe, verify.

All input and output is JSON with exact scalars encoded as strings;
identical invocations produce byte-identical output.
"""

import argparse
import json
import sys

from .errors import (BudgetError, NotEnumerableError, PreconditionError,
                     UnsupportedInvolutionError, VerificationError)
from .geninv import (NAMED_INVERSES, count_inverse_set,
                     listed_inverse_set, parse_equations)
from .ideals import SidedIdeal, annihilator, principal
from .linalg import Subspace
from .prescribed import (SLOTS, IdealConstraints, one_inverse_family,
                         outer_with)
from .rings import MatF, MatQ, MatrixRing, Zn, ring_from_name
from . import special

EXIT_OK = 0
EXIT_NONE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_INVOLUTION = 65
EXIT_NOT_ENUMERABLE = 66
EXIT_INTERNAL = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, so that main
    reports them in one stderr line."""

    def error(self, message):
        raise UsageError(message)


def _json(text):
    """json.loads(text).  An integer literal with more digits than Python
    reads (sys.get_int_max_str_digits()) is a usage error; json.loads
    raises a bare ValueError for it, not a JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise UsageError("bad JSON: a number of more than %d digits"
                         % sys.get_int_max_str_digits()) from None


def parse_ring(spec):
    """A ring from a shorthand (zn:6, m2f2, m2q) or a JSON object."""
    if isinstance(spec, str):
        text = spec.strip()
        if not text.startswith("{"):
            try:
                return ring_from_name(text)
            except ValueError as exc:
                raise UsageError(str(exc))
        spec = _json(text)
    # integers are read through str, as ModularRing.parse reads them, so
    # that 6.9, true and 1e3 are refused rather than truncated
    try:
        kind = spec.get("kind")
        if kind == "zn":
            return Zn(int(str(spec["n"])))
        if kind == "matrix":
            k = int(str(spec["size"]))
            scalars = spec.get("scalars", {})
            skind = scalars.get("kind")
            involution = spec.get("involution", "transpose")
            if involution != "transpose":
                raise UsageError(
                    "only the transpose involution is supported")
            if skind == "q":
                return MatQ(k)
            if skind in ("fp", "f", "gf"):
                return MatF(k, int(str(scalars["p"])))
    except KeyError as exc:
        raise UsageError("ring spec %r is missing key %s" % (spec, exc))
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError("bad ring spec %r: %s" % (spec, exc))
    raise UsageError("unknown ring spec %r" % (spec,))


def parse_element(ring, text):
    try:
        obj = _json(text)
    except (TypeError, json.JSONDecodeError):
        obj = text
    try:
        return ring.parse(obj)
    except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
        raise UsageError("bad element %r: %s" % (text, exc))


def _parse_ideal(ring, side, desc):
    if not isinstance(desc, dict) or len(desc) != 1:
        raise UsageError("ideal descriptor must have exactly one key, "
                         "got %r" % (desc,))
    key, val = next(iter(desc.items()))
    if key == "principal":
        return principal(parse_element(ring, val), side)
    if key == "annihilator":
        return annihilator(parse_element(ring, val), side)
    if key == "set":
        if not ring.finite:
            raise UsageError("extensional ideals need a finite ring")
        if not isinstance(val, list):
            raise UsageError("a set ideal needs a list of elements")
        return SidedIdeal.from_elements(
            ring, side, [parse_element(ring, v) for v in val])
    if key in ("colspace", "rowspace", "span"):
        if not isinstance(ring, MatrixRing):
            raise UsageError("vector-span ideals need a matrix ring")
        if not isinstance(val, list) or not all(
                isinstance(v, list) and len(v) == ring.k for v in val):
            raise UsageError("a %s ideal needs a list of vectors of "
                             "length %d" % (key, ring.k))
        field = ring.field
        try:
            vectors = [tuple(field.parse(x) for x in v) for v in val]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad %s vector: %s" % (key, exc))
        return SidedIdeal(ring, side,
                          Subspace.from_vectors(field, ring.k, vectors))
    raise UsageError("unknown ideal descriptor key %r" % key)


def parse_constraints(ring, text):
    try:
        obj = _json(text)
    except json.JSONDecodeError as exc:
        raise UsageError("bad constraints JSON: %s" % exc)
    if not isinstance(obj, dict):
        raise UsageError("constraints must be a JSON object")
    slots = {slot.name: slot.side for slot in SLOTS}
    kwargs = {}
    for slot, desc in obj.items():
        if slot not in slots:
            raise UsageError("unknown constraint slot %r (expected one of "
                             "%s)" % (slot, ", ".join(sorted(slots))))
        kwargs[slot] = _parse_ideal(ring, slots[slot], desc)
    if not kwargs:
        raise UsageError("constraints object is empty")
    return IdealConstraints(**kwargs)


_encode = json.JSONEncoder(sort_keys=True).encode


def emit(obj, members=None):
    """Write obj as one line of JSON with sorted keys.  members, when
    given, is an iterable of JSON values written as obj["members"] one at
    a time, so that a large answer is never held as one list or string."""
    if members is None:
        sys.stdout.write(_encode(obj) + "\n")
        return
    write = sys.stdout.write
    sep = "{"
    for key in sorted([*obj, "members"]):
        write("%s%s: " % (sep, _encode(key)))
        sep = ", "
        if key != "members":
            write(_encode(obj[key]))
            continue
        write("[")
        for i, item in enumerate(members):
            write(", " + _encode(item) if i else _encode(item))
        write("]")
    write("}\n")


def _rendered(render, *args):
    """render(*args), the JSON of an answer.  An entry with more digits
    than Python writes as a string (sys.get_int_max_str_digits()) is a
    budget error, caught as the answer is written rather than checked
    beforehand."""
    try:
        return render(*args)
    except ValueError:
        raise BudgetError("the answer has an entry of more than %d digits, "
                          "past the output limit"
                          % sys.get_int_max_str_digits()) from None


# -- subcommands -----------------------------------------------------------

# the weighted inverses: name -> (function of special, its weight flags),
# an absent weight being 1.  The function is named, not held, so that
# rebinding it in special (as perfbench's tracer does) takes effect.
_WEIGHTED_INVERSES = {
    "ef-mp": ("weighted_mp", "ef"),
    "e-core": ("e_core", "e"),
    "f-dual-core": ("f_dual_core", "f"),
    "w-core": ("w_core", "w"),
    "v-dual-core": ("v_dual_core", "v"),
    "right-w-core": ("right_w_core", "w"),
    "left-v-dual-core": ("left_v_dual_core", "v"),
}


def cmd_compute(args):
    ring = parse_ring(args.ring)
    a = parse_element(ring, args.element)
    name = args.inverse

    def weight(flag):
        text = getattr(args, flag)
        return ring.one if text is None else parse_element(ring, text)

    if name in NAMED_INVERSES:
        rep = NAMED_INVERSES[name](a)
    elif name in _WEIGHTED_INVERSES:
        fn, flags = _WEIGHTED_INVERSES[name]
        rep = getattr(special, fn)(a, *map(weight, flags))
    elif name == "bc":
        if args.b is None or args.c is None:
            raise UsageError("the bc inverse needs --b and --c")
        rep = special.bc_inverse(a, parse_element(ring, args.b),
                                 parse_element(ring, args.c),
                                 args.flavor or "full")
    elif name == "pq":
        if args.p is None or args.q is None:
            raise UsageError("the pq inverse needs --p and --q")
        rep = special.pq_inverse(a, parse_element(ring, args.p),
                                 parse_element(ring, args.q),
                                 args.flavor or "image_kernel")
    elif name == "bott-duffin":
        if args.p is None:
            raise UsageError("the Bott-Duffin inverse needs --p")
        q = None if args.q is None else parse_element(ring, args.q)
        rep = special.bott_duffin_inverse(a, parse_element(ring, args.p), q)
    else:
        raise UsageError(
            "unknown inverse %r (expected one of: %s)" % (
                name, ", ".join(sorted([*NAMED_INVERSES, *_WEIGHTED_INVERSES,
                                        "bc", "pq", "bott-duffin"]))))
    out = _rendered(rep.to_json)
    out["ring"] = ring.short_name
    emit(out)
    return EXIT_OK if rep.exists else EXIT_NONE


def cmd_enumerate(args):
    ring = parse_ring(args.ring)
    a = parse_element(ring, args.element)
    try:
        equations = parse_equations(args.equations)
    except ValueError as exc:
        raise UsageError(str(exc))
    out = {
        "ring": ring.short_name,
        "element": ring.to_json(a),
        "equations": list(equations),
    }
    if args.count_only:
        out["count"] = count_inverse_set(a, equations, k=args.k)
        emit(out)
    else:
        out["count"], members = listed_inverse_set(a, equations, k=args.k)
        emit(out, members=map(ring.to_json, members))
    return EXIT_OK


def cmd_prescribe(args):
    ring = parse_ring(args.ring)
    a = parse_element(ring, args.element)
    cons = parse_constraints(ring, args.constraints)
    out = {"ring": ring.short_name, "element": ring.to_json(a),
           "mode": args.mode, "shape": list(cons.shape())}
    if args.mode == "one":
        fam = one_inverse_family(a, cons)
        if fam is None:
            out["exists"] = False
            out["reason"] = ("no {1}-inverse realizes the prescribed "
                             "ideals (direct-sum or regularity failure)")
            emit(out)
            return EXIT_NONE
        out["exists"] = True
        for key in ("base", "left_mult", "right_mult"):
            out[key] = _rendered(ring.to_json, getattr(fam, key))
        if ring.finite:
            coset = fam.coset()
            out["count"] = coset.size()
            emit(out, members=map(ring.to_json, coset))
        else:
            emit(out)
        return EXIT_OK
    if args.mode not in ("outer", "reflexive"):
        raise UsageError("mode must be one, outer, or reflexive")
    rep = outer_with(a, cons, reflexive=(args.mode == "reflexive"))
    out.update(_rendered(rep.to_json))
    emit(out)
    return EXIT_OK if rep.exists else EXIT_NONE


def cmd_verify(args):
    from . import oracle    # only verify needs the catalog
    ring = parse_ring(args.ring)
    if args.theorems.strip() == "all":
        ids = [case.id for case in oracle.CATALOG]
    else:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
    try:
        reports = oracle.verify_all(ring, ids, max_cases=args.max_cases,
                                    max_seconds=args.max_seconds)
    except PreconditionError as exc:
        raise UsageError(str(exc))
    emit([rep.to_json() for rep in reports])
    if any(rep.counterexample is not None for rep in reports):
        return EXIT_COUNTEREXAMPLE
    if any(not rep.complete for rep in reports):
        return EXIT_BUDGET
    return EXIT_OK


# -- argument plumbing ------------------------------------------------------

def _nonnegative(convert):
    """An argparse type: convert(text), refused unless it is >= 0 (so
    also when it is nan)."""
    def parse(text):
        value = convert(text)
        if not value >= 0:
            raise ValueError(text)
        return value
    parse.__name__ = "nonnegative " + convert.__name__
    return parse


def build_parser():
    # flags must be spelled out in full, so that a job option names one
    parser = _Parser(
        prog="ringinv", allow_abbrev=False,
        description="Exact generalized inverses in Z_n and matrix rings.")
    parser.add_argument("--job", help="path to a JSON job spec, or - for "
                                      "stdin")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compute", help="compute a named inverse",
                       allow_abbrev=False)
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--inverse", required=True)
    for flag in ("--e", "--f", "--w", "--v", "--b", "--c", "--p", "--q"):
        p.add_argument(flag)
    p.add_argument("--flavor")

    p = sub.add_parser("enumerate", help="enumerate a{i,j,...}",
                       allow_abbrev=False)
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--equations", required=True)
    p.add_argument("--k", type=_nonnegative(int))
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("prescribe",
                       help="inverses with prescribed ideals",
                       allow_abbrev=False)
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--mode", required=True,
                   choices=("one", "outer", "reflexive"))

    p = sub.add_parser("verify", help="run the verification catalog",
                       allow_abbrev=False)
    p.add_argument("--ring", required=True)
    p.add_argument("--theorems", default="all")
    p.add_argument("--max-cases", type=_nonnegative(int))
    p.add_argument("--max-seconds", type=_nonnegative(float))
    return parser


def _read_job(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read job file: %s" % exc)


def _argv_from_job(text):
    """The argv a JSON job stands for: its command, then --flag=value for
    ring, element and each option, with JSON for non-string values; true
    is a bare flag and false or null leaves the flag out."""
    try:
        job = _json(text)
    except json.JSONDecodeError as exc:
        raise UsageError("bad job JSON: %s" % exc)
    if not isinstance(job, dict) or "command" not in job:
        raise UsageError('a job needs a "command" key')
    command = job["command"]
    if not isinstance(command, str) or command not in _DISPATCH:
        raise UsageError("unknown command %r" % (command,))
    options = job.get("options", {})
    if not isinstance(options, dict):
        raise UsageError("job options must be a JSON object")
    options = dict(options)
    for key in ("ring", "element"):
        if key in job:
            options[key] = job[key]
    argv = [command]
    for key, value in options.items():
        if not key.isidentifier() or key == "help":
            raise UsageError("unknown job option %r" % key)
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False and value is not None:
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            argv.append("%s=%s" % (flag, value))
    return argv


_DISPATCH = {
    "compute": cmd_compute,
    "enumerate": cmd_enumerate,
    "prescribe": cmd_prescribe,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.job is not None:
            if args.command is not None:
                raise UsageError("--job takes no command; the job names it")
            args = parser.parse_args(_argv_from_job(_read_job(args.job)))
        if args.command is None:
            raise UsageError("a command is required: %s"
                             % ", ".join(_DISPATCH))
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (UsageError, PreconditionError) as exc:
        return _fail(EXIT_USAGE, "error: %s" % exc)
    except json.JSONDecodeError as exc:
        return _fail(EXIT_USAGE, "error: bad JSON: %s" % exc)
    except UnsupportedInvolutionError as exc:
        return _fail(EXIT_INVOLUTION, "error: %s" % exc)
    except NotEnumerableError as exc:
        return _fail(EXIT_NOT_ENUMERABLE, "error: %s" % exc)
    except BudgetError as exc:
        return _fail(EXIT_BUDGET, "error: %s" % exc)
    except VerificationError as exc:
        return _fail(EXIT_INTERNAL, "internal error: %s" % exc)


def _fail(code, message):
    """Write message as one stderr line, newlines in it escaped, and
    return the exit code."""
    sys.stderr.write(message.replace("\n", "\\n") + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
