"""No dead code in src/ringinv: every module-level import is used in its
module (__init__.py re-exports and is exempt), and every top-level
_private name is referenced somewhere in the package.  The compute path
stands apart from the theorem checks and scans a ring only for the sets
with no linear structure; it and the ideal layer read no ring's
representation (one reason string names a backend), and the oracle
reads its ring only in its scope layer and lists no solution set
through the library.  In
rings.py only a backend class knows how it is stored, only rings.py
and ideals.py read the index of an interned ideal or the table's ideal
stores, only rings.py reads the table's coset store, and a store of
the table is read against _UNSET only in ElementTable.stored, the
product reads and the two memo decorators.  Every public function of
linalg.py, and every public method of its Subspace, is read in the
package outside its own definition: a helper only the tests read is
dead.  Stdlib ast only."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringinv"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    """(bound name, line) for each module-level import."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _used_names(tree, imports=False):
    """Every name read in the tree, as a bare name or an attribute, and
    with imports=True also every name imported from another module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unused_imports(trees):
    out = []
    for module, tree in trees.items():
        if module != "__init__.py":
            used = _used_names(tree)
            out.extend("%s:%d %s" % (module, line, name)
                       for name, line in _imported_names(tree)
                       if name not in used)
    return out


def unreferenced_private_names(trees):
    used = set().union(*(_used_names(tree, imports=True)
                         for tree in trees.values()))
    return ["%s:%d %s" % (module, line, name)
            for module, tree in trees.items()
            for name, line in _private_definitions(tree)
            if name not in used]


def _reads(node):
    """How often each name is read in node, as a bare name or an
    attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute))


def orphaned_helpers(trees, module="linalg.py", cls="Subspace"):
    """The public module-level functions of module, and the public methods
    of its class cls, that the package reads nowhere outside their own
    definition."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    body = trees[module].body
    defs = [node for node in body if isinstance(node, ast.FunctionDef)]
    for node in body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            defs += [sub for sub in node.body
                     if isinstance(sub, ast.FunctionDef)]
    return ["%s:%d %s" % (module, node.lineno, node.name) for node in defs
            if not node.name.startswith("_")
            and reads[node.name] == _reads(node)[node.name]]


# the modules that compute inverses import neither the oracle nor the
# projector algebra, which only the theorem checks use
COMPUTE_MODULES = ("geninv.py", "prescribed.py", "special.py")
CHECK_MODULES = frozenset(("oracle", "projectors"))


def compute_path_imports(trees):
    """Imports of a check module, at any depth, in a compute module."""
    out = []
    for module in COMPUTE_MODULES:
        for node in ast.walk(trees[module]):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [
                    alias.name for alias in node.names]
                hit = CHECK_MODULES.intersection(
                    part for name in names for part in name.split("."))
                out.extend("%s:%d %s" % (module, node.lineno, name)
                           for name in sorted(hit))
    return out


# the oracle lists a ring's elements and asks for its involution once per
# ring, in the context its scopes and clauses read
SCOPE_LAYER = "_Context"


def ring_reads(tree):
    """(top-level definition, read) for each .elements() call and each
    has_involution read in a module, in source order."""
    out = []
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr == "elements":
                out.append((sub.lineno, name, "elements()"))
            elif isinstance(sub, ast.Attribute) and \
                    sub.attr == "has_involution":
                out.append((sub.lineno, name, "has_involution"))
    return [(name, read) for _, name, read in sorted(out)]


# the compute path lists a ring only for a{7}, a{9} and a{7,9}: every other
# set is listed from its linear equations or its pairs of ideals
SCAN_FALLBACK = ("geninv.py", "_candidates", "elements()")


def compute_path_scans(trees):
    """(module, top-level definition, read) for each .elements() call in
    a compute module."""
    return [(module, name, read) for module in COMPUTE_MODULES
            for name, read in ring_reads(trees[module])
            if read == "elements()"]


# the ideal layer and the compute modules are written in ring operations
# and the backends' primitives (the memo decorators of rings.py key the
# answers), and one reason string names its backend
RING_OPERATION_MODULES = COMPUTE_MODULES + ("ideals.py",)
REPRESENTATION_ATTRS = frozenset(("payload", "divisor", "subspace"))
BACKENDS = frozenset(("MatrixRing", "ModularRing"))
REPRESENTATION_READERS = ["prescribed._outer_from_annihilators"]


def representation_reads(trees):
    """'module.definition' for each top-level definition of a ring
    operation module that reads .payload, .divisor or .subspace, or names
    a backend class or anything imported from linalg."""
    out = []
    for module in RING_OPERATION_MODULES:
        tree = trees[module]
        names = BACKENDS.union(
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if "linalg" in (node.module or "").split(".") + [alias.name])
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any(isinstance(sub, ast.Attribute)
                   and sub.attr in REPRESENTATION_ATTRS
                   or isinstance(sub, ast.Name) and sub.id in names
                   for sub in ast.walk(node)):
                out.append("%s.%s" % (module[:-3],
                                      getattr(node, "name", "<module>")))
    return out


# in rings.py only the backend classes and their constructors know how a
# backend is stored; Coset, classify and the rest go through Ring's protocol
BACKEND_DEFINITIONS = BACKENDS.union(("Zn", "MatQ", "MatF"))
BACKEND_FIELDS = frozenset(("n", "k", "field"))
# a backend class is tested for only where its own ring is compared, and in
# two places: cli's vector-span input check and a Z_n reason string in
# prescribed
BACKEND_TYPE_TESTS = [
    "cli._parse_ideal", "prescribed._outer_from_annihilators",
    "rings.ModularRing.__eq__", "rings.MatrixRing.__eq__"]


def backend_reads(tree):
    """Each top-level definition of rings.py, other than the backends and
    their constructors, that names a backend class or reads .n, .k or
    .field."""
    out = []
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if name in BACKEND_DEFINITIONS or \
                isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr in BACKEND_FIELDS
               or isinstance(sub, ast.Name) and sub.id in BACKENDS
               for sub in ast.walk(node)):
            out.append(name)
    return out


def backend_type_tests(trees):
    """'module.definition' for each isinstance(..., backend class), a
    method named with its class."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            defs = [(node.name + "." + sub.name, sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef)] \
                if isinstance(node, ast.ClassDef) else \
                [(getattr(node, "name", "<module>"), node)]
            out.extend(
                "%s.%s" % (module[:-3], name) for name, body in defs
                if any(isinstance(sub, ast.Call)
                       and getattr(sub.func, "id", None) == "isinstance"
                       and any(isinstance(arg, ast.Name) and arg.id in BACKENDS
                               for arg in ast.walk(sub.args[1]))
                       for sub in ast.walk(body)))
    return sorted(out)


# the library's solution-set listings, which the oracle must not use: its
# reference sets are scans of its context
LISTINGS = frozenset(("enumerate_inverse_set", "iter_inverse_set",
                      "star_class_set", "mitsch_extremes"))


def listing_uses(tree):
    """'line name' for each import or read of a listing in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = (node.name, node.asname)
        elif isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        else:
            continue
        out.update((node.lineno, name) for name in names if name in LISTINGS)
    return ["%d %s" % use for use in sorted(out)]


# an ideal's index and the stores of a table by ideal index are read only
# where ideals are interned and stored: ideals.py and rings.py.  An
# element's index is an attribute of the same name, and is read in
# rings.py only.
IDEAL_INDEX_MODULES = frozenset(("ideals.py", "rings.py"))
IDEAL_INDEX_ATTRS = frozenset((
    "index", "interned_ideals", "ideal_pairs", "interned",
    "_ideal_positions", "_ideal_contains", "_ideal_generators"))


# the members of the cosets a table has listed, and their count, are
# read in rings.py only
COSET_STORE_MODULES = frozenset(("rings.py",))
COSET_STORE_ATTRS = frozenset(("_cosets", "_stored_members"))


def _attribute_reads(trees, modules, attrs):
    """'module:line attribute' for each read of one of attrs outside
    modules."""
    return ["%s:%d %s" % read for read in sorted(
        (module, node.lineno, node.attr)
        for module, tree in trees.items()
        if module not in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in attrs)]


def ideal_index_reads(trees):
    """'module:line attribute' for each read of an ideal index attribute
    outside ideals.py and rings.py."""
    return _attribute_reads(trees, IDEAL_INDEX_MODULES, IDEAL_INDEX_ATTRS)


def coset_store_reads(trees):
    """'module:line attribute' for each read of the coset store outside
    rings.py."""
    return _attribute_reads(trees, COSET_STORE_MODULES, COSET_STORE_ATTRS)


# a store of the element table is read and filled in one place: the
# product reads of the hot path, the rows of the memo decorators, and
# ElementTable.stored for every other store
UNSET_READERS = [
    "rings.ElementTable._pairwise", "rings.ElementTable.stored",
    "rings.RingElement.__mul__", "rings.memoized", "rings.memoized_pair"]


def unset_compares(trees):
    """'module.definition' for each top-level definition, a method named
    with its class, that compares with _UNSET, sorted."""
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            defs = [(node.name + "." + sub.name, sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef)] \
                if isinstance(node, ast.ClassDef) else \
                [(getattr(node, "name", "<module>"), node)]
            out.update(
                "%s.%s" % (module[:-3], name) for name, body in defs
                if any(isinstance(sub, ast.Compare) and any(
                    getattr(side, "id", getattr(side, "attr", None))
                    == "_UNSET" for side in (sub.left, *sub.comparators))
                    for sub in ast.walk(body)))
    return sorted(out)


def test_no_unused_module_imports():
    assert unused_imports(_trees()) == []


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(_trees()) == []


def test_no_orphaned_linalg_helpers():
    assert orphaned_helpers(_trees()) == []


def test_compute_path_imports_no_checks():
    assert compute_path_imports(_trees()) == []


def test_oracle_reads_its_ring_in_the_scope_layer_only():
    assert ring_reads(_trees()["oracle.py"]) == [
        (SCOPE_LAYER, "has_involution"), (SCOPE_LAYER, "elements()")]


def test_oracle_uses_no_library_listing():
    assert listing_uses(_trees()["oracle.py"]) == []


def test_compute_path_scans_only_the_sets_with_no_linear_structure():
    assert compute_path_scans(_trees()) == [SCAN_FALLBACK]


def test_guard_flags_a_scan_on_the_compute_path():
    trees = {
        "geninv.py": ast.parse(
            "def _candidates(a, eqs, k):\n"
            "    return a.ring.elements(), eqs\n"),
        "prescribed.py": ast.parse(
            "def members(fam):\n"
            "    if fam.base.ring.has_involution:\n"
            "        return []\n"
            "    return [fam.element(y) for y in fam.base.ring.elements()]\n"),
        "special.py": ast.parse("def f(field):\n"
                                "    return list(field.elements())\n"),
    }
    assert compute_path_scans(trees) == [
        SCAN_FALLBACK, ("prescribed.py", "members", "elements()"),
        ("special.py", "f", "elements()")]


def test_ring_operation_modules_read_no_representation():
    assert representation_reads(_trees()) == REPRESENTATION_READERS


def test_guard_flags_a_representation_read_on_the_compute_path():
    trees = {
        "geninv.py": ast.parse(
            "from .linalg import rank as _rank\n"
            "def any_inner(a):\n    return a.payload\n"
            "def drazin_index(a):\n    return _rank(a.ring.field, a)\n"
            "def _drazin(a):\n    return a * a\n"),
        "prescribed.py": ast.parse(
            "from . import linalg\n"
            "from .rings import MatrixRing\n"
            "def _solve_in_ideal(a, s, u):\n    return s.divisor\n"
            "def mitsch_leq(y, z):\n"
            "    return isinstance(y.ring, MatrixRing)\n"
            "class Family:\n"
            "    def members(self):\n"
            "        return linalg.transpose(self.base)\n"),
        "special.py": ast.parse("def f(ideal):\n"
                                "    return ideal.subspace.dim\n"),
        "ideals.py": ast.parse(
            "from .linalg import transpose\n"
            "@memoized(lambda a, side: (a.payload, side))\n"
            "def annihilator(a, side):\n"
            "    return a.ring.ideal_annihilator(a, side)\n"
            "@memoized(lambda a, side: (a.payload, side))\n"
            "def principal(a, side):\n    return transpose(a)\n"
            "class SidedIdeal:\n"
            "    @memoized(lambda s, t: (s.key, t.divisor))\n"
            "    def sum(self, other):\n        return self\n"
            "def all_ideals(ring, side):\n"
            "    return isinstance(ring, ModularRing)\n"
            "@memoized(lambda s, t: (s.key, t.key))\n"
            "def direct_sum(s, t):\n    return s.payload\n"),
    }
    assert representation_reads(trees) == [
        "geninv.any_inner", "geninv.drazin_index",
        "prescribed._solve_in_ideal", "prescribed.mitsch_leq",
        "prescribed.Family", "special.f", "ideals.annihilator",
        "ideals.principal", "ideals.SidedIdeal", "ideals.all_ideals", "ideals.direct_sum"]


def test_rings_knows_a_backend_only_in_its_class():
    assert backend_reads(_trees()["rings.py"]) == []


def test_backend_classes_are_tested_for_only_where_listed():
    assert backend_type_tests(_trees()) == sorted(BACKEND_TYPE_TESTS)


def test_guard_flags_a_backend_read_outside_its_class():
    tree = ast.parse(
        "from .linalg import rank\n"
        "class ModularRing(Ring):\n"
        "    def size(self):\n        return self.n\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, ModularRing) and other.n == self.n\n"
        "class Coset:\n"
        "    def size(self):\n        return self.base.ring.n // self.step\n"
        "def linear_solutions(ring, equations):\n"
        "    return isinstance(ring, (Ring, MatrixRing))\n"
        "def classify(a):\n    return rank(a.ring.field, a.payload)\n"
        "def _is_nilpotent(a):\n    return a ** a.ring.k\n"
        "def Zn(n):\n    return ModularRing(n)\n"
        "def MatF(k, p):\n    return MatrixRing(k, PrimeField(p))\n"
        "_BACKENDS = (ModularRing, MatrixRing)\n"
        "def ring_from_name(name):\n    return Zn(int(name[3:]))\n")
    assert backend_reads(tree) == [
        "Coset", "linear_solutions", "classify", "_is_nilpotent",
        "<module>"]
    assert backend_type_tests({"rings.py": tree}) == [
        "rings.ModularRing.__eq__", "rings.linear_solutions"]


def test_ideal_index_is_read_only_where_ideals_are_interned():
    assert ideal_index_reads(_trees()) == []


def test_guard_flags_an_ideal_index_read_elsewhere():
    reads = ("def f(s, t):\n"
             "    table = s.ring.table\n"
             "    k = s.index * len(table.interned_ideals) + t.index\n"
             "    return table.ideal_pairs['sum'][k], table.interned(s)\n")
    trees = {module: ast.parse(reads) for module in (
        "ideals.py", "rings.py", "oracle.py")}
    trees["prescribed.py"] = ast.parse(
        "def g(table, ideal):\n"
        "    return table._ideal_contains[ideal.index]\n")
    trees["special.py"] = ast.parse(
        "def h(ring, s):\n"
        "    return ring.table.contains(s, ring.one), s.key\n")
    assert ideal_index_reads(trees) == [
        "oracle.py:3 index", "oracle.py:3 index",
        "oracle.py:3 interned_ideals", "oracle.py:4 ideal_pairs",
        "oracle.py:4 interned", "prescribed.py:2 _ideal_contains",
        "prescribed.py:2 index"]


def test_coset_store_is_read_only_in_rings():
    assert coset_store_reads(_trees()) == []


def test_guard_flags_a_coset_store_read_elsewhere():
    reads = ("def f(table, base, rep):\n"
             "    members = table._cosets[table.position(base), rep]\n"
             "    return members, table._stored_members\n")
    trees = {module: ast.parse(reads) for module in (
        "rings.py", "ideals.py", "oracle.py")}
    trees["prescribed.py"] = ast.parse(
        "def g(ring, base, rep):\n"
        "    return ring.table.coset_members(base, rep)\n")
    assert coset_store_reads(trees) == [
        "ideals.py:2 _cosets", "ideals.py:3 _stored_members",
        "oracle.py:2 _cosets", "oracle.py:3 _stored_members"]


def test_guards_flag_dead_code():
    trees = {
        "dead.py": ast.parse(
            "from math import gcd, lcm\n"
            "import os.path\n"
            "def _orphan():\n    return lcm(2, 3)\n"
            "def _called():\n    return 1\n"
            "_TABLE = _called()\n"
            "def _imported():\n    return 2\n"),
        "user.py": ast.parse("from .dead import _imported\n"),
        "__init__.py": ast.parse("from .dead import gcd\n"),
    }
    assert unused_imports(trees) == ["dead.py:1 gcd", "dead.py:2 os",
                                     "user.py:1 _imported"]
    assert unreferenced_private_names(trees) == [
        "dead.py:3 _orphan", "dead.py:7 _TABLE"]


def test_guard_flags_an_orphaned_linalg_helper():
    trees = {
        "linalg.py": ast.parse(
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def _private():\n    return 2\n"
            "class Subspace:\n"
            "    def __eq__(self, other):\n        return True\n"
            "    def contains(self, v):\n        return self.contains(v)\n"
            "    def dim(self):\n        return used()\n"),
        "rings.py": ast.parse("def f(s):\n    return s.dim()\n"),
    }
    assert orphaned_helpers(trees) == ["linalg.py:3 recursive",
                                       "linalg.py:10 contains"]


def test_guard_flags_a_check_import_on_the_compute_path():
    trees = {
        "geninv.py": ast.parse("from .rings import memoized\n"
                               "def f():\n    from .oracle import verify\n"),
        "prescribed.py": ast.parse("from . import projectors, special\n"),
        "special.py": ast.parse("import ringinv.oracle\n"
                                "from .geninv import satisfies\n"),
    }
    assert compute_path_imports(trees) == [
        "geninv.py:3 oracle", "prescribed.py:1 projectors",
        "special.py:1 oracle"]


def test_guard_flags_a_ring_read_outside_the_scope_layer():
    tree = ast.parse(
        "class _Context:\n"
        "    def __init__(self, ring):\n"
        "        self.star = ring.has_involution\n"
        "        self.elements = tuple(ring.elements())\n"
        "def _clause(ctx, a):\n"
        "    if a.ring.has_involution:\n"
        "        return [x for x in a.ring.elements() if x == a]\n")
    assert ring_reads(tree) == [
        ("_Context", "has_involution"), ("_Context", "elements()"),
        ("_clause", "has_involution"), ("_clause", "elements()")]


def test_guard_flags_a_library_listing_in_the_oracle():
    tree = ast.parse(
        "from .geninv import enumerate_inverse_set as listing\n"
        "from . import prescribed, special\n"
        "import ringinv.geninv\n"
        "def _clause(ctx, a, cons):\n"
        "    return (special.star_class_set(a, '13'),\n"
        "            prescribed.mitsch_extremes(a, cons),\n"
        "            list(ringinv.geninv.iter_inverse_set(a, ('1',))),\n"
        "            ctx.solutions(a, ('2',)), listing(a, ('1',)))\n")
    assert listing_uses(tree) == [
        "1 enumerate_inverse_set", "5 star_class_set", "6 mitsch_extremes",
        "7 iter_inverse_set"]


def test_table_stores_are_read_in_the_helper_and_the_hot_paths_only():
    assert unset_compares(_trees()) == UNSET_READERS


def test_guard_flags_a_store_read_outside_the_helper():
    trees = {
        "rings.py": ast.parse(
            "class ElementTable:\n"
            "    def stored(self, store, key, compute, *args):\n"
            "        out = store[key]\n"
            "        if out is _UNSET:\n"
            "            out = store[key] = compute(*args)\n"
            "        return out\n"
            "    def solve(self, a, u, side):\n"
            "        out = self._solves[a, u, side]\n"
            "        return None if out is _UNSET else out\n"
            "def memoized(fn):\n"
            "    def wrapper(a):\n"
            "        out = a.ring.memo.get(a, _UNSET)\n"
            "        return fn(a) if out is _UNSET else out\n"
            "    return wrapper\n"),
        "oracle.py": ast.parse(
            "from . import rings\n"
            "class _Context:\n"
            "    def leq(self, y, z):\n"
            "        out = self._leq[y, z]\n"
            "        return rings._UNSET is not out and out\n"
            "_EMPTY = [] == _UNSET\n"),
    }
    assert unset_compares(trees) == [
        "oracle.<module>", "oracle._Context.leq", "rings.ElementTable.solve",
        "rings.ElementTable.stored", "rings.memoized"]
