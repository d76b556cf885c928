"""Interface coverage: short-name-set membership, dialog classes against
the Cauchy covering column, the harness exit code for contract violations,
and censuses of the public API (error classes and the raises that use
them, defaulted and unread parameters, definitions that only tests read, bad
configurations) and of the readers of private definitions."""

import ast
import importlib
import inspect
import pathlib
import random
from fractions import Fraction

import pytest

from metrent.baire import name_from_trace
from metrent.compact import (CompactReprParams, compact_name,
                             greedy_uniform_seq, measured_size_unit_interval,
                             q_seq, unit_interval_approx, unit_interval_ell,
                             unit_interval_space)
from metrent.entropy import (ApproxSetSpec, ContractViolation, PointCloud,
                             cloud_from_vectors, covering_number,
                             dialog_cover_experiment)
from metrent.funcs import PiecewiseLinear, StepFn, modulus_fn
from metrent.machine import (RunningTime, check_monotone_sampled, const_time,
                             equality_from_metric)
from metrent.reprs import (cauchy_metric_program, cauchy_metric_time,
                           cauchy_name, dyadic_line_index)
from metrent.schauder import HaarSystem, chi_expand
from metrent.strings import (ConfigError, ContractError, InvalidConfig,
                             MetrentError, ceil_lb_ratio, floor_lb, nat_str,
                             tuple_strs)


def test_short_name_set_membership():
    # decoded points of names of length l lie, for each n up to the scan
    # depth, within 2^-n of one of the first 2^(l(n) S(l,n)) nodes
    space = unit_interval_space()
    params = CompactReprParams(ell=unit_interval_ell, S=const_time(1))
    rnd = random.Random(55)
    for _ in range(15):
        x = Fraction(rnd.randrange(0, 65), 64)
        compact_name(space, params, x)      # representability check
        for n in range(7):
            budget = 1 << (unit_interval_ell(n) * 1)
            assert any(abs(x - q_seq(i)) <= Fraction(1, 1 << n)
                       for i in range(budget))


def test_dialog_classes_vs_cauchy_covering():
    # the observed class count respects the dialog bound while the exact
    # covering number of the sampled set stays within the 2^l(n) reference
    M = unit_interval_space()
    metric = cauchy_metric_program(M)
    prog, T_eq = equality_from_metric(metric, cauchy_metric_time())
    budget = RunningTime(lambda l, n: 8 * T_eq.bound(l, n) + 8)
    rnd = random.Random(99)
    points = [Fraction(rnd.randrange(0, 65), 64) for _ in range(40)]
    from metrent.compact import unit_interval_short_approx
    names = [cauchy_name(M, unit_interval_short_approx(x)) for x in points]
    l = lambda n: n
    cloud = PointCloud(points, lambda i, j: abs(points[i] - points[j]))
    for n in range(1, 5):
        rep = dialog_cover_experiment(names, points, prog, budget, l, n,
                                      M.exact_dist, 0)
        assert rep.classes_observed <= 1 << min(rep.dialog_bound, 64)
        cover = covering_number(cloud, n, "greedy")
        assert cover.exponent <= l(n) + 1      # sampled subset of xi(K_l)


# every error class the library defines: its branch of the error root, and
# the stdlib base it keeps beside it so that callers catching that base still
# work (ContractViolation has none: a contract check is not an assert).  A
# class stays only while some handler tells it apart from its parent
ERROR_CLASSES = {
    "InvalidConfig": (ConfigError, ValueError),
    "MalformedName": (ContractError, ValueError),
    "ParameterViolation": (ContractError, ValueError),
    "BudgetExceeded": (ContractError, RuntimeError),
    "ContractViolation": (ContractError, None),
}


def test_every_error_takes_one_branch_of_the_root():
    import pkgutil

    import metrent
    roots = (MetrentError, ConfigError, ContractError)
    found = {}
    for info in pkgutil.iter_modules(metrent.__path__):
        mod = importlib.import_module(f"metrent.{info.name}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__ == mod.__name__ and obj not in roots:
                found[obj.__name__] = obj
    assert set(found) == set(ERROR_CLASSES)
    for name, cls in found.items():
        branch, base = ERROR_CLASSES[name]
        assert issubclass(cls, ConfigError) != issubclass(cls, ContractError), name
        assert issubclass(cls, branch), name
        if base is not None:
            assert issubclass(cls, base), name
    assert not issubclass(found["ContractViolation"], AssertionError)


ROOT = pathlib.Path(__file__).resolve().parents[1]

# the raises in src/metrent that name no class of the error root, as
# (module, enclosing definition, class): a record refuses assignment with
# the AttributeError of Python's read-only attribute protocol
NON_ROOT_RAISES = {
    ("strings", "_FrozenRecord.__setattr__", "AttributeError"),
}


def _qualified_nodes(node, qual=""):
    """(enclosing qualified name, node) for each node under node that is not
    a function or class definition."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _qualified_nodes(child, f"{qual}.{child.name}".lstrip("."))
            continue
        yield qual, child
        yield from _qualified_nodes(child, qual)


def _raises(tree):
    """(enclosing qualified name, raised class name) for each raise in the
    tree; the name is None for a bare re-raise."""
    for qual, node in _qualified_nodes(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield qual, getattr(exc, "id", getattr(exc, "attr", None))


def test_every_raise_names_a_class_of_the_error_root():
    found = set()
    for path in sorted((ROOT / "src" / "metrent").glob("*.py")):
        name = "metrent" if path.stem == "__init__" else f"metrent.{path.stem}"
        mod = importlib.import_module(name)
        for qual, raised in _raises(ast.parse(path.read_text())):
            cls = getattr(mod, raised, None) if raised else None
            if not (isinstance(cls, type) and issubclass(cls, MetrentError)):
                found.add((path.stem, qual, raised))
    assert found == NON_ROOT_RAISES


# the precision ladders of src/metrent, as (module, enclosing definition):
# every Haar answer rounds through _round_enclosure or exactly, and
# RootSum.sign refines until the sign shows
LADDERS = {("schauder", "_round_enclosure"), ("schauder", "RootSum.sign")}


def test_every_precision_ladder_is_listed():
    found = set()
    for path in sorted((ROOT / "src" / "metrent").glob("*.py")):
        for qual, node in _qualified_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult) \
                    and getattr(node.target, "id", None) == "prec" \
                    and getattr(node.value, "value", None) == 2:
                found.add((path.stem, qual))
    assert found == LADDERS


def _public_defs():
    """(module, qualified name, node) for each public top-level function and
    class of src/metrent, and each public method and __init__ of a public
    class, read from the source."""
    for path in sorted((ROOT / "src" / "metrent").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((path.stem, f"{node.name}.{m.name}", m)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and (not m.name.startswith("_") or m.name == "__init__"))


# every defaulted parameter of the public API, as (module, callable,
# parameter); a new knob needs a visible edit here
DEFAULTED_PARAMETERS = {
    ("baire", "Name.__init__", "label"),
    ("cli", "main", "argv"),
    ("entropy", "covering_number", "mode"),
    ("machine", "Ctx.tick", "k"),
    ("machine", "RunningTime.__init__", "evaluator"),
}


def _public_callables(mod):
    """(qualified name, function) for the public functions of a module and
    the public methods and __init__ of its public classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif isinstance(obj, type):
            for attr, fn in vars(obj).items():
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if inspect.isfunction(fn) and (not attr.startswith("_")
                                               or attr == "__init__"):
                    yield f"{name}.{attr}", fn


def test_every_defaulted_parameter_is_listed():
    import pkgutil

    import metrent
    found = set()
    for info in pkgutil.iter_modules(metrent.__path__):
        mod = importlib.import_module(f"metrent.{info.name}")
        for qual, fn in _public_callables(mod):
            found |= {(info.name, qual, p.name)
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    assert found == DEFAULTED_PARAMETERS
    from metrent.compact import _max_separated
    assert list(inspect.signature(_max_separated).parameters) == \
        ["points", "dist", "thr"]


# every parameter of a public function or method that its body never reads:
# benchmarks/ calls these four with these signatures (a step-form Haar vector
# does not depend on p, which only HaarSystem reads)
UNREAD_PARAMETERS = {
    ("banach", "dsq_to_xi", "params"),
    ("banach", "haar_vector", "p"),
    ("banach", "lp_name", "p"),
    ("banach", "lp_to_xi", "params"),
}


def test_every_unread_parameter_is_listed():
    found = set()
    for mod, qual, node in _public_defs():
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None}
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found |= {(mod, qual, p) for p in params - read - {"self", "cls"}}
    assert found == UNREAD_PARAMETERS


# the public top-level definitions of src/metrent, and the public methods of
# its public classes, that no code in src/, scripts/ or benchmarks/ reads,
# each with the reason it stays: a paper check (its consumer is the
# acceptance suite) or the ROADMAP item that will give it a library caller
# (a reference that only tests compare against lives in
# tests/fraction_reference.py).  A new public definition needs a reader or
# a visible edit here.  A bare name reads a definition only in a
# file that defines or imports that name, so a local variable does not count;
# an attribute counts by its name alone, as the census does not infer types.
# So a method is read whenever any attribute of its name is.
TEST_ONLY_PUBLIC = {
    ("baire", "in_kl"): "paper check: finite-depth membership in K_l",
    ("baire", "is_length_monotone"):
        "ROADMAP item 13: Kawamura-Cook's length-monotone names",
    ("baire", "pad"): "ROADMAP item 13: the padded twin of a name",
    ("baire", "unpad"): "ROADMAP item 13: the reader of a padded twin",
    ("banach", "add_time"): "paper check: the budget of the metered addition",
    ("banach", "banach_add_program"):
        "paper check: metered addition on Banach names",
    ("banach", "check_growth"):
        "paper check: samples the growth hypothesis BanachReprParams states, "
        "as check_monotone_sampled does for monotonicity",
    ("banach", "counted"): "paper check: C10's query counter",
    ("banach", "xi_decode_pl"):
        "ROADMAP item 18: the library decoder of a hat-coefficient name, read "
        "back as the function it names",
    ("compact", "check_uniformly_dense"):
        "ROADMAP item 12: the check on the sequences compact names are built over",
    ("compact", "compact_to_relativized"):
        "ROADMAP item 10: the admissibility translation, to be metered",
    ("compact", "greedy_uniform_seq"):
        "ROADMAP item 12: the uniformly dense sequence of a cloud",
    ("compact", "lipschitz_cloud"):
        "ROADMAP item 8: the Lipschitz ball, whose entropy forces the trade-off",
    ("compact", "relativized_to_compact"):
        "ROADMAP item 10: the admissibility translation, to be metered",
    ("entropy", "build_large_compact"):
        "paper check: C05's compact of prescribed size",
    ("entropy", "check_spanning_le_covering"):
        "paper check: C05's spanning-versus-covering clause",
    ("entropy", "cloud_from_vectors"): "paper check: C05's sup-metric clouds",
    ("funcs", "approx_check"): "paper check: C09's smoothing approximation",
    ("funcs", "lp_modulus_shift_check"): "paper check: C09's shift lemma",
    ("machine", "check_monotone_sampled"):
        "paper check: sampled monotonicity of second-order running times",
    ("machine", "is_time_constructible"):
        "paper check: time-constructibility under the meter",
    ("machine", "length_time_by_convention"):
        "ROADMAP item 5: the fast length, read at 0^k",
    ("machine", "length_time_by_scan"):
        "ROADMAP item 5: the slow length, by exhaustive scan",
    ("reprs", "cauchy_validate"):
        "paper check: rejects non-names of the Cauchy representation",
    ("reprs", "co_re_reject"):
        "paper check: the co-r.e. rejection of non-names",
    ("reprs", "dyadic_line_space"):
        "ROADMAP item 5: the real line, the non-compact space the Cauchy "
        "validators run on",
    ("reprs", "real_name"): "ROADMAP item 5: the standard names of reals",
    ("reprs", "real_validate"):
        "paper check: rejects non-names of the standard real representation",
    ("reprs", "relativized_cauchy_name"):
        "ROADMAP item 10: the relativized side of the admissibility translation",
    ("reprs", "relativized_metric_program"):
        "ROADMAP item 10: the metered metric on relativized names",
    ("reprs", "relativized_metric_time"):
        "ROADMAP item 10: the budget of the relativized metric",
    ("schauder", "chi_expand"): "paper check: C08's indicator expansions",
    ("schauder", "fs_separation"):
        "paper check: C11's separation of the hat functions",
}
REASONS = ("paper check: ", "ROADMAP item ")


def _assigned(node):
    """The Name targets of a top-level assignment statement."""
    if isinstance(node, ast.Assign):
        return [t for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target]
    return []


def _reads(tree):
    """(name, line) for each node of a module through which it reads a
    definition: an Attribute, an import alias, and a bare Name whose name
    the module defines at top level or imports."""
    known = {n.name for n in tree.body
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    known |= {t.id for n in tree.body for t in _assigned(n)}
    known |= {a.asname or a.name.partition(".")[0] for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in known:
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2], n.lineno


def test_every_test_only_public_definition_is_listed():
    reads = {}
    for top in ("src", "scripts", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for name, line in _reads(ast.parse(path.read_text())):
                reads.setdefault(name, []).append((path.resolve(), line))
    found = set()
    for mod, qual, node in _public_defs():
        if qual.endswith(".__init__"):
            continue
        own = (ROOT / "src" / "metrent" / f"{mod}.py").resolve()
        # a read inside the definition's own body does not count
        if all(path == own and node.lineno <= line <= node.end_lineno
               for path, line in reads.get(node.name, ())):
            found.add((mod, qual))
    assert found == set(TEST_ONLY_PUBLIC)
    for key, reason in TEST_ONLY_PUBLIC.items():
        assert reason.startswith(REASONS), key
        assert reason.partition(": ")[2].strip(), key


def _private_defs():
    """(module, qualified name, node) for each private top-level function,
    class and constant of src/metrent, and each private method (not a
    dunder) of any class; a constant's node is its assignment."""
    for path in sorted((ROOT / "src" / "metrent").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = [t.id for t in _assigned(node)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            yield from ((path.stem, n, node) for n in names if n.startswith("_")
                        and not n.startswith("__"))
            if isinstance(node, ast.ClassDef):
                yield from ((path.stem, f"{node.name}.{m.name}", m)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and m.name.startswith("_")
                            and not m.name.endswith("__"))


def test_every_private_definition_has_a_library_reader():
    # a fold that leaves a helper behind leaves it with no reader; reads
    # count as in the public census, from src/metrent only
    reads = {}
    for path in (ROOT / "src" / "metrent").glob("*.py"):
        for name, line in _reads(ast.parse(path.read_text())):
            reads.setdefault(name, []).append((path.stem, line))
    unread = [(mod, qual) for mod, qual, node in _private_defs()
              if all(where == mod and node.lineno <= line <= node.end_lineno
                     for where, line in reads.get(qual.rpartition(".")[2], ()))]
    assert unread == []


# one bad configuration per library entry point that reads one, and one
# argument outside the documented domain per check that a public callable
# reaches
INVALID_CONFIGS = {
    "ApproxSetSpec": lambda: ApproxSetSpec([Fraction(1, 2), Fraction(1)]),
    "modulus_fn": lambda: modulus_fn([2, 1]),
    "covering_number": lambda: covering_number(
        cloud_from_vectors([(0,), (1,)]), 0, "bogus"),
    "nat_str": lambda: nat_str(-1),
    "tuple_strs": lambda: tuple_strs(["0"]),
    "ceil_lb_ratio": lambda: ceil_lb_ratio(0),
    "floor_lb": lambda: floor_lb(0),
    "dyadic_line_index": lambda: dyadic_line_index(Fraction(1, 3)),
    "q_seq": lambda: q_seq(-1),
    "unit_interval_approx": lambda: unit_interval_approx(3, 0),
    "measured_size_unit_interval": lambda: measured_size_unit_interval(-1),
    "StepFn.levels": lambda: StepFn.build([0, 1], [1, 2]),
    "StepFn.cuts": lambda: StepFn.build([1, 0], [1]),
    "PiecewiseLinear.values": lambda: PiecewiseLinear.build([0, 1], [0]),
    "PiecewiseLinear.breakpoints": lambda: PiecewiseLinear.build([1, 0], [0, 1]),
    "check_monotone_sampled": lambda: check_monotone_sampled(
        const_time(1), [(lambda n: 1, lambda n: 0)], 0),
    "chi_expand": lambda: chi_expand(1, 2),
    "HaarSystem.norm_power": lambda: HaarSystem(Fraction(3, 2)).norm_power([]),
    "name_from_trace": lambda: name_from_trace("0\t1x"),
    "greedy_uniform_seq": lambda: greedy_uniform_seq(
        PointCloud([], lambda i, j: 0), 2),
}


@pytest.mark.parametrize("site", sorted(INVALID_CONFIGS))
def test_invalid_config_takes_the_config_branch(site):
    # a bad request raises a ConfigError (exit code 2) that is still a
    # ValueError for callers that catch that
    with pytest.raises(InvalidConfig) as info:
        INVALID_CONFIGS[site]()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, ValueError)
    assert not isinstance(info.value, ContractError)


def test_cli_contract_violation_exit_code(monkeypatch, tmp_path):
    import metrent.cli as cli

    def boom(*a, **k):
        raise ContractViolation("forced")

    monkeypatch.setattr(cli, "dialog_cover_experiment", boom)
    rc = cli.main(["entropy", "--samples", "4", "--n-max", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3

