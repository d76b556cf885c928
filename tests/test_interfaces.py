"""Interface coverage: short-name-set membership, dialog classes against
the Cauchy covering column, the harness exit code for contract violations,
and censuses of the public API (error classes, defaulted parameters,
definitions that only tests call, bad configurations)."""

import ast
import inspect
import pathlib
import random
import re
from fractions import Fraction

import pytest

from metrent.compact import (CompactReprParams, compact_name, q_seq,
                             unit_interval_ell, unit_interval_space)
from metrent.entropy import (ApproxSetSpec, ContractViolation, PointCloud,
                             cloud_from_vectors, covering_number,
                             dialog_cover_experiment)
from metrent.funcs import modulus_fn
from metrent.machine import (RunningTime, const_time, equality_from_metric)
from metrent.reprs import (cauchy_metric_program, cauchy_metric_time,
                           cauchy_name)
from metrent.strings import (ConfigError, ContractError, Dyadic, InvalidConfig,
                             MetrentError)


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
# work (ContractViolation has none: a contract check is not an assert)
ERROR_CLASSES = {
    "ScanCutoffExceeded": (ConfigError, ValueError),
    "TraceMiss": (ConfigError, KeyError),
    "SizeExceeded": (ConfigError, ValueError),
    "InsufficientTabulation": (ConfigError, ValueError),
    "InvalidConfig": (ConfigError, ValueError),
    "MalformedName": (ContractError, ValueError),
    "MalformedEncoding": (ContractError, ValueError),
    "MalformedPadding": (ContractError, ValueError),
    "BoundViolation": (ContractError, ValueError),
    "NotAPair": (ContractError, ValueError),
    "ParameterViolation": (ContractError, ValueError),
    "BudgetExceeded": (ContractError, RuntimeError),
    "ContractViolation": (ContractError, None),
}


def test_every_error_takes_one_branch_of_the_root():
    import importlib
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


# every defaulted parameter of the public API, as (module, callable,
# parameter); a new knob needs a visible edit here
DEFAULTED_PARAMETERS = {
    ("baire", "Name.__init__", "declared_bound"),
    ("baire", "Name.__init__", "label"),
    ("baire", "constant_name", "value"),
    ("cli", "main", "argv"),
    ("entropy", "PointCloud.__init__", "label"),
    ("entropy", "cloud_from_vectors", "metric"),
    ("entropy", "covering_number", "mode"),
    ("machine", "Ctx.tick", "k"),
    ("machine", "MeterReport.__init__", "queries"),
    ("machine", "RunningTime.__init__", "evaluator"),
    ("machine", "RunningTime.__init__", "label"),
    ("machine", "const_time", "c"),
    ("machine", "first_order", "label"),
    ("schauder", "FSSystem.norm_bounds", "prec"),
    ("schauder", "HaarSystem.norm_bounds", "prec"),
    ("schauder", "RootSum.__init__", "terms"),
    ("schauder", "RootSum.accumulate", "c"),
    ("strings", "Dyadic.__init__", "scale"),
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
    import importlib
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


# the public top-level definitions of src/metrent that no code in src/,
# scripts/ or benchmarks/ names: the paper's checks and test fixtures; a new
# public definition needs a caller or a visible edit here
TEST_ONLY_PUBLIC = {
    ("baire", "constant_name"),
    ("baire", "in_kl"),
    ("baire", "is_length_monotone"),
    ("baire", "length_of"),
    ("baire", "split_pair"),
    ("banach", "add_time"),
    ("banach", "banach_add_program"),
    ("banach", "xi_decode_pl"),
    ("compact", "check_uniformly_dense"),
    ("compact", "compact_to_relativized"),
    ("compact", "greedy_uniform_seq"),
    ("compact", "lipschitz_cloud"),
    ("compact", "relativized_to_compact"),
    ("entropy", "build_large_compact"),
    ("entropy", "check_spanning_le_covering"),
    ("entropy", "cloud_from_vectors"),
    ("funcs", "approx_check"),
    ("funcs", "lp_modulus_shift_check"),
    ("machine", "check_monotone_sampled"),
    ("machine", "is_time_constructible"),
    ("machine", "length_time_by_convention"),
    ("machine", "length_time_by_scan"),
    ("reprs", "cauchy_validate"),
    ("reprs", "co_re_reject"),
    ("reprs", "dyadic_line_space"),
    ("reprs", "real_name"),
    ("reprs", "real_validate"),
    ("reprs", "relativized_cauchy_name"),
    ("reprs", "relativized_metric_time"),
    ("schauder", "chi_expand"),
    ("schauder", "fs_separation"),
    ("schauder", "haar_unit_norm_power"),
}


def test_every_test_only_public_definition_is_listed():
    root = pathlib.Path(__file__).resolve().parents[1]
    public = {(path.stem, node.name)
              for path in sorted((root / "src" / "metrent").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    texts = [path.read_text() for top in ("src", "scripts", "benchmarks")
             for path in (root / top).rglob("*.py")]
    # a name that occurs once is named only where it is defined
    found = {(mod, name) for mod, name in public
             if sum(len(re.findall(rf"\b{name}\b", t)) for t in texts) == 1}
    assert found == TEST_ONLY_PUBLIC


# one bad configuration per library entry point that reads one
INVALID_CONFIGS = {
    "ApproxSetSpec": lambda: ApproxSetSpec([Fraction(1, 2), Fraction(1)]),
    "modulus_fn": lambda: modulus_fn([2, 1]),
    "cloud_from_vectors": lambda: cloud_from_vectors([(0,), (1,)], "taxicab"),
    "covering_number": lambda: covering_number(
        cloud_from_vectors([(0,), (1,)]), 0, "bogus"),
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


def test_dyadic_oracle_ten_thousand_pairs():
    rnd = random.Random(123)
    for _ in range(10_000):
        a = Fraction(rnd.randrange(-(1 << 12), 1 << 12), 1 << rnd.randrange(0, 10))
        b = Fraction(rnd.randrange(-(1 << 12), 1 << 12), 1 << rnd.randrange(0, 10))
        da, db = Dyadic.from_fraction(a), Dyadic.from_fraction(b)
        assert (da + db).as_fraction() == a + b
        assert (da * db).as_fraction() == a * b
        assert (da - db).as_fraction() == a - b
        assert (da <= db) == (a <= b)
