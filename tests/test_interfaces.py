"""Interface coverage: CSV loaders, coefficient streams, short-name-set
membership, dialog classes against the Cauchy covering column, and the
harness exit code for contract violations."""

import inspect
import json
import random
from fractions import Fraction

import pytest

from metrent.compact import (CompactReprParams, compact_name, load_instance,
                             q_seq, unit_interval_ell, unit_interval_space)
from metrent.entropy import (ApproxSetSpec, ContractViolation, PointCloud,
                             cloud_from_vectors, covering_number,
                             dialog_cover_experiment)
from metrent.funcs import modulus_fn
from metrent.machine import (RunningTime, const_time, equality_from_metric)
from metrent.reprs import (cauchy_metric_program, cauchy_metric_time,
                           cauchy_name, space_from_csv)
from metrent.schauder import ScaledVal, coeffs_from_csv, coeffs_to_csv
from metrent.strings import (ConfigError, ContractError, Dyadic, InvalidConfig,
                             MetrentError)


def test_space_from_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1/2,1/4\n1,1\n")
    M = space_from_csv(str(path), "sup")
    assert M.point(1) == (Fraction(1, 2), Fraction(1, 4))
    assert M.exact_dist(M.point(0), M.point(2)) == 1
    assert M.dist(0, 1, 5) == Fraction(1, 2)
    line = space_from_csv(str(path), "abs")
    assert line.exact_dist(line.point(0), line.point(1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        space_from_csv(str(path), "taxicab")


def test_coefficient_stream_roundtrip(tmp_path):
    lams = [ScaledVal(Fraction(1, 2), Fraction(0)),
            ScaledVal(Fraction(0), Fraction(0)),
            ScaledVal(Fraction(-3, 8), Fraction(-1, 2))]
    path = tmp_path / "coeffs.csv"
    coeffs_to_csv(lams, str(path))
    back = coeffs_from_csv(str(path))
    assert len(back) == 3
    for a, b in zip(lams, back):
        assert a.same_value(b)
    # plain fractions are accepted on the way out
    coeffs_to_csv([Fraction(5, 4)], str(path))
    assert coeffs_from_csv(str(path))[0].same_value(
        ScaledVal(Fraction(5, 4), Fraction(0)))


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
    ("entropy", "PointCloud.__init__", "_cache"),
    ("entropy", "PointCloud.__init__", "_traversals"),
    ("entropy", "PointCloud.__init__", "label"),
    ("entropy", "cloud_from_vectors", "metric"),
    ("entropy", "covering_number", "mode"),
    ("machine", "Ctx.tick", "k"),
    ("machine", "MeterReport.__init__", "queries"),
    ("machine", "RunningTime.__init__", "evaluator"),
    ("machine", "RunningTime.__init__", "label"),
    ("machine", "const_time", "c"),
    ("machine", "first_order", "label"),
    ("reprs", "MetricSpaceSpec.__init__", "approx_index"),
    ("reprs", "space_from_csv", "dist_id"),
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


def _instance_file(tmp_path, **cfg):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"space": "unit-interval", "ell": [1, 2], **cfg}))
    return str(path)


def _csv_file(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("0\n1/2\n1\n")
    return str(path)


# one bad configuration per library entry point that reads one
INVALID_CONFIGS = {
    "load_instance-space": lambda tmp: load_instance(_instance_file(tmp, space="bogus")),
    "load_instance-S": lambda tmp: load_instance(_instance_file(tmp, S="bogus")),
    "space_from_csv": lambda tmp: space_from_csv(str(tmp / "none.csv"), "taxicab"),
    # a finite space read from a file has no approximation chooser
    "compact_name": lambda tmp: compact_name(
        space_from_csv(_csv_file(tmp), "abs"),
        CompactReprParams(ell=unit_interval_ell, S=const_time(1)), 0),
    "ApproxSetSpec": lambda tmp: ApproxSetSpec([Fraction(1, 2), Fraction(1)]),
    "modulus_fn": lambda tmp: modulus_fn([2, 1]),
    "cloud_from_vectors": lambda tmp: cloud_from_vectors([(0,), (1,)], "taxicab"),
    "covering_number": lambda tmp: covering_number(
        cloud_from_vectors([(0,), (1,)]), 0, "bogus"),
}


@pytest.mark.parametrize("site", sorted(INVALID_CONFIGS))
def test_invalid_config_takes_the_config_branch(site, tmp_path):
    # a bad request raises a ConfigError (exit code 2) that is still a
    # ValueError for callers that catch that
    with pytest.raises(InvalidConfig) as info:
        INVALID_CONFIGS[site](tmp_path)
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
