"""The benchmark's per-layer tracer still finds and wraps its targets.

``perfbench/tracer.py`` wraps methods through ``vars(cls)[name]``, so a
traced method that moves into a base class silently stops being counted
(or breaks ``--trace 1``).  This installs the tracer on the imported
package, runs one small reproduce group and uninstalls it again.
"""

import importlib.util
import pathlib
import random
import sys

import rdpk3
import rdpk3.cli
import rdpk3.reproduce
from rdpk3.chartring import ChartElem

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_defined_on_its_owner():
    tracer = load_tracer()
    for modname, path, *_ in tracer.TARGETS:
        mod = sys.modules[f"rdpk3.{modname}"]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        assert attr in vars(owner), f"rdpk3.{modname}.{path}"


# Chart products of one reproduce at seed 0, as measured with Frobenius
# as a linear map (ChartElem.frobenius makes no products) and the powers
# of scalar_mul_class taken only up to the last nonzero component; the
# p-th powers by ** made 11,509 and the flat monomial sums 19,116.
REPRODUCE_CHART_PRODUCTS = 8_303


def test_traced_reproduce_counts_chart_products(capsys):
    tracer = load_tracer()
    mul = vars(ChartElem)["__mul__"]
    t = tracer.Tracer()
    t.install(rdpk3)
    try:
        assert vars(ChartElem)["__mul__"] is not mul
        code = rdpk3.cli.main(["reproduce"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    assert vars(ChartElem)["__mul__"] is mul
    assert 0 < t.calls["chartring.mul"] <= REPRODUCE_CHART_PRODUCTS
    assert t.calls["localcoh.reduce"] > 0
    assert t.calls["cli.main"] == 1
    # reduce subtracts a Teichmuller lift on the tail, never through witt_sub
    assert t.metrics([])["localcoh.reduce.subs_per_call"] == 0


def test_traced_witt_trials_count_every_operation_and_scalar():
    """The F_p fast path still goes through the traced witt_* entry points.

    Each trial at p=2, n=4 makes 12 + p additions (2 for commutativity, 4
    for associativity, 1 each for zero and negation, 2 for
    distributivity, 2 for V-additivity, p for p*x), 11 multiplications (2,
    4, 1 for the unit, 3 for distributivity, 1 for Teichmuller lifts) and
    one negation.

    The operations build no F_p scalar: each result component is an
    interned residue, and the p of them are built on first use.  The
    trials themselves build 3 before the loop (zero, and one with its
    zero tail) and 31 per trial: 12 for x, y, z, 6 for u, v, 2 for a, b,
    1 for a*b, 3 for the zero tails of the three Teichmuller lifts, 4
    for the four V shifts and 3 for the Frobenius of R(x).
    """
    tracer = load_tracer()
    trials, p = 5, 2
    t = tracer.Tracer()
    t.install(rdpk3)
    try:
        failures = rdpk3.reproduce.witt_axiom_trials(p, 4, trials, random.Random(6))
    finally:
        t.uninstall()
    assert failures == 0
    assert 0 < t.calls["ffpoly.fpscalar_new"] <= 3 + 31 * trials + p
    assert t.calls["witt.add"] == trials * (12 + p)
    assert t.calls["witt.mul"] == trials * 11
    assert t.calls["witt.neg"] == trials


def test_traced_overlattice_search_builds_one_smith_form():
    """Each p-part comes from the one discriminant group of the search."""
    tracer = load_tracer()
    lattices = [lat for _rid, lat, _want in rdpk3.reproduce.overlattice_instances()]
    lattices += [
        rdpk3.diagonal_gram([-2, 2, 6, -6]),
        rdpk3.diagonal_gram([30030, -30030]),
    ]
    t = tracer.Tracer()
    t.install(rdpk3)
    try:
        for lat in lattices:
            rdpk3.unimodular_overlattice_exists(lat)
    finally:
        t.uninstall()
    assert t.calls["lattice.overlattice"] == len(lattices)
    assert t.calls["lattice.disc_group"] == len(lattices)


def test_traced_count_evaluates_each_fibre_without_evaluate_poly():
    """count_points reads every fibre off one evaluator per polynomial.

    Evaluating each fibre coefficient with FiniteField.evaluate_poly made
    one call per coefficient per point, thousands at q = 32.
    """
    tracer = load_tracer()
    model = rdpk3.load_model(str(ROOT / "models" / "ex71.json"))
    t = tracer.Tracer()
    t.install(rdpk3)
    try:
        count = rdpk3.count_points(model, 32)
    finally:
        t.uninstall()
    assert count == 1089
    assert t.calls["height.count_points"] == 1
    assert t.calls["ffpoly.ff_evaluate"] <= 2
