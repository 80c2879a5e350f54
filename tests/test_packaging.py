"""What ``pyproject.toml`` must declare for the package and its test suite to run."""

from __future__ import annotations

import ast
import inspect
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import submax
from submax import cardinality, matroids, oracles
from submax.ledger import QueryLedger
from submax.matroid_algos import LazyGreedyState
from submax.multilinear import FractionalPoint

ROOT = Path(__file__).resolve().parents[1]


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_top_level_modules(directory: Path) -> set[str]:
    modules = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _undeclared(directory: Path, requirements: list[str]) -> list[str]:
    """The third-party modules imported under ``directory`` that no requirement provides."""
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements}
    providers = packages_distributions()
    third_party = sorted(
        _imported_top_level_modules(directory) - set(sys.stdlib_module_names) - {"submax"}
    )
    assert third_party
    return [
        module for module in third_party
        if not any(_normalized(dist) in declared for dist in providers.get(module, [module]))
    ]


def test_every_third_party_module_the_tests_import_is_declared():
    project = _project()
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    assert _undeclared(ROOT / "tests", requirements) == []


def test_every_third_party_module_the_package_imports_is_a_dependency():
    # the test extra does not count: `pip install submax` would lack it
    assert _undeclared(ROOT / "src" / "submax", _project()["dependencies"]) == []


# the library keeps no copy of the test oracles in tests/conftest.py
MOVED_TO_CONFTEST = {
    submax: ["check_submodular", "check_monotone", "marginal", "sample_correlated_subset",
             "check_exchange_axiom", "remove_self_loops"],
    oracles: ["check_submodular", "check_monotone", "marginal", "sample_correlated_subset",
              "_all_values", "_subsets_of"],
    matroids: ["check_exchange_axiom", "_swap_bijection_exists", "remove_self_loops"],
    FractionalPoint: ["total_weight"],
}


@pytest.mark.parametrize("owner", MOVED_TO_CONFTEST, ids=lambda owner: owner.__name__)
def test_test_oracles_live_in_the_tests_only(owner):
    assert [name for name in MOVED_TO_CONFTEST[owner] if hasattr(owner, name)] == []


# each had one value in use outside the tests: a constant or a value read
# from the handle took its place
REMOVED_PARAMETERS = {
    "continuous_greedy": (submax.continuous_greedy, ["ground"]),
    "generate_instance": (submax.generate_instance, ["weight_range"]),
    "brute_force_opt": (submax.brute_force_opt, ["max_n", "max_sets"]),
}


@pytest.mark.parametrize("name", REMOVED_PARAMETERS)
def test_single_valued_settings_stay_gone(name):
    function, removed = REMOVED_PARAMETERS[name]
    assert [p for p in removed if p in inspect.signature(function).parameters] == []


def test_ledger_ticks_take_no_count():
    for tick in (QueryLedger.charge_value, QueryLedger.charge_independence):
        assert list(inspect.signature(tick).parameters) == ["self"]


def test_lazy_greedy_state_keeps_no_event_counters():
    state = LazyGreedyState([0, 1], 1.0, 0.5, 1)
    assert [name for name in ("adds", "decays") if hasattr(state, name)] == []


def test_the_pool_works_out_its_own_top_weight():
    # W is the best singleton value, asked by the pool; bar() is its one threshold
    assert list(inspect.signature(submax.FillState).parameters) == ["f", "k", "delta"]
    assert not hasattr(submax.FillState, "current_w")


def test_the_sampling_regime_is_tested_not_solved_for():
    # random_sampling_nonmonotone tests 8 ln(2/eps) >= k eps^2 in place of a bisection root
    for owner in (submax, cardinality):
        assert not hasattr(owner, "nonmonotone_regime_threshold")


def test_the_sweep_reads_one_answer_tree():
    # the caller's tree of answers took the place of free_at and the one-id table
    assert "known" in inspect.signature(matroids.threshold_sweep).parameters
    sources = [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "submax").glob("*.py")]
    assert [source for source in sources if "free_at" in source] == []
