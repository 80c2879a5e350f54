from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from submax import (
    ContractedMatroid,
    CoverageOracle,
    DirectedCutOracle,
    ExplicitMatroid,
    FacilityLocationOracle,
    GraphicMatroid,
    InvalidInputError,
    ModularOracle,
    PartitionMatroid,
    QueryLedger,
    RankCappedMatroid,
    ResidualOracle,
    UniformMatroid,
)
from submax.matroids import DummyAugmentedMatroid, DummyValueOracle

# ---------------------------------------------------------------------------
# canonical fixtures

# S1={a,b}, S2={b,c}, S3={c,d}, S4={d}; unit weights
COVERAGE4_SETS = [[0, 1], [1, 2], [2, 3], [3]]


def coverage4(ledger=None):
    return CoverageOracle(COVERAGE4_SETS, 4, ledger=ledger)


def coverage12(ledger=None, seed=5):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(12):
        items = np.flatnonzero(rng.random(30) < 0.15).tolist()
        if not items:
            items = [int(rng.integers(30))]
        sets.append(items)
    return CoverageOracle(sets, 30, ledger=ledger)


def partition12(ledger=None):
    return PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]], [2, 1, 1], ledger=ledger)


def cut14(ledger=None, seed=11):
    rng = np.random.default_rng(seed)
    arcs = []
    for a in range(14):
        for b in range(14):
            if a != b and rng.random() < 0.25:
                arcs.append((a, b, float(rng.integers(1, 8))))
    return DirectedCutOracle(14, arcs, ledger=ledger)


def facility6(ledger=None, seed=2):
    rng = np.random.default_rng(seed)
    return FacilityLocationOracle(np.round(rng.random((9, 6)) * 5, 3), ledger=ledger)


def modular5(ledger=None):
    return ModularOracle([3.0, 1.0, 2.0, 5.0, 4.0], ledger=ledger)


def zoo_functions():
    """(name, oracle factory) pairs covering every function class, all n <= 12."""
    return [
        ("coverage4", coverage4),
        ("coverage12", coverage12),
        ("cut14_small", lambda ledger=None: _cut8(ledger)),
        ("facility6", facility6),
        ("modular5", modular5),
    ]


def _cut8(ledger=None, seed=7):
    rng = np.random.default_rng(seed)
    arcs = [
        (a, b, float(rng.integers(1, 6)))
        for a in range(8)
        for b in range(8)
        if a != b and rng.random() < 0.3
    ]
    return DirectedCutOracle(8, arcs, ledger=ledger)


def zoo_matroids():
    """(name, matroid factory) pairs, all n <= 10."""
    return [
        ("uniform_6_3", lambda ledger=None: UniformMatroid(6, 3, ledger)),
        ("partition_6", lambda ledger=None: PartitionMatroid([[0, 1, 2], [3, 4], [5]], [2, 1, 1], ledger)),
        ("graphic_tri_plus", lambda ledger=None: GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 3)], ledger)),
        ("explicit_free_3", lambda ledger=None: ExplicitMatroid(
            3, [s for r in range(4) for s in itertools.combinations(range(3), r)], ledger)),
    ]


# ---------------------------------------------------------------------------
# independent test oracles


def exact_all_values(f):
    """All 2^n values through an uncounted clone."""
    probe = f.uncounted()
    return {
        frozenset(combo): probe.evaluate(combo)
        for r in range(f.n + 1)
        for combo in itertools.combinations(range(f.n), r)
    }


def exact_multilinear(f, x):
    """F(x) by full 2^n enumeration."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for members, value in exact_all_values(f).items():
        prob = 1.0
        for u in range(f.n):
            prob *= x[u] if u in members else 1.0 - x[u]
        total += prob * value
    return total


def exact_marginal_F(f, x, u):
    """dF/dx_u = F(x with x_u = 1) - F(x with x_u = 0), by enumeration."""
    hi = np.array(x, dtype=float)
    lo = np.array(x, dtype=float)
    hi[u] = 1.0
    lo[u] = 0.0
    return exact_multilinear(f, hi) - exact_multilinear(f, lo)


def reference_estimate(f, x_vec, u, m, rng):
    """The paired-sample estimator loop, one ``rng.random`` call per estimate
    over the support of x and one ``nonzero`` per row; the estimator must
    match it bit for bit."""
    cols = np.flatnonzero(x_vec)
    inclusion = rng.random((m, len(cols))) < x_vec[cols]
    total = 0.0
    for row in inclusion:
        ids = [j for j in cols[np.flatnonzero(row)].tolist() if j != u]
        without_u = f.evaluate(ids)
        total += f.evaluate(ids + [u]) - without_u
    return total / m


def reference_cut_value(n, arcs, members):
    """The directed cut value as it was before the prefix cache: a set of
    the members, then a float sum over their out-arcs in set order."""
    out = [[] for _ in range(n)]
    for a, b, w in arcs:
        if a != b:
            out[a].append((b, float(w)))
    inside = set()
    for u in members:
        if not 0 <= u < n:
            raise InvalidInputError(f"element id {u} outside ground set of size {n}")
        inside.add(u)
    total = 0.0
    for u in inside:
        for (v, w) in out[u]:
            if v not in inside:
                total += w
    return total


def reference_facility_value(values, members):
    """The facility location value as it was before the prefix cache: the
    best value per client over the members' columns, summed."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    ids = []
    for u in members:
        if not 0 <= u < n:
            raise InvalidInputError(f"element id {u} outside ground set of size {n}")
        ids.append(u)
    if not ids:
        return 0.0
    return float(values[:, ids].max(axis=1).sum())


def uf_has_cycle(num_vertices, edge_list):
    """Standalone union-find cycle check, independent of the matroid code."""
    parent = list(range(num_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (a, b) in edge_list:
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def enumerate_independent(matroid, ground=None):
    """All independent subsets via an uncounted clone (small fixtures)."""
    probe = matroid.uncounted()
    ground = list(range(matroid.n)) if ground is None else list(ground)
    out = []
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            if probe.is_independent(combo):
                out.append(frozenset(combo))
    return out


def check_submodular(f, max_n=12):
    """Exhaustively verify f(u | A) >= f(u | B) for all A subseteq B, u notin B."""
    if f.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    values = exact_all_values(f)
    for b_members, b_value in values.items():
        items = sorted(b_members)
        for u in range(f.n):
            if u in b_members:
                continue
            gain_b = values[b_members | {u}] - b_value
            for r in range(len(items) + 1):
                for combo in itertools.combinations(items, r):
                    a_members = frozenset(combo)
                    if values[a_members | {u}] - values[a_members] < gain_b - 1e-9:
                        return False
    return True


def check_monotone(f, max_n=12):
    """Exhaustively verify f(u | S) >= 0 everywhere."""
    if f.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    values = exact_all_values(f)
    for members, value in values.items():
        for u in range(f.n):
            if u not in members and values[members | {u}] < value - 1e-9:
                return False
    return True


def marginal(f, u, S, cached_fS=None):
    """f(u | S) = f(S + u) - f(S); one query when f(S) is supplied, two otherwise.

    ``u in S`` is allowed and yields 0 by idempotence of the set union.
    """
    if cached_fS is None:
        cached_fS = f.evaluate(S)
    members = set(S)
    members.add(u)
    return f.evaluate(members) - cached_fS


def sample_correlated_subset(A, p, rng):
    """Independent-inclusion A(p): keep each element of A with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("inclusion probability must be in [0, 1]")
    if p == 0.0:
        return set()
    items = sorted(A)
    if p == 1.0:
        return set(items)
    draws = rng.random(len(items))
    return {u for u, d in zip(items, draws) if d < p}


def remove_self_loops(M):
    """Ids whose singletons are independent; costs n independence queries."""
    return [u for u in M.ground() if M.is_independent([u])]


def check_exchange_axiom(M, max_n=10):
    """Exhaustive matroid-axiom verification plus base-pair swap bijections.

    Checks the empty set, downward closure and the augmentation axiom over
    all subsets, then verifies that every pair of bases admits a perfect
    matching of single-element swaps keeping the first base independent.
    """
    if M.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    indep = set(enumerate_independent(M))
    if frozenset() not in indep:
        return False
    for A in indep:
        for u in A:
            if A - {u} not in indep:
                return False
    members = sorted(indep, key=len)
    for A in members:
        for B in members:
            if len(A) >= len(B):
                continue
            if not any(A | {u} in indep for u in B - A):
                return False
    max_rank = max(len(A) for A in indep)
    bases = [A for A in indep if len(A) == max_rank]
    for A in bases:
        for B in bases:
            if A != B and not _swap_bijection_exists(A, B, indep):
                return False
    return True


def _swap_bijection_exists(A, B, indep):
    """Perfect matching u in B-A -> v in A-B with A - v + u independent."""
    left = sorted(B - A)
    right = sorted(A - B)
    if len(left) != len(right):
        return False
    edges = {u: [v for v in right if (A - {v}) | {u} in indep] for u in left}
    match = {}

    def try_assign(u, seen):
        for v in edges[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or try_assign(match[v], seen):
                match[v] = u
                return True
        return False

    return all(try_assign(u, set()) for u in left)


def wilson_halfwidth(successes, trials, z=1.96):
    """97.5%-level Wilson interval half-width for a binomial proportion."""
    if trials == 0:
        return 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials ** 2))
    return half


def mean_and_se(values):
    arr = np.asarray(values, dtype=float)
    se = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return float(arr.mean()), float(se)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ledger():
    return QueryLedger()


# ---------------------------------------------------------------------------
# Hypothesis strategies for small matroids and views over them


@st.composite
def small_multigraphs(draw, max_edges=8):
    """(vertex count, edge list) with self-loops and parallel edges allowed."""
    v = draw(st.integers(min_value=1, max_value=5))
    vertex = st.integers(min_value=0, max_value=v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=max_edges))
    return v, edges


def draw_independent(data, M, ids):
    """A random independent set of M among ``ids``, found on an uncounted clone."""
    probe = M.uncounted()
    chosen: list[int] = []
    for u in data.draw(st.permutations(ids)):
        if data.draw(st.booleans()) and probe.is_independent(chosen + [u]):
            chosen.append(u)
    return chosen


@st.composite
def small_partitions(draw):
    """(blocks, capacities) over a shuffled ground set of at most 9 ids."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
    ids = iter(draw(st.permutations(range(sum(sizes)))))
    blocks = [sorted(next(ids) for _ in range(size)) for size in sizes]
    caps = [draw(st.integers(min_value=0, max_value=size)) for size in sizes]
    return blocks, caps


@st.composite
def small_base_matroids(draw):
    kind = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if kind == "uniform":
        n = draw(st.integers(min_value=1, max_value=7))
        return UniformMatroid(n, draw(st.integers(min_value=0, max_value=n)))
    if kind == "partition":
        return PartitionMatroid(*draw(small_partitions()))
    v, edges = draw(small_multigraphs(max_edges=7))
    return GraphicMatroid(v, edges)


def compose_views(data, view, layers):
    """Up to three random view layers of the given kinds over ``view``.

    Matroid layers are ``contract``, ``cap`` and ``dummy``; value-oracle
    layers are ``residual`` (a non-empty anchor) and ``dummy_value``.
    """
    for layer in data.draw(st.lists(st.sampled_from(layers), max_size=3)):
        if layer == "contract":
            view = ContractedMatroid(view, draw_independent(data, view, list(view.ground())))
        elif layer == "cap":
            view = RankCappedMatroid(view, data.draw(st.integers(min_value=0, max_value=view.n)))
        elif layer == "dummy":
            d = data.draw(st.integers(min_value=1, max_value=3))
            view = DummyAugmentedMatroid(view, d, data.draw(st.integers(min_value=0, max_value=4)))
        elif layer == "residual":
            ids = st.integers(min_value=0, max_value=view.n - 1)
            view = ResidualOracle(view, data.draw(st.lists(ids, min_size=1, unique=True)))
        else:
            view = DummyValueOracle(view, data.draw(st.integers(min_value=1, max_value=3)))
    return view


def draw_coverage(data, n):
    """A random weighted coverage function on ``n`` elements over at most 6 items."""
    universe = data.draw(st.integers(min_value=1, max_value=6))
    item = st.integers(min_value=0, max_value=universe - 1)
    sets = data.draw(st.lists(st.lists(item, max_size=3), min_size=n, max_size=n))
    weights = data.draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=universe, max_size=universe)
    )
    return CoverageOracle(sets, universe, weights)


@st.composite
def small_value_oracles(draw):
    """A random coverage (weighted or not), modular, directed cut or facility
    oracle on 1 to 7 elements, with non-integral float data."""
    kind = draw(st.sampled_from(["coverage", "weighted_coverage", "modular", "cut", "facility"]))
    n = draw(st.integers(min_value=1, max_value=7))
    value = st.floats(min_value=0.0, max_value=10.0)
    if kind in ("coverage", "weighted_coverage"):
        universe = draw(st.integers(min_value=1, max_value=8))
        item = st.integers(min_value=0, max_value=universe - 1)
        sets = draw(st.lists(st.lists(item, max_size=4), min_size=n, max_size=n))
        weights = None
        if kind == "weighted_coverage":
            weights = draw(st.lists(value, min_size=universe, max_size=universe))
        return CoverageOracle(sets, universe, weights)
    if kind == "modular":
        return ModularOracle(draw(st.lists(value, min_size=n, max_size=n)))
    if kind == "cut":
        vertex = st.integers(min_value=0, max_value=n - 1)
        return DirectedCutOracle(n, draw(st.lists(st.tuples(vertex, vertex, value), max_size=12)))
    clients = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(value, min_size=n, max_size=n)
    return FacilityLocationOracle(draw(st.lists(row, min_size=clients, max_size=clients)))
