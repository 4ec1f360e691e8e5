import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cellspaces.paradox as paradox
from cellspaces import (
    CellSpacesError,
    ConstructionError,
    Decomposition,
    ExpansionSet,
    FAMeasure,
    FreeGroup,
    GroupAsSpace,
    HaremMatching,
    PermutationGroup,
    ScopeMismatchError,
    SemidirectCellSpace,
    SemidirectProduct,
    SignedPermutationGroup,
    UncertifiedWindowError,
    Window,
    affine_space,
    build_graph,
    canonical_free_decomposition,
    certified_interior,
    decomposition_from_json,
    decomposition_from_map,
    decomposition_to_json,
    harem_matching,
    space_by_name,
    tarski_contradiction,
    two_to_one_from_matching,
    verify_decomposition,
)
from cellspaces import codec
from cellspaces.groups import GroupElement
from cellspaces.spaces import TranslationSpace, point_key
from oracles import search_decompositions
from test_folner import WideFibers


def free2():
    return space_by_name("free:2")


def unit_cosets(space):
    return ExpansionSet.of([space.coset(g) for g in space.group.ball(1)])


def run_pipeline(core_r=3, halo_r=4):
    sp = free2()
    E = unit_cosets(sp)
    w = sp.ball_window(core_r, halo_r)
    graph = build_graph(sp, E, w)
    matching = harem_matching(graph, 2)
    assert isinstance(matching, HaremMatching)
    ttm = two_to_one_from_matching(graph, matching)
    D = decomposition_from_map(sp, ttm, E, w)
    return sp, E, w, graph, ttm, D


def test_build_graph_degrees_and_interior():
    sp = free2()
    E = unit_cosets(sp)
    w = sp.ball_window(2, 3)
    graph = build_graph(sp, E, w)
    assert len(graph.left) == 17  # |B_2| in the rank-2 free group
    assert len(graph.right) == 53  # |B_3|
    assert all(len(row) == 5 for row in graph.adj)
    # interior rights are exactly the radius-1 ball: their fibers stay in B_2
    assert sum(graph.right_interior) == 5


def test_build_graph_refuses_small_halo():
    sp = free2()
    E = unit_cosets(sp)
    with pytest.raises(UncertifiedWindowError):
        build_graph(sp, E, sp.ball_window(2, 2))


def _cosets(space, reps):
    return ExpansionSet.of([space.coset(codec.element(space.group, d)) for d in reps])


@pytest.mark.parametrize(
    "name, core, halo, reps, radius",
    [
        ("free:2", 3, 3, [[], [1], [-1], [2], [-2]], 4),
        ("free:2", 2, 3, [[], [1, 2, 1]], 5),
        ("zd:2", 2, 3, [[0, 0], [2, -1]], 4),
        ("hyperoct:2", 2, 2, [[[1, 2], [0, 0]], [[-1, 2], [0, -1]]], 3),
    ],
)
def test_uncertified_window_names_the_certifying_halo(name, core, halo, reps, radius):
    """The named radius, core radius plus the longest step of E, is the
    smallest halo that certifies the window."""
    sp = space_by_name(name)
    E = _cosets(sp, reps)
    with pytest.raises(UncertifiedWindowError, match=f"a halo of radius {radius} certifies"):
        build_graph(sp, E, sp.ball_window(core, halo))
    with pytest.raises(UncertifiedWindowError):
        build_graph(sp, E, sp.ball_window(core, radius - 1))
    build_graph(sp, E, sp.ball_window(core, radius))


def test_uncertified_window_without_a_window_metric_names_no_halo():
    # certifying_halo_note knows the metric of Z^d and F_k only; on S_4 the
    # refusal names the escaping image and no radius
    sp = GroupAsSpace(PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)]))
    E = ExpansionSet.of([sp.coset(g) for g in sp.group.ball(1)])
    with pytest.raises(UncertifiedWindowError) as exc:
        build_graph(sp, E, sp.ball_window(1, 1))
    assert str(exc.value).endswith("escapes the window halo")


def brute_force_graph(space, E, window) -> tuple:
    """(left, right, adj, right_interior, edge coset keys) of the window
    graph, from the element-level ``semi_action`` and
    ``exact_preimage_point`` alone."""
    core = set(window.core)
    images = [[space.semi_action(m, e) for e in E] for m in window.core]
    right = sorted({y for row in images for y in row}, key=point_key)
    position = {y: i for i, y in enumerate(right)}
    adj, labels = [], []
    for row in images:
        ys = sorted({position[y] for y in row})
        adj.append(tuple(ys))
        labels.append(tuple(next(e.key for e, y in zip(E, row) if position[y] == j) for j in ys))
    interior = tuple(
        all(p in core for e in E for p in space.exact_preimage_point(e, y)) for y in right
    )
    return tuple(window.core), tuple(right), tuple(adj), interior, tuple(labels)


_UNIT_FREE2 = [[], [1], [-1], [2], [-2]]


def _signed_free2():
    """B_2 x| F_2: the signed permutations of the letters a, b acting on F_2."""
    G0 = SignedPermutationGroup(2)
    tau = {(g.payload, i): (g.payload[i],) for g in G0.elements() for i in range(2)}
    return SemidirectCellSpace(SemidirectProduct(G0, FreeGroup(2), tau), name="signedfree:2")


_GRAPH_CASES = {
    **{
        f"free2-r{r}-halo{r + 1}": ("free:2", (r, r + 1), _UNIT_FREE2) for r in (2, 3, 4)
    },
    **{
        f"free2-r{r}-halo{r + 2}": ("free:2", (r, r + 2), _UNIT_FREE2 + [[1, 2], [-2, -1]])
        for r in (2, 3, 4)
    },
    "zd2-box": ("zd:2", (2, 4), [[0, 0], [1, 0], [0, -1], [2, -1], [-2, 2]]),
    "hyperoct2-box": (
        "hyperoct:2",
        (2, 4),
        [[[1, 2], [0, 0]], [[-1, 2], [1, 0]], [[2, 1], [0, -2]], [[1, -2], [2, 1]]],
    ),
    "free3-r2-halo3": ("free:3", (2, 3), [[], [1], [-1], [2], [-2], [3], [-3]]),
    # |G0| = 8 on a free point group: each coset's representatives differ in
    # their G0 part only, so the one fiber point of y is y t^-1 as on free:2
    **{
        f"signedfree2-r{r}-halo{r + 2}": (
            _signed_free2,
            (r, r + 2),
            [[[1, 2], []], [[-1, 2], [1]], [[2, -1], [-1]], [[1, -2], [2]], [[-2, 1], [-2]],
             [[2, 1], [1, 2]]],
        )
        for r in (2, 3)
    },
    # a subclass whose fibers also hold the point itself: a^3 is in both
    # columns of ball(2) but is its own fiber point, outside the core
    "widefibers-r2-halo4": (lambda: WideFibers(FreeGroup(2)), (2, 4), [[1], [1, 1]]),
    "affine5-full": ("affine:5", None, [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [3, 4, 0, 1, 2]]),
    "affine3-acting-twice": (
        "affine:3",
        None,
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]],
    ),
}


@pytest.mark.parametrize("case", sorted(_GRAPH_CASES))
def test_build_graph_matches_the_element_level_graph(case):
    name, radii, reps = _GRAPH_CASES[case]
    sp = space_by_name(name) if isinstance(name, str) else name()
    if case == "affine3-acting-twice":
        # g acts as g o g: the semi-action is not free, so two cosets of E
        # send some point to one image and the edge takes the first one's label
        sp._action = lambda g, m: g.payload[g.payload[m]]
    E = _cosets(sp, reps)
    window = sp.ball_window(*radii) if radii else sp.full_window()
    graph = build_graph(sp, E, window)
    labels = tuple(tuple(e.key for e in row) for row in graph.cosets)
    got = (graph.left, graph.right, graph.adj, graph.right_interior, labels)
    assert got == brute_force_graph(sp, E, window)


@pytest.mark.parametrize(
    "name",
    ["free:1", "free:2", "free:3", "zd:1", "zd:2", "zd:3", "hyperoct:1", "hyperoct:2",
     "hyperoct:3"] + [f"affine:{q}" for q in (2, 3, 4, 5, 7, 8, 9)],
)
def test_key_maps_agree_with_the_element_methods(name):
    sp = space_by_name(name)
    points = sp.ball_window(2, 2).core[::3] if hasattr(sp, "ball_window") else sp.points()
    for e in ExpansionSet.of(sp.coset(g) for g in sp.group.ball(2)):
        image, fiber = sp.key_maps(e)
        for m in points:
            k = point_key(m)
            assert image(k) == point_key(sp.semi_action(m, e))
            assert sorted(fiber(k)) == sorted(map(point_key, sp.exact_preimage_point(e, m)))


def test_two_to_one_map_fibers():
    sp, E, w, graph, ttm, D = run_pipeline()
    matching = harem_matching(graph, 2)
    pairs = set(matching.pairs)
    assert len(ttm.branches) == len(ttm.cosets) == len(graph.left)
    for i, ((lo, hi), (e, e_prime)) in enumerate(zip(ttm.branches, ttm.cosets)):
        assert lo < hi
        assert (i, lo) in pairs and (i, hi) in pairs
        # the labels are the element-level semi-action onto both branches
        assert sp.semi_action(graph.left[i], e) == graph.right[lo]
        assert sp.semi_action(graph.left[i], e_prime) == graph.right[hi]
    # no right index twice: phi is a function, psi and psi' are injective
    # with disjoint images
    matched = [y for branch in ttm.branches for y in branch]
    assert len(matched) == len(set(matched)) == 2 * len(graph.left)


def test_decomposition_from_map_refuses_a_map_from_another_window():
    sp, E, w, graph, ttm, D = run_pipeline(core_r=3, halo_r=4)
    with pytest.raises(ConstructionError, match="2-to-1 map has 53 left vertices, the scope core 17"):
        decomposition_from_map(sp, ttm, E, sp.ball_window(2, 4))


def test_the_map_and_the_decomposition_keep_their_refusals():
    sp, E, w, graph, ttm, D = run_pipeline()
    with pytest.raises(ConstructionError, match=r"needs a \(1,2\)-matching"):
        two_to_one_from_matching(graph, harem_matching(graph, 1))
    pairs = harem_matching(graph, 2).pairs
    with pytest.raises(ConstructionError, match="matched 1 times, expected 2"):
        two_to_one_from_matching(graph, HaremMatching(2, tuple(p for p in pairs if p != pairs[0])))
    with pytest.raises(ConstructionError, match="that moves .* is not in E"):
        decomposition_from_map(sp, ttm, ExpansionSet.of(list(E)[:1]), w)


def test_pipeline_decomposition_verifies():
    sp, E, w, graph, ttm, D = run_pipeline()
    report = verify_decomposition(sp, D)
    assert report.passed, [(c.name, c.witness) for c in report.failures()]
    assert len(report.interior) == 17  # |B_2| is the certified interior of B_3


def test_certified_interior_is_inner_ball():
    sp = free2()
    E = unit_cosets(sp)
    w = sp.ball_window(3, 4)
    interior = certified_interior(sp, E, w)
    assert set(interior) == {g for g in sp.group.ball(2)}


def test_canonical_decomposition_verifies_on_windows():
    sp = free2()
    for r in (2, 3, 4):
        w = sp.ball_window(r, r + 1)
        D = canonical_free_decomposition(sp, w)
        report = verify_decomposition(sp, D)
        assert report.passed, [(c.name, c.witness) for c in report.failures()]


def test_tarski_contradiction_doubles_mass():
    sp = free2()
    w = sp.ball_window(3, 4)
    D = canonical_free_decomposition(sp, w)
    pts = tuple(w.core)
    mu = FAMeasure.uniform(Window(pts, pts, "core"))
    lhs, rhs = tarski_contradiction(sp, D, mu)
    # the pieces partition the core twice over, so the right side is exactly 2
    assert rhs == 2
    assert lhs <= 2


def test_decomposition_json_round_trip():
    sp, E, w, graph, ttm, D = run_pipeline()
    doc = decomposition_to_json(sp, D)
    # in process, the document holds the payload tuples that encode_point passes on
    for data in (json.loads(json.dumps(doc)), doc):
        back = decomposition_from_json(sp, data)
        assert [e.key for e in back.E] == [e.key for e in D.E]
        assert back.A == D.A
        assert back.B == D.B
        assert back.scope.core == D.scope.core


def _mutated(D):
    """D with one point moved between pieces: its image now collides or goes
    uncovered."""
    keys = sorted(D.A)
    first, second = keys[0], keys[1]
    moved = D.A[first][0]
    mutated_A = dict(D.A)
    mutated_A[first] = tuple(D.A[first][1:])
    mutated_A[second] = tuple(sorted(D.A[second] + (moved,)))
    return Decomposition(E=D.E, A=mutated_A, B=D.B, scope=D.scope)


def test_mutated_decomposition_fails_with_witness():
    sp, E, w, graph, ttm, D = run_pipeline()
    report = verify_decomposition(sp, _mutated(D))
    assert not report.passed
    assert any(c.witness for c in report.failures())


def test_verify_reads_no_key_maps(monkeypatch):
    """The verifier recomputes images and fibers through the element-level
    methods, so it does not share the graph's table: with ``key_maps``
    broken it still passes the pipeline's decomposition, and fails the
    mutated one on the same witnesses."""
    sp, E, w, graph, ttm, D = run_pipeline()

    def broken(self, coset):
        raise AssertionError("verify_decomposition read key_maps")

    monkeypatch.setattr(TranslationSpace, "key_maps", broken)
    assert verify_decomposition(sp, D).passed
    failures = [(c.name, c.witness) for c in verify_decomposition(sp, _mutated(D)).failures()]
    assert failures == [
        ("images-disjoint", "(piece,piece,point)=('A:(-2,)', 'B:(-2,)', <free b'>)"),
        ("images-cover-interior", "uncovered=<free e>"),
        ("functional-identity", "(m,count)=(<free e>, 0)"),
    ]


def test_malformed_json_is_rejected():
    sp = free2()
    with pytest.raises(ConstructionError):
        decomposition_from_json(sp, {"E": [[1]], "A": []})


def test_no_decomposition_on_tiny_finite_spaces():
    for q in (2, 3):
        assert search_decompositions(affine_space(q), max_expansion=2) is None


def _assert_linear_growth(monkeypatch, stage):
    """Element hashes plus ``paradox.point_key`` calls made by
    ``stage(space, E, window, D)`` on the free:2 pipeline grow at most like
    n^1.2 in the core size n, from core radius 4 to 6, so a set rebuilt
    inside a loop fails here."""
    sizes, counts = [], []
    for r in (4, 5, 6):
        sp, E, w, _, _, D = run_pipeline(r, r + 1)
        calls = [0]

        def counted(fn, calls=calls):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(GroupElement, "__hash__", counted(GroupElement.__hash__))
        monkeypatch.setattr(paradox, "point_key", counted(paradox.point_key))
        stage(sp, E, w, D)
        monkeypatch.undo()
        sizes.append(len(w.core))
        counts.append(calls[0])
    for i in range(len(sizes) - 1):
        growth = math.log(counts[i + 1] / counts[i]) / math.log(sizes[i + 1] / sizes[i])
        assert growth <= 1.2, (sizes, counts)


def test_verify_hashes_grow_linearly(monkeypatch):
    def verify(sp, E, w, D):
        assert verify_decomposition(sp, D).passed

    _assert_linear_growth(monkeypatch, verify)


def test_build_graph_hashes_grow_linearly(monkeypatch):
    _assert_linear_growth(monkeypatch, lambda sp, E, w, D: build_graph(sp, E, w))


# ---------------------------------------------------------------------------
# fuzz over decomposition files

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["E", "A", "B", "scope", "core", "halo", "note", "g", "t"])
        | st.text(max_size=2),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


def _valid_file(name):
    """A well-formed decomposition file of the named space: the closed form on
    free:2, elsewhere the core dealt round-robin over the cosets of ball(1)."""
    sp = space_by_name(name)
    if name == "free:2":
        D = canonical_free_decomposition(sp, sp.ball_window(2, 3))
    else:
        window = sp.ball_window(1, 2) if hasattr(sp, "ball_window") else sp.full_window()
        E = ExpansionSet.of([sp.coset(g) for g in sp.group.ball(1)])
        keys = [e.key for e in E]
        pieces = {k: tuple(window.core[i::len(keys)]) for i, k in enumerate(keys)}
        D = Decomposition(E=E, A=pieces, B=dict(reversed(pieces.items())), scope=window)
    return sp, json.loads(json.dumps(decomposition_to_json(sp, D)))


_FILES = {name: _valid_file(name) for name in ("free:2", "hyperoct:2", "affine:3", "zd:1")}


def _paths(doc, prefix=()):
    """The path of every node of a JSON document, the root first."""
    yield prefix
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for k, child in items:
        yield from _paths(child, prefix + (k,))


_DELETE = object()


def _replaced(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, or deleted
    when ``value`` is ``_DELETE``."""
    if not path:
        return value
    out = list(doc) if isinstance(doc, list) else dict(doc)
    k, rest = path[0], path[1:]
    if value is _DELETE and not rest:
        del out[k]
    else:
        out[k] = _replaced(doc[k], rest, value)
    return out


@st.composite
def _decomposition_files(draw):
    name = draw(st.sampled_from(sorted(_FILES)))
    _, doc = _FILES[name]
    if draw(st.booleans()):
        return name, draw(_JSON)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = _DELETE if path and draw(st.booleans()) else draw(_JSON)
        doc = _replaced(doc, path, value)
    return name, doc


def test_valid_decomposition_files_load():
    for sp, doc in _FILES.values():
        verify_decomposition(sp, decomposition_from_json(sp, doc))


@settings(max_examples=300, deadline=None)
@given(case=_decomposition_files())
def test_decomposition_file_fuzz_raises_only_package_errors(case):
    """Arbitrary JSON, and valid files with nodes replaced or deleted, either
    load and verify or raise a ``CellSpacesError``."""
    name, doc = case
    sp, _ = _FILES[name]
    try:
        verify_decomposition(sp, decomposition_from_json(sp, doc))
    except CellSpacesError:
        pass


@pytest.mark.parametrize(
    "name, point",
    [("affine:3", 7), ("affine:3", "x"), ("affine:3", [0]), ("zd:1", {"t": [1]}), ("zd:1", 1)],
)
def test_decomposition_file_refuses_a_point_outside_the_space(name, point):
    sp, doc = _FILES[name]
    doc = _replaced(doc, ("A", 0, 1), doc["A"][0][1] + [point])
    with pytest.raises(ConstructionError, match="is not a point of"):
        decomposition_from_json(sp, doc)


def test_tarski_contradiction_refuses_a_measure_on_another_universe():
    sp = free2()
    D = canonical_free_decomposition(sp, sp.ball_window(2, 3))
    mu = FAMeasure.uniform(sp.ball_window(1, 1))
    with pytest.raises(ScopeMismatchError) as exc:
        tarski_contradiction(sp, D, mu)
    assert str(exc.value) == "measure universe differs from the decomposition scope"


@pytest.mark.parametrize("name", ["free:1", "free:3", "zd:2"])
def test_canonical_decomposition_needs_free2(name):
    sp = space_by_name(name)
    with pytest.raises(ConstructionError) as exc:
        canonical_free_decomposition(sp, sp.ball_window(1, 1))
    assert str(exc.value) == "the closed-form decomposition needs a rank-2 free group"
