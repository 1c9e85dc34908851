"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
instance counts and wall time.  Criteria:

1. exact verdicts on the documented worked examples (< 1 s);
2. sequentially Cohen-Macaulay classifier == vertex-decomposability oracle
   on every skew shape with <= 9 boxes, single-threaded, < 5 min;
3. unmixed classifier == minimal-vertex-cover oracle on every skew shape
   with <= 10 boxes, < 5 min;
4. weighted classifiers == ideal-theoretic oracles on every connected shape
   with <= 6 boxes and every filling with weights in {1, 2}, < 15 min;
5. structural identities across the enumerated instances;
6. the test references for monomial ideals (the irreducible decomposition
   that referees the weighted unmixed oracle, by membership) and the
   threshold enumeration of associated radicals vs bounded brute force.
"""

import time
from itertools import combinations, permutations, product

import numpy as np

from skewtab import (SkewShape, SkewTableau,
                     classify_shape, classify_tableau, crosscheck, enumerate_fillings,
                     enumerate_skew_shapes, is_saturated, is_scm_skew, is_scm_tableau,
                     is_unmixed_skew, is_unmixed_tableau, unmixed_decomposition,
                     validate_certificate)
from skewtab.shapes import conjugate_parts

from helpers import (MonomialIdeal, associated_radicals_weighted, bfs_connected,
                     constant_filling, count_components, irreducible_decomposition_reference,
                     is_face, make_weighted_graph, partitions_up_to, polarize,
                     pure_skeleton_link)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1: worked examples ------------------------------------------------


def test_criterion_1_example_suite():
    t0 = time.monotonic()
    assert is_saturated((3, 3, 2, 1)) is True
    assert is_scm_skew(SkewShape((3, 3, 2, 1))) is True
    assert is_saturated((4, 3, 3, 1)) is False
    assert is_scm_skew(SkewShape((4, 3, 3, 1))) is False

    assert is_scm_skew(SkewShape((5, 4, 4), (2, 0, 0))) is False
    assert is_scm_skew(SkewShape((5, 5, 4), (2, 1, 0))) is True

    big = SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0))
    cert = unmixed_decomposition(big)
    assert cert.ok and len(cert.pieces) == 3
    assert cert.pieces[0].exit_block == frozenset({(3, 3), (3, 4), (4, 3), (4, 4)})
    assert cert.pieces[1].exit_block == frozenset({(5, 2)})
    ok, msg = validate_certificate(big, cert)
    assert ok, msg

    mixed_shape = SkewShape((5, 5, 3, 3, 3), (4, 2, 2, 0, 0))
    left = SkewTableau(mixed_shape, [[2], [1, 2, 2], [2], [3, 3, 1], [3, 3, 1]])
    right = SkewTableau(mixed_shape, [[2], [1, 2, 2], [2], [3, 2, 3], [3, 2, 3]])
    assert is_unmixed_tableau(left) is True
    assert is_unmixed_tableau(right) is False

    filling = SkewTableau(SkewShape((5, 4, 4), (2, 1, 0)),
                          [[2, 3, 1], [2, 2, 1], [2, 2, 4, 3]])
    assert is_scm_tableau(filling) is False

    square = classify_shape(SkewShape((2, 2)))
    assert square.buchsbaum and square.gcm and not square.cm

    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    _report("criterion 1 (worked examples)", ok, f"{elapsed:.3f}s")
    assert ok


# Non-SCM witness for the weight-3 variant: a 15-vertex face of the
# Stanley-Reisner complex of the polarization, and the two vertex pairs that
# extend it to 17-vertex faces.
VARIANT_WITNESS_FACE = frozenset({
    "x1_1", "x1_3", "x2_2", "x3_1", "x3_2", "x3_4", "y1_1", "y1_2", "y1_3",
    "y2_2", "y3_2", "y3_3", "y3_4", "y4_2", "y4_3"})
VARIANT_WITNESS_LINK = {frozenset({"x1_2", "x2_1"}), frozenset({"y3_1", "y4_1"})}


def test_criterion_1_yellow_variant_reference_verdict():
    """Reference verdict for the weight-3 variant of the worked filling.

    The variant raises the weight of box (3,1) of the worked filling of
    (5,4,4)/(2,1,0) to 3, giving rows [[2,3,1],[2,2,1],[3,2,4,3]].  It is not
    sequentially Cohen-Macaulay (SCM), and the test checks a witness for this
    that uses none of the theorems behind the classifier or the oracles:

    1. Polarize I = ((x_i y_j)^w) by sending v^e to v_1...v_e.  This gives 22
       vertices; let D be the Stanley-Reisner complex.
    2. F = VARIANT_WITNESS_FACE contains no generator support, so it is a face
       of D with 15 vertices.
    3. The 17-vertex faces of D through F are exactly F plus {x1_2, x2_1} and
       F plus {y3_1, y4_1}.  So the link of F in the pure 16-skeleton D^[16]
       is two disjoint edges: it is 1-dimensional with nonzero reduced H_0
       over every field, and D^[16] is not Cohen-Macaulay by Reisner's
       criterion.
    4. By Duval (1996), D is SCM iff every pure skeleton D^[i] is
       Cohen-Macaulay, so D is not SCM.  Polarization preserves SCM (Faridi
       2005), so S/I is not SCM either.

    Checks 1-3 are recomputed here from the box weights alone.  To show the
    link scan does not flag every face, it is also run over every face of the
    polarization of the all-ones filling of the same shape (8 vertices, 48
    faces; the classifier and the VD oracle call it SCM), and must find no
    disconnected link of dimension >= 1 in any pure skeleton.  The expected verdict is therefore False;
    the repository cannot show where an earlier reference value of True came
    from, since it does not hold the paper's figure.
    """
    shape = SkewShape((5, 4, 4), (2, 1, 0))
    variant = SkewTableau(shape, [[2, 3, 1], [2, 2, 1], [3, 2, 4, 3]])
    verdict = is_scm_tableau(variant)

    t0 = time.monotonic()
    gens = polarize(variant.weights())
    assert len(set().union(*gens)) == 22
    assert is_face(gens, VARIANT_WITNESS_FACE)
    link = pure_skeleton_link(gens, VARIANT_WITNESS_FACE, 17)
    assert set(link) == VARIANT_WITNESS_LINK
    assert count_components(link) == 2

    ones = polarize(constant_filling(shape).weights())
    verts = sorted(set().union(*ones))
    faces = [frozenset(c) for k in range(len(verts) + 1)
             for c in combinations(verts, k) if is_face(ones, frozenset(c))]
    assert (len(verts), len(faces)) == (8, 48)
    top = max(len(f) for f in faces)
    links = [lk for f in faces for size in range(len(f) + 2, top + 1)
             if (lk := pure_skeleton_link(ones, f, size))]
    assert links, "the all-ones scan met no link of dimension >= 1"
    assert all(count_components(lk) == 1 for lk in links)
    elapsed = time.monotonic() - t0

    ok = verdict is False and elapsed < 1.0
    _report("criterion 1 (weight-3 variant reference verdict)", ok,
            f"computed {verdict}, reference expects False; witness link has "
            f"{count_components(link)} components, {len(links)} all-ones "
            f"links connected, {elapsed:.3f}s")
    assert verdict is False
    assert elapsed < 1.0


# -- criteria 2-4: oracle equivalence ---------------------------------------------


def test_criterion_2_scm_oracle_equivalence():
    report = crosscheck("scm", max_boxes=9, jobs=1)
    ok = report.ok and report.seconds < 300
    _report("criterion 2 (scm vs vertex decomposability, <= 9 boxes)", ok,
            f"{report.instances} shapes, {len(report.disagreements)} disagreements, "
            f"{report.seconds:.1f}s")
    assert report.disagreements == []
    assert report.seconds < 300


def test_criterion_3_unmixed_oracle_equivalence():
    report = crosscheck("unmixed", max_boxes=10, jobs=1)
    ok = report.ok and report.seconds < 300
    _report("criterion 3 (unmixed vs cover oracle, <= 10 boxes)", ok,
            f"{report.instances} shapes, {len(report.disagreements)} disagreements, "
            f"{report.seconds:.1f}s")
    assert report.disagreements == []
    assert report.seconds < 300


def test_criterion_4_weighted_oracle_equivalence():
    t0 = time.monotonic()
    scm = crosscheck("scm", max_boxes=6, weighted=True, max_weight=2, jobs=2)
    unm = crosscheck("unmixed", max_boxes=6, weighted=True, max_weight=2, jobs=2)
    elapsed = time.monotonic() - t0
    ok = scm.ok and unm.ok and elapsed < 900
    _report("criterion 4 (weighted classifiers vs ideal oracles)", ok,
            f"{scm.instances} fillings each, "
            f"{len(scm.disagreements) + len(unm.disagreements)} disagreements, "
            f"{elapsed:.1f}s")
    assert scm.disagreements == []
    assert unm.disagreements == []
    assert elapsed < 900


# -- criterion 5: structural identities --------------------------------------------


def test_criterion_5_structural_identities():
    t0 = time.monotonic()

    # saturated(lam) <=> saturated(lam') up to 12 boxes
    for p in partitions_up_to(12):
        assert is_saturated(p) == is_saturated(conjugate_parts(p)), p

    # connectivity formula == breadth-first search, <= 10 boxes
    checked = 0
    for s in enumerate_skew_shapes(10):
        assert s.is_connected() == bfs_connected(s), s
        checked += 1

    # classifier invariance under conjugation; cm = unmixed and scm;
    # certificates validate
    for s in enumerate_skew_shapes(9):
        flags = classify_shape(s)
        assert flags.cm == (flags.unmixed and flags.scm)
        conj = s.conjugate()
        assert is_scm_skew(s) == is_scm_skew(conj), s
        assert is_unmixed_skew(s) == is_unmixed_skew(conj), s
        if s.is_connected():
            cert = unmixed_decomposition(s)
            assert cert.ok == flags.unmixed
            if cert.ok:
                valid, msg = validate_certificate(s, cert)
                assert valid, (s, msg)

    # weighted instances of criterion 4: conjugation invariance and the
    # cm identity, plus the weight-1 degeneration back to the shape case
    for s in enumerate_skew_shapes(6, connected_only=True):
        for t in enumerate_fillings(s, 2):
            flags = classify_tableau(t)
            assert flags.cm == (flags.unmixed and flags.scm)
            assert is_scm_tableau(t) == is_scm_tableau(t.conjugate()), t.to_dict()
        one = constant_filling(s)
        assert is_scm_tableau(one) == is_scm_skew(s)
        assert is_unmixed_tableau(one) == is_unmixed_skew(s)

    elapsed = time.monotonic() - t0
    _report("criterion 5 (structural identities)", True,
            f"{checked} shapes (and weighted instances), {elapsed:.1f}s")


# -- criterion 6: ideal engine self-consistency -------------------------------------


def test_criterion_6a_decomposition_membership():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240809)
    trials = 0
    while trials < 1000:
        nvars = int(rng.integers(1, 6))
        ngens = int(rng.integers(1, 9))
        gens = rng.integers(0, 4, size=(ngens, nvars))
        gens = gens[gens.sum(axis=1) > 0]
        if len(gens) == 0:
            continue
        trials += 1
        variables = tuple(f"x{k}" for k in range(nvars))
        ideal = MonomialIdeal.make(variables, [tuple(map(int, g)) for g in gens])
        comps = irreducible_decomposition_reference(ideal)

        # membership agrees on the whole exponent box; exponents beyond the
        # generator maximum are equivalent to the clamped ones
        box = [np.arange(0, 4)] * nvars
        grid = np.stack(np.meshgrid(*box, indexing="ij"), axis=-1).reshape(-1, nvars)

        def member(mi: MonomialIdeal) -> np.ndarray:
            g = np.array(sorted(mi.generators), dtype=int)
            return (grid[:, None, :] >= g[None, :, :]).all(axis=2).any(axis=1)

        in_ideal = member(ideal)
        in_all = np.ones(len(grid), dtype=bool)
        for c in comps:
            in_all &= member(c)
        assert (in_ideal == in_all).all(), ideal.format()
    elapsed = time.monotonic() - t0
    _report("criterion 6a (decomposition membership, 1000 ideals)", True,
            f"{trials} ideals, {elapsed:.1f}s")


def _connected_graph_classes(max_edges: int) -> dict[int, list[tuple]]:
    """Connected simple graphs with 1..max_edges edges, up to isomorphism.

    Returned as canonical sorted edge tuples on vertices 0..v-1, keyed by
    edge count.  Canonical form is the lexicographic minimum over all vertex
    permutations.
    """
    classes: dict[int, set[tuple]] = {e: set() for e in range(1, max_edges + 1)}
    for v in range(2, max_edges + 2):
        pairs = list(combinations(range(v), 2))
        for e in range(max(1, v - 1), max_edges + 1):
            for edge_set in combinations(pairs, e):
                touched = {x for edge in edge_set for x in edge}
                if len(touched) != v:
                    continue
                # connectivity
                seen = {0}
                frontier = [0]
                while frontier:
                    u = frontier.pop()
                    for a, b in edge_set:
                        nxt = b if a == u else (a if b == u else None)
                        if nxt is not None and nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                if len(seen) != v:
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edge_set))
                    for perm in permutations(range(v)))
                classes[e].add(canon)
    return {e: sorted(cls) for e, cls in classes.items()}


def _brute_radical_masks(edges: list[tuple[int, int]], weights: tuple[int, ...],
                         nv: int, maxw: int) -> set[frozenset[int]]:
    """All associated radicals by colon enumeration, as sets of support masks.

    Exponents are capped at the maximum weight: a colon only compares
    exponents against the generators, so larger entries act like the cap.
    """
    gens = np.zeros((len(edges), nv), dtype=np.int16)
    for k, (a, b) in enumerate(edges):
        gens[k, a] = gens[k, b] = weights[k]
    grids = np.stack(np.meshgrid(*([np.arange(maxw + 1)] * nv), indexing="ij"),
                     axis=-1).reshape(-1, nv)
    colon = np.maximum(gens[None, :, :] - grids[:, None, :], 0)
    outside = ~(colon.sum(axis=2) == 0).any(axis=1)  # x^a not in the ideal
    supports = (colon > 0).astype(np.int64)
    masks = (supports << np.arange(nv, dtype=np.int64)).sum(axis=2)
    out: set[frozenset[int]] = set()
    for row in np.unique(masks[outside], axis=0):
        items = sorted(set(int(m) for m in row))
        minimal = [m for m in items
                   if not any(o != m and o & m == o for o in items)]
        out.add(frozenset(minimal))
    return out


def test_criterion_6b_threshold_radicals_vs_brute_force():
    t0 = time.monotonic()
    max_edges, maxw = 5, 3
    classes = _connected_graph_classes(max_edges)
    counts = {e: len(cls) for e, cls in classes.items()}

    # multisets of connected pieces with at most max_edges edges in total
    pieces = [(e, idx) for e in classes for idx in range(len(classes[e]))]

    def multisets(start: int, budget: int):
        yield []
        for k in range(start, len(pieces)):
            e, _ = pieces[k]
            if e <= budget:
                for rest in multisets(k, budget - e):
                    yield [pieces[k]] + rest

    graphs = [ms for ms in multisets(0, max_edges) if ms]
    instances = 0
    cache: dict[tuple, set[frozenset[int]]] = {}
    for ms in graphs:
        # assemble the disjoint union on a shared vertex list
        edges: list[tuple[int, int]] = []
        comp_spans: list[tuple[int, list[tuple[int, int]]]] = []
        offset = 0
        for e, idx in ms:
            comp_edges = classes[e][idx]
            v = 1 + max(x for edge in comp_edges for x in edge)
            shifted = [(a + offset, b + offset) for a, b in comp_edges]
            edges.extend(shifted)
            comp_spans.append((offset, list(comp_edges)))
            offset += v
        nv = offset
        names = tuple(f"v{k}" for k in range(nv))
        for weight_tuple in product(range(1, maxw + 1), repeat=len(edges)):
            instances += 1
            g = make_weighted_graph(
                names, {(names[a], names[b]): w
                        for (a, b), w in zip(edges, weight_tuple)})
            got = {frozenset(sum(1 << k for k, e in enumerate(gen) if e)
                             for gen in rad.generators)
                   for rad in associated_radicals_weighted(g)}

            # brute-force per component, then cross-sum (disjoint variables)
            per_comp: list[set[frozenset[int]]] = []
            pos = 0
            for offset2, comp_edges in comp_spans:
                ce = len(comp_edges)
                cw = weight_tuple[pos:pos + ce]
                pos += ce
                cv = 1 + max(x for edge in comp_edges for x in edge)
                key = (tuple(comp_edges), cw)
                if key not in cache:
                    cache[key] = _brute_radical_masks(list(comp_edges), cw, cv, maxw)
                per_comp.append({frozenset(m << offset2 for m in masks)
                                 for masks in cache[key]})
            want = {frozenset()}
            for options in per_comp:
                want = {base | extra for base in want for extra in options}
            assert got == want, (ms, weight_tuple)
    elapsed = time.monotonic() - t0
    _report("criterion 6b (threshold radicals vs colon enumeration)", True,
            f"{sum(counts.values())} connected classes, {len(graphs)} graphs, "
            f"{instances} weighted instances, {elapsed:.1f}s")
