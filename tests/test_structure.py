import itertools

import numpy as np
import pytest

from relayquant import (
    FiniteCodebook,
    analyze_codebook,
    apply_unitary,
    diversity_cap,
    hitting_sets,
    is_admissible,
    is_omrs,
    is_srs,
    make_srs,
    max_pairwise_overlap,
    min_max_weight,
)
from relayquant.model import canonical_rows, phase_classes
from tests.conftest import U1, U2


def _sets(cb):
    return set(hitting_sets(cb))


def test_hitting_sets_worked_examples(cb_c1, cb_c2, cb_c3):
    assert _sets(cb_c1) == {(2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)}
    assert _sets(cb_c2) == {(3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)}
    assert _sets(cb_c3) == {(1, 2), (2, 3), (1, 3), (1, 2, 3)}


def test_hitting_sets_srs_only_full_set():
    assert _sets(make_srs(3, np.zeros(3))) == {(1, 2, 3)}


def _combinations_hitting_sets(vectors):
    """Reference: every relay tuple from itertools.combinations, size by size,
    that meets the support of every row."""
    r = vectors.shape[1]
    supports = [set(np.flatnonzero(np.abs(row) > 1e-12) + 1) for row in vectors]
    return tuple(s for k in range(1, r + 1) for s in itertools.combinations(range(1, r + 1), k)
                 if all(support & set(s) for support in supports))


def test_hitting_sets_match_combinations_in_order():
    gen = np.random.default_rng(2027)
    for _ in range(200):
        r, k = int(gen.integers(1, 13)), int(gen.integers(1, 7))
        mags = gen.uniform(0.2, 1.0, (k, r)) * (gen.random((k, r)) < 0.3)
        vectors = mags * np.exp(2j * np.pi * gen.random((k, r)))
        vectors = vectors[gen.integers(k, size=k + int(gen.integers(0, 3)))]  # duplicate rows
        expected = _combinations_hitting_sets(vectors)
        assert hitting_sets(FiniteCodebook(vectors)) == expected


def test_hitting_sets_single_relay():
    assert hitting_sets(FiniteCodebook(np.array([[1.0], [0.5j]]))) == ((1,),)


def test_hitting_sets_zero_row_gives_empty_collection():
    cb = FiniteCodebook(np.array([[1, 0, 0.5], [0, 0, 0], [0, 1j, 0]], dtype=complex))
    assert hitting_sets(cb) == ()
    with pytest.raises(ValueError, match="zero vector"):
        diversity_cap(cb)
    with pytest.raises(ValueError, match="zero vector"):
        analyze_codebook(cb)


def test_hitting_sets_srs_at_enumeration_limit():
    assert hitting_sets(make_srs(20, np.zeros(20))) == (tuple(range(1, 21)),)


def test_hitting_sets_enumeration_cap():
    big = FiniteCodebook(np.ones((1, 21), dtype=complex) * 0.5)
    with pytest.raises(ValueError, match="enumeration cap"):
        hitting_sets(big)


def test_hitting_sets_upward_closed(cb_c1, cb_c2, cb_c3):
    for cb in (cb_c1, cb_c2, cb_c3):
        col = hitting_sets(cb)
        members = set(col)
        for s in col:
            free = [r for r in range(1, cb.relay_count + 1) if r not in s]
            for extra in free:
                assert tuple(sorted(s + (extra,))) in members


def test_min_max_weight_values(cb_c5):
    two = FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1]], dtype=complex))
    assert min_max_weight(two, {3}) == pytest.approx(1.0)
    # admissible codebook over the full index set always yields 1
    assert min_max_weight(cb_c5, {1, 2, 3, 4}) == pytest.approx(1.0)
    # pinned-coordinate families keep at least epsilon on the pinned relay
    pinned = FiniteCodebook(np.array([[0.5, 1.0], [0.6, 0.2]], dtype=complex))
    assert min_max_weight(pinned, {1}) >= 0.25
    with pytest.raises(ValueError):
        min_max_weight(two, set())


def test_diversity_caps_worked_examples(cb_c1, cb_c2, cb_c3):
    assert diversity_cap(cb_c1) == (1, (2,))
    assert diversity_cap(cb_c2) == (1, (3,))
    cap, witness = diversity_cap(cb_c3)
    assert cap == 2 and witness in {(1, 2), (1, 3), (2, 3)}


def test_diversity_cap_unitary_transforms():
    srs = make_srs(3, np.zeros(3))
    assert diversity_cap(srs)[0] == 3
    assert diversity_cap(apply_unitary(srs, U1))[0] == 2
    assert diversity_cap(apply_unitary(srs, U2))[0] == 1


def test_diversity_cap_rejects_zero_vector():
    cb = FiniteCodebook(np.array([[0, 0], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="zero vector"):
        diversity_cap(cb)


def test_diversity_cap_monotone_under_growth():
    gen = np.random.default_rng(13)
    for _ in range(50):
        r = int(gen.integers(2, 5))
        k = int(gen.integers(1, 4))
        base = gen.uniform(0.1, 1.0, (k, r)) * (gen.uniform(0, 1, (k, r)) > 0.4)
        base[:, 0] = np.maximum(base[:, 0], 0.1)  # no zero vectors
        cb = FiniteCodebook(base.astype(complex))
        grown = FiniteCodebook(np.vstack([base, gen.uniform(0.1, 1.0, (1, r))]).astype(complex))
        assert diversity_cap(grown)[0] >= diversity_cap(cb)[0]


def test_omrs_membership(cb_c3, cb_c5):
    assert is_omrs(cb_c5)
    assert is_omrs(make_srs(4, np.ones(4)))
    assert not is_omrs(cb_c3)
    single = FiniteCodebook(np.array([[0.5, 0.5]], dtype=complex))
    assert is_omrs(single)
    # vectors equal up to a global phase, exactly or within ZERO_TOL, are one beamformer
    for dup in (1.0, 1j, 1 + 1e-15):
        assert is_omrs(FiniteCodebook(np.array([[1, 0], [dup, 0], [0, 1]], dtype=complex)))


def test_srs_membership(cb_c5):
    for theta in (np.zeros(3), np.array([0.4, -2.0, 1.1])):
        assert is_srs(make_srs(3, theta))
    assert not is_srs(cb_c5)
    # three entries for two relays: a duplicated selection vector is not SRS
    dup = FiniteCodebook(np.array([[1, 0], [0, 1], [1, 0]], dtype=complex))
    assert not is_srs(dup)
    dup_phase = FiniteCodebook(np.array([[1, 0], [-1, 0]], dtype=complex))
    assert not is_srs(dup_phase)


def test_srs_omrs_equivalence_at_full_cardinality():
    gen = np.random.default_rng(19)
    for _ in range(50):
        r = int(gen.integers(2, 5))
        if gen.uniform() < 0.5:
            cb = make_srs(r, gen.uniform(0, 2 * np.pi, r))
        else:
            mat = gen.uniform(0, 1, (r, r)).astype(complex)
            mat[:, 0] = np.maximum(mat[:, 0], 0.05)
            mat = mat / np.abs(mat).max(axis=1, keepdims=True)
            cb = FiniteCodebook(mat)
        if is_admissible(cb):
            assert (is_omrs(cb) and len(cb) == r) == is_srs(cb)


def test_admissibility(cb_c5):
    assert is_admissible(cb_c5)
    assert not is_admissible(FiniteCodebook(np.array([[0.5, 0.5]], dtype=complex)))
    srs = make_srs(3, np.zeros(3))
    assert not is_admissible(apply_unitary(srs, U1))  # two rows peak at 1/sqrt(2)
    assert not is_admissible(apply_unitary(srs, U2))


def test_overlap_statistic(cb_c3, cb_c5, cb_o1):
    assert max_pairwise_overlap(cb_c5) == 0.0
    assert max_pairwise_overlap(cb_o1) == 0.0
    assert max_pairwise_overlap(cb_c3) == pytest.approx(1.0)
    # twins are one vector, so like a singleton they have no pair to overlap
    twins = FiniteCodebook(np.array([[1, 0], [1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        max_pairwise_overlap(twins)
    with pytest.raises(ValueError):
        max_pairwise_overlap(FiniteCodebook(np.array([[1, 0]], dtype=complex)))


def test_full_cap_iff_contains_selection_codebook():
    gen = np.random.default_rng(29)
    for _ in range(60):
        r = int(gen.integers(2, 5))
        k = int(gen.integers(r, r + 3))
        mat = (gen.uniform(0, 1, (k, r)) * (gen.uniform(0, 1, (k, r)) > 0.5)).astype(complex)
        mat[np.arange(k), gen.integers(0, r, k)] = 1.0  # admissible, no zero vector
        cb = FiniteCodebook(mat)
        cap = diversity_cap(cb)[0]
        full = cap == cb.relay_count
        only_full_set = set(hitting_sets(cb)) == {tuple(range(1, r + 1))}
        assert full == only_full_set
        contains_selection = any(
            is_srs(FiniteCodebook(mat[list(rows)]))
            for rows in _r_subsets(k, r)
        )
        assert full == contains_selection


def _r_subsets(k, r):
    from itertools import combinations
    return combinations(range(k), r)


def test_analyze_report_fields(cb_c2):
    report = analyze_codebook(cb_c2)
    data = report.to_json()
    assert data["diversity_cap"] == 1
    assert data["min_witness_set"] == (3,)
    assert data["cap_from_cardinality"] == 2
    assert data["is_omrs"] is False
    assert data["is_srs"] is False
    assert data["is_admissible"] is True
    assert data["max_pairwise_overlap"] == pytest.approx(1.0)
    assert (3,) in data["index_sets"]
    weights = {tuple(e["set"]): e["value"] for e in data["min_max_weight"]}
    assert weights[(1, 2, 3)] == pytest.approx(1.0)


def test_analyze_singleton_has_no_overlap(cb_c1):
    assert analyze_codebook(cb_c1).max_pairwise_overlap is None


def test_analyze_enumerates_hitting_sets_once(monkeypatch, cb_c2, cb_c5):
    import relayquant.structure as structure

    calls = []
    original = structure.hitting_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "hitting_sets", counted)
    for cb in (cb_c2, cb_c5, make_srs(3, np.zeros(3))):
        calls.clear()
        structure.analyze_codebook(cb)
        assert len(calls) == 1


def test_analyze_rejects_zero_vector():
    cb = FiniteCodebook(np.array([[0, 0], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="codebook contains zero vector"):
        analyze_codebook(cb)


def test_vectorized_structure_checks_match_pairwise_loops():
    # references: the per-pair and per-row loops that the Gram accumulation
    # and the row sorts replaced; overlap sums may differ in the last bits
    gen = np.random.default_rng(61)
    for _ in range(60):
        k, r = int(gen.integers(2, 9)), int(gen.integers(1, 18))
        mags = gen.uniform(0.05, 1.0, (k, r)) * (gen.random((k, r)) < 0.4)
        cb = FiniteCodebook(mags * np.exp(2j * np.pi * gen.random((k, r))))
        d = np.abs(np.unique(cb.vectors, axis=0))
        pairs = [float(np.dot(d[i], d[j])) for i in range(len(d)) for j in range(i + 1, len(d))]
        if pairs:
            assert max_pairwise_overlap(cb) == pytest.approx(max(pairs), rel=1e-14, abs=0.0)
        else:
            with pytest.raises(ValueError):
                max_pairwise_overlap(cb)
        assert is_omrs(cb) == all(x <= 1e-12 for x in pairs)


def _small_support_patterns():
    """(r_count, supports) for every codebook of K <= 4 supports drawn, with
    repetition, from the nonempty subsets of R <= 4 relays: 4,242 in all."""
    for r_count in range(1, 5):
        subsets = [s for size in range(1, r_count + 1)
                   for s in itertools.combinations(range(r_count), size)]
        for k in range(1, 5):
            for supports in itertools.combinations_with_replacement(subsets, k):
                yield r_count, supports


def _check_structural_identities(cb, r_count, supports):
    # the cap is at most K; it equals the number of distinct vectors exactly
    # when their supports are pairwise disjoint (two supports that share a
    # relay are hit by that one relay); and it is R exactly when every relay
    # has a single-relay vector
    cap, _ = diversity_cap(cb)
    case = (r_count, supports)
    assert cap <= len(supports), case
    assert is_omrs(cb) == (cap == len(phase_classes(cb.vectors))), case
    singles = all((r,) in supports for r in range(r_count))
    assert (cap == r_count) == singles, case


def test_structural_identities_on_every_small_support_pattern():
    # seeded magnitudes and phases on every small support pattern
    gen = np.random.default_rng(2010)
    checked = 0
    for r_count, supports in _small_support_patterns():
        vectors = np.zeros((len(supports), r_count), dtype=complex)
        for row, support in zip(vectors, supports):
            cols = list(support)
            row[cols] = (gen.uniform(0.1, 1.0, len(cols))
                         * np.exp(2j * np.pi * gen.uniform(size=len(cols))))
        _check_structural_identities(FiniteCodebook(vectors), r_count, supports)
        checked += 1
    assert checked == 4242


def test_structural_identities_read_supports_at_zero_tol():
    # the same patterns with on-support magnitudes of 1e-7, 0.3 or 1 and
    # off-support entries of 0 or 1e-13: the supports, and so every
    # identity, are those of the pattern, and canonical_rows keeps exactly
    # the support's entries
    gen = np.random.default_rng(2011)
    for r_count, supports in _small_support_patterns():
        pattern = np.zeros((len(supports), r_count), dtype=bool)
        for row, support in zip(pattern, supports):
            row[list(support)] = True
        mags = np.where(pattern, gen.choice([1e-7, 0.3, 1.0], pattern.shape),
                        gen.choice([0.0, 1e-13], pattern.shape))
        cb = FiniteCodebook(mags * np.exp(2j * np.pi * gen.uniform(size=pattern.shape)))
        assert np.array_equal(canonical_rows(cb.vectors) != 0, pattern), supports
        assert hitting_sets(cb) == hitting_sets(FiniteCodebook(pattern.astype(complex)))
        _check_structural_identities(cb, r_count, supports)


def test_structural_identities_count_a_rotated_copy_once():
    # equal magnitudes on each support tie the canonical pivot; a phase-rotated
    # copy of one row is the same beamformer, so the report keeps every field
    # but the listed size, and is_srs, which also asks for exactly R entries
    gen = np.random.default_rng(2012)
    for r_count, supports in _small_support_patterns():
        vectors = np.zeros((len(supports), r_count), dtype=complex)
        for row, support in zip(vectors, supports):
            cols = list(support)
            row[cols] = gen.choice([0.3, 1.0]) * np.exp(2j * np.pi * gen.uniform(size=len(cols)))
        i = int(gen.integers(len(supports)))
        copy = np.exp(2j * np.pi * gen.uniform()) * vectors[i]
        copied = FiniteCodebook(np.vstack([vectors, copy]))
        _check_structural_identities(copied, r_count, supports)
        report = analyze_codebook(copied).to_json()
        expected = dict(analyze_codebook(FiniteCodebook(vectors)).to_json(),
                        codebook_size=len(supports) + 1, is_srs=False)
        assert report == expected, (r_count, supports)
