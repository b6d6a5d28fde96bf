import math
from collections import Counter

import numpy as np
import pytest

from projstruct import ddm, selection
from projstruct.ddm import (
    CONDITIONAL_VAR_FACTOR,
    DdmConfig,
    DdmPosterior,
    StructureMeasure,
    _log_esp_table,
    _sparsity_terms,
    logsumexp,
    ma_mean,
    sample_conditional,
    sparsity_inclusion_probabilities,
    sparsity_log_normalizer,
    sparsity_ma_mean_exact,
    structure_posterior,
)
from projstruct.linalg import sq_norm
from projstruct.selection import Projections, penalty, select_penalized, size_path
from projstruct.structures import (
    BandingFamily,
    BiclusterFamily,
    Caps,
    ClusteringFamily,
    Family,
    JumpFamily,
    KnotFamily,
    RegressionFamily,
    SmoothnessFamily,
    SparseSet,
    SparsityFamily,
    Truncation,
)


def cfg(kappa=1.0, sigma=1.0, **kw):
    return DdmConfig(kappa=kappa, sigma=sigma, **kw)


def enumerated(y, fam, c):
    """The posterior over the family's whole enumeration."""
    return structure_posterior(y, fam, c, fam.enumerate_structures(), "enumeration")


def esp_table(y, fam, c):
    """Sparsity's log-ESP table of log x = Y^2 / (2 sigma^2)."""
    return _log_esp_table(_sparsity_terms(y, fam, c)[0])


def test_equal_penalized_fit_gives_half_half():
    # n=1: candidates {} and {0}; weights tie when Y^2/(2 sigma^2) = kappa*rho({0})
    fam = SparsityFamily(1)
    y = np.array([2.0])  # rho({0}) = 2, kappa = 1 -> Y^2/2 = 2
    post = enumerated(y, fam, cfg())
    assert np.allclose(np.sort(post.weights()), [0.5, 0.5])


def test_log_elementary_symmetric_matches_direct_expansion():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 3.0, 7)
    got = np.exp(_log_esp_table(np.log(x))[-1])
    # prod (t + x_i) = sum_k e_k t^{n-k}; np.poly lists highest degree first
    coeffs = np.poly(-x)
    assert np.allclose(got, coeffs, rtol=1e-10)


@pytest.mark.parametrize("n", [8, 12])
def test_symmetric_polynomial_normalizer_matches_enumeration(n):
    rng = np.random.default_rng(n)
    fam = SparsityFamily(n)
    for _ in range(10):
        y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        c = cfg(kappa=float(rng.uniform(0.4, 2.0)), sigma=float(rng.uniform(0.5, 2.0)))
        enum = enumerated(y, fam, c)
        log_z = sparsity_log_normalizer(y, fam, c, esp_table(y, fam, c))
        # the unnormalized log weights, under the 2^n normalizer
        sym = enum.log_weights + enum.log_normalizer - log_z
        assert log_z == pytest.approx(enum.log_normalizer, rel=1e-12)
        assert np.allclose(np.exp(sym), enum.weights(), rtol=1e-10)
        assert abs(np.logaddexp.reduce(sym)) <= 1e-12


def test_smoothness_posterior_argmax_matches_hand_enumeration():
    fam = SmoothnessFamily(3)
    y = np.array([10.0, 0.0, 0.0])
    post = enumerated(y, fam, cfg())
    # direct evaluation: log w(I) = -kappa*I - ||tail||^2/2
    raw = [-(level + {0: 50.0, 1: 0.0, 2: 0.0, 3: 0.0}[level]) for level in range(4)]
    best = int(np.argmax(raw))
    assert post.candidates[int(np.argmax(post.log_weights))] == Truncation(best) == Truncation(1)


def test_select_map_matches_penalized_selector():
    """The highest posterior weight sits on the penalized selector's choice:
    log w(I) = -(||Y - P_I Y||^2 / sigma^2 + pen(I)) / 2 - log Z."""
    rng = np.random.default_rng(3)
    fam = SparsityFamily(7)
    for _ in range(100):
        y = rng.standard_normal(7) * rng.uniform(0.5, 2.5)
        c = cfg(kappa=float(rng.uniform(0.4, 2.0)))
        post = enumerated(y, fam, c)
        s_map = post.candidates[int(np.argmax(post.log_weights))]
        s_pen, _ = select_penalized(y, fam, c.sigma, c.kappa)
        assert s_map == s_pen


def test_ma_mean_point_mass_and_symmetric_mixture():
    fam = SparsityFamily(3)
    y = np.array([1.0, -2.0, 0.5])
    empty, full = SparseSet(()), SparseSet((0, 1, 2))
    point = structure_posterior(y, fam, cfg(), [full], "restricted-candidate-set")
    assert np.allclose(ma_mean(y, fam, point), y)
    import projstruct.ddm as ddm_mod

    half = ddm_mod.DdmPosterior(fam, [empty, full], np.log([0.5, 0.5]),
                                "restricted-candidate-set")
    assert np.allclose(ma_mean(y, fam, half), y / 2.0)


def test_ma_mean_matches_direct_sum_on_smoothness():
    fam = SmoothnessFamily(3)
    y = np.array([2.0, -1.0, 0.25])
    post = enumerated(y, fam, cfg())
    direct = np.zeros(3)
    for w, s in zip(post.weights(), post.candidates):
        direct += w * fam.project(s, y)
    assert np.allclose(ma_mean(y, fam, post), direct)


def test_ms_mean_is_projection():
    """The model-selection mean is the projection of Y onto the selected
    subspace, `family.project`."""
    fam = SparsityFamily(4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(fam.project(SparseSet((0, 1, 2, 3)), y), y)
    assert np.allclose(fam.project(SparseSet(()), y), 0.0)


def test_exact_sparsity_marginals_match_enumeration():
    rng = np.random.default_rng(17)
    fam = SparsityFamily(9)
    y = rng.standard_normal(9) * 1.5
    c = cfg(kappa=0.8, sigma=1.2)
    post = enumerated(y, fam, c)
    marg = np.zeros(9)
    for w, s in zip(post.weights(), post.candidates):
        for i in s.indices:
            marg[i] += w
    table = esp_table(y, fam, c)
    assert np.allclose(sparsity_inclusion_probabilities(y, fam, c, table), marg, atol=1e-10)
    assert np.allclose(sparsity_ma_mean_exact(y, fam, c, table), ma_mean(y, fam, post),
                       atol=1e-10)


def leave_one_out_inclusion_probabilities(Y, family, cfg):
    """The O(n^3) reference: one leave-one-out symmetric polynomial per
    coordinate."""
    y = np.asarray(Y, dtype=float)
    log_x = 0.5 * (y * y) / cfg.sigma**2
    log_z = sparsity_log_normalizer(Y, family, cfg, _log_esp_table(log_x))
    base = -0.5 * sq_norm(y) / cfg.sigma**2
    sizes = np.arange(family.n + 1)
    pen = np.array([penalty(family, SparseSet(tuple(range(s))), cfg.kappa, cfg.pen_variant)
                    for s in sizes])
    probs = np.empty(family.n)
    for i in range(family.n):
        loo = np.delete(log_x, i)
        log_esp_loo = _log_esp_table(loo)[-1]  # sizes 0..n-1
        # mass of subsets containing i, by size s = 1..n
        terms = base - 0.5 * pen[1:] + log_x[i] + log_esp_loo
        probs[i] = math.exp(logsumexp(terms) - log_z)
    return np.clip(probs, 0.0, 1.0)


def _marginal_inputs(n, rng):
    """Gaussian data with zeros, exact ties in |Y|, and one coordinate
    with log x = Y^2 / (2 sigma^2) near 1e4 (sigma = 1)."""
    y = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
    y[rng.permutation(n)[:max(1, n // 5)]] = 0.0
    if n >= 3:
        y[1], y[2] = 2.5, -2.5
    big = y.copy()
    big[-1] = math.sqrt(2.0e4)
    return [y, big]


@pytest.mark.parametrize("pen_variant", ["main", "map"])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 200])
def test_sparsity_marginals_match_leave_one_out(n, pen_variant):
    rng = np.random.default_rng(1000 + n)
    fam = SparsityFamily(n)
    for y in _marginal_inputs(n, rng):
        c = cfg(kappa=float(rng.uniform(0.3, 2.0)), pen_variant=pen_variant)
        got = sparsity_inclusion_probabilities(y, fam, c, esp_table(y, fam, c))
        want = leave_one_out_inclusion_probabilities(y, fam, c)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("pen_variant", ["main", "map"])
def test_sparsity_marginals_match_enumeration_both_penalties(pen_variant):
    rng = np.random.default_rng(29)
    for n in (1, 4, 12):
        fam = SparsityFamily(n)
        for y in _marginal_inputs(n, rng):
            c = cfg(kappa=float(rng.uniform(0.3, 2.0)), sigma=1.0, pen_variant=pen_variant)
            post = enumerated(y, fam, c)
            marg = np.zeros(n)
            for w, s in zip(post.weights(), post.candidates):
                marg[list(s.indices)] += w
            got = sparsity_inclusion_probabilities(y, fam, c, esp_table(y, fam, c))
            np.testing.assert_allclose(got, marg, rtol=1e-10, atol=0.0)


def test_posterior_scale_invariance():
    rng = np.random.default_rng(5)
    fam = SparsityFamily(6)
    y = rng.standard_normal(6)
    base = enumerated(y, fam, cfg(sigma=0.7))
    scaled = enumerated(3.0 * y, fam, cfg(sigma=2.1))
    assert np.allclose(base.log_weights, scaled.log_weights, atol=1e-12)


def test_ms_ddm_is_degenerate_mixture():
    fam = SmoothnessFamily(4)
    y = np.array([3.0, 2.0, 0.1, 0.0])
    c = cfg()
    post = enumerated(y, fam, c)
    i_hat, _ = select_penalized(y, fam, c.sigma, c.kappa)
    import projstruct.ddm as ddm_mod

    degenerate = ddm_mod.DdmPosterior(
        fam, post.candidates,
        np.log(np.array([1.0 if s == i_hat else 1e-300 for s in post.candidates])),
        "restricted-candidate-set")
    assert np.allclose(ma_mean(y, fam, degenerate), fam.project(i_hat, y), atol=1e-9)


def test_sample_conditional_support_and_covariance():
    fam = SparsityFamily(5)
    y = np.array([2.0, -1.0, 0.5, 3.0, 0.0])
    s = SparseSet((0, 3))
    rng = np.random.default_rng(11)
    c = cfg(sigma=1.5)
    draws = sample_conditional(y, fam, s, c, rng, 100_000)
    arr = np.stack(draws)
    # supported on L_I
    assert np.max(np.abs(arr[:, [1, 2, 4]])) == 0.0
    proj = fam.project_many(s, arr)
    assert np.max(np.abs(proj - arr)) <= 1e-9
    center = fam.project(s, y)
    target_var = CONDITIONAL_VAR_FACTOR * c.sigma**2
    for i in (0, 3):
        se_mean = math.sqrt(target_var / arr.shape[0])
        assert abs(arr[:, i].mean() - center[i]) <= 4.0 * se_mean
        v = arr[:, i].var()
        se_var = target_var * math.sqrt(2.0 / arr.shape[0])
        assert abs(v - target_var) <= 3.0 * se_var


def _sample_conditional_oracle(Y, family, structure, c, rng, count):
    """`sample_conditional` as family.project(structure, Y) plus the scaled
    projected draws, each step a new array."""
    center = family.project(structure, Y)
    scale = c.sigma * math.sqrt(CONDITIONAL_VAR_FACTOR)
    noise = rng.standard_normal((count, family.ambient_dim))
    return center + scale * family.project_many(structure, noise)


def test_sample_conditional_with_the_memo_has_the_bytes_of_the_call_without():
    """Centered at the row the selector stored in the memo, the draws have
    the bytes of the call that makes its own memo, and of the center
    projected apart and the draws scaled and shifted into new arrays."""
    families = [SmoothnessFamily(64), SparsityFamily(12), JumpFamily(10), BandingFamily(4),
                KnotFamily(7), ClusteringFamily(6)]
    for seed, family in enumerate(families):
        y = np.random.default_rng(seed).standard_normal(family.ambient_dim) * 2.0
        c = cfg(sigma=0.7)
        proj = Projections(y, family)
        structure, _ = select_penalized(y, family, 0.7, 1.0, proj=proj)
        got = sample_conditional(y, family, structure, c, np.random.default_rng(9), 5, proj)
        alone = sample_conditional(y, family, structure, c, np.random.default_rng(9), 5)
        want = _sample_conditional_oracle(y, family, structure, c, np.random.default_rng(9), 5)
        assert got.tobytes() == alone.tobytes() == want.tobytes(), family.tag
        assert got.flags.writeable and got.flags.c_contiguous


def _logsumexp_oracle(values):
    """`logsumexp` with np.isfinite and np.sum."""
    values = np.asarray(values, dtype=float)
    hi = values.max()
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + math.log(np.sum(np.exp(values - hi))))


def test_logsumexp_has_the_bytes_of_the_formula():
    """Random, single-entry, all -inf and +inf inputs give the old formula's
    float."""
    rng = np.random.default_rng(24)
    cases = [rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 3)
             for size in (1, 2, 3, 50, 1000) for _ in range(5)]
    cases += [np.array([-3.5]), np.array([0.0]), np.array([-math.inf]),
              np.full(4, -math.inf), np.array([-math.inf, 2.0, -math.inf]),
              np.array([1.0, math.inf]), np.array([math.inf])]
    for values in cases:
        got, want = logsumexp(values), _logsumexp_oracle(values)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(want).tobytes(), values


def test_sample_conditional_degenerate_cases():
    fam = SparsityFamily(3)
    y = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    zero_sigma = DdmConfig(kappa=1.0, sigma=0.0)
    draws = sample_conditional(y, fam, SparseSet((1,)), zero_sigma, rng, 5)
    for d in draws:
        assert np.array_equal(d, fam.project(SparseSet((1,)), y))
    empty = sample_conditional(y, fam, SparseSet(()), cfg(), rng, 3)
    for d in empty:
        assert np.array_equal(d, np.zeros(3))


@pytest.mark.parametrize("kappa,sigma", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                         (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
def test_config_rejects_non_finite_or_out_of_range_kappa_and_sigma(kappa, sigma):
    with pytest.raises(ValueError, match="kappa must be positive"):
        DdmConfig(kappa=kappa, sigma=sigma)


def test_posterior_export():
    fam = SparsityFamily(3)
    y = np.array([1.0, -1.0, 0.5])
    post = enumerated(y, fam, cfg())
    exported = post.export()
    assert len(exported) == 8
    lw = [row["log_weight"] for row in exported]
    assert lw == sorted(lw, reverse=True)
    assert exported[0]["structure"]["family"] == "sparsity"
    for top_k in (0, 3, 8, 20):
        assert post.export(top_k) == exported[:top_k]


def test_sparsity_log_normalizer_empty_candidates_error():
    fam = SparsityFamily(4)
    with pytest.raises(ValueError):
        structure_posterior(np.zeros(4), fam, cfg(), [], "restricted-candidate-set")


def test_logsumexp_shift_invariance():
    from projstruct.ddm import logsumexp

    rng = np.random.default_rng(23)
    raw = rng.standard_normal(50) * 10.0
    # shifts stay at magnitudes where x + shift is exactly representable
    # to double resolution; 700 also exercises the overflow guard
    for shift in (-500.0, -3.0, 0.0, 7.5, 700.0):
        shifted = raw + shift
        norm_a = raw - logsumexp(raw)
        norm_b = shifted - logsumexp(shifted)
        assert np.max(np.abs(norm_a - norm_b)) <= 1e-12


def test_select_map_tie_rules():
    """Equal posterior weights are equal objectives to the selectors' tie
    rule (`_ArgminTracker`): among tied structures the smallest majorant
    wins, then the canonical enumeration order."""
    fam = SparsityFamily(2)

    def pick(*candidates):
        tracker = selection._ArgminTracker(fam)
        for s in candidates:
            tracker.offer(s, 1.0)
        return tracker.result()[0]

    assert pick(SparseSet((0,))) == SparseSet((0,))
    # exact tie between two singletons: equal majorant -> canonical order
    assert pick(SparseSet((1,)), SparseSet((0,))) == SparseSet((0,))
    # tie between different majorants -> smaller majorant wins
    assert pick(SparseSet((0, 1)), SparseSet(())) == SparseSet(())


def test_sample_conditional_covariance_on_non_coordinate_subspace():
    # two-segment piecewise-constant subspace: the conditional covariance must
    # be factor * P with P the block-averaging projector, not a diagonal
    from projstruct.structures import JumpFamily, JumpSet

    fam = JumpFamily(4)
    s = JumpSet((1,))  # segments {0,1} and {2,3}
    y = np.array([1.0, 3.0, -2.0, 0.0])
    rng = np.random.default_rng(77)
    c = cfg(sigma=1.0)
    arr = np.stack(sample_conditional(y, fam, s, c, rng, 60_000))
    eye = np.eye(4)
    proj = np.column_stack([fam.project(s, e) for e in eye])
    target = CONDITIONAL_VAR_FACTOR * proj
    emp = np.cov(arr.T, bias=True)
    assert np.max(np.abs(emp - target)) <= 0.01


def test_sample_conditional_returns_one_array_of_the_row_values():
    """One (count, N) array whose rows are center + scale * z, row by row."""
    fam = SmoothnessFamily(6)
    y = np.linspace(-1.0, 2.0, 6)
    s = Truncation(3)
    c = cfg(sigma=0.7)
    draws = sample_conditional(y, fam, s, c, np.random.default_rng(5), 4)
    assert isinstance(draws, np.ndarray) and draws.shape == (4, 6)
    scale = c.sigma * math.sqrt(CONDITIONAL_VAR_FACTOR)
    z = np.random.default_rng(5).standard_normal((4, 6))
    center = fam.project(s, y)
    rows = [center + scale * row for row in fam.project_many(s, z)]
    assert draws.tobytes() == np.stack(rows).tobytes()


@pytest.mark.parametrize("n", [1, 5, 100, 601])
def test_sparsity_size_penalties_match_the_written_out_formula(n):
    """log c_k against pen_k = 2 kappa size_majorant(k) (+ k under map),
    written out as a numpy array."""
    y = np.random.default_rng(n).standard_normal(n)
    for variant in ("rho", "rho_prime"):
        fam = SparsityFamily(n, variant)
        sizes = np.arange(n + 1)
        for kappa in (0.3, 1.0, math.e - 1.0):
            for pen_variant in ("main", "map"):
                c = cfg(kappa=kappa, sigma=0.8, pen_variant=pen_variant)
                pen = np.array([2.0 * kappa * fam.size_majorant(k) for k in sizes])
                if pen_variant == "map":
                    pen += sizes
                base = -0.5 * sq_norm(y) / c.sigma**2
                assert _sparsity_terms(y, fam, c)[1].tobytes() == (base - 0.5 * pen).tobytes()


# past POSTERIOR_CAPS, each with a search: regression has 174,437 supports
SEARCHED = {
    "regression-heuristic": (lambda: RegressionFamily(
        np.random.default_rng(5).standard_normal((30, 30))), "heuristic"),
    "bicluster-heuristic": (lambda: BiclusterFamily(3, 9), "heuristic"),
    "clustering-heuristic": (lambda: ClusteringFamily(10), "heuristic"),
    "clustering-exact": (lambda: ClusteringFamily(10), "exact"),
}


def _searched_posterior(fam, mode, y):
    proj = Projections(y, fam)
    selected, _ = select_penalized(y, fam, 1.0, 1.0, mode=mode, rng=np.random.default_rng(3),
                                   proj=proj)
    return selected, proj, StructureMeasure(proj, cfg()).posterior


@pytest.mark.parametrize("name", sorted(SEARCHED))
def test_restricted_posterior_ranges_over_what_the_selector_scored(name):
    make, mode = SEARCHED[name]
    fam = make()
    rng = np.random.default_rng(17)
    for scale in (0.3, 1.0, 3.0):
        selected, proj, post = _searched_posterior(fam, mode, scale * rng.standard_normal(
            fam.ambient_dim))
        assert post.method == "restricted-candidate-set"
        assert post.candidates == proj.searched
        assert selected in post.candidates


def test_exact_clustering_posterior_covers_every_cluster_count():
    """Exact clustering past the enumeration cap: the posterior ranges over
    the cells of the exact DP, every cluster count up to n // 2, and not only
    over those of at most 4 clusters."""
    y = np.random.default_rng(8).standard_normal(10)
    _, _, post = _searched_posterior(ClusteringFamily(10), "exact", y)
    assert {len(s.clusters) for s in post.candidates} == set(range(6))


# the size-indexed families, with the sizes the oracle enumerates in full
SIZE_INDEXED = {
    "smoothness": (SmoothnessFamily, range(1, 11)),
    "sparsity": (SparsityFamily, range(1, 11)),
    "sparsity-rho-prime": (lambda n: SparsityFamily(n, "rho_prime"), range(1, 11)),
    "banding": (BandingFamily, range(1, 7)),
}


def _size_indexed_cases(name):
    make, sizes = SIZE_INDEXED[name]
    rng = np.random.default_rng(sorted(SIZE_INDEXED).index(name))
    for n in sizes:
        fam = make(n)
        for scale in (0.05, 1.0, 30.0):
            # rounded data ties magnitudes, and so sizes on the sparsity path
            y = np.round(scale * rng.standard_normal(fam.ambient_dim), 1)
            yield fam, y, float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 2.0))


def _assert_posteriors_agree(got, want):
    assert got.candidates == want.candidates and got.method == want.method
    assert got.log_normalizer == pytest.approx(want.log_normalizer, rel=1e-12, abs=1e-12)
    # log weights are log_z-sized terms minus log_z
    tol = 1e-12 * (1.0 + abs(want.log_normalizer))
    assert np.max(np.abs(got.log_weights - want.log_weights)) <= tol


@pytest.mark.parametrize("pen_variant", ["main", "map"])
@pytest.mark.parametrize("name", sorted(SIZE_INDEXED))
def test_size_indexed_measure_matches_the_projection_oracle(name, pen_variant):
    """Weights from the size arrays and theta_tilde from one reverse
    cumulative sum, against projecting every enumerated structure."""
    for fam, y, kappa, sigma in _size_indexed_cases(name):
        c = cfg(kappa=kappa, sigma=sigma, pen_variant=pen_variant)
        measure = StructureMeasure(Projections(y, fam), c)
        want = enumerated(y, fam, c)
        _assert_posteriors_agree(measure.posterior, want)
        if isinstance(fam, SparsityFamily):
            continue  # theta_tilde is Y times the exact marginals
        mean = ma_mean(y, fam, want)
        assert np.max(np.abs(measure.theta_tilde - mean)) <= 1e-12 * (1.0 + np.abs(mean).max())


@pytest.mark.parametrize("pen_variant", ["main", "map"])
@pytest.mark.parametrize("name", sorted(SIZE_INDEXED))
def test_size_indexed_measure_past_the_cap_matches_the_projection_oracle(name, pen_variant,
                                                                         monkeypatch):
    """Past POSTERIOR_CAPS sparsity weighs its nested path under the exact
    2^n normalizer; smoothness and banding have no posterior."""
    monkeypatch.setattr(ddm, "POSTERIOR_CAPS", Caps(max_count=1))
    for fam, y, kappa, sigma in _size_indexed_cases(name):
        c = cfg(kappa=kappa, sigma=sigma, pen_variant=pen_variant)
        measure = StructureMeasure(Projections(y, fam), c)
        if not isinstance(fam, SparsityFamily):
            assert fam.n_sizes == 1 or (measure.posterior, measure.theta_tilde) == (None, None)
            continue
        path = size_path(y, fam)
        candidates = [path.build(k) for k in range(fam.n_sizes)]
        # the path's weights, each projected, under the exact 2^n normalizer
        rest = structure_posterior(y, fam, c, candidates, "restricted-candidate-set")
        log_z = sparsity_log_normalizer(y, fam, c, esp_table(y, fam, c))
        want = DdmPosterior(fam, candidates, rest.log_weights + rest.log_normalizer - log_z,
                            "symmetric-polynomial", log_z)
        _assert_posteriors_agree(measure.posterior, want)
        assert measure.posterior.log_normalizer == log_z


@pytest.mark.parametrize("fam", [SmoothnessFamily(300), BandingFamily(12), SparsityFamily(12),
                                 SparsityFamily(200)], ids=lambda f: f"{f.tag}-{f.ambient_dim}")
def test_size_indexed_measure_projects_nothing(fam, monkeypatch):
    calls = []
    for name in ("project", "project_many"):
        def counting(self, *args, _real=getattr(Family, name), **kwargs):
            calls.append(1)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(Family, name, counting)
    y = np.random.default_rng(4).standard_normal(fam.ambient_dim)
    measure = StructureMeasure(Projections(y, fam), cfg())
    assert measure.posterior is not None and measure.theta_tilde is not None
    assert calls == []


def _measure_counts(fam, y, monkeypatch):
    """theta_tilde after the posterior on a fresh memo, the memo, and per
    structure the labelings scored by the label kernel, the rows given to
    `_project_stack` and the `validate` calls, those made through
    `majorant` included."""
    labeled, stacked, validated = Counter(), Counter(), Counter()
    labels, stack, validate = fam._labels, fam._project_stack, fam.validate

    def counting_labels(structures):
        labeled.update(structures)
        return labels(structures)

    def counting_stack(structures, y):
        stacked.update(structures)
        return stack(structures, y)

    def counting_validate(s):
        validated[s] += 1
        return validate(s)

    with monkeypatch.context() as m:
        m.setattr(fam, "_labels", counting_labels)
        m.setattr(fam, "_project_stack", counting_stack)
        m.setattr(fam, "validate", counting_validate)
        proj = Projections(y, fam)
        measure = StructureMeasure(proj, cfg())
        assert measure.posterior.method == "enumeration"
        theta = measure.theta_tilde
    return measure.posterior, theta, proj, labeled, stacked, validated


@pytest.mark.parametrize("fam", [ClusteringFamily(8), JumpFamily(10)],
                         ids=lambda f: f"{f.tag}-{f.ambient_dim}")
def test_posterior_scores_each_candidate_once_by_the_label_kernel(fam, monkeypatch):
    """The enumerated posterior of a partition family scores each candidate
    once, from its block ids, stacks none and stores every row; theta_tilde
    reads those rows, projecting nothing, and has the bytes of `ma_mean` on
    a fresh memo.  With a smaller memo bound the memo stores no more rows
    than the bound and theta_tilde keeps its bytes.  (That every enumerated
    candidate validates is
    `test_every_enumerated_partition_structure_validates_and_labels_its_blocks`.)"""
    y = np.random.default_rng(fam.ambient_dim).standard_normal(fam.ambient_dim)
    post, theta, proj, labeled, stacked, validated = _measure_counts(fam, y, monkeypatch)
    assert np.count_nonzero(post.weights()) > len(post.candidates) // 2
    assert labeled == dict.fromkeys(post.candidates, 1)
    assert not stacked and not validated
    assert list(proj.stored) == post.candidates
    assert theta.tobytes() == ma_mean(y, fam, post).tobytes()
    monkeypatch.setattr(selection, "POSTERIOR_CAPS", Caps(max_count=100))
    _, bounded, proj, labeled, stacked, _ = _measure_counts(fam, y, monkeypatch)
    assert labeled == dict.fromkeys(post.candidates, 1)
    assert list(proj.stored) == post.candidates[:100]
    assert stacked == dict.fromkeys(post.candidates[100:], 1)  # theta_tilde projects the rest
    assert bounded.tobytes() == theta.tobytes()


def _projection_posterior(y, fam, c, candidates, method):
    """`structure_posterior` as it was before partition families were scored
    from labels: every candidate projected by `Projections.project_all`, its
    penalty from the validating `penalty`.  It stays as the oracle, with
    its memo."""
    proj = Projections(y, fam)
    rss = [r for chunk in selection.chunks(candidates) for r in proj.rss_all(chunk)]
    pen = [penalty(fam, s, c.kappa, c.pen_variant) for s in candidates]
    raw = -0.5 * (np.array(rss) / c.sigma**2 + np.array(pen))
    log_z = logsumexp(raw)
    return DdmPosterior(fam, candidates, raw - log_z, method, log_z), proj


def _projection_ma_mean(y, fam, post):
    """`ma_mean` as it was: out += w * P_I y, one candidate at a time, in
    candidate order, over the nonzero weights."""
    out = np.zeros(fam.ambient_dim)
    for w, s in zip(post.weights(), post.candidates):
        if w != 0.0:
            out += w * fam.project(s, y)
    return out


def _partition_cases():
    """Clustering n <= 8 under every max_blocks, jump n <= 12 and bicluster
    up to 3 x 4, each on rounded (tied) data, half of it offset by 1e6."""
    rng = np.random.default_rng(2033)
    enumerations = [(ClusteringFamily(n), Caps(max_blocks=b))
                    for n in range(1, 9) for b in (None, *range(0, n // 2 + 1))]
    enumerations += [(JumpFamily(n), Caps()) for n in range(2, 13)]
    enumerations += [(BiclusterFamily(n1, n2), Caps(max_blocks=b))
                     for n1, n2 in ((1, 3), (2, 2), (3, 3), (3, 4)) for b in (None, 2)]
    for case, (fam, caps) in enumerate(enumerations):
        scale = float(rng.choice([0.3, 1.0, 4.0]))
        y = np.round(scale * rng.standard_normal(fam.ambient_dim), case % 2)
        yield fam, list(fam.enumerate_structures(caps)), y + (1e6 if case % 4 >= 2 else 0.0)


@pytest.mark.parametrize("bound", [None, 100])
@pytest.mark.parametrize("pen_variant", ["main", "map"])
def test_partition_posterior_has_the_bytes_of_the_projection_oracle(pen_variant, bound,
                                                                    monkeypatch):
    """Log weights, log normalizer, theta_tilde and every stored memo row of
    the label-kernel posterior, enumerated and restricted, against
    projecting each candidate; bound patches the memo's row bound."""
    if bound is not None:
        monkeypatch.setattr(selection, "POSTERIOR_CAPS", Caps(max_count=bound))
    rng = np.random.default_rng(7)
    for fam, candidates, y in _partition_cases():
        c = cfg(kappa=float(rng.uniform(0.3, 2.0)), sigma=float(rng.uniform(0.3, 2.0)),
                pen_variant=pen_variant)
        some = sorted(rng.choice(len(candidates), (len(candidates) + 1) // 2, replace=False))
        for method, subset in (("enumeration", candidates),
                               ("restricted-candidate-set", [candidates[k] for k in some])):
            want, _ = _projection_posterior(y, fam, c, subset, method)
            proj = Projections(y, fam)
            got = structure_posterior(y, fam, c, subset, method, proj=proj)
            assert got.candidates == subset and got.method == method
            assert got.log_weights.tobytes() == want.log_weights.tobytes(), (fam.tag, method)
            assert got.log_normalizer.hex() == want.log_normalizer.hex()
            assert list(proj.stored) == subset[:bound]
            for s, row in proj.stored.items():
                assert row.tobytes() == fam.project(s, y).tobytes() and not row.flags.writeable
            theta = ma_mean(y, fam, got, proj)
            assert theta.tobytes() == _projection_ma_mean(y, fam, want).tobytes(), fam.tag


@pytest.mark.parametrize("name", sorted(set(SEARCHED) - {"regression-heuristic"}))
def test_restricted_partition_posterior_has_the_bytes_of_the_projection_oracle(name):
    """Past the cap the posterior of a search ranges over what it scored;
    the label kernel scores those candidates with the bytes of projecting
    them, and theta_tilde keeps the bytes of `ma_mean` as it was."""
    make, mode = SEARCHED[name]
    fam = make()
    y = np.round(np.random.default_rng(4).standard_normal(fam.ambient_dim), 1)
    proj = Projections(y, fam)
    select_penalized(y, fam, 1.0, 1.0, mode=mode, rng=np.random.default_rng(3), proj=proj)
    measure = StructureMeasure(proj, cfg())
    want, _ = _projection_posterior(y, fam, cfg(), proj.searched, "restricted-candidate-set")
    assert measure.posterior.log_weights.tobytes() == want.log_weights.tobytes()
    assert measure.posterior.log_normalizer.hex() == want.log_normalizer.hex()
    assert measure.theta_tilde.tobytes() == _projection_ma_mean(y, fam, want).tobytes()


def test_export_top_k_is_the_sorted_prefix_with_tied_weights():
    """export(k) is the first k rows of sorting every candidate by weight,
    then by sort key, also when many weights tie at the cut."""
    fam = ClusteringFamily(5)
    candidates = list(fam.enumerate_structures())
    rng = np.random.default_rng(11)
    for ties in (1, 2, 5, len(candidates)):
        log_weights = rng.integers(0, ties, len(candidates)) * -0.5
        log_weights[rng.integers(0, len(candidates), 3)] = -np.inf
        order = rng.permutation(len(candidates))  # candidates in no sort-key order
        post = DdmPosterior(fam, [candidates[k] for k in order], log_weights, "enumeration")
        rows = sorted(zip(post.candidates, post.log_weights),
                      key=lambda row: (-row[1], fam.sort_key(row[0])))
        want = [{"structure": fam.structure_to_json(s), "log_weight": float(w)} for s, w in rows]
        assert post.export() == want
        for top_k in (0, 1, 2, 3, 7, len(candidates) - 1, len(candidates), len(candidates) + 5):
            assert post.export(top_k) == want[:top_k], (ties, top_k)
