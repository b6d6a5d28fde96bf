import decimal
import logging
import math
import tracemalloc

import numpy as np
import pytest

from projstruct import noise as noise_module
from projstruct import structures as structures_module
from projstruct.errors import CapExceededError, UnsupportedFamilyError
from projstruct.noise import (NoiseModel, _log_mean_exp_with_jackknife, _projected_sq_norms,
                              check_a1, check_a2, check_a3, check_a4)
from projstruct.structures import (
    BandingFamily,
    BiclusterFamily,
    Caps,
    ClusteringFamily,
    JumpFamily,
    KnotFamily,
    LeveledSparsityFamily,
    RegressionFamily,
    RegressionSupport,
    SmoothnessFamily,
    SparsityFamily,
)

from conftest import ENUM_CAPS

BERNOULLI_ALPHA = (math.e - 1.0) / (2.0 * (1.0 + math.e))


def test_streams_are_zero_mean_and_deterministic():
    reps = 40_000
    for kind, kwargs in [("gaussian", {}), ("bounded-uniform", {"half_width": 2.0}),
                         ("rademacher", {}), ("ar1", {"coefficient": 0.6})]:
        model = NoiseModel(kind, **kwargs)
        draws = model.sample_many(np.random.default_rng(0), reps, 4)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 / math.sqrt(reps) *
                      max(1.0, kwargs.get("half_width", 1.0)))
        again = model.sample_many(np.random.default_rng(0), reps, 4)
        assert np.array_equal(draws, again)

    theta = (0.2, 0.8, 0.5)
    model = NoiseModel("bernoulli-mean", theta=theta)
    draws = model.sample_many(np.random.default_rng(1), reps, 3)
    assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 / math.sqrt(reps))


def test_ar1_autocorrelation():
    model = NoiseModel("ar1", coefficient=0.7)
    x = model.sample(np.random.default_rng(3), 200_000)
    corr = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(corr - 0.7) <= 3.0 / math.sqrt(x.size)


def test_a1_gaussian_smoothness_matches_chi_square_closed_form():
    # At alpha = 0.15 the plug-in MGF estimator has finite variance
    # (2*alpha < 1/2), so the chi-square closed form is recovered within
    # Monte Carlo error.
    fam = SmoothnessFamily(6)
    rows = check_a1(fam, NoiseModel("gaussian"), alpha=0.15, reps=40_000,
                    rng=np.random.default_rng(7), se_mult=3.0)
    for row in rows:
        d = fam.dim(row.structure)
        closed = -(d / 2.0) * math.log(1.0 - 0.3)  # log E exp(0.15 chi^2_d)
        if d == 0:
            assert row.estimate == 0.0
        else:
            assert abs(row.estimate - closed) <= 4.0 * max(row.std_err, 0.005)
        assert row.passed, (d, row.estimate, row.bound)


def test_a1_gaussian_alpha_04_passes_dimension_bound():
    # At alpha = 0.4 the estimator is heavy tailed (downward biased), but the
    # pass criterion est <= d_I + margin is exactly what the condition needs:
    # the true value -(d/2) log(0.2) = 0.805 d stays below d.
    fam = SmoothnessFamily(6)
    rows = check_a1(fam, NoiseModel("gaussian"), alpha=0.4, reps=40_000,
                    rng=np.random.default_rng(7), se_mult=3.0)
    for row in rows:
        d = fam.dim(row.structure)
        assert row.passed, (d, row.estimate, row.bound)
        if d > 0:
            assert row.estimate <= -(d / 2.0) * math.log(1.0 - 0.8) + 4.0 * row.std_err


def test_a1_bernoulli_block_constant_passes():
    fam = BiclusterFamily(3, 3)
    theta = np.full(9, 0.4)
    noise = NoiseModel("bernoulli-mean", theta=tuple(theta))
    rows = check_a1(fam, noise, alpha=BERNOULLI_ALPHA, reps=30_000,
                    rng=np.random.default_rng(11), caps=Caps(max_blocks=3), se_mult=3.0)
    assert all(row.passed for row in rows)


def test_a2_closed_form_bounds():
    smooth = check_a2(SmoothnessFamily(30), nu=1.0)
    assert smooth.bound == pytest.approx(math.e / (math.e - 1.0))
    assert smooth.total <= smooth.bound and smooth.passed

    sparse = check_a2(SparsityFamily(8), nu=2.0)
    assert sparse.bound == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))
    assert sparse.total <= sparse.bound and sparse.passed
    assert sparse.count == 2**8
    assert sparse.min_rho_minus_dim >= 0.0

    single = check_a2(BandingFamily(1), nu=1.5)
    assert single.count == 1
    assert single.total == pytest.approx(math.exp(-1.5 * 1.0))  # e^{-nu*rho}, rho = d = 1


def test_a3_reports():
    rng = np.random.default_rng(0)
    ok = check_a3(SmoothnessFamily(8), 100, rng)
    assert ok.passed and ok.max_rho_excess <= 0.0
    ok = check_a3(SparsityFamily(6), 100, rng)
    assert ok.passed
    with pytest.raises(UnsupportedFamilyError):
        check_a3(ClusteringFamily(4), 10, rng)
    # bicluster: containment holds, subadditivity fails on adversarial pairs
    report = check_a3(BiclusterFamily(3, 3), 200, rng, caps=Caps(max_blocks=3))
    assert report.max_containment_residual <= 1e-8


def _pair_at_a_time_a3(family, n_pairs, rng, caps=None):
    """`check_a3` one pair at a time, each part and union projected through
    `project`, kept as the oracle of the stacked check."""
    structures = list(family.enumerate_structures(caps))
    max_resid, max_excess, subadditive = 0.0, -math.inf, True
    for _ in range(n_pairs):
        i0, i1 = (structures[rng.integers(len(structures))] for _ in range(2))
        u = family.union_structure(i0, i1)
        x = rng.standard_normal(family.ambient_dim)
        for part in (i0, i1):
            px = family.project(part, x)
            max_resid = max(max_resid, float(np.linalg.norm(family.project(u, px) - px)))
        budget = family.majorant(i0) + family.majorant(i1)
        excess = family.majorant(u) - budget
        max_excess = max(max_excess, excess)
        if excess > 1e-12 * (1.0 + abs(budget)):
            subadditive = False
    return noise_module.A3Report(n_pairs, max_resid, max_excess,
                                 max_resid <= noise_module.CONTAINMENT_TOL and subadditive)


def _repeated_column_design():
    """30 x 16 with column 9 a copy of column 2 and column 12 zero: a
    support holding column 12, or columns 2 and 9, spans less than its
    width, and the stacked span projection groups it by its rank."""
    design = np.random.default_rng(8).standard_normal((30, 16))
    design[:, 9] = design[:, 2]
    design[:, 12] = 0.0
    return design


A3_FAMILIES = {
    "smoothness-9": (SmoothnessFamily(9), None),
    "sparsity-7": (SparsityFamily(7), None),
    "leveled-3": (LeveledSparsityFamily(3), None),
    "jump-9": (JumpFamily(9), None),
    "jump-40": (JumpFamily(40), Caps(max_size=2)),
    "knot-12": (KnotFamily(12), None),
    "regression-12x6": (RegressionFamily(np.random.default_rng(3).standard_normal((12, 6))),
                        None),
    "regression-repeated-columns": (RegressionFamily(_repeated_column_design()), None),
    "banding-5": (BandingFamily(5), None),
    "bicluster-3x4": (BiclusterFamily(3, 4), Caps(max_blocks=3)),
    "bicluster-4x4": (BiclusterFamily(4, 4), Caps(max_blocks=4)),
}


@pytest.mark.parametrize("block", [1, 7, noise_module.A3_BLOCK],
                         ids=["block-1", "block-7", "block-default"])
@pytest.mark.parametrize("name", sorted(A3_FAMILIES))
def test_stacked_a3_equals_the_pair_at_a_time_oracle(monkeypatch, name, block):
    """The stacked `check_a3` reports what checking one pair at a time does,
    float for float, and leaves the generator in the same state, for every
    family with a union witness, A3_BLOCK pairs per stacked call.  Data
    rounded to integers have exact ties in the block means."""
    family, caps = A3_FAMILIES[name]
    monkeypatch.setattr(noise_module, "A3_BLOCK", block)
    for seed in range(3):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = check_a3(family, 40, got_rng, caps)
        assert got == _pair_at_a_time_a3(family, 40, want_rng, caps), (name, seed)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a3_regression_parts_include_rank_deficient_groups(monkeypatch):
    """On the design with a repeated and a zero column, some parts span less
    than their width and join the batched SVD's group of their rank, so the
    oracle test above covers rank-deficient groups."""
    family, _ = A3_FAMILIES["regression-repeated-columns"]
    narrow = []
    span_groups = family._span_groups

    def counting(structures):
        groups, dims = span_groups(structures)
        narrow.extend(structures[k] for idx, _ in groups for k in idx
                      if dims[k] < family._width(structures[k]))
        return groups, dims

    monkeypatch.setattr(family, "_span_groups", counting)
    check_a3(family, 40, np.random.default_rng(0))
    assert narrow


def test_a1_regression_dims_take_no_svd_beyond_the_span_groups(monkeypatch):
    """check_a1 on the repeated-column design reads every support's
    dimension off the batched SVD's ranks: `span_rank` never runs, and every
    bound is float(family.dim(s)), rank-deficient supports included."""
    family = RegressionFamily(_repeated_column_design())
    narrow = [s for s in family.enumerate_structures() if family.dim(s) < len(s.indices)]
    calls = []
    span_rank = structures_module.span_rank

    def counting(basis):
        calls.append(basis.shape)
        return span_rank(basis)

    monkeypatch.setattr(structures_module, "span_rank", counting)
    rows = check_a1(family, NoiseModel("gaussian"), 0.25, 200, np.random.default_rng(2))
    monkeypatch.undo()
    assert narrow and calls == []
    assert [row.bound for row in rows] == [float(family.dim(row.structure)) for row in rows]


def test_a4_gaussian_envelopes():
    rows = check_a4(NoiseModel("gaussian"), [0.0, 1.0, 4.0, 9.0], reps=60_000,
                    n=16, rng=np.random.default_rng(5))
    by_m = {row.M: row for row in rows}
    assert by_m[0.0].psi1 == 1.0 and by_m[0.0].psi2 == 1.0
    for m in (1.0, 4.0, 9.0):
        se = math.sqrt(by_m[m].psi1 * (1 - by_m[m].psi1) / 60_000 + 1e-12)
        assert by_m[m].psi1 <= math.exp(-m / 4.0) + 3.0 * se
    # fourth-moment envelope psi2 <= Var(xi^2)/M^2 = 2/M^2 for Gaussian
    for m in (4.0, 9.0):
        se = math.sqrt(by_m[m].psi2 * (1 - by_m[m].psi2) / 60_000 + 1e-12)
        assert by_m[m].psi2 <= 2.0 / m**2 + 3.0 * se


def test_a4_requires_unit_variance():
    with pytest.raises(ValueError):
        check_a4(NoiseModel("bounded-uniform", half_width=2.0), [1.0], 100, 4,
                 np.random.default_rng(0))


def test_a1_saturation_counter():
    fam = SparsityFamily(2)
    noise = NoiseModel("gaussian")
    rows = check_a1(fam, noise, alpha=0.4, reps=2_000, rng=np.random.default_rng(0))
    assert all(row.n_saturated == 0 for row in rows)


def test_a2_leveled_and_bicluster_closed_forms():
    # no closed form is shipped for the leveled family (the empty structure
    # alone contributes 1 to the sum, above the literature's constant);
    # the exact enumerated sum is still finite and reported
    lev = check_a2(LeveledSparsityFamily(3), nu=2.5)
    assert lev.bound is None
    assert lev.passed and lev.total >= 1.0

    bic = check_a2(BiclusterFamily(3, 3), nu=1.0, caps=Caps(max_blocks=3))
    assert bic.bound == pytest.approx(1.0 / (math.e + math.exp(-1.0) - 2.0))
    assert bic.passed


def _a2_references(nu: float):
    """1 / (1 - e^-nu), the smoothness and banding sum, and e^-nu / (1 - e^-nu)^2,
    the bicluster sum, in 800-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=800)):
        e = (-decimal.Decimal(nu)).exp()
        return 1 / (1 - e), e / (1 - e) ** 2


def _ulps(value: float, reference: decimal.Decimal) -> float:
    return float(abs(decimal.Decimal(value) - reference)) / math.ulp(float(reference))


# nu from 1e-300 to 1e300 in half decades, and where e^nu overflows or e^-nu
# leaves the normal range
A2_NU_GRID = sorted({10.0 ** (k / 2) for k in range(-600, 601)} | {1.2, 1.5, 709.8, 745.0})


def test_a2_geometric_closed_forms_match_a_decimal_reference_at_every_nu():
    """Smoothness and banding share 1 / (1 - e^-nu); bicluster has
    e^-nu / (1 - e^-nu)^2 for nu >= 1.  Written with expm1 they are finite
    at every nu from 1e-300 to 1e300, within 1 ulp of the reference, or 2
    for bicluster, whose three roundings reach 1.5 ulp at nu = 1.5.  The
    old e^nu / (e^nu - 1) divided by zero at 1e-300, overflowed from 710
    and was 8e-8 off at 1e-10."""
    smooth, band, bic = SmoothnessFamily(3), BandingFamily(3), BiclusterFamily(2, 2)
    for nu in A2_NU_GRID:
        geometric, bicluster = _a2_references(nu)
        assert _ulps(smooth.a2_closed_form(nu), geometric) <= 1.0, nu
        assert band.a2_closed_form(nu) == smooth.a2_closed_form(nu), nu
        if nu >= 1.0:
            assert _ulps(bic.a2_closed_form(nu), bicluster) <= 2.0, nu


def reference_sample(model, rng, n):
    """One draw of n coordinates, written out per kind: the oracle for
    `NoiseModel.sample` and `sample_many`."""
    if model.kind == "gaussian":
        return rng.standard_normal(n)
    if model.kind == "bounded-uniform":
        return rng.uniform(-model.half_width, model.half_width, n)
    if model.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, n).astype(float) - 1.0
    if model.kind == "ar1":
        phi = model.coefficient
        innov = rng.standard_normal(n)
        out = np.empty(n)
        out[0] = innov[0]
        scale = math.sqrt(1.0 - phi * phi)
        for t in range(1, n):
            out[t] = phi * out[t - 1] + scale * innov[t]
        return out
    theta = np.asarray(model.theta, dtype=float)
    if theta.size != n:
        raise ValueError(f"bernoulli-mean theta has length {theta.size}, need {n}")
    return (rng.random(n) < theta).astype(float) - theta


SAMPLE_MODELS = {
    "gaussian": lambda n: NoiseModel("gaussian"),
    "bounded-uniform": lambda n: NoiseModel("bounded-uniform", half_width=2.5),
    "rademacher": lambda n: NoiseModel("rademacher"),
    "ar1": lambda n: NoiseModel("ar1", coefficient=-0.7),
    "bernoulli-mean": lambda n: NoiseModel("bernoulli-mean",
                                           theta=tuple(np.linspace(0.0, 1.0, n))),
}


@pytest.mark.parametrize("kind", sorted(SAMPLE_MODELS))
def test_sampling_matches_the_per_kind_reference(kind):
    """`sample` and each row of `sample_many` give the reference's bytes and
    leave the generator in the reference's state."""
    for n in (1, 2, 37):
        model = SAMPLE_MODELS[kind](n)
        for seed in range(20):
            rngs = [np.random.default_rng(seed) for _ in range(4)]
            one, want = model.sample(rngs[0], n), reference_sample(model, rngs[1], n)
            assert one.shape == (n,) and one.tobytes() == want.tobytes(), (n, seed)
            many = model.sample_many(rngs[2], 3, n)
            rows = np.stack([reference_sample(model, rngs[3], n) for _ in range(3)])
            assert many.tobytes() == rows.tobytes(), (n, seed)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            assert rngs[2].bit_generator.state == rngs[3].bit_generator.state
        if kind == "bernoulli-mean":
            with pytest.raises(ValueError, match="length"):
                model.sample(np.random.default_rng(0), n + 1)


def test_ar1_sample_many_matches_row_by_row_sampling():
    # the per-row loop over the reference sampler is the oracle: same
    # stream, same bytes, and the generator left in the same state
    for phi, reps, n in ((0.6, 300, 24), (-0.95, 7, 1), (0.0, 5, 3)):
        model = NoiseModel("ar1", coefficient=phi)
        fast_rng, slow_rng = np.random.default_rng(9), np.random.default_rng(9)
        fast = model.sample_many(fast_rng, reps, n)
        slow = np.stack([reference_sample(model, slow_rng, n) for _ in range(reps)])
        assert fast.shape == slow.shape and fast.flags.c_contiguous
        assert fast.tobytes() == slow.tobytes(), phi
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def _a2_by_enumeration(pairs, nu):
    """(total, count, min_rho_minus_dim) of check_a2, from one (rho, dim)
    pair per enumerated structure."""
    return (math.fsum(math.exp(-nu * rho) for rho, _ in pairs), len(pairs),
            min(rho - dim for rho, dim in pairs))


def _enumerated_pairs(family, caps):
    return [(family.majorant(s), family.dim(s)) for s in family.enumerate_structures(caps)]


A2_NUS = (0.7, 1.21, 1.5, 1.99)


def test_a2_validates_each_class_representative_once(families):
    """check_a2 validates each size-class representative once and reads its
    unchecked majorant and dimension; the report is that of the checked
    majorant and dim over the full enumeration, for every family."""
    for name, family in families.items():
        caps = ENUM_CAPS.get(name)
        calls = []
        validate = family.validate

        def counting(s):
            calls.append(s)
            validate(s)

        family.validate = counting
        rep = check_a2(family, 1.5, caps)
        del family.validate
        assert calls == [s for _, s in family.size_classes(caps)], name
        pairs = _enumerated_pairs(family, caps)
        assert (rep.total, rep.count, rep.min_rho_minus_dim) == \
            _a2_by_enumeration(pairs, 1.5), name
        for nu in A2_NUS:
            rep = check_a2(family, nu, caps)
            assert (rep.total, rep.count, rep.min_rho_minus_dim) == \
                _a2_by_enumeration(pairs, nu), (name, nu)


@pytest.mark.parametrize("family,caps", [
    (SparsityFamily(14), None),
    (SparsityFamily(14, "rho_prime"), None),
    (SparsityFamily(14, "rho_prime"), Caps(max_size=4)),
    (SparsityFamily(18), Caps(max_count=2**18)),
    (SparsityFamily(18, "rho_prime"), Caps(max_count=2**18)),
    (SparsityFamily(18), Caps(max_size=6)),
    (LeveledSparsityFamily(3), None),
    (LeveledSparsityFamily(4), Caps(max_count=2**15)),
    (LeveledSparsityFamily(4), Caps(max_count=2**15, max_size=2)),
    (JumpFamily(15), None),
    (JumpFamily(15), Caps(max_size=3)),
    (KnotFamily(15), None),
    (KnotFamily(15), Caps(max_size=5)),
], ids=["sparsity-14", "sparsity-14-rho-prime", "sparsity-14-rho-prime-max-size",
        "sparsity-18", "sparsity-18-rho-prime", "sparsity-18-max-size", "leveled-3",
        "leveled-4", "leveled-4-max-size", "jump-15", "jump-15-max-size", "knot-15",
        "knot-15-max-size"])
def test_a2_by_size_class_equals_the_enumerated_sum(family, caps):
    pairs = _enumerated_pairs(family, caps)
    for nu in A2_NUS:
        rep = check_a2(family, nu, caps)
        assert (rep.total, rep.count, rep.min_rho_minus_dim) == \
            _a2_by_enumeration(pairs, nu), nu


@pytest.mark.parametrize("family,caps", [
    (SparsityFamily(18), Caps()),
    (SparsityFamily(18), Caps(max_count=170, max_size=2)),  # 1 + 18 + 153 sets
    (JumpFamily(1100), Caps()),
    (KnotFamily(15), Caps(max_count=-1)),
    (LeveledSparsityFamily(4), Caps(max_count=2**15 - 1)),
    (LeveledSparsityFamily(11), Caps(max_size=3)),  # sum_{k<=3} C(2047, k) supports
], ids=["sparsity-18", "sparsity-18-max-size", "jump-past-float-range", "knot-negative",
        "leveled-4-one-short", "leveled-11"])
def test_a2_cap_fires_like_the_enumeration(family, caps):
    """The enumeration's CapExceededError, raised by size_classes itself,
    before any class is built."""
    with pytest.raises(CapExceededError) as listed:
        list(family.enumerate_structures(caps))
    for call in (lambda: family.size_classes(caps), lambda: check_a2(family, 1.5, caps)):
        with pytest.raises(CapExceededError) as err:
            call()
        assert str(err.value) == str(listed.value)
        assert err.value.projected_count == listed.value.projected_count


def test_a2_rejects_a_non_finite_nu():
    for nu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="nu"):
            check_a2(SmoothnessFamily(3), nu)


def _per_structure_sq_norms(family, draws, caps):
    """The per-structure `_projected_sq_norms`, kept as the oracle of the
    block products: one projection per structure."""
    for structure in family.enumerate_structures(caps):
        proj = family.project_many(structure, draws)
        yield structure, np.einsum("ij,ij->i", proj, proj)


def _no_projection(*args):
    raise AssertionError("the block path projected the draws")


@pytest.mark.parametrize("block", [1, noise_module.A1_BLOCK], ids=["block-1", "block-default"])
@pytest.mark.parametrize("family,reps", [
    (SparsityFamily(10), 20_000),
    (SparsityFamily(13), 1_000),
    (LeveledSparsityFamily(3), 20_000),
    (SmoothnessFamily(24), 20_000),
    (KnotFamily(10), 20_000),
    (RegressionFamily(np.random.default_rng(5).standard_normal((30, 16))), 2_000),
    (JumpFamily(12), 5_000),
    (ClusteringFamily(6), 3_000),
    (BiclusterFamily(3, 3), 3_000),
    (BiclusterFamily(3, 4), 3_000),
    (BandingFamily(4), 5_000),
    (BandingFamily(5), 5_000),
], ids=["sparsity-10", "sparsity-13", "leveled-3", "smoothness-24", "knot-10",
        "regression-30x16", "jump-12", "clustering-6", "bicluster-3x3", "bicluster-3x4",
        "banding-4", "banding-5"])
def test_a1_block_norms_are_within_the_bound_of_projecting(monkeypatch, block, family, reps):
    """Every block norm is within 4 n eps ||xi||^2 of the per-structure
    oracle, draw by draw, in enumeration order, with nothing projected.  A
    product sums in another order than the oracle, so the bytes may differ;
    A1_BLOCK = 1 puts each structure in a block of its own."""
    monkeypatch.setattr(noise_module, "A1_BLOCK", block)
    draws = NoiseModel("gaussian").sample_many(np.random.default_rng(4), reps,
                                               family.ambient_dim)
    family._project_rows = _no_projection
    got = list(_projected_sq_norms(family, draws, None))
    del family._project_rows
    want = list(_per_structure_sq_norms(family, draws, None))
    assert [s for s, *_ in got] == [s for s, _ in want]
    tol = 4 * family.ambient_dim * np.finfo(float).eps * np.einsum("ij,ij->i", draws, draws)
    for (s, norms, dim), (_, oracle) in zip(got, want):
        assert (np.abs(norms - oracle) <= tol).all(), s
        assert dim == family._dim(s), s


def test_a1_mask_path_falls_back_when_squares_overflow():
    """One overflowing xi^2 sends the whole family, mask, block mean or
    span, through the projection, with its bytes and no nan.  The banding
    draws repeat the same entries to fill p * p coordinates."""
    base = np.array([[1e200, 2.0, -3.0, 0.25], [0.5, -1e300, 1.0, 4.0]])
    for family in (SparsityFamily(4), JumpFamily(4), KnotFamily(4), BandingFamily(4),
                   BandingFamily(5)):
        draws = np.resize(base, (2, family.ambient_dim))
        got = list(_projected_sq_norms(family, draws, None))
        expected = list(_per_structure_sq_norms(family, draws, None))
        assert [s for s, *_ in got] == [s for s, _ in expected]
        for (s, norms, dim), (_, oracle) in zip(got, expected):
            assert not np.isnan(norms).any(), s
            assert norms.tobytes() == oracle.tobytes(), s
            assert dim == family._dim(s), s


def test_a1_rank_deficient_span_norms_come_from_the_product(caplog, monkeypatch):
    """A regression support holding a column and its copy spans less than
    its width: its norms come from the block product, within 4 n eps
    ||xi||^2 of projecting, with dimension 1, and the DEBUG line counts
    every structure as a block product.  At A1_BLOCK = 1 the twin support
    is in a block of its own."""
    design = np.random.default_rng(6).standard_normal((30, 16))
    design[:, 9] = design[:, 2]
    family = RegressionFamily(design)
    twin = RegressionSupport((2, 9))
    draws = NoiseModel("gaussian").sample_many(np.random.default_rng(7), 3_000, 30)
    want = dict(_per_structure_sq_norms(family, draws, None))
    tol = 4 * family.ambient_dim * np.finfo(float).eps * np.einsum("ij,ij->i", draws, draws)
    for block in (1, noise_module.A1_BLOCK):
        monkeypatch.setattr(noise_module, "A1_BLOCK", block)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="projstruct.noise"):
            got = {s: (norms, dim) for s, norms, dim in _projected_sq_norms(family, draws, None)}
        assert got.keys() == want.keys() and twin in got, block
        assert (np.abs(got[twin][0] - want[twin]) <= tol).all(), block
        assert got[twin][1] == 1
        assert all(dim == family._dim(s) for s, (_, dim) in got.items()), block
        assert caplog.messages == [f"regression: A1 norms of {len(want)} structures from "
                                   "block products"], block


@pytest.mark.parametrize("family", [SparsityFamily(8), KnotFamily(8)], ids=["sparsity-8",
                                                                            "knot-8"])
def test_a1_validates_each_structure_once(family):
    """check_a1 validates each enumerated structure once, in order, and its
    bound is the structure's dimension."""
    calls = []
    validate = family.validate

    def counting(s):
        calls.append(s)
        validate(s)

    family.validate = counting
    rows = check_a1(family, NoiseModel("gaussian"), 0.25, 500, np.random.default_rng(2))
    del family.validate
    assert calls == [row.structure for row in rows] == list(family.enumerate_structures())
    assert [row.bound for row in rows] == [float(family.dim(row.structure)) for row in rows]


def test_a1_holds_the_draws_and_a_block_not_every_structure():
    """check_a1's traced peak on knot and sparsity n=10 with 20,000 draws
    stays below the draws, their squares and four A1_BLOCK products.  The
    norms of every structure held before the jackknife would take 41 MB
    (knot) and 164 MB (sparsity)."""
    reps = 20_000
    for family in (KnotFamily(10), SparsityFamily(10)):
        tracemalloc.start()
        try:
            check_a1(family, NoiseModel("gaussian"), 0.05, reps, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * reps * family.ambient_dim + 4 * 8 * noise_module.A1_BLOCK, \
            (family.tag, peak)


@pytest.mark.parametrize("family", [SparsityFamily(10), SmoothnessFamily(40)],
                         ids=["sparsity-10", "smoothness-40"])
def test_a1_holds_one_block_of_norms_at_a_time(family):
    """With 20,000 draws a block holds 13 structures, so check_a1 walks
    many blocks; its traced peak stays below the draws, their squares, one
    A1_BLOCK of norms and a slack of four draw-long arrays (the jackknife's
    work) and 256 KiB of rows.  While one block's norms were computed the
    previous block's stayed alive, 2 MB more."""
    reps = 20_000
    check_a1(family, NoiseModel("gaussian"), 0.05, 10, np.random.default_rng(1))  # warm up
    tracemalloc.start()
    try:
        check_a1(family, NoiseModel("gaussian"), 0.05, reps, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = 2 * reps * family.ambient_dim + noise_module.A1_BLOCK + 4 * reps
    assert peak < 8 * floats + 256 * 1024, (family.tag, peak)


def _jackknife_oracle(values):
    """`_log_mean_exp_with_jackknife` with a new array for every step, kept
    as the oracle of the in-place form."""
    m = values.size
    hi = float(values.max())
    ex = np.exp(values - hi)
    total = float(ex.sum())
    lme = hi + math.log(total / m)
    rest = total - ex
    tiny = rest <= total * 1e-12
    loo = np.empty(m)
    ok = ~tiny
    loo[ok] = hi + np.log(rest[ok] / (m - 1))
    for i in np.flatnonzero(tiny):
        sub = np.delete(values, i)
        h2 = float(sub.max())
        loo[i] = h2 + math.log(float(np.exp(sub - h2).sum()) / (m - 1))
    se = math.sqrt((m - 1) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return lme, se


def _jackknife_inputs():
    rng = np.random.default_rng(21)
    for m in (2, 3, 17, 20_000):
        yield f"normal-{m}", rng.standard_normal(m)
        yield f"capped-chi2-{m}", np.minimum(0.4 * rng.chisquare(8, m) ** 2, 700.0)
    yield "all-equal", np.full(50, 3.25)
    yield "zeros", np.zeros(20_000)
    # leaving the 40 out leaves under 1e-12 of the sum: the direct leave-one-out path
    spike = np.zeros(1_000)
    spike[123] = 40.0
    yield "spike-40", spike
    saturated = rng.standard_normal(500)
    saturated[[7, 300]] = [700.0, 650.0]
    yield "saturated", saturated


@pytest.mark.parametrize("values", [pytest.param(v, id=name) for name, v in _jackknife_inputs()])
def test_jackknife_has_the_bytes_of_the_oracle(values):
    """The in-place jackknife returns the oracle's (lme, se) bit for bit on
    random, all-equal and one-dominant-term inputs, and leaves its input
    as it was."""
    before = values.copy()
    got = _log_mean_exp_with_jackknife(values, float(values.max()))
    assert np.array_equal(values, before)
    want = _jackknife_oracle(values)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _a4_oracle(noise, M_grid, reps, n, rng):
    """`check_a4` with the (reps, n) array of directions drawn at once."""
    draws = noise.sample_many(rng, reps, n)
    v = rng.standard_normal((reps, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dots = np.abs(np.einsum("ij,ij->i", v, draws))
    sqn = np.einsum("ij,ij->i", draws, draws)
    return [(float(M), float(np.mean(dots >= math.sqrt(M))),
             float(np.mean(np.abs(sqn - n) >= M * math.sqrt(n)))) for M in M_grid]


@pytest.mark.parametrize("block", [1, 3, 4096, 10**6])
@pytest.mark.parametrize("noise,reps,n", [
    (NoiseModel("gaussian"), 4097, 7),
    (NoiseModel("gaussian"), 5, 64),
    (NoiseModel("rademacher"), 1000, 16),
    (NoiseModel("ar1", coefficient=0.5), 301, 9),
], ids=["gaussian-4097x7", "gaussian-5x64", "rademacher-1000x16", "ar1-301x9"])
def test_a4_in_row_blocks_has_the_bytes_of_one_direction_array(monkeypatch, block, noise,
                                                               reps, n):
    """Drawing the directions in row blocks of any size, partial last block
    included, gives the rows of drawing them in one array."""
    M_grid = [0.0, 0.3, 1.0, 2.5, 6.0]
    monkeypatch.setattr(noise_module, "A4_BLOCK", block)
    got = check_a4(noise, M_grid, reps, n, np.random.default_rng(8))
    want = _a4_oracle(noise, M_grid, reps, n, np.random.default_rng(8))
    assert np.array([(r.M, r.psi1, r.psi2) for r in got]).tobytes() == np.array(want).tobytes()


def test_a4_holds_the_draws_and_not_the_directions():
    """check_a4's traced peak stays below 1.5 times the 8 * reps * n bytes
    of the draws; one (reps, n) array of directions and its norm temporary
    would take it to about 3 times."""
    reps, n = 50_000, 64
    tracemalloc.start()
    try:
        check_a4(NoiseModel("gaussian"), [1.0, 4.0], reps, n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * reps * n
