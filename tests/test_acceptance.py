"""Acceptance battery: ten desk-scale certificates, one verdict line each.

Every test measures the quantity it certifies, asserts the pinned tolerance,
and records a single PASS/FAIL line (echoed in the terminal summary) together
with its runtime against the pinned budget.
"""

import functools
import time

import numpy as np
import pytest

from maxsurf.duality import check_commutation, flat, sharp
from maxsurf.graphfield import (
    ScalarField,
    dualize_minimal_to_maximal,
    flux_curl,
    gradient,
    minimal_residual,
    shift_agreement,
)
from maxsurf.lorentz import Ambient, Vec3
from maxsurf.meshcheck import (
    folded_disk_mesh,
    krust_inequality_batch,
    krust_pipeline,
    lee_equivalence_check,
    projection_report,
    rotation_identity_check,
)
from maxsurf.weierstrass import (
    Immersion,
    build_isotropic_euclidean,
    build_isotropic_maximal,
    conjugate_curve,
    immersion_from_data,
    integrals_at_many,
    projection_identities,
)

from conftest import ACCEPTANCE_LINES, disk_samples
from oracles import (
    catenoid_dual_height,
    catenoid_height,
    helicoid_dual_height,
    helicoid_height,
)


def _criterion(num, title, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                ACCEPTANCE_LINES.append(f"criterion {num:2d} [{title}]: FAIL ({e})")
                raise
            dt = time.perf_counter() - t0
            if dt >= budget:
                line = f"criterion {num:2d} [{title}]: FAIL (runtime {dt:.1f}s over {budget:g}s)"
                ACCEPTANCE_LINES.append(line)
                pytest.fail(line)
            ACCEPTANCE_LINES.append(
                f"criterion {num:2d} [{title}]: PASS ({detail}) [{dt:.2f}s < {budget:g}s]"
            )

        return wrapper

    return deco


@_criterion(1, "isotropy of built curves", budget=1.0)
def test_criterion_01_isotropy(catalog_data):
    worst, count = 0.0, 0
    for data in catalog_data.values():
        for curve in (
            build_isotropic_maximal(data),
            build_isotropic_euclidean(data.g, data.dh),
        ):
            worst = max(worst, curve.isotropy_residual(32))
            count += 1
    assert worst < 1e-10, f"worst isotropy residual {worst:.3e}"
    return f"worst residual {worst:.1e} < 1e-10 over {count} curves at 32 points"


@_criterion(2, "conjugation laws", budget=1.0)
def test_criterion_02_conjugation(catalog_data, rng):
    worst_twice = 0.0
    for data in catalog_data.values():
        im = immersion_from_data(data)
        curve = im.curve
        star = conjugate_curve(curve)

        # psi* = -i psi must hold at the coefficient level, not just pointwise
        for f, fs in zip(curve.forms, star.forms):
            assert np.array_equal(fs.density.num, -1j * np.asarray(f.density.num))
            assert np.array_equal(fs.density.den, f.density.den)

        # pointwise the same identity up to division rounding (1-2 ulp)
        ws = disk_samples(rng, data.domain_radius, 8)
        lhs, rhs = star.densities_at(ws), -1j * curve.densities_at(ws)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * np.max(np.abs(rhs))

        twice = Immersion(
            conjugate_curve(star), im.base_point, im.base_value, im.domain_radius
        )
        pts = disk_samples(rng, data.domain_radius, 4)
        got = im.base_value.as_array() + integrals_at_many(twice, pts).real
        want = 2.0 * im.base_value.as_array() - (
            im.base_value.as_array() + integrals_at_many(im, pts).real
        )
        worst_twice = max(worst_twice, float(np.max(np.abs(got - want))))
    assert worst_twice < 2e-10, f"X** deviation {worst_twice:.3e}"
    return f"coefficient-exact -i twist; X** deviation {worst_twice:.1e} < 2e-10"


@_criterion(3, "projection identities", budget=10.0)
def test_criterion_03_projection(catalog_data, rng):
    names = sorted(catalog_data)
    worst = 0.0
    for k in range(50):
        data = catalog_data[names[k % len(names)]]
        w = complex(disk_samples(rng, data.domain_radius, 1)[0])
        worst = max(worst, projection_identities(data, w).residual)
    assert worst < 1e-8, f"projection identity residual {worst:.3e}"
    return f"worst residual {worst:.1e} < 1e-8 over 50 random points"


@_criterion(4, "Krust inequality", budget=60.0)
def test_criterion_04_krust_inequality(catalog_data, rng):
    # every catalog domain is a round disk, hence convex
    min_lhs, worst_rel, pairs = np.inf, 0.0, 0
    for name in sorted(catalog_data):
        data = catalog_data[name]
        w1 = disk_samples(rng, data.domain_radius, 100)
        w2 = disk_samples(rng, data.domain_radius, 100)
        out = krust_inequality_batch(data, w1, w2, steps=200)
        min_lhs = min(min_lhs, float(out.lhs.min()))
        worst_rel = max(worst_rel, float(np.max(np.abs(out.lhs - out.integral) / out.lhs)))
        pairs += w1.size
    assert min_lhs > 0.0, f"non-positive lhs {min_lhs:.3e}"
    assert worst_rel < 1e-2, f"relative gap {worst_rel:.3e}"
    return f"{pairs} pairs: min lhs {min_lhs:.1e} > 0, worst gap {worst_rel:.1e} < 1e-2"


@_criterion(5, "rotation identity", budget=5.0)
def test_criterion_05_rotation(catalog_data, rng):
    names = sorted(catalog_data)
    cache = {}
    worst = 0.0
    for k in range(100):
        name = names[k % len(names)]
        data = catalog_data[name]
        if name not in cache:
            cache[name] = immersion_from_data(data)
        w = complex(disk_samples(rng, data.domain_radius, 1)[0])
        ang = rng.uniform(0.0, 2.0 * np.pi)
        worst = max(
            worst,
            rotation_identity_check(cache[name], data, w, (np.cos(ang), np.sin(ang))),
        )
    assert worst < 1e-8, f"rotation identity residual {worst:.3e}"
    return f"worst |N x dX - dX*| {worst:.1e} < 1e-8 over 100 samples"


@_criterion(6, "flat/sharp duality", budget=5.0)
def test_criterion_06_duality(catalog_data):
    worst_comm, worst_invol = 0.0, 0.0
    for data in catalog_data.values():
        curve = build_isotropic_maximal(data)
        eucl = sharp(curve)
        back = flat(eucl)
        for orig, rt in ((curve, back), (eucl, sharp(back))):
            for f, g in zip(orig.forms, rt.forms):
                assert np.array_equal(f.density.num, g.density.num)
                assert np.array_equal(f.density.den, g.density.den)
        worst_comm = max(worst_comm, check_commutation(curve))

        im = immersion_from_data(data)
        again = Immersion(back, im.base_point, im.base_value, im.domain_radius)
        ws = 0.7 * data.domain_radius * np.exp(2j * np.pi * np.arange(16) / 16)
        diff = integrals_at_many(again, ws).real - integrals_at_many(im, ws).real
        diff -= diff.mean(axis=0)  # the identity only holds up to translation
        worst_invol = max(worst_invol, float(np.max(np.abs(diff))))
    assert worst_comm <= 1e-15, f"commutation residual {worst_comm:.3e}"
    assert worst_invol < 1e-8, f"involution deviation {worst_invol:.3e}"
    return (
        f"round trips coefficient-exact, commutation {worst_comm:.1e} <= 1e-15, "
        f"involution {worst_invol:.1e} < 1e-8 at 16 points"
    )


def _rect_field(height, h):
    # r >= 1.6 keeps the catenoid's high derivatives small enough that the
    # observed orders are asymptotic already at h = 0.02
    return ScalarField.sample(
        height,
        lambda x, y: True,
        (1.6, -0.6),
        h,
        int(round(0.8 / h)) + 1,
        int(round(1.2 / h)) + 1,
    )


@_criterion(7, "graph-level duality", budget=60.0)
def test_criterion_07_graph_pde():
    hs = (0.02, 0.01, 0.005)
    worst_slope_gap, max_grad, worst_curl = np.inf, 0.0, 0.0
    for height, dual_height in (
        (catenoid_height, catenoid_dual_height),
        (helicoid_height, helicoid_dual_height),
    ):
        res_norms, dual_errs = [], []
        for h in hs:
            f = _rect_field(height, h)
            res = minimal_residual(f)
            curl = flux_curl(f, kind="minimal")
            assert np.array_equal(curl.mask, res.mask)
            worst_curl = max(
                worst_curl, float(np.max(np.abs(curl.values - res.values)))
            )
            res_norms.append(float(np.max(np.abs(res.values[res.mask]))))

            dual = dualize_minimal_to_maximal(f, curl_tol=1e-3)
            slope = gradient(dual).magnitude()
            max_grad = max(max_grad, float(slope[dual.mask].max()))
            X, Y = np.meshgrid(dual.xs(), dual.ys(), indexing="ij")
            exact = ScalarField(dual.origin, dual.spacing, dual_height(X, Y), dual.mask)
            dual_errs.append(shift_agreement(dual, exact))
        for errs in (res_norms, dual_errs):
            for a, b in zip(errs, errs[1:]):
                worst_slope_gap = min(worst_slope_gap, float(np.log2(a / b)))
    assert max_grad < 1.0, f"dual gradient magnitude {max_grad:.6f}"
    assert worst_curl <= 1e-12, f"curl vs residual gap {worst_curl:.3e}"
    assert worst_slope_gap >= 1.9, f"convergence order {worst_slope_gap:.3f}"
    return (
        f"|Df| <= {max_grad:.3f} < 1, curl gap {worst_curl:.1e} <= 1e-12, "
        f"orders >= {worst_slope_gap:.2f} on h in {{0.02, 0.01, 0.005}}"
    )


@_criterion(8, "grid dual vs curve dual", budget=120.0)
def test_criterion_08_lee(catalog_data):
    worst_ratio = np.inf
    for name in sorted(catalog_data):
        data = catalog_data[name]
        d1 = lee_equivalence_check(data, 0.02)
        d2 = lee_equivalence_check(data, 0.01)
        # quadratic convergence gives ratio 4; at machine-precision agreement
        # (affine heights) both gaps sit at the rounding floor instead
        assert d2 <= max(d1 / 3.0, 1e-12), f"{name}: {d1:.3e} -> {d2:.3e}"
        if d1 > 1e-12:
            worst_ratio = min(worst_ratio, d1 / d2)
    return f"halving h divides the gap by >= {worst_ratio:.2f} (>= 3) on all 10 data"


_VERDICTS: dict[str, str] = {}


def _headline_verdicts(catalog_data):
    if not _VERDICTS:
        for name in sorted(catalog_data):
            _VERDICTS[name] = krust_pipeline(immersion_from_data(catalog_data[name]), 64).verdict
    return _VERDICTS


@_criterion(9, "headline Krust certification", budget=120.0)
def test_criterion_09_headline(catalog_data):
    verdicts = _headline_verdicts(catalog_data)
    n_pass = sum(1 for v in verdicts.values() if v == "PASS")
    n_fail = sum(1 for v in verdicts.values() if v == "FAIL")
    assert n_fail == 0, f"FAIL verdicts: {verdicts}"
    assert n_pass >= 3, f"only {n_pass} PASS verdicts: {verdicts}"
    rep = projection_report(folded_disk_mesh())
    assert not rep.injective, "folded control mesh was certified injective"
    return f"{n_pass}/10 PASS, 0 FAIL at n=64; folded control non-injective"


@_criterion(10, "Euclidean Krust on sharp duals", budget=120.0)
def test_criterion_10_euclidean_krust(catalog_data):
    verdicts = _headline_verdicts(catalog_data)
    pass_names = [n for n, v in sorted(verdicts.items()) if v == "PASS"]
    assert pass_names, "no PASS data to dualize"
    for name in pass_names:
        data = catalog_data[name]
        dual = Immersion(
            sharp(build_isotropic_maximal(data)),
            data.base_point,
            Vec3(0.0, 0.0, 0.0, Ambient.EUCLIDEAN),
            data.domain_radius,
        )
        rep = krust_pipeline(dual, n=64)
        assert rep.conjugate_report.injective, f"{name}: dual conjugate not injective"
    return f"conjugates of {len(pass_names)} sharp-dual immersions all injective at n=64"
