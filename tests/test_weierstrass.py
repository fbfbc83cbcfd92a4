import itertools

import numpy as np
import pytest

from maxsurf.errors import (
    AmbientMismatch,
    CommonZeroError,
    DomainError,
    IsotropyError,
    NotSpacelike,
    PoleInDomain,
)
from maxsurf.lorentz import Ambient, Vec3, cross_lorentz, inner
from maxsurf.meshcheck import krust_pipeline
from maxsurf.rational import RationalHolomorphic, integrate_to_many
from maxsurf.weierstrass import (
    Immersion,
    IsotropicCurve,
    WeierstrassData,
    build_isotropic_euclidean,
    build_isotropic_maximal,
    conjugate_curve,
    conjugate_immersion,
    differential,
    gauss_map,
    half_forms,
    immerse,
    immersion_from_data,
    integrals_at_many,
    projection_residuals,
    rotation_identity_check,
)

from conftest import disk_samples
from oracles import (
    CausalCharacter,
    causal_character,
    integrate_per_form,
    plane_conjugate_point,
    plane_immersion_point,
    sigma_tau_plane,
    sigma_tau_rational,
    sigma_tau_shift,
    simpson_line,
)


class TestCurveConstruction:
    def test_catalog_curves_isotropic(self, catalog_data):
        for data in catalog_data.values():
            assert build_isotropic_maximal(data).isotropy_residual() < 1e-12

    def test_non_isotropic_triple_rejected(self):
        one = RationalHolomorphic.constant(1.0, 1.0)
        with pytest.raises(IsotropyError):
            IsotropicCurve(one, one, one, Ambient.LORENTZIAN)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the squares overflow
    def test_non_finite_isotropy_residual_rejected(self):
        # psi1^2 + psi2^2 - psi3^2 = -2.5e399: not isotropic, but the sampled
        # residual is inf - inf = NaN
        forms = [RationalHolomorphic.constant(c, 0.5) for c in (1e200, 5e199j, 1e200)]
        with pytest.raises(IsotropyError, match="is not finite"):
            IsotropicCurve(*forms, Ambient.LORENTZIAN)

    def test_conjugate_scales_coefficients_by_minus_i(self, plane15):
        curve = build_isotropic_maximal(plane15)
        conj = conjugate_curve(curve)
        for orig, twisted in zip(curve.forms, conj.forms):
            a = np.asarray(orig.num, dtype=complex)
            b = np.asarray(twisted.num, dtype=complex)
            assert np.array_equal(-1j * a, b)

    def test_euclidean_builder_ambient_and_isotropy(self, plane15):
        curve = build_isotropic_euclidean(plane15.g, plane15.dh)
        assert curve.ambient is Ambient.EUCLIDEAN
        assert curve.isotropy_residual() < 1e-12

    @pytest.mark.parametrize("c", [3.0, 0.3])
    def test_euclidean_graph_flag_accepts_one_side(self, c):
        g = RationalHolomorphic.polynomial([c, 0.1], 2.0)  # |g| - 1 keeps one sign
        curve = build_isotropic_euclidean(g, RationalHolomorphic.constant(1.0, 2.0), graph=True)
        assert curve.ambient is Ambient.EUCLIDEAN

    def test_euclidean_graph_flag_rejects_unit_modulus_between_angles(self):
        # |g| > 1 at the 64th roots of unity, and |g| = 0.95 < 1 between them
        coeffs = np.zeros(65, dtype=complex)
        coeffs[0], coeffs[64] = 1.05, 0.1
        g = RationalHolomorphic.polynomial(coeffs, 1.0)
        with pytest.raises(NotSpacelike):
            build_isotropic_euclidean(g, RationalHolomorphic.constant(1.0, 1.0), graph=True)

    def test_euclidean_graph_flag_rejects_unit_modulus(self):
        g = RationalHolomorphic.polynomial([0.0, 1.0], 2.0)  # |g| = 1 met inside
        dh = RationalHolomorphic.constant(1.0, 2.0)
        with pytest.raises(NotSpacelike):
            build_isotropic_euclidean(g, dh, graph=True)


class TestDataValidation:
    def std_form(self, r=2.0):
        return RationalHolomorphic.constant(1.0, r)

    def test_radius_must_fit_validity_disks(self):
        g = RationalHolomorphic.constant(2.0, 1.0)
        with pytest.raises(DomainError):
            WeierstrassData(g, self.std_form(), 1.5)

    def test_modulus_of_g_must_exceed_one(self):
        g = RationalHolomorphic.constant(0.5, 2.0)
        with pytest.raises(NotSpacelike):
            WeierstrassData(g, self.std_form(), 0.5)

    def test_dh_zero_in_domain_rejected(self):
        g = RationalHolomorphic.constant(2.0, 2.0)
        dh = RationalHolomorphic.polynomial([0.0, 1.0], 2.0)
        with pytest.raises(CommonZeroError):
            WeierstrassData(g, dh, 0.5)

    def test_dh_zero_off_any_grid_rejected(self):
        # dh(i/3) = 0 exactly; the rim count sees it wherever it lies
        g = RationalHolomorphic.polynomial([1.2, 0.1], 2.0)
        dh = RationalHolomorphic.polynomial([1.0, 3j], 2.0)
        with pytest.raises(CommonZeroError):
            WeierstrassData(g, dh, 1.0)

    def test_dh_identically_zero_rejected(self):
        with pytest.raises(CommonZeroError):
            WeierstrassData(RationalHolomorphic.constant(3.0, 2.0), RationalHolomorphic.constant(0.0, 2.0), 0.5)

    def test_modulus_of_g_below_one_between_angles_rejected(self):
        # |g| = 1.15 at the 64th roots of unity, but 0.95 halfway between them
        coeffs = np.zeros(65, dtype=complex)
        coeffs[0], coeffs[64] = 1.05, 0.1 / 0.9**64
        g = RationalHolomorphic.polynomial(coeffs, 2.0)
        with pytest.raises(NotSpacelike, match="0.95"):
            WeierstrassData(g, self.std_form(), 0.9)

    def test_guards_on_family(self):
        # g = c + b z^k and dh = (1 + a z^m) dz on the unit disk: every datum
        # accepted has no zero of dh in the closed disk and min |g| > 1 on a
        # rim four times denser than the guards' own
        rim = np.exp(2j * np.pi * np.arange(4096) / 4096)
        accepted = 0
        family = itertools.product((1.2, 1.6, 2.5), (0.1, 0.3, 0.6), (1, 2, 3), (0.5, 1.5, 3j), (1, 2, 3, 4))
        for c, b, k, a, m in family:
            gc, hc = np.zeros(k + 1, dtype=complex), np.zeros(m + 1, dtype=complex)
            gc[0], gc[k], hc[0], hc[m] = c, b, 1.0, a
            g, dh = (RationalHolomorphic.polynomial(x, 2.0) for x in (gc, hc))
            try:
                WeierstrassData(g, dh, 1.0)
            except (CommonZeroError, NotSpacelike):
                continue
            accepted += 1
            assert np.all(np.abs(np.roots(hc[::-1])) > 1.0)
            assert np.min(np.abs(g.eval(rim))) > 1.0
        # |a| < 1 and c - b > 1: 4 forms dh times 18 maps g
        assert accepted == 72

    def test_guards_are_scale_free(self, catalog_data):
        # g's numerator and denominator scaled by 1e-15, dh by 1e-20: the same
        # map g and a similar surface
        for name, data in catalog_data.items():
            g = RationalHolomorphic(data.g.num * 1e-15, data.g.den * 1e-15, data.g.radius)
            dh = RationalHolomorphic(data.dh.num * 1e-20, data.dh.den, data.dh.radius)
            scaled = WeierstrassData(g, dh, data.domain_radius)
            verdicts = [krust_pipeline(immersion_from_data(d), n=16).verdict for d in (data, scaled)]
            assert verdicts == ["PASS", "PASS"], name

    @pytest.mark.xfail(strict=True, raises=PoleInDomain,
                       reason="ROADMAP item 2, defect 4: the sampled zero test aliases on a product")
    def test_product_of_certified_denominators_builds(self):
        # g = 3/(1 - z/1.003) and dh = dz/(1 + z/1.003) have no pole in the
        # closed disk, and each denominator passes the zero test.  The curve
        # re-tests their product, where the two rim-aliasing terms (-0.275
        # each) add to -0.55, past the 0.4 cut; at 1.004 the curve builds.
        g = RationalHolomorphic([3.0], [1.0, -1 / 1.003], 1.0)
        dh = RationalHolomorphic([1.0], [1.0, 1 / 1.003], 1.0)
        immersion_from_data(WeierstrassData(g, dh, 1.0))

    @pytest.mark.parametrize("base", [complex(np.nan, 0.0), complex(0.0, np.nan), 0.6, complex(np.inf, 0.0)])
    def test_base_point_outside_or_not_a_number_rejected(self, catalog_data, base):
        g = RationalHolomorphic.constant(2.0, 2.0)
        with pytest.raises(DomainError, match="base point"):
            WeierstrassData(g, self.std_form(), 0.5, base)
        im = immersion_from_data(catalog_data["plane-r05"])
        with pytest.raises(DomainError, match="base point"):
            Immersion(im.curve, base, im.base_value)

    def test_base_value_must_be_lorentzian(self):
        g = RationalHolomorphic.constant(2.0, 2.0)
        with pytest.raises(AmbientMismatch):
            WeierstrassData(g, self.std_form(), 0.5, 0j, Vec3(0, 0, 0, Ambient.EUCLIDEAN))

    def test_unknown_kind_rejected(self, catalog_data):
        obj = catalog_data["plane-r05"].to_obj()
        assert obj["kind"] == "maximal-graph"
        for kind in ("nope", "general"):
            with pytest.raises(ValueError, match="unknown kind"):
                WeierstrassData.from_obj({**obj, "kind": kind})

    def test_obj_round_trip(self, catalog_data):
        data = catalog_data["rational-r09"]
        back = WeierstrassData.from_obj(data.to_obj())
        assert back.domain_radius == data.domain_radius
        z = 0.4 + 0.2j
        assert back.g.eval(z) == data.g.eval(z)


class TestImmersion:
    def test_plane_points_match_closed_form(self, plane15):
        im = immersion_from_data(plane15)
        for w in (1.0, 1j, 0.5 - 0.25j):
            got = immerse(im, w).as_array()
            assert np.max(np.abs(got - plane_immersion_point(w))) < 1e-12
            got_star = integrals_at_many(im, [w])[0].imag
            assert np.max(np.abs(got_star - plane_conjugate_point(w))) < 1e-12

    def test_base_point_maps_to_base_value(self, catalog_data):
        data = catalog_data["shift3-r05"]
        im = immersion_from_data(data)
        assert np.allclose(immerse(im, data.base_point).as_array(), [0, 0, 0], atol=1e-14)
        assert np.allclose(integrals_at_many(im, [data.base_point]).imag, 0.0, atol=1e-14)

    def test_differential_matches_finite_differences(self, catalog_data):
        im = immersion_from_data(catalog_data["rational-r05"])
        w = 0.31 - 0.12j
        eps = 1e-6
        xu, xv = differential(im, w)
        fd_u = (immerse(im, w + eps).as_array() - immerse(im, w - eps).as_array()) / (2 * eps)
        fd_v = (immerse(im, w + 1j * eps).as_array() - immerse(im, w - 1j * eps).as_array()) / (
            2 * eps
        )
        assert np.max(np.abs(xu.as_array() - fd_u)) < 1e-8
        assert np.max(np.abs(xv.as_array() - fd_v)) < 1e-8

    def test_conformality(self, catalog_data, rng):
        im = immersion_from_data(catalog_data["rational-r09"])
        for w in disk_samples(rng, 0.9, 10):
            xu, xv = differential(im, complex(w))
            e, g_ = inner(xu, xu), inner(xv, xv)
            f = inner(xu, xv)
            scale = max(abs(e), abs(g_))
            assert abs(e - g_) < 1e-12 * scale
            assert abs(f) < 1e-12 * scale
            assert e > 0  # induced metric Riemannian: spacelike immersion

    def test_tangents_spacelike_normal_timelike(self, catalog_data, rng):
        data = catalog_data["shift4-r09"]
        im = immersion_from_data(data)
        for w in disk_samples(rng, 0.9, 5):
            xu, _ = differential(im, complex(w))
            assert causal_character(xu) is CausalCharacter.SPACELIKE
            n = gauss_map(data, complex(w))
            assert causal_character(n) is CausalCharacter.TIMELIKE
            assert n.x3 >= 1.0  # upper hyperboloid sheet since |g| > 1

    def test_rotation_identity(self, catalog_data, rng):
        data = catalog_data["shift2.5-r09"]
        im = immersion_from_data(data)
        conj = conjugate_immersion(im)
        for w in disk_samples(rng, 0.9, 10):
            xu, xv = differential(im, complex(w))
            su, sv = differential(conj, complex(w))
            n = gauss_map(data, complex(w))
            r1 = cross_lorentz(n, xu) - su  # N x X_u = X*_u = -X_v
            r2 = cross_lorentz(n, xv) - sv  # N x X_v = X*_v = X_u
            assert np.max(np.abs(r1.as_array())) < 1e-12
            assert np.max(np.abs(r2.as_array())) < 1e-12
            assert np.max(np.abs((su + xv).as_array())) < 1e-14
            assert np.max(np.abs((sv - xu).as_array())) < 1e-14

    def test_twice_conjugated_reflects_through_base(self, plane15, rng):
        base_value = Vec3(0.5, -1.0, 2.0, Ambient.LORENTZIAN)
        data = WeierstrassData(plane15.g, plane15.dh, 1.5, 0j, base_value)
        im = immersion_from_data(data)
        curve2 = conjugate_curve(conjugate_curve(im.curve))
        im2 = Immersion(curve2, data.base_point, base_value)
        for w in disk_samples(rng, 1.5, 6):
            lhs = immerse(im2, complex(w)).as_array()
            rhs = 2.0 * base_value.as_array() - immerse(im, complex(w)).as_array()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_integrals_at_many_matches_scalar(self, catalog_data, rng):
        im = immersion_from_data(catalog_data["rational-r05"])
        ws = disk_samples(rng, 0.5, 8)
        many = integrals_at_many(im, ws)
        for k, w in enumerate(ws):
            single = np.array(
                [simpson_line(f.eval, im.base_point, complex(w)) for f in im.curve.forms]
            )
            assert np.max(np.abs(many[k] - single)) < 1e-11

    def test_integrals_at_many_bits_per_form(self, catalog_data, rng):
        # psi1 and psi2 share a denominator, so integrals_at_many computes
        # their pole logarithms once; each column keeps the bits of its form
        # integrated on its own
        for name in ("rational-r09", "shift2.5-r05", "plane-r09"):
            im = immersion_from_data(catalog_data[name])
            ws = np.concatenate([disk_samples(rng, im.domain_radius, 300), [0.0, im.domain_radius]])
            got = integrals_at_many(im, ws)
            for k, f in enumerate(im.curve.forms):
                want = integrate_per_form(f, im.base_point, ws)
                assert np.array_equal(np.ascontiguousarray(got[:, k]).view(np.int64), want.view(np.int64))

    def test_domain_enforced(self, catalog_data):
        im = immersion_from_data(catalog_data["plane-r05"])
        with pytest.raises(DomainError):
            immerse(im, 0.6)
        with pytest.raises(DomainError):
            integrals_at_many(im, [0.1, 0.9])
        with pytest.raises(DomainError):
            differential(im, 0.6j)

    def test_batch_matches_points(self, catalog_data, rng):
        # array division may round other than scalar division (SIMD), so
        # differential, gauss_map and the rotation residuals agree to 1e-15 of
        # their scale; immerse adds the same integrals either way
        def agree(batch, points, scale):
            assert np.max(np.abs(batch - np.stack(points, axis=-1))) <= 1e-15 * scale

        def tangents(im, w):  # (X_u, X_v) stacked, (2, 3) or (2, 3, N)
            return np.array([v.as_array() for v in differential(im, w)])

        for data in catalog_data.values():
            im = immersion_from_data(data)
            conj = conjugate_immersion(im)
            ws = disk_samples(rng, data.domain_radius, 8)
            a, b = rng.normal(size=(2, 8))
            pts = [complex(w) for w in ws]
            dx = tangents(im, ws)
            agree(dx, [tangents(im, w) for w in pts], np.max(np.abs(dx)))
            n = gauss_map(data, ws).as_array()
            agree(n, [gauss_map(data, w).as_array() for w in pts], np.max(np.abs(n)))
            rot = rotation_identity_check(im, conj, data, ws, (a, b))
            each = [rotation_identity_check(im, conj, data, w, d) for w, *d in zip(pts, a, b)]
            agree(rot, each, np.max(np.abs(dx)) * np.max(np.abs(n)) * np.max(np.hypot(a, b)))
            x = immerse(im, ws).as_array()
            assert np.array_equal(x, np.stack([immerse(im, w).as_array() for w in pts], axis=-1))


def sigma_tau_at(data: WeierstrassData, ws) -> list[tuple[complex, complex]]:
    """(sigma, tau) at each of ws, from half forms built once for the datum."""
    ws = np.asarray(ws, dtype=complex)
    s, t = (integrate_to_many(f, data.base_point, ws) for f in half_forms(data))
    return list(zip(s, t))


class TestSigmaTauAndProjections:
    def test_plane_closed_form(self, plane15):
        ws = (1.0, 0.3 + 0.4j, -1.2j)
        for w, (s, t) in zip(ws, sigma_tau_at(plane15, ws)):
            s0, t0 = sigma_tau_plane(w)
            assert abs(s - s0) < 1e-12 and abs(t - t0) < 1e-12

    def test_shift_closed_form(self, catalog_data):
        ws = (0.9, -0.9, 0.5 + 0.6j)
        for c, name in ((2.5, "shift2.5-r09"), (3.0, "shift3-r09"), (4.0, "shift4-r09")):
            for w, (s, t) in zip(ws, sigma_tau_at(catalog_data[name], ws)):
                s0, t0 = sigma_tau_shift(w, c)
                assert abs(s - s0) < 1e-12 and abs(t - t0) < 1e-12

    def test_rational_closed_form(self, catalog_data):
        ws = (0.9, 0.2 - 0.85j)
        for w, (s, t) in zip(ws, sigma_tau_at(catalog_data["rational-r09"], ws)):
            s0, t0 = sigma_tau_rational(w)
            assert abs(s - s0) < 1e-11 and abs(t - t0) < 1e-11

    def test_projection_identities_tight(self, catalog_data, rng):
        for name in ("plane-r09", "shift3-r09", "rational-r09"):
            data = catalog_data[name]
            ws = disk_samples(rng, data.domain_radius, 5)
            assert np.max(projection_residuals(immersion_from_data(data), half_forms(data), ws)) < 1e-12

    def test_projection_residuals_see_both_identities(self, plane15):
        # turned by pi about the x3 axis, pi(X) and pi(X*) change sign; on the
        # plane (sigma = -w, tau = w/4) the two gaps are then 2|conj(tau) - sigma|
        # and 2|conj(tau) + sigma|: 2.5|w| and 1.5|w| at real w, swapped at imaginary w
        im = immersion_from_data(plane15)
        c = im.curve
        turned = Immersion(
            IsotropicCurve(-1.0 * c.psi1, -1.0 * c.psi2, c.psi3, c.ambient), im.base_point, im.base_value
        )
        got = projection_residuals(turned, half_forms(plane15), [0.4, 0.4j])
        assert np.allclose(got, [1.0, 1.0], rtol=1e-14, atol=0.0)

    def test_half_forms_share_one_log_table(self, catalog_data, rng):
        # sigma and tau have different denominators (different pole centres)
        data = catalog_data["rational-r09"]
        ws = disk_samples(rng, data.domain_radius, 300)
        logs = {}
        for f in half_forms(data):
            got = integrate_to_many(f, data.base_point, ws, logs)
            want = integrate_per_form(f, data.base_point, ws)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(logs) == 2

    def test_prebuilt_forms_bit_identical(self, catalog_data, rng):
        # forms whose primitives an earlier call built give the bits of fresh forms
        for data in catalog_data.values():
            im, halves = immersion_from_data(data), half_forms(data)
            projection_residuals(im, halves, disk_samples(rng, data.domain_radius, 3))
            ws = disk_samples(rng, data.domain_radius, 3)
            fresh = projection_residuals(immersion_from_data(data), half_forms(data), ws)
            assert np.array_equal(projection_residuals(im, halves, ws), fresh)

    def test_projection_matches_immersion(self, catalog_data):
        data = catalog_data["shift3-r05"]  # base value 0
        ws = np.array([0.3 - 0.2j, -0.1 + 0.45j])
        x = immerse(immersion_from_data(data), ws)
        s, t = np.array(sigma_tau_at(data, ws)).T
        assert np.max(np.abs(x.x1 + 1j * x.x2 - (np.conj(t) - s))) < 1e-12
