import numpy as np
import pytest

from maxsurf.errors import (
    AmbientMismatch,
    CommonZeroError,
    DomainError,
    IsotropyError,
    NotSpacelike,
)
from maxsurf.lorentz import Ambient, CausalCharacter, Vec3, causal_character, cross_lorentz, inner
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
    projection_identities,
)

from conftest import disk_samples
from oracles import (
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

    @pytest.mark.parametrize("components", [2, 3])
    def test_integrals_at_many_bits_per_form(self, catalog_data, rng, components):
        # psi1 and psi2 share a denominator, so integrals_at_many computes
        # their pole logarithms once; each column keeps the bits of its form
        # integrated on its own
        for name in ("rational-r09", "shift2.5-r05", "plane-r09"):
            im = immersion_from_data(catalog_data[name])
            ws = np.concatenate([disk_samples(rng, im.domain_radius, 300), [0.0, im.domain_radius]])
            got = integrals_at_many(im, ws, components)
            for k, f in enumerate(im.curve.forms[:components]):
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
            im, halves = immersion_from_data(data), half_forms(data)
            for w in disk_samples(rng, data.domain_radius, 5):
                assert projection_identities(im, halves, complex(w)).residual < 1e-12

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
        # forms built once per datum give the bits of forms built per point
        for data in catalog_data.values():
            im, halves = immersion_from_data(data), half_forms(data)
            for w in disk_samples(rng, data.domain_radius, 3):
                w = complex(w)
                fresh = projection_identities(immersion_from_data(data), half_forms(data), w)
                assert repr(projection_identities(im, halves, w)) == repr(fresh)

    def test_projection_matches_immersion(self, catalog_data):
        data = catalog_data["shift3-r05"]
        im = immersion_from_data(data)
        w = 0.3 - 0.2j
        ids = projection_identities(im, half_forms(data), w)
        x = immerse(im, w)
        assert abs(ids.pi_x - complex(x.x1, x.x2)) < 1e-12
