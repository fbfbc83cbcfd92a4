import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from maxsurf.errors import DomainError, PoleError, PoleInDomain, ToleranceError
from maxsurf.rational import RationalHolomorphic, integrate_to_many

from oracles import integrate_per_form, poly_antiderivative, polyval_ascending, simpson_line


def rh(num, den=(1.0,), radius=2.0):
    return RationalHolomorphic(num, den, radius)


class TestArithmetic:
    def test_constant_and_polynomial_eval(self):
        f = RationalHolomorphic.polynomial([1.0, -2.0, 3.0], 2.0)
        z = np.array([0.3 + 0.1j, -0.5j, 1.0])
        assert np.allclose(f.eval(z), polyval_ascending([1.0, -2.0, 3.0], z), rtol=0, atol=0)

    def test_sum_product_difference_match_pointwise(self):
        f = rh([1.0, 2.0], [1.0, 0.0, 0.125])  # denominator zeros at |z| = 2.83
        g = rh([0.0, -1.0, 1.5])
        z = np.linspace(-0.9, 0.9, 7) + 0.2j
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            got = op(f, g).eval(z)
            want = op(f.eval(z), g.eval(z))
            assert np.max(np.abs(got - want)) < 1e-14

    def test_scalar_ops(self):
        f = rh([1.0, 1.0])
        z = 0.4 - 0.3j
        assert (2.0 * f).eval(z) == 2.0 * f.eval(z)
        assert (f + 1.5).eval(z) == f.eval(z) + 1.5
        # coefficient-level subtraction rounds differently than value-level
        assert abs((1.0 - f).eval(z) - (1.0 - f.eval(z))) < 1e-15
        assert (f / 2.0).eval(z) == f.eval(z) / 2.0

    def test_reciprocal_is_pointwise_inverse(self):
        f = rh([3.0, 1.0], [1.0, -0.2])
        z = np.array([0.5, -0.5j, 0.3 + 0.3j])
        assert np.max(np.abs(f.reciprocal().eval(z) * f.eval(z) - 1.0)) < 1e-15

    def test_reciprocal_with_zero_in_disk_raises(self):
        f = rh([-0.5, 1.0])  # zero at 0.5 inside radius 2
        with pytest.raises(PoleInDomain):
            f.reciprocal()

    def test_derivative_matches_finite_difference(self):
        f = rh([1.0, -1.0, 0.5], [2.0, 0.3])
        z = 0.4 + 0.25j
        eps = 1e-6
        fd = (f.eval(z + eps) - f.eval(z - eps)) / (2 * eps)
        assert abs(f.derivative().eval(z) - fd) < 1e-8

    def test_derivative_of_polynomial_exact_coeffs(self):
        f = RationalHolomorphic.polynomial([5.0, 1.0, -3.0, 2.0], 2.0)
        want = RationalHolomorphic.polynomial([1.0, -6.0, 6.0], 2.0)
        assert f.derivative().equivalent(want)

    def test_equivalent_detects_common_factor(self):
        f = rh([1.0, 1.0], [2.0])
        g = rh([3.0, 3.0], [6.0])
        assert f.equivalent(g)
        assert not f.equivalent(rh([1.0, 1.01], [2.0]))

    def test_pole_in_validity_disk_rejected_at_construction(self):
        with pytest.raises(PoleInDomain):
            rh([1.0], [(-0.5), 1.0])  # pole at 0.5

    def test_eval_outside_radius_raises(self):
        f = rh([1.0], radius=1.0)
        with pytest.raises(DomainError):
            f.eval(1.0 + 1e-6)

    def test_eval_near_denominator_zero_raises_pole_error(self):
        f = rh([1.0], [(-1.5), 1.0], radius=1.0)  # pole at 1.5, outside disk
        with pytest.raises(PoleError):
            f._eval(1.5)

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            rh([np.inf])

    def test_obj_round_trip(self):
        f = rh([1.0, 2.5], [1.0, 0.0, -0.125], radius=1.75)
        g = RationalHolomorphic.from_obj(f.to_obj())
        assert g.radius == f.radius
        z = 0.6 - 0.2j
        assert g.eval(z) == f.eval(z)


class TestPathIntegration:
    def test_polynomial_segment_exact_antiderivative(self):
        coeffs = [1.0, -2.0, 0.0, 4.0, 0.5]
        f = RationalHolomorphic.polynomial(coeffs, 2.0)
        anti = poly_antiderivative(coeffs)
        for a, b in [(0.0, 1.0), (-0.5 + 0.5j, 0.25 - 1.0j), (1.5, -1.5)]:
            want = polyval_ascending(anti, np.array(b)) - polyval_ascending(anti, np.array(a))
            got = integrate_to_many(f, a, b)
            assert abs(got - want) < 1e-13

    def test_rational_segment_against_simpson(self):
        f = rh([3.0, 1.0], [1.0, -0.2])
        a, b = -0.8 + 0.1j, 0.9 + 0.4j
        want = simpson_line(lambda z: f.eval(z), a, b)
        assert abs(integrate_to_many(f, a, b) - want) < 1e-10

    def test_endpoint_outside_disk_raises(self):
        f = rh([1.0], radius=1.0)
        with pytest.raises(DomainError):
            integrate_to_many(f, 0.0, 1.0 + 1e-6)
        with pytest.raises(DomainError):
            integrate_to_many(f, 1.0 + 1e-6, [0.0, 0.5])
        with pytest.raises(DomainError):
            integrate_to_many(f, [0.0, -1.0 - 1e-6], [0.5, 0.5])

    def test_zero_length_segment(self):
        f = rh([2.0, 1.0])
        assert integrate_to_many(f, 0.3j, 0.3j) == 0.0

    def test_additivity_along_a_path(self):
        f = rh([1.0, 0.5, 2.0], [4.0, 1.0])
        a, m, b = -0.7, 0.2 + 0.5j, 0.8 - 0.3j
        whole = integrate_to_many(f, a, b)
        # different piecewise route: holomorphy makes the integral path free
        split = integrate_to_many(f, a, m) + integrate_to_many(f, m, b)
        assert abs(whole - split) < 1e-12

    def test_integrate_to_many_matches_scalar_route(self):
        f = rh([1.0, 0.5, 2.0], [4.0, 1.0])
        ends = np.array([0.5, -0.5j, 0.9 + 0.9j, -1.0, 0.0])
        many = integrate_to_many(f, 0.1j, ends)
        single = np.array([integrate_to_many(f, 0.1j, e) for e in ends])
        assert many.shape == ends.shape
        assert np.max(np.abs(many - single)) < 1e-11

    def test_array_start_points_match_scalar_starts(self):
        f = rh([1.0, 0.5, 2.0], [4.0, 1.0])
        starts = np.array([[0.1j, -0.6], [0.3 + 0.3j, 0.0]])
        ends = np.array([[0.5, 0.9 + 0.9j], [0.3 + 0.3j, -1.0 - 0.2j]])
        many = integrate_to_many(f, starts, ends)
        single = np.array(
            [integrate_to_many(f, a, b) for a, b in zip(starts.ravel(), ends.ravel())]
        )
        assert many.shape == ends.shape
        assert np.max(np.abs(many.ravel() - single)) < 1e-11
        assert many[1, 0] == 0.0

    def test_unreachable_tolerance_raises(self):
        # float evaluation of the expanded (z - 1.5)^12 is off by ~1e-8 near
        # the rim, so no primitive can certify it; it must never return a
        # silently wrong value
        f = rh([1.0], P.polyfromroots([1.5] * 12), radius=1.0)
        ws = 0.95 * np.exp(2j * np.pi * np.arange(12) / 12)
        try:
            got = integrate_to_many(f, 0.0, ws)
        except ToleranceError:
            return
        want = np.array([simpson_line(f.eval, 0.0, w, 16384) for w in ws])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9

    @pytest.mark.parametrize(
        "num, poles",
        [
            ([1.0, 0.3], [1.2, 1.2]),
            ([1.0], [1.1, 1.1, 1.1, -1.5j]),
            ([1.0], [1.2, 1.2 + 1e-5]),
            ([1.0], [1.5, 1.5, 1.5, 1.52]),
            ([1.0, 2.0], [1.5] * 4 + [-1.5] * 4),
            ([1.0, 0.5, 0.1], [1.01, 1.0102]),
            ([1.0], [1.5] * 8),
        ],
        ids=["double", "triple-and-simple", "split-1e-5", "triple-near-simple",
             "two-quadruple", "split-2e-4-at-rim", "eightfold"],
    )
    def test_hard_pole_panel(self, num, poles):
        f = rh(num, P.polyfromroots(poles), radius=1.0)
        ws = 0.95 * np.exp(2j * np.pi * np.arange(12) / 12)
        got = integrate_to_many(f, 0.0, ws)
        want = np.array([simpson_line(f.eval, 0.0, w, 16384) for w in ws])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on the way
    def test_huge_shifted_coefficients_raise(self):
        # 1e300 z^5 expanded about the double pole at 1000 exceeds the float range
        f = rh([0.0] * 5 + [1e300], P.polyfromroots([1e3, 1e3]), radius=1.0)
        with pytest.raises(ToleranceError):
            integrate_to_many(f, 0.0, 0.5)

    def test_primitive_built_once_and_certified(self):
        f = rh([3.0, 1.0], [1.0, -0.2], radius=1.0)
        assert f.primitive is f.primitive
        assert f.primitive.defect < 1e-13
        assert f.primitive(0.0) == 0.0

    def test_form_scaled(self):
        f = rh([1.0, 2.0])
        got = integrate_to_many(f * -1j, 0.0, 1.0)
        want = -1j * integrate_to_many(f, 0.0, 1.0)
        assert abs(got - want) < 1e-15


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSharedPoleLogs:
    # Forms integrated at one endpoint array may share one table of pole
    # logarithms; every value must equal the form integrated on its own.

    def ends(self, rng, radius):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, 500))
        w = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 500))
        return np.concatenate([w, [0.0, radius, -radius, 1j * radius, 0.5 * radius]])

    def test_shared_denominator_shares_logs(self, rng):
        den = [2.28, -3.02, 1.0]  # poles 1.5 and 1.52
        forms = [rh([1.0, 0.5], den, 1.0), rh([0.0, 2.0, -1.0j], den, 1.0)]
        centres = [[c for c, _ in f.primitive.laurent] for f in forms]
        assert centres[0] == centres[1] and len(centres[0]) == 1
        ws, logs = self.ends(rng, 1.0), {}
        for f in forms:
            assert same_bits(integrate_to_many(f, 0.1j, ws, logs), integrate_per_form(f, 0.1j, ws))
        assert len(logs) == 1

    def test_pole_cluster_expansion(self, rng):
        # a double pole splits into two roots that share one Laurent expansion
        # (b.size > 1, so the expm1 terms run on the shared logarithm)
        den = P.polyfromroots([1.25 + 0.5j, 1.25 + 0.5j])
        forms = [rh([1.0], den, 1.0), rh([0.5, -1.0, 0.25], den, 1.0)]
        assert all(b.size > 1 for f in forms for _, b in f.primitive.laurent)
        ws, logs = self.ends(rng, 1.0), {}
        for f in forms:
            assert same_bits(integrate_to_many(f, 0.0, ws, logs), integrate_per_form(f, 0.0, ws))

    def test_different_denominators_keep_their_own_logs(self, rng):
        # poles that share a real part or an imaginary part, not both
        poles = (1.5 + 0.5j, 1.5 - 0.5j, -1.5 + 0.5j)
        forms = [rh([1.0, 2.0], [-p, 1.0], 1.0) for p in poles]
        ws, logs = self.ends(rng, 1.0), {}
        for f in forms:
            assert same_bits(integrate_to_many(f, 0.0, ws, logs), integrate_per_form(f, 0.0, ws))
        assert len(logs) == 3

    def test_polynomial_form_has_no_logs(self, rng):
        f = rh([1.0, -2.0j, 0.5, 3.0], radius=1.0)
        ws, logs = self.ends(rng, 1.0), {}
        assert same_bits(integrate_to_many(f, 0.0, ws, logs), integrate_per_form(f, 0.0, ws))
        assert logs == {}
