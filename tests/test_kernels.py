"""Kernel catalog, algebra, and the spec grammar."""

import json

import numpy as np
import pytest

from halfsum.errors import (ConfigError, DegenerateKernel, FlavorMismatch,
                            InvalidArgument, InvalidKernel)
from halfsum.kernels import (ClosedForm, Flavor, convolve,
                             counterexample_additive, counterexample_multiplicative,
                             evaluate, exponential, finite_mixture, from_catalog,
                             kernel_from_dict, normalize, parse_kernel_arg,
                             power, power_law, sampled_kernel, to_additive)
from halfsum.quadrature import counter, integrate_adaptive


def test_catalog_masses_are_one():
    for k in (exponential(1.0), exponential(0.25), power_law(0.5), power_law(3.0),
              counterexample_additive(1.0), counterexample_additive(2.5),
              counterexample_multiplicative(1.0)):
        assert abs(k.mass() - 1.0) < 1e-12


def test_exponential_pointwise():
    k = exponential(2.0)
    t = np.array([0.0, 0.5, 3.0])
    assert np.max(np.abs(evaluate(k, t) - 2.0 * np.exp(-2.0 * t))) < 1e-14
    assert evaluate(k, -1.0) == 0


def test_power_law_pointwise():
    k = power_law(1.5)
    t = np.array([1.0, 2.0, 10.0])
    assert np.max(np.abs(evaluate(k, t) - 1.5 * t ** -1.5)) < 1e-14
    assert evaluate(k, 0.5) == 0


def test_invalid_parameters():
    with pytest.raises(InvalidKernel):
        exponential(-1.0)
    with pytest.raises(InvalidKernel):
        power_law(0.0)
    with pytest.raises(InvalidKernel):
        counterexample_additive(0.0)
    with pytest.raises(InvalidKernel):
        exponential(float("nan"))


def test_counterexample_transform_zero():
    for alpha in (0.5, 1.0, 2.0):
        k = counterexample_additive(alpha)
        form = k.additive_form()
        assert abs(form.transform(alpha)) < 1e-14
        assert abs(form.transform(0.0) - 1.0) < 1e-13


def test_normalize_scales_to_unit_mass():
    k = finite_mixture([(2.0, exponential(1.0))], Flavor.ADDITIVE)
    assert abs(k.mass() - 2.0) < 1e-12
    n = normalize(k)
    assert abs(n.mass() - 1.0) < 1e-12
    assert "normalization_scale" in n.meta


def test_normalize_drops_cached_norms():
    k = finite_mixture([(0.5, exponential(1.0))], Flavor.ADDITIVE)
    assert abs(k.l1_norm() - 0.5) < 1e-12
    n = normalize(k)
    assert abs(n.l1_norm() - 1.0) < 1e-12
    assert abs(n.first_moment() - 1.0) < 1e-12


def test_normalize_rejects_degenerate():
    k = finite_mixture([(1.0, exponential(1.0)), (-1.0, exponential(1.0 + 1e-15))],
                       Flavor.ADDITIVE)
    with pytest.raises(DegenerateKernel):
        normalize(k)


def test_convolution_of_exponentials():
    # Exp(1) * Exp(1) = x e^{-x}
    c = convolve(exponential(1.0), exponential(1.0))
    x = np.linspace(0.0, 20.0, 101)
    assert np.max(np.abs(evaluate(c, x) - x * np.exp(-x))) < 1e-10
    assert c.body.form is c.additive_form()  # the product stays a closed form


def test_convolution_of_power_laws():
    # psi_1 * psi_1 in the multiplicative algebra is (log t)/t on [1, inf)
    c = convolve(power_law(1.0), power_law(1.0))
    t = np.array([1.0, 2.0, 8.0, 50.0])
    assert np.max(np.abs(evaluate(c, t) - np.log(t) / t)) < 1e-10


def test_convolution_flavor_mismatch():
    with pytest.raises(FlavorMismatch):
        convolve(exponential(1.0), power_law(1.0))


def test_power_is_iterated_convolution():
    p3 = power(exponential(1.0), 3)
    x = np.linspace(0.0, 30.0, 101)
    assert np.max(np.abs(evaluate(p3, x) - x ** 2 / 2 * np.exp(-x))) < 1e-10
    with pytest.raises(InvalidArgument):
        power(exponential(1.0), 0)


def test_to_additive_transport():
    k = to_additive(power_law(2.0))
    assert k.flavor is Flavor.ADDITIVE
    assert k.body.catalog_id == "power_law" and k.body.params == {"r": 2.0}
    assert abs(k.mass() - 1.0) < 1e-12
    with pytest.raises(FlavorMismatch):
        to_additive(exponential(1.0))


def test_sampled_kernel_roundtrip():
    t = np.linspace(0.0, 30.0, 4000)
    k = sampled_kernel(t, np.exp(-t), Flavor.ADDITIVE)
    assert abs(k.mass() - 1.0) < 1e-3
    assert abs(evaluate(k, 2.0) - np.exp(-2.0)) < 1e-4


def test_sampled_kernel_keeps_uniform_samples():
    t = np.linspace(0.0, 30.0, 400)
    k = sampled_kernel(t, np.exp(-t), Flavor.ADDITIVE)
    assert k.body.grid.size == 400
    assert np.array_equal(k.body.values, np.exp(-t))
    # non-uniform samples are resampled onto a uniform grid
    k = sampled_kernel(t ** 1.5, np.exp(-t), Flavor.ADDITIVE)
    assert k.body.grid.size == 1600
    assert np.ptp(np.diff(k.body.grid)) < 1e-9


def test_sampled_kernel_fits_a_tail_to_four_samples():
    k = sampled_kernel([0.0, 1.0, 2.0, 3.0], [0.1, 1.0, 0.5, 0.25], Flavor.ADDITIVE)
    assert k.body.tail_value == 0.25
    assert abs(k.body.tail_rate - np.log(2.0)) < 1e-12


def test_sampled_kernel_dtype_follows_its_samples():
    # real samples stay real through normalization, convolution and powers,
    # so their convolutions run in real arithmetic; complex samples stay complex
    t = np.linspace(0.0, 40.0, 512)
    k = normalize(sampled_kernel(t, 2.0 * np.exp(-t), Flavor.ADDITIVE))
    assert k.body.values.dtype == np.float64 and isinstance(k.body.tail_value, float)
    u = np.array([-1.0, 3.3, 45.0])
    assert k.shape(u).dtype == np.float64
    assert convolve(k, exponential(1.0)).body.values.dtype == np.float64
    assert power(k, 2).body.values.dtype == np.float64
    spec = {"flavor": "additive", "body": {"samples": [[x, np.exp(-x), 0.0] for x in t]}}
    assert kernel_from_dict(spec).body.values.dtype == np.float64
    z = sampled_kernel(t, (1.0 + 0.5j) * np.exp(-t), Flavor.ADDITIVE)
    assert z.body.values.dtype == np.complex128
    assert z.shape(u).dtype == np.complex128
    resampled = sampled_kernel(t ** 1.5, np.exp(-t), Flavor.ADDITIVE)
    assert resampled.body.values.dtype == np.float64


def test_sampled_convolutions_are_exact():
    # one sampled factor with closed forms, or any power or product of
    # sampled factors on one step, is an exact body whose kinks lie on the
    # lattice of summed first nodes plus multiples of the step; the cube
    # was a trapezoid sum of mass 1.0068 that the CLI refused as not
    # normalized, and two steps were convolved with an unreported miss
    t = np.linspace(0.0, 40.0, 512)
    k = normalize(sampled_kernel(t, np.exp(-t / 10), Flavor.ADDITIVE))
    chain = convolve(convolve(exponential(1.0), k), exponential(2.0))
    assert np.allclose(chain.breaks, t, rtol=0.0, atol=1e-12)
    assert power(k, 2).breaks.size == 2 * t.size - 1
    cube = power(k, 3)
    assert abs(cube.mass() - 1.0) < 1e-12
    assert abs(cube.l1_norm() - 1.0) < 1e-10
    shifted = sampled_kernel(t + 0.5, np.exp(-t / 10), Flavor.ADDITIVE)
    h = t[1] - t[0]
    lattice = 3 * 0.5 + h * np.arange(3 * (t.size - 1) + 1)
    assert np.allclose(power(shifted, 3).breaks, lattice, rtol=0.0, atol=1e-12)
    coarse = sampled_kernel(t[::3], np.exp(-t[::3]), Flavor.ADDITIVE)
    with pytest.raises(InvalidArgument, match=r"different steps 0\.07827\d* and 0\.23483"):
        convolve(k, coarse)


def test_sampled_kernel_rejects_growth():
    t = np.linspace(0.0, 10.0, 512)
    with pytest.raises(InvalidKernel):
        sampled_kernel(t, np.exp(0.5 * t), Flavor.ADDITIVE)


def test_sampled_kernel_input_validation():
    with pytest.raises(InvalidKernel):
        sampled_kernel([0.0, 1.0], [1.0, 0.5], Flavor.ADDITIVE)
    with pytest.raises(InvalidKernel):
        sampled_kernel([0.0, 1.0, 1.0, 2.0], [1.0, 0.5, 0.4, 0.3], Flavor.ADDITIVE)
    with pytest.raises(InvalidKernel):
        sampled_kernel([0.5, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3],
                       Flavor.MULTIPLICATIVE)


def test_parse_kernel_arg_catalog():
    k = parse_kernel_arg("catalog:exponential(1)")
    assert k.body.catalog_id == "exponential"
    k = parse_kernel_arg("catalog:power_law(0.5)")
    assert abs(k.body.params["r"] - 0.5) < 1e-15
    with pytest.raises(ConfigError):
        parse_kernel_arg("catalog:exponential(a)")
    with pytest.raises(ConfigError):
        parse_kernel_arg("catalog:unknown(1)")
    with pytest.raises(ConfigError):
        parse_kernel_arg("nope")


def test_from_catalog_arity():
    with pytest.raises(ConfigError):
        from_catalog("exponential", [1.0, 2.0])


def test_kernel_spec_file_roundtrip(tmp_path):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps({"flavor": "additive",
                                "body": {"catalog": "exponential",
                                         "params": {"rate": 1.5}}}))
    k = parse_kernel_arg(f"file:{path}")
    assert k.body.params["rate"] == 1.5


def test_kernel_spec_samples(tmp_path):
    t = np.linspace(0.0, 20.0, 800)
    rows = [[float(x), float(np.exp(-x)), 0.0] for x in t]
    path = tmp_path / "samp.json"
    path.write_text(json.dumps({"flavor": "additive", "body": {"samples": rows}}))
    k = parse_kernel_arg(f"file:{path}")
    assert abs(k.mass() - 1.0) < 1e-2


def test_kernel_spec_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_kernel_arg(f"file:{bad}")
    with pytest.raises(ConfigError):
        kernel_from_dict({"flavor": "additive", "body": {}})
    with pytest.raises(ConfigError):
        kernel_from_dict({"flavor": "sideways",
                          "body": {"catalog": "exponential", "params": {"rate": 1}}})
    with pytest.raises(ConfigError):
        kernel_from_dict({"flavor": "multiplicative",
                          "body": {"catalog": "exponential", "params": {"rate": 1}}})


@pytest.mark.parametrize("body", [
    # a mixture component without a catalog name
    {"catalog": "finite_mixture",
     "params": {"components": [{"coef": [1.0, 0.0], "params": {"rate": 1.0}}]}},
    # a one-number mixture coefficient
    {"catalog": "finite_mixture",
     "params": {"components": [{"catalog": "exponential", "coef": [1.0],
                                "params": {"rate": 1.0}}]}},
    # ragged sample rows
    {"samples": [[0.0, 1.0, 0.0], [1.0, 0.5], [2.0, 0.2, 0.0], [3.0, 0.1, 0.0]]},
    # a non-numeric parameter
    {"catalog": "exponential", "params": {"rate": "x"}},
    # a misnamed parameter, plain and in a mixture component
    {"catalog": "exponential", "params": {"r": 1.0}},
    {"catalog": "finite_mixture",
     "params": {"components": [{"catalog": "exponential", "params": {"r": 1.0}}]}},
    # a body that is not an object
    "exponential",
    ["catalog", "samples"],
])
def test_malformed_kernel_spec_is_a_config_error(body):
    with pytest.raises(ConfigError):
        kernel_from_dict({"flavor": "additive", "body": body})


def test_mixture_spec_components_by_parameter_name():
    # components name their parameters as plain catalog bodies do
    comp = {"catalog": "counterexample_additive", "params": {"alpha": 2.0}}
    spec = {"flavor": "additive", "body": {"catalog": "finite_mixture", "params": {
        "components": [dict(comp, coef=[0.25, 0.0]),
                       {"catalog": "exponential", "coef": [0.75, 0.0], "params": {"rate": 3.0}}]}}}
    k = kernel_from_dict(spec)
    want = finite_mixture([(0.25, counterexample_additive(2.0)), (0.75, exponential(3.0))],
                          Flavor.ADDITIVE)
    x = np.linspace(0.0, 10.0, 11)
    assert np.max(np.abs(evaluate(k, x) - evaluate(want, x))) == 0.0
    # the mixture's own record reads back to the same kernel
    again = kernel_from_dict({"flavor": "additive", "body": {"catalog": "finite_mixture",
                                                             "params": k.body.params}})
    assert np.max(np.abs(evaluate(again, x) - evaluate(k, x))) == 0.0


def test_mixture_record_rebuilds_its_kernel():
    # normalizing scales the recorded coefficients with the form
    mix = normalize(finite_mixture([(2, exponential(1.0)), (2, exponential(2.0))],
                                   Flavor.ADDITIVE))
    again = kernel_from_dict({"flavor": "additive", "body": {"catalog": "finite_mixture",
                                                             "params": mix.body.params}})
    assert abs(again.mass() - 1.0) < 1e-12
    x = np.linspace(0.0, 10.0, 11)
    assert np.max(np.abs(evaluate(again, x) - evaluate(mix, x))) <= 1e-16
    # a component no catalog entry builds (a product, a transported power
    # law) leaves no record rather than a wrong one
    for comp in (power(exponential(1.0), 2), to_additive(power_law(2.0))):
        mixed = finite_mixture([(0.5, comp), (0.5, exponential(2.0))], Flavor.ADDITIVE)
        assert mixed.body.params == {}


def test_moments():
    k = exponential(1.0)
    assert abs(k.l1_norm() - 1.0) < 1e-9
    assert abs(k.first_moment() - 1.0) < 1e-8  # int u e^{-u} du = 1


def test_closed_form_product_moments():
    # (log t)/t on [1, inf) and 2 (e^{-u} - e^{-2u}): unit mass, first moments 2 and 1.5
    for k, m1 in ((power(power_law(1.0), 2), 2.0),
                  (convolve(exponential(1.0), exponential(2.0)), 1.5)):
        assert isinstance(k.body, ClosedForm)
        assert abs(k.l1_norm() - 1.0) < 1e-12
        assert abs(k.first_moment() - m1) < 1e-12


def test_nonnegative_convolved_norms_are_exact():
    # the square of a normalized sampled exp(-u) is nonnegative, so its L1
    # norm is its mass and its first absolute moment the factors' m1 M + M m1:
    # no quadrature at any size, where one over every lattice node took
    # 2.7e6 evaluations at 32 768 samples; at 512 samples the quadrature agrees
    for n in (32768, 512):
        u = np.linspace(0.0, 40.0, n)
        squared = power(normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE)), 2)
        start = counter.count
        norms = squared.l1_norm(), squared.first_moment()
        assert counter.count == start, n
    shape, cut = squared.shape, squared.shape.support_cutoff(1e-14)
    for k, got in enumerate(norms):
        want = integrate_adaptive(lambda v: v ** k * np.abs(shape(v)), 0.0, cut, 1e-12,
                                  breaks=squared.breaks).real
        assert abs(got - want) < 1e-12, k
    # a factor that changes sign keeps the quadrature, which bounds the mass
    mixed = convolve(squared, counterexample_additive(1.0))
    start = counter.count
    assert mixed.l1_norm() >= abs(mixed.mass())
    assert counter.count > start


def test_sampled_absolute_moments_bound_the_body():
    # spectrum takes first_moment as a Lipschitz bound on the transform; a
    # trapezoid sum of u |v| fell 6.5% short of int u |phi| on these 64
    # samples of e^-u.  The bound is exact where no cell changes sign
    u = np.linspace(0.0, 40.0, 64)
    for values, exact in ((np.exp(-u), True), (np.cos(u) * np.exp(-u), False)):
        kernel = sampled_kernel(u, values, Flavor.ADDITIVE)
        shape, cut = kernel.shape, kernel.shape.support_cutoff(1e-14)
        for k, got in enumerate((kernel.l1_norm(), kernel.first_moment())):
            want = integrate_adaptive(lambda v: v ** k * np.abs(shape(v)), 0.0, cut, 1e-13,
                                      breaks=kernel.breaks).real
            assert got >= want - 1e-12, k
            assert (abs(got - want) < 1e-12) is exact, k


_SAMPLED = (np.linspace(0.0, 10.0, 64), np.exp(-np.linspace(0.0, 10.0, 64)))


@pytest.mark.parametrize("build, error", [
    (lambda: finite_mixture([], Flavor.ADDITIVE), InvalidArgument),
    (lambda: finite_mixture([(float("nan"), exponential(1.0))], Flavor.ADDITIVE), InvalidKernel),
    (lambda: finite_mixture([(1.0, power_law(1.0))], Flavor.ADDITIVE), FlavorMismatch),
    (lambda: finite_mixture([(1.0, sampled_kernel(*_SAMPLED, Flavor.ADDITIVE))],
                            Flavor.ADDITIVE), InvalidKernel),
    (lambda: sampled_kernel([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 0.5, 0.25], Flavor.ADDITIVE),
     InvalidKernel),
    (lambda: sampled_kernel([0.0, 1.0, 2.0, np.inf], [1.0, 0.7, 0.5, 0.25], Flavor.ADDITIVE),
     InvalidKernel),
    (lambda: sampled_kernel([-1.0, 1.0, 2.0, 3.0], [1.0, 0.7, 0.5, 0.25], Flavor.ADDITIVE),
     InvalidKernel),
    (lambda: kernel_from_dict({"flavor": "additive"}), ConfigError),
    (lambda: kernel_from_dict({"flavor": "additive", "body": {
        "catalog": "finite_mixture", "params": {"components": {}}}}), ConfigError),
    (lambda: kernel_from_dict({"flavor": "additive", "body": {
        "catalog": "exponential", "params": [1.0]}}), ConfigError),
    (lambda: parse_kernel_arg("catalog:exponential(1"), ConfigError),
    (lambda: parse_kernel_arg("catalog:exponential"), ConfigError),
    (lambda: evaluate(exponential(1.0), [0.5, np.nan]), InvalidKernel),
])
def test_kernel_inputs_are_checked(build, error):
    with pytest.raises(error):
        build()
