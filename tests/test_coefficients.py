"""Coefficient fields: catalogue closed forms, expressions, ellipticity."""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville_lab as ll
from liouville_lab import coefficients


# ---------------------------------------------------------------------------
# eval_drift / closed forms


def test_log_drift_vanishes_at_origin():
    field = ll.make_log_example(0.3)
    assert ll.eval_drift(field, np.array([0.0]))[0] == 0.0


def test_ou_drift_is_minus_x():
    field = ll.make_standard_fields("ou", 2)
    np.testing.assert_array_equal(
        ll.eval_drift(field, np.array([1.0, 2.0])), np.array([-1.0, -2.0])
    )


def test_log_drift_hand_value():
    # b(1) = 1/(2+1) * (delta + 2/log(2+1))
    field = ll.make_log_example(0.5)
    expected = (1.0 / 3.0) * (0.5 + 2.0 / math.log(3.0))
    assert ll.eval_drift(field, np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)


def test_log_drift_delta_zero_form():
    field = ll.make_log_example(0.0)
    for x in (0.5, 1.0, 3.0, 20.0):
        expected = 2.0 * x / ((2.0 + x * x) * math.log(2.0 + x * x))
        assert ll.eval_drift(field, np.array([x]))[0] == pytest.approx(expected, rel=1e-14)


def test_log_drift_odd():
    field = ll.make_log_example(0.3)
    for x in (0.5, 1.0, 7.0):
        plus = ll.eval_drift(field, np.array([x]))[0]
        minus = ll.eval_drift(field, np.array([-x]))[0]
        assert minus == -plus


def test_log_drift_decays_at_infinity():
    field = ll.make_log_example(1.0)
    assert abs(ll.eval_drift(field, np.array([1e6]))[0]) < 1e-5


def test_catalogue_closed_forms_random_points():
    """Every catalogue member matches its documented closed form at 100 points."""
    rng = np.random.default_rng(99)

    def log_b(x, delta):
        return x / (2 + x**2) * (delta + 2.0 / np.log(2 + x**2))

    cases = [
        ("zero", 3, (), lambda x: np.zeros(3), lambda x: np.eye(3)),
        ("ou", 2, (), lambda x: -x, lambda x: np.eye(2)),
        (
            "var_q_const_b",
            2,
            (0.5,),
            lambda x: np.array([1.0, 0.0]),
            lambda x: (1 + 0.5 * np.sin(np.linalg.norm(x)) ** 2) * np.eye(2),
        ),
        (
            "radial_expand",
            3,
            (2.0,),
            lambda x: 2.0 * x / (1 + x @ x),
            lambda x: np.eye(3),
        ),
        ("log_example", 1, (0.3,), lambda x: log_b(x, 0.3), lambda x: np.eye(1)),
    ]
    for name, dim, params, b_ref, q_ref in cases:
        field = ll.make_standard_fields(name, dim, params)
        for _ in range(100):
            x = rng.uniform(-20, 20, size=dim)
            np.testing.assert_allclose(
                ll.eval_drift(field, x), b_ref(x), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                ll.eval_diffusion(field, x), q_ref(x), rtol=1e-12, atol=1e-12
            )


def test_eval_deterministic_bit_identical():
    field = ll.make_standard_fields("var_q_const_b", 2, [0.5])
    x = np.array([0.3, -1.7])
    assert np.array_equal(ll.eval_drift(field, x), ll.eval_drift(field, x))
    assert np.array_equal(ll.eval_diffusion(field, x), ll.eval_diffusion(field, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_drift_rejects_nonfinite_output():
    # pole placed off the construction-time probe lattice
    field = ll.field_from_expressions(1, ["1/(x1 - 0.1234567)"])
    with pytest.raises(ll.CoefficientEvaluationError):
        ll.eval_drift(field, np.array([0.1234567]))


def test_catalogue_unknown_name():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("does_not_exist", 2)


def test_catalogue_param_count_enforced():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("zero", 3, [1.0])
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("log_example", 1, [])


def test_log_example_requires_dim_one():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("log_example", 2, [0.25])


# ---------------------------------------------------------------------------
# catalogue values to the bit


def _field_points(dim):
    """16 seeded points from 1e-3 to 1e3 in size, the origin first and a
    point with |x| = 1e4 last."""
    rng = np.random.default_rng(1000 + dim)
    pts = rng.standard_normal((16, dim)) * np.geomspace(1e-3, 1e3, 16)[:, None]
    pts[0] = 0.0
    pts[-1] *= 1e4 / np.linalg.norm(pts[-1])
    return pts


# float.hex of the radial_expand and log_example drift and of q_11 of
# var_q_const_b at _field_points, recorded from the hand-written closures
# that the catalogue's expression templates replaced
DRIFT_BITS = {
    ("radial_expand", 1, ()): (
        "0x0.0p+0", "-0x1.632971f3ffab1p-12", "-0x1.c5e943f2db67dp-8",
        "0x1.39e7e473593b1p-6", "-0x1.eded836dfcee9p-5", "-0x1.2b595c0a86a8ap-5",
        "0x1.68149640d628fp-6", "-0x1.70990b15cd93bp-2", "-0x1.9706e32c6298fp-2",
        "0x1.579d991db2643p-2", "0x1.ffe9300b563adp-2", "0x1.33cda8f847833p-6",
        "-0x1.7089980195255p-4", "-0x1.e09d40622077cp-4", "0x1.1791c7c3e7a02p-9",
        "0x1.a36e2e6b65ccdp-14"),
    ("radial_expand", 1, (0.3,)): (
        "0x0.0p+0", "-0x1.aa31bbf19933ap-14", "-0x1.1058c25e83a4bp-9",
        "0x1.78afdef0d17a1p-8", "-0x1.285b4edb97c25p-6", "-0x1.6738080ca1973p-7",
        "0x1.b018b44dcdcabp-8", "-0x1.ba514080904adp-4", "-0x1.e86eaa35431dep-4",
        "0x1.9c56b7bd3c783p-4", "0x1.3325833a0089bp-3", "0x1.715d3129ef6a3p-8",
        "-0x1.ba3eb6684c933p-6", "-0x1.205e59d479e17p-5", "0x1.4f7bbc84af8cfp-11",
        "0x1.f7510480e08f6p-16"),
    ("radial_expand", 2, ()): (
        "0x0.0p+0", "0x0.0p+0", "0x1.b32e3cc6ed9aep-9",
        "0x1.b39264ddc7ff7p-13", "-0x1.e68df42433b8cp-8", "0x1.de1a8347c9071p-8",
        "0x1.fd2f14a3dec50p-7", "-0x1.784a5f92bd9eap-6", "0x1.69004ca78a2c3p-5",
        "-0x1.8e0e5b9dbe476p-6", "-0x1.8b06ea592d4eap-4", "0x1.2804521e60fafp-4",
        "-0x1.4353e4cc35c86p-3", "-0x1.436a88bd85aecp-2", "-0x1.3f47e56aa2fd0p-2",
        "-0x1.d34d62556b267p-3", "-0x1.94a9b00a23cccp-6", "-0x1.ef1ca08103894p-2",
        "0x1.05861ad5dce8ep-2", "0x1.9029591850fecp-2", "-0x1.394a89c1b8976p-2",
        "-0x1.4a057b6e8a276p-2", "-0x1.f5246053ba7b0p-7", "0x1.2eafc377f6735p-10",
        "-0x1.1941db39ba108p-8", "-0x1.c5a286af6c09bp-8", "-0x1.9eb2dd615437ap-12",
        "-0x1.db3693b61cb6ep-9", "0x1.9f999e8ea9acfp-14", "0x1.763bd61df7260p-10",
        "0x1.8e68dcf535669p-14", "-0x1.063bd4c6fbbc8p-15"),
    ("radial_expand", 2, (0.3,)): (
        "0x0.0p+0", "0x0.0p+0", "0x1.051bbe10f4f68p-10",
        "0x1.0557d61eab32ep-14", "-0x1.23eec5af523bap-9", "0x1.1edcb52b12377p-9",
        "0x1.3182a5fbec0fcp-8", "-0x1.c38c72b016be5p-8", "0x1.b1338f2f729b7p-7",
        "-0x1.ddaad456e455ap-8", "-0x1.da084c6b032b3p-6", "0x1.6338628adac6bp-6",
        "-0x1.83fe45c1da23ap-5", "-0x1.841970e36d382p-4", "-0x1.7f23134cc3960p-4",
        "-0x1.1861a166737d7p-4", "-0x1.e5986cd8f7c28p-8", "-0x1.29112d1a35525p-3",
        "0x1.39d42033d5e44p-4", "0x1.e0319e1d2dfe8p-4", "-0x1.77f30bb543e8dp-4",
        "-0x1.8c06941e3f627p-4", "-0x1.2caf6cff097d0p-8", "0x1.6b3950f65af0cp-12",
        "-0x1.51823a4545ad7p-10", "-0x1.102e50cfa7390p-9", "-0x1.f1a3700e650f8p-14",
        "-0x1.1d20bf06de076p-10", "0x1.f2b857de6535ep-16", "0x1.c1149a8a5bc73p-12",
        "0x1.de176f8ca67b1p-16", "-0x1.3aae32886148ap-17"),
    ("radial_expand", 3, ()): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x1.05a44a2e417c3p-10", "-0x1.0d9926f24a2a8p-13", "0x1.e9826634e42f7p-9",
        "0x1.333a731057634p-7", "0x1.d41a5d9f440c4p-9", "0x1.caae1ea217467p-9",
        "0x1.3abd338f663f8p-8", "0x1.bf0c414993520p-8", "-0x1.252ab23115022p-8",
        "-0x1.6dc4f2b4c2596p-5", "0x1.151fbff087e62p-4", "0x1.7cf35fdb4c25ep-7",
        "-0x1.9fdd146250a92p-3", "-0x1.c1858e3551705p-5", "0x1.5ebf9307473d6p-5",
        "-0x1.18fbab5454af3p-3", "-0x1.c506aff2d80b9p-3", "-0x1.52a9114e787c0p-2",
        "0x1.2b0127a3cfad5p-3", "-0x1.aadb7ae9ee25fp-2", "0x1.4cccea09f1597p-3",
        "-0x1.9fe119e26bc6fp-3", "-0x1.01d7efe7fb0e4p-3", "0x1.2741a78131e83p-7",
        "0x1.ef9a42ee80e96p-5", "-0x1.b8ee346f70c1dp-3", "0x1.5577cae74682bp-2",
        "0x1.2f9d2182700b7p-4", "-0x1.82baced08a4c1p-8", "0x1.c72abfdd5c425p-4",
        "0x1.c2448e1ea8f98p-7", "-0x1.a99ac7e66a8fcp-8", "-0x1.61622f132ef7cp-6",
        "-0x1.6e7e83fb43801p-9", "-0x1.177092f830f50p-7", "0x1.90dacbe74cdb0p-11",
        "-0x1.91f48b3ed35f8p-11", "0x1.236aa8256ec01p-9", "-0x1.23ea6c47da4b3p-8",
        "0x1.efbdcb3df025ep-11", "-0x1.c75aefd2dc20cp-11", "-0x1.efa54897955acp-11",
        "-0x1.36a1168afa668p-14", "-0x1.193e9816813bep-14", "-0x1.23e86caf52352p-18"),
    ("radial_expand", 3, (0.3,)): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x1.39f859044e950p-12", "-0x1.43849522bf664p-15", "0x1.25b4a3b955b61p-10",
        "0x1.70ac8a139c10bp-9", "0x1.18dc9e92c26dcp-10", "0x1.13354594745d7p-10",
        "0x1.79afd778e118fp-10", "0x1.0c3a8d928b979p-9", "-0x1.5fccd5d47f9c2p-10",
        "-0x1.b6ec567282d1ap-7", "0x1.4c8c7fed6fe0fp-6", "0x1.c9240ca0c1c70p-9",
        "-0x1.f3094ba92d97cp-5", "-0x1.0db6888664103p-6", "0x1.a4e5e3a2557cdp-7",
        "-0x1.512e00cb98d23p-5", "-0x1.0fd0cff81b3a2p-4", "-0x1.96647b2af6fb3p-4",
        "0x1.66ce2f915f9ccp-5", "-0x1.001d49bf8ee39p-3", "0x1.8f5c4c0bee6b5p-5",
        "-0x1.f30e1f0fb4885p-5", "-0x1.3569864993aabp-5", "0x1.624ec9016f169p-9",
        "0x1.295c8e8f1a25ap-6", "-0x1.088eec42dd411p-4", "0x1.99c2f37bee367p-4",
        "0x1.6c562836200dbp-6", "-0x1.d0135e93d9281p-10", "0x1.1119a6519dc16p-5",
        "0x1.0e29221265628p-8", "-0x1.feb9bcae19795p-10", "-0x1.a80f6bb09ec2ep-8",
        "-0x1.b7cb04c71dccdp-11", "-0x1.4f53e3903abf9p-9", "0x1.e1068e48c2a06p-13",
        "-0x1.e258a71830d90p-13", "0x1.5db3302ceb4cfp-11", "-0x1.5e4c81efd2c0ap-10",
        "0x1.2971e0585ce38p-12", "-0x1.11368fe4ea7a1p-12", "-0x1.29632b8e2669ap-12",
        "-0x1.74c14e405fae4p-16", "-0x1.517e501b017b0p-16", "-0x1.5e4a1c0595d96p-20"),
    ("radial_expand", 4, ()): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.855eb8ce04fb6p-9", "0x1.ce8c352f2ac7dp-9",
        "0x1.afada9782bf4ep-17", "-0x1.697a0ccb98f20p-11", "0x1.74de7063ace70p-9",
        "-0x1.b6c22d533236fp-8", "0x1.bee1e68ace8e9p-10", "-0x1.9dc3b4617ddb5p-8",
        "0x1.05c2115dd4c09p-7", "-0x1.6b3416088765fp-8", "0x1.01eadc2bddc45p-7",
        "-0x1.eaf43af197c84p-8", "-0x1.9c33a31669d5ap-9", "0x1.acf159e7c9e19p-5",
        "0x1.c44491e358a9bp-7", "-0x1.923535c2e1e78p-9", "-0x1.37a9823434392p-8",
        "0x1.979e80cac8567p-8", "-0x1.8ddd7c4cada78p-3", "0x1.3d54cbeeaa3a1p-5",
        "0x1.4fa71be19490dp-4", "0x1.7264711371ddep-3", "0x1.8f5a38db80504p-3",
        "-0x1.5f958c40b55d4p-2", "0x1.6e42e9464eb41p-2", "0x1.0d9dc8e5d5f98p-3",
        "-0x1.7eaf475fa8476p-3", "0x1.ce617a2d25a65p-3", "0x1.0624e14b78581p-2",
        "0x1.26396e417d644p-3", "0x1.95916bd7ea74bp-4", "0x1.ef129b5e0979ep-4",
        "-0x1.5209d9b173e86p-5", "0x1.88ac7e362283dp-4", "0x1.6b8f81a4d2179p-4",
        "-0x1.1a033e49934d8p-4", "-0x1.a891b6fe4568ap-7", "-0x1.fa3191a055094p-10",
        "-0x1.c16699aaa9887p-6", "0x1.bee1e58c41b05p-6", "-0x1.1dcae35c31a41p-8",
        "-0x1.4e940849dde38p-6", "-0x1.a3af9e0de56f1p-7", "-0x1.c1d4daff454cep-7",
        "0x1.f168905100c3ap-11", "-0x1.089730b4f019fp-9", "-0x1.0adc54684f956p-8",
        "0x1.1c3dbcb508ddap-7", "-0x1.daa4362851bd3p-11", "0x1.80f8922265b25p-11",
        "0x1.2ea23cb1f1cefp-10", "0x1.2502fd3450bcep-10", "-0x1.c474ad8f3db89p-11",
        "-0x1.52a2a9979371bp-11", "-0x1.1325e49ea6c5bp-15", "0x1.563d22073b71dp-12",
        "-0x1.fe7e2f443c3ddp-15", "0x1.c800f369bb7aep-15", "-0x1.308b866cf7ee2p-16",
        "0x1.cc639b54d7b6cp-15"),
    ("radial_expand", 4, (0.3,)): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.d33e775d9f940p-11", "0x1.1587531c4cde5p-10",
        "0x1.0301cc14e72c8p-18", "-0x1.b1c5a8f451227p-13", "0x1.bf7153aacf7bap-11",
        "-0x1.07414e651e20fp-9", "0x1.0c2123ece2558p-11", "-0x1.f084720e97073p-10",
        "0x1.3a1c14d6ff4d7p-9", "-0x1.b3d81a70a27a5p-10", "0x1.35803b67d6eb9p-9",
        "-0x1.269289c427de9p-9", "-0x1.eea45d4e1899fp-11", "0x1.015d9c57df875p-6",
        "0x1.0f5c57886865dp-8", "-0x1.e2a64083757c3p-11", "-0x1.75fe9c3ea5116p-10",
        "0x1.e9249a8cf067bp-10", "-0x1.dd702ec269fc3p-5", "0x1.7ccc27eb32ac1p-7",
        "0x1.92c887db7f142p-6", "0x1.bc7887b0ef0a4p-5", "0x1.df39110766c6bp-5",
        "-0x1.a5e6a84da66fep-4", "0x1.b7837e545e71bp-4", "0x1.438a244700c50p-5",
        "-0x1.cb38bc0c6388ep-5", "0x1.156dafb4b0309p-4", "0x1.3a92a7f42a034p-4",
        "0x1.6111b781c9ab7p-5", "0x1.e6ae81697fbf3p-6", "0x1.290b2a0538e2cp-5",
        "-0x1.95a56ba1be4a1p-7", "0x1.d7356440f637cp-6", "0x1.b445cec5c8e91p-6",
        "-0x1.526a4abeb0c36p-6", "-0x1.fd7ba864534a6p-9", "-0x1.2fb7576033058p-11",
        "-0x1.0da3f5cccc1ebp-7", "0x1.0c2123542769cp-7", "-0x1.56f3773b6ec4ep-10",
        "-0x1.917e7058a3ddcp-8", "-0x1.f79f8a7713520p-9", "-0x1.0de61cff8ffafp-8",
        "0x1.2a71f0309a0f0p-12", "-0x1.3d823a72b9b8cp-11", "-0x1.403b987d2c4cep-10",
        "0x1.5516e272d7705p-9", "-0x1.1cc8ed4b643e4p-12", "0x1.cdf715c2e06f9p-13",
        "0x1.6b2915a2555ecp-12", "0x1.5f9d2fd860e2ap-12", "-0x1.0f7934ef8b6ebp-12",
        "-0x1.965ccb82b0eecp-13", "-0x1.4a2d78be61ba0p-17", "0x1.9aafc26f14223p-14",
        "-0x1.324bb5f5bdbebp-16", "0x1.119a2ba5d6e35p-16", "-0x1.6d743ae929842p-18",
        "0x1.143bc3994e3a7p-16"),
    ("log_example", 1, (0.25,)): (
        "0x0.0p+0", "-0x1.16648c487124ap-11", "-0x1.63cb5b9d8cec0p-7",
        "0x1.ec1439585d3afp-6", "-0x1.82ee9f2c59de0p-4", "-0x1.d52f663590edep-5",
        "0x1.1a39cd6138a69p-5", "-0x1.18ed2d751da10p-1", "-0x1.3356e2b41743dp-1",
        "0x1.64e14b360ac0ep-2", "0x1.5ff7da976d911p-1", "0x1.34ad8c4a7a7c7p-7",
        "-0x1.e65e757392855p-5", "-0x1.53b9229d1cbd8p-4", "0x1.cd64ca9e23f87p-11",
        "0x1.2ccb18db09242p-15"),
    ("log_example", 1, (0.6,)): (
        "0x0.0p+0", "-0x1.35782cc54c95ap-11", "-0x1.8b833665df9e5p-7",
        "0x1.1182e4d373288p-5", "-0x1.ae3ad3535bdcdp-4", "-0x1.04cd9abb6c57ap-4",
        "0x1.39bd8d8fff457p-5", "-0x1.3bd9938b3ac06p-1", "-0x1.5ad6ac8d16142p-1",
        "0x1.cf5f7fad53e19p-2", "0x1.9c109999ffcd7p-1", "0x1.060838994063dp-6",
        "-0x1.7320d930feb32p-4", "-0x1.f99f29870a0bcp-4", "0x1.aa650398abbe5p-10",
        "0x1.293282fa7a5c7p-14"),
}
Q11_BITS = {
    ("var_q_const_b", 1, ()): (
        "0x1.0000000000000p+0", "0x1.000000f65dff7p+0", "0x1.00019271ec47cp+0",
        "0x1.000c0929a160ep+0", "0x1.0077d9dcdb02dp+0", "0x1.002bda3c2d42fp+0",
        "0x1.000fd7132d413p+0", "0x1.15c1ff87e21e2p+0", "0x1.1cdcea2c8629fp+0",
        "0x1.229e99f5b8600p+0", "0x1.5cce586187ec2p+0", "0x1.04e854db943adp+0",
        "0x1.7fe67a176782ep+0", "0x1.5d17e1e3048e4p+0", "0x1.39a80e2bca56ep+0",
        "0x1.0bf48948ede96p+0"),
    ("var_q_const_b", 1, (0.3,)): (
        "0x1.0000000000000p+0", "0x1.00000093d1ffbp+0", "0x1.0000f1778dc4ap+0",
        "0x1.000738b29406fp+0", "0x1.0047e91e1d01bp+0", "0x1.001a4fbdb4c1cp+0",
        "0x1.0009810b818d8p+0", "0x1.0d0dffb7ee121p+0", "0x1.1151594dea192p+0",
        "0x1.14c58f936ea00p+0", "0x1.37af01d41e5a8p+0", "0x1.02f1cc83bf568p+0",
        "0x1.4cbd7c74714e8p+0", "0x1.37db2121cf889p+0", "0x1.22980880ac9a8p+0",
        "0x1.072c525ef525ap+0"),
    ("var_q_const_b", 2, ()): (
        "0x1.0000000000000p+0", "0x1.00005cd5d8ef3p+0", "0x1.00038cfd2ca88p+0",
        "0x1.00193aa4d5f26p+0", "0x1.005353e8485c0p+0", "0x1.01e7d487b7572p+0",
        "0x1.14a99207ac50dp+0", "0x1.1a8898d7bddffp+0", "0x1.763a1072991c0p+0",
        "0x1.7e478988e675ap+0", "0x1.29efc624e11f1p+0", "0x1.404b98a504568p+0",
        "0x1.080e0a7a46cb2p+0", "0x1.4a994e5c280d7p+0", "0x1.7ab1ee892a831p+0",
        "0x1.0bf48948ede96p+0"),
    ("var_q_const_b", 2, (0.3,)): (
        "0x1.0000000000000p+0", "0x1.000037b382292p+0", "0x1.00022164b4652p+0",
        "0x1.000f232fb3917p+0", "0x1.0031ff24f8373p+0", "0x1.0124b2b7d4678p+0",
        "0x1.0c65be049a96ep+0", "0x1.0feb8ee7d8532p+0", "0x1.46efa377f5773p+0",
        "0x1.4bc485b88a469p+0", "0x1.192976e2ed790p+0", "0x1.2693c1fc9c33ep+0",
        "0x1.04d5397c90e05p+0", "0x1.2cc262374b3b4p+0", "0x1.499df5857fe84p+0",
        "0x1.072c525ef525ap+0"),
    ("var_q_const_b", 3, ()): (
        "0x1.0000000000000p+0", "0x1.00007d7ffb5cap+0", "0x1.0003b3509ac6ap+0",
        "0x1.0002efca5d750p+0", "0x1.00de3e5f3088bp+0", "0x1.06675412d511fp+0",
        "0x1.2295ff866964ap+0", "0x1.7d282d1bdedd9p+0", "0x1.401a271d9afeap+0",
        "0x1.6b09df3ce28b2p+0", "0x1.615cdf39dc599p+0", "0x1.03d39bb4ae1c7p+0",
        "0x1.615c91e66c462p+0", "0x1.295b843a3ae53p+0", "0x1.684c328705d59p+0",
        "0x1.0bf48948ede96p+0"),
    ("var_q_const_b", 3, (0.3,)): (
        "0x1.0000000000000p+0", "0x1.00004b4cca046p+0", "0x1.000238639010dp+0",
        "0x1.0001c31304dfdp+0", "0x1.0085589f83854p+0", "0x1.03d798d819712p+0",
        "0x1.14c0661d726f9p+0", "0x1.4b181b10b8eb6p+0", "0x1.2676177829cc0p+0",
        "0x1.40391f8aee538p+0", "0x1.3a6aec55ea9c2p+0", "0x1.024bc3d2ceddep+0",
        "0x1.3a6abdf0a75d5p+0", "0x1.18d0828956898p+0", "0x1.3e941e5103802p+0",
        "0x1.072c525ef525ap+0"),
    ("var_q_const_b", 4, ()): (
        "0x1.0000000000000p+0", "0x1.0000b67dcb2f6p+0", "0x1.000322c374504p+0",
        "0x1.0006f80b87279p+0", "0x1.0061318f33898p+0", "0x1.056475e2b87dbp+0",
        "0x1.291508ca0ae1ep+0", "0x1.3c09c0311a37ep+0", "0x1.1f14defcee6a2p+0",
        "0x1.00d813f2ca866p+0", "0x1.339cc2e33114cp+0", "0x1.5d9f27f8e6264p+0",
        "0x1.6580377a6dcb1p+0", "0x1.63916d155ff00p+0", "0x1.7ff65740dcb0bp+0",
        "0x1.0bf48948ede96p+0"),
    ("var_q_const_b", 4, (0.3,)): (
        "0x1.0000000000000p+0", "0x1.00006d7ead1c7p+0", "0x1.0001e1a878fcfp+0",
        "0x1.00042e6d5117cp+0", "0x1.003a50ef85528p+0", "0x1.033c46bb3b7eap+0",
        "0x1.18a6387939babp+0", "0x1.2405d9b70fbb2p+0", "0x1.12a61f648f0c7p+0",
        "0x1.0081a591acb70p+0", "0x1.1ef7a821ea3fap+0", "0x1.382c4b2ef07d6p+0",
        "0x1.3ce687afdb79ep+0", "0x1.3bbda7d99ff66p+0", "0x1.4cc70126ead06p+0",
        "0x1.072c525ef525ap+0"),
}

EXACT_DRIFT = {
    "zero": lambda x: np.zeros_like(x),
    "ou": lambda x: -x,
    "var_q_const_b": lambda x: np.eye(x.shape[1])[np.zeros(len(x), int)],
}
FIELD_CASES = [(name, dim, ()) for name in ("zero", "ou")
               for dim in (1, 2, 3, 4)] + sorted(DRIFT_BITS) + sorted(Q11_BITS)


@pytest.mark.parametrize("name, dim, params", FIELD_CASES)
def test_catalogue_values_match_recorded_bits(name, dim, params):
    field = ll.make_standard_fields(name, dim, params)
    x = _field_points(dim)
    b, q = field.drift(x), field.diffusion(x)
    if name in EXACT_DRIFT:
        assert b.tobytes() == EXACT_DRIFT[name](x).tobytes()
    else:
        assert [v.hex() for v in b.ravel().tolist()] \
            == list(DRIFT_BITS[(name, dim, params)])
    q11 = q[:, 0, 0]
    # every catalogue q is q_11 times the identity, to the bit
    assert q.tobytes() == (q11[:, None, None] * np.eye(dim)).tobytes()
    assert [v.hex() for v in q11.tolist()] == list(
        Q11_BITS.get((name, dim, params), ["0x1.0000000000000p+0"] * 16))


def test_catalogue_fields_keep_their_labels_and_flags():
    cases = {
        ("zero", 2, ()): ("zero(d=2)", "constant"),
        ("ou", 2, ()): ("ou(d=2)", "constant"),
        ("var_q_const_b", 3, ()): ("var_q_const_b(d=3, a=0.5)", "diagonal"),
        ("radial_expand", 3, (4.0,)): ("radial_expand(d=3, c=4)", "constant"),
        ("log_example", 1, (0.25,)): ("log_example(delta=0.25)", "constant"),
    }
    for (name, dim, params), (label, form) in cases.items():
        field = ll.make_standard_fields(name, dim, params)
        assert field.label == label
        assert field.diffusion_form == form
        assert field.smoothness_note is None


@pytest.mark.parametrize("name, params", [
    ("log_example", [math.nan]), ("radial_expand", [math.inf]),
    ("var_q_const_b", [-math.inf])])
def test_catalogue_rejects_non_finite_params(name, params):
    with pytest.raises(ll.CatalogueError, match=r"param \w+ must be finite"):
        ll.make_standard_fields(name, 1, params)


def test_catalogue_keeps_var_q_positive_definite():
    with pytest.raises(ll.CatalogueError, match="a > -1"):
        ll.make_standard_fields("var_q_const_b", 2, [-1.0])


# ---------------------------------------------------------------------------
# the 4*delta dispersion identity for the log family
#
# The antipodal pair at separation s satisfies exactly
#   s*(b(s/2) - b(-s/2)) = 2s*b(s/2) = s^2/(2 + s^2/4) * (delta + 2/log(2 + s^2/4)),
# which tends to 4*delta as s -> infinity, but only at rate O(1/log s): the gap
# at s = 1e5 is ~8/log(2 + s^2/4) = 8/log(2.5e9) ~ 0.37 in absolute terms.


def _antipodal_value(field, s):
    return 2.0 * s * ll.eval_drift(field, np.array([s / 2.0]))[0]


def test_antipodal_dispersion_identity_exact():
    for delta in (0.25, 1.0):
        field = ll.make_log_example(delta)
        for s in (1e2, 1e3, 1e5):
            closed = s * s / (2 + s * s / 4) * (delta + 2.0 / math.log(2 + s * s / 4))
            assert _antipodal_value(field, s) == pytest.approx(closed, rel=1e-12)


def test_antipodal_dispersion_approaches_limit_monotonically():
    for delta in (0.25, 1.0):
        field = ll.make_log_example(delta)
        gaps = [abs(_antipodal_value(field, s) - 4 * delta) for s in (1e2, 1e3, 1e4, 1e5)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_antipodal_dispersion_near_limit_at_1e5():
    # the gap is 8/log(2 + s^2/4) up to a relative O(log(s)/s^2) term
    field = ll.make_log_example(0.25)
    s = 1e5
    gap = _antipodal_value(field, s) - 1.0
    assert gap * math.log(2 + s * s / 4) / 8 == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# expression sub-language


def test_expression_arithmetic_and_functions():
    field = ll.field_from_expressions(2, ["x1^2 - exp(-x2)", "sin(x1)*x2 + 1"])
    x = np.array([0.7, -1.2])
    expected = np.array(
        [0.49 - math.exp(1.2), math.sin(0.7) * (-1.2) + 1.0]
    )
    np.testing.assert_allclose(ll.eval_drift(field, x), expected, rtol=1e-14)


def test_expression_tanh_is_numpy_tanh():
    field = ll.field_from_expressions(1, ["tanh(x1)"])
    x = np.linspace(-30.0, 30.0, 601)[:, None]
    assert np.array_equal(field.drift(x), np.tanh(x))


def test_expression_norm_token():
    field = ll.field_from_expressions(3, ["|x|", "0", "0"])
    x = np.array([1.0, 2.0, 2.0])
    assert ll.eval_drift(field, x)[0] == pytest.approx(3.0, rel=1e-15)


def test_expression_norm_flags_smoothness():
    field = ll.field_from_expressions(2, ["-x1 + |x|", "0"])
    assert field.smoothness_note is not None
    smooth = ll.field_from_expressions(2, ["-x1", "0"])
    assert smooth.smoothness_note is None


@pytest.mark.parametrize("drift, rough", [
    ("x1/(1 + |x|^2)", False), ("exp(-|x|^2)*x1", False),
    ("|x|", True), ("abs(x1)", True), ("sin(|x|)", True),
    ("|x|^2 + |x|", True), ("|x|^3", True)])
def test_smoothness_note_only_for_non_smooth_norms(drift, rough):
    # |x|^2 is the smooth sum of squares; any other |x| and every abs(...)
    # is only continuous at the origin
    field = ll.field_from_expressions(1, [drift])
    assert (field.smoothness_note is not None) is rough


@pytest.mark.parametrize("literal", ["True", "False"])
def test_boolean_literals_are_rejected(literal):
    # bool is an int, so the literal check names them explicitly
    with pytest.raises(ll.ExpressionError, match=literal):
        ll.field_from_expressions(1, [f"{literal} + x1"])


def test_expression_diffusion_entries():
    field = ll.field_from_expressions(
        2, ["0", "0"], ["1.2", "0.3", "0.3", "1.0"]
    )
    np.testing.assert_allclose(
        ll.eval_diffusion(field, np.zeros(2)),
        np.array([[1.2, 0.3], [0.3, 1.0]]),
        rtol=1e-15,
    )
    assert field.diffusion_form == "constant"


@pytest.mark.parametrize("dim, diffusion, form", [
    (2, None, "constant"), (2, ["2", "1", "1", "3"], "constant"),
    (1, ["1 + x1^2"], "diagonal"), (2, ["1 + x1^2"], "diagonal"),
    (2, ["1 + x1^2", "2"], "diagonal"),
    (2, ["2 + x1", "0.3", "0.3", "2"], "full"),
    (2, ["2 + x1", "0", "0", "2"], "full")])
def test_expression_field_declares_its_diffusion_form(dim, diffusion, form):
    field = ll.field_from_expressions(dim, ["0"] * dim, diffusion)
    assert field.diffusion_form == form


def test_raw_field_is_full_unless_it_declares_a_form():
    field = ll.field_from_expressions(1, ["0"])
    raw = ll.CoefficientField(1, field.drift, field.diffusion, "raw")
    assert raw.diffusion_form == "full"
    with pytest.raises(ValueError, match="diffusion_form must be constant, "
                                         "diagonal or full, got 'scalar'"):
        ll.CoefficientField(1, field.drift, field.diffusion, "raw",
                            diffusion_form="scalar")


@pytest.mark.parametrize(
    "expr",
    [
        "x0",          # coordinates are x1..xd
        "x3",          # out of range for d=2
        "foo(x1)",     # unknown function
        "x1.real",     # attribute access
        "__import__('os')",
        "x1 +",        # syntax error
        "lambda v: v",
    ],
)
def test_expression_rejects_bad_input(expr):
    with pytest.raises(ll.ExpressionError):
        ll.field_from_expressions(2, [expr, "0"])


def test_expression_diffusion_must_be_symmetric():
    # the full-matrix form is validated when evaluated
    field = ll.field_from_expressions(2, ["0", "0"], ["1", "0.5", "-0.5", "1"])
    with pytest.raises(ll.CoefficientEvaluationError):
        ll.eval_diffusion(field, np.zeros(2))


def test_norm_takes_linalg_norm_bits_and_its_square_the_sum_of_squares():
    # at d = 3 the two sums of squares differ in the last bit on some rows
    x = np.random.default_rng(7).standard_normal((2000, 3))
    field = ll.field_from_expressions(3, ["|x|", "|x|^2", "normx**2"])
    b = field.drift(x)
    assert b[:, 0].tobytes() == np.linalg.norm(x, axis=1).tobytes()
    r2 = np.einsum("ij,ij->i", x, x)
    assert b[:, 1].tobytes() == r2.tobytes()
    assert b[:, 2].tobytes() == r2.tobytes()
    assert (np.linalg.norm(x, axis=1) ** 2 != r2).any()


_NORM_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),  # squares overflow
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-160, 1e155, 1.7e308]))


@st.composite
def _norm_blocks(draw):
    dim = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(_NORM_ENTRIES, min_size=dim, max_size=dim),
                         min_size=1, max_size=8))
    # a zero row, a subnormal one and one whose squares overflow to inf
    rows += [[0.0] * dim, [5e-324] * dim, [1e300] * dim]
    return np.array(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_norm_blocks())
def test_row_norms_equal_linalg_norm_bit_for_bit(x):
    # column sums below d = 8, np.linalg.norm itself from there; tiled so
    # that long blocks are compared too
    x = np.tile(x, (300, 1))
    with np.errstate(over="ignore", under="ignore"):
        assert coefficients.row_norms(x).tobytes() \
            == np.linalg.norm(x, axis=1).tobytes()


# the grammar over numpy: what an expression means, by direct evaluation
FUNCTIONS = {"log": np.log, "exp": np.exp, "sin": np.sin, "cos": np.cos,
             "tanh": np.tanh, "sqrt": np.sqrt, "abs": np.abs}
NUMPY_NAMES = {**FUNCTIONS, "pi": math.pi, "e": math.e}
GRAMMAR = settings(max_examples=200, derandomize=True, deadline=None)
_NUMBERS = ["0", "2", "0.5", "3.25", "1e-3", "7e5"]


def _expressions(dim):
    atoms = st.sampled_from([f"x{k}" for k in range(1, dim + 1)]
                            + ["|x|", "normx", "pi", "e"] + _NUMBERS)
    norms = ("|x|", "normx")

    def compound(sub):
        return (st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                    lambda t: f"({t[0]}) {t[1]} ({t[2]})")
                # |x|^2 is the sum of squares, not linalg.norm squared: see
                # the test above
                | st.tuples(sub, st.sampled_from(["2", "3", "0.5"])).filter(
                    lambda t: t[0] not in norms or t[1] != "2").map(
                    lambda t: f"({t[0]})^{t[1]}")
                | st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub)
                .map(lambda t: f"{t[0]}({t[1]})")
                | sub.map(lambda s: f"-({s})"))

    return st.recursive(atoms, compound, max_leaves=8)


def _direct(text, dim, x):
    tree = ll.compile_expression(text, dim).tree
    env = {f"x{k}": x[:, k - 1] for k in range(1, dim + 1)}
    env["normx"] = np.linalg.norm(x, axis=1)
    code = compile(ast.Expression(tree), "<reference>", "eval")
    value = eval(code, {"__builtins__": {}, **NUMPY_NAMES}, env)
    return np.broadcast_to(np.asarray(value, dtype=float), x.shape[:1])


@st.composite
def _blocks(draw):
    dim = draw(st.integers(1, 3))
    texts = draw(st.lists(_expressions(dim), min_size=1, max_size=3))
    # a last component that repeats every other one, so that the block
    # computes them once, into locals
    return dim, texts + ["(" + ") * (".join(texts) + ")"]


@GRAMMAR
@given(_blocks())
def test_compiled_block_equals_direct_evaluation(block):
    dim, texts = block
    x = _field_points(dim)
    with np.errstate(all="ignore"):
        expected, raised = [], set()
        for text in texts:
            try:
                expected.append(_direct(text, dim, x))
            # Python arithmetic on constants: overflow, division by zero or
            # a complex power
            except (ArithmeticError, TypeError,
                    np.exceptions.ComplexWarning) as exc:
                raised.add(type(exc))
        parts = [ll.compile_expression(t, dim) for t in texts]
        if raised:
            with pytest.raises(tuple(raised)):
                coefficients._block_function(parts, dim)(x)
            return
        values = coefficients._block_function(parts, dim)(x)
    assert values.shape == (len(x), len(texts))
    for j, column in enumerate(expected):
        assert values[:, j].tobytes() == column.tobytes(), texts[j]


_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda n: n not in NUMPY_NAMES and n not in ("x1", "normx"))
_DISALLOWED = [
    lambda s, n: f"({s}).real",          # attribute
    lambda s, n: f"({s})[0]",            # subscript
    lambda s, n: f"lambda v: {s}",       # lambda
    lambda s, n: f"({s}) + '{n}'",       # string literal
    lambda s, n: f"({s}) * {n}",         # unknown name
    lambda s, n: f"{n}({s})",            # unknown function
]


@GRAMMAR
@given(_expressions(1), _NAMES, st.sampled_from(_DISALLOWED))
def test_disallowed_syntax_raises_expression_error_only(text, name, form):
    with pytest.raises(ll.ExpressionError):
        ll.compile_expression(form(text, name), 1)


# ---------------------------------------------------------------------------
# estimate_ellipticity


def test_ellipticity_identity_q(unit_bounds):
    field = ll.make_standard_fields("zero", 3)
    b = ll.estimate_ellipticity(field, radius=5.0, n_samples=100, seed=0)
    assert b.lambda0 == 1.0
    assert b.Lambda0 == 1.0
    assert b.n_samples >= 100


def test_ellipticity_constant_diagonal():
    field = ll.field_from_expressions(2, ["0", "0"], ["1", "0", "0", "4"])
    b = ll.estimate_ellipticity(field, radius=3.0, n_samples=50, seed=1)
    assert b.lambda0 == pytest.approx(1.0, rel=1e-12)
    assert b.Lambda0 == pytest.approx(4.0, rel=1e-12)


def test_ellipticity_var_q(var_q_bounds):
    # analytic extrema of 1 + 0.5*sin^2 are 1.0 and 1.5; the origin is in the
    # deterministic sample lattice, so the lower bound is attained exactly
    assert var_q_bounds.lambda0 == 1.0
    assert var_q_bounds.Lambda0 == pytest.approx(1.5, abs=1e-3)


# var_q_const_b at one random point, seed 0: from d = 9 on the lattice is
# the origin plus 33 points on each axis and on the main diagonal, and at
# radius 2 one of them sets Lambda0 -> (lambda0, Lambda0, n_samples)
LINES_LATTICE_BITS = {
    (9, 2.0): ("0x1.0000000000000p+0", "0x1.7f9fd213afeffp+0", 332),
    (12, 2.0): ("0x1.0000000000000p+0", "0x1.7f9fd213afeffp+0", 431),
    (9, 100.0): ("0x1.0000000000000p+0", "0x1.7f5eb932f9a18p+0", 332),
}


@pytest.mark.parametrize("dim, radius", sorted(LINES_LATTICE_BITS))
def test_ellipticity_line_lattice_matches_recorded_bits(dim, radius):
    field = ll.make_standard_fields("var_q_const_b", dim)
    b = ll.estimate_ellipticity(field, radius, n_samples=1, seed=0)
    assert (b.lambda0.hex(), b.Lambda0.hex(), b.n_samples) \
        == LINES_LATTICE_BITS[dim, radius]


def test_ellipticity_monotone_in_sample_count(var_q_field):
    small = ll.estimate_ellipticity(var_q_field, radius=10.0, n_samples=2000, seed=3)
    big = ll.estimate_ellipticity(var_q_field, radius=10.0, n_samples=20000, seed=3)
    assert big.lambda0 <= small.lambda0
    assert big.Lambda0 >= small.Lambda0


def test_ellipticity_violation_detected():
    # q(x) = (1 - |x|^2/50)*I goes nonpositive inside the radius-10 ball
    field = ll.field_from_expressions(
        2, ["0", "0"], ["1 - (x1^2 + x2^2)/50", "0", "0", "1 - (x1^2 + x2^2)/50"]
    )
    with pytest.raises(ll.EllipticityViolation):
        ll.estimate_ellipticity(field, radius=10.0, n_samples=2000, seed=0)

