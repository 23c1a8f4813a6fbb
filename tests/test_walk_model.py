"""Law construction: mass/mean bookkeeping, tails, CF dictionary, round trips."""
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stablewalk import Family, TailSpec, WalkLaw, build_walk_law, stable_params_of
from stablewalk.errors import AlphaOutOfRange, ConfigError
from stablewalk.potential_theory import has_bounded_potential
from stablewalk.special import gamma_fn, gk_panels, panel_breaks
from stablewalk.walk_model import CALIBRATED_BEYOND, _validate, parse_law_config, validate_tails
from conftest import get_law, _LAW_DEFS


@pytest.mark.parametrize("name", sorted(_LAW_DEFS))
def test_mass_conservation(name):
    """Window mass plus escaped mass is 1, also for windows inside the calibration blocks."""
    law = get_law(name)
    for W in (10, 63, 64, 2500):
        total = law.pmf_window(W).sum()
        ep, em = law.escaped_split(W)
        assert abs(total + ep + em - 1.0) < 1e-12, W


@pytest.mark.parametrize("name", sorted(_LAW_DEFS))
def test_zero_mean_by_direct_summation(name):
    """Window sum plus analytic tail moments reproduces mean 0."""
    law = get_law(name)
    W = 4000
    xs = np.arange(-W, W + 1)
    head = float((law.pmf_window(W) * xs).sum())
    # tail moment sum_{y > W} y w(y) = (W+1) P[X >= W+1] + sum_{y >= W+2} P[X >= y]
    from special_oracles import zeta_tail

    tail_p = law.sp * ((W + 1.0) * (W + 1.0) ** -law.rp + zeta_tail(law.rp, W + 2))
    tail_m = law.sm * ((W + 1.0) * (W + 1.0) ** -law.rm + zeta_tail(law.rm, W + 2))
    assert abs(head + tail_p - tail_m) < 1e-10
    assert abs(law.mean()) < 1e-10


@pytest.mark.parametrize("name", sorted(_LAW_DEFS))
def test_pmf_nonnegative_and_origin_positive(name):
    law = get_law(name)
    win = law.pmf_window(300)
    assert win.min() >= 0.0
    assert law.p0 > 0.0


def test_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        TailSpec(alpha=1.0, family=Family.TWO_SIDED_PARETO)
    with pytest.raises(AlphaOutOfRange):
        TailSpec(alpha=2.1, family=Family.TWO_SIDED_PARETO)


def test_char_fn_basics():
    """phi(0) = 1, |phi| < 1 off the origin, and 1 - phi(-theta) is conj(1 - phi(theta)) exactly.

    The conjugate holds bit for bit within one mixed-sign array and between
    calls, on every canonical law and its reversal.
    """
    th = np.array([1e-9, 0.3, 1.1, 2.9, math.pi])
    mixed = np.array([0.3, -1e-9, 0.0, -2.9, 1.1, -math.pi, 2.9, -0.3, 1e-9, math.pi, -1.1, 0.0])
    for law in (lw for name in sorted(_LAW_DEFS) for lw in (get_law(name), get_law(name).reversed())):
        assert np.array_equal(law.one_minus_char(0.0), [0.0])
        assert np.array_equal(law.one_minus_char(np.zeros(3)), np.zeros(3))
        omc = law.one_minus_char(th)
        assert np.array_equal(law.one_minus_char(-th), np.conj(omc))
        got = law.one_minus_char(mixed)
        assert np.array_equal(got[mixed == 0.0], [0.0, 0.0])
        for t, value in zip(th, omc):
            assert got[mixed == t] == value and got[mixed == -t] == np.conj(value)
        assert np.all(np.abs(1.0 - omc[1:]) < 1.0)


@pytest.mark.parametrize("name", ["sym15", "sp15", "asym15", "lc15"])
def test_char_fn_stable_principal_part(name):
    """(1 - phi)/|theta|^alpha approaches c e^{i pi gamma/2}, error shrinking."""
    law = get_law(name)
    p = stable_params_of(law)
    target = p.c_circ * np.exp(1j * math.pi * p.gamma / 2.0)
    errs = []
    for th in (1e-2, 1e-3, 1e-4):
        val = law.one_minus_char(np.array([th]))[0] / th ** p.alpha
        errs.append(abs(val - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3 * abs(target)


def test_char_fn_brute_force_window(sym15):
    """Polylog route equals direct summation over a wide window plus tail bound."""
    Y = 300_000
    xs = np.arange(1, Y + 1, dtype=np.int64)
    w = sym15.pmf(xs)
    for th in (1e-3, 0.37, 2.1):
        brute = (w * (1.0 - np.exp(1j * th * xs))).sum()
        brute += (sym15.pmf(-xs) * (1.0 - np.exp(-1j * th * xs))).sum()
        got = sym15.one_minus_char(np.array([th]))[0]
        assert abs(got - brute) < 4.0 * sym15.sp * (Y + 1.0) ** -sym15.rp


def test_one_minus_char_is_the_pmf_transform():
    """1 - phi(theta) equals 1 - sum_{|x| <= W} p(x) e^{i theta x} up to the mass past W, on every family.

    The part past W on each side is at most P[+-X > W] and, since p decreases
    there, at most 2 p(+-(W + 1)) / |1 - e^{i theta}| by Abel summation; as
    theta -> 0 the deviation tends to the escaped mass itself, hence the 1% slack.
    """
    W = 2 ** 13
    laws = [lw for name in ("sym15", "asym15", "sp15", "bp15", "lc15", "sym12", "sp18")
            for lw in (get_law(name), get_law(name).reversed())]
    nodes = gk_panels(panel_breaks(math.pi, 5, 16, math.pi))[0]
    theta = np.concatenate([nodes, -nodes[::4]])
    xs = np.arange(-W, W + 1)
    pmfs = np.stack([lw.pmf_window(W) for lw in laws], axis=1)
    windowed = 1.0 - np.concatenate([np.exp(1j * np.outer(th, xs)) @ pmfs for th in np.array_split(theta, 16)])
    edge = np.abs(1.0 - np.exp(1j * theta))
    for k, lw in enumerate(laws):
        p_plus, p_minus = lw.pmf(np.array([W + 1, -W - 1]))
        bound = (np.minimum(lw.cumulative_plus(W + 1), 2.0 * p_plus / edge)
                 + np.minimum(lw.cumulative_minus(W + 1), 2.0 * p_minus / edge))
        assert np.all(np.abs(lw.one_minus_char(theta) - windowed[:, k]) <= 1.01 * bound), (k, lw.spec)


def test_stable_params_symmetric(sym15):
    p = stable_params_of(sym15)
    assert p.gamma == 0.0
    assert p.c_circ == pytest.approx(
        sym15.spec.B * gamma_fn(1.0 - 1.5) * math.cos(0.75 * math.pi), rel=1e-14
    )
    assert p.rho == pytest.approx(0.5)


def test_stable_params_spectrally_positive(sp15):
    p = stable_params_of(sp15)
    assert p.gamma == pytest.approx(2.0 - 1.5, abs=1e-15)
    assert p.c_circ == pytest.approx(-sp15.spec.B * gamma_fn(-0.5), rel=1e-14)
    assert p.rho == pytest.approx(1.0 - 1.0 / 1.5, rel=1e-12)


def test_stable_params_skewness_dictionary(asym15):
    """gamma follows q_plus - q_minus on asym15 and on its mirror spec.

    The mirror's heavier left tail is closed to mean zero through the +1
    repair atom u_plus, the builder branch no canonical law takes.
    """
    mirror = build_walk_law(TailSpec(alpha=1.5, family=Family.TWO_SIDED_PARETO, B=0.4, q_plus=0.3, q_minus=0.7))
    assert mirror.u_plus > 0.0 == mirror.u_minus
    assert abs(mirror.mean()) <= 1e-10
    _validate(mirror)
    for law in (asym15, mirror):
        p = stable_params_of(law)
        lhs = math.tan(p.gamma * math.pi / 2.0)
        rhs = (law.spec.q_plus - law.spec.q_minus) * (-math.tan(1.5 * math.pi / 2.0))
        assert abs(lhs - rhs) < 1e-10
        assert math.copysign(1.0, p.gamma) == math.copysign(
            1.0, law.spec.q_plus - law.spec.q_minus
        )
        assert abs(p.gamma) < 2.0 - 1.5


def test_validate_tails_exact_beyond_window(sym15):
    rep = validate_tails(sym15)
    # analytic-tail identity: zero up to one ulp of y^alpha * y^-alpha
    beyond = [r[4] for r in rep.rows if r[0] > CALIBRATED_BEYOND and r[1] == "plus"]
    assert beyond and max(beyond) < 1e-15
    inner = [r for r in rep.rows if r[0] <= 64 and r[1] == "plus"]
    assert all(r[4] >= 0 for r in inner)
    csv = rep.to_csv()
    assert csv.startswith("schema_version,x,side,scaled_tail,target,deviation")


def test_validate_tails_one_sided(sp15):
    rep = validate_tails(sp15)
    minus = [r for r in rep.rows if r[1] == "minus" and r[0] > 64]
    # light tail: x^alpha P[X <= -x] must fall to zero along the grid
    vals = [r[2] for r in minus]
    assert vals[0] > vals[-1]
    assert vals[-1] < 1e-3


@pytest.mark.parametrize("name", sorted(_LAW_DEFS))
def test_json_round_trip_exact(name):
    law = get_law(name)
    clone = WalkLaw.from_json(law.to_json())
    assert clone == law
    assert clone.to_json() == law.to_json()
    assert clone.law_hash() == law.law_hash()


def test_benchmark_law_hashes_pinned():
    """sym15, sp15 and bp15 keep their law hashes.

    The benchmark builds these three laws from their specs and checks every
    output against references recorded for exactly these laws, so any change
    to how they are built moves every benchmark number.
    """
    hashes = {name: get_law(name).law_hash() for name in ("sym15", "sp15", "bp15")}
    assert hashes == {"sym15": "a6c318b0b4050aa0", "sp15": "683b25bbacb8e61d", "bp15": "307caad2da8a9615"}


# the law hashes of the other conftest laws, recorded with gamma and zeta from
# scipy.special; sym12 and spx15 refine a C0 sign change with brentq, lc15 is
# left-continuous
_OTHER_LAW_HASHES = {
    "asym15": "e2fc0dd51d90af88",
    "lc15": "708610c99c939f0b",
    "sp12": "9f20f5e553ee70e1",
    "sp18": "1f02349068e1f954",
    "spx15": "49154a9ae0601fc6",
    "sym12": "457f58dd07eda5e3",
    "sym18": "527af2673e5e0350",
}


@pytest.mark.parametrize("name", sorted(_OTHER_LAW_HASHES))
def test_other_law_hashes_pinned(name):
    """Every conftest law besides the three benchmark laws keeps its law hash."""
    assert get_law(name).law_hash() == _OTHER_LAW_HASHES[name]


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15", "lc15"])
def test_lattice_offset_from_the_build_table_is_the_pointwise_integral(name):
    """C0 read through one shared node table equals, bit for bit, the pointwise integral.

    One table serves grid laws with different l1 and short-range atoms in
    turn, as in a build, so a table entry kept for one atom set or exponent
    is reused by the next law.
    """
    from stablewalk.special import gk_panels
    from stablewalk.walk_model import _OFFSET_BREAKS, _Nodes, _feasible, _lattice_offset, _solve_d2
    from walk_model_oracles import lattice_offset_pointwise

    fam, alpha, B, extra = _LAW_DEFS[name]
    spec = TailSpec(alpha=alpha, family=Family(fam), B=B, **extra)
    us = [0.0] if spec.family is Family.LEFT_CONTINUOUS else [0.0, 0.3]
    laws = [_solve_d2(spec, l1, u) for u in us for l1 in (-0.3, 0.3, 1.2)]
    laws = [lw for lw in laws if _feasible(lw)]
    assert len(laws) >= 2
    nodes = _Nodes(gk_panels(_OFFSET_BREAKS)[0])
    for law in laws + laws[:1]:
        assert _lattice_offset(law, nodes) == lattice_offset_pointwise(law)


def test_import_and_build_leave_scipy_optimize_unloaded():
    """Importing the package and building sym15, sp15 and bp15 loads no scipy module beyond scipy.fft's.

    Their calibration grids show no C0 sign change, and brentq is imported
    only where a sign change is refined, so scipy.optimize stays unloaded;
    scipy.special, the source of gamma and zeta, comes in with scipy.fft.
    """
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    code = (
        "import sys\n"
        "import stablewalk, stablewalk.cli, stablewalk.montecarlo\n"
        "from stablewalk import Family, TailSpec, build_walk_law\n"
        "build_walk_law(TailSpec(alpha=1.5, family=Family.TWO_SIDED_PARETO, B=0.5))\n"
        "build_walk_law(TailSpec(alpha=1.5, family=Family.SPECTRALLY_POSITIVE, B=0.2))\n"
        "build_walk_law(TailSpec(alpha=1.5, family=Family.BOUNDED_POTENTIAL, B=0.25))\n"
        + scipy_modules
    )
    src = str(Path(__file__).resolve().parents[1] / "src")

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        return set(ast.literal_eval(out.stdout))

    built = loaded(code)
    assert "scipy.optimize" not in built
    assert built == loaded("import sys\nimport scipy.fft\n" + scipy_modules)


def test_reversed_law_swaps_sides(asym15):
    rev = asym15.reversed()
    xs = np.arange(-50, 51)
    assert np.abs(rev.pmf(xs) - asym15.pmf(-xs)).max() == 0.0


def test_reversed_law_flips_skew_and_boundedness(sp15, bp15, asym15):
    """Skew and boundedness come from the law's own sides, also after reversed()."""
    for law in (sp15, bp15, asym15):
        p, r = stable_params_of(law), stable_params_of(law.reversed())
        assert r.gamma == pytest.approx(-p.gamma, abs=1e-15)
        assert r.skew_sign == -p.skew_sign
        assert r.c_circ == pytest.approx(p.c_circ, rel=1e-14)
        assert r.rho == pytest.approx(1.0 - p.rho, abs=1e-15)
        assert not has_bounded_potential(law.reversed())
    assert stable_params_of(sp15.reversed()).gamma == pytest.approx(-0.5, abs=1e-15)
    assert (stable_params_of(sp15).skew_sign, stable_params_of(asym15).skew_sign) == (1, 0)
    assert has_bounded_potential(bp15)


def test_left_continuous_support(lc15):
    xs = np.arange(-10, 0)
    pm = lc15.pmf(xs)
    assert pm[-1] > 0.0  # p(-1)
    assert np.all(pm[:-1] == 0.0)  # nothing at or below -2


def test_config_parsing_round_trip(tmp_path):
    text = "family = spectrally_positive\nalpha = 1.5\nB = 0.2\n# comment\n"
    spec = parse_law_config(text)
    assert spec.family is Family.SPECTRALLY_POSITIVE
    assert spec.beta_neg == pytest.approx(2.5)
    with pytest.raises(ConfigError):
        parse_law_config("nonsense")
    with pytest.raises(ConfigError):
        parse_law_config("family = two_sided_pareto\nalpha = 1.5\nbogus_key = 3\n")


@pytest.mark.parametrize("word,value", [("1", True), ("True", True), ("YES", True), ("0", False), ("false", False), ("No", False)])
def test_config_calibrate_switch(word, value):
    assert parse_law_config(f"family = two_sided_pareto\nalpha = 1.5\ncalibrate = {word}\n").calibrate is value


@pytest.mark.parametrize("word", ["maybe", "ture", "2", ""])
def test_config_calibrate_rejects_other_words(word):
    with pytest.raises(ConfigError, match="calibrate"):
        parse_law_config(f"family = two_sided_pareto\nalpha = 1.5\ncalibrate = {word}\n")


def test_two_sided_requires_q_balance():
    with pytest.raises(ConfigError):
        TailSpec(alpha=1.5, family=Family.TWO_SIDED_PARETO, q_plus=0.7, q_minus=0.7)


@pytest.mark.parametrize("fam", ["spectrally_positive", "bounded_potential", "left_continuous"])
def test_one_sided_rejects_explicit_other_q(fam):
    """A one-sided family takes q_plus = 1 and q_minus = 0, given or left out; any other value is an error."""
    for q in ({"q_minus": 0.3}, {"q_plus": 0.5}, {"q_plus": 0.7, "q_minus": 0.3}):
        with pytest.raises(ConfigError, match="forces q_plus = 1 and q_minus = 0"):
            TailSpec(alpha=1.5, family=Family(fam), **q)
    given = TailSpec(alpha=1.5, family=Family(fam), q_plus=1.0, q_minus=0.0)
    assert given == TailSpec(alpha=1.5, family=Family(fam))
    assert (given.q_plus, given.q_minus) == (1.0, 0.0)


def test_beta_neg_constraint():
    with pytest.raises(ConfigError):
        TailSpec(alpha=1.5, family=Family.BOUNDED_POTENTIAL, beta_neg=1.9)


@pytest.mark.parametrize("given, message", [
    pytest.param({"B": 0.0}, "B must be positive", id="B_zero"),
    pytest.param({"B": -0.5}, "B must be positive", id="B_negative"),
    pytest.param({"q_plus": 0.0, "q_minus": 1.0}, "q_plus, q_minus > 0", id="q_plus_zero"),
    pytest.param({"q_plus": 1.25, "q_minus": -0.25}, "q_plus, q_minus > 0", id="q_minus_negative"),
    pytest.param({"family": "bounded_potential", "alpha": 1.2, "beta_neg": 2.0}, "zeta pole", id="beta_neg_two"),
    pytest.param({"beta_neg": 2.5}, "beta_neg only applies", id="beta_neg_two_sided"),
    pytest.param({"family": "spectrally_positive", "support_radius": 100}, "support_radius too small",
                 id="support_radius_small"),
    pytest.param({"B": math.nan}, "B=nan is not finite", id="B_nan"),
    pytest.param({"B": math.inf}, "B=inf is not finite", id="B_inf"),
    pytest.param({"q_plus": math.nan}, "q_plus=nan is not finite", id="q_plus_nan"),
    pytest.param({"q_minus": math.inf}, "q_minus=inf is not finite", id="q_minus_inf"),
    pytest.param({"family": "spectrally_positive", "beta_neg": math.nan}, "beta_neg=nan is not finite",
                 id="beta_neg_nan"),
    pytest.param({"family": "bounded_potential", "beta_neg": -math.inf}, "beta_neg=-inf is not finite",
                 id="beta_neg_minus_inf"),
])
def test_tail_spec_rejects_a_bad_field(given, message):
    """Each field TailSpec checks fails with a ConfigError naming it; a non-finite float fails before any build."""
    with pytest.raises(ConfigError, match=message):
        TailSpec(**{"alpha": 1.5, "family": "two_sided_pareto", **given})


@pytest.mark.parametrize("text, message", [
    pytest.param("alpha = 1.5\n", "must set at least 'family' and 'alpha'", id="no_family"),
    pytest.param("family = two_sided_pareto\n", "must set at least 'family' and 'alpha'", id="no_alpha"),
    pytest.param("family = two_sided_pareto\nalpha = one\n", "^bad value for alpha: 'one'$", id="bad_alpha"),
    pytest.param("family = gaussian\nalpha = 1.5\n", "^bad value for family: 'gaussian'$", id="bad_family"),
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nsupport_radius = 1e6\n",
                 "^bad value for support_radius: '1e6'$", id="bad_int"),
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nalpha = 1.7\n",
                 "^line 3: key 'alpha' already set on line 2$", id="alpha_twice"),
    pytest.param("# law\nB = 0.4\nfamily = two_sided_pareto\n\nalpha = 1.5\nB = 0.4  # again\n",
                 "^line 6: key 'B' already set on line 2$", id="B_twice_same_value"),
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nB = nan\n", "^B=nan is not finite$", id="B_nan"),
])
def test_config_errors_name_the_key(text, message):
    """A missing key, a value its field cannot take, and a key set twice are ConfigErrors that name the key."""
    with pytest.raises(ConfigError, match=message):
        parse_law_config(text)


@pytest.mark.parametrize("name", ["sym15", "sp15", "lc15", "bp15"])
def test_uncalibrated_build_keeps_the_bare_blocks(name):
    """calibrate = no skips the C0 scan: the blocks keep factor 1, no c0 is recorded, and the law validates."""
    fam, alpha, B, _ = _LAW_DEFS[name]
    spec = parse_law_config(f"family = {fam}\nalpha = {alpha}\nB = {B}\ncalibrate = no\n")
    law = build_walk_law(spec)
    assert law.spec == spec and not spec.calibrate
    assert (law.l1, law.l2) == (0.0, 0.0) and math.isnan(law.c0)
    assert abs(law.mean()) <= 1e-10 and law.p0 > 0.0 and law.pmf_window(300).min() >= 0.0


def test_law_json_rejects_an_unknown_schema(sym15):
    payload = json.loads(sym15.to_json())
    payload["schema_version"] = 2
    with pytest.raises(ConfigError, match="unknown law schema version"):
        WalkLaw.from_json(json.dumps(payload))


def test_builder_determinism(sp15):
    law2 = build_walk_law(sp15.spec)
    assert law2.law_hash() == sp15.law_hash()


def test_strong_aperiodicity_dp(sym15, lc15):
    """p^n(x) > 0 for all |x| <= 10 once n is moderately large."""
    import numpy as np

    from stablewalk.killed_walk import run_kernel

    for law in (sym15, lc15):
        tab = run_kernel(law, None, [0], 24, window=512, keep=[24])
        sl = tab.values[24][0]
        xs = np.arange(-10, 11)
        assert np.all(sl[xs + 512] > 0)
