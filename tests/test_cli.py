import argparse
import contextlib
import gc
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from erlangen import cli
from erlangen.cli import main
from erlangen.properties import builtin_property
from erlangen.numerics import GeometryError
from erlangen.reports import parse_report_trailer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_invariant_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check-invariance", "--group", "projective",
                           "--property", "cross-ratio", "--trials", "50",
                           "--seed", "7")
        assert code == 0
        assert parse_report_trailer(out)["verdict"] == "invariant"

    def test_violated_exits_one(self, capsys):
        code, out, _ = run(capsys, "check-invariance", "--group", "projective",
                           "--property", "euclidean-distance", "--trials", "50",
                           "--seed", "7")
        assert code == 1
        assert "witness_seed=" in out

    def test_axioms_ok_exits_zero(self, capsys):
        code, out, _ = run(capsys, "axioms", "--group", "moebius",
                           "--trials", "50", "--seed", "3")
        assert code == 0
        assert parse_report_trailer(out)["verdict"] == "axioms-ok"

    def test_contact_exits_zero(self, capsys):
        code, out, _ = run(capsys, "contact-check", "--map", "legendre",
                           "--samples", "20", "--seed", "2")
        assert code == 0

    def test_not_contact_exits_one(self, capsys):
        code, out, _ = run(capsys, "contact-check", "--map", "swap-zp",
                           "--samples", "20", "--seed", "2")
        assert code == 1
        assert parse_report_trailer(out)["verdict"] == "not-contact"

    def test_unknown_verb_exits_two(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "check-invariance", "--group", "projective")
        assert code == 2

    def test_missing_seed_exits_two(self, capsys):
        code, _, err = run(capsys, "check-invariance", "--group", "projective",
                           "--property", "cross-ratio")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["axioms", "--group", "euclidean_isometries"],
        ["check-invariance", "--group", "affine", "--property", "euclidean-distance"],
        ["contact-check", "--map", "legendre"]])
    def test_tolerance_must_be_positive_and_finite(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, "--trials", "20", "--seed", "1", "--tol", tol)
        assert (code, out) == (2, "")
        assert "tolerance must be positive and finite" in err

    def test_bad_config_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grup = principal\n", encoding="utf-8")
        code, _, err = run(capsys, "check-invariance", "--group", "projective",
                           "--property", "cross-ratio", "--config", str(bad))
        assert code == 2
        assert "grup" in err

    @pytest.mark.parametrize("line,message", [
        ("seed = x", "bad.cfg:1: seed must be an integer, got 'x'"),
        ("tolerance = small", "bad.cfg:1: tolerance must be a number, got 'small'")])
    def test_config_number_errors_name_their_source_once(self, capsys, tmp_path, line,
                                                         message):
        bad = tmp_path / "bad.cfg"
        rest = [f"{key} = 1" for key in ("seed", "trials", "tolerance") if key not in line]
        bad.write_text("\n".join([line, *rest, "group = principal", "dimension = 2"]),
                       encoding="utf-8")
        code, out, err = run(capsys, "axioms", "--config", str(bad))
        assert (code, out, err) == (2, "", f"error: {tmp_path / message}\n")

    @pytest.mark.parametrize("seed,code", [(-(1 << 63), 0), ((1 << 64) - 1, 0),
                                           (-(1 << 63) - 1, 2), (1 << 64, 2),
                                           (18446744073709551621, 2)])
    def test_seed_must_fit_in_64_bits(self, capsys, seed, code):
        # 2**64 + 5 would otherwise run as seed 5
        got, out, err = run(capsys, "axioms", "--group", "principal", "--trials", "3",
                            "--seed", str(seed))
        assert got == code
        assert ("64 bits" in err) == (code == 2)
        assert ("RESULT:" in out) == (code == 0)

    @pytest.mark.parametrize("p,q", [("2,0", "0.5,0"), ("0,0", "0.6,0.8"),
                                     ("0.5,0", "-1,0")])
    def test_klein_disk_points_outside_the_disk_exit_two(self, capsys, p, q):
        code, out, err = run(capsys, "distance", "--metric", "klein-disk",
                             f"--p={p}", f"--q={q}")
        assert code == 2 and out == ""
        assert "unit disk" in err

    def test_distance_exit_zero(self, capsys):
        code, out, _ = run(capsys, "distance", "--metric", "klein-disk",
                           "--p", "0,0", "--q", "0.5,0")
        assert code == 0

    def test_transfer_exit_zero(self, capsys):
        code, _, _ = run(capsys, "transfer", "--kind", "stereographic",
                         "--point", "0,1,0")
        assert code == 0

    def test_covariants_exit_zero(self, capsys):
        code, _, _ = run(capsys, "covariants", "--coeffs", "1,0,0,-1")
        assert code == 0

    def test_covariants_bad_degree_exits_two(self, capsys):
        code, _, _ = run(capsys, "covariants", "--coeffs", "1,2")
        assert code == 2

    def test_orbit_exit_zero(self, capsys):
        code, out, _ = run(capsys, "orbit", "--group", "principal",
                           "--point", "0.2,0.4", "--count", "5", "--seed", "11")
        assert code == 0
        assert "image_4" in out


class TestValues:
    def test_klein_disk_distance_value(self, capsys):
        _, out, _ = run(capsys, "distance", "--metric", "klein-disk",
                        "--p", "0,0", "--q", "0.5,0")
        value = parse_report_trailer(out)["value"]
        assert abs(value - math.atanh(0.5)) < 1e-12
        assert "0.5493061443" in out

    def test_stereographic_equator(self, capsys):
        _, out, _ = run(capsys, "transfer", "--kind", "stereographic",
                        "--point", "1,0,0")
        assert parse_report_trailer(out)["value"] == 1.0

    def test_circle_coords_verb(self, capsys):
        code, out, _ = run(capsys, "transfer", "--kind", "circle-coords",
                           "--center", "0,0", "--radius", "1",
                           "--orientation", "1")
        assert code == 0
        fields = parse_report_trailer(out)
        assert fields["u3"] == 1j and fields["u5"] == 1.0

    def test_quartic_covariants_verb(self, capsys):
        code, out, _ = run(capsys, "covariants", "--coeffs", "1,0,1,0,1")
        assert code == 0
        fields = parse_report_trailer(out)
        assert fields["i"] == 13.0 and fields["j"] == 70.0

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\ntrials = 50\ntolerance = 1e-9\n"
                       "group = projective\ndimension = 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "check-invariance", "--group", "projective",
                           "--property", "cross-ratio", "--config", str(cfg))
        assert code == 0
        assert parse_report_trailer(out)["trials"] == 50

    @pytest.mark.parametrize("verb,extra", [
        ("axioms", ["--trials", "10"]),
        ("check-invariance", ["--property", "angle", "--trials", "10"]),
        ("orbit", ["--point", "0.2,0.3", "--count", "3"]),
    ])
    def test_config_supplies_the_group(self, capsys, tmp_path, verb, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\ntrials = 10\ntolerance = 1e-9\n"
                       "group = principal\ndimension = 2\n", encoding="utf-8")
        from_config = run(capsys, verb, "--config", str(cfg), *extra)
        assert from_config == run(capsys, verb, "--config", str(cfg), "--group", "principal",
                                  *extra)
        assert from_config[0] == 0
        # the flag wins over the config file
        flagged = run(capsys, verb, "--config", str(cfg), "--group", "affine", *extra)
        assert flagged[1] != from_config[1]

    @pytest.mark.parametrize("verb,extra", [
        ("axioms", []),
        ("check-invariance", ["--property", "cross-ratio"]),
        ("orbit", ["--point", "0.2,0.3"]),
    ])
    def test_missing_group_exits_two(self, capsys, verb, extra):
        code, out, err = run(capsys, verb, "--seed", "3", *extra)
        assert code == 2 and out == ""
        assert "--group" in err

    def test_collinearity_in_dimension_one_exits_two(self, capsys):
        code, out, err = run(capsys, "check-invariance", "--group", "projective",
                             "--property", "collinearity", "--dimension", "1",
                             "--seed", "1", "--trials", "5")
        assert code == 2 and out == ""
        assert err == ("error: collinearity needs dimension >= 2: all points of P^1 "
                       "lie on its one line\n")

    def test_angle_in_dimension_zero_exits_two(self, capsys):
        code, out, err = run(capsys, "check-invariance", "--group", "projective",
                             "--property", "angle", "--dimension", "0",
                             "--seed", "1", "--trials", "5")
        assert (code, out, err) == (2, "", "error: angle needs dimension >= 1\n")

    def test_ck_distance_in_dimension_three_exits_two(self, capsys):
        code, out, err = run(capsys, "check-invariance", "--group", "projective",
                             "--property", "ck-distance", "--metric", "klein-disk",
                             "--dimension", "3", "--seed", "1", "--trials", "20")
        assert (code, out, err) == (2, "", "error: ck-distance is a plane property\n")

    @pytest.mark.parametrize("source,tol", [("flag", "1e-07"), ("config", "1e-06"),
                                            ("default", "1e-08")])
    def test_axioms_tolerance_comes_from_flag_then_config_then_default(
            self, capsys, tmp_path, source, tol):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\ntrials = 5\ntolerance = 1e-6\n"
                       "group = principal\ndimension = 2\n", encoding="utf-8")
        argv = ["axioms", "--group", "principal", "--seed", "7", "--trials", "5"]
        if source != "default":
            argv += ["--config", str(cfg)]
        if source == "flag":
            argv += ["--tol", "1e-7"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"  tolerance: {tol}\n" in out
        assert parse_report_trailer(out)["tol"] == float(tol)

    def test_ck_distance_requires_metric(self):
        with pytest.raises(GeometryError):
            builtin_property("ck-distance")
        builtin_property("ck-distance", metric="klein-disk")

    def test_builtin_property_registry(self):
        prop = builtin_property("tangency")
        assert prop.boolean
        with pytest.raises(GeometryError):
            builtin_property("perimeter")


@pytest.mark.parametrize("point,message", [
    ("a,b", "--point: expected comma-separated numbers, got 'a,b'"),
    ("0.2", "--point: expected 2 numbers, got 1")])
def test_orbit_point_is_parsed_as_every_coordinate_flag(capsys, point, message):
    code, out, err = run(capsys, "orbit", "--group", "principal", "--point", point,
                         "--seed", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag,argv", [
    ("--p", ["distance", "--metric", "klein-disk", "--p", "-0.1,0.2", "--q", "0.3,0.4"]),
    ("--q", ["distance", "--metric", "klein-disk", "--p", "0.1,0.2", "--q", "-0.3,0.4"]),
    ("--point", ["transfer", "--kind", "stereographic", "--point", "-0.6,0,0.8"]),
    ("--circle", ["orbit", "--group", "moebius", "--circle", "-0.3,0.1,0.8", "--count", "2",
                  "--seed", "9"]),
    ("--z", ["transfer", "--kind", "inverse-stereographic", "--z", "-1.5,0.5"]),
    ("--a", ["transfer", "--kind", "pluecker", "--a", "-1,0,0,1", "--b", "0,1,0,1"]),
    ("--b", ["transfer", "--kind", "pluecker", "--a", "1,0,0,1", "--b", "-.5,1,0,1"]),
    ("--center", ["transfer", "--kind", "circle-coords", "--center", "-1,2",
                  "--radius", "0.5"]),
])
def test_coordinate_flags_take_a_leading_minus(capsys, flag, argv):
    """A coordinate value that starts with a minus sign may follow its flag
    as a separate argument, and means what the joined form means."""
    k = argv.index(flag)
    joined = argv[:k] + [f"{flag}={argv[k + 1]}"] + argv[k + 2:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *joined)


# every other flag that takes a value, after a space, at a value that
# starts with a minus sign but that argparse does not read as a number
# (which it reads only as -D, -D.D or -.D)
_VALUE_FLAGS = [
    ("--config", ["axioms", "--group", "projective", "--seed", "1", "--config", "-1.cfg"], 2),
    ("--seed", ["axioms", "--group", "projective", "--seed", "-1e3"], 2),
    ("--trials", ["axioms", "--group", "projective", "--seed", "1", "--trials", "-1e3"], 2),
    ("--tol", ["axioms", "--group", "projective", "--seed", "1", "--tol", "-1e-9"], 2),
    ("--dimension", ["axioms", "--group", "projective", "--seed", "1", "--dimension", "-2e0"],
     2),
    ("--group", ["axioms", "--group", "-inf", "--seed", "1"], 2),
    ("--property", ["check-invariance", "--group", "projective", "--property", "-inf",
                    "--seed", "1"], 2),
    ("--metric", ["distance", "--metric", "-inf", "--p", "0,0", "--q", "0.5,0"], 2),
    ("--kind", ["transfer", "--kind", "-inf"], 2),
    ("--radius", ["transfer", "--kind", "circle-coords", "--center", "0,0", "--radius", "-1e5"],
     2),
    ("--orientation", ["transfer", "--kind", "circle-coords", "--center", "0,0", "--radius",
                       "1", "--orientation", "-1e0"], 2),
    ("--coeffs", ["covariants", "--coeffs", "-1,2,0,1"], 0),
    ("--map", ["contact-check", "--map", "-inf", "--seed", "1"], 2),
    ("--samples", ["contact-check", "--map", "legendre", "--seed", "1", "--samples", "-1e1"],
     2),
    ("--count", ["orbit", "--group", "projective", "--seed", "1", "--point", "0.1,0.2",
                 "--count", "-1e1"], 2),
]


@pytest.mark.parametrize("flag,argv,code", _VALUE_FLAGS, ids=[row[0] for row in _VALUE_FLAGS])
def test_value_flags_take_a_leading_minus(capsys, flag, argv, code):
    """Any value that starts with a minus sign and a number may follow its
    flag after a space, and means what it means after an equals sign:
    the verb runs, or refuses it in its own words or argparse's."""
    k = argv.index(flag)
    joined = argv[:k] + [f"{flag}={argv[k + 1]}"] + argv[k + 2:]
    result = run(capsys, *argv)
    assert result[0] == code
    assert result == run(capsys, *joined)


def test_every_value_flag_has_a_leading_minus_row():
    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {flag for p in verbs.choices.values() for action in p._actions
                if action.nargs is None for flag in action.option_strings}
    coordinates = {"--p", "--q", "--point", "--circle", "--z", "--a", "--b", "--center"}
    assert declared == coordinates | {row[0] for row in _VALUE_FLAGS}


@pytest.mark.parametrize("argv,message", [
    (["transfer", "--kind", "stereographic"], "stereographic requires --point x,y,z"),
    (["transfer", "--kind", "inverse-stereographic"], "inverse-stereographic requires --z re,im"),
    (["transfer", "--kind", "pluecker"], "pluecker requires --a and --b (4 numbers each)"),
    (["transfer", "--kind", "circle-coords"],
     "circle-coords requires --center re,im and --radius r"),
    (["covariants", "--coeffs", "1,x,0,1"], "--coeffs: cannot parse '1,x,0,1'"),
    (["orbit", "--group", "projective", "--seed", "1"], "orbit requires --point or --circle"),
    (["orbit", "--group", "moebius", "--seed", "1", "--point", "0.1,0.2", "--circle", "0,0,1"],
     "orbit takes --point or --circle, not both"),
    # (x + y)^3 and (x + y)^4 scaled: finite covariants, overflowing invariants
    (["covariants", "--coeffs", "1e80,3e80,3e80,1e80"], "cubic invariant: non-finite entries"),
    (["covariants", "--coeffs", "1e110,4e110,6e110,4e110,1e110"],
     "quartic invariants: non-finite entries"),
], ids=["stereographic", "inverse-stereographic", "pluecker", "circle-coords",
        "covariants-coeffs", "orbit-start", "orbit-point-and-circle",
        "covariants-cubic-invariant", "covariants-quartic-invariants"])
def test_verb_refusals(capsys, argv, message):
    """Each verb's own input refusal is a GeometryError, which main()
    reports on stderr with exit code 2 and no output."""
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        cli._RUNNERS[args.verb](args)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# each verb's numeric flags at a plain value: (verb arguments, flag, value)
_NUMERIC_INPUTS = [
    *((["distance", "--metric", metric, "--q=0.3,-0.1"], "--p", "0.1,0.2")
      for metric in ("klein-disk", "elliptic")),
    *((["distance", "--metric", metric, "--p=0.1,0.2"], "--q", "0.3,-0.1")
      for metric in ("klein-disk", "elliptic")),
    (["transfer", "--kind", "stereographic"], "--point", "0.6,0,0.8"),
    (["transfer", "--kind", "inverse-stereographic"], "--z", "0.3,0.4"),
    (["transfer", "--kind", "pluecker", "--b=0,1,0,1"], "--a", "1,0,0,1"),
    (["transfer", "--kind", "pluecker", "--a=1,0,0,1"], "--b", "0,1,0,1"),
    (["transfer", "--kind", "circle-coords", "--radius=0.5"], "--center", "0.1,0.2"),
    (["transfer", "--kind", "circle-coords", "--center=0.1,0.2"], "--radius", "0.5"),
    (["orbit", "--group", "projective", "--seed", "1", "--count", "3"], "--point", "0.1,0.2"),
    (["orbit", "--group", "moebius", "--seed", "1", "--count", "3"], "--circle", "0.1,0.2,0.5"),
    (["covariants"], "--coeffs", "1,2,0,-1"),
    (["covariants"], "--coeffs", "1,0,3,0,2"),
]
_EXTREMES = ("1e308", "-1e308", "1e200", "1e-320", "nan", "inf", "0", "-0")
# the spellings of a non-finite value that begin with a minus sign, given
# after a space to each coordinate flag whose first number they replace
_SIGNED_SPECIALS = ("-inf", "-Infinity", "-nan", "-NaN")


@pytest.mark.parametrize("argv", [
    *([*verb, f"{flag}={','.join(parts[:k] + [value] + parts[k + 1:])}"]
      for verb, flag, plain in _NUMERIC_INPUTS
      for parts in [plain.split(",")]
      for k in range(len(parts))
      for value in _EXTREMES),
    *([*verb, flag, ",".join([value] + plain.split(",")[1:])]
      for verb, flag, plain in _NUMERIC_INPUTS
      for value in _SIGNED_SPECIALS)], ids=" ".join)
def test_extreme_numbers_get_a_report_or_a_refusal(capsys, argv):
    """Each coordinate of each numeric flag, at an extreme value, gives a
    report, a refusal (exit 2) or a failing verdict with its trailer, and
    no exception escapes main().  Nothing but the verb's own error line
    reaches stderr, and a value given after a space means what it means
    after an equals sign."""
    code, out, err = run(capsys, *argv)
    assert code in (0, 2) or (code == 1 and "RESULT:" in out)
    if code == 2:
        assert re.fullmatch(r"error: [^\n]+\n", err), err
    else:
        assert err == ""
    if not argv[-1].startswith("--"):
        assert (code, out, err) == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")


def test_pluecker_of_a_subnormal_point_is_exact(capsys):
    """The line through (1, 0, 0, 1) and (1e-320, 1, 0, 1): each reported
    coordinate p_ij = a_i b_j - a_j b_i is the exact one, computed in
    rationals, rounded to the nearest double."""
    a, b = (1.0, 0.0, 0.0, 1.0), (1e-320, 1.0, 0.0, 1.0)
    code, out, err = run(capsys, "transfer", "--kind", "pluecker",
                         "--a=" + ",".join(map(repr, a)), "--b=" + ",".join(map(repr, b)))
    assert (code, err) == (0, "")
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    exact = [a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (0, 3),
                                                    (2, 3), (3, 1), (1, 2))]
    assert exact[2] == 1 - Fraction(1e-320)
    trailer = parse_report_trailer(out)
    assert [trailer[f"p{k}"] for k in range(6)] == [float(x) for x in exact] \
        == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def _python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_module_run_writes_nothing_to_stderr():
    """``python -m erlangen.cli`` runs the module once, so no warning about
    it being imported before execution."""
    proc = _python("-m", "erlangen.cli", "distance", "--metric", "elliptic",
                   "--p", "0,0", "--q", "1,0")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("distance")


def test_package_import_leaves_the_cli_unloaded():
    proc = _python("-c", "import sys, erlangen; "
                         "print('erlangen.cli' in sys.modules, hasattr(erlangen, 'main'))")
    assert proc.stdout.split() == ["False", "False"], proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check-invariance", "--group", "projective", "--property",
         "cross-ratio", "--trials", "40", "--seed", "5"),
        ("check-invariance", "--group", "projective", "--property",
         "euclidean-distance", "--trials", "40", "--seed", "5"),
        ("axioms", "--group", "principal", "--trials", "40", "--seed", "5"),
        ("distance", "--metric", "elliptic", "--p", "0,0", "--q", "1,0"),
        ("transfer", "--kind", "pluecker", "--a", "1,0,0,0", "--b", "0,1,0,0"),
        ("covariants", "--coeffs", "1,0,1,0,1"),
        ("contact-check", "--map", "prolonged-quadratic", "--samples", "20",
         "--seed", "3"),
        ("orbit", "--group", "moebius", "--circle", "0.3,0.1,0.8",
         "--count", "4", "--seed", "9"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1.encode() == out2.encode()


# -- what each verb imports ----------------------------------------------------

def test_package_import_runs_no_submodule():
    proc = _python("-c", "import sys, erlangen; "
                         "print(sorted(m for m in sys.modules if m.startswith('erlangen.')))")
    assert proc.stdout.split() == ["[]"], proc.stderr


def test_every_public_name_is_its_module_attribute():
    proc = _python("-c", """
import importlib, erlangen
names = erlangen.__all__
assert len(names) == len(set(names)) == 85, len(names)
assert set(names) <= set(dir(erlangen))
for name in names:
    module = importlib.import_module("erlangen." + erlangen._MODULE_OF[name])
    assert getattr(erlangen, name) is getattr(module, name), name
import erlangen.groups as groups, erlangen.properties as properties
assert erlangen.BUILTIN_GROUP_NAMES is groups.BUILTIN_GROUP_NAMES
assert erlangen.PROPERTY_NAMES is properties.PROPERTY_NAMES
assert not hasattr(erlangen, "main")
print("ok")
""")
    assert proc.stdout == "ok\n", proc.stderr


#: one invocation of each step of the CLI tour that perfbench/ times
TOUR = (
    ("distance", "--metric", "klein-disk", "--p=0.1,0.2", "--q=-0.3,0.4"),
    ("transfer", "--kind", "circle-coords", "--center=0.1,-0.2", "--radius=0.5"),
    ("covariants", "--coeffs=1,0,0,-1"),
    ("contact-check", "--map", "legendre", "--samples=20", "--seed=3"),
    ("orbit", "--group", "projective", "--point=0.1,0.2", "--count=8", "--seed=1"),
    ("orbit", "--group", "moebius", "--circle=0.1,0.2,0.8", "--count=8", "--seed=1"),
    ("check-invariance", "--group", "projective", "--property", "cross-ratio",
     "--trials=100", "--seed=1"),
    ("check-invariance", "--group", "moebius", "--property", "tangency",
     "--trials=100", "--seed=1"),
    ("check-invariance", "--group", "affine", "--property", "euclidean-distance",
     "--trials=100", "--seed=1"),
    ("axioms", "--group", "principal", "--trials=50", "--seed=1"),
    ("axioms", "--group", "lie_sphere_extended", "--trials=50", "--seed=1"),
    ("axioms", "--group", "inversive_pentaspherical", "--trials=50", "--seed=1"),
)


def _loaded_after(argv):
    """(exit code, whether scipy.linalg is loaded, whether numpy.random is
    loaded, the erlangen modules that ran) after cli.main(argv) in a fresh
    interpreter; a module the CLI entered in sys.modules but never read
    from has not run."""
    proc = _python("-c", f"""
import contextlib, io, sys, types
import erlangen.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({list(argv)!r})
ran = sorted(n for n, m in sys.modules.items()
             if n.startswith("erlangen") and type(m) is types.ModuleType)
print(code, "scipy.linalg" in sys.modules, "numpy.random" in sys.modules, *ran)
""")
    assert proc.returncode == 0, proc.stderr
    code, scipy_linalg, numpy_random, *ran = proc.stdout.split()
    return int(code), scipy_linalg == "True", numpy_random == "True", ran


@pytest.mark.parametrize("argv", TOUR, ids=lambda argv: "-".join(argv[:3]))
def test_no_tour_step_loads_scipy_linalg(argv):
    code, scipy_linalg, numpy_random, ran = _loaded_after(argv)
    assert code in (0, 1)
    assert not scipy_linalg
    assert "erlangen.cli" in ran
    if argv[0] in ("distance", "transfer", "covariants"):
        assert not numpy_random
        assert "erlangen.groups" not in ran
        assert "erlangen.properties" not in ran


def test_contact_check_runs_no_group_module():
    """The report writer holds the verdict records, so serializing a
    ContactVerdict runs none of the group and transfer modules."""
    code, _, _, ran = _loaded_after(["contact-check", "--map", "legendre", "--samples=20",
                                     "--seed=3"])
    assert code == 0
    for module in ("groups", "projective", "moebius", "transfers", "properties"):
        assert f"erlangen.{module}" not in ran


# -- start-up and shutdown -----------------------------------------------------

def test_value_verbs_import_no_dataclasses():
    """distance, transfer and covariants build no record class that a
    dataclass decorator would generate code for, so none imports it."""
    argvs = [argv for argv in TOUR if argv[0] in ("distance", "transfer", "covariants")]
    argvs += [("transfer", "--kind", "pluecker", "--a=1,0,2,1", "--b=0,1,-1,3"),
              ("transfer", "--kind", "stereographic", "--point=0.6,0,0.8"),
              ("transfer", "--kind", "inverse-stereographic", "--z=0.5,1"),
              ("covariants", "--coeffs=1,0,1,0,1")]
    proc = _python("-c", f"""
import contextlib, io, sys
import erlangen.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(list(argv)) for argv in {argvs!r}]
print(*codes, "dataclasses" in sys.modules)
""")
    assert proc.stdout.split() == ["0"] * len(argvs) + ["False"], proc.stderr


#: (argv, the flag that sets how much work the verb does)
_WORK = [
    (("check-invariance", "--group", "projective", "--property", "cross-ratio", "--seed=1"),
     "--trials"),
    (("check-invariance", "--group", "projective", "--property", "ck-distance",
      "--metric", "klein-disk", "--seed=1"), "--trials"),
    (("check-invariance", "--group", "affine", "--property", "euclidean-distance",
      "--seed=1"), "--trials"),
    (("check-invariance", "--group", "moebius", "--property", "cross-ratio", "--seed=1"),
     "--trials"),
    (("axioms", "--group", "principal", "--seed=1"), "--trials"),
    (("orbit", "--group", "moebius", "--circle=0.1,0.2,0.8", "--seed=1"), "--count"),
    (("contact-check", "--map", "legendre", "--seed=3"), "--samples"),
]


def _cyclic_garbage_after(argv):
    """(exit code, objects the next collection frees) of cli.main(argv)
    run with the collector off, as entrypoint runs it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv, flag", _WORK, ids=["-".join(argv[:5]) for argv, _ in _WORK])
def test_a_verb_leaves_cyclic_garbage_that_does_not_grow_with_its_work(argv, flag):
    """entrypoint runs a verb with the collector off; what the verb leaves
    for the collector is the same at 20 and at 400 units of work.  A first
    run may load modules, so it is not counted."""
    _cyclic_garbage_after(argv + (f"{flag}=20",))
    small = _cyclic_garbage_after(argv + (f"{flag}=20",))
    large = _cyclic_garbage_after(argv + (f"{flag}=400",))
    assert small[0] == large[0] in (0, 1, 2)
    assert small[1] == large[1]


def test_entrypoint_turns_the_collector_off_before_main():
    """entrypoint, which the console script and `python -m erlangen.cli`
    both call, switches the collector off before main() runs, and before
    anything has loaded numpy, and leaves it off."""
    proc = _python("-c", """
import gc, sys
import erlangen.cli as cli
seen = []
cli.main = lambda argv: seen.append((gc.isenabled(), "numpy" in sys.modules)) or 0
try:
    cli.entrypoint()
except SystemExit as exc:
    print(exc.code, *seen[0], gc.isenabled())
""")
    assert proc.stdout.split() == ["0", "False", "False", "False"], proc.stderr
