import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ArrayLayout,
    SceneSegment,
    compute_sbp,
    resolution_sweep,
    theta_heu,
    theta_max,
)
from aperture_dof import cli
from aperture_dof.cli import ConfigError, ExperimentConfig, _csv, main

from conftest import cli_usage, fresh_python

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SHIPPED_CONFIGS = sorted([*CONFIGS.glob("*.cfg"), *(ROOT / "perfbench" / "configs").glob("*.cfg")])

# Every accepted key once: (section, key, value text, attribute, parsed value),
# each value valid and different from the attribute's default
CONFIG_KEYS = [
    ("geometry", "lambda", "0.004", "wavelength", 0.004),
    ("geometry", "L1", "0.12", "L1", 0.12),
    ("geometry", "L2", "0.08", "L2", 0.08),
    ("geometry", "D", "0.25", "D", 0.25),
    ("geometry", "theta", "0.5rad", "theta", 0.5),
    ("geometry", "t", "0.02", "t", 0.02),
    ("array", "architecture", "multi", "architecture", "multi"),
    ("array", "n_elements", "50", "n_elements", 50),
    ("discretization", "n_scene", "64", "n_scene", 64),
    ("discretization", "kspace_samples", "32", "kspace_samples", 32),
    ("run", "out_dir", "results/x", "out_dir", "results/x"),
    ("run", "seed", "7", "seed", 7),
    ("run", "svg", "off", "svg", False),
    ("run", "analyses", "kspace, svd", "analyses", ("kspace", "svd")),
    ("sweep", "param", "D", "sweep_param", "D"),
    ("sweep", "values", "0.01, 0.02", "sweep_values", (0.01, 0.02)),
    ("sweep", "include_fresnel", "yes", "sweep_include_fresnel", True),
    ("sweep", "include_theta", "on", "sweep_include_theta", True),
    ("resolution", "n_targets", "5", "res_n_targets", 5),
    ("resolution", "oversample", "2", "res_oversample", 2),
    ("resolution", "methods", "mf", "res_methods", ("mf",)),
    ("kspace", "point_u", "0.02", "kspace_point_u", 0.02),
]

NOMINAL = """
[geometry]
lambda = 5mm
L1 = 15cm
L2 = 10cm
D = 20cm

[array]
architecture = both
n_elements = 24

[discretization]
n_scene = 48
kspace_samples = 64

[run]
out_dir = {out}
svg = true
"""


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body.format(out=tmp_path / "results"))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_defaults_without_config_sections(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.wavelength == 0.005
    assert (cfg.L1, cfg.L2, cfg.D) == (0.15, 0.10, 0.20)
    assert cfg.architecture == "both"
    assert cfg.n_elements == 200 and cfg.n_scene == 400


def test_unit_parsing(tmp_path):
    path = tmp_path / "units.cfg"
    path.write_text(
        "[geometry]\nlambda = 5mm\nL1 = 0.15\nL2 = 100mm\nD = 20cm\n"
        "theta = 35deg\nt = 15cm\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.wavelength == pytest.approx(0.005)
    assert cfg.L1 == pytest.approx(0.15)
    assert cfg.L2 == pytest.approx(0.10)
    assert cfg.theta == pytest.approx(math.radians(35.0))
    assert cfg.t == pytest.approx(0.15)


def test_radian_angles(tmp_path):
    path = tmp_path / "more.cfg"
    path.write_text("[geometry]\ntheta = 0.5rad\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.theta == 0.5


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    # outputs land under the ignored results/ tree
    assert ExperimentConfig.from_file(path).out_dir.startswith("results/")


def test_accepted_keys_are_the_listed_ones():
    # a dropped or renamed key fails here, not only in the configs that use it
    listed = [(section, key) for section, key, *_ in CONFIG_KEYS]
    assert len(set(listed)) == len(listed) == 22
    assert {(section, key) for section, key, _, _ in cli._KEYS} == set(listed)


@pytest.mark.parametrize("section,key,text,attr,expected", CONFIG_KEYS,
                         ids=[f"{section}.{key}" for section, key, *_ in CONFIG_KEYS])
def test_each_key_sets_its_attribute(tmp_path, section, key, text, attr, expected):
    want = {attr: expected}
    body = f"[{section}]\n{key} = {text}\n"
    if key == "values":  # parsed as lengths or angles by the [sweep] param
        body += "param = t\n"
        want["sweep_param"] = "t"
    path = tmp_path / "one.cfg"
    path.write_text(body)
    defaults = ExperimentConfig(source=str(path))
    assert getattr(defaults, attr) != expected
    assert ExperimentConfig.from_file(path) == defaults._replace(**want)


def test_readme_config_example_names_every_key():
    block = re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    # the text under each [section] header, comments included
    sections = dict(re.findall(r"^\[(\w+)\][^\n]*\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    missing = [f"[{section}] {key}" for section, key, _, _ in cli._KEYS
               if not re.search(rf"(?<!\w){re.escape(key)} =", sections.get(section, ""))]
    assert not missing


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[geometry]\nL3 = 1cm\n", "L3"),
        ("[geom]\nL1 = 1cm\n", "geom"),
        ("[geometry]\nL2 = 0\n", "L2"),
        ("[geometry]\nL1 = 1parsec\n", "unit"),
        ("[geometry]\ntheta = 95deg\n", "theta"),
        ("[array]\narchitecture = simo\n", "architecture"),
        ("[array]\nn_elements = 10\nspacing = 1cm\n", re.escape("[array] spacing: unknown key")),
        ("[run]\nanalyses = svd, psf\n", "psf"),
        ("[run]\nsvg = maybe\n", "svg"),
        ("[sweep]\nvalues = 1cm\n", "param"),
        ("[kspace]\npoint_u = 9cm\n", "point_u"),
        ("[resolution]\nmethods = pinv, cs\n", "cs"),
        ("[geometry]\nlambda = 0\n", re.escape("[geometry] lambda: must be positive")),
        # positive, but its wavenumber 2*pi/lambda overflows to inf
        ("[geometry]\nlambda = 1e-310\n",
         re.escape("[geometry] lambda: too small, the wavenumber 2*pi/lambda overflows")),
        # finite wavenumber, but k*D = 3e307 rad: exp(-jkR) keeps no phase
        ("[geometry]\nlambda = 4e-308\n",
         re.escape("[geometry] lambda: too small for the standoff, 2*pi*D/lambda exceeds 1e12")),
        ("[geometry]\nL1 = -1cm\n", re.escape("[geometry] L1: must be positive")),
        ("[geometry]\nD = 0mm\n", re.escape("[geometry] D: must be positive")),
        ("[geometry]\nL1 = wide\n",
         re.escape("[geometry] L1: cannot parse length 'wide'")),
        ("[geometry]\ntheta = 1.2.3deg\n",
         re.escape("[geometry] theta: cannot parse angle '1.2.3deg'")),
        ("[geometry]\ntheta = 5grad\n",
         re.escape("[geometry] theta: unknown angle unit 'grad'")),
        ("[array]\nn_elements = 0\n", re.escape("[array] n_elements: must be >= 1")),
        ("[array]\nn_elements = 2.5\n",
         re.escape("[array] n_elements: expected integer, got '2.5'")),
        # the long spellings of architecture are refused, with the tokens to write instead
        ("[array]\narchitecture = monostatic\n",
         re.escape("[array] architecture: unknown value 'monostatic', "
                   "expected mono, multi or both")),
        ("[array]\narchitecture = multistatic\n",
         re.escape("[array] architecture: unknown value 'multistatic', "
                   "expected mono, multi or both")),
        # and, as by --arch, so is another case
        ("[array]\narchitecture = Both\n",
         re.escape("[array] architecture: unknown value 'Both', expected mono, multi or both")),
        ("[discretization]\nn_scene = 1\n",
         re.escape("[discretization] n_scene: must be >= 2")),
        ("[discretization]\nkspace_samples = 1\n",
         re.escape("[discretization] kspace_samples: must be >= 2")),
        ("[discretization]\nsbp_points = 15\n",
         re.escape("[discretization] sbp_points: unknown key")),
        ("[resolution]\noversample = 0\n",
         re.escape("[resolution] oversample: must be >= 1")),
        ("[resolution]\nn_targets = 0\n",
         re.escape("[resolution] n_targets: must be >= 1")),
        ("[sweep]\nparam = lambda\n",
         re.escape("[sweep] param: unknown value 'lambda', expected t, D, L2 or theta")),
        ("[sweep]\nparam = t\nvalues = 1cm, 2ly\n",
         re.escape("[sweep] values: unknown length unit 'ly'")),
        ("[run]\nseed = abc\n", re.escape("[run] seed: expected integer, got 'abc'")),
        ("[DEFAULT]\nseed = 2\n", re.escape("[DEFAULT]: unknown section")),
        ("[DEFAULT]\nseed = 2\n[geometry]\nL1 = 1cm\n",
         re.escape("[DEFAULT]: unknown section")),
        ("[DEFAULT]\nseed = 2\n[run]\nsvg = no\n", re.escape("[DEFAULT]: unknown section")),
        ("[sweep]\nparam = L2\nvalues = 0cm, 5cm\n",
         re.escape("[sweep] values: L2 = 0 m breaks [geometry] L2: empty scene, "
                   "must be positive")),
        ("[sweep]\nparam = L2\nvalues = -5cm\n",
         re.escape("[sweep] values: L2 = -0.05 m breaks [geometry] L2: empty scene, "
                   "must be positive")),
        ("[sweep]\nparam = D\nvalues = 0cm\n",
         re.escape("[sweep] values: D = 0 m breaks [geometry] D: must be positive")),
        ("[sweep]\nparam = theta\nvalues = 95deg\n",
         re.escape("[sweep] values: theta = 1.65806279 rad breaks [geometry] theta: "
                   "|theta| must be <= 90 deg")),
        ("[geometry]\nL2 = 45cm\nD = 20cm\ntheta = 75deg\n",
         re.escape("[geometry] theta: the tilted scene reaches the aperture plane")),
        ("[geometry]\nL2 = 45cm\nD = 20cm\n[sweep]\nparam = theta\nvalues = 0deg, 75deg\n",
         re.escape("[sweep] values: theta = 1.30899694 rad breaks [geometry] theta: "
                   "the tilted scene reaches the aperture plane")),
        ("[geometry]\nL2 = 1e999\n", re.escape("[geometry] L2: length '1e999' is not finite")),
        ("[sweep]\nparam = t\nvalues = 0cm, 1e999\n",
         re.escape("[sweep] values: length '1e999' is not finite")),
        ("[resolution]\nmethods =\n",
         re.escape("[resolution] methods: must name at least one method")),
        ("[resolution]\nmethods = mf, mf\n",
         re.escape("[resolution] methods: method 'mf' given twice")),
        ("[run]\nanalyses =\n", re.escape("[run] analyses: must name at least one analysis")),
        ("[run]\nanalyses = svd, svd\n", re.escape("[run] analyses: analysis 'svd' given twice")),
        ("[run]\nout_dir =\n", re.escape("[run] out_dir: must not be empty")),
        # checks run in field order: n_targets is declared before oversample
        ("[resolution]\noversample = 0\nn_targets = 0\n",
         re.escape("[resolution] n_targets: must be >= 1")),
        # not valid INI: configparser's own message, naming the line
        ("[geometry]\nlambda = 5mm\nlambda = 6mm\n",
         re.escape("[line  3]: option 'lambda' in section 'geometry' already exists")),
        ("[geometry]\nL1 = 15cm\n[geometry]\nL2 = 10cm\n",
         re.escape("[line  3]: section 'geometry' already exists")),
        ("lambda = 5mm\n[geometry]\n", "File contains no section headers"),
        ("[geometry]\nlambda\n", re.escape("[line  2]: 'lambda\\n'")),
    ],
)
def test_config_rejection_names_the_offender(tmp_path, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_file(path)


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["svd", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\nL2 = 0\n")
    assert main(["svd", "--config", str(path)]) == 2
    assert "L2" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, message", [
    ("svd", "[array]\nspacing = 1mm\n", "[array] spacing: unknown key"),
    ("svd", "[array]\narchitecture = monostatic\n",
     "[array] architecture: unknown value 'monostatic', expected mono, multi or both"),
    ("svd", "[geometry]\nL3 = 1cm\n", "[geometry] L3: unknown key"),
    # Path("") would be the current directory
    ("kspace", "[run]\nout_dir =\n", "[run] out_dir: must not be empty"),
    ("resolution", (CONFIGS / "shifted_scene.cfg").read_text(),
     "[run] analyses: 'resolution' not enabled in this config"),
], ids=["spacing", "monostatic", "unknown-key", "empty-out-dir", "analyses"])
def test_refusals_exit_2_without_writing(tmp_path, capsys, command, body, message):
    path = tmp_path / "refused.cfg"
    path.write_text(body)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_arch_flag_takes_the_config_tokens(capsys):
    # --arch and [array] architecture accept the same tokens
    with pytest.raises(SystemExit):
        main(["svd", "--help"])
    assert "--arch {mono,multi,both}" in capsys.readouterr().out


def test_config_that_does_not_decode_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[geometry]\nL1 = 15cm \xff\xfe\n")
    assert main(["svd", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


def test_out_naming_an_existing_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["kspace", "--config", str(cfg), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err


def test_empty_out_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # an empty --out is refused, not read as "use [run] out_dir", which here
    # would write results/tilt_sweep/ under the current directory
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / "tilt_sweep.cfg")
    assert main(["sbp-sweep", "--config", config, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --out: must not be empty\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_svd_command_outputs(tmp_path):
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["svd", "--config", str(cfg)]) == 0
    out = tmp_path / "results"

    header, rows = read_csv(out / "svd_mono.csv")
    assert header == ["index", "sigma", "sigma_normalized"]
    assert len(rows) == 24
    assert rows[0][0] == "1" and float(rows[0][2]) == 1.0
    header, rows = read_csv(out / "svd_multi.csv")
    assert len(rows) == 48  # min(N^2, n_scene) singular values

    payload = json.loads((out / "dof.json").read_text())
    assert payload["geometry_class"] == "G1"
    assert payload["sbp"] == pytest.approx(27.4344676, rel=1e-6)
    assert payload["fresnel_dof"] == 30.0
    for arch in ("mono", "multi"):
        block = payload["architectures"][arch]
        assert set(block) == {
            "sigma_bar", "sigma_bar_sq", "knee_index",
            "n_singular_values", "hs_norm_sq",
        }
    svg = (out / "svd.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_svd_respects_svg_flag_and_arch_override(tmp_path):
    cfg = write_config(tmp_path, NOMINAL.replace("svg = true", "svg = false"))
    assert main(["svd", "--config", str(cfg), "--arch", "mono"]) == 0
    out = tmp_path / "results"
    assert (out / "svd_mono.csv").exists()
    assert not (out / "svd_multi.csv").exists()
    assert not (out / "svd.svg").exists()


def test_csv_numbers_are_9_significant_digits(tmp_path):
    cfg = write_config(tmp_path, NOMINAL)
    main(["svd", "--config", str(cfg), "--arch", "mono"])
    _, rows = read_csv(tmp_path / "results" / "svd_mono.csv")
    for _, sigma, _ in rows:
        assert sigma == f"{float(sigma):.9g}"


def test_csv_columns_print_each_value_as_the_scalar_format():
    # one format per column: floats as f"{x:.9g}", integers and bools as %d,
    # special values and random bit patterns included
    rng = np.random.default_rng(0)
    special = [0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               1.0 / 3.0, 123456789012.0, 3.0, -1e300]
    bits = rng.integers(0, 2**64, 988, dtype=np.uint64)
    floats = np.concatenate([special, bits.view(np.float64)])
    ints = rng.integers(-10**12, 10**12, floats.size)
    flags = rng.random(floats.size) < 0.5
    text = _csv(["f", "i", "b"], floats, ints, flags)
    expected = ["f,i,b"] + [f"{f:.9g},{i},{int(b)}" for f, i, b in zip(floats, ints, flags)]
    assert text == "\n".join(expected) + "\n"


@pytest.mark.parametrize("column", [
    np.array([3, -7, 2**40]),
    np.array([200, 7], dtype=np.uint8),
    np.array([True, False, True]),
    np.array([0.25, 3.0, -1e300]),
    (0.25, 3.0, -2.0),
    (4, -5, 2**40),
], ids=["int64", "uint8", "bool", "float64", "float-tuple", "int-tuple"])
def test_csv_formats_each_column_by_the_numpy_dtype_rule(column):
    # oracle: the rule of _csv when it passed every column through np.asarray;
    # 0.25 and 2**40 print differently as %d and as %.9g
    fmt = "%d" if np.asarray(column).dtype.kind in "biu" else "%.9g"
    expected = ["c", *(fmt % v for v in np.asarray(column).tolist())]
    assert _csv(["c"], column) == "\n".join(expected) + "\n"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, NOMINAL)
    main(["svd", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["svd", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("svd_mono.csv", "svd_multi.csv", "dof.json", "svd.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_analyses_restriction(tmp_path, capsys):
    cfg = write_config(tmp_path, NOMINAL + "analyses = svd\n")
    assert main(["kspace", "--config", str(cfg)]) == 2
    assert "analyses" in capsys.readouterr().err
    assert main(["svd", "--config", str(cfg)]) == 0


def test_sbp_sweep_command(tmp_path):
    body = NOMINAL + (
        "\n[sweep]\nparam = theta\nvalues = 0deg, 35deg, 55deg\n"
        "include_fresnel = true\ninclude_theta = true\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["sbp-sweep", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "results" / "sbp_sweep.csv")
    assert header == ["param_value", "sbp", "fresnel_approx", "theta_heu", "theta_max"]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(27.4344676, rel=1e-6)
    assert float(rows[1][0]) == pytest.approx(math.radians(35.0))
    # broadside SBP dominates the tilted ones for a centered scene
    assert float(rows[0][1]) > float(rows[1][1]) > float(rows[2][1])


def test_sbp_sweep_theta_max_on_a_scene_longer_than_twice_the_standoff(tmp_path):
    # tilts near +-90 deg would put the 45 cm scene behind the aperture plane
    body = NOMINAL.replace("L2 = 10cm", "L2 = 45cm") + (
        "\n[sweep]\nparam = t\nvalues = 0cm, 10cm\ninclude_theta = true\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["sbp-sweep", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "results" / "sbp_sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert 0.225 * abs(math.sin(float(row[header.index("theta_max")]))) < 0.20


def test_sbp_sweep_is_exact_with_an_end_near_the_aperture_plane(tmp_path):
    # the u = -L2/2 end lies 1.8 mm in front of the aperture plane and 2.1 mm
    # from the aperture end a1, so a singularity of B(u) nears the segment;
    # the closed form is exact there, where 32-point Gauss-Legendre on each
    # smooth piece of B gives 35.7818911
    body = ("[geometry]\nlambda = 5mm\nL1 = 5.3cm\nL2 = 29.3cm\nD = 9.2cm\nt = 9cm\n"
            "\n[sweep]\nparam = theta\nvalues = -38deg\n\n[run]\nout_dir = {out}\n")
    cfg = write_config(tmp_path, body)
    assert main(["sbp-sweep", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "results" / "sbp_sweep.csv")
    assert header == ["param_value", "sbp"]
    assert rows == [[f"{math.radians(-38.0):.9g}", "35.7818676"]]


def test_sbp_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["sbp-sweep", "--config", str(cfg)]) == 2
    assert "sweep" in capsys.readouterr().err


def test_fine_tilt_sweep_config(tmp_path, aperture, wave):
    # 181 tilts, broadside to 90 deg in 0.5 deg steps, of the 10 cm scene
    # shifted 15 cm off axis at D = 20 cm
    path = CONFIGS / "tilt_sweep_fine.cfg"
    assert main(["sbp-sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "sbp_sweep.csv")
    assert header == ["param_value", "sbp", "theta_heu", "theta_max"]
    assert len(rows) == 181
    assert float(rows[-1][0]) == pytest.approx(math.pi / 2)
    for i, (value, sbp, _, _) in enumerate(rows):
        tilt = math.radians(0.5 * i)
        assert value == f"{tilt:.9g}"
        assert sbp == f"{compute_sbp(SceneSegment(0.05, tilt, 0.15), aperture, wave).value:.9g}"
    assert {row[2] for row in rows} == {f"{theta_heu(0.15, 0.20):.9g}"}
    best = theta_max(SceneSegment(0.05, shift=0.15), aperture, wave)
    assert {row[3] for row in rows} == {f"{best:.9g}"}


def test_kspace_command(tmp_path, wave):
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["kspace", "--config", str(cfg)]) == 0
    out = tmp_path / "results"
    header, rows = read_csv(out / "kspace_mono.csv")
    assert header == ["kx", "kz"]
    norms = [math.hypot(float(a), float(b)) for a, b in rows]
    assert all(n == pytest.approx(2.0 * wave.k, rel=1e-6) for n in norms)
    header, rows = read_csv(out / "kspace_multi.csv")
    # 9-significant-digit serialization perturbs norms by a few 1e-9 relative
    assert all(
        math.hypot(float(a), float(b)) <= 2.0 * wave.k * (1 + 1e-8) for a, b in rows
    )
    header, rows = read_csv(out / "bandwidth.csv")
    assert header == ["u", "x", "z", "bandwidth", "reciprocal"]
    assert len(rows) == 101
    b = [float(r[3]) for r in rows]
    assert all(v > 0 for v in b)


def test_kspace_check_angles_follow_the_seed(tmp_path, monkeypatch):
    angles, true_project = [], cli.kspace.project_points_onto_line

    def recording(samples, angle):
        angles.append(angle)
        return true_project(samples, angle)

    monkeypatch.setattr(cli.kspace, "project_points_onto_line", recording)
    drawn = {}
    for seed in (0, 1, 0):
        angles.clear()
        cfg = write_config(tmp_path, NOMINAL + f"seed = {seed}\n", name=f"seed{seed}.cfg")
        assert main(["kspace", "--config", str(cfg)]) == 0
        # mono and multi project on each of 5 angles, the last 3 drawn
        assert len(angles) == 10
        drawn.setdefault(seed, []).append(angles[4::2])
    assert drawn[0][0] == drawn[0][1]
    assert drawn[0][0] != drawn[1][0]


def test_kspace_on_a_scene_beyond_the_bandwidth_exits_1_and_writes_nothing(tmp_path, capsys):
    # finite lengths, but B rounds to 0 across the whole 1e300 m scene
    path = tmp_path / "huge.cfg"
    path.write_text("[geometry]\nL2 = 1e300\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kspace", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bandwidth B = 0 <= 0 at u = -5e+299 m"), err


def test_resolution_on_a_scene_beyond_the_bandwidth_exits_1_and_writes_nothing(tmp_path, capsys):
    # resolution_sweep refuses the first target, before it divides by B
    path = tmp_path / "huge.cfg"
    path.write_text("[geometry]\nL2 = 1e300\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["resolution", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bandwidth B = 0 <= 0 at u = -4.5375e+299 m: the scene is too "
                          "large"), err


@pytest.mark.parametrize("change, message", [
    (("L1 = 15cm", "L1 = 1e300"), "error: internal consistency check failed: multistatic "),
    (("L2 = 10cm\nD = 20cm", "L2 = 1e-300\nD = 1e-300"),
     "error: internal consistency check failed: monostatic pinv "),
], ids=["multi-gram-overflow", "pinv-underflow"])
def test_resolution_with_non_finite_psfs_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                     change, message):
    # the multistatic Gram overflows at L1 = 1e300, and the PINV image divides
    # by singular values that underflow at D = L2 = 1e-300; both once wrote
    # NaN PSFs, every width NaN and flagged, with exit 0
    path = write_config(tmp_path, NOMINAL.replace(*change))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        assert main(["resolution", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(message) and err.endswith("PSFs are not finite\n"), err


@pytest.mark.parametrize("config", [CONFIGS / "tilt_sweep.cfg", CONFIGS / "fresnel_standoff.cfg",
                                    ROOT / "perfbench" / "configs" / "t_sweep.cfg"],
                         ids=lambda p: p.name)
def test_each_swept_config_is_the_base_but_for_the_swept_field(config):
    cfg = ExperimentConfig.from_file(config)
    swept = cfg.sweep()
    assert swept and [value for value, _ in swept] == list(cfg.sweep_values)
    base = getattr(cfg, cfg.sweep_param)
    for value, at in swept:
        assert type(at) is ExperimentConfig and getattr(at, cfg.sweep_param) == value
        assert at._replace(**{cfg.sweep_param: base}) == cfg
    # immutable and hashable, as the geometry values it builds
    assert hash(ExperimentConfig.from_file(config)) == hash(cfg)
    with pytest.raises(AttributeError):
        cfg.L1 = 1.0


def test_sbp_sweep_calls_the_traced_sbp_numeric(tmp_path, monkeypatch):
    # perfbench/trace_child.py sees the SBP layer only through the public
    # name it wraps in every aperture_dof namespace that holds it
    import aperture_dof.sbp as sbp

    argv = ["sbp-sweep", "--config", str(CONFIGS / "tilt_sweep.cfg"), "--out"]
    assert main([*argv, str(tmp_path / "plain")]) == 0
    true_numeric = sbp.sbp_numeric
    calls = []

    def counted(*args):
        calls.append(args)
        return true_numeric(*args)

    for name, module in list(sys.modules.items()):
        if name == "aperture_dof" or name.startswith("aperture_dof."):
            for attr, value in list(vars(module).items()):
                if value is true_numeric:
                    monkeypatch.setattr(module, attr, counted)
    assert main([*argv, str(tmp_path / "wrapped")]) == 0
    # one call per tilted row (10 of 11), and theta_max's golden-section steps
    _, rows = read_csv(tmp_path / "plain" / "sbp_sweep.csv")
    tilted = {row[0] for row in rows if float(row[0]) != 0.0}
    assert len(tilted) == 10
    assert tilted <= {f"{scene.theta:.9g}" for scene, *_ in calls}
    assert len(calls) >= 10 + 2
    assert ((tmp_path / "wrapped" / "sbp_sweep.csv").read_bytes()
            == (tmp_path / "plain" / "sbp_sweep.csv").read_bytes())


def test_fresnel_command(tmp_path):
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["fresnel", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "results" / "fresnel.json").read_text())
    assert payload["fresnel_dof"] == 30.0
    assert payload["equivalence"]["fresnel_kernel_max_rel_discrepancy"] < 1e-6
    assert payload["effective_aperture_total"] == 24 * 24
    header, rows = read_csv(tmp_path / "results" / "effective_aperture.csv")
    assert header == ["position", "multiplicity"]
    assert sum(int(r[1]) for r in rows) == 24 * 24
    # no [sweep] section, no fresnel_sweep.csv
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
        "effective_aperture.csv", "fresnel.json"]


def test_fresnel_standoff_config(tmp_path):
    assert main(["fresnel", "--config", str(CONFIGS / "fresnel_standoff.cfg"),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fresnel_sweep.csv")
    assert header == ["param_value", "fresnel_dof", "exact_kernel_max_rel_discrepancy",
                      "fresnel_kernel_max_rel_discrepancy"]
    got = np.array(rows, dtype=float)
    np.testing.assert_allclose(got[:, :3], [
        [0.1, 60, 0.151344241], [0.2, 30, 0.14569581], [0.4, 15, 0.0273398359],
        [0.8, 7.5, 0.00449720657], [1.6, 3.75, 0.000661805286], [3.2, 1.875, 0.000101442771],
    ], rtol=1e-9)
    # the exact kernel converges on the effective aperture as D grows; the
    # Fresnel kernel matches it to rounding at every standoff
    assert np.all(np.diff(got[:, 2]) < 0)
    assert np.all(got[:, 3] <= 1e-12)
    # 24 uniform elements: 47 pair midpoints with triangular redundancy
    _, rows = read_csv(tmp_path / "effective_aperture.csv")
    assert [int(r[1]) for r in rows] == [*range(1, 25), *range(23, 0, -1)]


def test_fresnel_command_matches_one_check_per_kernel(tmp_path):
    from aperture_dof import MULTISTATIC, fresnel_equivalence_check

    path = write_config(tmp_path, NOMINAL)
    assert main(["fresnel", "--config", str(path)]) == 0
    written = json.loads((tmp_path / "results" / "fresnel.json").read_text())["equivalence"]
    cfg = ExperimentConfig.from_file(path)
    report = fresnel_equivalence_check(cfg.layout(MULTISTATIC), cfg.scene(), cfg.wave(),
                                       n_scene=cfg.n_scene)
    for kernel in ("fresnel", "exact"):
        assert (written[f"{kernel}_kernel_max_rel_discrepancy"]
                == report.max_rel_discrepancy[kernel])


def test_fresnel_command_builds_one_effective_side_for_both_kernels(tmp_path, monkeypatch):
    import aperture_dof.fresnel as fresnel

    calls = []

    def recording(name, fn, tag=lambda *_: None):
        def wrapped(*args, **kwargs):
            calls.append((name, tag(*args)))
            result = fn(*args, **kwargs)
            calls.append((name + " returned", None))
            return result
        return wrapped

    monkeypatch.setattr(fresnel, "fresnel_equivalence_check",
                        recording("check", fresnel.fresnel_equivalence_check))
    monkeypatch.setattr(fresnel, "effective_aperture",
                        recording("effective", fresnel.effective_aperture))
    # tag each spectrum with its factor count and rows: the effective side
    # is one 47-row factor, each pair side the shared 24-row Tx/Rx table
    monkeypatch.setattr(fresnel, "_spectrum", recording(
        "spectrum", fresnel._spectrum, lambda factors, *_: (len(factors), len(factors[0]))))
    path = write_config(tmp_path, NOMINAL)
    assert main(["fresnel", "--config", str(path)]) == 0
    spectra = [call for tag in ((1, 47), (2, 24), (2, 24))
               for call in (("spectrum", tag), ("spectrum returned", None))]
    assert calls == [("check", None), ("effective", None), ("effective returned", None),
                     *spectra, ("check returned", None)]


def test_fresnel_command_rejects_tilted_scene(tmp_path, capsys):
    body = NOMINAL.replace("[geometry]", "[geometry]\ntheta = 10deg")
    cfg = write_config(tmp_path, body)
    assert main(["fresnel", "--config", str(cfg)]) == 2
    assert "parallel" in capsys.readouterr().err
    # a theta sweep is refused before any work and creates nothing
    out = tmp_path / "tilts"
    assert main(["fresnel", "--config", str(CONFIGS / "tilt_sweep.cfg"), "--out", str(out)]) == 2
    assert "[sweep] param" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [("fresnel", "tilt_sweep.cfg"),
                                             ("sbp-sweep", "nominal.cfg")])
def test_config_error_found_by_the_command_creates_no_out_directory(command, config, tmp_path,
                                                                     capsys):
    # fresnel refuses a theta sweep, sbp-sweep a config without [sweep]: both
    # exit 2 before main creates --out or any parent it would need
    out = tmp_path / "new" / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 2
    assert "config error: [sweep]" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_fresnel_sweep_runs_one_check_per_distinct_geometry(tmp_path, monkeypatch):
    # fresnel_standoff.cfg sweeps D over 10..320 cm, 20 cm being the base: the
    # base row reuses fresnel.json's check, so 6 checks serve 7 geometries
    calls = []

    def counting(array, scene, wave, n_scene):
        calls.append((array.aperture.z_plane, n_scene))
        return check(array, scene, wave, n_scene)

    check = cli.fresnel.fresnel_equivalence_check
    monkeypatch.setattr(cli.fresnel, "fresnel_equivalence_check", counting)
    assert main(["fresnel", "--config", str(CONFIGS / "fresnel_standoff.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == len(set(calls)) == 6
    rows = read_csv(tmp_path / "fresnel_sweep.csv")[1]
    base = json.loads((tmp_path / "fresnel.json").read_text())["equivalence"]
    assert rows[1][0] == "0.2"
    assert rows[1][2:] == ["%.9g" % base["exact_kernel_max_rel_discrepancy"],
                           "%.9g" % base["fresnel_kernel_max_rel_discrepancy"]]


def test_resolution_command(tmp_path):
    body = NOMINAL.replace("architecture = both", "architecture = mono") + (
        "\n[resolution]\nn_targets = 3\noversample = 2\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["resolution", "--config", str(cfg)]) == 0
    out = tmp_path / "results"
    header, rows = read_csv(out / "resolution.csv")
    assert header == [
        "position", "reciprocal_bandwidth",
        "width_pinv_mono", "flag_pinv_mono", "width_mf_mono", "flag_mf_mono",
    ]
    assert len(rows) == 3
    header, rows = read_csv(out / "psf_pinv_mono.csv")
    assert header[0] == "u" and len(header) == 4
    assert len(rows) == 48 * 2


def test_resolution_check_catches_a_wrong_bandwidth(tmp_path, monkeypatch, capsys):
    import aperture_dof.recon as recon

    true_bandwidth = recon.bandwidth
    monkeypatch.setattr(recon, "bandwidth", lambda *a: 2.0 * true_bandwidth(*a))
    body = NOMINAL.replace("architecture = both", "architecture = mono") + (
        "\n[resolution]\nn_targets = 3\noversample = 2\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["resolution", "--config", str(cfg)]) == 1
    assert "reciprocal bandwidth" in capsys.readouterr().err


def test_resolution_g1_multistatic_widths(tmp_path, wave):
    path = CONFIGS / "resolution_g1.cfg"
    argv = ["resolution", "--config", str(path), "--arch", "multi", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "psf_mf_multi.csv", "psf_pinv_multi.csv", "resolution.csv"]
    header, rows = read_csv(tmp_path / "resolution.csv")
    assert header == [
        "position", "reciprocal_bandwidth",
        "width_pinv_multi", "flag_pinv_multi", "width_mf_multi", "flag_mf_multi",
    ]
    # the 10 cm scene at D = 40 cm seen by 64 multistatic elements
    aperture = Aperture.centered(0.15, 0.40)
    layout = ArrayLayout.uniform(aperture, 64, MULTISTATIC)
    curve = resolution_sweep(SceneSegment(0.05), wave, layout, n_scene=96)
    columns = dict(zip(header, zip(*rows)))
    for name, values in (
        ("position", curve.positions),
        ("reciprocal_bandwidth", curve.reciprocal_bandwidth),
        ("width_pinv_multi", curve.widths["pinv"]),
        ("width_mf_multi", curve.widths["mf"]),
    ):
        assert columns[name] == tuple(f"{v:.9g}" for v in values)


# one config that every command accepts: fresnel and sbp-sweep sweep D
ALL_COMMANDS = NOMINAL + (
    "\n[sweep]\nparam = D\nvalues = 20cm, 40cm\n"
    "\n[resolution]\nn_targets = 3\noversample = 2\n"
)


@pytest.mark.parametrize("command, files", [
    ("svd", ["svd_mono.csv", "svd_multi.csv", "dof.json", "svd.svg"]),
    ("sbp-sweep", ["sbp_sweep.csv"]),
    ("kspace", ["kspace_mono.csv", "kspace_multi.csv", "bandwidth.csv"]),
    ("fresnel", ["fresnel.json", "effective_aperture.csv", "fresnel_sweep.csv"]),
    ("resolution", ["psf_pinv_mono.csv", "psf_mf_mono.csv", "psf_pinv_multi.csv",
                    "psf_mf_multi.csv", "resolution.csv"]),
])
def test_stdout_lists_the_files_written_in_write_order(command, files, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, ALL_COMMANDS)),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in files]
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


@pytest.mark.parametrize("command, failing, call", [
    # svd_mono.csv is complete when the multistatic norm check fails
    ("svd", "multistatic operator norm", 1),
    # fresnel.json is complete when the 40 cm row fails; 20 cm reuses the base
    ("fresnel", "effective-aperture equivalence", 2),
    # all four PSF tables are computed before the 1/B check
    ("resolution", "reciprocal bandwidth", 1),
])
def test_a_failed_check_writes_no_file(command, failing, call, tmp_path, monkeypatch, capsys):
    true_check = cli._check
    calls = []

    def check(condition, message):
        if failing in message:
            calls.append(message)
            condition = condition and len(calls) != call
        true_check(condition, message)

    monkeypatch.setattr(cli, "_check", check)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, ALL_COMMANDS)),
                 "--out", str(out)]) == 1
    assert len(calls) == call
    assert capsys.readouterr().err.startswith("error: internal consistency check failed: ")
    assert not out.exists()


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(*_):
        raise MemoryError("Unable to allocate 23.8 GiB")

    monkeypatch.setattr(cli.operator, "build_operator", exhausted)
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["svd", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def _multistatic_gram_config(tmp_path):
    # 24^2 = 576 rows > 4 * 48 columns: svd takes the factored Gram route
    body = NOMINAL.replace("architecture = both", "architecture = multi").replace(
        "svg = true", "svg = false") + "\n[resolution]\nn_targets = 3\noversample = 2\n"
    return write_config(tmp_path, body)


def test_multistatic_commands_never_materialize_the_operator(tmp_path, monkeypatch):
    # op.matrix and svd's direct route both go through _khatri_rao; the
    # Fresnel effective side legitimately densifies its one factor
    import aperture_dof.operator as operator

    true_khatri_rao = operator._khatri_rao

    def dense(factors, col_weight):
        if len(factors) == 2:
            raise AssertionError("the dense N^2 x n operator was materialized")
        return true_khatri_rao(factors, col_weight)

    monkeypatch.setattr(operator, "_khatri_rao", dense)
    cfg = _multistatic_gram_config(tmp_path)
    assert main(["svd", "--config", str(cfg)]) == 0
    assert main(["resolution", "--config", str(cfg)]) == 0
    assert main(["fresnel", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command, ceiling_mib", [("svd", 58), ("resolution", 64), ("fresnel", 80)])
def test_n1000_multistatic_commands_stay_under_their_memory_ceilings(command, ceiling_mib,
                                                                       tmp_path):
    # the operator holds its one-way factors, never the N^2 x n product: at
    # N = 1000 the dense operator would need 6.1 GiB. At 2 threads svd peaks
    # at about 46 MiB, resolution, which streams its cross-Gram over blocks
    # of 128 points, keeps only the leading singular triplets and checks 1/B
    # one target at a time, at about 50, and fresnel, which convolves the
    # lattice Tx and Rx trains into the effective aperture and splits its
    # 1999-row mirror-symmetric effective side in two, at about 64. Each
    # ceiling is about 1.25x its peak; m x n cross-Gram temporaries over all
    # 1600 image points at once take resolution to about 104
    code, _, _, peak_mib, err = cli_usage(command, "--config", CONFIGS / "multi_n1000.cfg",
                                          "--out", tmp_path, threads=2)
    assert code == 0, err
    assert peak_mib <= ceiling_mib


def test_svd_command_computes_no_singular_vectors(tmp_path, monkeypatch):
    import aperture_dof.operator as operator

    true_svd = operator.np.linalg.svd

    def eigh(*_args, **_kwargs):
        raise AssertionError("svd computed eigenvectors")

    def values_only(a, *args, compute_uv=True, **kwargs):
        if compute_uv:
            raise AssertionError("svd computed singular vectors")
        return true_svd(a, *args, compute_uv=False, **kwargs)

    monkeypatch.setattr(operator.np.linalg, "eigh", eigh)
    monkeypatch.setattr(operator.np.linalg, "svd", values_only)
    # both architectures: mono takes the direct SVD, multi (24^2 rows >
    # 4 * 48 columns) the factored Gram
    assert main(["svd", "--config", str(write_config(tmp_path, NOMINAL))]) == 0


def test_norm_check_catches_a_dropped_rx_weight(tmp_path, monkeypatch, capsys):
    true_build = cli.operator.build_operator

    def unweighted_rx(scene, layout, *args):
        op = true_build(scene, layout, *args)
        t, r = op.factors
        return op._replace(factors=(t, r / math.sqrt(layout.rx_weight)))

    monkeypatch.setattr(cli.operator, "build_operator", unweighted_rx)
    assert main(["svd", "--config", str(_multistatic_gram_config(tmp_path))]) == 1
    assert "norm deviates" in capsys.readouterr().err


def _assert_runs_without(command, config, out, *modules):
    """Runs the command in a fresh interpreter and asserts that it never
    loaded any of `modules`.  A layer that the package registered but never
    ran is not loaded: it is not yet a plain module object."""
    code = (
        "import sys, types\n"
        "from aperture_dof.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"loaded = [m for m in {modules!r} if type(sys.modules.get(m)) is types.ModuleType]\n"
        "assert not loaded, f'{loaded} loaded'\n"
    )
    proc = fresh_python("-c", code, command, "--config", CONFIGS / config, "--out", out)
    assert proc.returncode == 0, proc.stderr


def test_resolution_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, tens of ms of start-up per process
    _assert_runs_without("resolution", "resolution_g1.cfg", tmp_path, "numpy.ma")


def test_kspace_does_not_import_numpy_random(tmp_path):
    # numpy.random, about 16 ms of start-up, only to draw three check angles;
    # dataclasses and json, which the config path and kspace never use
    _assert_runs_without("kspace", "nominal.cfg", tmp_path, "numpy.random", "dataclasses", "json")


@pytest.mark.parametrize("config", [CONFIGS / "tilt_sweep.cfg",
                                    ROOT / "perfbench" / "configs" / "t_sweep.cfg"],
                         ids=lambda p: p.name)
def test_sbp_sweep_runs_without_numpy(config, tmp_path):
    # import numpy, 55-105 ms, would be nearly all of a sweep process after
    # interpreter start-up: the SBP is a few hypots per tilt in plain floats.
    # dataclasses, with the inspect it imports, and json add about 10 ms more
    _assert_runs_without("sbp-sweep", config, tmp_path, "numpy", "dataclasses", "inspect", "json")


def test_importing_cli_and_reading_every_config_loads_no_numpy():
    # the start-up every command pays before it runs: only the commands that
    # build arrays import numpy, and only those that write JSON import json;
    # the config and geometry values are namedtuples, not dataclasses
    code = (
        "import sys\n"
        "import aperture_dof.cli\n"
        "for path in sys.argv[1:]:\n"
        "    aperture_dof.cli.ExperimentConfig.from_file(path)\n"
        "loaded = [m for m in ('numpy', 'dataclasses', 'inspect', 'json') if m in sys.modules]\n"
        "assert not loaded, f'{loaded} loaded'\n"
    )
    proc = fresh_python("-c", code, *SHIPPED_CONFIGS)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, config, layers", [
    ("sbp-sweep", "tilt_sweep.cfg", ("operator", "recon", "fresnel", "kspace", "_svg")),
    ("kspace", "nominal.cfg", ("operator", "recon", "fresnel", "sbp", "_svg")),
    ("svd", "nominal.cfg", ("recon", "fresnel", "kspace")),
    ("resolution", "resolution_g1.cfg", ("fresnel", "sbp", "_svg")),
    ("fresnel", "fresnel_standoff.cfg", ("recon", "kspace", "_svg")),
])
def test_each_command_loads_only_the_layers_it_runs(command, config, layers, tmp_path):
    # each layer loaded is compiled too wherever no bytecode is cached, 1 to
    # 7 ms of start-up per module; every value type is a namedtuple, so no
    # command loads dataclasses, 3 to 5 ms of a numpy command
    _assert_runs_without(command, config, tmp_path, "dataclasses",
                         *(f"aperture_dof.{m}" for m in layers))


def test_module_entry_runs_clean_under_w_error(tmp_path):
    # runpy warns when aperture_dof.cli is in sys.modules before it runs it,
    # as it would be had the package registered cli with its lazy layers
    proc = fresh_python("-W", "error", "-m", "aperture_dof.cli", "sbp-sweep",
                        "--config", CONFIGS / "tilt_sweep.cfg", "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_fresh_process_exits_by_outcome(tmp_path):
    def run(command, config, out):
        return fresh_python("-m", "aperture_dof.cli", command, "--config", config, "--out", out)

    proc = run("sbp-sweep", CONFIGS / "tilt_sweep.cfg", tmp_path / "ok")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{tmp_path / 'ok' / 'sbp_sweep.csv'}\n"

    bad = tmp_path / "bad.cfg"
    bad.write_text("[geometry]\nL3 = 1cm\n")
    proc = run("svd", bad, tmp_path / "bad")
    assert proc.returncode == 2
    assert proc.stderr == "config error: [geometry] L3: unknown key\n"

    taken = tmp_path / "taken"
    taken.write_text("")
    proc = run("kspace", write_config(tmp_path, NOMINAL), taken)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "File exists" in proc.stderr


def test_process_entry_flushes_stdout_before_it_exits(tmp_path):
    # python -m aperture_dof.cli ends in os._exit, which drops whatever a
    # block-buffered stdout still holds unless run() flushed it first
    out = tmp_path / "out"
    argv = ("-m", "aperture_dof.cli", "kspace", "--config", CONFIGS / "nominal.cfg", "--out", out)
    proc = fresh_python(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        str(out / name) for name in ("kspace_mono.csv", "kspace_multi.csv", "bandwidth.csv")]

    # a reader that closed its end: the paths cannot be flushed, so not exit 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_python(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


def test_console_script_is_the_process_entry():
    # the installed aperture-dof script, which no test can run, goes through
    # the same run() as python -m aperture_dof.cli
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["aperture-dof"] == "aperture_dof.cli:run"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_arch_is_rejected_by_commands_that_ignore_it(command, tmp_path, monkeypatch, capsys):
    # main runs the cmd_* it finds on the module when it runs, which is what
    # a wrapper set on the module (the benchmark tracer's) relies on, and
    # passes architectures to the per-architecture rows only
    calls = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda *args: calls.append(args) or {})
    per_arch = cli._COMMANDS[command][1]
    cfg = write_config(tmp_path, NOMINAL)
    if not per_arch:
        # the rejection comes first, while no run has made --out yet
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--arch", "mono"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --arch mono" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "results").exists()
    assert main([command, "--config", str(cfg)]) == 0
    assert (tmp_path / "results").is_dir()
    assert len(calls) == 1 and calls[0][0].source == str(cfg)
    assert calls[0][1:] == (((MONOSTATIC, MULTISTATIC),) if per_arch else ())
    if per_arch:
        assert main([command, "--config", str(cfg), "--arch", "mono"]) == 0
        assert calls[1][1:] == ((MONOSTATIC,),)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["spectrum", "--config", "x.cfg"])
