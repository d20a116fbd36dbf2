import json
import math
import re

import numpy as np
import pytest

from aperture_dof.cli import ConfigError, ExperimentConfig, _write_csv, main

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


def test_radian_angles_and_spacing(tmp_path):
    path = tmp_path / "more.cfg"
    path.write_text("[geometry]\ntheta = 0.5rad\n[array]\nspacing = 0.75mm\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.theta == 0.5
    assert cfg.n_elements == 200  # 0.15 / 0.00075


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[geometry]\nL3 = 1cm\n", "L3"),
        ("[geom]\nL1 = 1cm\n", "geom"),
        ("[geometry]\nL2 = 0\n", "L2"),
        ("[geometry]\nL1 = 1parsec\n", "unit"),
        ("[geometry]\ntheta = 95deg\n", "theta"),
        ("[array]\narchitecture = simo\n", "architecture"),
        ("[array]\nn_elements = 10\nspacing = 1cm\n", "spacing"),
        ("[run]\nanalyses = svd, psf\n", "psf"),
        ("[run]\nsvg = maybe\n", "svg"),
        ("[sweep]\nvalues = 1cm\n", "param"),
        ("[kspace]\npoint_u = 9cm\n", "point_u"),
        ("[resolution]\nmethods = pinv, cs\n", "cs"),
        ("[geometry]\nlambda = 0\n", re.escape("[geometry] lambda: must be positive")),
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
        ("[array]\nspacing = 0mm\n", re.escape("[array] spacing: must be positive")),
        ("[discretization]\nn_scene = 1\n",
         re.escape("[discretization] n_scene: must be >= 2")),
        ("[discretization]\nkspace_samples = 1\n",
         re.escape("[discretization] kspace_samples: must be >= 2")),
        ("[discretization]\nsbp_points = 15\n",
         re.escape("[discretization] sbp_points: must be >= 16")),
        ("[resolution]\noversample = 0\n",
         re.escape("[resolution] oversample: must be >= 1")),
        ("[resolution]\nn_targets = 0\n",
         re.escape("[resolution] n_targets: must be >= 1")),
        ("[sweep]\nparam = lambda\n",
         re.escape("[sweep] param: must be one of t, D, L2, theta")),
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


def test_csv_columns_print_each_value_as_the_scalar_format(tmp_path):
    # one format per column: floats as f"{x:.9g}", integers and bools as %d,
    # special values and random bit patterns included
    rng = np.random.default_rng(0)
    special = [0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               1.0 / 3.0, 123456789012.0, 3.0, -1e300]
    bits = rng.integers(0, 2**64, 988, dtype=np.uint64)
    floats = np.concatenate([special, bits.view(np.float64)])
    ints = rng.integers(-10**12, 10**12, floats.size)
    flags = rng.random(floats.size) < 0.5
    path = _write_csv(tmp_path / "t.csv", ["f", "i", "b"], floats, ints, flags)
    expected = ["f,i,b"] + [f"{f:.9g},{i},{int(b)}" for f, i, b in zip(floats, ints, flags)]
    assert path.read_text() == "\n".join(expected) + "\n"


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


def test_sbp_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = write_config(tmp_path, NOMINAL)
    assert main(["sbp-sweep", "--config", str(cfg)]) == 2
    assert "sweep" in capsys.readouterr().err


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


def test_fresnel_command_rejects_tilted_scene(tmp_path, capsys):
    body = NOMINAL.replace("[geometry]", "[geometry]\ntheta = 10deg")
    cfg = write_config(tmp_path, body)
    assert main(["fresnel", "--config", str(cfg)]) == 2
    assert "parallel" in capsys.readouterr().err


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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["spectrum", "--config", "x.cfg"])
