"""Command-line front end: config parsing, analysis commands, file outputs.

Subcommands: svd, sbp-sweep, kspace, fresnel, resolution.  Each reads a
sectioned key = value config file (units accepted on lengths and angles),
writes CSV tables (canonical) and, for svd, an optional SVG plot.  Exit
code 0 only when every requested analysis completed and the built-in
consistency checks passed; config errors exit 2 and name the offending key.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _svg
from .fresnel import fresnel_dof, fresnel_equivalence_check, sbp_g3_fresnel
from .geometry import Aperture, SceneSegment, WaveContext
from .kspace import (
    bandwidth,
    mono_spectrum,
    multi_spectrum,
    project_points_onto_line,
    scene_projection_angle,
)
from .operator import (
    MONOSTATIC,
    MULTISTATIC,
    ArrayLayout,
    build_operator,
    dof_knee,
    sigma_bar,
    sigma_bar_sq,
    svd,
)
from .recon import resolution_sweep
from .sbp import compute_sbp, sbp_numeric, theta_heu, theta_max


class ConfigError(Exception):
    """Invalid experiment config; message names the offending section/key."""


_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6}
_NUM_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Z]*)\s*$")


def _parse_number(text: str, where: str, kind: str) -> tuple:
    """(value, unit suffix) of a number with an optional alphabetic unit."""
    m = _NUM_RE.match(text)
    if m:
        try:
            return float(m.group(1)), m.group(2)
        except ValueError:
            pass
    raise ConfigError(f"{where}: cannot parse {kind} {text!r}")


def _parse_length(text: str, where: str, *_) -> float:
    value, unit = _parse_number(text, where, "length")
    if unit and unit not in _LENGTH_UNITS:
        raise ConfigError(f"{where}: unknown length unit {unit!r}")
    return value * (_LENGTH_UNITS[unit] if unit else 1.0)


def _parse_angle(text: str, where: str, *_) -> float:
    """Angle in radians; bare numbers are degrees, 'deg'/'rad' suffixes honored."""
    value, unit = _parse_number(text, where, "angle")
    unit = unit.lower()
    if unit in ("", "deg"):
        return math.radians(value)
    if unit == "rad":
        return value
    raise ConfigError(f"{where}: unknown angle unit {unit!r}")


def _parse_int(text: str, where: str, *_) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected integer, got {text!r}") from exc


def _parse_bool(text: str, where: str, *_) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected boolean, got {text!r}")


def _parse_list(text: str, *_) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


_ARCH_TOKENS = {
    "mono": MONOSTATIC,
    "monostatic": MONOSTATIC,
    "multi": MULTISTATIC,
    "multistatic": MULTISTATIC,
    "both": "both",
}

_ANALYSES = ("svd", "sbp-sweep", "kspace", "fresnel", "resolution")

_SWEEP_PARAMS = ("t", "D", "L2", "theta")


def _parse_architecture(text: str, where: str, *_) -> str:
    token = text.strip().lower()
    if token not in _ARCH_TOKENS:
        raise ConfigError(f"{where}: unknown value {text!r}")
    return _ARCH_TOKENS[token]


def _parse_spacing(text: str, where: str, got: dict) -> int:
    """Element count L1/spacing; must agree with an explicit n_elements."""
    pitch = _parse_length(text, where)
    if pitch <= 0.0:
        raise ConfigError(f"{where}: must be positive")
    L1 = got.get("L1", ExperimentConfig.L1)
    derived = max(1, round(L1 / pitch))
    if "n_elements" in got and derived != got["n_elements"]:
        raise ConfigError(
            f"{where}: inconsistent with n_elements "
            f"({got['n_elements']} elements vs L1/spacing = {L1 / pitch:.3f})"
        )
    return derived


def _parse_analyses(text: str, where: str, *_) -> tuple:
    items = _parse_list(text)
    for item in items:
        if item not in _ANALYSES:
            raise ConfigError(f"{where}: unknown analysis {item!r}")
    return items


def _parse_sweep_param(text: str, where: str, *_) -> str:
    param = text.strip()
    if param not in _SWEEP_PARAMS:
        raise ConfigError(f"{where}: must be one of {', '.join(_SWEEP_PARAMS)}")
    return param


def _parse_sweep_values(text: str, where: str, got: dict) -> tuple:
    param = got.get("sweep_param")
    if param is None:
        raise ConfigError(f"{where}: param must be set first")
    parse = _parse_angle if param == "theta" else _parse_length
    return tuple(parse(v, where) for v in _parse_list(text))


# Every key the parser accepts, one row each, in parse order:
# (section, key, ExperimentConfig attribute, parser).  Anything else is
# rejected by name.  A parser takes (text, "[section] key", the values
# parsed so far by attribute); only spacing and sweep values read those.
_FIELDS = (
    ("geometry", "lambda", "wavelength", _parse_length),
    ("geometry", "L1", "L1", _parse_length),
    ("geometry", "L2", "L2", _parse_length),
    ("geometry", "D", "D", _parse_length),
    ("geometry", "theta", "theta", _parse_angle),
    ("geometry", "t", "t", _parse_length),
    ("array", "architecture", "architecture", _parse_architecture),
    ("array", "n_elements", "n_elements", _parse_int),
    ("array", "spacing", "n_elements", _parse_spacing),
    ("discretization", "n_scene", "n_scene", _parse_int),
    ("discretization", "kspace_samples", "kspace_samples", _parse_int),
    ("discretization", "sbp_points", "sbp_points", _parse_int),
    ("run", "out_dir", "out_dir", lambda text, *_: text.strip()),
    ("run", "seed", "seed", _parse_int),
    ("run", "svg", "svg", _parse_bool),
    ("run", "analyses", "analyses", _parse_analyses),
    ("sweep", "param", "sweep_param", _parse_sweep_param),
    ("sweep", "values", "sweep_values", _parse_sweep_values),
    ("sweep", "include_fresnel", "sweep_include_fresnel", _parse_bool),
    ("sweep", "include_theta", "sweep_include_theta", _parse_bool),
    ("resolution", "n_targets", "res_n_targets", _parse_int),
    ("resolution", "oversample", "res_oversample", _parse_int),
    ("resolution", "methods", "res_methods", _parse_list),
    ("kspace", "point_u", "kspace_point_u", _parse_length),
)

# Range checks in the order validate() applies them: (is_bad, message).
_RANGE_CHECKS = (
    (lambda c: c.wavelength <= 0.0, "[geometry] lambda: must be positive"),
    (lambda c: c.L1 <= 0.0, "[geometry] L1: must be positive"),
    (lambda c: c.L2 <= 0.0, "[geometry] L2: empty scene, must be positive"),
    (lambda c: c.D <= 0.0, "[geometry] D: must be positive"),
    (lambda c: abs(c.theta) > 0.5 * math.pi, "[geometry] theta: |theta| must be <= 90 deg"),
    (lambda c: c.n_elements < 1, "[array] n_elements: must be >= 1"),
    (lambda c: c.n_scene < 2, "[discretization] n_scene: must be >= 2"),
    (lambda c: c.kspace_samples < 2, "[discretization] kspace_samples: must be >= 2"),
    (lambda c: c.sbp_points < 16, "[discretization] sbp_points: must be >= 16"),
    (lambda c: c.res_oversample < 1, "[resolution] oversample: must be >= 1"),
    (lambda c: c.res_n_targets < 1, "[resolution] n_targets: must be >= 1"),
)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters (SI units, radians)."""

    wavelength: float = 0.005
    L1: float = 0.15
    L2: float = 0.10
    D: float = 0.20
    theta: float = 0.0
    t: float = 0.0
    architecture: str = "both"
    n_elements: int = 200
    n_scene: int = 400
    kspace_samples: int = 512
    sbp_points: int = 512
    out_dir: str = "results"
    seed: int = 0
    svg: bool = True
    analyses: tuple | None = None
    sweep_param: str | None = None
    sweep_values: tuple = ()
    sweep_include_fresnel: bool = False
    sweep_include_theta: bool = False
    res_n_targets: int = 21
    res_oversample: int = 4
    res_methods: tuple = ("pinv", "mf")
    kspace_point_u: float = 0.0
    source: str = field(default="<defaults>", repr=False)

    def validate(self):
        # each swept value must pass the same checks as the key it overrides
        param, unit = self.sweep_param, "rad" if self.sweep_param == "theta" else "m"
        swept = [(replace(self, **{param: v}), f"[sweep] values: {param} = {v:.9g} {unit} breaks ")
                 for v in self.sweep_values]
        for cfg, prefix in [(self, ""), *swept]:
            for is_bad, message in _RANGE_CHECKS:
                if is_bad(cfg):
                    raise ConfigError(prefix + message)
        for m in self.res_methods:
            if m not in ("pinv", "mf"):
                raise ConfigError(f"[resolution] methods: unknown method {m!r}")
        if abs(self.kspace_point_u) > self.L2 / 2.0:
            raise ConfigError("[kspace] point_u: outside the scene segment")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case: L1 vs l1 must not alias
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        # configparser copies [DEFAULT] keys into every section
        if parser.defaults():
            raise ConfigError("[DEFAULT]: unknown section")
        known = {(section, key) for section, key, _, _ in _FIELDS}
        sections = {section for section, _ in known}
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"[{section}]: unknown section")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ConfigError(f"[{section}] {key}: unknown key")

        got = {}
        for section, key, attr, parse in _FIELDS:
            text = parser.get(section, key, fallback=None)
            if text is not None:
                got[attr] = parse(text, f"[{section}] {key}", got)
        cfg = cls(source=str(path), **got)
        cfg.validate()
        return cfg

    # geometry builders -------------------------------------------------
    def wave(self) -> WaveContext:
        return WaveContext(self.wavelength)

    def aperture(self) -> Aperture:
        return Aperture.centered(self.L1, self.D)

    def scene(self) -> SceneSegment:
        return SceneSegment(self.L2 / 2.0, self.theta, self.t)

    def architectures(self, override: str | None = None) -> tuple:
        token = override if override else self.architecture
        if token in _ARCH_TOKENS:
            token = _ARCH_TOKENS[token]
        if token == "both":
            return (MONOSTATIC, MULTISTATIC)
        return (token,)

    def layout(self, architecture: str) -> ArrayLayout:
        return ArrayLayout.uniform(self.aperture(), self.n_elements, architecture)


def _write_csv(path: Path, header: list, *columns) -> Path:
    """CSV of equal-length columns: integer and bool columns as %d, the
    rest as %.9g."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.9g" for c in columns)
    rows = (line % row for row in zip(*(c.tolist() for c in columns)))
    path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _arch_token(architecture: str) -> str:
    return "mono" if architecture == MONOSTATIC else "multi"


def _geometry_payload(cfg: ExperimentConfig) -> dict:
    return {
        "lambda": cfg.wavelength,
        "L1": cfg.L1,
        "L2": cfg.L2,
        "D": cfg.D,
        "theta_deg": math.degrees(cfg.theta),
        "t": cfg.t,
        "n_elements": cfg.n_elements,
        "n_scene": cfg.n_scene,
    }


def _check(condition: bool, message: str):
    """Internal consistency check; failures make the command exit nonzero."""
    if not condition:
        raise RuntimeError(f"internal consistency check failed: {message}")


def cmd_svd(cfg: ExperimentConfig, out: Path, archs: tuple) -> list:
    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    sbp_res = compute_sbp(scene, aperture, wave, cfg.sbp_points)
    written = []
    arch_payload = {}
    svg_series = []
    for arch in archs:
        op = build_operator(scene, cfg.layout(arch), wave, cfg.n_scene)
        spectrum = svd(op)
        sig = spectrum.singular_values
        expected = (
            cfg.L1 * cfg.L2 if arch == MONOSTATIC else cfg.L1 ** 2 * cfg.L2
        )
        _check(
            abs(spectrum.hs_norm_sq - expected) <= 0.01 * expected,
            f"{arch} operator norm deviates from the analytic value",
        )
        token = _arch_token(arch)
        written.append(_write_csv(
            out / f"svd_{token}.csv",
            ["index", "sigma", "sigma_normalized"],
            np.arange(1, sig.size + 1), sig, sig / sig[0],
        ))
        arch_payload[token] = {
            "sigma_bar": sigma_bar(spectrum),
            "sigma_bar_sq": sigma_bar_sq(spectrum),
            "knee_index": dof_knee(spectrum),
            "n_singular_values": int(sig.size),
            "hs_norm_sq": spectrum.hs_norm_sq,
        }
        svg_series.append({
            "x": np.arange(1, sig.size + 1),
            "y": sig / sig[0],
            "label": token,
        })
    payload = {
        "geometry": _geometry_payload(cfg),
        "geometry_class": scene.geometry_class,
        "sbp": sbp_res.value,
        "sbp_method": sbp_res.method,
        "fresnel_dof": fresnel_dof(cfg.L1, cfg.L2, cfg.D, cfg.wavelength),
        "architectures": arch_payload,
    }
    written.append(_write_json(out / "dof.json", payload))
    if cfg.svg:
        doc = _svg.plot_lines(
            svg_series,
            title="Normalized singular values",
            xlabel="index",
            ylabel="sigma / sigma_1",
            ylog=True,
            vlines=[(sbp_res.value, f"SBP = {sbp_res.value:.1f}")],
            y_floor=1e-10,
        )
        svg_path = out / "svd.svg"
        svg_path.write_text(doc)
        written.append(svg_path)
    return written


def cmd_sbp_sweep(cfg: ExperimentConfig, out: Path) -> list:
    param, values = cfg.sweep_param, cfg.sweep_values
    if not param or not len(values):
        raise ConfigError("[sweep] param/values: required for sbp-sweep")
    _parse_sweep_param(param, "[sweep] param")

    wave = cfg.wave()
    header = ["param_value", "sbp"]
    if cfg.sweep_include_fresnel:
        header.append("fresnel_approx")
    if cfg.sweep_include_theta:
        header.extend(["theta_heu", "theta_max"])

    rows = []
    for value in values:
        # sweep parameters are named after the attributes they override
        at = replace(cfg, **{param: value})
        aperture, scene = at.aperture(), at.scene()
        row = [value, compute_sbp(scene, aperture, wave, cfg.sbp_points).value]
        if cfg.sweep_include_fresnel:
            row.append(sbp_g3_fresnel(at.L1, at.L2, at.D, cfg.wavelength, at.theta))
        if cfg.sweep_include_theta:
            row.append(theta_heu(at.t, at.D))
            row.append(theta_max(at.t, scene, aperture, wave, cfg.sbp_points))
        rows.append(row)
    return [_write_csv(out / "sbp_sweep.csv", header, *zip(*rows))]


def cmd_kspace(cfg: ExperimentConfig, out: Path) -> list:
    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    point = scene.point(cfg.kspace_point_u)
    mono = mono_spectrum(point, aperture, wave)
    n = cfg.kspace_samples
    mono_pts = mono.arc_samples(n)

    # the written multi grid is decimated; checks below use the full density
    multi_out = multi_spectrum(point, aperture, wave, min(n, 96))

    rng = np.random.default_rng(cfg.seed)
    multi_full = multi_spectrum(point, aperture, wave, n)
    angles = [scene_projection_angle(scene), 0.0]
    angles.extend(rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 3))
    for ang in angles:
        lo_m, hi_m = project_points_onto_line(mono_pts, ang)
        lo_x, hi_x = project_points_onto_line(multi_full.samples, ang)
        _check(
            abs((hi_m - lo_m) - (hi_x - lo_x)) <= 1e-9 * wave.k,
            f"mono/multi projected widths diverge at line angle {ang:.3f}",
        )

    written = [
        _write_csv(out / "kspace_mono.csv", ["kx", "kz"], *mono_pts.T),
        _write_csv(out / "kspace_multi.csv", ["kx", "kz"], *multi_out.samples.T),
    ]
    u_grid = np.linspace(-scene.half_length, scene.half_length, 101)
    pts = scene.points(u_grid)
    b = bandwidth(pts, scene, aperture, wave)
    written.append(_write_csv(
        out / "bandwidth.csv", ["u", "x", "z", "bandwidth", "reciprocal"],
        u_grid, *pts.T, b, 1.0 / b,
    ))
    return written


def cmd_fresnel(cfg: ExperimentConfig, out: Path) -> list:
    wave = cfg.wave()
    if cfg.theta != 0.0:
        raise ConfigError("[geometry] theta: fresnel analysis needs a parallel scene")
    layout = cfg.layout(MULTISTATIC)
    scene = cfg.scene()
    report_f = fresnel_equivalence_check(layout, scene, wave, n_scene=cfg.n_scene)
    report_e = fresnel_equivalence_check(layout, scene, wave, kernel="exact",
                                         n_scene=cfg.n_scene)
    _check(
        report_f.max_rel_discrepancy <= 1e-6,
        "effective-aperture equivalence broken for the Fresnel kernel",
    )

    eff = report_f.effective
    payload = {
        "geometry": _geometry_payload(cfg),
        "fresnel_dof": fresnel_dof(cfg.L1, cfg.L2, cfg.D, cfg.wavelength),
        "sbp_g3_fresnel_at_theta": sbp_g3_fresnel(
            cfg.L1, cfg.L2, cfg.D, cfg.wavelength, cfg.theta),
        "sbp_closed_form_g1": compute_sbp(
            SceneSegment(cfg.L2 / 2.0), cfg.aperture(), wave).value,
        "equivalence": {
            "fresnel_kernel_max_rel_discrepancy": report_f.max_rel_discrepancy,
            "exact_kernel_max_rel_discrepancy": report_e.max_rel_discrepancy,
        },
        "effective_aperture_size": int(eff.positions.size),
        "effective_aperture_total": eff.total,
    }
    return [
        _write_json(out / "fresnel.json", payload),
        _write_csv(out / "effective_aperture.csv",
                   ["position", "multiplicity"],
                   eff.positions, eff.multiplicities),
    ]


def cmd_resolution(cfg: ExperimentConfig, out: Path, archs: tuple) -> list:
    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    written = []
    curves = {}
    for arch in archs:
        curve = resolution_sweep(
            scene, aperture, wave, cfg.layout(arch),
            methods=cfg.res_methods,
            n_scene=cfg.n_scene,
            n_targets=cfg.res_n_targets,
            oversample=cfg.res_oversample,
        )
        curves[arch] = curve
        token = _arch_token(arch)
        for method in cfg.res_methods:
            mags = np.abs(curve.profiles[method])
            header = ["u"] + [f"scat_{p:.9g}" for p in curve.positions]
            written.append(_write_csv(
                out / f"psf_{method}_{token}.csv", header, curve.profile_coords, *mags.T))

    first = curves[archs[0]]
    recip_b = 1.0 / bandwidth(scene.points(first.positions), scene, aperture, wave)
    _check(
        np.all(np.abs(first.reciprocal_bandwidth - recip_b) <= 1e-12),
        "reciprocal bandwidth column inconsistent with the kspace module",
    )

    header = ["position", "reciprocal_bandwidth"]
    cols = [first.positions, first.reciprocal_bandwidth]
    for arch in archs:
        token = _arch_token(arch)
        for method in cfg.res_methods:
            header.append(f"width_{method}_{token}")
            cols.append(curves[arch].widths[method])
            header.append(f"flag_{method}_{token}")
            cols.append(curves[arch].flagged[method])
    written.append(_write_csv(out / "resolution.csv", header, *cols))
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperture-dof",
        description="DoF, SBP, k-space and resolution analysis of 1D imaging arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("svd", "singular-value spectrum, DoF estimators, dof.json"),
        ("sbp-sweep", "space-bandwidth product over a parameter sweep"),
        ("kspace", "k-space sample sets and per-point bandwidth"),
        ("fresnel", "Fresnel DoF and effective-aperture equivalence"),
        ("resolution", "PSF beamwidths against the 1/B benchmark"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--arch", default=None, choices=["mono", "multi", "both"],
                       help="architecture override")
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.analyses is not None and args.command not in cfg.analyses:
            raise ConfigError(
                f"[run] analyses: {args.command!r} not enabled in this config")
        out = Path(args.out if args.out else cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        archs = cfg.architectures(args.arch)
        if args.command == "svd":
            files = cmd_svd(cfg, out, archs)
        elif args.command == "sbp-sweep":
            files = cmd_sbp_sweep(cfg, out)
        elif args.command == "kspace":
            files = cmd_kspace(cfg, out)
        elif args.command == "fresnel":
            files = cmd_fresnel(cfg, out)
        else:
            files = cmd_resolution(cfg, out, archs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
