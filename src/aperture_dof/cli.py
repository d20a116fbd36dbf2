"""Command-line front end: config parsing, analysis commands, file outputs.

Subcommands: svd, sbp-sweep, kspace, fresnel, resolution, each declared
once, as a row of _COMMANDS that main dispatches on.  Each reads a
sectioned key = value config file (units accepted on lengths and angles)
and returns its outputs as {file name: text}: CSV tables (canonical) and,
for svd, an optional SVG plot.  main writes them only once the command has
returned, so exit code 0 means every requested analysis completed and the
built-in consistency checks passed, and a run that exits 1 or 2 writes no
file.  Each config key is declared once, with its section, default, parser
and range checks, in the _FIELDS row of the ExperimentConfig field it sets.
Config errors exit 2 and name the offending key.

numpy is imported where arrays are built: in cmd_svd, cmd_kspace and
cmd_resolution, and in the layers they and cmd_fresnel call; json where
svd and fresnel write it.  Importing this module, reading a config and
running sbp-sweep load neither numpy nor json, and no command loads
dataclasses: the config and every value type are namedtuples.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import random
import re
import sys
from collections import namedtuple
from pathlib import Path

from . import _svg, fresnel, kspace, operator, recon, sbp
from .geometry import MONOSTATIC, MULTISTATIC, TWO_PI, Aperture, SceneSegment, WaveContext


class ConfigError(Exception):
    """Invalid experiment config; message names the offending section/key."""


_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6}
_NUM_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Z]*)\s*$")


def _parse_number(text: str, where: str, kind: str) -> tuple:
    """(value, unit suffix) of a number with an optional alphabetic unit."""
    m = _NUM_RE.match(text)
    if m:
        try:
            value = float(m.group(1))
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise ConfigError(f"{where}: {kind} {text!r} is not finite")
            return value, m.group(2)
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{where}: expected boolean, got {text!r}") from None


def _parse_list(text: str, *_) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# [array] architecture and --arch take the same tokens
_ARCH_TOKENS = {
    "mono": (MONOSTATIC,),
    "multi": (MULTISTATIC,),
    "both": (MONOSTATIC, MULTISTATIC),
}

# The command set: name -> (help, runs per architecture).  main runs
# cmd_<name>, looked up when it runs; a per-architecture command takes
# --arch and is passed the architectures to run (kspace and fresnel always
# use both, sbp-sweep neither).
_COMMANDS = {
    "svd": ("singular-value spectrum, DoF estimators, dof.json", True),
    "sbp-sweep": ("space-bandwidth product over a parameter sweep", False),
    "kspace": ("k-space sample sets and per-point bandwidth", False),
    "fresnel": ("Fresnel DoF and effective-aperture equivalence", False),
    "resolution": ("PSF beamwidths against the 1/B benchmark", True),
}


def _one_of(names):
    """Parser of one token, one of `names`."""
    def parse(text: str, where: str, *_) -> str:
        token = text.strip()
        if token not in names:
            *head, last = names
            raise ConfigError(f"{where}: unknown value {text!r}, "
                              f"expected {', '.join(head)} or {last}")
        return token
    return parse


def _name_list(noun: str, names: tuple):
    """Parser of a comma list of distinct names, each one of `names`."""
    def parse(text: str, where: str, *_) -> tuple:
        items = _parse_list(text)
        if not items:
            raise ConfigError(f"{where}: must name at least one {noun}")
        for i, item in enumerate(items):
            if item not in names:
                raise ConfigError(f"{where}: unknown {noun} {item!r}")
            if item in items[:i]:
                raise ConfigError(f"{where}: {noun} {item!r} given twice")
        return items
    return parse


def _parse_sweep_values(text: str, where: str, got: dict) -> tuple:
    param = got.get("sweep_param")
    if param is None:
        raise ConfigError(f"{where}: param must be set first")
    parse = _parse_angle if param == "theta" else _parse_length
    return tuple(parse(v, where) for v in _parse_list(text))


# One row of _FIELDS: a field's default, the one [section] key that sets it,
# that key's parser and the field's range checks as (is_bad(config), tail).
_Field = namedtuple("_Field", "default section key parse checks")


def _key(default, section: str, key: str, parse, *checks) -> _Field:
    """A field set by [section] key.  A parser takes (text, "[section] key",
    the values parsed so far by attribute; only sweep values read them); a
    check is (is_bad(config), tail)."""
    return _Field(default, section, key, parse, checks)


# The config table: ExperimentConfig's fields in parse order, each declared
# once, as attribute -> _Field.  source, the path read, is the one field that
# no key sets.
_FIELDS = {
    "wavelength": _key(0.005, "geometry", "lambda", _parse_length,
                       (lambda c: c.wavelength <= 0.0, "must be positive"),
                       (lambda c: not math.isfinite(TWO_PI / c.wavelength),
                        "too small, the wavenumber 2*pi/lambda overflows"),
                       (lambda c: TWO_PI * c.D / c.wavelength > 1e12,
                        "too small for the standoff, 2*pi*D/lambda exceeds 1e12")),
    "L1": _key(0.15, "geometry", "L1", _parse_length,
               (lambda c: c.L1 <= 0.0, "must be positive")),
    "L2": _key(0.10, "geometry", "L2", _parse_length,
               (lambda c: c.L2 <= 0.0, "empty scene, must be positive")),
    "D": _key(0.20, "geometry", "D", _parse_length,
              (lambda c: c.D <= 0.0, "must be positive")),
    "theta": _key(
        0.0, "geometry", "theta", _parse_angle,
        (lambda c: abs(c.theta) > 0.5 * math.pi, "|theta| must be <= 90 deg"),
        (lambda c: c.L2 / 2.0 * abs(math.sin(c.theta)) >= c.D,
         "the tilted scene reaches the aperture plane, (L2/2)|sin theta| must be < D")),
    "t": _key(0.0, "geometry", "t", _parse_length),
    "architecture": _key("both", "array", "architecture", _one_of(_ARCH_TOKENS)),
    "n_elements": _key(200, "array", "n_elements", _parse_int,
                       (lambda c: c.n_elements < 1, "must be >= 1")),
    "n_scene": _key(400, "discretization", "n_scene", _parse_int,
                    (lambda c: c.n_scene < 2, "must be >= 2")),
    "kspace_samples": _key(512, "discretization", "kspace_samples", _parse_int,
                           (lambda c: c.kspace_samples < 2, "must be >= 2")),
    "out_dir": _key("results", "run", "out_dir", lambda text, *_: text.strip(),
                    (lambda c: not c.out_dir, "must not be empty")),  # Path("") is the cwd
    "seed": _key(0, "run", "seed", _parse_int),
    "svg": _key(True, "run", "svg", _parse_bool),
    "analyses": _key(None, "run", "analyses", _name_list("analysis", tuple(_COMMANDS))),
    "sweep_param": _key(None, "sweep", "param", _one_of(("t", "D", "L2", "theta"))),
    "sweep_values": _key((), "sweep", "values", _parse_sweep_values),
    "sweep_include_fresnel": _key(False, "sweep", "include_fresnel", _parse_bool),
    "sweep_include_theta": _key(False, "sweep", "include_theta", _parse_bool),
    "res_n_targets": _key(21, "resolution", "n_targets", _parse_int,
                          (lambda c: c.res_n_targets < 1, "must be >= 1")),
    "res_oversample": _key(4, "resolution", "oversample", _parse_int,
                           (lambda c: c.res_oversample < 1, "must be >= 1")),
    "res_methods": _key(("pinv", "mf"), "resolution", "methods",
                        _name_list("method", ("pinv", "mf"))),
    "kspace_point_u": _key(0.0, "kspace", "point_u", _parse_length),
    "source": _Field("<defaults>", None, None, None, ()),
}


class ExperimentConfig(namedtuple("ExperimentConfig", _FIELDS,
                                  defaults=[f.default for f in _FIELDS.values()])):
    """Fully resolved experiment parameters (SI units, radians); fields in
    parse order, as _FIELDS declares them.

    A namedtuple, as every value type of the package is, so no command
    loads dataclasses: immutable, hashable, keyword-constructible, and a copy
    with fields changed is _replace(**changes).  Its equality is a tuple's;
    every comparison is between two configs."""

    __slots__ = ()

    def validate(self):
        # each swept value must pass the same checks as the key it overrides
        param, unit = self.sweep_param, "rad" if self.sweep_param == "theta" else "m"
        swept = [(cfg, f"[sweep] values: {param} = {v:.9g} {unit} breaks ")
                 for v, cfg in self.sweep()]
        for cfg, prefix in [(self, ""), *swept]:
            for is_bad, message in _CHECKS:
                if is_bad(cfg):
                    raise ConfigError(prefix + message)
        if abs(self.kspace_point_u) > self.L2 / 2.0:
            raise ConfigError("[kspace] point_u: outside the scene segment")

    def sweep(self) -> list:
        """(value, this config with the [sweep] param set to value) for each
        [sweep] value, in order: the one sweep driver, for validate() and
        every command that sweeps.  Sweep parameters are named after the
        attributes they override."""
        return [(v, self._replace(**{self.sweep_param: v})) for v in self.sweep_values]

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case: L1 vs l1 must not alias
        try:
            found = parser.read(path)
        except configparser.Error as exc:
            # a repeated key or section, a line outside any section or a key
            # without '=': configparser's message names the file and line
            raise ConfigError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not found:
            raise ConfigError(f"config file not found: {path}")
        # configparser copies [DEFAULT] keys into every section
        if parser.defaults():
            raise ConfigError("[DEFAULT]: unknown section")
        known = {(section, key) for section, key, _, _ in _KEYS}
        sections = {section for section, _ in known}
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"[{section}]: unknown section")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ConfigError(f"[{section}] {key}: unknown key")

        got = {}
        for section, key, attr, parse in _KEYS:
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
        return _ARCH_TOKENS[override or self.architecture]

    def layout(self, architecture: str) -> operator.ArrayLayout:
        return operator.ArrayLayout.uniform(self.aperture(), self.n_elements, architecture)


# Built once from _FIELDS: every accepted key as (section, key, attribute,
# parser) in parse order, and validate()'s range checks as (is_bad,
# "[section] key: tail"), each named after its field's key.
_KEYS = tuple((f.section, f.key, name, f.parse) for name, f in _FIELDS.items() if f.key)
_CHECKS = tuple((is_bad, f"[{f.section}] {f.key}: {tail}")
                for f in _FIELDS.values() for is_bad, tail in f.checks)


def _csv(header: list, *columns) -> str:
    """CSV of equal-length columns, each an array or a sequence: a column of
    Python ints and bools (an integer or bool array's tolist()) as %d, any
    other as %.9g."""
    columns = [c.tolist() if hasattr(c, "tolist") else list(c) for c in columns]
    line = ",".join("%d" if all(isinstance(v, int) for v in c) else "%.9g" for c in columns)
    rows = (line % row for row in zip(*columns))
    return "\n".join([",".join(header), *rows]) + "\n"


def _json(payload: dict) -> str:
    import json  # only svd and fresnel write JSON: about 3 ms of start-up spared

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
    """Internal consistency check; a failure makes the run exit 1 before
    main writes any file."""
    if not condition:
        raise RuntimeError(f"internal consistency check failed: {message}")


def _positive_sbp(cfg: ExperimentConfig) -> sbp.SbpResult:
    """The scene's SBP, refused with ValueError when it is not positive: a
    scene far beyond the aperture's reach rounds every bandwidth to 0, and
    its operator's phases to noise.  A plain-float closed form, checked
    before any operator is built."""
    result = sbp.compute_sbp(cfg.scene(), cfg.aperture(), cfg.wave())
    if not result.value > 0.0:
        raise ValueError(f"space-bandwidth product SBP = {result.value:.9g} <= 0: the scene "
                         "lies beyond the aperture's reach, it has no degree of freedom")
    return result


def cmd_svd(cfg: ExperimentConfig, archs: tuple) -> dict:
    import numpy as np

    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    sbp_res = _positive_sbp(cfg)
    files = {}
    arch_payload = {}
    svg_series = []
    for arch in archs:
        op = operator.build_operator(scene, cfg.layout(arch), wave, cfg.n_scene)
        spectrum = operator.svd(op, vectors=False)
        sig = spectrum.singular_values
        expected = (
            cfg.L1 * cfg.L2 if arch == MONOSTATIC else cfg.L1 ** 2 * cfg.L2
        )
        _check(
            abs(spectrum.hs_norm_sq - expected) <= 0.01 * expected,
            f"{arch} operator norm deviates from the analytic value",
        )
        token = _arch_token(arch)
        files[f"svd_{token}.csv"] = _csv(
            ["index", "sigma", "sigma_normalized"],
            np.arange(1, sig.size + 1), sig, sig / sig[0],
        )
        arch_payload[token] = {
            "sigma_bar": operator.sigma_bar(spectrum),
            "sigma_bar_sq": operator.sigma_bar_sq(spectrum),
            "knee_index": operator.dof_knee(spectrum),
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
        "fresnel_dof": sbp.fresnel_dof(cfg.L1, cfg.L2, cfg.D, cfg.wavelength),
        "architectures": arch_payload,
    }
    files["dof.json"] = _json(payload)
    if cfg.svg:
        files["svd.svg"] = _svg.plot_lines(
            svg_series,
            title="Normalized singular values",
            xlabel="index",
            ylabel="sigma / sigma_1",
            vlines=[(sbp_res.value, f"SBP = {sbp_res.value:.1f}")],
            y_floor=1e-10,
        )
    return files


def cmd_sbp_sweep(cfg: ExperimentConfig) -> dict:
    if not cfg.sweep_param or not cfg.sweep_values:
        raise ConfigError("[sweep] param/values: required for sbp-sweep")
    wave = cfg.wave()
    header = ["param_value", "sbp"]
    if cfg.sweep_include_fresnel:
        header.append("fresnel_approx")
    if cfg.sweep_include_theta:
        header.extend(["theta_heu", "theta_max"])

    rows = []
    # theta_max ignores the tilt, so a theta sweep needs it only once
    best_tilt = {}
    for value, at in cfg.sweep():
        aperture, scene = at.aperture(), at.scene()
        row = [value, sbp.compute_sbp(scene, aperture, wave).value]
        if cfg.sweep_include_fresnel:
            row.append(sbp.sbp_g3_fresnel(at.L1, at.L2, at.D, cfg.wavelength, at.theta))
        if cfg.sweep_include_theta:
            row.append(sbp.theta_heu(at.t, at.D))
            key = (at.t, at.L2, at.D)
            if key not in best_tilt:
                best_tilt[key] = sbp.theta_max(scene, aperture, wave)
            row.append(best_tilt[key])
        rows.append(row)
    return {"sbp_sweep.csv": _csv(header, *zip(*rows))}


def cmd_kspace(cfg: ExperimentConfig) -> dict:
    import numpy as np

    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    point = scene.point(cfg.kspace_point_u)
    n = cfg.kspace_samples
    mono_pts = kspace.mono_spectrum(point, aperture, wave, n)

    # the written multi grid is decimated; checks below use the full density
    multi_out = kspace.multi_spectrum(point, aperture, wave, min(n, 96))

    # stdlib random, loaded at start-up, spares the numpy.random import
    rng = random.Random(cfg.seed)
    multi_full = kspace.multi_spectrum(point, aperture, wave, n)
    angles = [kspace.scene_projection_angle(scene), 0.0]
    angles.extend(rng.uniform(-0.5 * math.pi, 0.5 * math.pi) for _ in range(3))
    for ang in angles:
        lo_m, hi_m = kspace.project_points_onto_line(mono_pts, ang)
        lo_x, hi_x = kspace.project_points_onto_line(multi_full, ang)
        _check(
            abs((hi_m - lo_m) - (hi_x - lo_x)) <= 1e-9 * wave.k,
            f"mono/multi projected widths diverge at line angle {ang:.3f}",
        )

    u_grid = np.linspace(-scene.half_length, scene.half_length, 101)
    pts = scene.points(u_grid)
    b = kspace.bandwidth(pts, kspace.scene_projection_angle(scene), aperture, wave)
    kspace.require_positive(b, u_grid)
    return {
        "kspace_mono.csv": _csv(["kx", "kz"], *mono_pts.T),
        "kspace_multi.csv": _csv(["kx", "kz"], *multi_out.T),
        "bandwidth.csv": _csv(["u", "x", "z", "bandwidth", "reciprocal"],
                              u_grid, *pts.T, b, 1.0 / b),
    }


def _fresnel_payload(cfg: ExperimentConfig) -> tuple:
    """fresnel.json's payload and the effective aperture of one parallel
    geometry, once its Fresnel-kernel equivalence check has passed."""
    _positive_sbp(cfg)
    report = fresnel.fresnel_equivalence_check(
        cfg.layout(MULTISTATIC), cfg.scene(), cfg.wave(), cfg.n_scene)
    _check(
        report.max_rel_discrepancy["fresnel"] <= 1e-6,
        "effective-aperture equivalence broken for the Fresnel kernel",
    )

    eff = report.effective
    payload = {
        "geometry": _geometry_payload(cfg),
        "fresnel_dof": sbp.fresnel_dof(cfg.L1, cfg.L2, cfg.D, cfg.wavelength),
        "sbp_g3_fresnel_at_theta": sbp.sbp_g3_fresnel(
            cfg.L1, cfg.L2, cfg.D, cfg.wavelength, cfg.theta),
        "sbp_closed_form_g1": sbp.sbp_closed_form_g1(cfg.L1, cfg.L2, cfg.D, cfg.wavelength),
        "equivalence": {f"{kernel}_kernel_max_rel_discrepancy": value
                        for kernel, value in report.max_rel_discrepancy.items()},
        "effective_aperture_size": int(eff.positions.size),
        "effective_aperture_total": eff.total,
    }
    return payload, eff


def cmd_fresnel(cfg: ExperimentConfig) -> dict:
    if cfg.theta != 0.0:
        raise ConfigError("[geometry] theta: fresnel analysis needs a parallel scene")
    if cfg.sweep_param == "theta":
        raise ConfigError("[sweep] param: fresnel analysis needs a parallel scene, "
                          "theta cannot be swept")
    payload, eff = _fresnel_payload(cfg)
    files = {
        "fresnel.json": _json(payload),
        "effective_aperture.csv": _csv(["position", "multiplicity"],
                                       eff.positions, eff.multiplicities),
    }
    columns = ("fresnel_dof", "exact_kernel_max_rel_discrepancy",
               "fresnel_kernel_max_rel_discrepancy")
    rows = []
    for value, at in cfg.sweep():
        # a swept value equal to the base reuses the base geometry's payload
        swept = payload if at == cfg else _fresnel_payload(at)[0]
        by_column = {"fresnel_dof": swept["fresnel_dof"], **swept["equivalence"]}
        rows.append([value, *(by_column[c] for c in columns)])
    if rows:
        files["fresnel_sweep.csv"] = _csv(["param_value", *columns], *zip(*rows))
    return files


def cmd_resolution(cfg: ExperimentConfig, archs: tuple) -> dict:
    import numpy as np

    wave, aperture, scene = cfg.wave(), cfg.aperture(), cfg.scene()
    curves = {
        arch: recon.resolution_sweep(
            scene, wave, cfg.layout(arch),
            methods=cfg.res_methods,
            n_scene=cfg.n_scene,
            n_targets=cfg.res_n_targets,
            oversample=cfg.res_oversample,
        )
        for arch in archs
    }

    # independent 1/B reference: B = (2/lambda) * the spread of the
    # element-to-point unit vectors of a densely sampled aperture, projected
    # on the scene's non-redundant direction (cos(-theta), sin(-theta)),
    # one target at a time so no temporary spans all targets
    first = curves[archs[0]]
    xs = np.linspace(aperture.a1, aperture.a2, 4097)
    for (x, z), recip in zip(scene.points(first.positions), first.reciprocal_bandwidth):
        dx, dz = x - xs, z - aperture.z_plane
        proj = (dx * math.cos(-scene.theta) + dz * math.sin(-scene.theta)) / np.hypot(dx, dz)
        b_ref = (2.0 / cfg.wavelength) * (proj.max() - proj.min())
        _check(
            abs(b_ref * recip - 1.0) <= 1e-6,
            "reciprocal bandwidth column deviates from the aperture-sampled reference",
        )
    # a Gram or spectrum that over- or underflowed images to NaN, whose
    # widths would only read as flagged
    for arch, curve in curves.items():
        for method, psf in curve.profiles.items():
            _check(bool(np.isfinite(psf).all()), f"{arch} {method} PSFs are not finite")

    # formatted after the check: its temporaries and the tables' text would add up at the peak
    files = {}
    for arch, curve in curves.items():
        header = ["u"] + [f"scat_{p:.9g}" for p in curve.positions]
        for method in cfg.res_methods:
            files[f"psf_{method}_{_arch_token(arch)}.csv"] = _csv(
                header, curve.profile_coords, *np.abs(curve.profiles[method]).T)

    header = ["position", "reciprocal_bandwidth"]
    cols = [first.positions, first.reciprocal_bandwidth]
    for arch in archs:
        token = _arch_token(arch)
        for method in cfg.res_methods:
            header.append(f"width_{method}_{token}")
            cols.append(curves[arch].widths[method])
            header.append(f"flag_{method}_{token}")
            cols.append(curves[arch].flagged[method])
    files["resolution.csv"] = _csv(header, *cols)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperture-dof",
        description="DoF, SBP, k-space and resolution analysis of 1D imaging arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, per_arch) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        if per_arch:
            p.add_argument("--arch", default=None, choices=list(_ARCH_TOKENS),
                           help="architecture override")
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            # refused, as an empty [run] out_dir is, not taken as "no --out"
            raise ConfigError("--out: must not be empty")
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.analyses is not None and args.command not in cfg.analyses:
            raise ConfigError(f"[run] analyses: {args.command!r} not enabled in this config")
        # looked up now, not stored in the table, so a wrapped cmd_* is the one run
        run = globals()["cmd_" + args.command.replace("-", "_")]
        per_arch = _COMMANDS[args.command][1]
        files = run(cfg, cfg.architectures(args.arch)) if per_arch else run(cfg)
        # every check has passed: the one place that writes files
        out = Path(cfg.out_dir if args.out is None else args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in files:
        print(out / name)
    return 0


def run():
    """Process entry of `aperture-dof` and `python -m aperture_dof.cli`: main's
    exit code, once stdout and stderr are flushed, without interpreter
    teardown.  Every output file is closed by then, so os._exit skips only
    unloading numpy's modules and joining the idle BLAS workers.  An
    exception from main propagates as it would from sys.exit(main())."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start-up
                stream.flush()
    except OSError:
        # a reader that closed its end: the interpreter's exit flush fails
        # again, reports it and exits 120, as it does without run()
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
