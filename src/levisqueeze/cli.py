"""Command line front end.

    levisqueeze <command> [figure-id] [--config cfg.json] [--set key=value]...
                [--out path] [--format csv|json]

Commands: evolve, steady, stability, threshold, sweep, figure, mc-validate.
Configuration is one flat JSON object whose keys are the SystemParams fields
(with q_m accepted alongside gamma) plus run controls; --set overrides
config entries and --out/--format override their config counterparts.  Every
data file is accompanied by a sidecar JSON that doubles as a config: running
the same command with the sidecar reproduces the data file byte for byte.

Exit codes: 0 success, 2 invalid configuration, parameters or files, 3
numerical failure (diverged integration, no steady state, ensemble mismatch).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import _default_dt, evolve, find_threshold, stability, steady_state
from .errors import (
    BasisError,
    BracketError,
    ConfigError,
    CovarianceError,
    IntegrationError,
    NumericalError,
    ParameterError,
    UnstableModelError,
)
from .figures import FIGURES, run_figure
from .figures import RUN_KEYS as FIGURE_RUN_KEYS
from .metrics import (
    TRAJECTORY_COLUMNS,
    SweepAxis,
    mechanical_block,
    mechanical_trajectory,
    squeezing_metrics,
    sweep,
)
from .models import (
    FREQUENCY_VARIANTS,
    SystemParams,
    build_eliminated_modulated,
    builder_for,
    initial_covariance,
)
from .montecarlo import EM_RESOLUTION, EnsembleSpec, compare, simulate_ensemble

#: The SystemParams fields, with the quality factor q_m accepted alongside gamma.
PARAM_KEYS = tuple(f.name for f in fields(SystemParams)) + ("q_m",)
#: Run controls by value type: integers, other finite numbers, strings, and
#: the axis_values list of numbers.
INTEGER_KEYS = ("points", "axis_points", "seed", "n_traj", "n_checkpoints")
NUMBER_KEYS = ("t_end", "dt", "axis_start", "axis_stop", "bracket_lo", "bracket_hi", "tol")
TEXT_KEYS = (
    "model", "frequency_variant", "evaluation", "axis", "axis_scale", "figure", "out", "format"
)
RUN_KEYS = INTEGER_KEYS + NUMBER_KEYS + TEXT_KEYS + ("axis_values",)
ALLOWED_KEYS = set(PARAM_KEYS) | set(RUN_KEYS)


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration of one command invocation."""

    raw: dict

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def require(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"missing required config key {key!r}")
        return self.raw[key]

    def params(self) -> SystemParams:
        kwargs = {k: self.raw[k] for k in PARAM_KEYS if k in self.raw}
        return SystemParams(**kwargs)

    def builder(self):
        name = self.require("model")
        if name == "eliminated-modulated":
            variant = self.get("frequency_variant", FREQUENCY_VARIANTS[0])
            return functools.partial(build_eliminated_modulated, variant=variant)
        return builder_for(name)


@dataclass(frozen=True)
class OutputSpec:
    """Destination and format of one data file.

    A path that is a directory, or whose directory does not exist, is refused
    here, before any command runs; other write failures surface when the file
    is opened.
    """

    path: Path
    fmt: str

    def __post_init__(self) -> None:
        if self.path.is_dir():
            raise ConfigError(f"output path {str(self.path)!r} is a directory")
        if not self.path.parent.is_dir():
            raise ConfigError(f"output directory {str(self.path.parent)!r} does not exist")

    @property
    def sidecar(self) -> Path:
        return self.path.with_name(self.path.name + ".sidecar.json")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def apply_sets(cfg: dict, assignments: list[str]) -> dict:
    out = dict(cfg)
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _is_number(value) -> bool:
    """A finite real number; bools and ints beyond the float range are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def validate_keys(cfg: dict) -> dict:
    """Reject unknown keys and values of the wrong type."""
    unknown = sorted(set(cfg) - ALLOWED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed: {sorted(ALLOWED_KEYS)}")
    for key, value in cfg.items():
        if key in TEXT_KEYS and not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        if key not in PARAM_KEYS + INTEGER_KEYS + NUMBER_KEYS or (key == "dt" and value is None):
            continue
        if not _is_number(value) or (key in INTEGER_KEYS and value != int(value)):
            kind = "an integer" if key in INTEGER_KEYS else "a finite number"
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
    if "axis_values" in cfg:
        values = cfg["axis_values"]
        if not isinstance(values, list) or not values or not all(map(_is_number, values)):
            raise ConfigError(f"axis_values must be a nonempty list of numbers, got {values!r}")
    return cfg


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _jsonable(obj):
    if isinstance(obj, SystemParams):
        return asdict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def write_sidecar(out: OutputSpec, cfg: RunConfig, provenance: dict) -> None:
    doc = dict(cfg.raw)
    doc["out"] = str(out.path)
    doc["format"] = out.fmt
    doc["_provenance"] = {"tool": "levisqueeze", "version": __version__, **provenance}
    _dump_json(out.sidecar, doc)


def write_table(
    out: OutputSpec, columns: tuple[str, ...], rows, cfg: RunConfig, provenance: dict
) -> None:
    """Write rows, a float array or a list of rows of cells, and the sidecar."""
    if isinstance(rows, np.ndarray):
        # A Python float's cell is its repr; rows are converted one at a time
        # so that only the text of the table is held at once.
        cells = (map(repr, row.tolist()) for row in rows)
    else:
        cells = (map(_cell, row) for row in rows)
    if out.fmt == "csv":
        body = "".join([",".join(row) + "\n" for row in cells])
        with open(out.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write(body)
    else:
        _dump_json(out.path, {"columns": list(columns), "rows": rows})
    write_sidecar(out, cfg, provenance)


def write_report(out: OutputSpec | None, report: dict, cfg: RunConfig, provenance: dict) -> None:
    """Print a report as JSON, or write it as a key,value table or a JSON object, and the sidecar."""
    if out is None:
        json.dump(_jsonable(report), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif out.fmt == "csv":
        write_table(out, ("key", "value"), _flatten(report), cfg, provenance)
    else:
        _dump_json(out.path, report)
        write_sidecar(out, cfg, provenance)


def _flatten(val, name: str = "") -> list[tuple[str, object]]:
    """The (key, value) rows of a report: dict entries as name.key, list items as name[i]."""
    if isinstance(val, dict):
        sep = "." if name else ""
        return [row for key, v in val.items() for row in _flatten(v, f"{name}{sep}{key}")]
    if isinstance(val, (list, tuple)):
        return [row for i, v in enumerate(val) for row in _flatten(v, f"{name}[{i}]")]
    return [(name, val)]


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig, out: OutputSpec) -> int:
    params = cfg.params()
    model = cfg.builder()(params)
    t_end = float(cfg.require("t_end"))
    dt = cfg.get("dt")
    result = evolve(model, initial_covariance(params, model.basis), t_end, dt)
    columns, table = TRAJECTORY_COLUMNS, mechanical_trajectory(result)
    if model.basis.dim == 4:
        v, jx, jy = result.covariances, model.basis.index("X"), model.basis.index("Y")
        columns += ("VXX", "VXY", "VYY")
        table = np.column_stack((table, v[:, jx, jx], v[:, jx, jy], v[:, jy, jy]))
    write_table(out, columns, table, cfg, {"command": "evolve", "stats": asdict(result.stats)})
    return 0


def cmd_steady(cfg: RunConfig, out: OutputSpec | None) -> int:
    result = steady_state(cfg.builder()(cfg.params()))
    v, labels = result.covariance.entries, result.covariance.basis.labels
    rep = squeezing_metrics(mechanical_block(v, result.covariance.basis))
    entries = {
        f"{labels[i]}{labels[j]}": float(v[i, j])
        for i in range(len(labels))
        for j in range(i, len(labels))
    }
    report = {
        "stable": True,
        "max_real_part": result.stability.max_real_part,
        "residual_norm": result.residual_norm,
        "covariance": entries,
        "v_sq": rep.v_sq,
        "v_asq": rep.v_asq,
        "eta": rep.eta,
        "angle": rep.angle,
        "nonclassical": rep.nonclassical,
    }
    write_report(out, report, cfg, {"command": "steady"})
    return 0


def cmd_stability(cfg: RunConfig, out: OutputSpec | None) -> int:
    report = stability(cfg.builder()(cfg.params()))
    payload = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in report.eigenvalues],
        "max_real_part": report.max_real_part,
        "stable": report.stable,
    }
    write_report(out, payload, cfg, {"command": "stability"})
    return 0


def cmd_threshold(cfg: RunConfig, out: OutputSpec | None) -> int:
    params = cfg.params()
    build = cfg.builder()
    axis = cfg.get("axis", "lam")
    lo = float(cfg.require("bracket_lo"))
    hi = float(cfg.require("bracket_hi"))
    tol = float(cfg.get("tol", 1e-6))
    critical = find_threshold(
        lambda x: build(params.with_value(axis, x)), (lo, hi), tol=tol
    )
    payload = {
        "axis": axis,
        "bracket_lo": lo,
        "bracket_hi": hi,
        "tol": tol,
        "critical_value": critical,
    }
    write_report(out, payload, cfg, {"command": "threshold"})
    return 0


def cmd_sweep(cfg: RunConfig, out: OutputSpec) -> int:
    params = cfg.params()
    name = cfg.require("axis")
    if "axis_values" in cfg.raw:
        axis = SweepAxis(name, tuple(float(v) for v in cfg.raw["axis_values"]))
    else:
        scale = cfg.get("axis_scale", "linear")
        maker = {"linear": SweepAxis.linear, "log": SweepAxis.log}.get(scale)
        if maker is None:
            raise ConfigError(f"axis_scale must be linear or log, got {scale!r}")
        axis = maker(
            name,
            float(cfg.require("axis_start")),
            float(cfg.require("axis_stop")),
            int(cfg.require("axis_points")),
        )
    evaluation = cfg.get("evaluation", "steady")
    t_end = cfg.get("t_end")
    table = sweep(
        axis,
        cfg.builder(),
        params,
        evaluation,
        t_end=None if t_end is None else float(t_end),
        dt=cfg.get("dt"),
    )
    columns = (name, "status", "v_sq", "v_asq", "eta", "angle", "nonclassical", "t_opt")
    cells = ("v_sq", "v_asq", "eta", "angle", "nonclassical", "time")
    rows = [
        (point.value, point.status)
        + tuple(None if point.report is None else getattr(point.report, c) for c in cells)
        for point in table.points
    ]
    write_table(
        out, columns, rows, cfg, {"command": "sweep", "evaluation": evaluation, "axis": name}
    )
    return 0


def cmd_figure(cfg: RunConfig, out: OutputSpec) -> int:
    overrides = {k: cfg.raw[k] for k in cfg.raw if k in PARAM_KEYS or k in FIGURE_RUN_KEYS}
    data = run_figure(cfg.raw["figure"], overrides)
    write_table(out, data.columns, data.rows, cfg, {"command": "figure", "meta": data.meta})
    return 0


def cmd_mc_validate(cfg: RunConfig, out: OutputSpec | None) -> int:
    params = cfg.params()
    model = cfg.builder()(params)
    t_end = float(cfg.get("t_end", 15.0))
    dt = cfg.get("dt")
    spec = EnsembleSpec(
        n_traj=int(cfg.get("n_traj", 10000)),
        t_end=t_end,
        dt=_default_dt(model, EM_RESOLUTION) if dt is None else float(dt),
        seed=int(cfg.get("seed", 0)),
        n_checkpoints=int(cfg.get("n_checkpoints", 25)),
    )
    v0 = initial_covariance(params, model.basis)
    ensemble = simulate_ensemble(model, v0, spec)
    # A model without a rate has no default step; its reference takes the ensemble's.
    reference = evolve(model, v0, t_end, None if model.fastest_rate > 0.0 else spec.dt)
    report = compare(ensemble, reference)
    payload = {
        "passed": report.passed,
        "max_z": report.max_z,
        "worst_time": report.worst_time,
        "worst_entry": list(report.worst_entry),
        "z_limit": report.z_limit,
        "n_traj": spec.n_traj,
        "dt": spec.dt,
        "t_end": spec.t_end,
        "seed": spec.seed,
        "checkpoints": [float(t) for t in report.times],
    }
    provenance = {
        "command": "mc-validate",
        "n_steps": spec.n_steps,
        "dt": spec.step,
        "streams": spec.n_streams,
        "normals_drawn": spec.normals_drawn(model.basis.dim),
        "reference_stats": asdict(reference.stats),
    }
    write_report(out, payload, cfg, provenance)
    if not report.passed:
        print(
            f"ensemble disagrees with Lyapunov result: max |z| = {report.max_z:.2f}",
            file=sys.stderr,
        )
        return 3
    return 0


COMMANDS = {
    "evolve": cmd_evolve,
    "steady": cmd_steady,
    "stability": cmd_stability,
    "threshold": cmd_threshold,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "mc-validate": cmd_mc_validate,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    parser = argparse.ArgumentParser(
        prog="levisqueeze",
        description="Gaussian dynamics of cavity-levitated nanoparticle squeezing",
    )
    parser.add_argument("--version", action="version", version=f"levisqueeze {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {name: subs.add_parser(name, parents=[common]) for name in COMMANDS}
    commands["figure"].add_argument("figure_id", nargs="?", help=f"one of {sorted(FIGURES)}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = validate_keys(apply_sets(load_config(args.config), args.assignments))
        fmt = args.format or raw.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        name = args.command
        if name == "figure":
            name = args.figure_id or raw.get("figure")
            if name is None:
                raise ConfigError(f"no figure id given; known ids: {sorted(FIGURES)}")
            raw = {**raw, "figure": name}
        out_path = args.out or raw.get("out")
        if out_path is None and args.command in ("evolve", "sweep", "figure"):
            # A table command writes <figure id or command>.<format> by default.
            out_path = f"{name}.{fmt}"
        out = None if out_path is None else OutputSpec(Path(out_path), fmt)
        return COMMANDS[args.command](RunConfig(raw), out)
    except (
        ConfigError,
        ParameterError,
        BasisError,
        CovarianceError,
        BracketError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnstableModelError, IntegrationError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
