"""Command-line front end.

Subcommands cover the full workflow: breed a cat state from two heralded
photons, sweep the rate/fidelity trade-off over storage depth, export
Wigner grids at selectable correction stages, run the pulse-level timeline
simulation, generate synthetic homodyne datasets, and reconstruct states
from datasets with optional bootstrap error bars.

Every successful run writes its outputs plus a manifest.json into one
output directory; a failing run writes none. Outputs are staged in a
temporary directory on the same file system and renamed into place only
once all of them are written; they are deterministic given the
manifest. Exit codes: 0 success, 2 input or configuration error, 3
numerical or convergence failure, 4 unexpected internal error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (CatbreedError, ConfigError, ConvergenceError,
                     DomainError, HeraldImpossibleError, TruncationError)
from .fock import (FockCutoff, TargetCatSpec, fidelity_to_pure, pad_density_operator,
                   target_cat, wigner_grid)
from .optics import AcceptanceWindow, breed, loss_channel, single_photon_state
from .protocol import (ProtocolConfig, calibrate_beta_elec,
                       fidelity_vs_storage_curve, generation_rate,
                       pipeline_states, simulate_timeline, write_curve_csv,
                       write_event_log)
from .tomography import (MIN_RESAMPLES, _check_sample_request, _write_csv,
                         bootstrap_many, load_dataset_csv, maxlik_reconstruct,
                         read_density_csv, sample_homodyne_phases,
                         save_dataset_csv, uniform_phases, write_density_csv,
                         write_meta)

OUTPUT_ROOT_ENV = "CATBREED_OUTPUT_ROOT"
DEFAULT_GRID = "-4:4:161"
# a Wigner run peaks at about 8.4 bytes per point: the grid, plus one x value's
# CSV rows (34 MB at this 2001 x 2001 cap); larger grids are refused before they allocate
MAX_GRID_POINTS = 2001
CORRECTION_STAGES = ("none", "storage", "detection", "both")


def _flat_settings(config: ProtocolConfig) -> dict:
    """ProtocolConfig as the flat settings that config-file keys, flags and
    manifest.json use: the acceptance window flattens to (epsilon,
    window_phase) and the cutoff to its n_max."""
    settings = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "window":
            settings["epsilon"] = value.half_width
            settings["window_phase"] = value.phase
        elif f.name == "cutoff":
            settings["cutoff"] = value.n_max
        else:
            settings[f.name] = value
    return settings


# every setting with its default, in ProtocolConfig field order; the type
# of each default is the type its config-file key and flag parse to
_DEFAULTS = _flat_settings(ProtocolConfig())
_FLAG_HELP = {
    "epsilon": "acceptance-window half width",
    "condition_with_detector_efficiency":
        "fold detector efficiency into conditioning",
    "cutoff": "Fock-space cutoff n_max",
}


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not parser.has_section("protocol"):
        raise ConfigError(f"{path}: missing [protocol] section")
    out = {}
    for key, raw in parser.items("protocol"):
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}: unknown key {key!r} in [protocol]")
        kind = type(_DEFAULTS[key])
        try:
            if kind is bool:
                out[key] = parser.getboolean("protocol", key)
            else:
                out[key] = kind(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: key {key!r}: cannot parse {raw!r} as "
                f"{kind.__name__}") from exc
    return out


def _resolve_settings(args) -> dict:
    """Defaults <- config file <- command-line flags, last one wins."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _build_config(settings: dict) -> ProtocolConfig:
    """Inverse of _flat_settings."""
    fields = dict(settings)
    fields["window"] = AcceptanceWindow(fields.pop("epsilon"),
                                        fields.pop("window_phase"))
    fields["cutoff"] = FockCutoff(fields["cutoff"])
    return ProtocolConfig(**fields)


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "catbreed-out")) / args.command


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    Path(path).write_text(text + "\n")


def _write_manifest(directory: Path, command: str, argv, settings: dict,
                    outputs, started: float) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": dict(sorted(settings.items())),
        "seed": settings["rng_seed"],
        "outputs": sorted(outputs),
        "timestamps": {"started": started, "finished": time.time()},
        "version": __version__,
    }
    _write_json(directory / "manifest.json", manifest)


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:points, got {spec!r}")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be min:max:points, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi
            and 2 <= num <= MAX_GRID_POINTS):
        raise ConfigError(f"grid needs finite min < max and 2 <= points <= "
                          f"{MAX_GRID_POINTS}, got {spec!r}")
    return np.linspace(lo, hi, num)


def _parse_phase_spec(spec: str) -> np.ndarray:
    """A phase count ('12'), which uniform_phases refuses before it allocates
    when it is not 1 to MAX_SAMPLES, or explicit radians ('0,0.26,...')."""
    if "," not in spec:
        try:
            count = int(spec)
        except ValueError:
            pass
        else:
            return uniform_phases(count)
    try:
        return np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse phases {spec!r}") from exc


# ---------------------------------------------------------------------------
# subcommands: each computes, prints its summary lines and returns its
# output files as {file name: writer(path)}; main writes them

def cmd_breed(args, config: ProtocolConfig, settings: dict) -> dict:
    photon = single_photon_state(config.photon_fidelity,
                                 config.two_photon_weight, config.cutoff)
    outcome = breed(photon, photon, config.window,
                    config.conditioning_efficiency)
    target = target_cat(TargetCatSpec(), config.cutoff)
    fid = fidelity_to_pure(outcome.state, target)
    axis = _parse_grid(args.grid)
    wmin = float(wigner_grid(outcome.state, axis, axis).min())

    print(f"herald_probability = {outcome.probability:.6f}")
    print(f"fidelity_to_target = {fid:.6f}")
    print(f"wigner_min = {wmin:.6f}")
    return {
        "bred_state.csv": lambda p: write_density_csv(outcome.state, p),
        "bred_state.meta": lambda p: write_meta(p, {
            "herald_probability": f"{outcome.probability:.12g}",
            "fidelity_to_target": f"{fid:.12g}",
            "wigner_min": f"{wmin:.12g}",
        }),
    }


def cmd_curve(args, config: ProtocolConfig, settings: dict) -> dict:
    try:
        values = [int(tok) for tok in args.n_max_values.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(
            f"cannot parse n-max values {args.n_max_values!r}") from exc
    if not values:
        raise ConfigError("need at least one storage-depth value")

    if args.calibrate_rate_hz is not None:
        p_cond = pipeline_states(config).mean_condition_probability
        beta = calibrate_beta_elec(config, args.calibrate_rate_hz, p_cond)
        config = dataclasses.replace(config, beta_elec=beta)
        settings["beta_elec"] = beta
        print(f"calibrated beta_elec = {beta:.6f}")

    rows = fidelity_vs_storage_curve(config, values)
    rates = [row.rate_hz for row in rows]
    print(f"rows = {len(rows)}")
    print(f"rate_hz range = [{min(rates):.6g}, {max(rates):.6g}]")
    return {"curve.csv": lambda p: write_curve_csv(rows, p)}


def _write_wigner_csv(path, axis: np.ndarray, grid: np.ndarray) -> None:
    """x, p, w rows, one x value at a time: the whole table is three grids."""
    _write_csv(path, "x,p,w", (np.column_stack([np.full_like(axis, x), axis, row])
                               for x, row in zip(axis, grid)))


def cmd_wigner(args, config: ProtocolConfig, settings: dict) -> dict:
    corrections = [tok.strip() for tok in args.corrections.split(",") if tok.strip()]
    if not corrections:
        raise ConfigError("need at least one correction stage")
    for tok in corrections:
        if tok not in CORRECTION_STAGES:
            raise ConfigError(
                f"unknown correction {tok!r}; choose from {CORRECTION_STAGES}")

    if (args.state_file is None) == (not args.pipeline):
        raise ConfigError("choose exactly one of --state-file or --pipeline")
    if args.state_file is not None and corrections != ["none"]:
        raise ConfigError(
            "corrections other than 'none' need --pipeline; a state file "
            "carries no stage information")

    axis = _parse_grid(args.grid)
    if args.state_file is not None:
        stage_states = {"none": read_density_csv(args.state_file)}
    else:
        states = pipeline_states(config)
        stage_states = {"both": states.creation, "detection": states.stored,
                        "none": states.measured}
        if "storage" in corrections:
            stage_states["storage"] = loss_channel(states.creation, config.eta_homodyne)

    files = {}
    for tok in corrections:
        grid = wigner_grid(stage_states[tok], axis, axis)

        files[f"wigner_{tok}.csv"] = lambda path, grid=grid: _write_wigner_csv(path, axis, grid)
        print(f"wigner_min[{tok}] = {grid.min():.6f}")
        print(f"wigner_max[{tok}] = {grid.max():.6f}")
    return files


def cmd_simulate(args, config: ProtocolConfig, settings: dict) -> dict:
    stats, events = simulate_timeline(config, args.duration_s)
    # with no heralds the gap law behind pipeline_states is undefined, but
    # the closed-form rate is exactly 0
    closed_form = 0.0
    if config.f_herald:
        p_cond = pipeline_states(config).mean_condition_probability
        closed_form = generation_rate(config, p_cond)
    sigma = math.sqrt(max(stats.successes, 1)) / stats.duration_s
    gap_sigmas = abs(stats.estimated_rate_hz - closed_form) / sigma

    payload = dict(vars(stats), closed_form_rate_hz=closed_form,
                   rate_gap_sigmas=gap_sigmas)
    # JSON keys are strings, and sort as such; JSON has no NaN
    payload["storage_histogram"] = {
        str(k): v for k, v in stats.storage_histogram.items()}
    for key in ("mean_first_photon_storage", "mean_output_fidelity"):
        if math.isnan(payload[key]):
            payload[key] = None
    print(f"successes = {stats.successes} in {stats.duration_s:.6g} s")
    print(f"estimated_rate_hz = {stats.estimated_rate_hz:.6g}")
    print(f"closed_form_rate_hz = {closed_form:.6g}")
    print(f"rate_gap_sigmas = {gap_sigmas:.3f}")
    return {"stats.json": lambda p: _write_json(p, payload),
            "events.jsonl": lambda p: write_event_log(events, p)}


def cmd_sample(args, config: ProtocolConfig, settings: dict) -> dict:
    phases = _parse_phase_spec(args.phases)
    _check_sample_request(len(phases), args.count)
    if args.state_file is not None:
        state = read_density_csv(args.state_file)
        source = str(args.state_file)
    else:
        if args.source not in ("creation", "stored", "measured"):
            raise ConfigError(
                f"unknown source {args.source!r}; choose creation, stored, "
                f"measured, or pass --state-file")
        state = getattr(pipeline_states(config), args.source)
        source = args.source

    rng = np.random.default_rng(config.rng_seed)
    dataset = sample_homodyne_phases(state, phases, args.count, rng,
                                     args.phase_noise_sigma)
    print(f"samples = {len(dataset)} at {len(phases)} phases from {source}")
    return {
        "dataset.csv": lambda p: save_dataset_csv(dataset, p),
        "dataset.meta": lambda p: write_meta(p, {
            "source": source,
            "count": args.count,
            "phases": ",".join(f"{t:.12g}" for t in phases),
            "phase_noise_sigma": args.phase_noise_sigma,
            "seed": config.rng_seed,
        }),
    }


def cmd_tomography(args, config: ProtocolConfig, settings: dict) -> dict:
    data = load_dataset_csv(args.dataset)
    # refuse bad settings before the point fit, which takes seconds
    if not args.tol < math.inf:
        raise ConfigError(f"--tol must be a number below inf, got {args.tol}")
    if args.bootstrap and args.bootstrap < MIN_RESAMPLES:
        raise ConfigError(f"--bootstrap must be 0 or >= {MIN_RESAMPLES}, "
                          f"got {args.bootstrap}")
    axis = _parse_grid(args.grid) if args.bootstrap else None
    fit = {
        "cutoff": FockCutoff(args.reconstruction_cutoff),
        "efficiency_model": args.efficiency_model,
        "eta_detection": config.eta_homodyne,
        "storage_transmission":
            config.per_trip_transmission ** config.readout_trips,
        "max_iter": args.max_iter,
        "tol_per_sample": args.tol,
    }
    result = maxlik_reconstruct(data, **fit)
    target_cutoff = FockCutoff(max(fit["cutoff"].n_max, 20))
    target = target_cat(TargetCatSpec(), target_cutoff)

    def fidelity(res) -> float:
        padded = pad_density_operator(res.rho_hat, target_cutoff)
        return fidelity_to_pure(padded, target)

    fid = fidelity(result)
    files = {
        "rho_hat.csv": lambda p: write_density_csv(result.rho_hat, p),
        "rho_hat.meta": lambda p: write_meta(p, {
            "iterations": result.iterations,
            "stop_reason": result.stop_reason,
            "final_likelihood_gain": f"{result.final_likelihood_gain:.6g}",
            "log_likelihood": f"{result.likelihood_history[-1]:.12g}",
            "gap_bound": f"{result.gap_bound:.6g}",
            "efficiency_model": result.efficiency_model,
            "samples": len(data),
            "fidelity_to_target": f"{fid:.12g}",
        }),
    }
    print(f"iterations = {result.iterations} ({result.stop_reason})")
    print(f"fidelity_to_target = {fid:.6f}")
    pops = ", ".join(f"{p:.4f}" for p in result.rho_hat.populations()[:5])
    print(f"populations[0:5] = [{pops}]")

    if args.bootstrap:
        statistics = {
            "fidelity_to_target": fidelity,
            "wigner_min":
                lambda res: float(wigner_grid(res.rho_hat, axis, axis).min()),
        }
        for n in range(5):
            statistics[f"population_{n}"] = (
                lambda res, n=n: float(res.rho_hat.populations()[n]))

        rng = np.random.default_rng(config.rng_seed)
        results = bootstrap_many(data, args.bootstrap, statistics, rng, **fit)
        block = {name: {"mean": r.mean, "std": r.std, "ci_low": r.ci_low,
                        "ci_high": r.ci_high, "n_failed": r.n_failed}
                 for name, r in results.items()}
        files["bootstrap.json"] = lambda p: _write_json(p, block)
        for name in sorted(results):
            r = results[name]
            print(f"bootstrap[{name}]: mean = {r.mean:.4f}, "
                  f"ci = [{r.ci_low:.4f}, {r.ci_high:.4f}]")
    return files


# ---------------------------------------------------------------------------
# parser wiring

def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="INI file with a [protocol] section")
    sub.add_argument("--output-dir", help=f"output directory (default: "
                     f"${OUTPUT_ROOT_ENV}/<command>)")
    for key, default in _DEFAULTS.items():
        flag = "--seed" if key == "rng_seed" else "--" + key.replace("_", "-")
        if type(default) is bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True,
                             help=_FLAG_HELP.get(key))
        else:
            sub.add_argument(flag, dest=key, type=type(default),
                             help=_FLAG_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catbreed",
        description="Cat-state breeding simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("breed", help="breed one cat from two photons")
    _add_config_flags(sub)
    sub.add_argument("--grid", default=DEFAULT_GRID,
                     help="Wigner grid as min:max:points")
    sub.set_defaults(func=cmd_breed)

    sub = subs.add_parser("curve", help="rate/fidelity vs storage depth")
    _add_config_flags(sub)
    sub.add_argument("--n-max-values", required=True,
                     help="comma-separated storage depths, e.g. 1,5,15,50")
    sub.add_argument("--calibrate-rate-hz", type=float, default=None,
                     help="pick beta_elec so the configured depth hits this rate")
    sub.set_defaults(func=cmd_curve)

    sub = subs.add_parser("wigner", help="Wigner grids at correction stages")
    _add_config_flags(sub)
    sub.add_argument("--state-file", help="density-matrix CSV to render")
    sub.add_argument("--pipeline", action="store_true",
                     help="render simulated pipeline stages instead of a file")
    sub.add_argument("--corrections", default="none",
                     help="comma list from none,storage,detection,both")
    sub.add_argument("--grid", default=DEFAULT_GRID,
                     help="axis spec min:max:points for both x and p")
    sub.set_defaults(func=cmd_wigner)

    sub = subs.add_parser("simulate", help="pulse-level timeline Monte Carlo")
    _add_config_flags(sub)
    sub.add_argument("--duration-s", dest="duration_s", type=float,
                     required=True)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("sample", help="draw synthetic homodyne samples")
    _add_config_flags(sub)
    sub.add_argument("--source", default="measured",
                     help="pipeline stage: creation, stored, or measured")
    sub.add_argument("--state-file", help="density-matrix CSV to sample from")
    sub.add_argument("--count", type=int, default=17000)
    sub.add_argument("--phases", default="12",
                     help="phase count or comma-separated radians")
    sub.add_argument("--phase-noise-sigma", dest="phase_noise_sigma",
                     type=float, default=0.0,
                     help="std of Gaussian local-oscillator phase jitter, in radians")
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("tomography", help="reconstruct a state from data")
    _add_config_flags(sub)
    sub.add_argument("--dataset", required=True, help="CSV with theta,x rows")
    sub.add_argument("--reconstruction-cutoff", dest="reconstruction_cutoff",
                     type=int, default=12,
                     help="Fock cutoff n_max for the reconstructed state")
    sub.add_argument("--efficiency-model", dest="efficiency_model",
                     default="none",
                     choices=("none", "detection", "detection+storage"))
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="per-sample log-likelihood gain threshold")
    sub.add_argument("--bootstrap", type=int, default=0,
                     help="number of bootstrap resamples (0 disables)")
    sub.add_argument("--grid", default="-4:4:81",
                     help="Wigner grid for the bootstrap statistic")
    sub.set_defaults(func=cmd_tomography)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        started = time.time()
        settings = _resolve_settings(args)
        config = _build_config(settings)
        files = args.func(args, config, settings)
        out = _output_dir(args)
        # stage the outputs under the nearest existing ancestor of the
        # output directory, so that the final moves are same-file-system
        # renames; a writer that raises leaves nothing behind
        anchor = out
        while not anchor.exists():
            anchor = anchor.parent
        with tempfile.TemporaryDirectory(prefix=".catbreed-", dir=anchor) as tmp:
            stage = Path(tmp)
            for name, writer in files.items():
                writer(stage / name)
            _write_manifest(stage, args.command, argv, settings, files, started)
            out.mkdir(parents=True, exist_ok=True)
            for name in [*files, "manifest.json"]:
                os.replace(stage / name, out / name)
        print(f"outputs -> {out}")
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, HeraldImpossibleError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CatbreedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
