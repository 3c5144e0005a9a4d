"""The benchmark's workloads: what each round runs and how its outputs are
checked.

A workload makes its inputs from its seed during set-up, as one or more
input sets of about equal cost. Rounds cycle through the sets; the first
round of each set is checked in full against `reference`, and every later
round of the same set must produce outputs with the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# traced functions are called as attributes of the package, where the
# tracer can replace them
import catbreed as cb
from catbreed import (AcceptanceWindow, CatbreedError, FockCutoff,
                      ProtocolConfig, TargetCatSpec, pad_density_operator,
                      single_photon_state, uniform_phases, window_probability)

import reference as ref
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
COMMAND_TIMEOUT_S = 150

# the package's own state tolerances (catbreed.fock)
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = -1e-9


@dataclass
class Round:
    ops: int
    failed: int
    outputs: object
    layer_extras: dict


def _density_failures(rho: np.ndarray, label: str) -> list[str]:
    out = []
    if abs(np.real(np.trace(rho)) - 1.0) > TRACE_TOL:
        out.append(f"{label}: trace {np.real(np.trace(rho))!r}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        out.append(f"{label}: Hermiticity error {herm:.3e}")
    lam = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if lam < POSITIVITY_TOL:
        out.append(f"{label}: eigenvalue {lam:.3e}")
    return out


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    # rounds cycle through this many input sets; rounds of one set repeat
    # the same operations on the same inputs
    n_slices = 1
    # whose peak resident memory the workload reports
    rss_who = resource.RUSAGE_SELF
    # the first round fills per-process caches that later rounds reuse
    caches_in_process = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Make the inputs from the seed and warm up the process."""

    def run_round(self, index: int, tracer) -> Round:
        """Run input set ``index`` once, spans recorded when ``tracer`` is
        given."""
        raise NotImplementedError

    def digest(self, outputs) -> str:
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def discard(self, outputs) -> None:
        """Release what a round left behind once it is digested."""

    def layer_probe(self) -> dict:
        """Per-layer figures measured once per traced run, outside rounds."""
        return {}

    def close(self) -> None:
        """Remove everything set-up created."""


# ---------------------------------------------------------------------------
# breed-sweep

SWEEP_AXIS = np.linspace(-4.0, 4.0, 161)      # the CLI's default Wigner grid
SWEEP_N_MAX_VALUES = (1, 2, 3)
SWEEP_CUTOFFS = (20, 30, 40)
# (condition with detector efficiency, two-photon weight > 0); slice k gives
# cutoff j the combination k + j, so over the four slices every cutoff meets
# every combination
SWEEP_COMBOS = ((False, False), (False, True), (True, False), (True, True))
# warm-up breeds run at a cutoff no operating point uses, so the per-cutoff
# caches stay cold as they are for a user's first sweep in a process
WARMUP_CUTOFF = 16


class BreedSweep(Workload):
    """Each round is one slice of the grid: one operating point per cutoff.
    Every slice costs about the same, and the cutoff-40 point dominates it
    as the d^2 x d^2 two-mode path does in a real sweep."""

    name = "breed-sweep"
    n_slices = len(SWEEP_COMBOS)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.slices = []
        for k in range(self.n_slices):
            points = []
            for j, cutoff in enumerate(SWEEP_CUTOFFS):
                cond_eff, multi = SWEEP_COMBOS[(k + j) % len(SWEEP_COMBOS)]
                points.append(ProtocolConfig(
                    window=AcceptanceWindow(float(rng.uniform(0.15, 0.6))),
                    n_min=1, n_max=max(SWEEP_N_MAX_VALUES),
                    photon_fidelity=float(rng.uniform(0.80, 0.90)),
                    two_photon_weight=(float(rng.uniform(0.02, 0.08))
                                       if multi else 0.0),
                    eta_homodyne=float(rng.uniform(0.6, 0.9)),
                    condition_with_detector_efficiency=cond_eff,
                    cutoff=FockCutoff(cutoff)))
            self.slices.append(points)
        photon = single_photon_state(cutoff=FockCutoff(WARMUP_CUTOFF))
        for _ in range(6):
            cb.breed(photon, photon, AcceptanceWindow())

    def run_round(self, index, tracer) -> Round:
        points = self.slices[index]
        outputs, failed = [], 0
        with tracing.active(tracer):
            for config in points:
                try:
                    rows = cb.fidelity_vs_storage_curve(config,
                                                        SWEEP_N_MAX_VALUES)
                    states = cb.pipeline_states(config)
                    grid = cb.wigner_grid(states.stored, SWEEP_AXIS, SWEEP_AXIS)
                    outputs.append((config, rows, states, grid,
                                    float(grid.min())))
                except CatbreedError:
                    failed += 1
        return Round(len(points), failed, outputs, {})

    def digest(self, outputs) -> str:
        arrays = []
        for _, rows, states, grid, w_min in outputs:
            arrays += [np.array([(r.n_max, r.rate_hz, r.fidelity_at_creation,
                                  r.fidelity_after_readout) for r in rows]),
                       states.creation.matrix, states.stored.matrix,
                       states.measured.matrix,
                       np.array([states.mean_condition_probability, w_min]),
                       grid]
        return _hash_arrays(arrays)

    def check(self, outputs) -> list[str]:
        failures = []
        for config, rows, states, grid, _ in outputs:
            tag = (f"cutoff {config.cutoff.n_max}, eps "
                   f"{config.window.half_width:.4f}, w2 "
                   f"{config.two_photon_weight:.4f}, eta_cond "
                   f"{config.conditioning_efficiency:.4f}")
            if (config.two_photon_weight == 0.0
                    and not config.condition_with_detector_efficiency):
                oracle = ref.mean_condition_probability(
                    config.photon_fidelity, config.per_trip_transmission,
                    config.p_trip, config.n_min, config.n_max,
                    config.window.half_width)
                got = states.mean_condition_probability
                if abs(got - oracle) > 1e-12:
                    failures.append(f"{tag}: herald probability {got!r} "
                                    f"against oracle {oracle!r}")
            # inputs hold at most one photon each, or two with w2 > 0
            support = 4 if config.two_photon_weight > 0 else 2
            for label in ("creation", "stored", "measured"):
                rho = getattr(states, label).matrix
                failures += _density_failures(rho, f"{tag} {label}")
                beyond = np.abs(np.real(np.diag(rho))[support + 1:]).max()
                if beyond != 0.0:
                    failures.append(f"{tag} {label}: population {beyond:.3e} "
                                    f"above photon number {support}")
            rates = [r.rate_hz for r in rows]
            if any(b < a for a, b in zip(rates, rates[1:])):
                failures.append(f"{tag}: curve rates decrease: {rates}")
            for m in SWEEP_N_MAX_VALUES:
                got = window_probability(config.p_trip, config.n_min, m)
                want = ref.window_probability(config.p_trip, config.n_min, m)
                if abs(got - want) > 1e-12 * want:
                    failures.append(f"{tag}: window_probability(n_max={m}) "
                                    f"{got!r} against sum {want!r}")
            integral = ref.grid_integral(grid, SWEEP_AXIS, SWEEP_AXIS)
            if abs(integral - 1.0) > 1e-4:
                failures.append(f"{tag}: Wigner integral {integral!r}")
            centre = len(SWEEP_AXIS) // 2
            parity = ref.parity(np.real(np.diag(states.stored.matrix)))
            if abs(math.pi * grid[centre, centre] - parity) > 1e-9:
                failures.append(f"{tag}: pi W(0,0) = "
                                f"{math.pi * grid[centre, centre]!r} against "
                                f"parity {parity!r}")
        return failures


# ---------------------------------------------------------------------------
# tomo-bootstrap

TOMO_PHASES = 12
TOMO_SAMPLES = 17000
TOMO_CUTOFF = 12
TOMO_RESAMPLES = 50          # the least bootstrap_many accepts
TOMO_MODELS = ("none", "detection", "detection+storage")
TOMO_AXIS = np.linspace(-4.0, 4.0, 81)   # the CLI's bootstrap Wigner grid
# MaxLik never lowers the binned likelihood; allow summation round-off
LIKELIHOOD_ROUNDOFF = 1e-12


def _cli_statistics(target, target_cutoff) -> dict:
    """The statistics `catbreed tomography --bootstrap` reports, plus the
    least step of each likelihood history so every resample is checked."""
    def fidelity(res):
        padded = pad_density_operator(res.rho_hat, target_cutoff)
        return cb.fidelity_to_pure(padded, target)

    def wigner_min(res):
        return float(cb.wigner_grid(res.rho_hat, TOMO_AXIS, TOMO_AXIS).min())

    stats = {"fidelity_to_target": fidelity, "wigner_min": wigner_min}
    for n in range(5):
        stats[f"population_{n}"] = (
            lambda res, n=n: float(res.rho_hat.populations()[n]))
    stats["likelihood_min_step"] = (
        lambda res: float(np.min(np.diff(res.likelihood_history), initial=0.0)))
    return stats


class TomoBootstrap(Workload):
    """The README's tomography job: the dataset `catbreed sample` draws and
    the bootstrap `catbreed tomography` runs, both at their default seed 0.

    The inputs do not follow the benchmark seed. MaxLik stops on a
    likelihood-gain threshold, so its iteration count, and with it the time
    of a round, moves with the data: datasets of seeds 1 to 5 took 23 to
    38 s, wider than any bound the benchmark could hold."""

    name = "tomo-bootstrap"
    input_seed = 0

    def setup(self) -> None:
        self.config = ProtocolConfig()
        self.states = cb.pipeline_states(self.config)
        self.storage = (self.config.per_trip_transmission
                        ** self.config.readout_trips)
        self.target_cutoff = FockCutoff(max(TOMO_CUTOFF, 20))
        # warm-up on a reconstruction cutoff and phase set the round never
        # uses, so the binned-POVM cache stays cold
        small = cb.sample_homodyne_phases(self.states.measured,
                                          uniform_phases(3), 600,
                                          np.random.default_rng(1))
        cb.maxlik_reconstruct(small, FockCutoff(4), max_iter=50)

    def run_round(self, index, tracer) -> Round:
        cutoff = FockCutoff(TOMO_CUTOFF)
        kwargs = {"eta_detection": self.config.eta_homodyne,
                  "storage_transmission": self.storage}
        fits, boot, failed = {}, None, 0
        with tracing.active(tracer):
            data = cb.sample_homodyne_phases(
                self.states.measured, uniform_phases(TOMO_PHASES),
                TOMO_SAMPLES, np.random.default_rng(self.input_seed))
            for model in TOMO_MODELS:
                try:
                    fits[model] = cb.maxlik_reconstruct(data, cutoff, model,
                                                        **kwargs)
                except CatbreedError:
                    failed += 1
            target = cb.target_cat(TargetCatSpec(), self.target_cutoff)
            boot_stats = _cli_statistics(target, self.target_cutoff)
            try:
                boot = cb.bootstrap_many(
                    data, TOMO_RESAMPLES, boot_stats,
                    np.random.default_rng(self.input_seed), cutoff=cutoff,
                    efficiency_model="none", **kwargs)
                failed += boot["fidelity_to_target"].n_failed
            except CatbreedError:
                failed += TOMO_RESAMPLES
        return Round(len(TOMO_MODELS) + TOMO_RESAMPLES, failed,
                     (data, fits, boot, target), {})

    def digest(self, outputs) -> str:
        data, fits, boot, _ = outputs
        arrays = [data.thetas, data.xs]
        for model in sorted(fits):
            arrays += [fits[model].rho_hat.matrix,
                       np.array(fits[model].likelihood_history)]
        if boot is not None:
            arrays += [np.array(boot[name].values) for name in sorted(boot)]
        return _hash_arrays(arrays)

    def check(self, outputs) -> list[str]:
        data, fits, boot, target = outputs
        failures = []
        measured = self.states.measured.matrix
        for theta in np.unique(data.thetas):
            xs = data.xs[data.thetas == theta]
            x2 = xs * xs
            sigma = x2.std(ddof=1) / math.sqrt(len(xs))
            want = ref.quadrature_second_moment(measured, float(theta))
            if abs(x2.mean() - want) > 4.0 * sigma:
                failures.append(f"phase {theta:.4f}: <x^2> {x2.mean():.5f} "
                                f"against {want:.5f} (sigma {sigma:.5f})")
        before_loss = {"none": self.states.measured,
                       "detection": self.states.stored,
                       "detection+storage": self.states.creation}
        for model, fit in fits.items():
            steps = np.diff(fit.likelihood_history)
            if steps.size and steps.min() < -LIKELIHOOD_ROUNDOFF:
                failures.append(f"{model}: likelihood fell by {-steps.min():.3e}")
            truth = ref.truncate(before_loss[model].matrix, TOMO_CUTOFF + 1)
            fid = ref.uhlmann_fidelity(truth, fit.rho_hat.matrix)
            if not fid > 0.98:
                failures.append(f"{model}: Uhlmann fidelity {fid:.5f} <= 0.98")
        if boot is not None:
            if boot["fidelity_to_target"].n_failed:
                failures.append(f"bootstrap: {boot['fidelity_to_target'].n_failed}"
                                f" failed resamples")
            if min(boot["likelihood_min_step"].values) < -LIKELIHOOD_ROUNDOFF:
                failures.append("bootstrap: a resample's likelihood fell")
            psi = target.amplitudes
            true_fid = float(np.real(psi.conj() @ measured @ psi))
            fid = boot["fidelity_to_target"]
            if not fid.ci_low <= true_fid <= fid.ci_high:
                failures.append(f"bootstrap interval [{fid.ci_low:.5f}, "
                                f"{fid.ci_high:.5f}] misses the true fidelity "
                                f"{true_fid:.5f}")
        return failures


# ---------------------------------------------------------------------------
# cli-chain

CLI_COMMANDS = ("breed", "curve", "wigner", "simulate", "sample", "tomography")
CLI_CURVE_N_MAX = "1,5,15,25,40"
CLI_RATE_HZ = 1000.0
CLI_BETA_ELEC = 0.73
# sized so the timeline loop and its event log are a large share of the chain
CLI_SIM_DURATION_S = 0.5
CLI_IMPORT_PROBES = 3


def _read_meta(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class CliChain(Workload):
    name = "cli-chain"
    rss_who = resource.RUSAGE_CHILDREN
    caches_in_process = False     # every command is a fresh process
    tmp = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.photon_fidelity = round(float(rng.uniform(0.84, 0.90)), 4)
        self.epsilon = round(float(rng.uniform(0.28, 0.34)), 4)
        self.sim_seed, self.sample_seed = (int(s) for s in
                                           rng.integers(0, 2 ** 31, size=2))
        # process start, byte-code compilation and the file cache
        subprocess.run([sys.executable, "-m", "catbreed.cli", "--version"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=COMMAND_TIMEOUT_S)
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-chain-", dir=OUT_DIR))

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        common = ["--photon-fidelity", repr(self.photon_fidelity),
                  "--epsilon", repr(self.epsilon)]
        return [
            ("breed", ["breed", *common, "--output-dir", str(d / "breed")]),
            ("curve", ["curve", *common, "--n-max-values", CLI_CURVE_N_MAX,
                       "--calibrate-rate-hz", repr(CLI_RATE_HZ),
                       "--output-dir", str(d / "curve")]),
            ("wigner", ["wigner", *common, "--pipeline",
                        "--corrections", "none,detection,both",
                        "--output-dir", str(d / "wigner")]),
            ("simulate", ["simulate", *common,
                          "--duration-s", repr(CLI_SIM_DURATION_S),
                          "--beta-elec", repr(CLI_BETA_ELEC),
                          "--seed", str(self.sim_seed),
                          "--output-dir", str(d / "sim")]),
            ("sample", ["sample", *common, "--source", "measured",
                        "--count", str(TOMO_SAMPLES),
                        "--phases", str(TOMO_PHASES),
                        "--seed", str(self.sample_seed),
                        "--output-dir", str(d / "data")]),
            ("tomography", ["tomography",
                            "--dataset", str(d / "data" / "dataset.csv"),
                            "--output-dir", str(d / "tomo")]),
        ]

    def run_round(self, index, tracer) -> Round:
        d = Path(tempfile.mkdtemp(dir=self.tmp))
        walls, failed = {}, 0
        for name, args in self.commands(d):
            if tracer is None:
                argv = [sys.executable, "-m", "catbreed.cli", *args]
            else:
                spans = d / f"spans-{name}.json"
                argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"),
                        str(spans), *args]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            walls[name] = time.perf_counter() - start
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(f"{name} exited {proc.returncode}:\n"
                                 f"{proc.stderr}\n")
            if tracer is not None and spans.exists():
                tracer.absorb(spans)
                spans.unlink()
        extras = {f"cli.{name}.s": wall for name, wall in walls.items()}
        extras["cli.output_bytes"] = sum(p.stat().st_size
                                         for p in self._output_files(d))
        return Round(len(CLI_COMMANDS), failed, d, extras)

    @staticmethod
    def _output_files(d: Path) -> list[Path]:
        """Every file the commands wrote except manifests, which carry
        timestamps and paths."""
        return sorted(p for p in d.rglob("*")
                      if p.is_file() and p.name != "manifest.json")

    def digest(self, d: Path) -> str:
        h = hashlib.sha256()
        for path in self._output_files(d):
            h.update(str(path.relative_to(d)).encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
        return h.hexdigest()

    def discard(self, d: Path) -> None:
        shutil.rmtree(d)

    def check(self, d: Path) -> list[str]:
        failures = []
        dirs = {"breed": "breed", "curve": "curve", "wigner": "wigner",
                "simulate": "sim", "sample": "data", "tomography": "tomo"}
        for name, sub in dirs.items():
            out = d / sub
            try:
                manifest = json.loads((out / "manifest.json").read_text())
            except (OSError, json.JSONDecodeError) as exc:
                failures.append(f"{name}: manifest unreadable: {exc}")
                continue
            files = sorted(p.name for p in out.iterdir()
                           if p.name != "manifest.json")
            if manifest.get("outputs") != files:
                failures.append(f"{name}: manifest lists "
                                f"{manifest.get('outputs')}, directory holds {files}")
        try:
            failures += self._check_outputs(d)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"outputs unreadable: {exc!r}")
        return failures

    def _check_outputs(self, d: Path) -> list[str]:
        failures = []
        f, eps = self.photon_fidelity, self.epsilon

        meta = _read_meta(d / "breed" / "bred_state.meta")
        got = float(meta["herald_probability"])
        want = ref.herald_probability(f, f, eps)
        if abs(got - want) > 1e-11:
            failures.append(f"breed: herald probability {got!r} against oracle "
                            f"{want!r}")

        curve = np.loadtxt(d / "curve" / "curve.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        rate_15 = curve[curve[:, 0] == ProtocolConfig().n_max, 1]
        if rate_15.size != 1 or abs(rate_15[0] - CLI_RATE_HZ) > 1e-6:
            failures.append(f"curve: calibrated row reads {rate_15}")
        if np.any(np.diff(curve[:, 1]) < 0):
            failures.append(f"curve: rates decrease: {curve[:, 1]}")

        for path in sorted((d / "wigner").glob("wigner_*.csv")):
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            axis = np.unique(table[:, 0])
            grid = table[:, 2].reshape(len(axis), len(axis))
            if np.abs(grid).max() > 1.0 / math.pi:
                failures.append(f"{path.name}: |W| reaches {np.abs(grid).max()!r}")
            integral = ref.grid_integral(grid, axis, axis)
            if abs(integral - 1.0) > 1e-4:
                failures.append(f"{path.name}: integral {integral!r}")

        stats = json.loads((d / "sim" / "stats.json").read_text())
        last, passes, ordered = -1, 0, True
        with open(d / "sim" / "events.jsonl") as fh:
            for line in fh:
                event = json.loads(line)
                ordered &= event["pulse_index"] >= last
                last = event["pulse_index"]
                passes += event["kind"] == "condition_pass"
        if not ordered:
            failures.append("simulate: event log not ordered by pulse index")
        if passes != stats["successes"]:
            failures.append(f"simulate: {passes} condition_pass events, "
                            f"{stats['successes']} successes")
        base = ProtocolConfig()
        closed = ref.closed_form_rate(base.f_herald, base.f_rep, CLI_BETA_ELEC, f,
                                      base.per_trip_transmission, base.n_min,
                                      base.n_max, eps)
        sigma = math.sqrt(max(stats["successes"], 1)) / stats["duration_s"]
        if abs(stats["estimated_rate_hz"] - closed) > 4.0 * sigma:
            failures.append(f"simulate: rate {stats['estimated_rate_hz']:.2f} Hz "
                            f"against closed form {closed:.2f} Hz "
                            f"(sigma {sigma:.2f})")
        return failures

    def layer_probe(self) -> dict:
        walls = []
        for _ in range(CLI_IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import catbreed.cli"],
                           cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)
            walls.append(time.perf_counter() - start)
        return {"cli.import_s": statistics.median(walls)}

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BreedSweep, TomoBootstrap, CliChain)}
