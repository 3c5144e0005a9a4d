import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import catbreed
from catbreed import (EVENT_KINDS, DensityOperator, FockCutoff, ProtocolConfig,
                      TargetCatSpec, fock_state, pipeline_states,
                      read_density_csv, read_meta, target_cat, wigner_grid,
                      write_density_csv)
import catbreed.cli as cli
import catbreed.protocol as protocol
from catbreed.cli import OUTPUT_ROOT_ENV, main
from conftest import random_density


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key.strip()] = val.strip()
    return out


def read_wigner_csv(path) -> np.ndarray:
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    n = int(round(np.sqrt(body.shape[0])))
    return body[:, 2].reshape(n, n)


# ---------------------------------------------------------------------------
# breed

def test_breed_writes_state_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["breed", "--output-dir", str(out)], capsys)
    assert code == 0
    values = parse_kv(stdout)
    assert float(values["herald_probability"]) == pytest.approx(0.224556, abs=1e-5)
    assert float(values["fidelity_to_target"]) == pytest.approx(0.802036, abs=1e-5)

    state = read_density_csv(out / "bred_state.csv")
    state.validate()
    meta = read_meta(out / "bred_state.meta")
    assert float(meta["herald_probability"]) == pytest.approx(
        float(values["herald_probability"]), abs=1e-6)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "breed"
    assert manifest["outputs"] == ["bred_state.csv", "bred_state.meta"]
    assert manifest["config"]["photon_fidelity"] == 0.87
    assert manifest["seed"] == 0
    assert "version" in manifest


def test_breed_state_file_matches_library(tmp_path, capsys):
    from catbreed import AcceptanceWindow, breed, single_photon_state
    out = tmp_path / "run"
    code, _, _ = run_cli(["breed", "--output-dir", str(out)], capsys)
    assert code == 0
    cli_state = read_density_csv(out / "bred_state.csv")
    photon = single_photon_state(0.87, 0.0, FockCutoff(20))
    lib_state = breed(photon, photon, AcceptanceWindow(0.3)).state
    np.testing.assert_allclose(cli_state.matrix, lib_state.matrix, atol=1e-9)


def test_breed_with_ideal_photons_hits_target(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["breed", "--output-dir", str(tmp_path / "run"),
         "--photon-fidelity", "1.0", "--epsilon", "1e-3"], capsys)
    assert code == 0
    fid = float(parse_kv(stdout)["fidelity_to_target"])
    assert fid == pytest.approx(0.990223, abs=1e-5)


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "0.0"), ("--epsilon", "nan"), ("--window-phase", "nan"),
    ("--two-photon-weight", "nan")],
    ids=["zero_epsilon", "nan_epsilon", "nan_window_phase",
         "nan_two_photon_weight"])
def test_breed_rejects_degenerate_window(tmp_path, capsys, flag, value):
    # a NaN setting is refused where it enters, not carried into a NaN
    # herald probability or a traceback
    out = tmp_path / "run"
    code, _, err = run_cli(["breed", "--output-dir", str(out), flag, value],
                           capsys)
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


def test_breed_impossible_window_is_numerical_failure(tmp_path, capsys):
    code, _, err = run_cli(
        ["breed", "--output-dir", str(tmp_path / "run"), "--epsilon", "1e-13"],
        capsys)
    assert code == 3
    assert "numerical failure" in err


# ---------------------------------------------------------------------------
# curve

def test_curve_writes_rows(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        ["curve", "--output-dir", str(out), "--n-max-values", "1,5,15"],
        capsys)
    assert code == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == "n_max,rate_hz,fidelity_at_creation,fidelity_after_readout"
    assert len(lines) == 4
    assert "rows = 3" in stdout


def test_curve_calibration_reaches_kilohertz(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        ["curve", "--output-dir", str(out), "--n-max-values", "15,50,100",
         "--calibrate-rate-hz", "1000"], capsys)
    assert code == 0
    beta = float(stdout.split("calibrated beta_elec =")[1].split()[0])
    assert beta == pytest.approx(0.733286, abs=1e-5)
    rows = (out / "curve.csv").read_text().strip().split("\n")[1:]
    rates = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert rates[15] == pytest.approx(1000.0, rel=1e-9)
    assert rates[50] > 1000.0
    assert rates[100] > rates[50]


def test_curve_rejects_empty_sweep(tmp_path, capsys):
    code, _, _ = run_cli(
        ["curve", "--output-dir", str(tmp_path / "run"), "--n-max-values", ","],
        capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# wigner

def test_wigner_from_state_file(tmp_path, capsys):
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        ["wigner", "--output-dir", str(out), "--state-file", str(state_path)],
        capsys)
    assert code == 0
    values = parse_kv(stdout)
    assert float(values["wigner_max[none]"]) == pytest.approx(
        1.0 / np.pi, abs=1e-6)
    grid = read_wigner_csv(out / "wigner_none.csv")
    assert grid.shape == (161, 161)


def reference_wigner_csv(axis, grid, path):
    """The per-cell Wigner writer that the table writer replaced."""
    with open(path, "w") as fh:
        fh.write("x,p,w\n")
        for i, x in enumerate(axis):
            for j, p in enumerate(axis):
                fh.write(f"{x:.12g},{p:.12g},{grid[i, j]:.12g}\n")


def test_wigner_csv_matches_the_per_cell_oracle(tmp_path, capsys):
    state_path = tmp_path / "state.csv"
    write_density_csv(random_density(np.random.default_rng(74), 5), state_path)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["wigner", "--output-dir", str(out), "--state-file", str(state_path),
         "--grid=-2:2:41"], capsys)
    assert code == 0
    axis = np.linspace(-2, 2, 41)
    grid = wigner_grid(read_density_csv(state_path), axis, axis)
    reference_wigner_csv(axis, grid, tmp_path / "reference.csv")
    assert ((out / "wigner_none.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_wigner_csv_writer_holds_one_row_of_the_cap_at_a_time(tmp_path):
    # the writer formats one x value's rows at a time, so its peak stays
    # that of a 2001 x 3 block whatever the number of rows (the whole
    # table of a 2001 x 2001 grid would be 96 MB)
    axis = np.linspace(-4.0, 4.0, cli.MAX_GRID_POINTS)
    grid = np.random.default_rng(3).normal(size=(16, len(axis)))
    peaks = {}
    for rows in (2, 16):
        tracemalloc.start()
        cli._write_wigner_csv(tmp_path / f"rows_{rows}.csv", axis, grid[:rows])
        peaks[rows] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[16] < 1.2 * peaks[2]
    assert peaks[16] < 1e6
    assert (tmp_path / "rows_16.csv").read_text().count("\n") == 1 + 16 * len(axis)


def test_wigner_far_grid_is_zero_without_warnings(tmp_path, capsys):
    # squaring 1e160 overflows; the wavefunctions are 0 there
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        ["wigner", "--output-dir", str(out), "--pipeline",
         "--grid=-1e160:1e160:3"], capsys)
    assert (code, err) == (0, "")
    grid = read_wigner_csv(out / "wigner_none.csv")
    assert grid[1, 1] > 0.0
    assert np.count_nonzero(grid) == 1


def test_wigner_pipeline_stage_map(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["wigner", "--output-dir", str(out), "--pipeline",
         "--corrections", "both,detection,storage,none",
         "--grid=-3:3:41"], capsys)
    assert code == 0
    from catbreed import loss_channel
    states = pipeline_states(ProtocolConfig())
    axis = np.linspace(-3, 3, 41)
    expected = {
        "both": states.creation,
        "detection": states.stored,
        "storage": loss_channel(states.creation, 0.76),
        "none": states.measured,
    }
    for tok, rho in expected.items():
        grid = read_wigner_csv(out / f"wigner_{tok}.csv")
        np.testing.assert_allclose(grid, wigner_grid(rho, axis, axis),
                                   atol=1e-9)


@pytest.mark.parametrize("corrections, losses", [("both,detection,none", 0),
                                                  ("storage,none,storage", 1)])
def test_wigner_stages_share_one_pipeline(tmp_path, capsys, monkeypatch, corrections,
                                          losses):
    # one pipeline_states for every stage; the storage stage's extra loss runs
    # only when that stage is asked for
    calls = []
    for name in ("pipeline_states", "loss_channel"):
        def counted(*args, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run_cli(["wigner", "--output-dir", str(tmp_path / "run"), "--pipeline",
                          "--corrections", corrections, "--grid=-3:3:5"], capsys)
    assert code == 0
    assert calls.count("pipeline_states") == 1
    assert calls.count("loss_channel") == losses


def test_wigner_repeated_corrections_run_once(tmp_path, capsys, monkeypatch):
    # a stage named twice is computed, printed and written once, in the order
    # first asked for; a state file takes repeats of its one stage
    calls = []

    def counted(*args, real=cli.wigner_grid):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cli, "wigner_grid", counted)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["wigner", "--output-dir", str(out), "--pipeline",
                               "--corrections", "none,both,none", "--grid=-3:3:5"], capsys)
    assert code == 0
    assert len(calls) == 2
    assert list(parse_kv(stdout)) == ["wigner_min[none]", "wigner_max[none]",
                                      "wigner_min[both]", "wigner_max[both]"]
    assert sorted(p.name for p in out.glob("wigner_*.csv")) == ["wigner_both.csv",
                                                                "wigner_none.csv"]
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    code, stdout, _ = run_cli(["wigner", "--output-dir", str(tmp_path / "file"),
                               "--state-file", str(state_path),
                               "--corrections", "none,none", "--grid=-3:3:5"], capsys)
    assert code == 0
    assert len(calls) == 3
    assert stdout.count("wigner_min[none]") == 1


def test_wigner_ideal_pipeline_approaches_target(tmp_path, capsys):
    # lossless storage and a narrow window make every stage equal the
    # pure bred state, whose Wigner function tracks the target cat
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["wigner", "--output-dir", str(out), "--pipeline",
         "--corrections", "both", "--photon-fidelity", "1.0",
         "--epsilon", "1e-3", "--per-trip-transmission", "1.0"], capsys)
    assert code == 0
    grid = read_wigner_csv(out / "wigner_both.csv")
    axis = np.linspace(-4, 4, 161)
    cat = target_cat(TargetCatSpec(), FockCutoff(20)).to_density()
    gap = np.max(np.abs(grid - wigner_grid(cat, axis, axis)))
    assert gap < 0.04


def test_wigner_guards_exclusive_sources(tmp_path, capsys):
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    run = str(tmp_path / "run")
    code, _, _ = run_cli(["wigner", "--output-dir", run], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["wigner", "--output-dir", run, "--pipeline",
         "--state-file", str(state_path)], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["wigner", "--output-dir", run, "--state-file", str(state_path),
         "--corrections", "detection"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["wigner", "--output-dir", run, "--pipeline",
         "--corrections", "sideways"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["wigner", "--output-dir", run, "--pipeline", "--grid", "oops"],
        capsys)
    assert code == 2
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("re_0,im_0,re_1,im_1,re_2,im_2\n"
                       "1,0,0,0,0,0\n0,0,zero,0,0,0\n0,0,0,0,0,0\n")
    code, _, err = run_cli(
        ["wigner", "--output-dir", run, "--state-file", str(garbled)], capsys)
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("argv", [["wigner", "--pipeline"],
                                  ["curve", "--n-max-values", "1,5"]])
def test_zero_herald_rate_is_a_domain_error(tmp_path, capsys, argv):
    out = tmp_path / "run"
    code, _, err = run_cli(
        argv + ["--output-dir", str(out), "--f-herald", "0"], capsys)
    assert code == 2
    assert "f_herald is 0" in err
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# simulate

SIM_ARGS = ["--f-herald", "5e6", "--seed", "7", "--duration-s", "2e-4"]


def test_simulate_writes_stats_and_events(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        ["simulate", "--output-dir", str(out)] + SIM_ARGS, capsys)
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    for key in ("attempts", "successes", "estimated_rate_hz",
                "closed_form_rate_hz", "rate_gap_sigmas",
                "storage_histogram", "mean_output_fidelity"):
        assert key in stats
    assert stats["successes"] >= 0
    events = [json.loads(line) for line in
              (out / "events.jsonl").read_text().strip().split("\n")]
    assert all(ev["kind"] in EVENT_KINDS for ev in events)
    assert "estimated_rate_hz" in stdout


def test_simulate_readme_run_is_pinned(tmp_path, capsys):
    # the README example; the events hash was taken before the timeline
    # became columns, from the per-sequence event objects it replaced. The
    # stats hash was re-pinned when the window integrals became exact:
    # closed_form_rate_hz and rate_gap_sigmas moved in their last digits
    out = tmp_path / "sim"
    code, _, _ = run_cli(["simulate", "--duration-s", "0.05", "--beta-elec",
                          "0.73", "--seed", "42", "--output-dir", str(out)],
                         capsys)
    assert code == 0
    events = (out / "events.jsonl").read_bytes()
    assert events.count(b"\n") == 33669
    assert hashlib.sha256(events).hexdigest() == (
        "fa0fdfc667b9bcf7cf89579e530d7ef4f413d7fbe88795af6786cdb0868e14d3")
    assert hashlib.sha256((out / "stats.json").read_bytes()).hexdigest() == (
        "3e536c592fbc48c668d1f4f3d53168e6fc327cca9cfa0bfde980ce79587b53b2")


def test_simulate_is_reproducible(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, _, _ = run_cli(["simulate", "--output-dir", str(out_a)] + SIM_ARGS,
                           capsys)
    code_b, _, _ = run_cli(["simulate", "--output-dir", str(out_b)] + SIM_ARGS,
                           capsys)
    assert code_a == code_b == 0
    assert (out_a / "stats.json").read_bytes() == (out_b / "stats.json").read_bytes()
    assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()


def test_simulate_without_heralds_reports_zero_rate(tmp_path, capsys):
    # the heralded mixture is undefined at f_herald = 0, but the timeline
    # and the closed-form rate are not: both give zero
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        ["simulate", "--output-dir", str(out), "--f-herald", "0",
         "--duration-s", "1e-4"], capsys)
    assert code == 0, err
    stats = json.loads((out / "stats.json").read_text())
    assert stats["attempts"] == stats["successes"] == 0
    assert stats["closed_form_rate_hz"] == 0.0
    assert stats["rate_gap_sigmas"] == 0.0
    assert (out / "events.jsonl").read_text() == ""
    assert "closed_form_rate_hz = 0" in stdout


def test_simulate_rejects_zero_duration(tmp_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--output-dir", str(tmp_path / "run"),
         "--duration-s", "0"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# sample + tomography round trip

def test_sample_then_reconstruct(tmp_path, capsys):
    sample_dir = tmp_path / "sample"
    code, stdout, _ = run_cli(
        ["sample", "--output-dir", str(sample_dir), "--source", "measured",
         "--count", "800", "--phases", "4", "--seed", "3"], capsys)
    assert code == 0
    assert "samples = 800 at 4 phases from measured" in stdout
    lines = (sample_dir / "dataset.csv").read_text().strip().split("\n")
    assert lines[0] == "theta,x"
    assert len(lines) == 801
    meta = read_meta(sample_dir / "dataset.meta")
    assert meta["source"] == "measured"
    assert int(meta["count"]) == 800

    tomo_dir = tmp_path / "tomo"
    code, stdout, _ = run_cli(
        ["tomography", "--output-dir", str(tomo_dir),
         "--dataset", str(sample_dir / "dataset.csv"),
         "--reconstruction-cutoff", "4"], capsys)
    assert code == 0
    rho_hat = read_density_csv(tomo_dir / "rho_hat.csv")
    rho_hat.validate()
    assert rho_hat.dimension == 5
    meta = read_meta(tomo_dir / "rho_hat.meta")
    assert meta["stop_reason"] in ("converged", "max_iterations")
    assert int(meta["samples"]) == 800
    assert 0.0 < float(meta["fidelity_to_target"]) < 1.0
    assert float(meta["gap_bound"]) >= -1e-12


def test_sample_is_reproducible(tmp_path, capsys):
    args = ["sample", "--source", "measured", "--count", "200",
            "--phases", "3", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(args + ["--output-dir", str(out_a)], capsys)
    run_cli(args + ["--output-dir", str(out_b)], capsys)
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()


def test_sample_from_state_file(tmp_path, capsys):
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["sample", "--output-dir", str(out), "--state-file", str(state_path),
         "--count", "300", "--phases", "2", "--seed", "5"], capsys)
    assert code == 0
    meta = read_meta(out / "dataset.meta")
    assert meta["source"] == str(state_path)


@pytest.mark.parametrize("flags,message", [
    # 1e12 samples would peak at about 160 TB
    (["--count", "1000000000000"], "at most 5000000"),
    # a billion phases for 17 000 samples: an 8 GB phase array
    (["--phases", "1000000000"], "one sample per phase"),
    # more phases than samples, refused before the source state is bred
    (["--phases", "20", "--count", "10"], "one sample per phase"),
], ids=["count", "phases", "phases_above_count"])
def test_sample_refuses_oversized_requests_before_they_allocate(
        tmp_path, capsys, monkeypatch, flags, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("built the source state before the request was checked")

    monkeypatch.setattr(cli, "pipeline_states", unreachable)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code, _, err = run_cli(["sample", "--output-dir", str(out), *flags], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in err
    assert peak < 1_000_000
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["curve", "--n-max-values", "1,10000000"],
    ["simulate", "--duration-s", "0.01", "--n-max", "10000000"],
    ["sample", "--n-max", "10000000"],
    ["wigner", "--pipeline", "--n-max", "10000000"],
], ids=["curve", "simulate", "sample", "wigner"])
def test_oversized_storage_windows_exit_2_before_they_breed(tmp_path, capsys, argv):
    # 1e7 gaps of the held photon's 2 x 2 block would take about 3.2 GB
    out = tmp_path / "run"
    code, _, err = run_cli([*argv, "--output-dir", str(out)], capsys)
    assert code == 2
    assert "3.2 GB at 4 entries of 80 B a gap" in err
    assert not out.exists()


def test_tomography_bootstrap_report(tmp_path, capsys):
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    sample_dir = tmp_path / "sample"
    run_cli(["sample", "--output-dir", str(sample_dir),
             "--state-file", str(state_path), "--count", "600",
             "--phases", "4", "--seed", "6"], capsys)
    tomo_dir = tmp_path / "tomo"
    code, stdout, _ = run_cli(
        ["tomography", "--output-dir", str(tomo_dir),
         "--dataset", str(sample_dir / "dataset.csv"),
         "--reconstruction-cutoff", "4", "--bootstrap", "50",
         "--grid=-3:3:31"], capsys)
    assert code == 0
    block = json.loads((tomo_dir / "bootstrap.json").read_text())
    expected_keys = {"fidelity_to_target", "wigner_min"} | {
        f"population_{n}" for n in range(5)}
    assert set(block) == expected_keys
    for entry in block.values():
        for field in ("mean", "std", "ci_low", "ci_high", "n_failed"):
            assert field in entry
    assert block["population_0"]["mean"] > 0.9
    assert "bootstrap[fidelity_to_target]" in stdout


def test_tomography_underdetermined_is_numerical_failure(tmp_path, capsys):
    data_path = tmp_path / "tiny.csv"
    rows = ["theta,x"] + ["0.0,0.1"] * 10
    data_path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        ["tomography", "--output-dir", str(tmp_path / "run"),
         "--dataset", str(data_path), "--reconstruction-cutoff", "12"],
        capsys)
    assert code == 3
    assert "numerical failure" in err


def test_tomography_rejects_bad_datasets(tmp_path, capsys):
    code, _, _ = run_cli(
        ["tomography", "--output-dir", str(tmp_path / "run"),
         "--dataset", str(tmp_path / "missing.csv")], capsys)
    assert code == 2
    contents = {
        "empty": b"theta,x\n",
        "wrong_header": b"x,theta\n0.1,0.0\n",
        "non_numeric": b"theta,x\n0.0,0.1\n0.5,abc\n",
        "one_column": b"theta,x\n0.0\n0.5\n",
        "three_columns": b"theta,x\n0.0,0.1,7\n0.5,0.2,7\n",
        "not_text": b"\xff\xfetheta,x\n",
        # enough rows for the default basis, one outside the binned span
        "out_of_span": b"theta,x\n" + b"0.0,0.1\n" * 12 + b"0.0,50\n",
    }
    for name, content in contents.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(content)
        code, _, err = run_cli(
            ["tomography", "--output-dir", str(tmp_path / "run"),
             "--dataset", str(path)], capsys)
        assert code == 2, name
        assert err.startswith("error:"), name


# ---------------------------------------------------------------------------
# the command runner

def test_every_command_writes_its_files_and_manifest(tmp_path, capsys):
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    dataset = tmp_path / "sample" / "dataset.csv"
    commands = {
        "breed": ["--grid=-1:1:5"],
        "curve": ["--n-max-values", "1,5"],
        "wigner": ["--pipeline", "--corrections", "none,both",
                   "--grid=-1:1:5"],
        "simulate": SIM_ARGS,
        "sample": ["--state-file", str(state_path), "--count", "600",
                   "--phases", "4", "--seed", "6"],
        "tomography": ["--dataset", str(dataset), "--reconstruction-cutoff",
                       "4", "--bootstrap", "50", "--grid=-1:1:5"],
    }
    for command, extra in commands.items():
        out = tmp_path / command
        code, stdout, err = run_cli([command, "--output-dir", str(out)] + extra,
                                    capsys)
        assert code == 0, (command, err)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == files, command
        assert stdout.splitlines()[-1] == f"outputs -> {out}"
    # the staging directories, made beside each output directory, are gone
    assert not list(tmp_path.glob(".catbreed-*"))


def tiny_tomography(tmp_path, out) -> list:
    """tomography argv on a 20-sample dataset at reconstruction cutoff 4."""
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("theta,x\n" + "".join(
        f"{0.5 * (k % 4)},{0.1 * k - 1.0}\n" for k in range(20)))
    return ["tomography", "--output-dir", str(out), "--dataset", str(dataset),
            "--reconstruction-cutoff", "4"]


@pytest.mark.parametrize("case", ["eta_homodyne", "n_min", "bootstrap",
                                  "negative_bootstrap", "max_iter",
                                  "breed_grid", "wigner_grid",
                                  "bootstrap_grid", "nan_tol", "inf_tol",
                                  "negative_sigma", "empty_phases",
                                  "zero_phases", "negative_phases",
                                  "more_phases_than_samples",
                                  "infinite_phase", "nan_phase",
                                  "infinite_grid", "huge_duration",
                                  "infinite_f_rep", "nan_f_herald",
                                  "wigner_trace_two", "wigner_negative",
                                  "sample_trace_two", "sample_negative",
                                  "huge_cutoff",
                                  "huge_reconstruction_cutoff"])
def test_failing_command_writes_nothing(tmp_path, capsys, monkeypatch, case):
    # every command validates the protocol settings, and a command that
    # fails part-way leaves not even its output directory behind
    state_path = tmp_path / "vacuum.csv"
    write_density_csv(fock_state(0, FockCutoff(4)).to_density(), state_path)
    # state files that are not density matrices: trace 2, and an
    # eigenvalue of -0.4
    bad_states = {}
    for name, diagonal in [("trace_two", [2.0, 0, 0, 0, 0]),
                           ("negative", [1.4, -0.4, 0, 0, 0])]:
        bad_states[name] = tmp_path / f"{name}.csv"
        write_density_csv(DensityOperator(np.diag(diagonal), FockCutoff(4)),
                          bad_states[name])
    out = tmp_path / "run"
    tomography = tiny_tomography(tmp_path, out)
    huge_grid = "--grid=-4:4:100000"
    if "bootstrap" in case or "tol" in case:
        # the bootstrap settings and the tolerance are refused before the
        # point fit runs
        def no_fit(*args, **kwargs):
            raise AssertionError("the point fit ran before its settings "
                                 "were checked")

        monkeypatch.setattr(cli, "maxlik_reconstruct", no_fit)
    argv = {
        "eta_homodyne": tomography + ["--efficiency-model", "detection",
                                      "--eta-homodyne", "1.5"],
        "n_min": ["wigner", "--output-dir", str(out), "--state-file",
                  str(state_path), "--n-min", "0"],
        "bootstrap": tomography + ["--bootstrap", "10"],
        "negative_bootstrap": tomography + ["--bootstrap", "-5"],
        "max_iter": tomography + ["--max-iter", "0"],
        # 100000^2 Wigner points would need about 1.5 TB; the grid cap
        # refuses them before anything of that size is allocated
        "breed_grid": ["breed", "--output-dir", str(out), huge_grid],
        "wigner_grid": ["wigner", "--output-dir", str(out), "--pipeline",
                        huge_grid],
        "bootstrap_grid": tomography + ["--bootstrap", "50", huge_grid],
        "nan_tol": tomography + ["--tol", "nan"],
        "inf_tol": tomography + ["--tol", "inf"],
        "negative_sigma": ["sample", "--output-dir", str(out), "--state-file",
                           str(state_path), "--count", "40",
                           "--phase-noise-sigma", "-0.5"],
        "empty_phases": ["sample", "--output-dir", str(out), "--state-file",
                         str(state_path), "--count", "40", "--phases", ","],
        # a refused phase count is not read as a single phase in radians
        "zero_phases": ["sample", "--output-dir", str(out), "--state-file",
                        str(state_path), "--count", "40", "--phases", "0"],
        "negative_phases": ["sample", "--output-dir", str(out),
                            "--state-file", str(state_path), "--count", "40",
                            "--phases", "-3"],
        "more_phases_than_samples": ["sample", "--output-dir", str(out),
                                     "--state-file", str(state_path),
                                     "--count", "3", "--phases", "4"],
        "infinite_phase": ["sample", "--output-dir", str(out), "--state-file",
                           str(state_path), "--count", "40", "--phases",
                           "inf"],
        "nan_phase": ["sample", "--output-dir", str(out), "--state-file",
                      str(state_path), "--count", "40", "--phases", "0,nan"],
        "infinite_grid": ["wigner", "--output-dir", str(out), "--pipeline",
                          "--grid", "0:inf:3"],
        # 1e7 s at 310 kHz would need hundreds of terabytes of events; the
        # herald cap refuses it before anything is drawn
        "huge_duration": ["simulate", "--output-dir", str(out),
                          "--duration-s", "1e7"],
        "infinite_f_rep": ["simulate", "--output-dir", str(out),
                           "--duration-s", "0.01", "--f-rep", "inf"],
        "nan_f_herald": ["simulate", "--output-dir", str(out),
                         "--duration-s", "0.01", "--f-herald", "nan"],
        "wigner_trace_two": ["wigner", "--output-dir", str(out),
                             "--state-file", str(bad_states["trace_two"])],
        "wigner_negative": ["wigner", "--output-dir", str(out),
                            "--state-file", str(bad_states["negative"])],
        "sample_trace_two": ["sample", "--output-dir", str(out),
                             "--state-file", str(bad_states["trace_two"]),
                             "--count", "40"],
        "sample_negative": ["sample", "--output-dir", str(out),
                            "--state-file", str(bad_states["negative"]),
                            "--count", "40"],
        # a 10^6 cutoff would need terabytes for one dense state; the
        # cutoff cap refuses it before anything of that size is allocated
        "huge_cutoff": ["breed", "--output-dir", str(out),
                        "--cutoff", "1000000"],
        "huge_reconstruction_cutoff": tomography + [
            "--reconstruction-cutoff", "1000000"],
    }[case]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")
    if case.endswith(("f_rep", "f_herald")):
        # the message blames the rate, not the valid duration
        assert err.startswith(f"error: {case.split('_', 1)[1]} must be finite")
    assert not out.exists()


def test_failed_write_removes_what_the_run_wrote(tmp_path, capsys,
                                                  monkeypatch):
    def broken_meta(path, entries):
        Path(path).write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_meta", broken_meta)
    # rho_hat.csv is written and renamed into place before rho_hat.meta fails
    out = tmp_path / "new" / "run"
    code, _, _ = run_cli(tiny_tomography(tmp_path, out), capsys)
    assert code == 4
    assert not (tmp_path / "new").exists()

    # a directory that existed before the run keeps its other files
    out = tmp_path / "existing"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    code, _, _ = run_cli(tiny_tomography(tmp_path, out), capsys)
    assert code == 4
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me"


def fresh_interpreter_output(probe: str) -> str:
    """The standard output of ``probe`` run by a new Python that imports this
    checkout's package."""
    src = str(Path(catbreed.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle only
    assert fresh_interpreter_output(
        "import sys, catbreed.cli; print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))") == "[]"


def test_importing_the_cli_builds_no_cache():
    # the Wigner sector prefix is built on its first use, so start-up does not
    # pay for it
    assert fresh_interpreter_output(
        "import catbreed.cli, catbreed.fock as f; "
        "print(f._sector_prefix.cache_info().currsize)") == "0"


# ---------------------------------------------------------------------------
# configuration file and environment

def test_config_file_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "protocol.ini"
    ini.write_text("[protocol]\nphoton_fidelity = 0.95\nepsilon = 0.25\n")
    out_a = tmp_path / "a"
    code, stdout_a, _ = run_cli(
        ["breed", "--output-dir", str(out_a), "--config", str(ini)], capsys)
    assert code == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["photon_fidelity"] == 0.95
    assert manifest["config"]["epsilon"] == 0.25

    out_b = tmp_path / "b"
    code, stdout_b, _ = run_cli(
        ["breed", "--output-dir", str(out_b), "--config", str(ini),
         "--photon-fidelity", "0.87", "--epsilon", "0.3"], capsys)
    assert code == 0
    assert float(parse_kv(stdout_b)["herald_probability"]) == pytest.approx(
        0.224556, abs=1e-5)
    assert parse_kv(stdout_a)["herald_probability"] != \
        parse_kv(stdout_b)["herald_probability"]


# every protocol setting with a valid non-default value
PROTOCOL_SETTINGS = {
    "f_rep": 80e6,
    "f_herald": 2e5,
    "beta_elec": 0.5,
    "epsilon": 0.25,
    "window_phase": 0.1,
    "n_min": 2,
    "n_max": 10,
    "per_trip_transmission": 0.99,
    "readout_trips": 5,
    "eta_homodyne": 0.8,
    "photon_fidelity": 0.9,
    "two_photon_weight": 0.01,
    "condition_with_detector_efficiency": True,
    "cutoff": 25,
    "rng_seed": 3,
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(PROTOCOL_SETTINGS))
def test_every_protocol_setting_reaches_the_config(tmp_path, capsys, key,
                                                   source):
    value = PROTOCOL_SETTINGS[key]
    argv = ["breed", "--output-dir", str(tmp_path / "run"), "--grid=-1:1:5"]
    if source == "flag":
        flag = "--seed" if key == "rng_seed" else "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    else:
        ini = tmp_path / "protocol.ini"
        ini.write_text(f"[protocol]\n{key} = {value}\n")
        argv += ["--config", str(ini)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
    assert set(config) == set(PROTOCOL_SETTINGS)
    assert config[key] == value
    assert type(config[key]) is type(value)


def test_config_file_error_paths(tmp_path, capsys):
    run = str(tmp_path / "run")
    missing = tmp_path / "missing.ini"
    code, _, _ = run_cli(
        ["breed", "--output-dir", run, "--config", str(missing)], capsys)
    assert code == 2

    no_section = tmp_path / "nosection.ini"
    no_section.write_text("[other]\nphoton_fidelity = 0.9\n")
    code, _, _ = run_cli(
        ["breed", "--output-dir", run, "--config", str(no_section)], capsys)
    assert code == 2

    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[protocol]\nwarp_factor = 9\n")
    code, _, _ = run_cli(
        ["breed", "--output-dir", run, "--config", str(unknown)], capsys)
    assert code == 2

    bad_type = tmp_path / "badtype.ini"
    bad_type.write_text("[protocol]\nn_max = fifteen\n")
    code, _, _ = run_cli(
        ["breed", "--output-dir", run, "--config", str(bad_type)], capsys)
    assert code == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_2_before_anything_is_bred(tmp_path, capsys, monkeypatch,
                                                       source):
    def unreachable(*args, **kwargs):
        raise AssertionError("bred before the seed was checked")

    monkeypatch.setattr(protocol, "_breed", unreachable)
    config = tmp_path / "seed.ini"
    config.write_text("[protocol]\nrng_seed = -1\n")
    out = tmp_path / "run"
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
    code, _, err = run_cli(["simulate", "--duration-s", "1e-4", *seed,
                            "--output-dir", str(out)], capsys)
    assert code == 2
    assert "rng_seed must be >= 0" in err
    assert not out.exists()


def test_output_root_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(["breed"], capsys)
    assert code == 0
    assert (tmp_path / "root" / "breed" / "bred_state.csv").exists()
    assert (tmp_path / "root" / "breed" / "manifest.json").exists()
