"""The benchmark's own output checks catch planted faults.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

import layers
import workloads
from workloads import (CliOutcome, CodecOutcome, check_codec, check_fleet_outputs,
                       check_oracle, check_plan, check_plan_files, codec, fingerprint,
                       planner, simulate, synth)


class OneFleet(workloads.FleetSim):
    POOL = 1


@pytest.fixture
def fleet_runs(tmp_path, monkeypatch):
    """A warm-up run and a rerun of one fleet that completes with exit 0."""
    monkeypatch.chdir(tmp_path)
    for seed in range(20):
        workdir = tmp_path / f"w{seed}"
        wl = OneFleet(seed, workdir)
        item = wl.pool[0]
        runs = []
        for _ in range(2):
            wl.prepare(item)
            runs.append(wl.collect(item, wl.run(item)))
        if runs[0].code == 0:
            return wl, item, runs[0], runs[1]
        shutil.rmtree(workdir)
    pytest.fail("no fleet with exit code 0 among 20 seeds")


def test_fleet_rerun_passes(fleet_runs):
    wl, item, ref, rerun = fleet_runs
    assert wl.check(item, ref, None) == []
    assert wl.check(item, rerun, fingerprint(ref)) == []


def test_fleet_flipped_byte_in_links_csv(fleet_runs):
    wl, item, ref, rerun = fleet_runs
    data = bytearray(rerun.files["links.csv"])
    data[-3] ^= 0x01
    rerun.files["links.csv"] = bytes(data)
    problems = wl.check(item, rerun, fingerprint(ref))
    assert any("differ from the warm-up run" in p for p in problems)


def _budget_message(src, dst, allowed, bits):
    return (f"infeasible: link {src}->{dst}: budget {allowed:.1f} bits unreachable: "
            f"coarsest step 16 still needs {bits:.1f} bits\n")


def test_fleet_spurious_budget_error_caught(fleet_runs):
    """Exit 3 on a fleet whose links all fit is a fault, whatever the message says."""
    wl, item, ref, _ = fleet_runs
    row = workloads._csv_rows(ref.files["links.csv"])[0]
    src = int(row["src"])
    img = workloads.image_io.read_image(item.scenario_path.parent / f"node{src}.pgm")
    allowed = 1.05 * float(row["ratio"]) * 8 * img.size
    cfg = codec.CodecConfig(quant_step=float(codec.QUANT_STEP_GRID[-1]))
    bits = codec.encode(img, cfg, codec.EntropyModel.generic()).bit_count
    spurious = CliOutcome(3, "", _budget_message(src, row["dst"], allowed, bits), {})
    problems = wl.check(item, spurious, None)
    assert any("reported unreachable" in p for p in problems)
    garbled = CliOutcome(3, "", "infeasible: something else\n", {})
    assert any("without a budget message" in p for p in wl.check(item, garbled, None))


@pytest.fixture
def budget_error_run(tmp_path, monkeypatch):
    """The fleet of seed 59 ends in a genuine BudgetError (exit code 3)."""
    monkeypatch.chdir(tmp_path)
    wl = OneFleet(59, tmp_path / "w")
    item = wl.pool[0]
    out = wl.collect(item, wl.run(item))
    if out.code != 3:
        pytest.fail("the fleet of seed 59 no longer ends in BudgetError; pick another seed")
    return wl, item, out


def test_fleet_genuine_budget_error_passes(budget_error_run):
    wl, item, out = budget_error_run
    assert wl.check(item, out, None) == []


def test_fleet_budget_error_with_wrong_figures_caught(budget_error_run):
    wl, item, out = budget_error_run
    match = workloads.BUDGET_MESSAGE.match(out.stderr.strip())
    wrong = _budget_message(match[1], match[2], float(match[3]), float(match[4]) + 1.0)
    problems = wl.check(item, CliOutcome(3, "", wrong, {}), None)
    assert any("figures" in p for p in problems)


def test_fleet_bits_over_budget_caught():
    links = ("src,dst,ratio,rate_bps,delay_s,quant_step,bits,bpp,psnr_db,ms_ssim,mse\n"
             "1,0,0.5,1,1,0.1,{bits},1,30,0.9,0.001\n")
    plan = "src,dst,ratio,rate_bps,delay_s\n1,0,0.5,1,1\n"
    pixels = 100
    allowed = 1.05 * 0.5 * 8 * pixels

    def outcome(bits):
        return CliOutcome(0, "", "", {"links.csv": links.format(bits=bits).encode(),
                                      "plan.csv": plan.encode()})

    assert check_fleet_outputs(outcome(allowed), None, pixels) == []
    assert check_fleet_outputs(outcome(allowed * 1.001), None, pixels)


def _over_budget(scenario):
    """The optimizer's plan plus enough extra links to exceed the budget by one."""
    plan = planner.optimize(scenario, planner.SolverConfig(seed=0))
    link = plan.link_matrix.copy()
    free = [(i, j) for i in range(len(link)) for j in range(len(link))
            if i != j and not link[i, j]]
    while link.sum() <= scenario.channel.num_subchannels:
        i, j = free.pop()
        link[i, j] = 1
    return plan, workloads.plan_from_selection(scenario, link)


@pytest.fixture
def small_scenario():
    scenario = synth.random_scenario(3, max_nodes=5, max_subchannels=4)
    assert len(scenario.nodes) == 5
    return scenario


def test_plan_one_link_over_budget(small_scenario):
    plan, bad = _over_budget(small_scenario)
    assert bad.num_links == small_scenario.channel.num_subchannels + 1
    assert check_plan(plan, small_scenario) == []
    assert any("exceed" in p for p in check_plan(bad, small_scenario))


def test_plan_files_one_link_over_budget(small_scenario):
    plan, bad = _over_budget(small_scenario)

    def files(p):
        return CliOutcome(0, "", "", {
            "plan.txt": simulate.plan_matrix_report(p).encode(),
            "plan.csv": simulate.plan_csv(p, small_scenario).encode()})

    assert check_plan_files(files(plan), small_scenario) == []
    assert any("exceed" in p for p in check_plan_files(files(bad), small_scenario))


def test_oracle_check_one_link_over_budget(small_scenario):
    plan, bad = _over_budget(small_scenario)
    oracle = planner.exhaustive_optimum(small_scenario)
    good = workloads.OracleOutcome(plan, oracle, planner.validate_plan(plan, small_scenario))
    assert check_oracle(good, small_scenario, None) == []
    # even if validate_plan missed it, the independent budget check fires
    planted = workloads.OracleOutcome(bad, oracle, [])
    assert any("exceed" in p for p in check_oracle(planted, small_scenario, None))


@pytest.fixture
def codec_case():
    img = workloads.codec_frames(5, 1, 32)[0]
    cfg = codec.CodecConfig()
    model = codec.refine_model(codec.EntropyModel.generic(), [img], cfg)
    return img, 0.35, model, cfg


def _outcome(step, frame, model):
    data = codec.serialize_frame(frame)
    back = codec.deserialize_frame(data, model)
    recon = codec.decode(back)
    return CodecOutcome(step, frame, data, back, recon, 0.0)


def test_codec_finest_feasible_passes(codec_case):
    img, ratio, model, cfg = codec_case
    step, frame = codec.rate_control(img, ratio, model, cfg)
    assert check_codec(img, ratio, model, cfg, _outcome(step, frame, model), None) == []


def test_codec_one_step_coarser_caught(codec_case):
    img, ratio, model, cfg = codec_case
    step, _ = codec.rate_control(img, ratio, model, cfg)
    index = int(np.flatnonzero(codec.QUANT_STEP_GRID == step)[0])
    coarser = float(codec.QUANT_STEP_GRID[index + 1])
    frame = codec.encode(img, dataclasses.replace(cfg, quant_step=coarser), model)
    problems = check_codec(img, ratio, model, cfg, _outcome(coarser, frame, model), None)
    assert any("also fits" in p for p in problems)


def test_tracer_wraps_callers_namespaces_and_restores(small_scenario):
    original = planner.capacity_matrix
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert planner.capacity_matrix is not original
        planner.optimize(small_scenario, planner.SolverConfig(seed=0))
    finally:
        tracer.uninstall()
    assert planner.capacity_matrix is original
    assert tracer.stats["planner.optimize"].calls == 1
    # looked up by optimize in the planner module, not in channel
    assert tracer.stats["channel.capacity_matrix"].calls == 1
    assert tracer.counts["candidates"] == len(small_scenario.nodes) * (len(small_scenario.nodes) - 1)


def test_tracer_flags_a_renamed_function(monkeypatch):
    monkeypatch.setitem(layers.TARGETS, "codec.renamed", ("v2vsim.codec", "no_such_function"))
    tracer = layers.Tracer()
    assert tracer.missing == ["codec.renamed"]
    assert tracer.stats["codec.renamed"].calls == 0
