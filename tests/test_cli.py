"""Command-line surface: formats, round-trips, exit codes, file outputs."""

import json
import math
import subprocess
import sys

import pytest

from xxz_engine.cli import (
    format_cell,
    main,
    sweep_config_from_dict,
    sweep_config_to_dict,
)
from xxz_engine import CycleKind, CycleSpec, SweepAxis, SweepConfig, figure_preset, run_sweep
from xxz_engine.sweep import OUTPUT_KEYS


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_eigensystem_zero_point(capsys):
    status, out, _ = run_cli(capsys, "eigensystem", "--B", "0", "--J", "1", "--delta", "0")
    assert status == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["E1", "E2", "E3", "E4"]
    assert rows[0][:4] == ["0", "0", "-1", "1"]
    assert len(header) == 8  # energies plus the four canonical gaps


def test_data_stream_is_pure_csv(capsys):
    status, out, _ = run_cli(
        capsys, "eigensystem", "--B", "1", "--J", "1", "--delta", "0.1"
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert all("," in line for line in lines)


def test_printed_values_reparse_within_print_precision(capsys):
    _, out, _ = run_cli(
        capsys, "steady", "--B", "0.5", "--J", "1", "--delta", "0.1",
        "--kappa", "0.05", "--epsilon", "1", "--TL", "1.3", "--TR", "0.7",
    )
    header, rows = parse_csv(out)
    from xxz_engine import steady_state_solve
    from conftest import build_rates

    _, rates = build_rates(B=0.5, delta=0.1, T_L=1.3, T_R=0.7, epsilon=1.0)
    exact = steady_state_solve(rates).p
    for printed, value in zip(rows[0], exact):
        reparsed = float(printed)
        ulp_of_print = 10.0 ** (math.floor(math.log10(abs(value))) - 11)
        assert abs(reparsed - value) <= 0.5 * ulp_of_print


def test_cycle_asymmetric_produces_work(capsys):
    status, out, err = run_cli(
        capsys, "cycle", "--kind", "gqoc-asym", "--B", "0.5", "--delta-c", "0.10",
        "--delta-h", "0.99", "--kappa", "0.05", "--tm", "1.2", "--dt", "2.4",
    )
    assert status == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["w"]) > 0.0
    assert row["positive_work"] == "1"
    assert "relaxation timescale" in err  # diagnostics stay off the data stream


def test_cycle_symmetric_reports_missing_efficiency(capsys):
    status, out, _ = run_cli(
        capsys, "cycle", "--kind", "gqoc-sym", "--B", "0.5", "--delta-c", "0.10",
        "--delta-h", "0.99", "--kappa", "0.05", "--tm", "1.2", "--dt", "2.4",
    )
    assert status == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["w"]) < 0.0
    assert row["eta"] == ""  # undefined, not zero


def test_rates_table_shape(capsys):
    status, out, _ = run_cli(
        capsys, "rates", "--B", "1", "--J", "1", "--delta", "0.1",
        "--kappa", "0.05", "--epsilon", "1", "--TL", "2.4", "--TR", "0.005",
    )
    assert status == 0
    header, rows = parse_csv(out)
    assert header[0] == "pair"
    assert [r[0] for r in rows] == ["1-3", "1-4", "2-3", "2-4"]
    by_pair = {r[0]: dict(zip(header, r)) for r in rows}
    assert float(by_pair["1-3"]["emission_L"]) == 0.0
    assert float(by_pair["1-4"]["emission_L"]) > 0.0


def test_steady_both_reports_deviation(capsys):
    status, out, _ = run_cli(
        capsys, "steady", "--B", "0.4", "--J", "1", "--delta", "0.3",
        "--kappa", "0.05", "--epsilon", "0", "--TL", "1.0", "--TR", "2.0",
        "--method", "both",
    )
    assert status == 0
    header, rows = parse_csv(out)
    assert header[0] == "method"
    assert rows[0][0] == "solve" and rows[1][0] == "closed"
    assert float(rows[1][-1]) < 1e-9


def test_steady_closed_fallback_is_numerical_failure(capsys):
    # frozen reservoirs underflow the closed-form denominators entirely
    status, out, _ = run_cli(
        capsys, "steady", "--B", "0.5", "--J", "1", "--delta", "0.1",
        "--kappa", "0.05", "--epsilon", "1", "--TL", "0.005", "--TR", "0.005",
        "--method", "both",
    )
    assert status == 3
    _, rows = parse_csv(out)
    assert rows[1][1] == "#ERR:CLOSEDFORM"


def test_epsilon_gate(capsys):
    args = ["steady", "--B", "0.5", "--J", "1", "--delta", "0.1",
            "--kappa", "0.05", "--epsilon", "0.5", "--TL", "1.0", "--TR", "2.0"]
    status, _, err = run_cli(capsys, *args)
    assert status == 2
    assert "allow-any-epsilon" in err
    status, out, _ = run_cli(capsys, *(args + ["--allow-any-epsilon"]))
    assert status == 0


def test_relax_trajectory(capsys):
    status, out, _ = run_cli(
        capsys, "relax", "--B", "0.5", "--J", "1", "--delta", "0.1",
        "--kappa", "0.05", "--epsilon", "0", "--TL", "1.0", "--TR", "1.0",
        "--t-end", "10", "--dt", "0.5", "--p0", "1,0,0,0",
    )
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P1", "P2", "P3", "P4"]
    assert len(rows) == 21
    assert float(rows[0][1]) == 1.0
    total = sum(float(x) for x in rows[-1][1:])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_entropy_command(capsys):
    status, out, _ = run_cli(
        capsys, "entropy", "--kind", "gqoc-asym", "--B", "0.5", "--delta-c", "0.10",
        "--delta-h", "0.99", "--kappa", "0.05", "--tm", "1.2", "--dt", "2.4",
    )
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["pi12", "pi34", "pi_total"]
    pi12, pi34, total = (float(x) for x in rows[0])
    assert pi12 > 0.0 and pi34 > 0.0
    assert total == pytest.approx(pi12 + pi34)


def test_sweep_roundtrip_through_json(tmp_path, capsys):
    preset = figure_preset("fig2")
    doc = sweep_config_to_dict(preset.runs[0].config)
    doc["axes"][0]["count"] = 5  # shrink for the test
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc))
    out_path = tmp_path / "table.csv"
    status, out, err = run_cli(
        capsys, "sweep", "--config", str(config_path), "--out", str(out_path)
    )
    assert status == 0
    assert out == ""
    header, rows = parse_csv(out_path.read_text())
    assert header == ["B", "cycle", "xi_diff", "w"]
    assert len(rows) == 5 * 3
    rebuilt = sweep_config_from_dict(json.loads(config_path.read_text()))
    assert rebuilt.axes[0].count == 5


def test_sweep_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"base": {}, "axes": [], "cycles": [], "outputs": []}))
    status, _, err = run_cli(capsys, "sweep", "--config", str(bad))
    assert status == 2
    assert err != ""
    status, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert status == 2
    good = sweep_config_to_dict(figure_preset("fig2").runs[0].config)
    extra_top = dict(good, extra=1)
    extra_axis = dict(good, axes=[dict(good["axes"][0], extra=1)])
    fractional = dict(good, axes=[dict(good["axes"][0], count=3.7)])
    not_object = dict(good, axes=[5])
    bool_kappa = dict(good, base=dict(good["base"], kappa=True))
    bool_delta = dict(good, base=dict(good["base"], delta_c=False))
    str_start = dict(good, axes=[dict(good["axes"][0], start="-1")])
    bool_stop = dict(good, axes=[dict(good["axes"][0], stop=True)])
    str_outputs = dict(good, outputs="w")
    str_cycles = dict(good, cycles="qoc")
    str_base = dict(good, base="x")
    huge_kappa = json.dumps(good).replace('"kappa": 0.05', '"kappa": 1' + "0" * 400)
    for doc, named in (
        (extra_top, "extra"), (extra_axis, "extra"), (fractional, "3.7"), (not_object, "5"),
        (bool_kappa, "kappa"), (bool_delta, "delta_c"), (str_start, "start"),
        (bool_stop, "stop"), (str_outputs, "outputs"), (str_cycles, "cycles"),
        (str_base, "base"), (json.loads(huge_kappa), "kappa"),
    ):
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "sweep", "--config", str(bad))
        assert status == 2
        assert out == ""
        assert named in err


def test_overflowing_sweep_row_is_a_numeric_error(tmp_path, capsys):
    good = sweep_config_to_dict(figure_preset("fig2").runs[0].config)
    doc = dict(good, axes=[{"name": "kappa", "start": 0.05, "stop": 1e308, "count": 2}],
               cycles=["gqoc-asym", "qoc"], outputs=["w", "pi12"])
    config = tmp_path / "kappa.json"
    config.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="kappa = 1e\\+308"):
        status, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 3
    header, rows = parse_csv(out)
    assert header == ["kappa", "cycle", "w", "pi12"]
    assert [row[:2] for row in rows] == [["0.05", "gqoc-asym"], ["0.05", "qoc"],
                                         ["1e+308", "gqoc-asym"], ["1e+308", "qoc"]]
    assert rows[2][2:] == ["#ERR:NUMERIC", "#ERR:NUMERIC"]
    assert all(not cell.startswith("#ERR") for row in rows[:2] + rows[3:] for cell in row)


def test_sweep_grid_is_capped_before_evaluation():
    good = sweep_config_to_dict(figure_preset("fig2").runs[0].config)
    huge = [
        dict(good["axes"][0], count=100_000),
        {"name": "T_M", "start": 0.21, "stop": 6.0, "count": 100_000},
    ]
    with pytest.raises(ValueError, match="10000000000 points"):
        sweep_config_from_dict(dict(good, axes=huge))


@pytest.mark.parametrize("kind", [k.value for k in CycleKind])
def test_cycle_row_matches_sweep_row(capsys, kind):
    status, out, _ = run_cli(
        capsys, "cycle", "--kind", kind, "--B", "0.5", "--delta-c", "0.10",
        "--delta-h", "0.99", "--kappa", "0.05", "--tm", "1.2", "--dt", "2.4",
    )
    assert status == 0
    header, rows = parse_csv(out)
    cycle_row = dict(zip(header, rows[0]))
    base = CycleSpec(kind=kind, B=0.5, delta_c=0.10, delta_h=0.99, kappa=0.05, T_M=1.2, dT=2.4)
    table = run_sweep(SweepConfig(
        base=base,
        axes=(SweepAxis(name="B", start=0.5, stop=1.5, count=2),),
        cycles=(kind,),
        outputs=OUTPUT_KEYS,
    ))
    sweep_row = dict(zip(table.columns, (format_cell(v) for v in table.rows[0])))
    shared = set(cycle_row) & set(sweep_row)
    assert shared >= {"B", "q12", "w", "eta", "positive_work", "P4_h"}
    assert {k: cycle_row[k] for k in shared} == {k: sweep_row[k] for k in shared}


def test_figure_writes_panel_files(tmp_path, capsys):
    # shrink the preset grid by patching is overkill: use fig2 with a real run
    # but the smallest grid comes from the sweep config route; here we only
    # check the figure command end to end on the coarsest preset (figEP).
    status, out, err = run_cli(capsys, "figure", "figEP", "--out", str(tmp_path))
    assert status == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == ["figEP_tm0.21.csv", "figEP_tm1.2.csv", "figEP_tm6.csv"]
    header, rows = parse_csv((tmp_path / "figEP_tm1.2.csv").read_text())
    assert header == ["B", "pi12", "pi34", "pi_total"]
    assert len(rows) == 601
    assert out == ""


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "xxz_engine.cli", "eigensystem", "--B", "0", "--J", "1", "--delta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("0,0,-1,1")


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(0.1) == "0.1"
    assert format_cell("#ERR:DOMAIN") == "#ERR:DOMAIN"
    assert format_cell(1.0 / 3.0) == "0.333333333333"
