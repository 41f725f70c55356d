import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ineqlab
from ineqlab import traces
from ineqlab.cli import _fmt, build_parser, load_config, main
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, load_grid, make, save_grid


def run(args):
    return main(args)


def test_check_single_row(tmp_path):
    out = tmp_path / "run"
    code = run(
        ["check", "--id", "prop1", "--family", "random-steps", "--d", "2",
         "--n", "64", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "id,family,seed,lhs,rhs,ratio,pass"
    assert len(lines) == 2
    assert lines[1].startswith("prop1,")


def test_import_loads_no_scipy():
    # HiGHS and quadrature load bare scipy and one extension module on first
    # use, so a fresh command that solves nothing loads no scipy at all
    src = str(Path(ineqlab.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ineqlab, ineqlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_norms_zero_field(tmp_path):
    u = make(GridSpec(2, 8, 1.0), np.zeros(64))
    f = tmp_path / "zero.pgf"
    save_grid(u, f)
    out = tmp_path / "n"
    code = run(["norms", "--in", str(f), "--all", "--out", str(out)])
    assert code == 0
    rows = (out / "norms.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.rsplit(",", 1)[1]) == 0.0 for r in rows)


def test_sweep_csv_and_svg(tmp_path):
    out = tmp_path / "s"
    code = run(
        ["sweep", "--id", "geomest", "--family", "ball-lattice", "--d", "2",
         "--n", "64", "--params", "n_balls=2", "--phi", "1/4,1/16,1/64",
         "--plot", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_rerun_from_config_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["check", "--id", "prop1", "--family", "random-steps", "--d", "1",
            "--n", "128", "--seeds", "0..4", "--out", str(out1)]
    assert run(args) == 0
    assert run(["report", str(out1 / "run.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_exit_code_one_on_failure(tmp_path):
    # gn with q=2 against an impossible constant of 0 fails rows -> exit 1
    out = tmp_path / "f"
    code = run(
        ["check", "--id", "prop5", "--family", "ball-lattice", "--d", "2", "--n", "8",
         "--params", "phi=0.4,n_balls=1", "--nu", "1e-9", "--out", str(out)]
    )
    assert code == 2  # precondition violation is a usage error
    code = run(
        ["sweep", "--id", "gn", "--q", "2", "--family", "random-steps", "--d", "1",
         "--n", "64", "--seeds", "0..3", "--out", str(out)]
    )
    assert code == 0


def test_usage_error_unknown_flag():
    assert run(["check", "--id", "prop1", "--no-such-flag"]) == 2


@pytest.mark.parametrize("base,dead", [
    (["check", "--id", "prop1", "--family", "random-steps", "--d", "1", "--n", "16"], ["--plot"]),
    (["norms", "--family", "random-steps", "--d", "1", "--n", "16", "--kind", "tv"], ["--method", "exact"]),
    (["norms", "--family", "random-steps", "--d", "1", "--n", "16", "--kind", "tv"], ["--support-cap", "64"]),
    (["cover", "--family", "ball-lattice", "--params", "n_balls=1,phi=0.1", "--n", "64", "--R", "1/16",
      "--L", "1/4"], ["--method", "bogus"]),
    (["cover", "--family", "ball-lattice", "--params", "n_balls=1,phi=0.1", "--n", "64", "--R", "1/16",
      "--L", "1/4"], ["--support-cap", "64"]),
])
def test_options_that_do_nothing_are_rejected(base, dead, tmp_path, capsys):
    out = ["--out", str(tmp_path / "r")]
    assert run(base + dead + out) == 2
    assert f"unrecognized arguments: {dead[0]}" in capsys.readouterr().err
    assert run(base + out) == 0
    # a run.cfg written before the options were removed still replays
    with open(tmp_path / "r" / "run.cfg", "a") as fh:
        fh.write(f"{dead[0][2:]}={dead[-1] if len(dead) > 1 else '1'}\n")
    assert run(["report", str(tmp_path / "r" / "run.cfg")]) == 0


def test_one_parser_serves_many_calls(tmp_path, capsys):
    # main() parses with one cached parser per process; a run of calls with a
    # parse error and --help in between gives what fresh parsers give
    base = ["--family", "random-steps", "--d", "2", "--n", "32", "--seed", "1"]
    calls = [
        ["check", "--id", "prop1", *base],
        ["check", "--id", "prop1", "--no-such-flag", *base],
        ["norms", "--all", *base],
        ["trace", "--help"],
        ["trace", "--id", "layer-cake", "--params", "scale=64", *base],
        ["check", "--id", "gn", "--q", "2", *base],
        # the prop3 fixture threshold is exceeded at 20^2 (a fail verdict: exit 1)
        ["check", "--id", "prop3", "--family", "ball-lattice", "--params", "phi=0.15,n_balls=2,mean=1",
         "--d", "2", "--n", "20", "--seed", "1", "--support-cap", "4194304"],
        ["cover", "--family", "ball-lattice", "--params", "n_balls=1,phi=0.1", "--n", "64", "--R", "1/16"],
        [],
    ]

    def outputs(out):
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}

    def run_all(out, fresh):
        codes = []
        for i, args in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            codes.append(run(args + (["--out", str(out / str(i))] if args and "--help" not in args else [])))
        return codes, outputs(out)

    cached = run_all(tmp_path / "cached", fresh=False)
    assert build_parser.cache_info().currsize == 1
    fresh = run_all(tmp_path / "fresh", fresh=True)
    assert cached == fresh
    assert cached[0] == [0, 2, 0, 0, 0, 0, 1, 2, 2]
    assert len(cached[1]) == 5
    capsys.readouterr()


def test_usage_error_no_command():
    assert run([]) == 2


def test_usage_error_unknown_trace_id(tmp_path):
    args = ["trace", "--id", "nope", "--family", "random-steps", "--d", "1", "--n", "16"]
    assert run(args + ["--out", str(tmp_path / "t")]) == 2


def test_usage_error_missing_report_config(tmp_path):
    assert run(["report", str(tmp_path / "missing.cfg")]) == 2


def test_norms_all_low_amplitude_field(tmp_path):
    # mean 1e-12 is not small against max|u| ~ 1e-6, so the negative-order
    # spectral norms are left out instead of raising
    from ineqlab.families import FamilySpec, generate

    raw = generate(FamilySpec(GridSpec(2, 32, 1.0), "random-fourier", {}, 0))
    f = tmp_path / "low.pgf"
    save_grid(raw.with_values(raw.values * 1e-6 + 1e-12), f)
    out = tmp_path / "n"
    assert run(["norms", "--in", str(f), "--all", "--out", str(out)]) == 0
    rows = (out / "norms.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows if r.startswith("spectral")] == ["s=0.0", "s=1.0"]


def test_cover_outputs(tmp_path):
    out = tmp_path / "c"
    code = run(
        ["cover", "--family", "ball-lattice", "--params", "n_balls=1,phi=0.1",
         "--d", "2", "--n", "256", "--R", "1/16", "--L", "1/4", "--out", str(out)]
    )
    assert code == 0
    cover = (out / "cover.csv").read_text().strip().splitlines()
    assert cover[0] == "i,y_x,y_y,R"
    claims = (out / "claims.csv").read_text().strip().splitlines()
    assert claims[0] == "claim_id,lhs,rhs,ratio,pass"
    assert all(row.endswith(",1") for row in claims[1:])


def test_scaling_command(tmp_path):
    out = tmp_path / "sc"
    code = run(
        ["scaling", "--functional", "tv", "--family", "random-steps", "--d", "2",
         "--n", "16", "--ell", "2", "--m", "3", "--out", str(out)]
    )
    assert code == 0
    row = (out / "scaling.csv").read_text().strip().splitlines()[1]
    assert row.endswith(",1")


def test_regime_exponents_command(tmp_path):
    out = tmp_path / "re"
    assert run(["scaling", "--functional", "regime-exponents", "--out", str(out)]) == 0
    rows = (out / "scaling.csv").read_text().strip().splitlines()[1:]
    assert all(r.endswith(",1") for r in rows)


def test_trace_command(tmp_path):
    out = tmp_path / "t"
    code = run(
        ["trace", "--id", "prop2", "--family", "ostwald", "--params",
         "phi=0.0625,n_balls=2", "--d", "2", "--n", "64", "--M", "8",
         "--mu-count", "3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "id,step,lhs,rhs,slack"
    assert any("p2-geom" in ln for ln in lines)


def test_extremize_command(tmp_path):
    out = tmp_path / "e"
    code = run(
        ["extremize", "--id", "prop1", "--family", "stripe", "--d", "1", "--n", "64",
         "--params", "period=64,zero_mean=1", "--budget", "40", "--seed", "2",
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "extremize.csv").exists()


def test_config_round_trip(tmp_path):
    out = tmp_path / "cfg"
    run(["check", "--id", "weak1", "--family", "random-steps", "--d", "1", "--n", "32",
         "--seed", "7", "--out", str(out)])
    cfg = load_config(out / "run.cfg")
    assert cfg["command"] == "check" and cfg["id"] == "weak1" and cfg["seed"] == "7"


def test_calibrate_command(tmp_path):
    out = tmp_path / "cal"
    code = run(
        ["calibrate", "--id", "prop1", "--family", "random-steps", "--d", "1",
         "--n", "64", "--seeds", "0..9", "--out", str(out)]
    )
    assert code == 0
    cal = (out / "calibration.csv").read_text().strip().splitlines()
    assert cal[0] == "id,sweep,constant,argmax"
    ratios = (out / "ratios.csv").read_text().strip().splitlines()[1:]
    best = max(float(r.split(",")[1]) for r in ratios)
    assert float(cal[1].split(",")[2]) == best


@pytest.mark.parametrize("ineq_id", ["gn", "prop3", "prop4", "prop5"])
def test_calibrate_frozen_without_family_names_the_ids(ineq_id, tmp_path, capsys):
    code = run(["calibrate", "--id", ineq_id, "--frozen", "--out", str(tmp_path / "cal")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ineq_id!r} has no frozen family" in err
    assert "prop1, weak1, prop2, weaklog, geomest" in err


def test_norms_single_kind(tmp_path):
    out = tmp_path / "nk"
    code = run(
        ["norms", "--family", "random-steps", "--d", "1", "--n", "32", "--seed", "3",
         "--kind", "lp", "--kind-params", "p=2", "--out", str(out)]
    )
    assert code == 0
    row = (out / "norms.csv").read_text().strip().splitlines()[1]
    assert row.startswith("lp,p=2")


def test_chain_command(tmp_path):
    out = tmp_path / "ch"
    code = run(
        ["scaling", "--functional", "branching-chain", "--d", "2", "--n", "32",
         "--params", "slices=8,levels=2,base_period=16", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "chain.csv").read_text().strip().splitlines()
    assert lines[0] == "step,value_lhs,value_rhs,ratio"
    assert any(ln.startswith("poincare") for ln in lines)


def test_prop4_default_scales_on_small_grid(tmp_path):
    code = run(["check", "--id", "prop4", "--family", "single-bump", "--params", "radius=0.2",
                "--d", "2", "--n", "16", "--support-cap", "1048576", "--out", str(tmp_path / "p4")])
    assert code in (0, 1)


def test_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    from ineqlab import transport

    def failing(u, v, support_cap):
        raise RuntimeError("exact transport solve failed: test")

    monkeypatch.setattr(transport, "_solve_exact", failing)
    code = run(["check", "--id", "prop3", "--family", "ball-lattice", "--params", "phi=0.2,mean=1",
                "--d", "2", "--n", "8", "--out", str(tmp_path / "p3")])
    assert code == 2
    assert "error: exact transport solve failed" in capsys.readouterr().err


@pytest.mark.parametrize("trace_id,trace,family,params,n", [
    ("layer-cake", traces.layer_cake_trace, "random-steps", {"scale": 64}, 32),
    ("prop2", traces.prop2_trace, "ostwald", {"phi": 0.0625, "n_balls": 2}, 64),
    ("prop3", traces.prop3_trace, "ball-lattice", {"phi": 0.05, "n_balls": 2, "mean": 1}, 16),
])
def test_trace_defaults_are_the_library_defaults(trace_id, trace, family, params, n, tmp_path):
    out = tmp_path / trace_id
    code = run(["trace", "--id", trace_id, "--family", family, "--d", "2", "--n", str(n), "--seed", "1",
                "--params", ",".join(f"{k}={v}" for k, v in params.items()), "--out", str(out)])
    rep = trace(generate(FamilySpec(GridSpec(2, n, 1.0), family, params, 1)))
    assert code == (0 if rep.passed else 1)
    want = [",".join(_fmt(v) for v in (trace_id, s.step, s.lhs, s.rhs, s.slack)) for s in rep.steps]
    assert (out / "trace.csv").read_text().splitlines()[1:] == want
    assert len(want) > 6  # the per-level steps ran


def test_trace_ignores_options_the_trace_does_not_take(tmp_path):
    args = ["trace", "--id", "layer-cake", "--family", "random-steps", "--params", "scale=64",
            "--d", "2", "--n", "16", "--seed", "1"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--eps", "0.3", "--phi", "0.1", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_empty_setting_keeps_the_library_default(tmp_path):
    check = ["check", "--id", "prop3", "--family", "ball-lattice", "--params", "phi=0.2,mean=1",
             "--d", "2", "--n", "16", "--support-cap", "4194304"]
    trace = ["trace", "--id", "layer-cake", "--family", "random-steps", "--params", "scale=64",
             "--d", "2", "--n", "16", "--seed", "1"]
    for args, empty, csv in ((check, "--threshold", "report.csv"), (trace, "--M", "trace.csv")):
        assert run(args + ["--out", str(tmp_path / "a")]) == run(args + [empty, "", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


def test_prop5_trace_without_nu_is_a_usage_error(tmp_path, capsys):
    code = run(["trace", "--id", "prop5", "--family", "ball-lattice", "--params", "phi=0.1,n_balls=2",
                "--d", "2", "--n", "16", "--phi", "0.03", "--out", str(tmp_path / "tr")])
    assert code == 2
    assert capsys.readouterr().err == "error: 'nu'\n"


def test_calibrate_gn_without_q_is_a_usage_error(tmp_path, capsys):
    code = run(["calibrate", "--id", "gn", "--family", "random-steps", "--d", "1", "--n", "32",
                "--seeds", "0..1", "--out", str(tmp_path / "cal")])
    assert code == 2
    assert "gn needs the gradient exponent q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["trace", "--id", "prop2", "--family", "ostwald", "--n", "16"],
        ["cover", "--family", "ball-lattice", "--n", "64", "--R", "1/16", "--L", "1/4"],
        ["norms", "--kind", "tv", "--family", "random-steps", "--n", "16"],
        ["scaling", "--functional", "tv", "--family", "random-steps", "--n", "16"],
        ["extremize", "--id", "prop1", "--family", "stripe", "--d", "1", "--n", "64", "--budget", "4"],
        ["check", "--id", "prop1", "--family", "random-steps", "--n", "16"],
        ["sweep", "--id", "prop1", "--family", "random-steps", "--n", "16"],
    ],
    ids=lambda args: args[0],
)
def test_empty_seed_range_is_a_usage_error(args, tmp_path, capsys):
    assert run(args + ["--seeds", "3..1", "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err == "error: seeds '3..1' name no seed\n"
    assert not (tmp_path / "e" / "report.csv").exists()


@pytest.mark.parametrize("command", ["check", "sweep"])
@pytest.mark.parametrize("seeds, part", [("0,3..1", "3..1"), ("0..2,5..4,7", "5..4")])
def test_reversed_range_in_a_seed_list_is_a_usage_error(command, seeds, part, tmp_path, capsys):
    args = [command, "--id", "prop1", "--family", "random-steps", "--n", "16"]
    assert run(args + ["--seeds", seeds, "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err == f"error: seeds {part!r} name no seed\n"
    assert not (tmp_path / "e" / "report.csv").exists()


def test_superconductor_chain_command(tmp_path):
    out = tmp_path / "sc1"
    code = run(["scaling", "--functional", "superconductor-chain", "--family", "ball-lattice",
                "--params", "phi=0.1,n_balls=1", "--d", "2", "--n", "16", "--nu", "0.5",
                "--support-cap", "4194304", "--out", str(out)])
    assert code == 0
    lines = (out / "chain.csv").read_text().strip().splitlines()
    assert sum(ln.startswith("bb-direction@") for ln in lines) == 7
