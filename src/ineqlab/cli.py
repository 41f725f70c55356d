"""Command-line surface: generators, checkers, traces, sweeps, covers,
scaling reports, with reproducible runs.

Every run resolves its options into a flat key=value RunConfig, echoes it
to <out>/run.cfg, and writes CSV outputs whose bytes depend only on the
config (floats are serialized with repr).  `ineqlab report run.cfg`
re-executes a saved config.  Exit codes: 0 all rows pass, 1 at least one
failed assertion, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
from fractions import Fraction

import numpy as np

from . import fixtures
from .families import FamilySpec, generate
from .grid import GridSpec, load_grid, require, save_grid
from .inequalities import calibrate, check, check_family, extremize, prop5_pair
from .levelgeom import verify_geom_claims
from .norms import _has_mean_zero, norm_report, spectral_norms
from .scaling import (HOMOGENEITY_TOL, branching_chain, branching_slab, homogeneity_check, regime_exponents,
                      shift_flow_slab, superconductor_chain)
from .traces import layer_cake_trace, prop2_trace, prop3_trace, prop5_trace


def _fnum(text):
    """Parse a number that may be written as a fraction like 1/16."""
    text = str(text)
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _parse_params(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        k, _, v = item.partition("=")
        try:
            out[k] = int(v)
        except ValueError:
            try:
                out[k] = _fnum(v)
            except ValueError:
                out[k] = v
    return out


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def save_config(cfg, path):
    with open(path, "w") as fh:
        for k in sorted(cfg):
            fh.write(f"{k}={cfg[k]}\n")


def load_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                k, _, v = line.partition("=")
                cfg[k] = v
    return cfg


def _grid_from_cfg(cfg):
    return GridSpec(int(cfg.get("d", 2)), int(cfg.get("n", 64)), _fnum(cfg.get("lam", "1.0")))


def _seeds_from_cfg(cfg):
    text = cfg.get("seeds", cfg.get("seed", "0"))
    out = []
    for part in str(text).split(","):
        if ".." in part:
            lo, hi = map(int, part.split(".."))
            require(lo <= hi, f"seeds {part!r} name no seed")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _family_spec(cfg, seed, extra=None):
    params = _parse_params(cfg.get("params", ""))
    if extra:
        params.update(extra)
    return FamilySpec(_grid_from_cfg(cfg), cfg["family"], params, seed)


def _w2_kw(cfg):
    kw = {}
    if "support-cap" in cfg:
        kw["support_cap"] = int(cfg["support-cap"])
    if cfg.get("method"):
        kw["method"] = cfg["method"]
    return kw


# option -> (keyword, parser) of the library settings it sets; a setting the
# user leaves out or leaves empty keeps the library function's own default
_SETTINGS = {"M": ("M", _fnum), "eps": ("eps", _fnum), "mu-count": ("mu_count", int), "phi": ("phi", _fnum),
             "q": ("q", _fnum), "nu": ("nu", _fnum), "threshold": ("c_thr", _fnum)}


def _settings(cfg, fn):
    """The settings the user gave that fn takes, plus its w2_kw if it takes one;
    options fn does not take are ignored."""
    takes = inspect.signature(fn).parameters
    kw = {name: parse(cfg[opt]) for opt, (name, parse) in _SETTINGS.items() if cfg.get(opt) and name in takes}
    if "w2_kw" in takes:
        kw["w2_kw"] = _w2_kw(cfg)
    return kw


REPORT_HEADER = ["id", "family", "seed", "lhs", "rhs", "ratio", "pass"]
TRACE_HEADER = ["id", "step", "lhs", "rhs", "slack"]


def _report_rows(ineq_id, reports, specs):
    return [[ineq_id, fs.describe(), fs.seed, r.lhs, r.rhs, r.ratio, r.passed] for r, fs in zip(reports, specs)]


# ----------------------------------------------------------------- commands


def cmd_norms(cfg, outdir):
    u = load_grid(cfg["in"]) if "in" in cfg else generate(_family_spec(cfg, _seeds_from_cfg(cfg)[0]))
    orders = []
    if cfg.get("all", "0") == "1":
        kinds = [
            ("lp", {"p": 4 / 3}),
            ("lp", {"p": 2.0}),
            ("weak-lp", {"p": 4 / 3}),
            ("tv", {}),
            ("log-l43", {}),
            ("weak-log", {}),
        ]
        orders = ([-1.0, -0.5] if _has_mean_zero(u) else []) + [0.0, 1.0]
    else:
        kinds = [(cfg["kind"], _parse_params(cfg.get("kind-params", "")))]
    values = [norm_report(u, kind, **params) for kind, params in kinds]
    if orders:  # the spectral orders share one transform of u
        values += spectral_norms(u, orders)
        kinds += [("spectral", {"s": s}) for s in orders]
    rows = []
    for (kind, params), value in zip(kinds, values):
        pstr = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
        rows.append([kind, pstr, value])
    write_csv(os.path.join(outdir, "norms.csv"), ["kind", "params", "value"], rows)
    return True


def cmd_check(cfg, outdir):
    ineq_id = cfg["id"]
    seeds = _seeds_from_cfg(cfg)
    kw = _settings(cfg, check)
    specs = [_family_spec(cfg, s) for s in seeds]
    if ineq_id == "prop5":
        pair = _settings(cfg, prop5_pair)
        reports = [check(ineq_id, *prop5_pair(fs, **pair), **kw) for fs in specs]
    else:
        reports = [check_family(ineq_id, fs, **kw) for fs in specs]
    rows = _report_rows(ineq_id, reports, specs)
    write_csv(os.path.join(outdir, "report.csv"), REPORT_HEADER, rows)
    return all(r.passed for r in reports)


TRACES = {"layer-cake": layer_cake_trace, "prop2": prop2_trace, "prop3": prop3_trace, "prop5": prop5_trace}


def cmd_trace(cfg, outdir):
    ineq_id = cfg["id"]
    if ineq_id not in TRACES:
        raise ValueError(f"unknown trace id {ineq_id!r}")
    trace, fs = TRACES[ineq_id], _family_spec(cfg, _seeds_from_cfg(cfg)[0])
    kw = _settings(cfg, trace)
    if ineq_id == "prop5":  # the transport pair and nu come first
        args = (*prop5_pair(fs, **_settings(cfg, prop5_pair)), kw.pop("nu"))
    else:
        args = (generate(fs),)
    rep = trace(*args, **kw)
    rows = [[ineq_id, s.step, s.lhs, s.rhs, s.slack] for s in rep.steps]
    write_csv(os.path.join(outdir, "trace.csv"), TRACE_HEADER, rows)
    return rep.passed


def cmd_sweep(cfg, outdir):
    ineq_id = cfg["id"]
    phis = [
        _fnum(p) for p in str(cfg.get("phi", "")).split(",") if p
    ] or [None]
    seeds = _seeds_from_cfg(cfg)
    kw = _settings(cfg, check)
    specs, labels = [], []
    for phi in phis:
        for seed in seeds:
            extra = {"phi": phi} if phi is not None else {}
            specs.append(_family_spec(cfg, seed, extra))
            labels.append(phi if phi is not None else seed)
    reports = [check_family(ineq_id, fs, **kw) for fs in specs]
    rows = _report_rows(ineq_id, reports, specs)
    write_csv(os.path.join(outdir, "report.csv"), REPORT_HEADER, rows)
    if cfg.get("plot", "0") == "1":
        from .svgplot import line_plot

        xs = [float(l) for l in labels]
        ys = [r.ratio for r in reports]
        line_plot(
            os.path.join(outdir, "sweep.svg"),
            [(ineq_id, xs, ys)],
            title=f"{ineq_id} ratio sweep",
            xlabel="phi",
            ylabel="ratio",
            logx=all(x > 0 for x in xs),
            logy=all(y > 0 for y in ys),
        )
    return all(r.passed for r in reports)


def cmd_calibrate(cfg, outdir):
    ineq_id = cfg["id"]
    if cfg.get("frozen", "0") == "1":
        if ineq_id not in fixtures.FROZEN:
            raise ValueError(
                f"calibrate --frozen: {ineq_id!r} has no frozen family; "
                f"ids that have one: {', '.join(fixtures.FROZEN)}"
            )
        specs = fixtures.FROZEN[ineq_id]()
    else:
        specs = [_family_spec(cfg, s) for s in _seeds_from_cfg(cfg)]
    cal = calibrate(ineq_id, specs, **_settings(cfg, check))
    rows = [[ineq_id, cal.sweep_desc, cal.constant, cal.argmax_desc]]
    write_csv(
        os.path.join(outdir, "calibration.csv"),
        ["id", "sweep", "constant", "argmax"],
        rows,
    )
    write_csv(
        os.path.join(outdir, "ratios.csv"),
        ["index", "ratio"],
        [[i, r] for i, r in enumerate(cal.ratios)],
    )
    return True


def cmd_extremize(cfg, outdir):
    res = extremize(
        cfg["id"],
        cfg["family"],
        _grid_from_cfg(cfg),
        budget=int(cfg.get("budget", 100)),
        seed=_seeds_from_cfg(cfg)[0],
        fixed=_parse_params(cfg.get("params", "")),
        **_settings(cfg, check),
    )
    write_csv(
        os.path.join(outdir, "extremize.csv"),
        ["id", "family", "ratio", "argmax"],
        [[cfg["id"], cfg["family"], res.constant, res.argmax_desc]],
    )
    return True


def cmd_cover(cfg, outdir):
    chi = generate(_family_spec(cfg, _seeds_from_cfg(cfg)[0]))
    R, L = _fnum(cfg["R"]), _fnum(cfg["L"])
    rows, cover, _ = verify_geom_claims(chi, R, L)
    coords = cover.coords()
    write_csv(
        os.path.join(outdir, "cover.csv"),
        ["i", "y_x", "y_y", "R"],
        [[i, c[0], c[1], R] for i, c in enumerate(coords)],
    )
    out = [[row.claim, row.lhs, row.rhs, row.ratio, row.passed] for row in rows]
    write_csv(os.path.join(outdir, "claims.csv"), ["claim_id", "lhs", "rhs", "ratio", "pass"], out)
    return all(row.passed for row in rows)


def _write_chain(outdir, result, fld=None):
    rows = []
    for s in result["rows"]:
        ratio = s.lhs / s.rhs if s.rhs else 0.0
        rows.append([s.step, s.lhs, s.rhs, ratio])
    write_csv(os.path.join(outdir, "chain.csv"), ["step", "value_lhs", "value_rhs", "ratio"], rows)
    if fld is not None:
        for j in range(fld.slices):
            save_grid(fld.slice_grid(j), os.path.join(outdir, f"slice_{j:03d}.pgf"))
    return bool(result.get("passed", True))


def cmd_scaling(cfg, outdir):
    rows = []
    ok = True
    if cfg.get("functional") == "regime-exponents":
        out = regime_exponents()
        for name, got, expected, passed in out["rows"]:
            rows.append([name, str(got), str(expected), 1.0 if passed else 0.0, passed])
            ok &= passed
        write_csv(
            os.path.join(outdir, "scaling.csv"),
            ["name", "got", "expected", "ratio", "pass"],
            rows,
        )
        return ok
    if cfg.get("functional") == "branching-chain":
        p = _parse_params(cfg.get("params", ""))
        fld = branching_slab(
            _grid_from_cfg(cfg),
            slices=int(p.get("slices", 16)),
            levels=int(p.get("levels", 3)),
            base_period=int(p.get("base_period", 32)),
        )
        out = branching_chain(fld)
        return _write_chain(outdir, out, fld if cfg.get("save-slices") else None)
    if cfg.get("functional") == "superconductor-chain":
        p = _parse_params(cfg.get("params", ""))
        chi = generate(_family_spec(cfg, _seeds_from_cfg(cfg)[0]))
        grid = chi.spec
        delta = (float(p.get("delta", 2)) * grid.h, 0.0)
        fld = shift_flow_slab(chi, delta, int(p.get("slices", 8)))
        out = superconductor_chain(fld, chi.mean, _fnum(cfg.get("nu", "0.5")), w2_kw=_w2_kw(cfg))
        return _write_chain(outdir, out, fld if cfg.get("save-slices") else None)
    u = generate(_family_spec(cfg, _seeds_from_cfg(cfg)[0]))
    fid = cfg["functional"]
    param = _fnum(cfg["param"]) if cfg.get("param") else None
    rep = homogeneity_check(
        fid, u, ell=_fnum(cfg.get("ell", "2")), m=_fnum(cfg.get("m", "1")), param=param,
        w2_kw=_w2_kw(cfg),
    )
    passed = rep.deviation <= HOMOGENEITY_TOL[fid]
    rows.append([fid, rep.param, rep.ell, rep.m, rep.predicted, rep.measured, rep.deviation, passed])
    write_csv(
        os.path.join(outdir, "scaling.csv"),
        ["functional", "param", "ell", "m", "predicted", "measured", "deviation", "pass"],
        rows,
    )
    return passed


COMMANDS = {
    "norms": cmd_norms,
    "check": cmd_check,
    "trace": cmd_trace,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "extremize": cmd_extremize,
    "cover": cmd_cover,
    "scaling": cmd_scaling,
}


def execute(cfg):
    """Run a resolved config; returns the exit code and echoes run.cfg."""
    outdir = cfg.get("out", ".")
    os.makedirs(outdir, exist_ok=True)
    save_config(cfg, os.path.join(outdir, "run.cfg"))
    ok = COMMANDS[cfg["command"]](cfg, outdir)
    return 0 if ok else 1


def _add_common(sp, transport=True):
    sp.add_argument("--family")
    sp.add_argument("--d", default="2")
    sp.add_argument("--n", default="64")
    sp.add_argument("--lam", default="1.0")
    sp.add_argument("--seed", default="0")
    sp.add_argument("--seeds")
    sp.add_argument("--params", help="family parameters k=v,k=v (fractions allowed)")
    sp.add_argument("--out", default=".")
    if transport:  # only the commands that solve W_2 read them
        sp.add_argument("--support-cap", dest="support-cap")
        sp.add_argument("--method", help="transport method (exact or sinkhorn)")


@functools.cache  # one parser per process: main() may run many times in one interpreter
def build_parser():
    ap = argparse.ArgumentParser(prog="ineqlab", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("norms")
    sp.add_argument("--in")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--kind")
    sp.add_argument("--kind-params", dest="kind-params")
    _add_common(sp, transport=False)

    for name in ("check", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--id", required=True)
        sp.add_argument("--q")
        sp.add_argument("--nu")
        sp.add_argument("--phi")
        sp.add_argument("--threshold")
        if name == "sweep":  # check writes no plot
            sp.add_argument("--plot", action="store_true")
        _add_common(sp)

    sp = sub.add_parser("trace")
    sp.add_argument("--id", required=True)
    sp.add_argument("--M")
    sp.add_argument("--eps")
    sp.add_argument("--nu")
    sp.add_argument("--phi")
    sp.add_argument("--mu-count", dest="mu-count")
    _add_common(sp)

    sp = sub.add_parser("calibrate")
    sp.add_argument("--id", required=True)
    sp.add_argument("--frozen", action="store_true")
    sp.add_argument("--q")
    _add_common(sp)

    sp = sub.add_parser("extremize")
    sp.add_argument("--id", required=True)
    sp.add_argument("--budget", default="100")
    _add_common(sp)

    sp = sub.add_parser("cover")
    sp.add_argument("--R", required=True)
    sp.add_argument("--L", required=True)
    _add_common(sp, transport=False)

    sp = sub.add_parser("scaling")
    sp.add_argument("--functional", required=True)
    sp.add_argument("--param")
    sp.add_argument("--ell", default="2")
    sp.add_argument("--m", default="1")
    sp.add_argument("--nu")
    sp.add_argument("--save-slices", dest="save-slices", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("report")
    sp.add_argument("config")
    sp.add_argument("--out")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    if ns.command is None:
        ap.print_usage()
        return 2
    try:
        if ns.command == "report":
            cfg = load_config(ns.config)
            if ns.out:
                cfg["out"] = ns.out
        else:
            cfg = {"command": ns.command}
            for key, val in vars(ns).items():
                if key != "command" and val not in (None, False):
                    cfg[key] = "1" if val is True else str(val)
        return execute(cfg)
    except (ValueError, KeyError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
