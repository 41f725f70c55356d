"""The three workloads: inputs made from the seed, a fixed job list, and
the output checks run on the first (untimed) round.

Every job is a callable `run(rnd)` that calls into ineqlab through module
attributes, never through references taken at import, so that the tracer
can patch the functions underneath.  The seed draws cyclic shifts and
field values; it never changes how many cells, levels or support pairs a
job sees, so the work per round is the same for every seed.
"""

from __future__ import annotations

import os

import numpy as np

from ineqlab import cli, families, fixtures, grid, inequalities, levelgeom, traces, transport

import checks

SUPPORT_CAP = 1 << 22


def _shifted(u, rng):
    """Cyclic shift by whole cells; every functional used here is invariant."""
    d = u.spec.d
    offsets = tuple(int(k) for k in rng.integers(0, u.spec.n, size=d))
    return grid.make(u.spec, np.roll(u.as_nd(), offsets, axis=tuple(range(d))).ravel())


def write_pgb1(path, values, d, n, lam):
    """PGB1 binary grid file, written from the format description."""
    header = b"PGB1\x00\x00\x00\x00" + np.array([d, n], "<i4").tobytes() + np.array([lam], "<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(values, "<f8").tobytes())


def write_pgf1(path, values, d, n, lam):
    """PGF1 text grid file, written from the format description."""
    with open(path, "w") as fh:
        fh.write(f"PGF1 {d} {n} {lam!r}\n" + " ".join(repr(float(x)) for x in values) + "\n")


def _field(d, n, family, params, seed=0):
    return families.generate(families.FamilySpec(grid.GridSpec(d, n, 1.0), family, params, seed))


class Workload:
    name = ""
    captures = False  # record every transport.w2_squared call of the checked round

    def __init__(self):
        self.jobs = []  # (name, run(rnd) -> output)
        self.meta = {}

    def add(self, name, run, **meta):
        self.jobs.append((name, run))
        self.meta[name] = meta

    def check(self, outputs, captured):
        """Errors found in the outputs of the checked round (empty if none)."""
        raise NotImplementedError


# ------------------------------------------------------------ w2-certify


class W2Certify(Workload):
    """Certified W2: prop3 checks, the frozen prop5 sweep, Sinkhorn next to
    the exact LP, 1D pairs through the LP and the circle oracle, and
    dilated pairs for the scaling law."""

    name = "w2-certify"
    captures = True

    def __init__(self, seed, tiny, workdir):
        super().__init__()
        rng = np.random.default_rng([seed, 11])
        prop3 = [
            (16, "single-bump", "radius", (0.15, 0.25, 0.35)),
            (16, "ball-lattice", "phi", (0.1, 0.2, 0.3)),
            (20, "single-bump", "radius", (0.15,)),
            (20, "ball-lattice", "phi", (0.1, 0.2, 0.3)),
            (24, "single-bump", "radius", (0.15,)),
            (24, "ball-lattice", "phi", (0.1, 0.2)),
        ]
        pair_ids = range(0, 50, 5)
        lines = [(24, 0), (24, 1), (32, 0), (32, 1), (40, 0), (40, 1)]
        sweep = fixtures.prop5_frozen_sweep()
        if tiny:
            prop3 = [(12, "ball-lattice", "phi", (0.2,)), (12, "single-bump", "radius", (0.3,))]
            sweep, pair_ids, lines = sweep[:3], range(0, 3, 2), [(12, 0)]

        for n, fam, key, values in prop3:
            for val in values:
                params = {key: val, "mean": 1.0}
                if fam == "ball-lattice":
                    params["n_balls"] = 2
                u = _shifted(_field(2, n, fam, params), rng)
                self.add(
                    f"prop3/{fam}/n{n}/{key}={val}",
                    lambda rnd, u=u: inequalities.check("prop3", u, w2_kw={"support_cap": SUPPORT_CAP}),
                    u=u,
                )
        for i, item in enumerate(sweep):
            self.add(f"prop5/{i:02d}", lambda rnd, item=item: inequalities.prop5_instance(item))
        for i in pair_ids:
            ufs, vfs, phi, _ = sweep[i]
            joint = np.random.default_rng([seed, 12, i])
            u = _shifted(inequalities.rescale_to_mean(families.generate(ufs), phi), joint)
            joint = np.random.default_rng([seed, 12, i])
            v = _shifted(inequalities.rescale_to_mean(families.generate(vfs), phi), joint)
            self.add(f"exact/{i:02d}", lambda rnd, u=u, v=v: transport.w2_squared(u, v))
            self.add(f"sinkhorn/{i:02d}", lambda rnd, u=u, v=v: transport.w2_squared(u, v, method="sinkhorn"))
            if i % 10 == 0:
                ud, vd = grid.dilate(u, 2.0, 3.0), grid.dilate(v, 2.0, 3.0)
                self.add(f"dilate/{i:02d}", lambda rnd, u=ud, v=vd: transport.w2_squared(u, v), base=f"exact/{i:02d}")
        for n, k in lines:
            spec = grid.GridSpec(1, n, 1.0)
            a, b = self._step_density(n, rng), self._step_density(n, rng)
            b *= a.sum() / b.sum()
            u, v = grid.make(spec, a), grid.make(spec, b)
            self.add(f"lp1d/n{n}/{k}", lambda rnd, u=u, v=v: transport.w2_squared(u, v))
            self.add(f"circle1d/n{n}/{k}", lambda rnd, u=u, v=v: transport.w2_circle_1d(u, v))

    @staticmethod
    def _step_density(n, rng, block=4):
        """Steps on blocks of `block` cells, a quarter of the blocks empty."""
        blocks = n // block
        vals = rng.uniform(0.25, 1.0, blocks)
        vals[rng.permutation(blocks)[: blocks // 4]] = 0.0
        return np.repeat(vals, block)

    def check(self, outputs, captured):
        errors = []
        exact = [c for c in captured if c[2] == "exact" and c[3].value > 0]
        if not exact:
            errors.append("no exact solve was recorded")
        for u, v, _, res in exact:
            errors += checks.check_exact_solve(u, v, res)
        certified = {res.value for *_, res in exact}
        for name, out in outputs.items():
            kind, _, key = name.partition("/")
            if kind == "sinkhorn":
                errors += checks.check_bracket(name, out, outputs[f"exact/{key}"].value)
            elif kind == "dilate":
                base = outputs[self.meta[name]["base"]].value
                errors += checks.check_close(name, out.value, 3 * 2.0 ** (2 + 2) * base, 1e-8)
            elif kind == "circle1d":
                errors += checks.check_close(name, out, outputs[f"lp1d/{key}"].value, 1e-8)
            elif kind == "prop3":
                if out.extra["w2"] not in certified:
                    errors.append(f"{name}: W2 does not come from a checked exact solve")
                errors += checks.check_prop3(name, self.meta[name]["u"], out, fixtures.constant("prop3"))
        return errors


# --------------------------------------------------------------- levelset


class Levelset(Workload):
    """Level sets and covers: coarea and layer-cake sums on many-level
    fields, prop2 traces and geometry claims on two-level fields, and
    maximal packings of dense density sets."""

    name = "levelset"

    def __init__(self, seed, tiny, workdir):
        super().__init__()
        rng = np.random.default_rng([seed, 21])
        fourier = [(2, 32)] * 3 + [(2, 48), (2, 64), (3, 16)]
        ostwald = [(128, phi, nb) for phi in (1 / 16, 1 / 32, 1 / 64) for nb in (2, 4)]
        lattices = [(256, 0.1, 1), (256, 0.1, 2), (256, 0.05, 2), (256, 0.1, 4)]
        packings = [(64, phi, nb) for phi in (0.3, 0.35, 0.4, 0.45) for nb in (1, 2, 3, 4)]
        packings += [(80, phi, nb) for phi in (0.35, 0.4, 0.45) for nb in (1, 2, 3)]
        packings += [(96, 0.35, 2), (96, 0.4, 2), (96, 0.45, 3), (128, 0.45, 4)]
        self.M = 16.0
        if tiny:
            fourier, ostwald = [(2, 12), (3, 8)], [(64, 1 / 16, 2)]
            lattices, packings = [(64, 0.1, 1)], [(32, 0.4, 2)]
            self.R_geom, self.L_geom = 1 / 16, 1 / 4
        else:
            self.R_geom, self.L_geom = 1 / 64, 1 / 4

        for i, (d, n) in enumerate(fourier):
            raw = _field(d, n, "random-fourier", {"kmax": 4}, int(rng.integers(2**31)))
            u = raw.with_values(raw.values * (100.0 / np.max(np.abs(raw.values))))
            tag = f"{n}^{d}/{i}"
            self.add(f"coarea/{tag}", lambda rnd, u=u: levelgeom.coarea_check(u), u=u)
            if n != 64:  # the 4096-level layer-cake case is the 16^3 field
                self.add(f"layercake/{tag}", lambda rnd, u=u: traces.layer_cake_trace(u, M=self.M, mu_count=8), u=u)
        for n, phi, nb in ostwald:
            u = _shifted(_field(2, n, "ostwald", {"phi": phi, "n_balls": nb}), rng)
            self.add(f"prop2/n{n}/phi={phi:g}/nb{nb}", lambda rnd, u=u: traces.prop2_trace(u, M=8.0, mu_count=6))
        for n, phi, nb in lattices:
            chi = _shifted(_field(2, n, "ball-lattice", {"phi": phi, "n_balls": nb}), rng)
            self.add(
                f"geom/n{n}/phi={phi:g}/nb{nb}",
                lambda rnd, chi=chi: levelgeom.verify_geom_claims(chi, self.R_geom, self.L_geom),
                chi=chi,
            )
        for n, phi, nb in packings:
            chi = _shifted(_field(2, n, "ball-lattice", {"phi": phi, "n_balls": nb}), rng)
            radius = 3.0 / n
            mask = levelgeom.density_set(chi, radius)
            self.add(
                f"packing/n{n}/phi={phi:g}/nb{nb}",
                lambda rnd, mask=mask, r=radius, s=chi.spec: levelgeom.maximal_packing(mask, r, spec=s),
                mask=mask, radius=radius, spec=chi.spec,
            )

    def check(self, outputs, captured):
        errors = []
        for name, out in outputs.items():
            kind = name.split("/")[0]
            meta = self.meta[name]
            if kind == "coarea":
                errors += [f"{name}: {e}" for e in checks.check_coarea(meta["u"], out)]
            elif kind == "layercake":
                errors += [f"{name}: {e}" for e in checks.check_layer_cake(meta["u"], out, self.M)]
            elif kind == "prop2" and not out.passed:
                errors.append(f"{name}: prop2 trace verdict failed")
            elif kind == "geom":
                errors += [f"{name}: {e}" for e in self._check_geom(meta["chi"], out)]
            elif kind == "packing":
                s = meta["spec"]
                errors += [
                    f"{name}: {e}"
                    for e in checks.check_packing(meta["mask"], s.d, s.n, s.lam, out.centers, meta["radius"])
                ]
        return errors

    def _check_geom(self, chi, out):
        rows, cover, _ = out
        bands = {
            "claim1": fixtures.band("claim1"), "claim3": fixtures.band("claim1"),
            "claim4": fixtures.band("claim5"), "claim5": fixtures.band("claim5"),
            "packing": fixtures.band("packing"), "capmass": fixtures.band("capmass"),
        }
        errors = []
        for row in rows:
            band = bands.get(row.claim, 1e-9)
            if row.claim == "capmass":
                ok = abs(row.lhs - row.rhs) <= band * row.rhs
            else:
                ok = row.lhs <= row.rhs * (1 + band) + 1e-12
            if not ok:
                errors.append(f"claim {row.claim} fails: {row.lhs!r} > {row.rhs!r}")
        s = chi.spec
        own, ambiguous = checks.hard_disc_density_set(chi.values, s.d, s.n, s.lam, self.R_geom)
        errors += checks.check_packing(own, s.d, s.n, s.lam, cover.centers, self.R_geom, allowed=own | ambiguous)
        return errors


# -------------------------------------------------------------- sweep-cli


class SweepCli(Workload):
    """The README's command-line path, run in-process through cli.main,
    every call writing to its own output directory."""

    name = "sweep-cli"

    def __init__(self, seed, tiny, workdir):
        super().__init__()
        rng = np.random.default_rng([seed, 31])
        self.workdir = workdir
        s = int(rng.integers(0, 1000))
        self.fields = {}
        field_specs = [(2, 64, "pgf"), (2, 256, "pgb"), (2, 512, "pgb"), (3, 32, "pgb"), (3, 64, "pgb")]
        if tiny:
            field_specs = [(2, 16, "pgf"), (3, 8, "pgb")]
        os.makedirs(os.path.join(workdir, "inputs"), exist_ok=True)
        for d, n, fmt in field_specs:
            vals = self._smooth_field(d, n, rng)
            path = os.path.join(workdir, "inputs", f"f{d}d{n}.{fmt}")
            writer = write_pgf1 if fmt == "pgf" else write_pgb1
            writer(path, vals, d, n, 1.0)
            self.fields[path] = (vals, d, n)

        rs = "--family random-steps"
        calls = [
            f"check --id prop1 {rs} --d 2 --n 64 --seed {s}",
            f"check --id prop1 {rs} --d 2 --n 64 --seeds {s}..{s + 3}",
            f"check --id prop1 {rs} --d 2 --n 256 --seed {s}",
            f"check --id prop1 {rs} --d 3 --n 32 --seed {s}",
            f"check --id prop1 {rs} --d 3 --n 64 --seed {s}",
            f"check --id gn --q 4 {rs} --d 2 --n 128 --seed {s}",
            f"check --id gn --q 1 {rs} --d 3 --n 32 --seed {s}",
            f"check --id gn --q 2 {rs} --d 2 --n 256 --seed {s}",
            f"check --id weak1 {rs} --d 2 --n 256 --seed {s}",
            "check --id prop2 --family ostwald --params phi=1/16,n_balls=2 --d 2 --n 128",
            "check --id geomest --family ball-lattice --params phi=1/16,n_balls=4 --d 2 --n 256",
            "check --id prop2 --family ostwald --params phi=1/32,n_balls=2 --d 2 --n 64",
            "check --id weaklog --family ostwald --params phi=1/16,n_balls=2 --d 2 --n 64",
            "check --id prop1 --family stripe --params width=8,period=32,zero_mean=1 --d 2 --n 64",
            "sweep --id geomest --family ball-lattice --d 2 --n 256 --params n_balls=4 --phi 1/16,1/64,1/256 --plot",
            f"sweep --id prop1 {rs} --d 2 --n 128 --seeds {s}..{s + 7}",
            f"sweep --id weak1 {rs} --d 3 --n 32 --seeds {s}..{s + 3}",
            f"sweep --id prop1 {rs} --d 2 --n 512 --seeds {s}..{s + 1}",
            "calibrate --id prop1 --frozen",
            "calibrate --id weak1 --frozen",
            "calibrate --id prop2 --frozen",
            "calibrate --id weaklog --frozen",
        ]
        calls += [f"norms --in {path} --all" for path in self.fields]
        first = next(iter(self.fields))
        calls += [f"norms --in {first} --kind tv", f"norms --in {first} --kind weak-lp --kind-params p=4/3",
                  f"norms --in {first} --kind spectral --kind-params s=-1"]
        for d, n, fam in ((2, 64, "random-steps"), (2, 256, "random-steps"), (2, 512, "random-steps"),
                          (3, 32, "random-steps"), (3, 64, "random-steps")):
            calls.append(f"scaling --functional tv --family {fam} --d {d} --n {n} --seed {s} --ell 2 --m 3")
        calls += [
            f"scaling --functional lp --param 4/3 {rs} --d 2 --n 256 --seed {s} --ell 2 --m 3",
            f"scaling --functional lp --param 4/3 {rs} --d 3 --n 64 --seed {s} --ell 3 --m 2",
            f"scaling --functional lp --param 2 {rs} --d 2 --n 512 --seed {s} --ell 2 --m 3",
            f"scaling --functional weak --param 4/3 {rs} --d 2 --n 256 --seed {s} --ell 2 --m 3",
            f"scaling --functional spectral --param -1 --family random-fourier --d 2 --n 256 --seed {s} --ell 2 --m 3",
            f"scaling --functional spectral --param 1/2 --family random-fourier --d 3 --n 32 --seed {s} --ell 2 --m 3",
            f"scaling --functional spectral --param 1 --family random-fourier --d 2 --n 512 --seed {s} --ell 3 --m 2",
            "scaling --functional regime-exponents",
            "scaling --functional branching-chain --d 2 --n 64 --params slices=16,levels=3,base_period=32 --save-slices",
            "scaling --functional branching-chain --d 2 --n 128 --params slices=8,levels=4,base_period=64",
            f"trace --id layer-cake {rs} --d 2 --n 64 --seed {s}",
            f"trace --id layer-cake {rs} --d 2 --n 128 --params scale=100 --seed {s}",
            f"trace --id layer-cake {rs} --d 2 --n 256 --params scale=100 --seed {s}",
            f"trace --id layer-cake {rs} --d 3 --n 32 --params blocks=4,scale=100 --seed {s}",
            f"extremize --id prop1 --family stripe --d 1 --n 64 --params period=64,zero_mean=1 --budget 200 --seed {s}",
            f"extremize --id prop1 --family stripe --d 2 --n 64 --params period=64,zero_mean=1 --budget 40 --seed {s}",
        ]
        if tiny:
            calls = [
                f"check --id prop1 {rs} --d 2 --n 16 --seed {s}",
                "calibrate --id prop1 --frozen",
                f"scaling --functional tv {rs} --d 2 --n 16 --seed {s} --ell 2 --m 3",
                f"trace --id layer-cake {rs} --d 2 --n 16 --params blocks=4,scale=100 --seed {s}",
            ] + [f"norms --in {path} --all" for path in self.fields]
        for i, call in enumerate(calls):
            name = f"{i:02d}-{call.split()[0]}"
            argv = call.split()
            self.add(name, lambda rnd, argv=argv, name=name: cli.main(argv + ["--out", self.outdir(rnd, name)]),
                     argv=argv)

    @staticmethod
    def _smooth_field(d, n, rng):
        """Zero-mean low-pass noise of unit peak, from NumPy alone."""
        white = rng.standard_normal((n,) * d)
        k = np.fft.fftfreq(n, 1.0 / n)
        k2 = sum(np.meshgrid(*([k**2] * d), indexing="ij"))
        vals = np.real(np.fft.ifftn(np.fft.fftn(white) * np.exp(-k2 / 32.0))).ravel()
        vals -= vals.mean()
        return vals / np.max(np.abs(vals))

    def outdir(self, rnd, name):
        return os.path.join(self.workdir, f"r{rnd}", name)

    def check(self, outputs, captured):
        errors = []
        for name, code in outputs.items():
            argv = self.meta[name]["argv"]
            out = self.outdir(0, name)
            if code != 0:
                errors.append(f"{name}: exit code {code} for {' '.join(argv)}")
                continue
            replay = os.path.join(self.workdir, "replay", name)
            code = cli.main(["report", os.path.join(out, "run.cfg"), "--out", replay])
            if code != 0:
                errors.append(f"{name}: replay exit code {code}")
            errors += checks.check_replay(out, replay)
            if argv[0] == "norms" and "--all" in argv:
                vals, d, n = self.fields[argv[argv.index("--in") + 1]]
                rows = checks.read_csv(os.path.join(out, "norms.csv"))
                errors += [f"{name}: {e}" for e in checks.check_norm_rows(rows, vals, d, n, 1.0)]
            elif argv[0] == "calibrate":
                ineq = argv[argv.index("--id") + 1]
                row = checks.read_csv(os.path.join(out, "calibration.csv"))[0]
                errors += checks.check_close(f"{name} constant", float(row["constant"]),
                                             fixtures.CONSTANTS[ineq], 1e-6)
        return errors


WORKLOADS = {w.name: w for w in (W2Certify, Levelset, SweepCli)}
