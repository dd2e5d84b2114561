"""Command-line orchestration: verification suites and plot-ready exports.

Commands (all take --config PATH, --out DIR and --seed N):

    verify    run the selected verification suites, emit a JSON report
              (--expect-compliant asserts the compliance-dependent bounds)
    born      first (and with --order 2 second) Born amplitudes over directions
    profile   permittivity scan along x across the medium's sampling box
    transfer  transfer-pipeline amplitudes over the same direction set
    sweep     invisibility metrics over a list of wavenumbers

profile and sweep judge support and invisibility by the configured
tolerances.support and tolerances.invisibility_factor, as verify does.

The config is parsed once into a RunConfig: every field is read and checked
(grid.n_disk an integer >= 8, directions.n_detectors an integer >= 2,
directions.n_pairs an integer >= 1, seed an integer >= 0, a non-grazing
incidence, a nonzero polarization, known suite names, every wavenumber and
tolerance a finite positive number (not a bool), a valid QuadratureSpec, no
key it does not read) before any command runs.
Suites: projector_algebra, lemma_lab, support, id101, route_equivalence,
invisibility, exactness.

Exit codes: 0 all requested checks pass, 1 suite failure (the error names
the suite), 2 config error.  All I/O uses units with the support threshold
alpha = 1.  Outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import born as born_mod
from . import em, lemmalab, transfer
from .em import IncidentWave
from .errors import BornexactError, ConfigError, DirectionOnRim
from .medium import (
    MediumProfile,
    bounds_check,
    check_keys,
    is_count,
    is_finite_real,
    profile_from_dict,
    support_report,
)

_DEFAULT_TOLERANCES = {
    "projector_algebra": 1e-12,
    "eigenprojector": 1e-10,
    "lemma_lab": 1e-10,
    "support": 1e-6,
    "id101_rel": 1e-6,
    "route_equivalence": 1e-6,
    "invisibility_factor": 1e-8,
    "exactness_ratio": 1e-6,
}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The keys RunConfig reads, per section ("" is the top level; profile_from_dict
# checks the medium's).  A key mapped to a check is benchmark-inert: carried by
# the benchmark's config and read by nothing, it is accepted if the check passes.
_KEYS = {
    "": dict.fromkeys(["medium", "incident", "grid", "quadrature", "directions",
                       "sweep", "tolerances", "suites", "seed"]),
    "incident": dict.fromkeys(["k_over_alpha", "theta0_deg", "phi0_deg", "polarization"]),
    "grid": {"n_disk": None, "p_max_over_k": _number,
             "eps_ann": lambda v: v == em.ANNULUS_GUARD,  # the fixed guard annulus
             "n_box": lambda v: _number(v) and v == 0},  # the CLI grid has no outer box
    "quadrature": dict.fromkeys(["n_radial", "n_mu", "n_phi", "p_max_over_k", "method"]),
    "directions": dict.fromkeys(["n_detectors", "n_pairs"]),
    "sweep": {"k_over_alpha": None},
    "tolerances": {**dict.fromkeys(_DEFAULT_TOLERANCES), "exactness_contrast": _number},
}


def _section(raw: dict, name: str) -> dict:
    """raw[name] (raw itself for ""), its keys checked against _KEYS[name]."""
    sec, where = (raw.get(name, {}), f"{name}.") if name else (raw, "")
    check_keys(sec, _KEYS[name], where)
    bad = [key for key, ok in _KEYS[name].items() if ok and key in sec and not ok(sec[key])]
    if bad:
        raise ConfigError(f"config key {where + bad[0]!r} is read by nothing and "
                          f"does not accept {sec[bad[0]]!r}")
    return sec


def _positive(v, name: str) -> float:
    """v as a float, checked to be a finite positive real that is not a bool."""
    if not (is_finite_real(v) and v > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {v!r}")
    return float(v)


def _count(sec: dict, key: str, default: int, least: int, where: str) -> int:
    """sec[key] (default if absent), checked to be a JSON integer >= least."""
    n = sec.get(key, default)
    if not is_count(n) or n < least:
        raise ConfigError(f"{where}{key} must be an integer >= {least}, got {n!r}")
    return n


class RunConfig:
    """One parsed run: every field read, converted and checked once.

    Builds the incident wave, the disk-only momentum grid, the quadrature,
    the detector list, the suite list and the float tolerances up front, so
    a malformed field or an unknown key raises ConfigError before anything
    runs.
    """

    def __init__(self, raw: dict):
        if not isinstance(raw, dict) or "medium" not in raw:
            raise ConfigError("config must be a JSON object with a 'medium' entry")
        try:
            self._parse(raw)
        except (BornexactError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(str(exc)) from exc

    def _parse(self, raw: dict):
        _section(raw, "")
        self.medium: MediumProfile = profile_from_dict(raw["medium"])
        inc = _section(raw, "incident")
        k = _positive(inc.get("k_over_alpha", 0.8), "incident.k_over_alpha")
        theta0 = np.deg2rad(float(inc.get("theta0_deg", 0.0)))
        phi0 = np.deg2rad(float(inc.get("phi0_deg", 0.0)))
        pol = inc.get("polarization", 0.0)
        if isinstance(pol, (int, float)):
            self.wave = IncidentWave.linear(k, theta0, phi0, np.deg2rad(float(pol)))
        elif isinstance(pol, list) and len(pol) == 3:
            vec = np.array([complex(c[0], c[1]) for c in pol])
            self.wave = IncidentWave(k, theta0, phi0, vec)
        else:
            raise ConfigError("polarization must be chi in degrees or [[re,im]*3]")
        grid = _section(raw, "grid")
        # disk only: no outer box, so no p_max to bound it
        self.grid = transfer.build_momentum_grid(k, np.inf, grid.get("n_disk", 12))
        self.quad = born_mod.QuadratureSpec(**_section(raw, "quadrature"))
        dirs = _section(raw, "directions")
        # at least one detector per hemisphere
        n_det = _count(dirs, "n_detectors", 32, 2, "directions.")
        half = n_det // 2
        self.detectors = (born_mod.fibonacci_hemisphere(half, 1)
                          + born_mod.fibonacci_hemisphere(n_det - half, -1))
        self.n_pairs = _count(dirs, "n_pairs", 64, 1, "directions.")
        self.suites = list(raw.get("suites", _DEFAULT_SUITES))
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suite {unknown[0]!r}")
        tols = {**_DEFAULT_TOLERANCES, **_section(raw, "tolerances")}
        self.tolerances = {n: _positive(tols[n], f"tolerances.{n}") for n in _DEFAULT_TOLERANCES}
        self.sweep_ks = [_positive(v, "sweep.k_over_alpha") for v in
                         _section(raw, "sweep").get("k_over_alpha", [0.3, 0.5, 0.8])]
        self.seed = _count(raw, "seed", 0, 0, "")


def _no_constant(name: str):
    raise ConfigError(f"config holds the non-finite JSON literal {name}")


def _read_config(path):
    """The JSON value in the file at path; the NaN and Infinity literals are refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_no_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows):
    """CSV with LF endings; every cell but a str is written as repr(float)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (c if isinstance(c, str) else repr(float(c)) for c in row)
            fh.write(",".join(cells) + "\n")


def _write_amplitudes(stem: Path, entries, w: IncidentWave, order: int, tolerances, **extra):
    """stem.csv, one row per (direction, F) entry, and its stem.json sidecar (extra keys appended)."""
    _write_csv(
        stem.with_suffix(".csv"),
        "theta,phi,ReFx,ImFx,ReFy,ImFy,ReFz,ImFz",
        ([d.theta, d.phi] + [v for c in F for v in (c.real, c.imag)] for d, F in entries),
    )
    incident = {
        "k": w.k,
        "theta0": w.theta0,
        "phi0": w.phi0,
        "e_i": [[float(c.real), float(c.imag)] for c in w.e_i],
    }
    _write_json(stem.with_suffix(".json"),
                {"incident": incident, "order": order, "tolerances": tolerances, **extra})


# ---------------------------------------------------------------------------
# verify suites


def _suite_projector_algebra(cfg: RunConfig, expect_compliant: bool):
    rng = np.random.default_rng(cfg.seed)
    k = cfg.wave.k
    n = 2000
    rho = np.sqrt(rng.uniform(0, (1 - 2 * em.ANNULUS_GUARD) ** 2, n)) * k
    phi = rng.uniform(0, 2 * np.pi, n)
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    P1, P2 = em.projector(1, pts, k), em.projector(2, pts, k)
    omegas = em.channel_factors(pts, k)[2]
    eye = np.eye(4)
    m = max(
        np.abs(P1 + P2 - eye).max(),
        np.abs(P1 @ P1 - P1).max(),
        np.abs(P2 @ P2 - P2).max(),
        np.abs(P1 @ P2).max(),
    )
    tol = cfg.tolerances["projector_algebra"]
    H = em.free_hamiltonian(pts, k)
    eig = max(np.abs(H @ P - w[:, None, None] * P).max()
              for P, w in zip((P1, P2), omegas))
    ok = m < tol and eig < cfg.tolerances["eigenprojector"]
    return {"pass": bool(ok), "metric": float(max(m, eig)), "tolerance": tol}


def _suite_lemma_lab(cfg: RunConfig, expect_compliant: bool):
    tol = cfg.tolerances["lemma_lab"]
    r1 = lemmalab.chain_operator_residual(1, 2.0, 1.0, 1.0, seed=cfg.seed)
    r2 = lemmalab.chain_operator_residual(2, 1.0, 1.0, 1.0, seed=cfg.seed + 1)
    f1 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed)
    f2 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed + 2, beta=1.2)
    prod = lemmalab.product_support_check(f1, f2, 1.0, tolerance=tol)
    eta = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed + 3, amplitude=0.25)
    rec = lemmalab.reciprocal_support_check(eta, 1.0, tolerance=tol)
    metric = max(r1, r2, prod.leak, rec.leak)
    ok = max(r1, r2) < tol and prod.passed and rec.passed
    return {"pass": bool(ok), "metric": float(metric), "tolerance": tol}


def _support(cfg: RunConfig):
    """support_report at the medium's alpha (1.0 if it has none) and the configured tolerance."""
    alpha = cfg.medium.alpha if cfg.medium.alpha is not None else 1.0
    return support_report(cfg.medium, alpha, tolerance=cfg.tolerances["support"])


def _suite_support(cfg: RunConfig, expect_compliant: bool):
    rep = _support(cfg)
    ok = rep.compliant if expect_compliant else True
    return {
        "pass": bool(ok),
        "metric": float(rep.max_leak),
        "tolerance": cfg.tolerances["support"],
        "verdict": rep.verdict,
    }


def _suite_id101(cfg: RunConfig, expect_compliant: bool):
    kern = transfer.transfer_first_order(cfg.medium, cfg.grid)
    resid = transfer.identity_id101_residual(kern)
    scale = max(kern.norm_max**2, 1e-300)
    tol = cfg.tolerances["id101_rel"]
    ok = (resid <= tol * scale) if expect_compliant else True
    return {"pass": bool(ok), "metric": float(resid / scale), "tolerance": tol}


def _transfer_vs_born(cfg: RunConfig):
    """Transfer amplitudes at the run's detectors off the rim, and max rel. |F - F1|."""
    sol = transfer.solve_T(None, cfg.wave, method="fast", profile=cfg.medium, grid=cfg.grid)
    entries = []
    for d in cfg.detectors:
        try:
            entries.append((d, transfer.amplitude_from_T(sol, d, mode="exact")))
        except DirectionOnRim:
            continue
    if not entries:
        raise DirectionOnRim("every detector maps onto the disk rim annulus")
    F1 = born_mod.first_born_amplitudes(cfg.medium, [cfg.wave], [d for d, _ in entries])[0]
    num = max(float(np.linalg.norm(Ft - Fb)) for (_, Ft), Fb in zip(entries, F1))
    den = max(float(np.linalg.norm(Fb)) for Fb in F1)
    return entries, (num / den if den > 0 else num)


def _suite_route_equivalence(cfg: RunConfig, expect_compliant: bool):
    _, metric = _transfer_vs_born(cfg)
    tol = cfg.tolerances["route_equivalence"]
    return {"pass": bool(metric < tol), "metric": float(metric), "tolerance": tol}


def _suite_invisibility(cfg: RunConfig, expect_compliant: bool):
    k = cfg.wave.k
    rep = born_mod.invisibility_report(cfg.medium, k, n_pairs=min(cfg.n_pairs, 64),
                                       tol_factor=cfg.tolerances["invisibility_factor"])
    alpha = cfg.medium.alpha
    must_be_invisible = (
        expect_compliant and alpha is not None and born_mod.support_overlap(alpha, k).empty
    )
    out = {
        "pass": bool(rep.invisible if must_be_invisible else True),
        "metric": float(rep.max_f1),
        "tolerance": float(rep.bound),
        "verdict": rep.verdict,
    }
    if not must_be_invisible:
        out["informational"] = True  # k above alpha/2 or no compliance expected
    return out


def _born_pass(cfg: RunConfig, dirs, order: int = 2):
    """Born amplitudes at dirs: ({order: [(d, F)]}, summary).

    The summary holds max_f1 and, for order 2, max_f2 and ratio_f2_f1 =
    max|F2|/max|F1|, the metric of the exactness suite.
    """
    entries = {1: list(zip(dirs, born_mod.first_born_amplitudes(cfg.medium, [cfg.wave], dirs)[0]))}
    if order >= 2:
        F2 = born_mod.second_born_amplitudes(cfg.medium, [cfg.wave], dirs, cfg.quad)[0]
        entries[2] = list(zip(dirs, F2))
    summary = {f"max_f{n}": float(max(np.linalg.norm(F) for _, F in e))
               for n, e in entries.items()}
    if order >= 2:
        summary["ratio_f2_f1"] = summary["max_f2"] / max(summary["max_f1"], 1e-300)
    return entries, summary


def _suite_exactness(cfg: RunConfig, expect_compliant: bool):
    # eight detectors strided over both hemispheres (all of them when at most 8)
    dirs = cfg.detectors[::max(1, len(cfg.detectors) // 8)][:8]
    ratio = _born_pass(cfg, dirs)[1]["ratio_f2_f1"]
    tol = cfg.tolerances["exactness_ratio"]
    ok = (ratio <= tol) if expect_compliant else True
    return {"pass": bool(ok), "metric": ratio, "tolerance": tol}


SUITES = {
    "projector_algebra": _suite_projector_algebra,
    "lemma_lab": _suite_lemma_lab,
    "support": _suite_support,
    "id101": _suite_id101,
    "route_equivalence": _suite_route_equivalence,
    "invisibility": _suite_invisibility,
    "exactness": _suite_exactness,
}
# the second-order quadrature is the one suite a config must ask for
_DEFAULT_SUITES = [name for name in SUITES if name != "exactness"]


def cmd_verify(cfg: RunConfig, out_dir: Path, args):
    report = {}
    for name in cfg.suites:
        try:
            report[name] = SUITES[name](cfg, args.expect_compliant)
        except BornexactError as exc:
            raise BornexactError(f"suite {name}: {exc}") from exc
    _write_json(out_dir / "verify.json", report)
    all_pass = all(v["pass"] for v in report.values())
    for name in sorted(report):
        v = report[name]
        note = " [informational]" if v.get("informational") else ""
        print(
            f"{name}: {'PASS' if v['pass'] else 'FAIL'} "
            f"(metric {v['metric']:.3e}, tolerance {v['tolerance']:.3e}){note}"
        )
    return 0 if all_pass else 1


def cmd_born(cfg: RunConfig, out_dir: Path, args):
    entries, summary = _born_pass(cfg, cfg.detectors, args.order)
    tolctx = {"quadrature": cfg.quad.__dict__, "n_disk": cfg.grid.n_r}
    for order, amps in entries.items():
        _write_amplitudes(out_dir / f"born_f{order}", amps, cfg.wave, order, tolctx)
    if args.order >= 2:
        print(f"max|F2|/max|F1| = {summary['ratio_f2_f1']:.6e}")
    else:
        print(f"max|F1| = {summary['max_f1']:.6e}")
    _write_json(out_dir / "born_summary.json", summary)
    return 0


def cmd_profile(cfg: RunConfig, out_dir: Path, args):
    prof = cfg.medium
    xs = np.linspace(*prof.sampling_box()[0], 1001)
    pts = np.zeros((xs.size, 3))
    pts[:, 0] = xs
    ee, _ = prof.eval_eta(pts)
    eta = ee[:, 0, 0]
    _write_csv(out_dir / "profile.csv", "x,Re_eta,Im_eta",
               ((x, v.real, v.imag) for x, v in zip(xs, eta)))
    rep = _support(cfg)
    brep = bounds_check(prof, seed=cfg.seed)
    _write_json(
        out_dir / "profile_report.json",
        {
            "support": {
                "max_leak": rep.max_leak,
                "margin": rep.margin,
                "verdict": rep.verdict,
                "window": rep.window,
            },
            "bounds": {
                "m": brep.m,
                "M": brep.M,
                "passed": brep.passed,
            },
        },
    )
    print(f"support: {rep.verdict} (max_leak {rep.max_leak:.3e})")
    return 0


def cmd_transfer(cfg: RunConfig, out_dir: Path, args):
    entries, rel = _transfer_vs_born(cfg)
    # the first-order closed form is exact for a compliant medium (the verify
    # support suite checks compliance) at k <= alpha, where id101 vanishes
    alpha = cfg.medium.alpha
    exact = alpha is not None and born_mod.support_overlap(alpha, cfg.wave.k, n=2).empty
    _write_amplitudes(out_dir / "transfer_f", entries, cfg.wave, 1, {"n_disk": cfg.grid.n_r},
                      closed_form_exact=exact)
    print(f"closed form exact (compliant medium, k <= alpha): {exact}")
    print(f"transfer vs first-Born max rel diff = {rel:.3e}")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir: Path, args):
    rows = []
    for k in cfg.sweep_ks:
        rep = born_mod.invisibility_report(cfg.medium, k, n_pairs=min(cfg.n_pairs, 32),
                                           tol_factor=cfg.tolerances["invisibility_factor"])
        rows.append((k, rep.max_f1, rep.bound, rep.verdict))
    _write_csv(out_dir / "sweep.csv", "k,max_f1,bound,verdict", rows)
    for k, f1, b, v in rows:
        print(f"k={k:g}: max|F1|={f1:.3e} ({v})")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "born": cmd_born,
    "profile": cmd_profile,
    "transfer": cmd_transfer,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bornexact",
        description="Verification suites for media with an exact first Born approximation",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(cmd=cmd)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name == "verify":
            p.add_argument("--expect-compliant", action="store_true")
        if name == "born":
            p.add_argument("--order", type=int, choices=(1, 2), default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _read_config(args.config)
        if args.seed is not None and isinstance(raw, dict):
            raw["seed"] = args.seed  # checked with the config's own fields
        cfg = RunConfig(raw)
        return args.cmd(cfg, Path(args.out), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BornexactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
