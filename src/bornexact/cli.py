"""Command-line orchestration: verification suites and plot-ready exports.

Commands (all take --config PATH, --out DIR and --seed N):

    verify    run the selected verification suites, emit a JSON report
              (--expect-compliant asserts the compliance-dependent bounds)
    born      first (and with --order 2 second) Born amplitudes over directions
    profile   permittivity scan along x through the footprint center
    transfer  transfer-pipeline amplitudes over the same direction set
    sweep     invisibility metrics over a list of wavenumbers

Exit codes: 0 all requested checks pass, 1 suite failure, 2 config error.
All I/O uses units with the support threshold alpha = 1; --alpha rescales
emitted lengths and wavenumbers on output only.  Outputs are deterministic
for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import born as born_mod
from . import lemmalab, transfer
from .em import DetectorDirection, IncidentWave
from .errors import BornexactError, ConfigError
from .medium import (
    MediumProfile,
    bounds_check,
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
    "exactness_contrast": 1e-3,
}

_DEFAULT_SUITES = [
    "projector_algebra",
    "lemma_lab",
    "support",
    "id101",
    "route_equivalence",
    "invisibility",
]


class RunConfig:
    """Parsed run configuration with documented defaults."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict) or "medium" not in raw:
            raise ConfigError("config must be a JSON object with a 'medium' entry")
        self.raw = raw
        self.medium: MediumProfile = profile_from_dict(raw["medium"])
        inc = raw.get("incident", {})
        self.k = float(inc.get("k_over_alpha", 0.8))
        self.theta0 = np.deg2rad(float(inc.get("theta0_deg", 0.0)))
        self.phi0 = np.deg2rad(float(inc.get("phi0_deg", 0.0)))
        pol = inc.get("polarization", 0.0)
        self.pol_chi = None
        self.pol_vec = None
        if isinstance(pol, (int, float)):
            self.pol_chi = np.deg2rad(float(pol))
        elif isinstance(pol, list) and len(pol) == 3:
            self.pol_vec = np.array([complex(c[0], c[1]) for c in pol])
        else:
            raise ConfigError("polarization must be chi in degrees or [[re,im]*3]")
        grid = raw.get("grid", {})
        self.n_disk = int(grid.get("n_disk", 12))
        self.p_max_over_k = float(grid.get("p_max_over_k", 6.0))
        self.eps_ann = float(grid.get("eps_ann", 1e-3))
        quad = raw.get("quadrature", {})
        self.quad = born_mod.QuadratureSpec(
            n_radial=int(quad.get("n_radial", 24)),
            n_mu=int(quad.get("n_mu", 48)),
            n_phi=int(quad.get("n_phi", 48)),
            p_max_over_k=float(quad.get("p_max_over_k", 6.0)),
            method=quad.get("method", "pv"),
        )
        dirs = raw.get("directions", {})
        self.n_detectors = int(dirs.get("n_detectors", 32))
        self.n_pairs = int(dirs.get("n_pairs", 64))
        self.suites = list(raw.get("suites", _DEFAULT_SUITES))
        self.tolerances = dict(_DEFAULT_TOLERANCES)
        self.tolerances.update(raw.get("tolerances", {}))
        self.sweep_ks = [float(v) for v in raw.get("sweep", {}).get("k_over_alpha", [0.3, 0.5, 0.8])]
        self.seed = int(raw.get("seed", 0))

    def incident_wave(self) -> IncidentWave:
        if self.pol_vec is not None:
            return IncidentWave(self.k, self.theta0, self.phi0, self.pol_vec)
        return IncidentWave.linear(self.k, self.theta0, self.phi0, self.pol_chi)

    def detector_set(self):
        half = max(1, self.n_detectors // 2)
        return born_mod.fibonacci_hemisphere(half, 1) + born_mod.fibonacci_hemisphere(
            self.n_detectors - half, -1
        )

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# verify suites


def _suite_projector_algebra(cfg: RunConfig):
    from . import em

    rng = np.random.default_rng(cfg.seed)
    k = cfg.k
    n = 2000
    rho = np.sqrt(rng.uniform(0, (1 - 2 * cfg.eps_ann) ** 2, n)) * k
    phi = rng.uniform(0, 2 * np.pi, n)
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    P1 = em.projector(1, pts, k, cfg.eps_ann)
    P2 = em.projector(2, pts, k, cfg.eps_ann)
    eye = np.eye(4)
    m = max(
        np.abs(P1 + P2 - eye).max(),
        np.abs(P1 @ P1 - P1).max(),
        np.abs(P2 @ P2 - P2).max(),
        np.abs(P1 @ P2).max(),
    )
    tol = cfg.tolerances["projector_algebra"]
    H = em.free_hamiltonian(pts, k)
    w = np.asarray(em.varpi(pts, k, cfg.eps_ann))
    eig = max(
        np.abs(H @ P1 + w[:, None, None] * P1).max(),
        np.abs(H @ P2 - w[:, None, None] * P2).max(),
    )
    ok = m < tol and eig < cfg.tolerances["eigenprojector"]
    return {"pass": bool(ok), "metric": float(max(m, eig)), "tolerance": tol}


def _suite_lemma_lab(cfg: RunConfig):
    tol = cfg.tolerances["lemma_lab"]
    r1 = lemmalab.chain_operator_residual(1, 2.0, 1.0, 1.0, seed=cfg.seed)
    r2 = lemmalab.chain_operator_residual(2, 1.0, 1.0, 1.0, seed=cfg.seed + 1)
    f1 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed)
    f2 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed + 2, beta=1.2)
    prod = lemmalab.product_support_check(f1, f2, 1.0, tolerance=tol)
    eta = lemmalab.make_salpha_sample(1.0, "gaussian", seed=cfg.seed + 3, amplitude=0.25)
    rec = lemmalab.reciprocal_support_check(eta, 1.0, tolerance=tol)
    metric = max(r1, r2, prod.leak, rec.leak)
    return {"pass": bool(metric < tol), "metric": float(metric), "tolerance": tol}


def _suite_support(cfg: RunConfig, expect_compliant: bool):
    alpha = cfg.medium.alpha if cfg.medium.alpha is not None else 1.0
    rep = support_report(cfg.medium, alpha, tolerance=cfg.tolerances["support"])
    ok = rep.compliant if expect_compliant else True
    return {
        "pass": bool(ok),
        "metric": float(rep.max_leak),
        "tolerance": cfg.tolerances["support"],
        "verdict": rep.verdict,
    }


def _suite_id101(cfg: RunConfig, expect_compliant: bool):
    grid = transfer.build_momentum_grid(
        cfg.k, cfg.p_max_over_k * cfg.k, max(8, cfg.n_disk), 0, cfg.eps_ann
    )
    kern = transfer.transfer_first_order(cfg.medium, grid)
    resid = transfer.identity_id101_residual(kern)
    scale = max(kern.norm_max**2, 1e-300)
    tol = cfg.tolerances["id101_rel"]
    ok = (resid <= tol * scale) if expect_compliant else True
    return {"pass": bool(ok), "metric": float(resid / scale), "tolerance": tol}


def _suite_route_equivalence(cfg: RunConfig):
    grid = transfer.build_momentum_grid(
        cfg.k, cfg.p_max_over_k * cfg.k, max(8, cfg.n_disk), 0, cfg.eps_ann
    )
    w = cfg.incident_wave()
    sol = transfer.solve_T(None, w, method="fast", profile=cfg.medium, grid=grid)
    rng = np.random.default_rng(cfg.seed)
    num = den = 0.0
    for _ in range(8):
        theta = rng.uniform(0.15, np.pi - 0.15)
        if abs(np.cos(theta)) < 0.2:
            continue
        d = DetectorDirection(theta, rng.uniform(0, 2 * np.pi))
        try:
            Ft = transfer.amplitude_from_T(sol, d, mode="exact")
        except BornexactError:
            continue
        Fb = born_mod.first_born_amplitude(cfg.medium, w, d)
        num = max(num, float(np.linalg.norm(Ft - Fb)))
        den = max(den, float(np.linalg.norm(Fb)))
    metric = num / max(den, 1e-300) if den > 0 else num
    tol = cfg.tolerances["route_equivalence"]
    return {"pass": bool(metric < tol), "metric": float(metric), "tolerance": tol}


def _suite_invisibility(cfg: RunConfig, expect_compliant: bool):
    rep = born_mod.invisibility_report(
        cfg.medium,
        cfg.k,
        n_pairs=min(cfg.n_pairs, 64),
        tol_factor=cfg.tolerances["invisibility_factor"],
    )
    alpha = cfg.medium.alpha
    must_be_invisible = (
        expect_compliant and alpha is not None and cfg.k <= 0.5 * alpha + 1e-12
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


def _suite_exactness(cfg: RunConfig, expect_compliant: bool):
    w = cfg.incident_wave()
    dirs = cfg.detector_set()[:8]
    max_f1 = max(
        np.linalg.norm(born_mod.first_born_amplitude(cfg.medium, w, d)) for d in dirs
    )
    max_f2 = max(
        np.linalg.norm(born_mod.second_born_amplitude(cfg.medium, w, d, cfg.quad))
        for d in dirs
    )
    ratio = max_f2 / max(max_f1, 1e-300)
    tol = cfg.tolerances["exactness_ratio"]
    ok = (ratio <= tol) if expect_compliant else True
    return {"pass": bool(ok), "metric": float(ratio), "tolerance": tol}


def cmd_verify(cfg: RunConfig, out_dir: Path, expect_compliant: bool):
    report = {}
    for suite in cfg.suites:
        if suite == "projector_algebra":
            report[suite] = _suite_projector_algebra(cfg)
        elif suite == "lemma_lab":
            report[suite] = _suite_lemma_lab(cfg)
        elif suite == "support":
            report[suite] = _suite_support(cfg, expect_compliant)
        elif suite == "id101":
            report[suite] = _suite_id101(cfg, expect_compliant)
        elif suite == "route_equivalence":
            report[suite] = _suite_route_equivalence(cfg)
        elif suite == "invisibility":
            report[suite] = _suite_invisibility(cfg, expect_compliant)
        elif suite == "exactness":
            report[suite] = _suite_exactness(cfg, expect_compliant)
        else:
            raise ConfigError(f"unknown suite {suite!r}")
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


def _rescaled_map(amap, alpha_scale: float):
    # far-field amplitudes carry one power of length: divide by alpha
    if alpha_scale == 1.0:
        return amap
    entries = [(d, F / alpha_scale) for d, F in amap.entries]
    return born_mod.AmplitudeMap(entries, amap.incident, amap.order, amap.tolerances)


def cmd_born(cfg: RunConfig, out_dir: Path, order: int, alpha_scale: float):
    w = cfg.incident_wave()
    dirs = cfg.detector_set()
    tolctx = {"quadrature": cfg.quad.__dict__, "n_disk": cfg.n_disk}
    amap = born_mod.amplitude_map(cfg.medium, w, dirs, order=1)
    amap.tolerances.update(tolctx)
    out_dir.mkdir(parents=True, exist_ok=True)
    _rescaled_map(amap, alpha_scale).write(
        out_dir / "born_f1.csv", out_dir / "born_f1.json"
    )
    summary = {"max_f1": float(max(np.linalg.norm(F) for _, F in amap.entries))}
    if order >= 2:
        entries2 = [
            (d, born_mod.second_born_amplitude(cfg.medium, w, d, cfg.quad))
            for d in dirs
        ]
        amap2 = born_mod.AmplitudeMap(entries2, w, order=2, tolerances=tolctx)
        _rescaled_map(amap2, alpha_scale).write(
            out_dir / "born_f2.csv", out_dir / "born_f2.json"
        )
        max_f2 = float(max(np.linalg.norm(F) for _, F in entries2))
        summary["max_f2"] = max_f2
        summary["ratio_f2_f1"] = max_f2 / max(summary["max_f1"], 1e-300)
        print(f"max|F2|/max|F1| = {summary['ratio_f2_f1']:.6e}")
    else:
        print(f"max|F1| = {summary['max_f1']:.6e}")
    _write_json(out_dir / "born_summary.json", summary)
    return 0


def cmd_profile(cfg: RunConfig, out_dir: Path, alpha_scale: float):
    prof = cfg.medium
    a = getattr(prof, "a", 1.0)
    lx = 10.0 * a
    xs = np.linspace(-lx, lx, 1001)
    pts = np.zeros((xs.size, 3))
    pts[:, 0] = xs
    ee, _ = prof.eval_eta(pts)
    eta = ee[:, 0, 0]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "profile.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,Re_eta,Im_eta\n")
        for x, v in zip(xs, eta):
            fh.write(f"{_fmt(x / alpha_scale)},{_fmt(v.real)},{_fmt(v.imag)}\n")
    alpha = prof.alpha if prof.alpha is not None else 1.0
    rep = support_report(prof, alpha)
    brep = bounds_check(prof, 20000, seed=cfg.seed)
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


def cmd_transfer(cfg: RunConfig, out_dir: Path, alpha_scale: float):
    grid = transfer.build_momentum_grid(
        cfg.k, cfg.p_max_over_k * cfg.k, max(8, cfg.n_disk), 0, cfg.eps_ann
    )
    w = cfg.incident_wave()
    sol = transfer.solve_T(None, w, method="fast", profile=cfg.medium, grid=grid)
    entries = []
    worst = 0.0
    denom = 0.0
    for d in cfg.detector_set():
        try:
            F = transfer.amplitude_from_T(sol, d, mode="exact")
        except BornexactError:
            continue
        entries.append((d, F))
        Fb = born_mod.first_born_amplitude(cfg.medium, w, d)
        worst = max(worst, float(np.linalg.norm(F - Fb)))
        denom = max(denom, float(np.linalg.norm(Fb)))
    amap = born_mod.AmplitudeMap(entries, w, order=1,
                                 tolerances={"n_disk": cfg.n_disk})
    out_dir.mkdir(parents=True, exist_ok=True)
    _rescaled_map(amap, alpha_scale).write(
        out_dir / "transfer_f.csv", out_dir / "transfer_f.json"
    )
    rel = worst / max(denom, 1e-300) if denom > 0 else worst
    print(f"transfer vs first-Born max rel diff = {rel:.3e}")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir: Path, alpha_scale: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in cfg.sweep_ks:
        rep = born_mod.invisibility_report(cfg.medium, k, n_pairs=min(cfg.n_pairs, 32))
        rows.append((k, rep.max_f1, rep.bound, rep.verdict))
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,max_f1,bound,verdict\n")
        for k, f1, b, v in rows:
            fh.write(f"{_fmt(k * alpha_scale)},{_fmt(f1)},{_fmt(b)},{v}\n")
    for k, f1, b, v in rows:
        print(f"k={k:g}: max|F1|={f1:.3e} ({v})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bornexact",
        description="Verification suites for media with an exact first Born approximation",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("verify", "born", "profile", "transfer", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name == "verify":
            p.add_argument("--expect-compliant", action="store_true")
        else:
            p.add_argument("--alpha", type=float, default=1.0,
                           help="rescale emitted lengths/wavenumbers (output only)")
        if name == "born":
            p.add_argument("--order", type=int, choices=(1, 2), default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.expect_compliant)
        if args.command == "born":
            return cmd_born(cfg, out_dir, args.order, args.alpha)
        if args.command == "profile":
            return cmd_profile(cfg, out_dir, args.alpha)
        if args.command == "transfer":
            return cmd_transfer(cfg, out_dir, args.alpha)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.alpha)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BornexactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
