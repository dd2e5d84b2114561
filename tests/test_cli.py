import dataclasses
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bornexact import born, lemmalab, transfer
from bornexact.cli import RunConfig, main
from bornexact.errors import ConfigError, DirectionOnRim, StraddlesSupportEdge
from bornexact.medium import support_report
from bornexact.sampled import write_grid

SPEC_MEDIUM = {
    "type": "rational",
    "alpha": 1.0,
    "a": 2.0,
    "m_exp": 1,
    "footprint": {"type": "box", "zeta": [0.01, 0.0], "ly": 3.0, "lz": 4.0},
    "slab": [-2.0, 2.0],
}

GAUSSERF_MEDIUM = {
    "type": "gausserf",
    "alpha": 1.0,
    "a": 2.0,
    "footprint": {"type": "box", "zeta": [0.01, 0.0], "ly": 3.0, "lz": 4.0},
}

CONTROL_MEDIUM = {
    "type": "gaussian",
    "a": 2.0,
    "footprint": {
        "type": "box",
        "zeta": [float(np.sqrt(np.pi) * 0.01), 0.0],
        "ly": 3.0,
        "lz": 4.0,
    },
    "slab": [-2.0, 2.0],
}


def write_config(tmp_path, medium, **over):
    cfg = {
        "medium": medium,
        "incident": {"k_over_alpha": 0.8, "theta0_deg": 57.3, "phi0_deg": 180.0,
                     "polarization": 40.0},
        "grid": {"n_disk": 8},
        "directions": {"n_detectors": 8, "n_pairs": 16},
        "seed": 1,
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestVerify:
    def test_compliant_medium_passes(self, tmp_path):
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--expect-compliant"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert set(report) == {
            "projector_algebra", "lemma_lab", "support", "id101",
            "route_equivalence", "invisibility",
        }
        for suite in report.values():
            assert suite["pass"] is True
            assert "metric" in suite and "tolerance" in suite

    def test_vacuum_medium_all_zero_metrics(self, tmp_path):
        vac = dict(SPEC_MEDIUM)
        vac["footprint"] = dict(SPEC_MEDIUM["footprint"], zeta=[0.0, 0.0])
        cfg = write_config(tmp_path, vac)
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--expect-compliant"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["id101"]["metric"] == 0.0
        assert report["invisibility"]["metric"] == 0.0

    def test_control_fails_when_expected_compliant(self, tmp_path):
        cfg = write_config(
            tmp_path, CONTROL_MEDIUM,
            suites=["support", "exactness"],
            incident={"k_over_alpha": 0.8, "theta0_deg": 57.3, "phi0_deg": 180.0,
                      "polarization": 0.0},
            quadrature={"n_radial": 12, "n_mu": 24, "n_phi": 24},
        )
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--expect-compliant"])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["support"]["pass"] is False
        assert report["exactness"]["pass"] is False
        assert report["exactness"]["metric"] > 1e-3

    def test_control_baseline_mode_passes(self, tmp_path):
        cfg = write_config(tmp_path, CONTROL_MEDIUM, suites=["support"])
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert main(["verify", "--config", str(missing)]) == 2
        nomedium = tmp_path / "nomedium.json"
        nomedium.write_text("{}")
        assert main(["verify", "--config", str(nomedium)]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_exits_2(self, tmp_path, capsys, literal):
        # json.dumps writes nan as the NaN literal; a NaN alpha made every
        # transform a literal 0 and every suite pass with metric 0
        medium = dict(SPEC_MEDIUM, alpha=float(literal.lower().replace("infinity", "inf")))
        cfg = write_config(tmp_path, medium, suites=[
            "support", "id101", "route_equivalence", "invisibility", "exactness"])
        assert literal in cfg.read_text()
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--expect-compliant"]) == 2
        assert f"literal {literal}" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("spacing, value", [((1, 1, 1), np.nan), ((0, 1, 1), 0.01)],
                             ids=["nan_data", "zero_spacing"])
    def test_non_finite_or_flat_grid_file_exits_2(self, tmp_path, capsys, spacing, value):
        write_grid(tmp_path / "grid.bin", np.full((4, 4, 4, 3, 3), value), (0, 0, 0), spacing)
        cfg = write_config(tmp_path, {"type": "sampled", "path": str(tmp_path / "grid.bin")})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bad_grid_file_exits_2(self, tmp_path):
        grid = tmp_path / "grid.bin"
        grid.write_bytes(b"ETAGRID1" + bytes(20))  # cut inside the header
        cfg = write_config(tmp_path, {"type": "sampled", "path": str(grid)})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize(
        "over",
        [
            {"incident": {"k_over_alpha": -0.8}},
            {"incident": {"k_over_alpha": "abc"}},
            {"grid": {"n_disk": "x"}},
            {"grid": {"n_disk": 4}},
            {"incident": {"theta0_deg": 90.0}},
            {"incident": {"polarization": [[0, 0], [0, 0], [0, 0]]}},
            {"suites": ["support", "exactnes"]},
            {"tolerances": {"support": "x"}},
            {"quadrature": {"method": "pvv"}},
            {"quadrature": {"p_max_over_k": 3.0}},
            {"medium": {"type": "sampled", "path": "one_x_node.bin"}},
            {"grid": {"n_disc": 8}},
            {"quadrature": {"n_radail": 8}},
            {"quadrature": {"eps_over_k2": 1e-3}},
            {"quadrature": {"n_radial": 24.7}},
            {"quadrature": {"n_radial": "24"}},
            {"incident": {"theta_deg": 30.0}},
            {"seeds": [1, 2]},
            {"grid": {"n_disk": 8, "n_box": 8}},
            {"tolerances": {"suport": 1e-6}},
            {"medium": dict(GAUSSERF_MEDIUM, m_exp=2)},
            {"medium": dict(SPEC_MEDIUM, footprint=dict(SPEC_MEDIUM["footprint"], lx=1.0))},
            {"grid": {"n_disk": 8, "eps_ann": 1e-4}},
            {"grid": {"n_disk": 8.5}},
            {"directions": {"n_detectors": "8"}},
            {"directions": {"n_detectors": 8.0}},
            {"directions": {"n_pairs": 16.7}},
            {"directions": {"n_pairs": 0}},
            {"seed": "3"},
            {"seed": -1},
            {"seed": True},
            {"grid": {"n_disk": 100000}},
        ],
        ids=["k_negative", "k_text", "n_disk_text", "n_disk_4", "grazing",
             "zero_polarization", "unknown_suite", "tolerance_text", "quad_method",
             "quad_p_max", "sampled_one_x_node", "grid_n_disc", "quad_n_radail",
             "quad_eps_over_k2", "quad_n_radial_fraction", "quad_n_radial_text",
             "incident_theta_deg", "top_level_seeds", "grid_n_box_8",
             "tolerance_suport", "gausserf_m_exp", "footprint_lx", "grid_eps_ann_1e-4",
             "grid_n_disk_fraction", "n_detectors_text", "n_detectors_float",
             "n_pairs_fraction", "n_pairs_0", "seed_text", "seed_negative", "seed_bool",
             "grid_n_disk_over_cap"],
    )
    def test_malformed_field_exits_2_before_any_suite(self, tmp_path, monkeypatch, over):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran on a malformed config")

        monkeypatch.setattr("bornexact.cli.support_report", no_suite)
        # a well-formed file whose grid has a single node along x
        monkeypatch.chdir(tmp_path)
        write_grid("one_x_node.bin", np.full((1, 4, 4, 3, 3), 0.01), (0, 0, 0), (1, 1, 1))
        over = {"suites": ["support", "exactness"], "medium": SPEC_MEDIUM, **over}
        cfg = write_config(tmp_path, **over)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "verify.json").exists()

    def test_seed_flag_is_checked_like_the_config(self, tmp_path, capsys):
        # the flag overrides the config's seed before the config is parsed;
        # a negative seed reached np.random.default_rng and ended in a traceback
        cfg = write_config(tmp_path, SPEC_MEDIUM, suites=["support"])
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_one_detector_names_the_key(self, tmp_path, capsys):
        # the lower hemisphere would get no detector
        cfg = write_config(tmp_path, SPEC_MEDIUM, directions={"n_detectors": 1})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "directions.n_detectors must be an integer >= 2, got 1" in capsys.readouterr().err

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SPEC_MEDIUM, grid={"n_disc": 8})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key 'grid.n_disc'" in capsys.readouterr().err

    def test_benchmark_inert_keys_accepted(self, tmp_path):
        # carried by the benchmark's config and read by nothing
        cfg = RunConfig({
            "medium": SPEC_MEDIUM,
            "grid": {"n_disk": 8, "n_box": 0, "p_max_over_k": 6.0, "eps_ann": 1e-3},
            "tolerances": {"exactness_contrast": 1e-3},
        })
        assert cfg.grid.n_r == 8 and cfg.grid.points.shape == (8 * 32, 2)
        for bad in ({"grid": {"p_max_over_k": "6"}},
                    {"tolerances": {"exactness_contrast": "x"}}):
            with pytest.raises(ConfigError, match="read by nothing"):
                RunConfig({"medium": SPEC_MEDIUM, **bad})

    def test_suite_error_names_suite(self, tmp_path, capsys):
        # at 89.99 degrees the wave is not grazing, but its transverse
        # momentum lies on the transfer grid's rim annulus
        cfg = write_config(
            tmp_path, SPEC_MEDIUM, suites=["support", "route_equivalence"],
            incident={"k_over_alpha": 0.8, "theta0_deg": 89.99},
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: suite route_equivalence: ")
        assert "disk rim" in err


class TestVerifyReadsItsLibrary:
    """verify takes its detectors from the run, its rim rule from
    amplitude_from_T and its lab verdicts from the lab's own reports."""

    @staticmethod
    def _verify(tmp_path, suites, n_detectors=8):
        cfg = write_config(tmp_path, SPEC_MEDIUM, suites=suites,
                           directions={"n_detectors": n_detectors, "n_pairs": 16})
        out = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out", str(out), "--expect-compliant"])
        report = out / "verify.json"
        return rc, (json.loads(report.read_text()) if report.exists() else None)

    def test_non_rim_amplitude_error_fails_route_equivalence(self, tmp_path, monkeypatch,
                                                             capsys):
        def straddles(*args, **kwargs):
            raise StraddlesSupportEdge("planted straddle")

        monkeypatch.setattr(transfer, "amplitude_from_T", straddles)
        assert self._verify(tmp_path, ["route_equivalence"])[0] == 1
        assert capsys.readouterr().err.startswith(
            "error: suite route_equivalence: planted straddle")

    def test_no_detector_left_fails(self, tmp_path, monkeypatch, capsys):
        def on_rim(*args, **kwargs):
            raise DirectionOnRim("planted rim")

        monkeypatch.setattr(transfer, "amplitude_from_T", on_rim)
        assert self._verify(tmp_path, ["route_equivalence"])[0] == 1
        assert "every detector maps onto the disk rim" in capsys.readouterr().err
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1

    def test_route_equivalence_uses_run_detectors_off_the_rim(self, tmp_path, monkeypatch):
        asked, compared = [], []
        real_amp, real_f1 = transfer.amplitude_from_T, born.first_born_amplitudes

        def amp(sol, d, mode="exact"):
            asked.append(d)
            return real_amp(sol, d, mode)

        def f1(medium, waves, dirs):
            compared.extend(dirs)
            return real_f1(medium, waves, dirs)

        monkeypatch.setattr(transfer, "amplitude_from_T", amp)
        monkeypatch.setattr(born, "first_born_amplitudes", f1)
        rc, report = self._verify(tmp_path, ["route_equivalence"], n_detectors=32)
        assert rc == 0 and report["route_equivalence"]["metric"] < 1e-10
        cfg = RunConfig(json.loads((tmp_path / "config.json").read_text()))
        off_rim = [d for d in cfg.detectors
                   if np.linalg.norm(d.k_s(cfg.wave.k)[:2]) < cfg.grid.rho_max]
        assert asked == cfg.detectors
        assert compared == off_rim and len(off_rim) == 30

    def test_lab_report_verdict_fails_lemma_lab(self, tmp_path, monkeypatch, capsys):
        real = lemmalab.reciprocal_support_check

        def gap_over_bound(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, series_gap=2 * rep.series_bound + 1e-3)

        monkeypatch.setattr(lemmalab, "reciprocal_support_check", gap_over_bound)
        rc, report = self._verify(tmp_path, ["lemma_lab"])
        assert rc == 1
        # the metric, the largest residual and leak, still clears its tolerance
        assert report["lemma_lab"]["pass"] is False
        assert report["lemma_lab"]["metric"] < report["lemma_lab"]["tolerance"]
        assert "lemma_lab: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("n_detectors", [5, 8, 32])
    def test_exactness_detectors_on_both_sides(self, tmp_path, monkeypatch, n_detectors):
        seen = []

        def f2(medium, waves, dirs, quad):
            seen.extend(dirs)
            return np.zeros((len(waves), len(dirs), 3), dtype=complex)

        monkeypatch.setattr(born, "second_born_amplitudes", f2)
        assert self._verify(tmp_path, ["exactness"], n_detectors)[0] == 0
        detectors = RunConfig(json.loads((tmp_path / "config.json").read_text())).detectors
        assert {d.side for d in seen} == {1, -1}
        assert len(seen) == min(n_detectors, 8) and set(seen) <= set(detectors)
        if n_detectors <= 8:
            assert seen == detectors


class TestBornCommand:
    def test_emits_csv_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        out = tmp_path / "out"
        rc = main(["born", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = (out / "born_f1.csv").read_text().strip().split("\n")
        assert lines[0] == "theta,phi,ReFx,ImFx,ReFy,ImFy,ReFz,ImFz"
        assert len(lines) == 9
        sidecar = json.loads((out / "born_f1.json").read_text())
        assert sidecar["order"] == 1

    def test_order2_summary_ratio(self, tmp_path):
        cfg = write_config(
            tmp_path, SPEC_MEDIUM,
            quadrature={"n_radial": 8, "n_mu": 16, "n_phi": 16},
        )
        out = tmp_path / "out2"
        rc = main(["born", "--config", str(cfg), "--out", str(out), "--order", "2"])
        assert rc == 0
        summary = json.loads((out / "born_summary.json").read_text())
        # compliant medium at k = 0.8: second order is an exact zero
        assert summary["max_f2"] == 0.0

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["born", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["born", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "born_f1.csv").read_bytes() == (out2 / "born_f1.csv").read_bytes()


class TestProfileCommand:
    def test_center_and_decay_values(self, tmp_path):
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        out = tmp_path / "out"
        rc = main(["profile", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = (out / "profile.csv").read_text().strip().split("\n")[1:]
        data = np.array([[float(c) for c in r.split(",")] for r in rows])
        mid = data[data.shape[0] // 2]
        assert mid[0] == 0.0
        assert mid[1] == pytest.approx(0.01, abs=1e-12)
        assert mid[2] == pytest.approx(0.0, abs=1e-12)
        edge = data[-1]
        assert edge[0] == pytest.approx(40.0)  # the sampling box, max(20 a, 3 ly)
        assert np.hypot(edge[1], edge[2]) == pytest.approx(0.01 / 401.0, rel=1e-12)
        report = json.loads((out / "profile_report.json").read_text())
        assert report["support"]["verdict"] == "compliant"
        assert report["bounds"]["passed"] is True

    def test_sampled_medium_spans_its_grid(self, tmp_path, monkeypatch):
        # the default 512 x 512 x 64 support scan of a sampled medium takes ~35 s (2 CPUs)
        monkeypatch.setattr("bornexact.cli.support_report",
                            functools.partial(support_report, grid=(512, 8, 4)))
        x = -12.0 + 0.75 * np.arange(32)
        ee = 0.01 * np.exp(-(x / 3.0) ** 2)[:, None, None, None, None] * np.eye(3)
        write_grid(tmp_path / "g.bin", np.broadcast_to(ee, (32, 4, 4, 3, 3)),
                   (-12.0, -1.5, -1.5), (0.75, 1.0, 1.0))
        cfg = write_config(tmp_path, {"type": "sampled", "path": str(tmp_path / "g.bin")})
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "profile.csv").read_text().strip().split("\n")[1:]
        assert float(rows[0].split(",")[0]) == -12.0
        assert float(rows[-1].split(",")[0]) == 11.25


class TestTransferCommand:
    def test_matches_born(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SPEC_MEDIUM)
        out = tmp_path / "out"
        rc = main(["transfer", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        msg = capsys.readouterr().out
        rel = float(msg.strip().split("=")[-1])
        assert rel < 1e-10
        assert (out / "transfer_f.csv").exists()

    def test_skips_rim_detectors_only(self, tmp_path):
        # two of the 32 detectors map onto the rim annulus at k = 0.8
        cfg = write_config(tmp_path, SPEC_MEDIUM, directions={"n_detectors": 32})
        out = tmp_path / "out"
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "transfer_f.csv").read_text().strip().split("\n")) == 1 + 30

    @pytest.mark.parametrize("medium, k_over_alpha, exact", [
        (SPEC_MEDIUM, 0.8, True), (CONTROL_MEDIUM, 0.8, False), (SPEC_MEDIUM, 1.2, False),
    ], ids=["readme", "control", "above_alpha"])
    def test_sidecar_states_closed_form_exactness(self, tmp_path, capsys, medium,
                                                  k_over_alpha, exact):
        # the closed form is the first-order T: exact only for a compliant
        # medium at k <= alpha, where id101 vanishes
        inc = {"k_over_alpha": k_over_alpha, "theta0_deg": 57.3, "phi0_deg": 180.0,
               "polarization": 40.0}
        cfg = write_config(tmp_path, medium, incident=inc)
        out = tmp_path / "out"
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == 0
        sidecar = json.loads((out / "transfer_f.json").read_text())
        assert sidecar["closed_form_exact"] is exact
        printed = capsys.readouterr().out
        assert f"closed form exact (compliant medium, k <= alpha): {exact}" in printed


class TestSweepCommand:
    def test_sweep_rows(self, tmp_path):
        cfg = write_config(tmp_path, SPEC_MEDIUM,
                           sweep={"k_over_alpha": [0.4, 0.5, 0.6]})
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "k,max_f1,bound,verdict"
        assert len(rows) == 4
        verdicts = [r.split(",")[-1] for r in rows[1:]]
        assert verdicts[0] == "invisible" and verdicts[1] == "invisible"
        assert verdicts[2] == "visible"


def test_profile_and_sweep_read_configured_tolerances(tmp_path, capsys):
    # verify fails support at 1e-13 (leak 6.5e-12) and clears k = 0.6 by 1e3
    cfg = write_config(tmp_path, SPEC_MEDIUM, sweep={"k_over_alpha": [0.6]},
                       tolerances={"support": 1e-13, "invisibility_factor": 1e3})
    out = tmp_path / "out"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "profile_report.json").read_text())
    assert report["support"]["verdict"] == "noncompliant"
    assert (out / "sweep.csv").read_text().strip().split("\n")[1].endswith(",invisible")
    printed = capsys.readouterr().out
    assert "support: noncompliant" in printed and "(invisible)" in printed


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--order", "2"],
        ["verify", "--threads", "2"],
        ["verify", "--alpha", "2"],
        ["born", "--alpha", "2"],
        ["sweep", "--expect-compliant"],
    ],
)
def test_flags_only_where_read(tmp_path, argv):
    cfg = write_config(tmp_path, SPEC_MEDIUM)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(cfg), "--out", str(tmp_path / "out")] + argv[1:])
    assert exc.value.code == 2


def test_readme_example_config_parses():
    """The README's example run.json builds a RunConfig: it names only read keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Example `run.json`:\s*```json\n(.*?)```", readme, re.S)
    cfg = RunConfig(json.loads(block.group(1)))
    assert cfg.grid.n_r == 12 and cfg.wave.k == 0.8
