import json

import numpy as np
import pytest

from bornexact.cli import main

SPEC_MEDIUM = {
    "type": "rational",
    "alpha": 1.0,
    "a": 2.0,
    "m_exp": 1,
    "footprint": {"type": "box", "zeta": [0.01, 0.0], "ly": 3.0, "lz": 4.0},
    "slab": [-2.0, 2.0],
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
        ],
        ids=["k_negative", "k_text", "n_disk_text", "n_disk_4", "grazing",
             "zero_polarization", "unknown_suite", "tolerance_text", "quad_method",
             "quad_p_max"],
    )
    def test_malformed_field_exits_2_before_any_suite(self, tmp_path, monkeypatch, over):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran on a malformed config")

        monkeypatch.setattr("bornexact.cli.support_report", no_suite)
        over = {"suites": ["support", "exactness"], **over}
        cfg = write_config(tmp_path, SPEC_MEDIUM, **over)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "verify.json").exists()

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
        assert edge[0] == pytest.approx(20.0)
        assert np.hypot(edge[1], edge[2]) == pytest.approx(0.01 / 101.0, rel=1e-12)
        report = json.loads((out / "profile_report.json").read_text())
        assert report["support"]["verdict"] == "compliant"
        assert report["bounds"]["passed"] is True


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


def test_config_round_trip_bytes(tmp_path):
    from bornexact.cli import load_config

    cfg_path = write_config(tmp_path, SPEC_MEDIUM)
    cfg = load_config(cfg_path)
    once = cfg.canonical_json()
    again = json.dumps(json.loads(once), sort_keys=True, indent=2) + "\n"
    assert once == again
