"""End-to-end tests of the command line front end.

Everything goes through main(argv) so the tests see exactly what a
shell user sees: printed output and the documented exit codes.
"""

from __future__ import annotations

import csv
import io
import json

import mpmath as mp
import numpy as np
import pytest

from ikmix.cli import main
from ikmix.mixture import FiniteMixture, mixture_sf
from ikmix.ordercheck import Grid


def write_mixture(path, weights, alpha, beta):
    path.write_text(json.dumps({"weights": weights, "alpha": alpha,
                                "beta": beta}))
    return str(path)


@pytest.fixture(autouse=True)
def clean_grid_env(monkeypatch):
    monkeypatch.delenv("IKMIX_GRID", raising=False)


@pytest.fixture
def narrow(tmp_path):
    return write_mixture(tmp_path / "narrow.json", [1.0], 2.0, 1.0)


@pytest.fixture
def wide(tmp_path):
    return write_mixture(tmp_path / "wide.json", [1.0], 2.0, 3.0)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_ik_cdf_value(self, capsys):
        rc = main(["eval", "--dist", "ik", "--alpha", "0.5", "--beta", "1",
                   "--x", "2", "--fn", "cdf"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.42264973081037427"

    def test_ik_cdf_half(self, capsys):
        rc = main(["eval", "--dist", "ik", "--alpha", "1", "--beta", "1",
                   "--x", "1", "--fn", "cdf"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_ik_pdf_value(self, capsys):
        rc = main(["eval", "--dist", "ik", "--alpha", "2", "--beta", "3",
                   "--x", "1", "--fn", "pdf"])
        assert rc == 0
        np.testing.assert_allclose(float(capsys.readouterr().out),
                                   0.421875, rtol=1e-14)

    def test_quantile_takes_level_in_x(self, capsys):
        rc = main(["eval", "--dist", "ik", "--alpha", "3", "--beta", "0.5",
                   "--x", "0.9", "--fn", "quantile"])
        assert rc == 0
        got = float(capsys.readouterr().out)
        np.testing.assert_allclose(got, 0.73946408548949514, rtol=1e-13)

    def test_mixture_cdf(self, capsys, tmp_path):
        m = write_mixture(tmp_path / "m.json", [0.5, 0.5], [1.0, 2.0], 1.0)
        rc = main(["eval", "--mixture", m, "--x", "1", "--fn", "cdf"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.625"

    def test_mixture_quantile_roundtrip(self, capsys, tmp_path):
        m = write_mixture(tmp_path / "m.json", [0.3, 0.7], [1.5, 2.5],
                          [2.0, 0.8])
        rc = main(["eval", "--mixture", m, "--x", "0.62", "--fn", "quantile"])
        assert rc == 0
        x = float(capsys.readouterr().out)
        rc = main(["eval", "--mixture", m, "--x", str(x), "--fn", "cdf"])
        assert rc == 0
        np.testing.assert_allclose(float(capsys.readouterr().out), 0.62,
                                   rtol=1e-10)

    def test_sfdiff_between_files(self, capsys, narrow, wide):
        rc = main(["eval", "--mixture", wide, "--against", narrow,
                   "--x", "10", "--fn", "sfdiff"])
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got > 0.0
        rc = main(["eval", "--mixture", narrow, "--against", narrow,
                   "--x", "10", "--fn", "sfdiff"])
        assert rc == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_usage_errors_exit_2(self, narrow):
        cases = [
            ["eval", "--x", "1", "--fn", "cdf"],
            ["eval", "--mixture", narrow, "--alpha", "2", "--x", "1",
             "--fn", "cdf"],
            ["eval", "--mixture", narrow, "--x", "1", "--fn", "sfdiff"],
            ["eval", "--mixture", narrow, "--against", narrow, "--x", "1",
             "--fn", "cdf"],
            ["eval", "--dist", "weird", "--alpha", "1", "--beta", "1",
             "--x", "1", "--fn", "cdf"],
            ["eval", "--alpha", "2", "--x", "1", "--fn", "cdf"],
            ["eval", "--dist", "ik", "--alpha", "1", "--beta", "1",
             "--x", "1", "--fn", "nope"],
            ["eval", "--dist", "ik", "--alpha", "1", "--beta", "1",
             "--x", "1", "--fn", "sfdiff"],
            ["eval", "--dist", "ik", "--alpha", "1", "--beta", "1",
             "--against", narrow, "--x", "1", "--fn", "sfdiff"],
        ]
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_sfdiff_with_dist_names_the_mode(self, capsys, narrow):
        # with or without --against, the message says that --dist cannot
        # give an sf difference, instead of asking first for --against
        for against in ([], ["--against", narrow]):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--dist", "ik", "--alpha", "1", "--beta", "1", *against,
                      "--x", "1", "--fn", "sfdiff"])
            assert exc.value.code == 2
            assert ("error: --fn sfdiff needs --mixture/--against, not --dist"
                    in capsys.readouterr().err)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--mixture", narrow, "--x", "1", "--fn", "sfdiff"])
        assert exc.value.code == 2
        assert "error: --fn sfdiff needs --against FILE" in capsys.readouterr().err

    @pytest.mark.parametrize("other", [([0.6, 0.4], [1.0, 3.0], [1.2, 2.0]),
                                       ([0.2, 0.5, 0.3], 2.0, [0.5, 1.0, 4.0])])
    def test_sfdiff_prints_the_difference_of_the_sfs(self, capsys, tmp_path, other):
        # one pair of equal and one of unequal component counts
        params = (([0.3, 0.7], [1.5, 2.5], [2.0, 0.8]), other)
        a, b = (write_mixture(tmp_path / f"{name}.json", *p) for name, p in zip("ab", params))
        rc = main(["eval", "--mixture", a, "--against", b, "--x", "0.7", "--fn", "sfdiff"])
        assert rc == 0
        m_a, m_b = (FiniteMixture(*p) for p in params)
        want = mixture_sf(0.7, m_a) - mixture_sf(0.7, m_b)
        assert want != 0.0
        assert capsys.readouterr().out == format(want, ".17g") + "\n"

    def test_domain_errors_exit_1(self, capsys, tmp_path):
        rc = main(["eval", "--dist", "ik", "--alpha", "-1", "--beta", "1",
                   "--x", "1", "--fn", "cdf"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        rc = main(["eval", "--mixture", str(tmp_path / "missing.json"),
                   "--x", "1", "--fn", "cdf"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["eval", "--mixture", str(bad), "--x", "1", "--fn", "cdf"])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, content", [
        (["scan", "{file}"], b'{"theorem": "T3.1",'),
        (["scan", "{file}"], b"\xff\xfe"),
        (["eval", "--mixture", "{file}", "--x", "1", "--fn", "cdf"], b"\xff\xfe"),
        (["order", "--kind", "st", "--m1", "{narrow}", "--m2", "{file}"], b"\xff\xfe"),
        (["curve", "--which", "sf", "--m1", "{file}", "--out", "{out}"], b"\xff\xfe")],
        ids=["truncated scan config", "non-UTF-8 scan config", "non-UTF-8 eval mixture",
             "non-UTF-8 order mixture", "non-UTF-8 curve mixture"])
    def test_malformed_files_exit_1(self, capsys, tmp_path, narrow, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = main([arg.format(file=bad, narrow=narrow, out=tmp_path / "out.csv")
                   for arg in command])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "not valid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("fn, x", [("cdf", "nan"), ("pdf", "inf")])
    def test_non_finite_x_exits_1(self, capsys, fn, x):
        # argparse's float accepts both spellings; the evaluator rejects them
        rc = main(["eval", "--dist", "ik", "--alpha", "1", "--beta", "1",
                   "--x", x, "--fn", fn])
        assert rc == 1
        assert capsys.readouterr().err == "error: x must be finite\n"

    def test_null_parameter_exits_1(self, capsys, tmp_path):
        m = write_mixture(tmp_path / "null.json", [1.0], None, 1.0)
        rc = main(["eval", "--mixture", m, "--x", "1", "--fn", "cdf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "alpha must be a real number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("weights, alpha, message", [
        pytest.param([1.0], 10**400, "alpha must be positive and finite",
                     id="401-digit alpha"),
        pytest.param([None, 1.0], 1.0, "weights must be a real number", id="null weight")])
    def test_bad_mixture_values_exit_1(self, capsys, tmp_path, weights, alpha, message):
        m = write_mixture(tmp_path / "bad.json", weights, alpha, 1.0)
        rc = main(["eval", "--mixture", m, "--x", "1", "--fn", "cdf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


class TestOrder:
    def test_holds_exit_0_and_json(self, capsys, narrow, wide):
        rc = main(["order", "--kind", "st", "--m1", narrow, "--m2", wide,
                   "--grid", "1e-3:1e3:200:log"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "holds_on_grid"
        assert out["kind"] == "st"
        assert out["witness"] is None

    def test_violated_exit_3_with_witness(self, capsys, narrow, wide):
        rc = main(["order", "--kind", "st", "--m1", wide, "--m2", narrow,
                   "--grid", "1e-3:1e3:200:log"])
        assert rc == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "violated"
        assert out["witness"]["lhs"] > out["witness"]["rhs"]

    def test_inconclusive_exit_4(self, capsys, tmp_path):
        # alpha * x underflows to 0 on most of this grid, so the pdf of
        # IK(1e-20, 2) is exactly 0 there and its log -inf
        tiny = write_mixture(tmp_path / "tiny.json", [1.0], 1e-20, 2.0)
        plain = write_mixture(tmp_path / "plain.json", [1.0], 1.0, 2.0)
        rc = main(["order", "--kind", "lr", "--m1", tiny, "--m2", plain,
                   "--grid", "1e-310:1e-300:100:log"])
        assert rc == 4
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "inconclusive"
        assert "non-finite" in out["reason"]

    def test_deep_tail_exit_codes_match_mpmath(self, capsys, tmp_path):
        # the pdfs lie near exp(-740) on this grid, below float64; the
        # ratio pdf(IK(50, 141)) / pdf(IK(50, 140)) is 141/140 * u, which
        # rises with x, so m1 = IK(50, 140) <= m2 = IK(50, 141) in lr
        deep = write_mixture(tmp_path / "deep.json", [1.0], 50.0, 140.0)
        deeper = write_mixture(tmp_path / "deeper.json", [1.0], 50.0, 141.0)
        with mp.workdps(40):
            ratios = [mp.mpf(141) / 140 * -mp.expm1(-50 * mp.log1p(mp.mpf(float(x))))
                      for x in np.geomspace(1e-4, 3e-4, 100)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        for m1, m2, rc_want, status in ((deep, deeper, 0, "holds_on_grid"),
                                        (deeper, deep, 3, "violated")):
            rc = main(["order", "--kind", "lr", "--m1", m1, "--m2", m2,
                       "--grid", "1e-4:3e-4:100:log"])
            out = json.loads(capsys.readouterr().out)
            assert (rc, out["status"]) == (rc_want, status)
            assert out["skipped_points"] == out["nonfinite_points"] == 0

    @pytest.mark.parametrize("points", [10**6 + 1, 10**30], ids=["million and one", "10**30"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_grid_points_over_the_ceiling_exit_1(self, capsys, monkeypatch, narrow, wide,
                                                 points, via):
        spec = f"1e-4:1e4:{points}:log"
        args = ["order", "--kind", "st", "--m1", narrow, "--m2", wide]
        if via == "flag":
            args += ["--grid", spec]
        else:
            monkeypatch.setenv("IKMIX_GRID", spec)
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: grid points must be an integer >= 2 and <= 1000000")

    def test_reversed_rh_spellings_agree(self, capsys, narrow, wide):
        outs = []
        for spelling in ("r-rh", "r_rh"):
            rc = main(["order", "--kind", spelling, "--m1", narrow,
                       "--m2", wide, "--grid", "1e-3:1e3:200:log"])
            outs.append((rc, json.loads(capsys.readouterr().out)))
        assert outs[0] == outs[1]
        assert outs[0][1]["kind"] == "r_rh"

    def test_unknown_kind_exit_2(self, narrow, wide):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--kind", "hazard", "--m1", narrow, "--m2", wide])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class TestReproduce:
    def test_single_pass(self, capsys):
        rc = main(["reproduce", "ex3.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ex3.1" in out and "PASS" in out
        assert "1/1 passed" in out

    def test_single_known_failure(self, capsys):
        rc = main(["reproduce", "ce3.2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "value:sfdiff@x=10" in out
        assert "0/1 passed" in out

    def test_all_reports_the_known_score(self, capsys):
        rc = main(["reproduce", "--all"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "13/15 passed" in out
        lines = {ln.split()[0]: ln for ln in out.splitlines()
                 if ln and not ln.startswith(" ")}
        assert "PASS" in lines["ex3.1"]
        assert "FAIL" in lines["ce3.2"]
        assert "FAIL" in lines["ex3.6"]

    def test_id_and_all_conflict(self):
        for argv in (["reproduce"], ["reproduce", "ex3.1", "--all"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_id_exit_1(self, capsys):
        rc = main(["reproduce", "ex0.0"])
        assert rc == 1
        assert "unknown fixture" in capsys.readouterr().err

    def test_env_grid_flips_ex36(self, capsys, monkeypatch):
        monkeypatch.setenv("IKMIX_GRID", "1e-2:1e4:2000:log")
        rc = main(["reproduce", "ex3.6"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_grid_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IKMIX_GRID", "1e-2:1e4:2000:log")
        rc = main(["reproduce", "ex3.6", "--grid", "1e-4:1e4:2000:log"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


class TestCurve:
    def test_sfdiff_csv(self, capsys, tmp_path, narrow, wide):
        out = tmp_path / "diff.csv"
        rc = main(["curve", "--which", "sfdiff", "--m1", narrow, "--m2", wide,
                   "--out", str(out), "--grid", "1e-3:1e3:50:log"])
        assert rc == 0
        assert "wrote 50 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "x,value,defined"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert float(first[1]) <= 0.0
        assert first[2] == "true"

    def test_self_difference_is_zero(self, tmp_path, narrow):
        out = tmp_path / "zero.csv"
        main(["curve", "--which", "sfdiff", "--m1", narrow, "--m2", narrow,
              "--out", str(out), "--grid", "1e-3:1e3:50:log"])
        vals = [float(ln.split(",")[1]) for ln in
                out.read_text().splitlines()[1:]]
        assert vals == [0.0] * 50

    def test_byte_identical_reruns(self, tmp_path, narrow, wide):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curve", "--which", "rhratio", "--m1", narrow, "--m2", wide,
                "--grid", "1e-3:1e3:80:log"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("alias, name", [("cdfratio", "cdf_ratio"),
                                             ("pdfratio", "pdf_ratio"),
                                             ("rhratio", "rh_ratio")])
    def test_alias_writes_the_canonical_bytes(self, tmp_path, narrow, wide, alias, name):
        paths = {}
        for which in (alias, name):
            paths[which] = tmp_path / f"{which}.csv"
            rc = main(["curve", "--which", which, "--m1", narrow, "--m2", wide,
                       "--grid", "1e-3:1e3:80:log", "--out", str(paths[which])])
            assert rc == 0
        assert paths[alias].read_bytes() == paths[name].read_bytes()

    def test_single_sf_csv(self, capsys, tmp_path):
        m = write_mixture(tmp_path / "m.json", [0.3, 0.7], [1.5, 2.5], [2.0, 0.8])
        out = tmp_path / "sf.csv"
        rc = main(["curve", "--which", "sf", "--m1", m, "--out", str(out),
                   "--grid", "1e-3:1e3:60:log"])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote 60 rows to {out}\n"
        xs = Grid.from_spec("1e-3:1e3:60:log").xs()
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["x", "value", "defined"])
        sf = mixture_sf(xs, FiniteMixture([0.3, 0.7], [1.5, 2.5], [2.0, 0.8]))
        for x, v in zip(xs.tolist(), sf.tolist()):
            writer.writerow([format(x, ".17g"), format(v, ".17g"), "true"])
        assert out.read_bytes() == want.getvalue().encode()

    def test_single_sf_rejects_m2(self, tmp_path, narrow, wide):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--which", "sf", "--m1", narrow, "--m2", wide,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_ratio_requires_m2(self, tmp_path, narrow):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--which", "cdfratio", "--m1", narrow,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


class TestScan:
    ALARM = {
        "theorem": "T3.10",
        "samples": 2,
        "seed": 11,
        "ranges": {
            "beta": [[1.0, 1.0], [2.0, 2.0]],
            "beta_star": [[1.0, 1.0], [2.0, 2.0]],
            "alpha": [1.0, 1.0],
            "p": [[0.5, 0.5], [0.5, 0.5]],
            "p_star": [[0.9, 0.9], [0.1, 0.1]],
        },
        "grid": "1e-4:1e3:400:log",
    }

    QUIET = {
        "theorem": "T3.1",
        "samples": 3,
        "seed": 4,
        "ranges": {
            "alpha": [[0.5, 0.5], [0.4, 0.4], [0.3, 0.3]],
            "beta": [1.0, 1.0],
            "p": [[0.2, 0.2], [0.2, 0.2], [0.6, 0.6]],
            "p_star": [[0.3, 0.3], [0.3, 0.3], [0.4, 0.4]],
        },
        "n_components": 3,
        "grid": "1e-3:1e3:400:log",
    }

    def test_alarm_exit_5(self, capsys, tmp_path):
        cfg = tmp_path / "alarm.json"
        cfg.write_text(json.dumps(self.ALARM))
        rc = main(["scan", str(cfg)])
        assert rc == 5
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["soundness_alarm"] == 2
        assert report["soundness_alarms"][0]["witness"]["x"] > 0

    def test_quiet_exit_0_and_out_file(self, capsys, tmp_path):
        cfg = tmp_path / "quiet.json"
        cfg.write_text(json.dumps(self.QUIET))
        outfile = tmp_path / "report.json"
        rc = main(["scan", str(cfg), "--out", str(outfile)])
        assert rc == 0
        stdout_payload = capsys.readouterr().out
        assert json.loads(stdout_payload)["counts"]["consistent"] == 3
        assert outfile.read_text() == stdout_payload

    def test_bad_config_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"theorem": "T3.1", "samples": 5}))
        assert main(["scan", str(cfg)]) == 1
        assert "missing required keys" in capsys.readouterr().err
        assert main(["scan", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("change", [
        {"grid": {"x_min": "1e-4", "x_max": 1e4}},
        {"grid": {"x_min": 1e-4, "x_max": 10**400}},
        {"grid": {"x_min": 1e-4, "x_max": 1e4, "points": 10**33}},
        {"grid": "1e-4:1e4:1000001:log"},
        {"seed": -1},
        {"samples": 2.7},
        {"n_components": 2.7},
        {"n_components": 10**400},
        {"n_components": 10**9},
        {"samples": 10**9},
        {"ranges": dict(QUIET["ranges"], beta=[None, 2])},
        {"ranges": dict(QUIET["ranges"], beta=["1", 2])},
        {"ranges": dict(QUIET["ranges"], beta=[1, 10**400])},
        {"theorem": ["T3.1"]},
        {"ranges": 5},
        {"ranges": None}], ids=[
        "string grid bound", "huge grid bound", "huge grid points",
        "grid points over the ceiling", "negative seed", "float samples",
        "float n_components", "401-digit n_components", "billion n_components",
        "billion samples", "null range bound", "string range bound", "huge range bound",
        "list theorem", "int ranges", "null ranges"])
    def test_malformed_config_exit_1(self, capsys, tmp_path, change):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(self.QUIET, **change)))
        assert main(["scan", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_config_that_is_not_an_object_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1]")
        assert main(["scan", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: scan config must be a JSON object, got [1]\n"

    def test_bad_grid_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad_grid.json"
        cfg.write_text(json.dumps(dict(self.QUIET, grid={"x_min": 1e-4, "x_max": 1e4,
                                                         "point": 100})))
        assert main(["scan", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x_min, x_max" in err
