"""Config parsing and CLI plumbing: delegation, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from conetrace import cli
from conetrace.cli import main
from conetrace.config import (
    integer_from_config,
    link_from_config,
    policy_from_config,
    surface_from_config,
)
from conetrace.errors import ConfigError
from conetrace.links import LinkSpectrum, SummationPolicy, diffraction_kernel
from conetrace.spectra import doubled_square_spectrum, smoothed_wave_trace
from conetrace.amplitudes import CutoffSpec, model_kernel, trace_singularity

from cone_chart import cone_chart_surface

A0 = 0.75
RHO = 1.5 * np.pi


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestConfigObjects:
    def test_builtin_surface(self):
        surf = surface_from_config({"builtin": "teardrop",
                                    "params": {"a0": 0.6}})
        assert surf.tips["tip"].link.circumference == pytest.approx(1.2 * np.pi)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            surface_from_config({"builtin": "klein_bottle"})

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            surface_from_config({"builtin": "teardrop", "params": {"radius": 1}})

    def test_link(self):
        link = link_from_config({"circumference": RHO})
        assert link.circumference == pytest.approx(RHO)
        with pytest.raises(ConfigError):
            link_from_config({"circumference": -1.0})

    def test_policy(self):
        assert policy_from_config(None).kind == "closed_form"
        assert policy_from_config({"kind": "abel", "r": 0.999}).r == 0.999
        assert policy_from_config({"kind": "abel"}) == SummationPolicy.abel()
        with pytest.raises(ConfigError, match="bad policy spec"):
            policy_from_config({"kind": "abel", "r": 1.0})
        with pytest.raises(ConfigError):
            policy_from_config({"kind": "cesaro"})

    def test_integer(self):
        assert integer_from_config(9, "grid count", minimum=2) == 9
        for bad in (True, 1, 2.0, "9", None):
            with pytest.raises(ConfigError, match="grid count must be an "
                                                  "integer >= 2"):
                integer_from_config(bad, "grid count", minimum=2)


class TestLinkKernelCommand:
    def config(self, tmp_path, rho=RHO):
        return write_config(tmp_path, "lk.json", {
            "link": {"circumference": rho},
            "u_grid": {"min": 0.3, "max": rho - 0.3, "count": 9},
        })

    def test_matches_library(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "lk.csv"
        assert main(["link-kernel", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["u", "re_d", "im_d", "regular"]
        link = LinkSpectrum.circle(RHO)
        pol = SummationPolicy.closed_form()
        for row in rows:
            u = float(row[0])
            ref = diffraction_kernel(link, 2, u, 0.0, pol).value
            assert float(row[1]) == ref.real
            assert float(row[2]) == ref.imag

    def test_abel_policy_matches_library(self, tmp_path):
        cfg = write_config(tmp_path, "abel.json", {
            "link": {"circumference": RHO},
            "policy": {"kind": "abel", "r": 0.999},
            "u_grid": {"min": 0.3, "max": RHO - 0.3, "count": 9},
        })
        out = tmp_path / "abel.csv"
        assert main(["link-kernel", "--config", cfg, "--out", str(out)]) == 0
        link, pol = LinkSpectrum.circle(RHO), SummationPolicy.abel(0.999)
        for row in read_rows(out)[1]:
            ref = diffraction_kernel(link, 2, float(row[0]), 0.0, pol).value
            assert (float(row[1]), float(row[2])) == (ref.real, ref.imag)

    def test_units_header_present(self, tmp_path):
        out = tmp_path / "lk.csv"
        main(["link-kernel", "--config", self.config(tmp_path),
              "--out", str(out)])
        first = out.read_text().splitlines()[0]
        assert first.startswith("#") and "units" in first and "frame" in first

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["link-kernel", "--config", cfg, "--out", str(out1)])
        main(["link-kernel", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_orbifold_grid_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, "orb.json", {
            "link": {"circumference": np.pi},
            "u_grid": {"min": 0.4, "max": 2.6, "count": 7},
        })
        out = tmp_path / "orb.csv"
        assert main(["link-kernel", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(abs(float(r[1])) < 1e-12 and abs(float(r[2])) < 1e-12
                   for r in rows)

    def test_singular_grid_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, "sing.json", {
            "link": {"circumference": RHO},
            "u_grid": {"min": np.pi - 1e-8, "max": np.pi + 1e-8, "count": 3},
        })
        assert main(["link-kernel", "--config", cfg]) == 3


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"link": [,}')
        assert main(["link-kernel", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_surface_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "surface": {"builtin": "nope"},
            "tip_sequence": [], "seeds": [],
        })
        assert main(["find-geodesics", "--config", cfg]) == 2

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    @pytest.mark.parametrize("fit", [
        {"k": "3"}, {"k": 0}, {"k": 1.5}, {"k": True},
        {"window": "0.3"}, {"window": 0.0},
    ], ids=["k-string", "k-zero", "k-fraction", "k-bool",
            "window-string", "window-zero"])
    def test_bad_fit_config_exit_2(self, tmp_path, capsys, fit):
        cfg = write_config(tmp_path, "sp.json", {
            "eigenvalues": {"doubled_square": {"lambda_max": 60.0}},
            "sigma": 12.0,
            "t_grid": {"min": 0.5, "max": 1.5, "count": 11},
            "fit": {"L": 1.0, **fit},
        })
        assert main(["spectral-trace", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("convention", ["l0", "bogus", 1])
    def test_unknown_convention_exit_2(self, tmp_path, capsys, convention):
        # the length convention is retired: the key is refused whatever
        # its value, as any key the run does not read
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
            "convention": convention,
        })
        assert main(["predict-trace", "--config", cfg]) == 2
        assert "convention" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [
        {"damping_sigma": "40"}, {"damping_sigma": True},
        {"damping_sigma": 0}, {"damping_sigma": -5},
        [1.0], "sigma",
    ], ids=["sigma-string", "sigma-bool", "sigma-zero", "sigma-negative",
            "samples-list", "samples-string"])
    def test_bad_model_samples_exit_2(self, tmp_path, capsys, samples):
        if isinstance(samples, dict):
            samples = {"t_grid": {"min": 7.0, "max": 7.5, "count": 5},
                       **samples}
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
            "model_samples": samples,
        })
        assert main(["predict-trace", "--config", cfg]) == 2
        assert "model_samples" in capsys.readouterr().err

    def test_chart_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # on the tests' cone chart sqrt(G) = 1.2 p0 (1.5 - p0)^0.5 the shot
        # leaves the chart's real domain at p0 = 1.5
        monkeypatch.setattr(
            cli, "surface_from_config",
            lambda spec: cone_chart_surface("1.2*(1.5-p0)**0.5"))
        cfg = write_config(tmp_path, "cone.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [0.3],
        })
        assert main(["find-geodesics", "--config", cfg]) == 3
        assert "domain error:" in capsys.readouterr().err

    def test_search_failure_exit_4(self, tmp_path, capsys):
        # a length cap shorter than the way from the tip back into its band
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 1.0},
        })
        assert main(["find-geodesics", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("search failure:")
        assert "never entered the band" in err

    def test_degeneracy_exit_5(self, tmp_path, capsys):
        # at eps = 0 every meridian joins the spindle's tips: conjugate
        cfg = write_config(tmp_path, "sp.json", {
            "surface": {"builtin": "perturbed_spindle", "params": {"eps": 0}},
            "tip_sequence": ["south", "north"],
            "seeds": [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)],
        })
        assert main(["predict-trace", "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert err.startswith("degeneracy:") and "conjugate" in err

    @pytest.mark.parametrize("payload,named", [
        ({"options": {"length_cap": 12.0, "bogus": 1}}, "'bogus'"),
        ({"tip_sequence": ["north"]}, "'north'"),
        ({"seeds": [0.6, 1.2]}, "one seed per tip"),
        ({"tip_sequence": [], "seeds": []}, "at least one tip"),
        # retired surfaces, on which no run could succeed: the sympy cone
        # chart (every geodesic from its tip leaves the atlas), the plane
        # and sphere band (no tip), the flat cone (rays that never come
        # back) and the symmetric spindle (conjugate tips); each is
        # refused by name, whatever its spec
        ({"surface": {"cone_chart": {"sqrt_h": "1.2*(1.5-p0)**0.5"}}},
         "'cone_chart'"),
        ({"surface": {"cone_chart": ["sqrt_h"]}}, "'cone_chart'"),
        ({"surface": {"cone_chart": {"sqrt_h": "1.1", "rho": 7.0}}},
         "'cone_chart'"),
        ({"surface": {"cone_chart": {"sqrt_h": "1.1", "r_max": 5.0,
                                     "bogus": 1}}}, "'cone_chart'"),
        ({"surface": {"cone_chart": {"sqrt_h": "1.1", "rho": True}}},
         "'cone_chart'"),
        ({"surface": {"cone_chart": {"sqrt_h": "1.1", "r_max": -1.0}}},
         "'cone_chart'"),
        ({"surface": {"builtin": "plane"}}, "'plane'"),
        ({"surface": {"builtin": "sphere_band"}}, "'sphere_band'"),
        ({"surface": {"builtin": "flat_cone", "params": {"rho": RHO}}},
         "'flat_cone'"),
        ({"surface": {"builtin": "symmetric_spindle"}}, "'symmetric_spindle'"),
        # a name that is not a string is refused, not looked up
        ({"surface": {"builtin": ["teardrop"]}}, "['teardrop']"),
    ], ids=["bogus-option", "unknown-tip", "seed-count", "no-tips",
            "cone-chart", "cone-list", "cone-rho", "cone-unknown-key",
            "cone-rho-bool", "cone-r-max-negative", "plane", "sphere-band",
            "flat-cone", "symmetric-spindle", "builtin-list"])
    def test_unknown_geodesic_option_exit_2(self, tmp_path, capsys, payload,
                                            named):
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
            **payload,
        })
        assert main(["find-geodesics", "--config", cfg]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload", [
        ("spectral-trace", {"sigma": True}),
        ("spectral-trace", {"sigma": "12"}),
        ("spectral-trace", {"fit": {"L": True}}),
        ("spectral-trace", {"fit": {"L": float("nan")}}),
        ("spectral-trace", {"fit": {"window": True}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_max": True}}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_max": -5}}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_max": "abc"}}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_max": 9000}}}),
        ("spectral-trace", {"eigenvalues": {"csv": "bad.csv"}}),
        ("link-kernel", {"link": {"circumference": True}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": "4", "count": 9}}),
        ("link-kernel", {"u_grid": {"min": False, "max": 4.0, "count": 9}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": 4.0, "count": True}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": 4.0, "count": 1}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": 4.0, "count": 2.5}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": 4.0, "count": "9"}}),
        ("link-kernel", {"policy": {"kind": "abel", "r": True}}),
        ("find-geodesics", {"seeds": ["abc"]}),
        ("find-geodesics", {"surface": {"builtin": "teardrop",
                                        "params": {"a0": True}}}),
        ("find-geodesics", {"surface": {"builtin": "teardrop",
                                        "params": {"a0": -0.75}}}),
        ("find-geodesics", {"surface": {"builtin": "teardrop",
                                        "params": {"eps": "0.05"}}}),
        ("find-geodesics", {"surface": {"builtin": "perturbed_spindle",
                                        "params": {"eps": 1.5}},
                            "tip_sequence": ["south", "north"],
                            "seeds": [A0 * (np.pi / 4 + 0.02),
                                      A0 * (5 * np.pi / 4 - 0.02)]}),
        ("predict-trace", {"surface": {"builtin": "teardrop",
                                       "params": {"eps": 2.0}}}),
        ("find-geodesics", {"surface": {"builtin": "teardrop",
                                        "params": {"eps": -1.0}}}),
        ("predict-trace", {"options": {"length_cap": "12"}}),
        # a key that no part of the run reads: a misspelt one, one of
        # another policy kind, or a second eigenvalue source
        ("predict-trace", {"model_sample": {"t_grid": {"min": -0.1, "max": 0.1,
                                                       "count": 5}}}),
        ("predict-trace", {"model_samples": {"t_grid": {"min": -0.1, "max": 0.1,
                                                        "count": 5},
                                             "damping_sigm": 40.0}}),
        ("find-geodesics", {"seed": [0.6]}),
        ("find-geodesics", {"surface": {"builtin": "teardrop",
                                        "param": {"a0": 0.8}}}),
        ("spectral-trace", {"fit": {"L": 1.0, "windw": 0.3}}),
        ("spectral-trace", {"fit": [1.0]}),
        ("spectral-trace", {"eigenvalues": {"doubled_sqare": {"lambda_max": 60.0}}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_mx": 60.0}}}),
        ("spectral-trace", {"eigenvalues": {"doubled_square": {"lambda_max": 60.0},
                                            "csv": "bad.csv"}}),
        ("spectral-trace", {"t_grd": {"min": 0.5, "max": 1.5, "count": 11}}),
        ("link-kernel", {"link": {"circumference": RHO, "circ": RHO}}),
        ("link-kernel", {"u_grid": {"min": 0.3, "max": 4.0, "count": 9,
                                    "step": 0.1}}),
        ("link-kernel", {"policy": {"kind": "abel", "sigma": 30.0}}),
        ("link-kernel", {"policy": {"kind": ["abel"]}}),
    ], ids=["sigma-bool", "sigma-string", "fit-L-bool", "fit-L-nan",
            "fit-window-bool", "lambda-max-bool", "lambda-max-negative",
            "lambda-max-string", "lambda-max-too-large", "csv-row-string",
            "circumference-bool", "grid-max-string", "grid-min-bool",
            "grid-count-bool", "grid-count-one", "grid-count-float",
            "grid-count-string", "policy-r-bool",
            "seed-string", "param-a0-bool", "param-a0-negative",
            "param-eps-string", "param-eps-above-one", "param-eps-two",
            "param-eps-minus-one", "length-cap-string", "typo-model-samples",
            "typo-damping-sigma", "typo-seeds", "typo-surface-params",
            "typo-fit-window", "fit-list", "typo-doubled-square",
            "typo-lambda-max", "two-eigenvalue-sources",
            "typo-t-grid", "typo-link", "typo-grid-key",
            "policy-key-of-other-kind", "policy-kind-list"])
    def test_non_number_exit_2(self, tmp_path, capsys, monkeypatch, command,
                               payload):
        geodesic = {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
        }
        base = {
            "spectral-trace": {
                "eigenvalues": {"doubled_square": {"lambda_max": 60.0}},
                "sigma": 12.0,
                "t_grid": {"min": 0.5, "max": 1.5, "count": 11},
            },
            "link-kernel": {
                "link": {"circumference": RHO},
                "u_grid": {"min": 0.3, "max": RHO - 0.3, "count": 9},
            },
            "find-geodesics": geodesic,
            "predict-trace": geodesic,
        }[command]
        monkeypatch.chdir(tmp_path)  # the eigenvalue CSV path is relative
        (tmp_path / "bad.csv").write_text("abc\n")
        cfg = write_config(tmp_path, "c.json", {**base, **payload})
        assert main([command, "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,named", [
        ({"n": 2}, "'n'"),
        ({"n": 4}, "'n'"),
        ({"policy": {"kind": "gaussian", "sigma": 30.0}}, "'gaussian'"),
        ({"policy": {"kind": "gaussian"}}, "'gaussian'"),
        ({"policy": {"kind": "abel", "mode_cutoff": 100_000}}, "'mode_cutoff'"),
        ({"policy": {"kind": "abel", "r": 0.999, "sigma": 30.0}}, "'sigma'"),
        ({"policy": {"mode_cutoff": 1}}, "'mode_cutoff'"),
        ({"policy": {"kind": "closed_form", "sigma": 30.0}}, "'sigma'"),
        # values the retired keys' own checks once refused: the key is
        # refused now, before any value is read
        ({"n": "2"}, "'n'"),
        ({"n": True}, "'n'"),
        ({"n": 1}, "'n'"),
        ({"n": 3}, "'n'"),
        ({"policy": {"kind": "gaussian", "sigma": True, "mode_cutoff": True}},
         "'gaussian'"),
        ({"policy": {"kind": "gaussian", "sigma": "30"}}, "'gaussian'"),
        ({"policy": {"kind": "gaussian", "sigma": 30.0, "mode_cutoff": True}},
         "'gaussian'"),
        ({"policy": {"kind": "abel", "mode_cutoff": 2.5}}, "'mode_cutoff'"),
        ({"policy": {"kind": "abel", "mode_cutoff": 0}}, "'mode_cutoff'"),
    ], ids=["n-two", "n-four", "gaussian-sigma", "gaussian-bare",
            "abel-cutoff", "abel-sigma", "closed-form-cutoff",
            "closed-form-sigma",
            "n-string", "n-bool", "n-one", "n-closed-form-3",
            "policy-bools", "policy-sigma-string", "policy-cutoff-bool",
            "policy-cutoff-float", "policy-cutoff-zero"])
    def test_retired_link_key_exit_2(self, tmp_path, capsys, payload, named):
        # circle links are 2-D links under two policies, closed form and
        # Abel; a retired key is refused with its name, whatever its value
        cfg = write_config(tmp_path, "lk.json", {
            "link": {"circumference": RHO},
            "u_grid": {"min": 0.3, "max": RHO - 0.3, "count": 9},
            **payload,
        })
        assert main(["link-kernel", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("argv", [
        ["link-kernel", "--config", "c.json", "--threads", "2"],
        ["verify", "--suite", "link", "--tol", "link=1e-3"],
        ["link-kernel", "--config", "c.json", "--convention", "L"],
        ["find-geodesics", "--config", "c.json", "--convention", "L"],
        ["spectral-trace", "--config", "c.json", "--convention", "L"],
        ["verify", "--suite", "link", "--convention", "L"],
        ["verify", "--suite", "link", "--config", "c.json"],
        ["predict-trace", "--config", "c.json", "--convention", "L"],
    ], ids=["threads", "tol", "convention-link-kernel",
            "convention-find-geodesics", "convention-spectral-trace",
            "convention-verify", "config-verify", "convention-predict-trace"])
    def test_unread_option_rejected(self, argv):
        # options no command reads are not accepted: argparse exits 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def teardrop_cli_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp, "td.json", {
        "surface": {"builtin": "teardrop"},
        "tip_sequence": ["tip"],
        "seeds": [A0 * (np.pi / 4 + 0.02)],
        "options": {"length_cap": 12.0},
    })
    geo_out = tmp / "geo.csv"
    pred_out = tmp / "pred.csv"
    assert main(["find-geodesics", "--config", cfg, "--out", str(geo_out)]) == 0
    assert main(["predict-trace", "--config", cfg, "--out", str(pred_out)]) == 0
    return geo_out, pred_out


class TestGeodesicCommands:
    def test_find_geodesics_matches_library(self, teardrop_cli_outputs,
                                            teardrop_closed):
        geo_out, _ = teardrop_cli_outputs
        header, rows = read_rows(geo_out)
        assert header[0] == "length"
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(teardrop_closed.length,
                                                  abs=1e-8)
        assert rows[0][-1] == "strictly_diffractive"

    def test_predict_trace_matches_library(self, teardrop_cli_outputs,
                                           teardrop_closed):
        _, pred_out = teardrop_cli_outputs
        _, rows = read_rows(pred_out)
        pred = trace_singularity(teardrop_closed)
        got = complex(float(rows[0][5]), float(rows[0][6]))
        assert abs(got - pred.coefficient) <= 1e-6 * abs(pred.coefficient)
        assert float(rows[0][4]) == pred.order


    @pytest.mark.parametrize("sigma", [40.0, None],
                             ids=["damped", "null-undamped"])
    def test_predict_trace_model_samples(self, tmp_path, teardrop_closed,
                                         sigma):
        length = teardrop_closed.length
        grid = {"min": length - 0.3, "max": length + 0.3, "count": 6}
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop"},
            "tip_sequence": ["tip"],
            "seeds": [A0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
            "model_samples": {"t_grid": grid, "damping_sigma": sigma},
        })
        out = tmp_path / "pred.csv"
        assert main(["predict-trace", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        at = lines.index("# model kernel samples: t,re,im")
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in lines[at + 1:]])
        ts = np.linspace(grid["min"], grid["max"], grid["count"])
        want = model_kernel(trace_singularity(teardrop_closed), CutoffSpec(),
                            ts, damping_sigma=sigma)
        assert np.allclose(rows[:, 0], ts, rtol=0, atol=1e-12)
        got = rows[:, 1] + 1j * rows[:, 2]
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_teardrop_other_cone_angle(self, tmp_path):
        # the cap series of a0 = 0.8 used to fail inside sympy
        a0 = 0.8
        cfg = write_config(tmp_path, "td.json", {
            "surface": {"builtin": "teardrop", "params": {"a0": a0}},
            "tip_sequence": ["tip"],
            "seeds": [a0 * (np.pi / 4 + 0.02)],
            "options": {"length_cap": 12.0},
        })
        out = tmp_path / "geo.csv"
        assert main(["find-geodesics", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0][-1] == "strictly_diffractive"


class TestVerifyCommand:
    @pytest.mark.parametrize("suite,criterion", [("composition", 8),
                                                 ("spectral", 10),
                                                 ("assembly", 9)])
    def test_suite_report(self, tmp_path, suite, criterion):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--suite", suite, "--out", str(a)]) == 0
        assert main(["verify", "--suite", suite, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["passed"] and report["suite"] == suite
        [result] = report["results"]
        # no elapsed time: reruns must compare byte for byte
        assert set(result) == {"criterion", "name", "passed", "measurements"}
        assert result["criterion"] == criterion and result["passed"]
        assert result["measurements"]
        for m in result["measurements"]:
            assert np.isfinite(m["value"])
            assert m["min"] is not None or m["max"] is not None

    def test_all_is_the_quick_suites(self, tmp_path):
        out = tmp_path / "all.json"
        assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [r["criterion"] for r in report["results"]] == [1, 2, 8, 10]


class TestSpectralTraceCommand:
    def config(self, tmp_path, with_fit=False):
        payload = {
            "eigenvalues": {"doubled_square": {"lambda_max": 60.0}},
            "sigma": 12.0,
            "t_grid": {"min": 0.5, "max": 1.5, "count": 11},
        }
        if with_fit:
            payload["t_grid"] = {"min": 3.05, "max": 3.78, "count": 120}
            payload["sigma"] = 40.0
            payload["eigenvalues"]["doubled_square"]["lambda_max"] = 220.0
            payload["fit"] = {"L": 2.0 + float(np.sqrt(2.0)), "k": 1,
                              "window": 0.3}
        return write_config(tmp_path, "sp.json", payload)

    def test_matches_library(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert main(["spectral-trace", "--config", self.config(tmp_path),
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        eigs = doubled_square_spectrum(60.0)
        trace = smoothed_wave_trace(eigs, 12.0, np.linspace(0.5, 1.5, 11))
        for row, ref in zip(rows, trace.samples):
            assert float(row[1]) == ref.real
            assert float(row[2]) == ref.imag

    def test_fit_footer(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert main(["spectral-trace", "--config",
                     self.config(tmp_path, with_fit=True),
                     "--out", str(out)]) == 0
        footer = [ln for ln in out.read_text().splitlines()
                  if ln.startswith("# fit")]
        assert footer

    def test_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectral-trace", "--config", cfg, "--out", str(a)])
        main(["spectral-trace", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_cached_builds_leave_reruns_identical(self, tmp_path):
        # spectral-trace with a fit and verify --suite all share the kept
        # spectrum and the model kernel's cached node sets; interleaved,
        # each rerun must match its first run byte for byte
        cfg = self.config(tmp_path, with_fit=True)
        outs = {name: tmp_path / name for name in
                ("tr-a.csv", "all-a.json", "tr-b.csv", "all-b.json")}
        for name, path in outs.items():
            argv = (["spectral-trace", "--config", cfg] if name.startswith("tr")
                    else ["verify", "--suite", "all"])
            assert main(argv + ["--out", str(path)]) == 0
        assert outs["tr-a.csv"].read_bytes() == outs["tr-b.csv"].read_bytes()
        assert outs["all-a.json"].read_bytes() == outs["all-b.json"].read_bytes()
        assert "# fit" in outs["tr-a.csv"].read_text()

    def csv_config(self, tmp_path, text):
        (tmp_path / "eigs.csv").write_text(text)
        return write_config(tmp_path, "csv.json", {
            "eigenvalues": {"csv": str(tmp_path / "eigs.csv")},
            "sigma": 12.0,
            "t_grid": {"min": 0.5, "max": 1.5, "count": 11},
        })

    def test_csv_zero_eigenvalue_runs(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert main(["spectral-trace", "--config",
                     self.csv_config(tmp_path, "0.0\n1.0\n"),
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        trace = smoothed_wave_trace([0.0, 1.0], 12.0, np.linspace(0.5, 1.5, 11))
        assert [float(row[1]) for row in rows] == list(trace.samples.real)

    @pytest.mark.parametrize("text", [
        "1.0\n-1e-300\n", "-5.0\n1.0\n", "1.0\ninf\n", "1.0\nnan\n3.0\n",
        "", "# no values\n",
    ], ids=["tiny-negative", "negative", "inf", "nan", "empty", "comment-only"])
    def test_csv_not_a_spectrum_exit_2(self, tmp_path, capsys, text):
        cfg = self.csv_config(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectral-trace", "--config", cfg]) == 2
        assert not caught
        captured = capsys.readouterr()
        assert "config error" in captured.err and "eigenvalue CSV" in captured.err
        assert captured.out == ""

    def test_lambda_max_guard_reads_the_configured_value(self, tmp_path,
                                                          capsys):
        # at sigma = 40 the spectrum is built only to sqrt(84) 40 = 366.6,
        # but a lambda_max past the guard is still refused
        cfg = write_config(tmp_path, "big.json", {
            "eigenvalues": {"doubled_square": {"lambda_max": 9000}},
            "sigma": 40.0,
            "t_grid": {"min": 0.5, "max": 1.5, "count": 11},
        })
        assert main(["spectral-trace", "--config", cfg]) == 2
        assert "lambda_max" in capsys.readouterr().err

    @pytest.mark.parametrize("length,window,count,code", [
        (100.0, 0.35, 0, 3), (0.9, 0.01, 1, 3), (0.9, 0.02, 2, 3),
        (0.9, 0.025, 3, 0),
    ], ids=["0-samples", "1-sample", "2-samples", "3-samples"])
    def test_fit_window_sample_count(self, tmp_path, capsys, length, window,
                                     count, code):
        # three unknowns: the kernel's coefficient, a constant and a slope
        grid = np.linspace(0.0, 1.0, 50)
        assert np.count_nonzero(np.abs(grid - length) <= window) == count
        cfg = write_config(tmp_path, "fw.json", {
            "eigenvalues": {"doubled_square": {"lambda_max": 60.0}},
            "sigma": 12.0,
            "t_grid": {"min": 0.0, "max": 1.0, "count": 50},
            "fit": {"L": length, "window": window},
        })
        assert main(["spectral-trace", "--config", cfg]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert "domain error" in err and f"holds {count} samples" in err
