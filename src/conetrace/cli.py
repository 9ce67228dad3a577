"""Command-line driver.

Subcommands cover the full pipeline: tabulating link diffraction
kernels, finding closed diffractive geodesics, predicting trace
singularities, running verification suites, and computing smoothed
spectral traces.  All runs are deterministic: identical configs give
byte-identical outputs.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 domain
guard, chart/atlas failure or ill-conditioned fit, 4 search failure,
5 degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__, verify
from .amplitudes import (
    DIMENSION,
    POLICY,
    CutoffSpec,
    TraceSingularityPrediction,
    invariants_for,
    trace_singularity,
    model_kernel,
)
from .config import (
    check_keys,
    grid_from_config,
    integer_from_config,
    link_from_config,
    load_config,
    number_from_config,
    policy_from_config,
    surface_from_config,
)
from .errors import (
    ConfigError,
    ConjugateDegeneracyError,
    GeometricSetError,
    IllConditionedError,
    LeftAtlasError,
    NoConvergenceError,
    NonPositiveRadiusError,
    NotStrictlyDiffractiveError,
    PolicyMismatchError,
    StepFailureError,
    WallInfluenceError,
)
from .geodesics import build_closed_diffractive
from .links import diffraction_kernel
from .spectra import (
    _doubled_square_to_reach,
    fit_trace_singularity,
    smoothed_wave_trace,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SEARCH = 4
EXIT_DEGENERACY = 5

_HEADER_NOTE = ("# conetrace output; frame: metric half-density; "
                "units: arc length (unit speed), frequency 1/length")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_lines(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_link_kernel(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, ("link", "policy", "u_grid"), "the link-kernel config")
    link = link_from_config(cfg.get("link", {}))
    policy = policy_from_config(cfg.get("policy"))
    us = grid_from_config(cfg.get("u_grid", {}), "u_grid")
    lines = [_HEADER_NOTE, "u,re_d,im_d,regular"]
    n_singular = 0
    for u in us:
        try:
            dval = diffraction_kernel(link, DIMENSION, float(u), 0.0, policy)
            lines.append(",".join([
                _fmt(u), _fmt(dval.value.real), _fmt(dval.value.imag),
                "1" if dval.regular else "0",
            ]))
        except GeometricSetError:
            n_singular += 1
            lines.append(",".join([_fmt(u), "nan", "nan", "0"]))
    if n_singular > len(us) / 2:
        sys.stderr.write("u grid is dominated by the singular set\n")
        return EXIT_DOMAIN
    _write_lines(args.out, lines)
    return EXIT_OK


# config "options": the keyword parameters of the closed-geodesic search
GEODESIC_OPTIONS = ("length_cap",)
GEODESIC_KEYS = ("surface", "tip_sequence", "seeds", "options")


def _build_geodesic(cfg):
    tips = cfg.get("tip_sequence")
    seeds = cfg.get("seeds")
    if not isinstance(tips, list) or not isinstance(seeds, list):
        raise ConfigError("need 'tip_sequence' and 'seeds' lists")
    options = cfg.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be an object")
    check_keys(options, GEODESIC_OPTIONS, "'options'")
    options = {key: number_from_config(value, f"options {key!r}", positive=True)
               for key, value in options.items()}
    if len(seeds) != len(tips):
        raise ConfigError(f"need one seed per tip in 'tip_sequence' "
                          f"({len(tips)}), got {len(seeds)}")
    seeds = [number_from_config(s, f"seed {j}") for j, s in enumerate(seeds)]
    surface = surface_from_config(cfg.get("surface", {}))
    if not tips:
        raise ConfigError("'tip_sequence' needs at least one tip")
    for name in tips:
        if not isinstance(name, str) or name not in surface.tips:
            raise ConfigError(f"unknown tip {name!r} in 'tip_sequence'; "
                              f"choose from {sorted(surface.tips)}")
    return build_closed_diffractive(surface, tips, seeds, **options)


def cmd_find_geodesics(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, GEODESIC_KEYS, "the find-geodesics config")
    geo = _build_geodesic(cfg)
    lines = [
        _HEADER_NOTE,
        "length,primitive_length,k,junction,tip,link_in,link_out,"
        "separation,classification",
    ]
    for j, junc in enumerate(geo.junctions):
        lines.append(",".join([
            _fmt(geo.length), _fmt(geo.primitive_length),
            str(len(geo.segments)), str(j), junc.tip_id,
            _fmt(junc.link_in), _fmt(junc.link_out), _fmt(junc.separation),
            junc.kind,
        ]))
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_predict_trace(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, GEODESIC_KEYS + ("model_samples",), "the predict-trace config")
    samples_cfg = cfg.get("model_samples")
    if samples_cfg is not None:
        if not isinstance(samples_cfg, dict):
            raise ConfigError("'model_samples' must be an object")
        check_keys(samples_cfg, ("t_grid", "damping_sigma"), "'model_samples'")
        ts = grid_from_config(samples_cfg.get("t_grid", {}), "t_grid")
        sigma = samples_cfg.get("damping_sigma")
        if sigma is not None:
            sigma = number_from_config(
                sigma, "model_samples 'damping_sigma'", positive=True)
    geo = _build_geodesic(cfg)
    invs = invariants_for(geo)
    pred = trace_singularity(geo, invs)
    lines = [
        _HEADER_NOTE,
        "length,primitive_length,k,n,order,re_coeff,im_coeff,"
        "segment,d,morse,theta,re_diffraction,im_diffraction",
    ]
    for j, (seg, junc) in enumerate(zip(invs, geo.junctions)):
        dval = diffraction_kernel(junc.link, pred.n, junc.link_in,
                                  junc.link_out, POLICY)
        lines.append(",".join([
            _fmt(pred.L), _fmt(pred.L0), str(pred.k), str(pred.n),
            _fmt(pred.order), _fmt(pred.coefficient.real),
            _fmt(pred.coefficient.imag), str(j), _fmt(seg.d),
            str(seg.morse), _fmt(seg.theta), _fmt(dval.value.real),
            _fmt(dval.value.imag),
        ]))
    if samples_cfg is not None:
        vals = model_kernel(pred, CutoffSpec(), ts, damping_sigma=sigma)
        lines.append("# model kernel samples: t,re,im")
        for t, v in zip(ts, vals):
            lines.append(",".join([_fmt(t), _fmt(v.real), _fmt(v.imag)]))
    _write_lines(args.out, lines)
    return EXIT_OK


def _load_eigenvalues(spec, sigma):
    """The config's eigenvalues; a doubled square is built only as far as
    a trace at sigma sums it."""
    if not isinstance(spec, dict):
        raise ConfigError("'eigenvalues' must be an object")
    check_keys(spec, ("doubled_square", "csv"), "'eigenvalues'")
    if len(spec) > 1:  # one source would be left unread
        raise ConfigError("eigenvalues take 'doubled_square' or 'csv', not both")
    if "doubled_square" in spec:
        sub = spec["doubled_square"]
        if not isinstance(sub, dict):
            raise ConfigError("'doubled_square' must be an object")
        check_keys(sub, ("lambda_max",), "'doubled_square'")
        lam = number_from_config(sub.get("lambda_max", 200.0),
                                 "doubled_square 'lambda_max'", positive=True)
        try:
            return _doubled_square_to_reach(lam, sigma)
        except ValueError as exc:
            raise ConfigError(f"doubled_square 'lambda_max': {exc}") from exc
    if "csv" in spec:
        try:
            with warnings.catch_warnings():
                # an empty file is refused below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                eigs = np.loadtxt(spec["csv"], comments="#", ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read eigenvalue CSV: {exc}") from exc
        if eigs.size == 0 or not np.all(np.isfinite(eigs) & (eigs >= 0.0)):
            raise ConfigError("eigenvalue CSV must hold sqrt-Laplace "
                              "eigenvalues: at least one, each finite and >= 0")
        return eigs
    raise ConfigError("eigenvalues need 'doubled_square' or 'csv'")


def cmd_spectral_trace(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, ("eigenvalues", "sigma", "t_grid", "fit"),
               "the spectral-trace config")
    sigma = number_from_config(cfg.get("sigma"), "'sigma'", positive=True)
    eigs = _load_eigenvalues(cfg.get("eigenvalues", {}), sigma)
    ts = grid_from_config(cfg.get("t_grid", {}), "t_grid")
    trace = smoothed_wave_trace(eigs, sigma, ts)
    lines = [_HEADER_NOTE, "t,re_trace,im_trace"]
    for t, v in zip(trace.t_grid, trace.samples):
        lines.append(",".join([_fmt(t), _fmt(v.real), _fmt(v.imag)]))
    fit_cfg = cfg.get("fit")
    if fit_cfg is not None:
        if not isinstance(fit_cfg, dict):
            raise ConfigError("'fit' must be an object")
        check_keys(fit_cfg, ("L", "k", "window"), "'fit'")
        length = number_from_config(fit_cfg.get("L"), "fit 'L'")
        k = integer_from_config(fit_cfg.get("k", 1), "fit 'k'", minimum=1)
        window = number_from_config(fit_cfg.get("window", 0.35), "fit 'window'",
                                    positive=True)
        unit = TraceSingularityPrediction(
            L=length, L0=length, k=k, n=DIMENSION, order=k / 2.0,
            coefficient=1.0 + 0.0j)
        C, resid = fit_trace_singularity(
            trace, length, unit, CutoffSpec(), window=window)
        lines.append("# fit: L,re_coeff,im_coeff,residual_rms")
        lines.append("# " + ",".join(
            [_fmt(length), _fmt(C.real), _fmt(C.imag), _fmt(resid)]))
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = verify.ALL
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; "
            f"choose from {list(verify.SUITES) + ['all']}\n")
        return EXIT_CONFIG
    verdicts = [verify.run(c) for name in names for c in verify.SUITES[name]]
    ok = all(v.passed for v in verdicts)
    report = {
        "version": __version__,
        "suite": args.suite,
        "passed": ok,
        "results": [v.report() for v in verdicts],
    }
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conetrace",
        description="wave-trace singularities at diffractive closed geodesics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("link-kernel", help="tabulate a diffraction kernel")
    common(p)
    p.set_defaults(fn=cmd_link_kernel)
    p = sub.add_parser("find-geodesics", help="build closed diffractive geodesics")
    common(p)
    p.set_defaults(fn=cmd_find_geodesics)
    p = sub.add_parser("predict-trace", help="predict a trace singularity")
    common(p)
    p.set_defaults(fn=cmd_predict_trace)
    p = sub.add_parser("spectral-trace", help="smoothed trace from a spectrum")
    common(p)
    p.set_defaults(fn=cmd_spectral_trace)
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--suite", required=True,
                   help=f"suite name ({', '.join(verify.SUITES)}) or 'all' "
                        f"({', '.join(verify.ALL)})")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, PolicyMismatchError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (GeometricSetError, WallInfluenceError, NonPositiveRadiusError,
            StepFailureError, LeftAtlasError, IllConditionedError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except NoConvergenceError as exc:
        sys.stderr.write(f"search failure: {exc}\n")
        return EXIT_SEARCH
    except (ConjugateDegeneracyError, NotStrictlyDiffractiveError) as exc:
        sys.stderr.write(f"degeneracy: {exc}\n")
        return EXIT_DEGENERACY


if __name__ == "__main__":
    sys.exit(main())
