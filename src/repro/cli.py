"""Command-line entry point: run paper experiments and spec campaigns.

Examples::

    fastcap-repro list
    fastcap-repro run fig9                       # quick mode (default)
    fastcap-repro run table1 --mode full --jobs 4
    fastcap-repro sweep --workloads MIX1,MIX2 --policies fastcap,cpu-only \\
        --budgets 0.4,0.6 --max-epochs 40 --jobs 4 --cache-dir results/cache
    fastcap-repro batch campaign.json --jobs 8 --cache-dir results/cache
    fastcap-repro cache export bundle.tar.gz --cache-dir results/cache
    fastcap-repro serve --cache-dir results/cache   # shared HTTP cache
    python -m repro.cli run fig3 --quick

``run`` executes one registered paper experiment; ``sweep`` builds a
(workloads × policies × budgets) campaign grid from flags; ``batch``
runs a campaign JSON file (``Campaign.to_json`` format).  All three
accept ``--jobs`` (multiprocessing fan-out) and ``--cache-dir``
(persistent content-addressed result cache: a re-run with a warm
cache performs zero simulator runs).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

#: Valid values for the quick/full resolution.
MODES = ("quick", "full")

#: Upper bound on the automatic --jobs default; beyond this, process
#: start-up and result (de)serialisation outweigh extra parallelism on
#: CI-sized campaigns.
_MAX_DEFAULT_JOBS = 8


def default_jobs() -> int:
    """The --jobs value used when the flag is omitted.

    Multi-spec commands (``run``, ``sweep``, ``batch``) fan out over
    the machine's cores by default — the runner's parallel path was
    previously opt-in only, which left the common figure commands
    serial on many-core hosts.  Explicit ``--jobs N`` always wins.
    """
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_JOBS))


def _add_mode_arguments(parser: argparse.ArgumentParser) -> None:
    """Mutually exclusive quick/full selection (see :func:`resolve_mode`)."""
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="explicit run scale (default: quick)",
    )
    mode.add_argument(
        "--quick",
        action="store_true",
        help="CI-scale runs (same as --mode quick; the default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="full-size runs (paper-scale instruction quotas; "
        "same as --mode full)",
    )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallel spec fan-out "
        "(default: one per CPU core, capped at "
        f"{_MAX_DEFAULT_JOBS}; pass 1 to force serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache (content-addressed by spec hash)",
    )
    parser.add_argument(
        "--batch",
        choices=("scalar", "fleet"),
        default="scalar",
        help="cache-miss execution: 'scalar' runs specs one by one, "
        "'fleet' advances shape-compatible specs together in one "
        "simulator that batches their FastCap decisions (each run "
        "keeps its own compiled AMVA solves; byte-identical results)",
    )
    parser.add_argument(
        "--parity",
        choices=("exact", "relaxed"),
        default=None,
        help="numeric parity tier override: 'exact' pins every "
        "reduction order (byte-identical results), 'relaxed' allows "
        "the compiled MVA fixed-point kernel (run-level <=1e-8 "
        "relative agreement; default: run each spec as written)",
    )
    parser.add_argument(
        "--memo",
        choices=("off", "op"),
        default=None,
        help="operating-point memoization override: 'op' reuses "
        "converged AMVA operating points across epochs whose inputs "
        "repeat (mva engine only; exact-tier results stay "
        "byte-identical), 'off' disables it "
        "(default: run each spec as written)",
    )


def resolve_jobs(args: argparse.Namespace) -> int:
    """Resolve the --jobs flag to a worker count (default: per-CPU)."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return default_jobs()
    return max(int(jobs), 1)


def resolve_mode(args: argparse.Namespace) -> str:
    """Resolve the quick/full selection to an explicit mode string.

    Priority: ``--mode`` if given, else ``--full``, else quick.  The
    historical ``--quick`` flag is honoured explicitly rather than via
    an argparse default, so every path through here is testable.
    """
    if getattr(args, "mode", None):
        return args.mode
    if getattr(args, "full", False):
        return "full"
    return "quick"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastcap-repro",
        description="FastCap (ISPASS 2016) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (e.g. fig9, table1)")
    _add_mode_arguments(run_p)
    _add_campaign_arguments(run_p)
    run_p.add_argument(
        "--csv-dir",
        metavar="DIR",
        help="also export the output's tables/series as CSV files",
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a (workloads x policies x budgets) campaign grid"
    )
    sweep_p.add_argument(
        "--workloads",
        default="MIX1,MIX2,MIX3,MIX4",
        help="comma-separated workload names (default: the MIX class)",
    )
    sweep_p.add_argument(
        "--policies",
        default="fastcap",
        help="comma-separated policy names; parameterized names like "
        "'fastcap:search=exhaustive' work (default: fastcap)",
    )
    sweep_p.add_argument(
        "--budgets",
        default="0.4,0.6,0.8",
        help="comma-separated budget fractions (default: 0.4,0.6,0.8)",
    )
    sweep_p.add_argument(
        "--cores", type=int, default=16, help="core count (default 16)"
    )
    sweep_p.add_argument(
        "--seed", type=int, default=1, help="simulation seed (default 1)"
    )
    sweep_p.add_argument(
        "--max-epochs",
        type=int,
        default=None,
        metavar="N",
        help="cap runs at N epochs instead of the instruction quota",
    )
    sweep_p.add_argument(
        "--engine",
        choices=("mva", "eventsim"),
        default="mva",
        help="simulation engine (default mva)",
    )
    sweep_p.add_argument(
        "--baselines",
        action="store_true",
        help="also run max-frequency baselines and report degradation",
    )
    sweep_p.add_argument(
        "--decision-times",
        action="store_true",
        help="record per-epoch decision wall times (off by default so "
        "sweep results are bit-reproducible across runs and workers)",
    )
    _add_mode_arguments(sweep_p)
    _add_campaign_arguments(sweep_p)

    batch_p = sub.add_parser(
        "batch", help="run a campaign JSON file (Campaign.to_json format)"
    )
    batch_p.add_argument("campaign_file", help="path to the campaign JSON")
    batch_p.add_argument(
        "--baselines",
        action="store_true",
        help="also run max-frequency baselines and report degradation",
    )
    _add_mode_arguments(batch_p)
    _add_campaign_arguments(batch_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the live control-plane service (see README: Service mode)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8577, help="bind port (default 8577)"
    )
    serve_p.add_argument(
        "--no-uvicorn",
        action="store_true",
        help="force the builtin stdlib HTTP bridge even if uvicorn "
        "is installed",
    )
    serve_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="also serve a shared result cache from DIR "
        "(GET/PUT /cache/{entry}; campaign runners point --cache-dir "
        "at the service URL to share results across machines)",
    )

    cache_p = sub.add_parser(
        "cache",
        help="export/import a result cache as a portable bundle",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (
        ("export", "pack a cache directory into a .tar.gz bundle"),
        ("import", "merge a bundle into a cache directory"),
    ):
        sub_p = cache_sub.add_parser(name, help=blurb)
        sub_p.add_argument(
            "bundle", help="bundle path (.tar.gz with a manifest)"
        )
        sub_p.add_argument(
            "--cache-dir",
            required=True,
            metavar="DIR",
            help="the result cache directory to export from / import into",
        )
        sub_p.add_argument(
            "--format",
            choices=("json", "npz"),
            default="json",
            help="cache entry format (default json)",
        )

    return parser


def _split_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_budgets(text: str) -> List[float]:
    from repro.errors import ConfigurationError

    try:
        return [float(b) for b in _split_csv(text)]
    except ValueError:
        raise ConfigurationError(
            f"--budgets must be comma-separated numbers, got {text!r}"
        ) from None


def build_runner(args: argparse.Namespace):
    """The :class:`CampaignRunner` a campaign-shaped command resolves to.

    Central so the flag→runner mapping (mode, the per-CPU ``--jobs``
    default, ``--cache-dir``, ``--batch``) is testable without running
    a campaign.
    """
    from repro.campaign import CampaignRunner

    return CampaignRunner(
        quick=resolve_mode(args) == "quick",
        jobs=resolve_jobs(args),
        cache_dir=args.cache_dir,
        batch=getattr(args, "batch", "scalar"),
        parity=getattr(args, "parity", None),
        memo=getattr(args, "memo", None),
    )


def _run_campaign_command(campaign, args: argparse.Namespace) -> int:
    """Shared implementation of ``sweep`` and ``batch``."""
    from repro.experiments.report import Table
    from repro.metrics.performance import normalized_degradation

    runner = build_runner(args)
    results = runner.run_campaign(
        campaign, include_baselines=args.baselines
    )
    headers = [
        "workload",
        "policy",
        "budget",
        "epochs",
        "mean W",
        "mean/budget",
        "max W",
    ]
    if args.baselines:
        headers.append("avg degradation")
    rows = []
    for spec in campaign:
        result = results[spec]
        row = [
            spec.workload,
            spec.policy,
            f"{spec.budget_fraction:.0%}",
            result.n_epochs,
            result.mean_power_w(),
            result.mean_power_w() / result.budget_watts,
            result.max_epoch_power_w(),
        ]
        if args.baselines:
            degr = normalized_degradation(result, results.baseline(spec))
            row.append(float(degr.mean()))
        rows.append(tuple(row))
    print(f"== campaign {campaign.name}: {len(campaign)} specs ==")
    print(Table(headers=tuple(headers), rows=tuple(rows)).render())
    print(
        f"runs: {results.runs_executed} simulated, "
        f"{results.cache_hits} from cache"
    )
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """Serve the control plane: uvicorn when available, stdlib otherwise."""
    from repro.service import create_app

    app = create_app(cache_dir=args.cache_dir)
    if not args.no_uvicorn:
        try:
            import uvicorn
        except ImportError:
            pass
        else:
            uvicorn.run(app, host=args.host, port=args.port, log_level="info")
            return 0

    import asyncio

    from repro.service.http import serve_forever

    try:
        asyncio.run(serve_forever(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    """``cache export`` / ``cache import``: portable result bundles."""
    from repro.campaign import ResultCache, export_cache, import_cache

    cache = ResultCache(args.cache_dir, fmt=args.format)
    if args.cache_command == "export":
        path = export_cache(cache, args.bundle)
        print(f"exported {len(cache)} entries to {path}")
        return 0

    report = import_cache(cache, args.bundle)
    print(
        f"imported {len(report.imported)}, skipped "
        f"{len(report.skipped)} existing, rejected {len(report.rejected)}"
    )
    for name, reason in report.rejected:
        print(f"  rejected {name}: {reason}", file=sys.stderr)
    return 1 if report.rejected else 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # ReproError and friends: clean CLI surface
        from repro.errors import ReproError

        if not isinstance(exc, ReproError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    # Import here so `--help` stays fast.
    if args.command == "list":
        from repro.experiments import list_experiments

        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.command == "run":
        from repro.experiments import run_experiment

        output = run_experiment(
            args.experiment,
            quick=resolve_mode(args) == "quick",
            jobs=resolve_jobs(args),
            cache_dir=args.cache_dir,
            batch=args.batch,
        )
        print(output.render())
        if args.csv_dir:
            from repro.experiments.export import export_csv

            for path in export_csv(output, args.csv_dir):
                print(f"wrote {path}")
        return 0

    if args.command == "sweep":
        from repro.campaign import Campaign

        campaign = Campaign.grid(
            "sweep",
            workloads=_split_csv(args.workloads),
            policies=_split_csv(args.policies),
            budgets=_parse_budgets(args.budgets),
            n_cores=args.cores,
            seed=args.seed,
            engine=args.engine,
            record_decision_time=args.decision_times,
            **(
                dict(instruction_quota=None, max_epochs=args.max_epochs)
                if args.max_epochs is not None
                else {}
            ),
        )
        return _run_campaign_command(campaign, args)

    if args.command == "batch":
        from repro.campaign import Campaign

        with open(args.campaign_file) as handle:
            campaign = Campaign.from_json(handle.read())
        return _run_campaign_command(campaign, args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "cache":
        return _cache_command(args)

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
