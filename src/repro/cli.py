"""Command-line entry point: ``python -m repro`` or the ``repro`` script.

Subcommands map 1:1 onto the paper's tables/figures plus the extras::

    repro table2                      # dataset statistics
    repro fig3 [--trials N] [--datasets a,b]
    repro fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10
    repro unbiasedness | ablation
    repro variance | ensemble         # extensions
    repro estimators                  # the estimator registry
    repro stream --estimator SPEC     # run any spec through a session
    repro serve --estimator SPEC      # serve estimate queries over TCP
    repro serve --tenant-root DIR     # host a multi-tenant catalog
    repro tenant create --tenant-root DIR --name NAME --estimator SPEC
    repro tenant drop --tenant-root DIR --name NAME
    repro tenant list --tenant-root DIR
    repro follow --primary HOST:PORT  # replicate a primary, serve reads
    repro reshard --durable-dir DIR --shards K   # stored topology change
    repro all                         # everything, in order

``--estimator`` accepts the registry spec grammar, e.g.
``abacus:budget=1000,seed=42`` or ``parabacus:budget=2000,batch_size=500``;
``repro estimators`` lists every registered name with its parameters.
``repro stream`` additionally takes ``--shards K`` with ``--backend
{serial,thread,process}`` and ``--partitioner {hash,balanced}`` to fan
ingestion out through the sharded engine (:mod:`repro.shard`), and
``--window N`` / ``--window-time T`` to count only the most recent
edges through the sliding-window engine (:mod:`repro.window`).

``repro serve`` owns a session behind the asyncio query server of
:mod:`repro.serve` (line-delimited JSON on ``--host``/``--port``;
``docs/serving.md``) and accepts the same spec/shard/window options,
plus ``--durable-dir DIR`` for a write-ahead-logged session that
recovers its state on restart (:mod:`repro.store`,
``docs/persistence.md``).  A ``--durable-dir`` with existing state is
reopened under its stored spec when ``--estimator`` is omitted.

``repro serve --replicate-to PORT`` additionally opens a replication
port: the durable session's write-ahead log is shipped live to any
``repro follow --primary HOST:PORT --durable-dir DIR`` process, which
re-logs it locally and serves reads from its replica
(:mod:`repro.cluster`, ``docs/replication.md``).

``repro serve --tenant-root DIR`` hosts a tenant catalog
(:mod:`repro.tenancy`): requests naming a ``tenant`` (or ``stream``)
route to that tenant's durable session through per-tenant fair-share
write lanes, and ``repro tenant create|drop|list`` administers the
same catalog offline (``docs/multitenancy.md``).  Combine with
``--estimator`` to also serve a default single-tenant session;
``--replicate-to`` is refused (catalogs are primary-only).

Use ``--datasets`` with a comma-separated subset of
``movielens_like,livejournal_like,trackers_like,orkut_like`` to trim
runtime.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import describe_registry, open_session, parse_spec
from repro.errors import ReproError
from repro.experiments import extensions, figures
from repro.experiments.plotting import line_chart
from repro.experiments.runner import ExperimentContext

#: Spec used when an experiment needs an estimator and the user gave
#: no ``--estimator``.
DEFAULT_SPEC = "abacus:budget=1000,seed=42"


def _split_datasets(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ABACUS/PARABACUS evaluation (ICDE 2024).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "unbiasedness",
            "ablation",
            "variance",
            "ensemble",
            "estimators",
            "stream",
            "serve",
            "tenant",
            "follow",
            "reshard",
            "all",
        ],
        help="which experiment to run",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help=(
            "subcommand for 'tenant': create, drop, or list "
            "(ignored elsewhere)"
        ),
    )
    parser.add_argument(
        "--estimator",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "estimator spec for the 'stream'/'serve' experiments, "
            f"e.g. {DEFAULT_SPEC} (see 'repro estimators'; 'serve' "
            "with an existing --durable-dir defaults to its stored "
            "spec)"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=5,
        help="independent repetitions for accuracy experiments (paper: 10)",
    )
    parser.add_argument(
        "--datasets",
        type=str,
        default=None,
        help="comma-separated dataset subset (default: all four)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=40,
        help="PARABACUS thread count for figs 4/8",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help=(
            "shard the 'stream' experiment's ingestion across K "
            "independent estimator shards (see docs/architecture.md)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help=(
            "shard executor backend for --shards > 1 (default serial; "
            "for 'reshard' the default keeps the stored backend)"
        ),
    )
    parser.add_argument(
        "--partitioner",
        choices=["hash", "balanced"],
        default="hash",
        help="shard partitioner: stable hash or greedy load balancing",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help=(
            "count only the last N edges of the 'stream' experiment "
            "(sliding window; see repro/window/)"
        ),
    )
    parser.add_argument(
        "--window-time",
        type=float,
        default=0.0,
        metavar="T",
        help=(
            "time window for the 'stream' experiment: edges expire T "
            "units after arrival (datasets have no native timestamps, "
            "so each element is stamped with its arrival index)"
        ),
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="additionally draw ASCII charts (fig3/fig5)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="interface for the 'serve' experiment",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7461,
        help="TCP port for the 'serve' experiment (0 picks a free one)",
    )
    parser.add_argument(
        "--durable-dir",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "durable session directory for 'stream'/'serve'/'follow': "
            "elements are write-ahead logged and state recovers on "
            "restart (see docs/persistence.md)"
        ),
    )
    parser.add_argument(
        "--replicate-to",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "open a replication port on the 'serve' experiment (0 "
            "picks a free one): followers started with 'repro follow' "
            "receive the session's write-ahead log live (requires "
            "--durable-dir; see docs/replication.md)"
        ),
    )
    parser.add_argument(
        "--primary",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "the primary's replication address for the 'follow' "
            "experiment (the --replicate-to port, not the serving "
            "port)"
        ),
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "autoscale the 'serve' experiment's sharded session: "
            "split/merge shards live as per-shard load leaves the "
            "hysteresis bands (docs/resharding.md)"
        ),
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=8,
        metavar="K",
        help="upper shard bound for --autoscale (default 8)",
    )
    parser.add_argument(
        "--autoscale-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between autoscaler observations (default 2)",
    )
    parser.add_argument(
        "--tenant-root",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "tenant-catalog root for 'serve'/'tenant': every tenant "
            "lives in its own durable directory under it "
            "(docs/multitenancy.md)"
        ),
    )
    parser.add_argument(
        "--name",
        type=str,
        default=None,
        metavar="NAME",
        help="tenant name for 'tenant create'/'tenant drop'",
    )
    parser.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-tenant max_pending_writes quota for 'tenant create' "
            "(default: the catalog default)"
        ),
    )
    return parser


def _accuracy_charts(result: dict, alpha: float) -> str:
    """ASCII error-vs-k charts for a fig3/fig5 result dict."""
    blocks = []
    for dataset, info in result["results"].items():
        series = {
            method.upper(): (
                info["sample_sizes"],
                [e * 100.0 for e in errors],
            )
            for method, errors in info["errors"].items()
        }
        blocks.append(
            line_chart(
                series,
                title=(
                    f"{dataset}: relative error (%) vs k "
                    f"(alpha={alpha:.0%})"
                ),
                x_label="k",
                y_label="error %",
                y_min=0.0,
            )
        )
    return "\n\n".join(blocks)


def run_stream(
    spec_text: str,
    datasets: Optional[List[str]],
    context: Optional[ExperimentContext] = None,
    alpha: float = 0.2,
    shards: int = 1,
    backend: str = "serial",
    partitioner: str = "hash",
    window: int = 0,
    window_time: float = 0.0,
    durable_dir: Optional[str] = None,
) -> str:
    """Run one estimator spec over a dataset through the session API.

    With ``shards > 1`` the ingestion fans out through the sharded
    engine (``--shards/--backend/--partitioner``); with ``window`` /
    ``window_time`` only the most recent edges count
    (``--window/--window-time``).  Datasets carry no timestamps, so a
    time window stamps each element with its arrival index, and the
    window runs non-strict — a dataset deletion may target an edge the
    window already expired.
    """
    from repro.experiments.datasets import get_dataset
    from repro.types import TimedEdge

    ctx = context or ExperimentContext()
    dataset = (datasets or ["movielens_like"])[0]
    dataset_spec = get_dataset(dataset)
    stream = ctx.stream(dataset_spec, alpha, 0)
    truth = ctx.truth(dataset_spec, alpha, 0)
    spec = parse_spec(spec_text)
    options = (
        {"shards": shards, "backend": backend, "partitioner": partitioner}
        if shards > 1
        else {}
    )
    elements = stream
    if window > 0:
        options["window"] = window
    if window_time > 0:
        options["window_time"] = window_time
        elements = (
            TimedEdge(e.u, e.v, e.op, float(index))
            for index, e in enumerate(stream)
        )
    if durable_dir:
        options["durable_dir"] = durable_dir
    with open_session(spec, **options) as session:
        session.ingest(elements)
        session.flush()
        metrics = session.metrics
    title = f"== stream: {spec.to_string()} on {dataset} (alpha={alpha:.0%})"
    if shards > 1:
        title += f" [shards={shards}, backend={backend}]"
    if window > 0 or window_time > 0:
        bounds = [f"window={window}"] if window > 0 else []
        if window_time > 0:
            bounds.append(f"window_time={window_time:g}")
        title += f" [{', '.join(bounds)}]"
    lines = [
        title + " ==",
        f"  elements ingested : {metrics.elements:>14,}",
        f"  estimate          : {metrics.estimate:>14,.1f}",
        f"  exact count       : {truth:>14,}",
    ]
    if window > 0 or window_time > 0:
        lines[3] = f"  exact (no window) : {truth:>14,}"
    if truth and not (window > 0 or window_time > 0):
        error = abs(truth - metrics.estimate) / truth
        lines.append(f"  relative error    : {error:>14.2%}")
    lines.append(f"  memory (edges)    : {metrics.memory_edges:>14,}")
    lines.append(
        f"  throughput        : {metrics.throughput_eps:>14,.0f} elements/s"
    )
    return "\n".join(lines)


def run_tenant(
    action: Optional[str],
    tenant_root: Optional[str],
    name: Optional[str],
    spec_text: Optional[str],
    quota: Optional[int] = None,
) -> str:
    """Administer a tenant catalog offline: create, drop, or list.

    Operates directly on the catalog in ``--tenant-root`` — the same
    catalog ``repro serve --tenant-root`` hosts (stop the server first;
    the catalog is single-writer).
    """
    from repro.errors import TenancyError
    from repro.tenancy import TenantCatalog

    if action not in ("create", "drop", "list"):
        raise TenancyError(
            f"tenant needs an action: create, drop, or list "
            f"(got {action!r})"
        )
    if not tenant_root:
        raise TenancyError(
            "tenant needs --tenant-root DIR: the catalog root every "
            "tenant lives under"
        )
    with TenantCatalog(tenant_root) as catalog:
        if action == "create":
            if not name:
                raise TenancyError("tenant create needs --name NAME")
            spec = catalog.create(
                name, spec_text or DEFAULT_SPEC, quota=quota
            )
            return (
                f"created tenant {name!r} ({spec}) in {tenant_root} "
                f"[quota {catalog.quota(name)}]"
            )
        if action == "drop":
            if not name:
                raise TenancyError("tenant drop needs --name NAME")
            catalog.drop(name)
            remaining = ", ".join(catalog.names()) or "(none)"
            return f"dropped tenant {name!r}; remaining: {remaining}"
        # list
        lines = [f"== tenants in {tenant_root} =="]
        if not len(catalog):
            lines.append("  (none)")
        for tenant in catalog.names():
            bound = catalog.bound_stream(tenant)
            stream = f" [stream: {bound}]" if bound else ""
            lines.append(
                f"  {tenant:<24} {catalog.spec(tenant)} "
                f"[quota {catalog.quota(tenant)}]{stream}"
            )
        for stream, members in catalog.streams().items():
            lines.append(
                f"  stream {stream:<17} -> {', '.join(members)}"
            )
        return "\n".join(lines)


def run_serve(
    spec_text: Optional[str],
    host: str,
    port: int,
    durable_dir: Optional[str] = None,
    shards: int = 1,
    backend: str = "serial",
    partitioner: str = "hash",
    window: int = 0,
    window_time: float = 0.0,
    replicate_to: Optional[int] = None,
    autoscale: bool = False,
    max_shards: int = 8,
    autoscale_interval: float = 2.0,
    tenant_root: Optional[str] = None,
) -> int:
    """Own a session behind the asyncio query server until interrupted.

    With ``--durable-dir`` the session write-ahead logs every ingested
    element and recovers snapshot + WAL tail on restart; omitting
    ``--estimator`` then reopens an existing directory under its
    stored spec.  With ``--replicate-to PORT`` the server is a
    replication **primary**: followers connect to that port and
    receive the WAL live (``docs/replication.md``).  With
    ``--autoscale`` a sharded session splits/merges live as per-shard
    load leaves the autoscaler's hysteresis bands
    (``docs/resharding.md``).  With ``--tenant-root DIR`` the server
    additionally hosts that tenant catalog — alone (no default
    session) when ``--estimator`` and ``--durable-dir`` are omitted
    (``docs/multitenancy.md``).
    """
    import asyncio

    from repro.serve.server import EstimatorServer
    from repro.store import DurableStore

    if tenant_root is not None and replicate_to is not None:
        from repro.errors import ClusterError

        raise ClusterError(
            "--tenant-root cannot be combined with --replicate-to: "
            "tenant catalogs are primary-only and are not replicated "
            "(docs/multitenancy.md)"
        )
    if replicate_to is not None and not durable_dir:
        from repro.errors import ClusterError

        raise ClusterError(
            "--replicate-to needs --durable-dir: the write-ahead log "
            "is the replication log"
        )
    if autoscale and replicate_to is not None:
        from repro.errors import ClusterError

        raise ClusterError(
            "--autoscale cannot run on a replication primary yet: "
            "followers replay through their own fixed topology "
            "(docs/resharding.md)"
        )

    catalog = None
    if tenant_root is not None:
        from repro.tenancy import TenantCatalog

        catalog = TenantCatalog(tenant_root)
    session = None
    try:
        if catalog is None or spec_text is not None or durable_dir:
            options: dict = {}
            if shards > 1:
                options.update(
                    shards=shards,
                    backend=backend,
                    partitioner=partitioner,
                )
            if window > 0:
                options["window"] = window
            if window_time > 0:
                options["window_time"] = window_time
            if durable_dir:
                options["durable_dir"] = durable_dir
            estimator: Optional[str] = spec_text
            if estimator is None:
                reopening = (
                    durable_dir is not None
                    and DurableStore(durable_dir).has_state
                )
                if not reopening:
                    estimator = DEFAULT_SPEC
                else:
                    # The stored spec already carries any shard/window
                    # wrapping, so re-wrapping flags have nothing to
                    # apply to — refuse loudly rather than serve a
                    # configuration the user did not ask for.
                    wrapping = sorted(set(options) - {"durable_dir"})
                    if wrapping:
                        from repro.errors import SpecError

                        raise SpecError(
                            f"{'/'.join(wrapping)} cannot be combined "
                            "with reopening an existing --durable-dir "
                            "(its stored spec fixes the "
                            "configuration); pass --estimator "
                            "explicitly to assert the intended spec"
                        )
                    options = {"durable_dir": durable_dir}
            session = open_session(estimator, **options)
    except BaseException:
        if catalog is not None:
            catalog.close()
        raise
    replicating = None
    if replicate_to is not None:
        from repro.cluster import ReplicatingServer

        replicating = ReplicatingServer(
            session, host=host, port=port,
            replication_port=replicate_to,
        )
        server: EstimatorServer = replicating
    else:
        scaler = None
        if autoscale:
            from repro.errors import SpecError
            from repro.shard import Autoscaler

            if session is None or session.topology is None:
                if session is not None:
                    session.close()
                if catalog is not None:
                    catalog.close()
                raise SpecError(
                    "--autoscale needs a sharded session; pass "
                    "--shards K (or reopen a sharded --durable-dir)"
                )
            scaler = Autoscaler(max_shards=max_shards)
        server = EstimatorServer(
            session,
            host=host,
            port=port,
            autoscaler=scaler,
            autoscale_interval=autoscale_interval,
            catalog=catalog,
        )

    async def _serve() -> None:
        await server.start()
        bound_host, bound_port = server.address
        if session is not None:
            spec = session.spec.to_string() if session.spec else "?"
            recovered = (
                f"  {session.elements:,} elements recovered, estimate "
                f"{session.estimate:,.1f}\n"
            )
        else:
            spec = "(tenant catalog only)"
            recovered = ""
        durability = f" [durable: {durable_dir}]" if durable_dir else ""
        tenancy = ""
        if catalog is not None:
            tenancy = (
                f" [tenants: {len(catalog)} in {tenant_root}]"
            )
        replication = ""
        if replicating is not None:
            _, repl_port = replicating.replication_address
            replication = f" [replicating on :{repl_port}]"
        print(
            f"serving {spec} on {bound_host}:{bound_port}"
            f"{durability}{tenancy}{replication}\n"
            f"{recovered}"
            "  protocol: line-delimited JSON (docs/serving.md); "
            "stop with Ctrl-C",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def run_reshard(
    durable_dir: Optional[str],
    shards: int,
    backend: Optional[str] = None,
) -> str:
    """Reshard a durable sharded session in place and checkpoint it.

    Opens (recovers) the session living in ``--durable-dir``, replays
    its live-edge residue into a ``--shards``-way topology at the next
    partitioner epoch, and commits the cut with a checkpoint — the
    next ``repro serve --durable-dir`` then recovers straight onto the
    new topology (``docs/resharding.md``).
    """
    from repro.errors import SpecError

    if not durable_dir:
        raise SpecError(
            "reshard needs --durable-dir DIR: only a durable session "
            "outlives the process that reshards it"
        )
    if shards < 1:
        raise SpecError(f"--shards must be >= 1, got {shards}")
    with open_session(durable_dir=durable_dir) as session:
        if session.topology is None:
            raise SpecError(
                f"the session in {durable_dir!r} is unsharded; "
                "reshard applies to sessions opened with shards=K"
            )
        old = session.topology
        report = session.reshard(shards, backend=backend)
        new = session.topology
        return "\n".join([
            f"== reshard: {durable_dir} ==",
            f"  topology          : {old['shards']} -> "
            f"{new['shards']} shards (epoch {new['epoch']})",
            f"  backend           : {new['backend']}",
            f"  residue replayed  : {report.replayed_edges:>10,} edges "
            f"({report.moved_edges:,} moved)",
            f"  transition        : {report.seconds:>10.3f} s",
            f"  checkpoint offset : {session.elements:>10,}",
            f"  estimate          : {session.estimate:>10,.1f}",
        ])


def _parse_address(text: str) -> "tuple[str, int]":
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        from repro.errors import ClusterError

        raise ClusterError(
            f"--primary must look like HOST:PORT, got {text!r}"
        )
    return (host, int(port_text))


def run_follow(
    primary_text: Optional[str],
    host: str,
    port: int,
    durable_dir: Optional[str],
) -> int:
    """Replicate a primary's WAL and serve reads until interrupted.

    Bootstraps from the primary (snapshot install when the needed WAL
    records were pruned), then follows its stream live, re-logging
    every element to ``--durable-dir`` — so this process can be
    promoted, or restarted and resume where its own log ends.
    """
    import asyncio

    from repro.cluster import FollowerServer, bootstrap_follower
    from repro.errors import ClusterError

    if not primary_text:
        raise ClusterError(
            "follow needs --primary HOST:PORT (the primary's "
            "--replicate-to port)"
        )
    if not durable_dir:
        raise ClusterError(
            "follow needs --durable-dir: the follower re-logs the "
            "stream locally, which is what promotion recovers"
        )
    primary = _parse_address(primary_text)
    session = bootstrap_follower(primary, durable_dir)
    server = FollowerServer(
        session, host=host, port=port, primary=primary
    )

    async def _serve() -> None:
        await server.start()
        bound_host, bound_port = server.address
        spec = session.spec.to_string() if session.spec else "?"
        print(
            f"following {primary[0]}:{primary[1]} — serving {spec} "
            f"reads on {bound_host}:{bound_port} "
            f"[replica: {durable_dir}]\n"
            f"  {session.elements:,} elements recovered, estimate "
            f"{session.estimate:,.1f}\n"
            "  reads only; 'promote' flips this node into a primary. "
            "Stop with Ctrl-C",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def run_experiment(
    name: str,
    trials: int,
    datasets: Optional[List[str]],
    threads: int,
    context: Optional[ExperimentContext] = None,
    chart: bool = False,
    estimator_spec: Optional[str] = None,
    shards: int = 1,
    backend: str = "serial",
    partitioner: str = "hash",
    window: int = 0,
    window_time: float = 0.0,
    durable_dir: Optional[str] = None,
) -> str:
    """Execute one experiment; return its rendered report."""
    ctx = context or ExperimentContext()
    if name == "estimators":
        return describe_registry()
    if name == "stream":
        return run_stream(
            estimator_spec or DEFAULT_SPEC,
            datasets,
            context=ctx,
            shards=shards,
            backend=backend,
            partitioner=partitioner,
            window=window,
            window_time=window_time,
            durable_dir=durable_dir,
        )
    if name == "table2":
        return figures.run_table2(datasets=datasets)["text"]
    if name == "fig3":
        result = figures.run_accuracy_vs_sample_size(
            alpha=0.2, trials=trials, datasets=datasets, context=ctx
        )
        if chart:
            return result["text"] + "\n\n" + _accuracy_charts(result, 0.2)
        return result["text"]
    if name == "fig4":
        return figures.run_throughput_vs_sample_size(
            datasets=datasets, num_threads=threads, context=ctx
        )["text"]
    if name == "fig5":
        result = figures.run_accuracy_vs_sample_size(
            alpha=0.0, trials=trials, datasets=datasets, context=ctx
        )
        if chart:
            return result["text"] + "\n\n" + _accuracy_charts(result, 0.0)
        return result["text"]
    if name == "fig6":
        return figures.run_deletion_ratio_impact(
            trials=max(1, trials // 2), datasets=datasets, context=ctx
        )["text"]
    if name == "fig7":
        return figures.run_scalability(datasets=datasets, context=ctx)["text"]
    if name == "fig8":
        return figures.run_minibatch_speedup(
            datasets=datasets, num_threads=threads, context=ctx
        )["text"]
    if name == "fig9":
        return figures.run_thread_speedup(datasets=datasets, context=ctx)[
            "text"
        ]
    if name == "fig10":
        return figures.run_load_balance(datasets=datasets, context=ctx)["text"]
    if name == "unbiasedness":
        return figures.run_unbiasedness(trials=max(trials, 50))["text"]
    if name == "ablation":
        return figures.run_ablation_heuristics(
            datasets=datasets, trials=max(1, trials // 2), context=ctx
        )["text"]
    if name == "variance":
        return extensions.run_variance_bound(
            trials=max(trials * 10, 100)
        )["text"]
    if name == "ensemble":
        return extensions.run_ensemble(trials=max(trials * 5, 30))["text"]
    raise SystemExit(f"unknown experiment: {name}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    datasets = _split_datasets(args.datasets)
    context = ExperimentContext()
    if args.experiment == "serve":
        try:
            return run_serve(
                args.estimator,
                args.host,
                args.port,
                durable_dir=args.durable_dir,
                shards=args.shards,
                backend=args.backend or "serial",
                partitioner=args.partitioner,
                window=args.window,
                window_time=args.window_time,
                replicate_to=args.replicate_to,
                autoscale=args.autoscale,
                max_shards=args.max_shards,
                autoscale_interval=args.autoscale_interval,
                tenant_root=args.tenant_root,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "tenant":
        try:
            print(run_tenant(
                args.action,
                args.tenant_root,
                args.name,
                args.estimator,
                quota=args.quota,
            ))
            return 0
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "reshard":
        try:
            print(run_reshard(
                args.durable_dir, args.shards, backend=args.backend
            ))
            return 0
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "follow":
        try:
            return run_follow(
                args.primary,
                args.host,
                args.port,
                args.durable_dir,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "all":
        names = [
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "unbiasedness",
            "ablation",
            "variance",
            "ensemble",
        ]
    else:
        names = [args.experiment]
    try:
        for name in names:
            report = run_experiment(
                name, args.trials, datasets, args.threads, context,
                chart=args.chart, estimator_spec=args.estimator,
                shards=args.shards, backend=args.backend or "serial",
                partitioner=args.partitioner, window=args.window,
                window_time=args.window_time,
                durable_dir=args.durable_dir,
            )
            print(report)
            print()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
