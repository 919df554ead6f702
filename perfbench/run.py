"""Benchmark for ssdd: timed two-party sessions checked against the oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload, 10 s each
    python3 perfbench/run.py --workload kos-hf --seed 3 --seconds 20 --trace 1

One run is one fresh process and one workload.  It generates the workload's
corpora from ``--seed`` and writes them as ssdd cache files, computes the
plaintext oracle, then

* with ``--trace 0`` starts ``SETUP_PROBES`` fresh processes that each load
  both cache files and run one cold session (``setup_s`` and
  ``peak_rss_mb`` are their medians), runs one warm-up session itself, and
  then runs sessions back to back for ``--seconds`` (closed loop, one Alice
  on the main thread, Bob on one thread, one connection at a time);
* with ``--trace 1`` does the same without the probes, alternating untraced
  and traced sessions, and reports per-layer metrics from the traced ones.

Every session is judged against the oracle and its byte and multiplication
counts must equal those of every other session of the run.  Human-readable
lines go first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median, quantiles

# Alice and Bob each get one of the two cores the benchmark is sized for;
# BLAS worker threads would oversubscribe them, and their spin-waiting made
# run-to-run times scatter.  A caller's own setting is kept and recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from spans import ALICE, BOB, PARTIES, SpanRecorder  # noqa: E402
from synth import CorpusShape, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ssdd" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ssdd sources under {SRC}")
sys.path.insert(0, str(SRC))

import ssdd  # noqa: E402
import ssdd.corpus  # noqa: E402
from ssdd import masking  # noqa: E402
from ssdd.corpus import Corpus, RawDocument, save_cache  # noqa: E402
from ssdd.oracle import oracle_detect  # noqa: E402
from ssdd.protocol.session import AliceSession, BobResponder, SessionConfig  # noqa: E402
from ssdd.protocol.transport import TcpServer, connect_tcp, make_local_pair  # noqa: E402
from ssdd.selection import SelectionMethod  # noqa: E402

if Path(ssdd.__file__).resolve().parent != SRC / "ssdd":
    sys.exit(f"perfbench: imported ssdd from {ssdd.__file__}, not from {SRC}")

# hf logs its disclosure warning once per session; aborted sessions are
# reported by the gate instead
logging.getLogger("ssdd.protocol.session").setLevel(logging.ERROR)

EPSILON = 0.8
# pairs this close to the tolerance are counted, not judged, until the
# protocol declares a tie rule
MARGIN = 1e-9
SETUP_PROBES = 3
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    shape: CorpusShape
    method: SelectionMethod
    tcp: bool


# KOS: n=6906, ~100 terms per document; NIPS: n=12419, ~500 terms per
# document.  ssdd materialises A (n x ceil(n/2)) up to 40M entries, so the
# KOS shapes use the cached matrix and the NIPS shape streams its rows.
WORKLOADS = {
    # the full round only: Bob's replies gathered from the materialised A,
    # ~5 MB FullReply frames through the codec and a loopback socket
    "kos-base": Workload(
        CorpusShape(dims=6906, queries=10, targets=190, mean_terms=100,
                    sd_terms=30, copies_per_query=4),
        SelectionMethod.BASE, tcp=True),
    # the filter round at full KOS size: df exchange, per-query hf
    # selection, Bob's project-respond loop, Alice's bound check; it
    # dismisses ~99.9% of pairs, so the full round is nearly bypassed
    "kos-hf": Workload(
        CorpusShape(dims=6906, queries=10, targets=3420, mean_terms=100,
                    sd_terms=30, copies_per_query=4),
        SelectionMethod.HF, tcp=False),
    # the masking path kos-* bypass: Alice's streamed A.r and Bob's
    # per-row Philox generation in rows_for.  Run by hand: BENCHMARK.json
    # gates only the kos-* workloads, whose runs it can afford to make long.
    "nips-base": Workload(
        CorpusShape(dims=12419, queries=2, targets=20, mean_terms=500,
                    sd_terms=120, copies_per_query=4),
        SelectionMethod.BASE, tcp=False),
}


def session_config(workload: Workload) -> SessionConfig:
    n = workload.shape.dims
    f = max(1, round(n / 100)) if workload.method.uses_filter else 0
    return SessionConfig(n=n, epsilon=EPSILON, method=workload.method, f=f)


def materialised(n: int) -> str:
    limit = getattr(masking, "MATERIALIZE_LIMIT_ENTRIES", None)
    if limit is None:
        return "unknown"
    return "materialised" if n * ((n + 1) // 2) <= limit else "streamed"


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except Exception:  # the config layout differs between numpy versions
        return "unknown"


def settings(name: str, workload: Workload, args) -> dict:
    config = session_config(workload)
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "transport": "tcp on loopback 127.0.0.1" if workload.tcp else "in-process queue",
        "matrix": materialised(config.n),
        "method": workload.method.name.lower(),
        "epsilon": config.epsilon,
        "f": config.f,
        "shape": asdict(workload.shape),
    }


def write_inputs(workload: Workload, seed: int, work: Path) -> np.ndarray:
    """Cache files for both parties; returns the oracle cosine matrix."""
    dims = workload.shape.dims
    queries, targets = generate(workload.shape, seed)
    alice = Corpus(dims, [RawDocument(i, c) for i, c in enumerate(queries)])
    bob = Corpus(dims, [RawDocument(i, c) for i, c in enumerate(targets)])
    save_cache(alice, work / "alice.bin")
    save_cache(bob, work / "bob.bin")
    oracle = oracle_detect(alice.vectors, bob.vectors, EPSILON)
    cos = np.empty((len(alice), len(bob)))
    for (qi, ti), value in oracle.cosines.items():
        cos[qi, ti] = value
    np.save(work / "oracle.npy", cos)
    return cos


def load_inputs(work: Path):
    """Both corpora, read through the module attribute tracing wraps."""
    alice = ssdd.corpus.load_cache(work / "alice.bin")
    bob = ssdd.corpus.load_cache(work / "bob.bin")
    return alice.vectors, bob.vectors


class Bob:
    """Bob for one run: a TcpServer on loopback, or a queue pair per session."""

    def __init__(self, workload: Workload, targets, dims: int):
        self.targets = targets
        self.dims = dims
        self.server = None
        if workload.tcp:
            self.server = TcpServer(lambda: BobResponder(targets, dims=dims)).start()

    def session(self, config, queries, latencies: list[float]):
        """One Alice session; returns the report and Bob's multiplication count."""
        thread = None
        if self.server is not None:
            transport = connect_tcp(self.server.host, self.server.port)
        else:
            transport, bob_end = make_local_pair()
            responder = BobResponder(self.targets, dims=self.dims)
            thread = threading.Thread(target=responder.serve, args=(bob_end,), name="bob")
            thread.start()
        alice = AliceSession(config, queries, transport)
        run_query = alice.run_query

        def timed(query_id, query):
            started = time.perf_counter()
            run_query(query_id, query)
            latencies.append(time.perf_counter() - started)

        alice.run_query = timed
        try:
            report = alice.run()
        finally:
            transport.close()
            if thread is not None:
                thread.join(timeout=60.0)
        if self.server is not None:
            responder = self.server.responders[-1]
        return report, responder.scalar_mult_count

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def judge(report, mults: int, cos: np.ndarray) -> dict:
    """Compare one session's decisions with the oracle."""
    nq, nt = cos.shape
    seen = np.zeros((nq, nt), dtype=np.int64)
    similar = np.zeros((nq, nt), dtype=bool)
    filtered = np.zeros((nq, nt), dtype=bool)
    for d in report.decisions:
        seen[d.query_id, d.target_id] += 1
        similar[d.query_id, d.target_id] = d.similar
        filtered[d.query_id, d.target_id] = d.filtered
    truth = cos >= EPSILON
    judged = np.abs(cos - EPSILON) > MARGIN
    metrics = report.metrics
    errors = {
        "aborted": int(report.aborted),
        "undecided_or_repeated": int(np.count_nonzero(seen != 1)),
        "missed": int(np.count_nonzero(truth & ~similar & judged)),
        "extra": int(np.count_nonzero(similar & ~truth & judged)),
        "false_dismissals": int(np.count_nonzero(truth & filtered & judged)),
    }
    return {
        "ok": not any(errors.values()),
        "errors": errors,
        "margin_pairs": int(np.count_nonzero(~judged)),
        "similar": int(np.count_nonzero(similar)),
        "full_products": metrics.full_products,
        "counts": {
            "bytes_a2b": metrics.bytes_sent_alice,
            "bytes_b2a": metrics.bytes_sent_bob,
            "scalar_mults": mults,
            "filter_ratio": metrics.filter_ratio,
        },
    }


def run_probe(name: str, work: Path) -> None:
    """Child process: load the caches, run one cold session, report."""
    workload = WORKLOADS[name]
    alice, bob_vectors = load_inputs(work)
    bob = Bob(workload, bob_vectors, workload.shape.dims)
    try:
        report, mults = bob.session(session_config(workload), alice, [])
        end = time.monotonic()
    finally:
        bob.close()
    verdict = judge(report, mults, np.load(work / "oracle.npy"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"end": end, "rss_mb": rss_kb / 1024, "verdict": verdict}))


def setup_probes(name: str, seed: int, work: Path):
    """Results and failures of SETUP_PROBES fresh processes, one at a time."""
    results, failures = [], []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--probe", str(work)],
                capture_output=True, text=True, timeout=150,
            )
        except subprocess.TimeoutExpired:
            failures.append("set-up process timed out")
            continue
        if proc.returncode != 0:
            failures.append((proc.stderr.strip().splitlines() or ["no output"])[-1])
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["end"] - started
        results.append(result)
    return results, failures


def layer_metrics(table: dict, names: list[str], sessions: list[int]) -> dict:
    """Median per session of (self s, inclusive s, calls, items) by layer and party."""
    per_session = {}
    for sid in sessions:
        rows = table["session"] == sid
        sums = {}
        for name_id, name in enumerate(names):
            for party in (ALICE, BOB):
                sel = rows & (table["name"] == name_id) & (table["party"] == party)
                if sel.any():
                    sums[(name, party)] = (
                        float(table["self"][sel].sum()),
                        float(table["duration"][sel].sum()),
                        int(np.count_nonzero(sel)),
                        int(table["items"][sel].sum()),
                    )
        per_session[sid] = sums
    keys = sorted({k for s in per_session.values() for k in s})
    return {
        k: tuple(median(s.get(k, (0, 0, 0, 0))[i] for s in per_session.values())
                 for i in range(4))
        for k in keys
    }


SELF, INCLUSIVE, CALLS, ITEMS = range(4)
# (metric, span layer, party or None for both, field, unit); phases report
# inclusive time, layers their self time
SPAN_METRICS = (
    ("masking.rows_for_s", "masking.rows_for", None, SELF, "s"),
    ("masking.rows_for_rows", "masking.rows_for", None, ITEMS, "count"),
    ("masking.mask_s", "masking.mask", None, SELF, "s"),
    ("masking.mask_calls", "masking.mask", None, CALLS, "count"),
    ("masking.respond_s", "masking.respond", None, SELF, "s"),
    ("masking.respond_calls", "masking.respond", None, CALLS, "count"),
    ("protocol.messages.encode_s", "protocol.messages.encode", None, SELF, "s"),
    ("protocol.messages.decode_s", "protocol.messages.decode", None, SELF, "s"),
    ("protocol.messages.frames", "protocol.messages.encode", None, CALLS, "count"),
    ("protocol.transport.send_s", "protocol.transport.send", None, SELF, "s"),
    ("protocol.transport.alice_wait_s", "protocol.transport.recv", ALICE, SELF, "s"),
    ("protocol.transport.bob_wait_s", "protocol.transport.recv", BOB, SELF, "s"),
    ("protocol.session.handshake_s", "protocol.session.handshake", ALICE, INCLUSIVE, "s"),
    ("protocol.session.bob_filter_s", "protocol.session.bob_filter", BOB, INCLUSIVE, "s"),
    ("protocol.session.bob_full_s", "protocol.session.bob_full", BOB, INCLUSIVE, "s"),
    ("protocol.session.alice_query_self_s", "protocol.session.run_query", ALICE, SELF, "s"),
    ("protocol.session.evaluate_filter_s", "protocol.session.evaluate_filter", None, SELF, "s"),
    ("vectors.project_s", "vectors.project", None, SELF, "s"),
    ("vectors.project_calls", "vectors.project", None, CALLS, "count"),
    ("selection.select_s", "selection.select", None, SELF, "s"),
    ("selection.local_df_s", "selection.local_df", None, SELF, "s"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        run_probe(args.workload, Path(args.probe))
        return 0
    if args.workload == "all":
        return run_all(args)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args.workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_workload(name: str, args, work: Path) -> int:
    workload = WORKLOADS[name]
    config = session_config(workload)

    def say(text: str) -> None:
        print(f"[{name}] {text}", flush=True)

    say("settings " + json.dumps(settings(name, workload, args)))
    cos = write_inputs(workload, args.seed, work)
    nq, nt = cos.shape
    say(f"oracle: {nq} queries x {nt} targets, "
        f"{int(np.count_nonzero(cos >= EPSILON))} pairs at or above epsilon={EPSILON}")

    verdicts: list[dict] = []
    failures: list[str] = []
    probes = []
    if not args.trace:
        probes, failures = setup_probes(name, args.seed, work)
        verdicts += [p["verdict"] for p in probes]

    rec = SpanRecorder()
    sessions: list[dict] = []  # warm sessions: wall, traced
    latencies: list[float] = []
    bob = None
    cold = float("nan")
    try:
        rec.session = 0
        with rec.installed() if args.trace else nullcontext():
            started = time.perf_counter()
            alice, targets = load_inputs(work)
            bob = Bob(workload, targets, config.n)
            report, mults = bob.session(config, alice, [])
            cold = time.perf_counter() - started
        verdicts.append(judge(report, mults, cos))
        deadline = time.perf_counter() + args.seconds
        while True:
            sid = len(sessions) + 1
            traced = bool(args.trace) and sid % 2 == 0
            rec.session = sid
            with rec.installed() if traced else nullcontext():
                with rec.span("session") if traced else nullcontext():
                    started = time.perf_counter()
                    report, mults = bob.session(
                        config, alice, [] if traced else latencies)
                    wall = time.perf_counter() - started
            verdicts.append(judge(report, mults, cos))
            sessions.append({"id": sid, "wall": wall, "traced": traced})
            if time.perf_counter() >= deadline and sid >= (2 if args.trace else 1):
                break
    except Exception as exc:  # an aborted run still prints its verdict
        traceback.print_exc()
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        if bob is not None:
            bob.close()

    failed = sum(not v["ok"] for v in verdicts) + len(failures)
    attempted = len(verdicts) + len(failures)
    counts = {json.dumps(v["counts"], sort_keys=True) for v in verdicts}
    say(f"gate: {attempted} sessions, {failed} failed "
        f"(failed_share {failed / attempted:.4f}, sample count {attempted}); "
        f"{sum(v['margin_pairs'] for v in verdicts)} pair judgements within "
        f"{MARGIN} of epsilon counted, not judged")
    for v in verdicts:
        if not v["ok"]:
            say(f"gate failure: {v['errors']}")
    for f in failures:
        say(f"failure: {f}")
    if len(counts) > 1:
        say(f"count check failed: sessions disagree: {sorted(counts)}")
    if verdicts:
        v = verdicts[0]
        say(f"counts per session: {json.dumps(v['counts'])}; "
            f"similar {v['similar']}, full products {v['full_products']}")
    say(f"this process's first session {cold:.3f} s (warm-up, not a metric)")

    pairs = nq * nt
    plain = [s for s in sessions if not s["traced"]]
    rates = [pairs / s["wall"] for s in plain]
    if plain:
        say("warm session walls (s): " + " ".join(f"{s['wall']:.3f}" for s in plain))
    metrics: dict[str, dict] = {}
    first = verdicts[0]["counts"] if verdicts else {}

    def put(metric: str, value: float, unit: str, note: str) -> None:
        metrics[metric] = {"value": value, "unit": unit}
        say(f"metric {metric} = {value:.6g} {unit} ({note})")

    if not args.trace:
        if probes:
            put("setup_s", median(p["setup_s"] for p in probes), "s",
                f"median of {len(probes)} fresh processes: start, load_cache x2, "
                "cold session")
            put("peak_rss_mb", median(p["rss_mb"] for p in probes), "MB",
                f"median of {len(probes)} fresh processes, own RSS")
        if rates:
            put("pairs_per_s", median(rates), "1/s",
                f"median of {len(rates)} warm sessions, {pairs} pairs each")
        if latencies:
            put("query_ms_p50", 1000 * median(latencies), "ms",
                f"median of {len(latencies)} queries")
            if len(latencies) >= 100:
                p90 = quantiles(latencies, n=10, method="inclusive")[8]
                say(f"metric query_ms_p90 = {1000 * p90:.6g} ms "
                    f"({len(latencies)} queries)")
            else:
                say(f"metric query_ms_p90 not reported: {len(latencies)} queries < 100")
        if first:
            put("bytes_a2b", first["bytes_a2b"], "B", "framed bytes per session, Alice to Bob")
            put("bytes_b2a", first["bytes_b2a"], "B", "framed bytes per session, Bob to Alice")
        say(f"metric failed_share = {failed / attempted:.6g} ({attempted} sessions; "
            "reported in the result as failed/attempted)")
    else:
        traced_ids = [s["id"] for s in sessions if s["traced"]]
        table = rec.table()
        summary = layer_metrics(table, rec.names, traced_ids)
        load = layer_metrics(table, rec.names, [0]).get(("corpus.load_cache", ALICE))
        report_layers(say, summary, len(traced_ids), rec.absent)
        traced_rates = [pairs / s["wall"] for s in sessions if s["traced"]]
        session_time = summary.get(("session", ALICE), (0, 0, 0, 0))
        coverage = 1 - session_time[0] / session_time[1] if session_time[1] else 0.0

        def layer(key, party, field):
            parties = (ALICE, BOB) if party is None else (party,)
            return sum(summary.get((key, p), (0, 0, 0, 0))[field] for p in parties)

        similar = verdicts[0]["similar"] if verdicts else 0
        full = verdicts[0]["full_products"] if verdicts else 0
        absent = rec.absent_layers
        traced_note = f"median of {len(traced_ids)} traced sessions"
        for metric, key, party, field, unit in SPAN_METRICS:
            value = layer(key, party, field)
            put(metric, value, unit, "absent" if key in absent else
                "not exercised" if value == 0 else traced_note)
        put("masking.scalar_mults", first.get("scalar_mults", 0), "count",
            "Bob's multiplication count per session")
        put("protocol.session.filter_ratio", first.get("filter_ratio", 0.0), "ratio",
            "filtered / total pairs per session" if config.method.uses_filter
            else "not exercised")
        put("protocol.session.full_hit_ratio", similar / full if full else 0.0, "ratio",
            f"similar / full products per session, {similar}/{full}" if full
            else "not exercised")
        put("corpus.load_cache_s", load[1] if load else 0.0, "s",
            "absent" if "corpus.load_cache" in absent else
            "both cache files, during set-up")
        put("trace.span_coverage", coverage, "ratio",
            f"share of Alice's session wall time inside spans, {traced_note}")
        overhead = (median(rates) / median(traced_rates) - 1
                    if rates and traced_rates else 0.0)
        put("trace.overhead", overhead, "ratio",
            f"untraced/traced pairs_per_s - 1, {len(rates)} vs {len(traced_rates)} sessions")
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{name}-seed{args.seed}.npz"
        rec.save(out, table)
        say(f"spans: {table['start'].size} written to {out.relative_to(ROOT)}")

    correct = failed == 0 and len(counts) == 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report_layers(say, summary: dict, sessions: int, absent: list[str]) -> None:
    """Every layer and party seen, then the wrap targets this ssdd lacks."""
    say(f"per-layer, median per traced session over {sessions} sessions:")
    say(f"  {'layer':36s} {'party':5s} {'self_s':>10s} {'incl_s':>10s} "
        f"{'calls':>8s} {'items':>9s}")
    for (name, party), (self_s, incl_s, calls, items) in sorted(summary.items()):
        say(f"  {name:36s} {PARTIES[party]:5s} {self_s:10.4f} "
            f"{incl_s:10.4f} {calls:8.0f} {items:9.0f}")
    for target in absent:
        say(f"  absent: {target} (not in this version of ssdd)")


if __name__ == "__main__":
    sys.exit(main())
