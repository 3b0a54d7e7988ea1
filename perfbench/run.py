"""End-to-end benchmark of the tapfuse pipeline: simulate -> track -> eval,
plus event ingest/export and the representation path, on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; tapfuse is imported from ./src.
The pipeline steps are the ``tapfuse`` subcommands, called in-process
through ``tapfuse.cli.main`` on files in a temporary directory under
perfbench/out/. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 the layers' public functions
are wrapped (see tracing.py) and the line carries the per-layer metrics.
Times are CPU seconds (see README.md). Either way the full record is also
written to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread, so that the program is single-threaded and its CPU time
# is its compute cost; tapfuse's TAPFUSE_THREADS does not reach OpenBLAS.
# Set before numpy is imported here or in a set-up child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s", "simulate_s": "s", "track_s": "s", "pipeline_s": "s",
    "ingest_evbin_mev_s": "Mev/s", "ingest_csv_mev_s": "Mev/s",
    "export_evbin_mev_s": "Mev/s", "export_csv_mev_s": "Mev/s",
    "repr_mev_s": "Mev/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "s" for name in (
        "events.parse_evbin_s", "events.parse_csv_s", "events.construct_s",
        "events.serialize_evbin_s", "events.serialize_csv_s", "events.bin_s",
        "events.exposure_s", "repr.count_image_s", "repr.voxel_grid_s",
        "repr.time_surface_s", "synth.render_s", "synth.simulate_events_s",
        "arrayio.write_s", "arrayio.read_s", "weights.init_s",
        "weights.save_s", "weights.load_s", "fusion.tokenize_s",
        "fusion.clwf_s", "fusion.taf_init_s", "fusion.taf_update_s",
        "fusion.temporal_attention_s", "fusion.decode_s",
        "tracker.sample_patch_s", "tracker.correlation_s", "tracker.refine_s",
        "tracker.sequence_s", "tracker.tracks_io_s", "metrics.evaluate_s",
        "cli.self_s")},
    **{name: "count" for name in (
        "events.bin_calls", "repr.events", "synth.events",
        "fusion.taf_init_calls", "fusion.taf_update_calls",
        "fusion.empty_batches", "fusion.windows", "tracker.sample_patch_calls",
        "tracker.refine_calls")},
    "arrayio.mb": "MB",
}
SETUP_REPEATS = 7
RATE_SECTIONS = ("ingest_evbin", "ingest_csv", "export_evbin", "export_csv",
                 "repr")


class Abort(Exception):
    """A step the rest of the run depends on failed."""


def clocks(who=resource.RUSAGE_SELF) -> tuple[float, float]:
    """(wall, CPU) seconds. CPU is user + system time of this process, or of
    its waited-for children: on a shared VM it leaves out the time the
    vCPU was stolen, which wall time counts."""
    use = resource.getrusage(who)
    return time.perf_counter(), use.ru_utime + use.ru_stime


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, wl, seed: int, seconds: float, traced: bool,
                 work: Path):
        import tapfuse.arrayio
        import tapfuse.cli
        import tapfuse.config

        import checks
        import tracing
        import workloads

        self.tf, self.checks, self.workloads = tapfuse, checks, workloads
        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.attempted = self.failed = 0
        self.problems: list[str] = []   # operations that raised
        self.wrong: list[str] = []      # checks that did not hold
        self.tracer = tracing.Tracer() if traced else None
        if traced:
            tracing.install(self.tracer, tapfuse)
        self.objects = workloads.scene_objects(wl, seed)
        self.queries = workloads.queries(wl, self.objects)
        self.order_index = [list(range(len(self.queries))),
                            list(range(len(self.queries)))[::-1]]
        self.orders = [[self.queries[i] for i in ix] for ix in self.order_index]
        self.cfg_path = work / "run.cfg"
        self.cfg_path.write_text(
            workloads.config_text(wl, seed, self.objects))
        self.sim, self.trk, self.ev = work / "sim", work / "trk", work / "ev"
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.wall_samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.layer_rounds: list[dict] = []
        self.layer_setups: list[dict] = []
        self.passes = 0  # timed pipeline passes so far

    # -- bookkeeping -------------------------------------------------------

    def op(self, name: str, fn, *args, **kwargs):
        """One operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # keep measuring, report the failure
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            why = fn(*args)
        except Exception as exc:  # a check that cannot run did not hold
            why = f"{type(exc).__name__}: {exc}"
        if why is not None:
            self.wrong.append(f"{name}: {why}")

    def need(self, name: str, fn, *args, **kwargs):
        """An operation the rest of the run cannot do without."""
        n_failed = self.failed
        out = self.op(name, fn, *args, **kwargs)
        if self.failed != n_failed:
            raise Abort(self.problems[-1])
        return out

    def cli(self, *argv) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.tf.cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")

    def sample(self, metric: str, start, end=None, work=None) -> None:
        """Record one sample from start to end (clocks() pairs): the CPU
        time is the metric's sample, the wall time is kept in the record.
        A rate divides the work, in events, by them."""
        end = end or clocks()
        for store, dt in ((self.samples, end[1] - start[1]),
                          (self.wall_samples, end[0] - start[0])):
            store[metric].append(dt if work is None else work / dt / 1e6)

    # -- the pipeline steps --------------------------------------------------

    def simulate(self):
        self.cli("--config", self.cfg_path, "--out", self.sim, "simulate")

    def track(self, weights: str, queries, out: Path):
        qargs = [a for q in queries for a in ("--query", q.arg())]
        self.cli("--config", self.cfg_path, "--out", out, "track",
                 "--stream", self.sim / "events.evbin",
                 "--frames", self.sim / "video.tns",
                 "--weights", self.work / weights, *qargs)

    def evaluate(self, order: int):
        self.cli("--config", self.cfg_path, "--out", self.ev, "eval",
                 "--pred", self.trk / "tracks.txt",
                 "--ref", self.work / f"ref_tracks_{order}.txt")

    # -- throughput sections ---------------------------------------------------

    def section(self, kind: str, reps: int):
        ev = self.tf.events
        out = None
        for _ in range(reps):
            if kind == "ingest_evbin":
                out = ev.parse_event_stream(self.evbin, "evbin")
            elif kind == "ingest_csv":
                out = ev.parse_event_stream(self.csv, "csv")
            elif kind == "export_evbin":
                out = ev.serialize_event_stream(self.stream, "evbin")
            elif kind == "export_csv":
                out = ev.serialize_event_stream(self.stream, "csv")
            else:
                out = self.repr_pass()
        return out

    def repr_pass(self, inspect=None):
        """bin_events, then all three representations of every bin of
        positive width (bin 0 is (t_start, q_0], empty and zero-wide).
        inspect(batch, *tensors) sees each bin's tensors before they are
        dropped; the first reason it gives is returned with the batches."""
        rep, cfg = self.tf.representations, self.run_cfg
        batches = self.tf.events.bin_events(self.stream, self.timeline)
        w, h, b = self.stream.width, self.stream.height, cfg.model_subwindows
        why = None
        for bt in batches:
            if bt.duration > 0:
                tensors = (rep.sbt_time_surface(bt, w, h, b),
                           rep.event_count_image(bt, w, h, b),
                           rep.voxel_grid(bt, w, h, b))
                if inspect is not None and why is None:
                    why = inspect(bt, *tensors)
        return batches, why

    def check_section(self, kind: str, out) -> None:
        c = self.checks
        if kind.startswith("ingest"):
            self.check(kind, c.same_stream, out, self.decoded)
        elif kind == "export_evbin":
            self.check(kind, lambda: None if out == self.evbin
                       else "EVB1 export differs from the simulate output")
        elif kind == "export_csv":
            self.check(kind, lambda: None if out == self.csv
                       else "CSV export differs between calls")
        else:
            self.check(kind, lambda: out[1] or c.partition(out[0], len(self.stream)))

    # -- phases ----------------------------------------------------------------

    def setup(self) -> None:
        """setup_s: fresh interpreter to ready, several times; the traced run
        repeats the same work in-process under the tracer instead."""
        import setup_ready
        for _ in range(SETUP_REPEATS):
            if self.tracer is None:
                t0 = clocks(resource.RUSAGE_CHILDREN)
                self.need("setup", subprocess.run, [
                    sys.executable, str(HERE / "setup_ready.py"), str(SRC),
                    str(self.cfg_path), str(self.work)],
                    check=True, capture_output=True, cwd=ROOT)
                self.sample("setup_s", t0, clocks(resource.RUSAGE_CHILDREN))
            else:
                before = self.tracer.snapshot()
                t0 = clocks()
                self.need("setup", setup_ready.ready, self.cfg_path, self.work)
                self.sample("setup_s", t0)
                self.layer_setups.append(self._since(before))

    def warm_up(self) -> None:
        """Round 0, untimed: every step once, with the program's outputs
        checked against the benchmark's own computations."""
        c, tf, wl = self.checks, self.tf, self.wl
        self.need("simulate", self.simulate)
        gt = (self.sim / "tracks.txt").read_bytes()
        self.check("scene", c.scene_truth, gt, self.objects, wl.query_times())
        self.check("events", c.event_model, (self.sim / "video.tns").read_bytes(),
                   (self.sim / "events.evbin").read_bytes(), wl.contrast, wl.fps)
        # eval references for the forward and the reversed query order
        gt_rows = c.read_tracks(gt)[0]
        for order, qs in enumerate(self.orders):
            (self.work / f"ref_tracks_{order}.txt").write_bytes(
                c.reference_tracks(gt_rows, [q.obj for q in qs]))
        self.sim_digests = {p.name: _digest(p) for p in self.sim.iterdir()}

        self.run_cfg = tf.config.load_run_config(self.cfg_path)
        self.timeline = self.run_cfg.timeline()
        self.evbin = (self.sim / "events.evbin").read_bytes()
        self.decoded = c.read_evbin(self.evbin)
        self.stream = self.need("parse", tf.events.parse_event_stream,
                                self.evbin, "evbin")
        self.check("ingest_evbin", c.same_stream, self.stream, self.decoded)
        self.csv = self.need("export_csv", tf.events.serialize_event_stream,
                             self.stream, "csv")
        for kind in RATE_SECTIONS[:-1]:
            self.check_section(kind, self.op(kind, self.section, kind, 1))
        self.check_section("repr", self.op("repr", self.repr_pass,
                                           c.representation_bin))

        self.check("weights", self.check_weights)
        self.need("track", self.track, "init.tfw", self.queries, self.trk)
        ident = (self.trk / "tracks.txt").read_bytes()
        self.check("identity", c.identity_tracks, ident, self.queries)
        self.need("eval", self.evaluate, 0)
        self.check("eval", self.check_eval, 0)

    def check_weights(self):
        w = self.tf.weights
        fc = self.run_cfg.fusion_config()
        init = w.WeightBundle.initialize(fc, self.seed).params
        want = {"init.tfw": init,
                "perturbed.tfw": self.workloads.perturb(init, self.seed)}
        for name, params in want.items():
            got = w.load_weights((self.work / name).read_bytes(), fc,
                                 self.seed).params
            if any(not (got[k] == params[k]).all() for k in params):
                return f"{name} does not hold the expected weights"
        return None

    def check_eval(self, order: int):
        return self.checks.eval_metrics(
            (self.trk / "tracks.txt").read_bytes(),
            (self.work / f"ref_tracks_{order}.txt").read_bytes(),
            (self.ev / "metrics.json").read_bytes(), self.wl.height)

    def pipeline(self) -> None:
        """One timed simulate -> track -> eval pass, then its checks. Passes
        alternate between the forward and the reversed query order; the
        work is the same."""
        order = self.passes % 2
        t0 = clocks()
        self.op("simulate", self.simulate)
        t1 = clocks()
        self.op("track", self.track, "perturbed.tfw", self.orders[order],
                self.trk)
        t2 = clocks()
        self.op("eval", self.evaluate, order)
        self.sample("pipeline_s", t0)
        self.sample("simulate_s", t0, t1)
        self.sample("track_s", t1, t2)

        tracks = (self.trk / "tracks.txt").read_bytes()
        if self.passes == 0:
            self.tracks = tracks
            self.check("perturbed", self.checks.perturbed_tracks, tracks,
                       self.queries)
        else:
            self.check("reversed" if order else "repeat",
                       self.checks.same_tracks, self.tracks, tracks,
                       self.order_index[order])
        self.check("eval", self.check_eval, order)
        self.passes += 1

    def timed_round(self) -> None:
        """One pipeline pass, the extra simulate calls, then the throughput
        samples, interleaved across the sections."""
        gc.collect()
        before = self.tracer.snapshot() if self.tracer else None
        self.pipeline()
        for _ in range(self.wl.simulate_calls - 1):
            t0 = clocks()
            self.op("simulate", self.simulate)
            self.sample("simulate_s", t0)
        self.check("simulate_repeat", lambda: None if {
            p.name: _digest(p) for p in self.sim.iterdir()} == self.sim_digests
            else "simulate outputs changed between calls")
        for i in range(max(n for n, _ in self.wl.reps.values())):
            for kind in RATE_SECTIONS:
                n_samples, calls = self.wl.reps[kind]
                if i < n_samples:
                    t0 = clocks()
                    out = self.op(kind, self.section, kind, calls)
                    self.sample(f"{kind}_mev_s", t0,
                                work=len(self.stream) * calls)
                    self.check_section(kind, out)
        if self.tracer:
            self.layer_rounds.append(self._since(before))

    def query_order(self) -> None:
        """Queries are independent: tracking them in reverse order gives the
        reversed tracks (checked on every second pipeline pass, or here if
        there was only one), and one query alone gives its track from the
        set. With one query both are the pipeline's own track, repeated."""
        q, c = self.queries, self.checks
        alt = self.work / "trk_alt"
        if self.passes < 2 and len(q) > 1:
            self.need("track", self.track, "perturbed.tfw", self.orders[1], alt)
            self.check("reversed", c.same_tracks, self.tracks,
                       (alt / "tracks.txt").read_bytes(), self.order_index[1])
        if len(q) > 1:
            self.need("track", self.track, "perturbed.tfw", q[-1:], alt)
            self.check("alone", c.same_tracks, self.tracks,
                       (alt / "tracks.txt").read_bytes(), [len(q) - 1])

    def _since(self, before: dict) -> dict:
        after = self.tracer.snapshot()
        return {k: v - before.get(k, 0.0) for k, v in after.items()}

    def run(self) -> dict:
        self.setup()
        self.warm_up()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < self.seconds:
            self.timed_round()
            rounds += 1
        self.query_order()
        self.samples["peak_rss_mb"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        record = {"rounds": rounds, "samples": self.samples,
                  "wall_samples": self.wall_samples,
                  "end_to_end": {k: statistics.median(v)
                                 for k, v in self.samples.items()}}
        if self.tracer:
            self.tracer.uninstall()
            record["per_layer"] = {
                k: statistics.median(
                    d.get(k, 0.0) for d in (self.layer_setups
                                            if k.startswith("weights.")
                                            else self.layer_rounds))
                for k in PER_LAYER}
            record["layer_rounds"] = self.layer_rounds
        return record


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tapfuse" / "__init__.py").is_file():
        print(f"perfbench: no tapfuse sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed,
                      args.seconds, bool(args.trace), work)
        record = bench.run()
    except Abort as exc:
        record = {"aborted": str(exc)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = "aborted" not in record and not bench.wrong
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  attempted=bench.attempted, failed=bench.failed,
                  problems=bench.problems, wrong=bench.wrong)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in bench.problems + bench.wrong + [record.get("aborted", "")]:
        if line:
            print(f"perfbench: {line}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": record.get("per_layer" if args.trace else
                                       "end_to_end", {}).get(k, 0.0),
                   "unit": unit} for k, unit in names.items()}
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
