//! `ingest`: durable batches through `PersistentWriter` on local disk.
//!
//! Set-up preloads a 5k-fact `edge` store (cold build plus the baseline
//! checkpoint) and warms it with a few batches.  The timed phase streams
//! 100-fact batches that alternately assert dormant edges and retract the
//! oldest live ones (which become dormant again), so the store size and the
//! set of edge facts it has seen stay fixed and batch latency is a
//! steady-state sample; a bound `linked(pK, X)` probe runs on the published
//! snapshot after each batch and an incremental checkpoint every few
//! batches.  The phase ends with restarts: drop the writer, reopen over a
//! one-record WAL tail, answer the first probe.  Every probe is checked
//! against the benchmark's own edge set, and every restart must come back
//! at the last acknowledged epoch with the exact answers.

use crate::calib::Calibration;
use crate::report::{
    common_span_layers, overhead, strategy_tag, Heap, Outcome, QueryTally, SpanView,
};
use crate::stats::{cpu_ms, median, Samples};
use crate::timing_io::TimingIo;
use crate::trace::{self, ms};
use crate::{alloc, eval_options, Args};
use hilog_core::Query;
use hilog_engine::{HiLogDb, QueryResult, SnapshotHandle};
use hilog_store::{FsyncPolicy, Op, PersistentWriter, StoreConfig, StoreIo};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::{durability_workload, DurabilityWorkloadConfig};
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Facts in the preloaded store (and, at every batch boundary, ±BATCH).
/// Small enough that the writer's working set stays in cache: at 20k facts
/// batch latency is bound by memory-latency-heavy linear scans, and run
/// medians on a shared machine moved by up to 20%.
const PRELOAD: usize = 5_000;
/// Nodes the edges are drawn over.
const NODES: usize = 1_000;
/// Facts per batch (one WAL record, one epoch).
const BATCH: usize = 100;
/// Edges generated beyond the preload.  They start out dormant (not in the
/// store); the stream asserts dormant edges and retracts live ones, which
/// become dormant again, so the same 10k edge facts cycle through the store
/// and its state stays stationary however many batches a run reaches.
const DORMANT: usize = 5_000;
/// Batches applied during each set-up, as warm-up.
const WARMUP_BATCHES: usize = 10;
/// An incremental checkpoint after every this many batches.
const CHECKPOINT_EVERY: usize = 8;
/// Share of the timed phase spent on the batch stream; restarts take the
/// rest.
const STREAM_SHARE: f64 = 0.5;
/// Extra probes checked (untimed) after each restart's first answer.
const RESTART_CHECKS: usize = 3;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 5;

/// The benchmark's own view of the store: live edges in assertion order,
/// and dormant edges (retracted or never asserted) in the order the stream
/// asserts them.
struct Edges {
    live: VecDeque<(usize, usize)>,
    set: BTreeSet<(usize, usize)>,
    dormant: VecDeque<(usize, usize)>,
}

impl Edges {
    /// The answers `?- linked(p<node>, X).` must return.
    fn expected(&self, node: usize) -> BTreeSet<String> {
        // linked(X, Y) :- edge(X, Y).  linked(X, Y) :- edge(Y, X).
        let out = self.set.range((node, 0)..(node + 1, 0)).map(|&(_, v)| v);
        let inn = self
            .set
            .iter()
            .filter(|&&(_, v)| v == node)
            .map(|&(u, _)| u);
        out.chain(inn).map(|n| format!("p{n}")).collect()
    }
}

fn edge_text((u, v): (usize, usize)) -> String {
    format!("edge(p{u}, p{v})")
}

fn parse_edge(text: &str) -> (usize, usize) {
    let inner = text
        .strip_prefix("edge(p")
        .and_then(|s| s.strip_suffix(')'))
        .expect("generator renders edge(pU, pV)");
    let (u, v) = inner
        .split_once(", p")
        .expect("generator renders edge(pU, pV)");
    (
        u.parse().expect("node index"),
        v.parse().expect("node index"),
    )
}

struct Probe {
    node: usize,
    query: Query,
}

/// Everything one run keeps across set-up and the timed phase.
struct Store {
    config: StoreConfig,
    writer: Option<PersistentWriter>,
    handle: SnapshotHandle,
    edges: Edges,
    batches: usize,
    acked_epoch: u64,
}

/// One batch: the 100 longest-dormant edges (even batches) or the 100
/// oldest live ones (odd batches).
fn next_batch(edges: &Edges, batch: usize) -> (bool, Vec<(usize, usize)>) {
    let assert = batch.is_multiple_of(2);
    let from = if assert { &edges.dormant } else { &edges.live };
    (assert, from.iter().take(BATCH).copied().collect())
}

/// Counts, for the traced phase.
#[derive(Default)]
struct Traced {
    tally: QueryTally,
    fact_bytes: u64,
    checkpoint_bytes: Vec<f64>,
    replayed: Vec<f64>,
    read_bytes_on_open: u64,
}

impl Store {
    fn writer(&mut self) -> &mut PersistentWriter {
        self.writer
            .as_mut()
            .expect("writer is open between restarts")
    }

    /// Applies the next batch and checks its acknowledgement; returns its
    /// wall and process CPU time in ms.
    fn apply_next(&mut self, out: &mut Outcome, traced: &mut Traced) -> Result<(f64, f64), ()> {
        let (assert, picked) = next_batch(&self.edges, self.batches);
        self.batches += 1;
        let texts: Vec<String> = picked.iter().map(|&e| edge_text(e)).collect();
        let bytes: usize = texts.iter().map(String::len).sum();
        let mut span = trace::span("syntax.parse");
        span.tag("facts");
        span.bytes(bytes as u64);
        let ops: Vec<Op> = texts
            .iter()
            .map(|t| {
                let term = parse_term(t).expect("generated fact parses");
                if assert {
                    Op::AssertFact(term)
                } else {
                    Op::RetractFact(term)
                }
            })
            .collect();
        span.end();
        out.attempted += 1;
        let cpu_start = cpu_ms();
        let span = trace::span("store.apply_batch");
        let result = self.writer().apply_batch(&ops);
        let elapsed = span.end();
        let cpu = cpu_ms() - cpu_start;
        match result {
            Ok(outcome) => {
                if outcome.epoch != self.acked_epoch + 1 || outcome.applied != BATCH {
                    out.wrong(format!(
                        "batch {} acknowledged epoch {} applied {}, expected epoch {} applied {BATCH}",
                        self.batches,
                        outcome.epoch,
                        outcome.applied,
                        self.acked_epoch + 1
                    ));
                }
                self.acked_epoch = outcome.epoch;
                for e in picked {
                    if assert {
                        self.edges.dormant.pop_front();
                        self.edges.live.push_back(e);
                        self.edges.set.insert(e);
                    } else {
                        self.edges.live.pop_front();
                        self.edges.set.remove(&e);
                        self.edges.dormant.push_back(e);
                    }
                }
                if trace::enabled() {
                    traced.fact_bytes += bytes as u64;
                }
                Ok((ms(elapsed), cpu))
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("ingest: batch failed: {e}");
                Err(())
            }
        }
    }

    /// Runs `probe` on the published snapshot and checks it.
    fn probe(&self, probe: &Probe, out: &mut Outcome, traced: &mut Traced) -> Result<Duration, ()> {
        out.attempted += 1;
        let mut span = trace::span("engine.query");
        let snapshot = self.handle.current();
        let result = snapshot.query(&probe.query);
        if let Ok(r) = &result {
            span.tag(strategy_tag(r));
        }
        let elapsed = span.end();
        match result {
            Ok(result) => {
                check_probe(
                    probe,
                    &result,
                    &self.edges,
                    snapshot.epoch(),
                    self.acked_epoch,
                    out,
                );
                if trace::enabled() {
                    traced.tally.add(&result);
                }
                Ok(elapsed)
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("ingest: probe failed: {e}");
                Err(())
            }
        }
    }

    fn checkpoint(&mut self, out: &mut Outcome, traced: &mut Traced) -> bool {
        out.attempted += 1;
        let span = trace::span("store.checkpoint");
        let result = self.writer().checkpoint_incremental();
        span.end();
        match result {
            Ok(c) => {
                if trace::enabled() {
                    traced.checkpoint_bytes.push(c.bytes_written as f64);
                }
                true
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("ingest: checkpoint failed: {e}");
                false
            }
        }
    }
}

fn check_probe(
    probe: &Probe,
    result: &QueryResult,
    edges: &Edges,
    epoch: u64,
    acked: u64,
    out: &mut Outcome,
) {
    let got: BTreeSet<String> = result
        .answers
        .iter()
        .filter_map(|a| a.binding("X").map(ToString::to_string))
        .collect();
    let want = edges.expected(probe.node);
    if epoch != acked || got != want {
        out.wrong(format!(
            "linked(p{}, X) at epoch {epoch} (acknowledged {acked}) answered {} nodes, expected {}",
            probe.node,
            got.len(),
            want.len()
        ));
    }
}

/// Set-up: cold build of the preload, fresh durable store (baseline
/// checkpoint), warm-up batches and probes.
fn setup(
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    preload: &[(usize, usize)],
    dormant: &[(usize, usize)],
    probes: &[Probe],
    out: &mut Outcome,
) -> Option<Store> {
    let _ = std::fs::remove_dir_all(&dir);
    let mut text = String::from("linked(X, Y) :- edge(X, Y).\nlinked(X, Y) :- edge(Y, X).\n");
    for &e in preload {
        text.push_str(&edge_text(e));
        text.push_str(".\n");
    }
    let program = parse_program(&text).expect("generated program parses");
    let db = HiLogDb::builder()
        .program(program)
        .options(eval_options())
        .build();
    let config = StoreConfig::new(&dir).fsync(FsyncPolicy::PerBatch).io(io);
    let (writer, handle, _) = match PersistentWriter::open(&config, db) {
        Ok(opened) => opened,
        Err(e) => {
            out.wrong(format!(
                "cannot open a fresh store in {}: {e}",
                dir.display()
            ));
            return None;
        }
    };
    let mut store = Store {
        config,
        writer: Some(writer),
        handle,
        edges: Edges {
            live: preload.iter().copied().collect(),
            set: preload.iter().copied().collect(),
            dormant: dormant.iter().copied().collect(),
        },
        batches: 0,
        acked_epoch: 0,
    };
    let mut traced = Traced::default();
    for i in 0..WARMUP_BATCHES {
        store.apply_next(out, &mut traced).ok()?;
        store
            .probe(&probes[i % probes.len()], out, &mut traced)
            .ok()?;
    }
    Some(store)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.config.push(format!(
        "ingest: one client thread, closed loop; durable PersistentWriter, fsync=PerBatch, eval_threads=1; \
         store of {PRELOAD} edge facts over {NODES} nodes; {BATCH}-fact batches alternating assert-dormant / retract-oldest over {} cycling edges; \
         probe after every batch, incremental checkpoint every {CHECKPOINT_EVERY} batches; restarts over a 1-record WAL tail",
        PRELOAD + DORMANT
    ));
    let workload = durability_workload(
        &DurabilityWorkloadConfig {
            facts: PRELOAD + DORMANT,
            nodes: NODES,
            batch_size: BATCH,
            probes: 32,
        },
        args.seed,
    );
    let all: Vec<(usize, usize)> = workload
        .batches
        .iter()
        .flatten()
        .map(|f| parse_edge(f))
        .collect();
    let (preload, dormant) = all.split_at(PRELOAD);
    let probes: Vec<Probe> = workload
        .probes
        .iter()
        .map(|text| {
            let node = text
                .strip_prefix("?- linked(p")
                .and_then(|s| s.split_once(','))
                .and_then(|(n, _)| n.parse().ok())
                .expect("generator renders ?- linked(pK, X).");
            Probe {
                node,
                query: parse_query(text).expect("generated probe parses"),
            }
        })
        .collect();

    let (timing_io, io_bytes) = TimingIo::new();
    let io: Arc<dyn StoreIo> = if args.trace {
        Arc::new(timing_io)
    } else {
        Arc::new(hilog_store::RealIo::new())
    };
    let base = crate::scratch_dir().join(format!("ingest-{}", std::process::id()));
    let mut calib = Calibration::new(!args.trace);

    alloc::reset_peak();
    let mut setups = Vec::new();
    let mut store = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition's store before building the next.
        drop(store.take());
        let start = cpu_ms();
        let built = setup(
            base.join(format!("setup-{rep}")),
            Arc::clone(&io),
            preload,
            dormant,
            &probes,
            &mut out,
        );
        setups.push((cpu_ms() - start) / 1e3);
        calib.probe();
        if built.is_none() {
            out.wrong("set-up failed".into());
            let _ = std::fs::remove_dir_all(&base);
            return out;
        }
        store = built;
    }
    let mut store = store.expect("set-up ran at least once");
    let mut heap = Heap {
        setup_peak: alloc::peak(),
        ..Heap::default()
    };

    alloc::reset_peak();
    let seconds = args.seconds;
    let stream_budget = Duration::from_secs_f64(seconds * STREAM_SHARE);
    let traced_from = if args.trace {
        stream_budget / 2
    } else {
        stream_budget
    };
    let mut traced = Traced::default();
    let mut batch_ms = Samples::default();
    let mut batch_cpu_ms = Samples::default();
    let mut untraced_cycle = Samples::default();
    let mut traced_cycle = Samples::default();
    let mut restart_ms = Samples::default();
    let mut restart_cpu_ms = Samples::default();
    let mut facts = 0usize;
    let mut root = None;
    let mut written_at_trace_start = 0;
    let mut probes_at_trace_start = (0, 0);
    let start = Instant::now();
    let stream_cpu_start = cpu_ms();
    let probe_start = calib.spent_ms();
    let mut i = 0usize;
    while start.elapsed() < stream_budget {
        if args.trace && root.is_none() && start.elapsed() >= traced_from {
            trace::set_enabled(true);
            written_at_trace_start = io_bytes.get().0;
            probes_at_trace_start = hilog_engine::horn::probe_counters();
            root = Some(trace::span("bench.phase"));
        }
        // One request id per batch cycle (batch, probe, checkpoint).
        trace::set_request(store.batches as u64);
        let cycle = cpu_ms();
        match store.apply_next(&mut out, &mut traced) {
            Ok((wall, cpu)) => {
                batch_ms.push(wall);
                batch_cpu_ms.push(cpu);
                facts += BATCH;
            }
            Err(()) => {
                batch_ms.fail();
                batch_cpu_ms.fail();
                break;
            }
        }
        if store
            .probe(&probes[i % probes.len()], &mut out, &mut traced)
            .is_err()
        {
            break;
        }
        i += 1;
        if i.is_multiple_of(CHECKPOINT_EVERY) && !store.checkpoint(&mut out, &mut traced) {
            break;
        }
        let cycle_ms = cpu_ms() - cycle;
        if root.is_some() {
            traced_cycle.push(cycle_ms);
        } else {
            untraced_cycle.push(cycle_ms);
        }
        calib.tick();
    }
    let stream_wall = start.elapsed().as_secs_f64();
    let stream_cpu = (cpu_ms() - stream_cpu_start - (calib.spent_ms() - probe_start)) / 1e3;

    // Restarts: checkpoint, one batch (the WAL tail), drop, reopen, answer.
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget && out.failed == 0 {
        trace::set_request(store.batches as u64);
        if !store.checkpoint(&mut out, &mut traced) {
            break;
        }
        if store.apply_next(&mut out, &mut traced).is_err() {
            break;
        }
        drop(store.writer.take());
        let probe = &probes[store.batches % probes.len()];
        out.attempted += 1;
        let restart = Instant::now();
        let restart_cpu = cpu_ms();
        let (_, read_before) = io_bytes.get();
        let span = trace::span("store.open");
        let db = HiLogDb::builder().options(eval_options()).build();
        let opened = PersistentWriter::open(&store.config, db);
        span.end();
        let (_, read_after) = io_bytes.get();
        let (writer, handle, report) = match opened {
            Ok(opened) => opened,
            Err(e) => {
                out.failed += 1;
                restart_ms.fail();
                restart_cpu_ms.fail();
                eprintln!("ingest: reopen failed: {e}");
                break;
            }
        };
        if writer.epoch() != store.acked_epoch {
            out.wrong(format!(
                "restart recovered epoch {}, last acknowledged {}",
                writer.epoch(),
                store.acked_epoch
            ));
        }
        store.writer = Some(writer);
        store.handle = handle;
        let first = store.probe(probe, &mut out, &mut traced);
        let elapsed = restart.elapsed();
        let cpu = cpu_ms() - restart_cpu;
        match first {
            Ok(_) => {
                restart_ms.push(ms(elapsed));
                restart_cpu_ms.push(cpu);
            }
            Err(()) => {
                restart_ms.fail();
                restart_cpu_ms.fail();
                break;
            }
        }
        if trace::enabled() {
            traced.replayed.push(report.replayed_records as f64);
            traced.read_bytes_on_open += read_after - read_before;
        }
        for k in 1..=RESTART_CHECKS {
            let _ = store.probe(
                &probes[(store.batches + k) % probes.len()],
                &mut out,
                &mut traced,
            );
        }
        calib.tick();
    }
    heap.end_timed();

    if let Some(root) = root {
        root.end();
        trace::set_enabled(false);
        let probes_after = hilog_engine::horn::probe_counters();
        let records = trace::records();
        let view = SpanView::new(&records);
        let root = view
            .named("bench.phase")
            .last()
            .expect("phase span recorded")
            .clone();
        common_span_layers(&mut out, &view, &root, "facts");
        traced.tally.report(&mut out);
        let apply = view.samples("store.apply_batch", None);
        out.layer(
            "store.apply_batch_ms.p50",
            apply.percentile(50.0),
            apply.len(),
        );
        out.layer(
            "store.apply_batch_ms.p90",
            apply.percentile(90.0),
            apply.len(),
        );
        let mut apply_self = Samples::default();
        for r in view.named("store.apply_batch") {
            apply_self.push(view.self_ms(r));
        }
        out.layer(
            "engine.apply_self_ms.p50",
            apply_self.percentile(50.0),
            apply_self.len(),
        );
        let ckpt = view.samples("store.checkpoint", None);
        out.layer("store.checkpoint_ms.p50", ckpt.percentile(50.0), ckpt.len());
        out.layer(
            "store.checkpoint_bytes",
            median(&traced.checkpoint_bytes),
            traced.checkpoint_bytes.len(),
        );
        let open = view.samples("store.open", None);
        out.layer("store.open_ms.p50", open.percentile(50.0), open.len());
        out.layer(
            "store.replayed_records",
            median(&traced.replayed),
            traced.replayed.len(),
        );
        let batches = apply.len();
        let per_batch = |x: f64| {
            if batches == 0 {
                0.0
            } else {
                x / batches as f64
            }
        };
        let syncs = view.samples("io.sync", None);
        out.layer("io.sync.count", per_batch(syncs.len() as f64), batches);
        out.layer("io.sync_ms.total", per_batch(syncs.sum()), batches);
        let written = io_bytes.get().0 - written_at_trace_start;
        out.layer("io.write_bytes", per_batch(written as f64), batches);
        let amplification = if traced.fact_bytes == 0 {
            0.0
        } else {
            written as f64 / traced.fact_bytes as f64
        };
        out.layer("io.write_amplification", amplification, batches);
        let opens = open.len();
        let read_per_open = if opens == 0 {
            0.0
        } else {
            traced.read_bytes_on_open as f64 / opens as f64
        };
        out.layer("io.read_bytes", read_per_open, opens);
        let probes_n = view.named("engine.query").count();
        let per_probe = |x: usize| {
            if probes_n == 0 {
                0.0
            } else {
                x as f64 / probes_n as f64
            }
        };
        out.layer(
            "engine.groundings",
            per_probe(traced.tally.groundings),
            probes_n,
        );
        out.layer(
            "engine.index_probes",
            per_probe(probes_after.0 - probes_at_trace_start.0),
            probes_n,
        );
        out.layer(
            "engine.index_fallback_scans",
            per_probe(probes_after.1 - probes_at_trace_start.1),
            probes_n,
        );
        let overhead = overhead(&traced_cycle, &untraced_cycle);
        out.layer("trace.overhead", overhead, traced_cycle.len());
        heap.report(&mut out, true);
    } else {
        out.metric(
            "setup_s",
            "setup_s",
            calib.time(median(&setups)),
            "s",
            setups.len(),
        );
        out.metric(
            "batch_cpu_p50_ms",
            "op_cpu_p50_ms",
            calib.time(batch_cpu_ms.percentile(50.0)),
            "ms",
            batch_cpu_ms.len(),
        );
        out.metric(
            "batch_cpu_p90_ms",
            "op_cpu_tail_ms",
            calib.time(batch_cpu_ms.percentile(90.0)),
            "ms",
            batch_cpu_ms.len(),
        );
        out.metric(
            "restart_cpu_p50_ms",
            "aux_cpu_p50_ms",
            calib.time(restart_cpu_ms.percentile(50.0)),
            "ms",
            restart_cpu_ms.len(),
        );
        let per_cpu_s = if stream_cpu > 0.0 {
            facts as f64 / stream_cpu
        } else {
            0.0
        };
        out.metric(
            "facts_per_cpu_s",
            "ops_per_cpu_s",
            calib.rate(per_cpu_s),
            "1/s",
            batch_cpu_ms.len(),
        );
        heap.report(&mut out, false);
        out.config.push(format!(
            "ingest: {} batches in {stream_wall:.2} s wall, {stream_cpu:.2} s CPU (p90 has {} samples beyond it), \
             {} restarts (p50 has {} beyond); as measured: batch p50/p90 {:.3}/{:.3} ms CPU, {:.3}/{:.3} ms wall, \
             restart p50 {:.3} ms CPU, {:.3} ms wall, {:.0} facts per wall second",
            batch_cpu_ms.len(),
            batch_cpu_ms.beyond(90.0),
            restart_cpu_ms.len(),
            restart_cpu_ms.beyond(50.0),
            batch_cpu_ms.percentile(50.0),
            batch_cpu_ms.percentile(90.0),
            batch_ms.percentile(50.0),
            batch_ms.percentile(90.0),
            restart_cpu_ms.percentile(50.0),
            restart_ms.percentile(50.0),
            if stream_wall > 0.0 { facts as f64 / stream_wall } else { 0.0 },
        ));
        out.config.push(calib.describe());
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
    out
}
