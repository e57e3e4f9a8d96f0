//! `serve`: HTTP reads and writes against an in-process `hilog-server`.
//!
//! The request stream comes from `serving_workload`: win/move over a
//! random DAG, with 8-fact `/assert` / `/retract` batches toggling edges of
//! a churn pool, one write per 20 reads.  One client thread runs a closed
//! loop.  Set-up binds the server and warms it with one pass over the
//! distinct reads, so warm reads measure mostly the HTTP front door and
//! reads just after a write measure re-derivation.  The client tracks the
//! edge set at every epoch, and every answer is checked against the
//! retrograde oracle at the epoch the response names.

use crate::calib::Calibration;
use crate::http::{Client, Reply};
use crate::oracle;
use crate::report::{
    common_span_layers, overhead, strategy_tag, Heap, Outcome, QueryTally, SpanView,
};
use crate::stats::{cpu_ms, median, Samples};
use crate::trace::{self, ms};
use crate::{alloc, eval_options, Args};
use hilog_core::Truth;
use hilog_engine::{HiLogDb, QueryResult};
use hilog_server::{Server, ServerConfig, ServerHandle};
use hilog_store::{Op, PersistentWriter};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::{random_dag, serving_workload, ServingWorkloadConfig, WriteBatch};
use std::collections::{BTreeSet, HashMap};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Positions of the game.
const NODES: usize = 400;
/// Average out-degree of the base DAG (the generator's default).
const OUT_DEGREE: f64 = 2.0;
/// Churn-pool edges the writes toggle.
const CHURN: usize = 200;
/// Facts per write.
const WRITE_FACTS: usize = 8;
/// Reads between two writes.
const READS_PER_WRITE: usize = 20;
/// Generated reads (cycled) and writes (never cycled: each toggles edges
/// relative to the state the previous ones left).
const READS: usize = 4096;
const WRITES: usize = 20_000;
/// Server worker threads, fitted to a 2-core machine.
const WORKERS: usize = 2;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy)]
enum Read {
    Open,
    Bound(usize),
    Moves(usize),
}

fn classify(query: &str) -> Read {
    let node = |s: &str| {
        s.split(|c: char| !c.is_ascii_digit())
            .find(|d| !d.is_empty())
            .and_then(|d| d.parse().ok())
            .expect("generated query names a node p<i>")
    };
    if query == "?- winning(X)." {
        Read::Open
    } else if let Some(rest) = query.strip_prefix("?- winning(p") {
        Read::Bound(node(rest))
    } else if let Some(rest) = query.strip_prefix("?- move(p") {
        Read::Moves(node(rest))
    } else {
        panic!("unexpected generated query {query}")
    }
}

fn parse_move(fact: &str) -> (usize, usize) {
    let inner = fact
        .strip_prefix("move(p")
        .and_then(|s| s.strip_suffix(')'))
        .expect("generator renders move(pU, pV)");
    let (u, v) = inner
        .split_once(", p")
        .expect("generator renders move(pU, pV)");
    (
        u.parse().expect("node index"),
        v.parse().expect("node index"),
    )
}

/// The client's knowledge of the published state.
#[derive(Clone)]
struct State {
    epoch: u64,
    edges: BTreeSet<(usize, usize)>,
    labels: Vec<Truth>,
}

impl State {
    fn new(edges: BTreeSet<(usize, usize)>) -> State {
        let labels = oracle::solve(NODES, &edges);
        State {
            epoch: 0,
            edges,
            labels,
        }
    }

    fn apply(&mut self, batch: &WriteBatch) {
        for fact in &batch.facts {
            let edge = parse_move(fact);
            if batch.assert {
                self.edges.insert(edge);
            } else {
                self.edges.remove(&edge);
            }
        }
        self.labels = oracle::solve(NODES, &self.edges);
        self.epoch += 1;
    }

    /// The expected `(binding, truth)` rows and overall truth of `read`.
    fn expected(&self, read: Read) -> (BTreeSet<(String, String)>, &'static str) {
        let name = |t: Truth| match t {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Undefined => "undefined",
        };
        match read {
            Read::Open => {
                let rows: BTreeSet<(String, String)> = self
                    .labels
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t != Truth::False)
                    .map(|(p, &t)| (format!("p{p}"), name(t).to_string()))
                    .collect();
                let truth = if self.labels.contains(&Truth::True) {
                    "true"
                } else if self.labels.contains(&Truth::Undefined) {
                    "undefined"
                } else {
                    "false"
                };
                (rows, truth)
            }
            Read::Bound(p) => {
                let t = name(self.labels[p]);
                let rows = if t == "false" {
                    BTreeSet::new()
                } else {
                    [(String::new(), t.to_string())].into_iter().collect()
                };
                (rows, t)
            }
            Read::Moves(p) => {
                let rows: BTreeSet<(String, String)> = self
                    .edges
                    .range((p, 0)..(p + 1, 0))
                    .map(|&(_, v)| (format!("p{v}"), "true".to_string()))
                    .collect();
                let truth = if rows.is_empty() { "false" } else { "true" };
                (rows, truth)
            }
        }
    }
}

/// An answer as the checks see it, from HTTP or in-process.
struct Answer {
    epoch: u64,
    truth: String,
    rows: BTreeSet<(String, String)>,
}

fn answer_from_json(body: &str) -> Option<Answer> {
    let v = serde_json::from_str(body).ok()?;
    let result = v.get("result")?;
    let mut rows = BTreeSet::new();
    for a in result.get("answers")?.as_array()? {
        let binding = a
            .get("bindings")?
            .get("X")
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string();
        rows.insert((binding, a.get("truth")?.as_str()?.to_string()));
    }
    Some(Answer {
        epoch: v.get("epoch")?.as_u64()?,
        truth: result.get("truth")?.as_str()?.to_string(),
        rows,
    })
}

fn answer_from_result(epoch: u64, result: &QueryResult) -> Answer {
    let rows = result
        .answers
        .iter()
        .map(|a| {
            let binding = a.binding("X").map(ToString::to_string).unwrap_or_default();
            (binding, a.truth.to_string())
        })
        .collect();
    Answer {
        epoch,
        truth: result.truth.to_string(),
        rows,
    }
}

fn check(query: &str, read: Read, answer: &Answer, state: &State, out: &mut Outcome) {
    let (rows, truth) = state.expected(read);
    if answer.epoch != state.epoch || answer.truth != truth || answer.rows != rows {
        out.wrong(format!(
            "{query} at epoch {} (client expects epoch {}) answered {} with {} rows, oracle says {truth} with {} rows",
            answer.epoch,
            state.epoch,
            answer.truth,
            answer.rows.len(),
            rows.len()
        ));
    }
}

fn body_for_query(query: &str) -> String {
    format!("{{\"query\": \"{query}\"}}")
}

fn body_for_batch(batch: &WriteBatch) -> String {
    let facts: Vec<String> = batch.facts.iter().map(|f| format!("\"{f}\"")).collect();
    format!("{{\"facts\": [{}]}}", facts.join(", "))
}

struct Inputs {
    text: String,
    base: BTreeSet<(usize, usize)>,
    reads: Vec<(String, Read)>,
    warmup: Vec<usize>,
    writes: Vec<WriteBatch>,
}

fn inputs(seed: u64) -> Inputs {
    let workload = serving_workload(
        &ServingWorkloadConfig {
            nodes: NODES,
            avg_out_degree: OUT_DEGREE,
            churn_pool: CHURN,
            batch_size: WRITE_FACTS,
            write_batches: WRITES,
            queries: READS,
        },
        seed,
    );
    // The generator's base graph, rendered as program text so the server
    // is built from text like any deployment.
    let base: BTreeSet<(usize, usize)> = random_dag(NODES, OUT_DEGREE, seed).into_iter().collect();
    let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
    for (u, v) in &base {
        text.push_str(&format!("move(p{u}, p{v}).\n"));
    }
    assert_eq!(
        workload.program.len(),
        base.len() + 1,
        "the rendered program must be the generator's"
    );
    let reads: Vec<(String, Read)> = workload
        .queries
        .into_iter()
        .map(|q| {
            let read = classify(&q);
            (q, read)
        })
        .collect();
    let mut seen = BTreeSet::new();
    let warmup = (0..reads.len())
        .filter(|&i| seen.insert(reads[i].0.clone()))
        .collect();
    Inputs {
        text,
        base,
        reads,
        warmup,
        writes: workload.batches,
    }
}

struct Running {
    handle: ServerHandle,
    thread: JoinHandle<()>,
}

impl Running {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked");
    }
}

/// Set-up: build the program from text, bind and start the server, warm it
/// with one pass over the distinct reads.  Returns the running server and
/// the warm-up replies (checked by the caller, outside the timing).
fn setup(inputs: &Inputs) -> Result<(Running, Client, Vec<Reply>), String> {
    let program = parse_program(&inputs.text).map_err(|e| e.to_string())?;
    let db = HiLogDb::builder()
        .program(program)
        .options(eval_options())
        .build();
    let config = ServerConfig::ephemeral().workers(WORKERS).eval_threads(1);
    let server = Server::bind(config, db).map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    let mut client = Client::new(handle.addr());
    let running = Running { handle, thread };
    let mut replies = Vec::with_capacity(inputs.warmup.len());
    for &i in &inputs.warmup {
        match client.send("POST", "/query", &body_for_query(&inputs.reads[i].0)) {
            Ok(reply) => replies.push(reply),
            Err(e) => {
                running.stop();
                return Err(format!("warm-up read failed: {e}"));
            }
        }
    }
    Ok((running, client, replies))
}

/// One logged operation of the traced phase, for the in-process replay.
#[derive(Clone, Copy)]
enum Logged {
    Read(usize),
    Write(usize),
}

/// The closed-loop request stream over HTTP.
struct Stream<'a> {
    inputs: &'a Inputs,
    client: Client,
    state: State,
    next_read: usize,
    next_write: usize,
    op: u64,
    /// Wall time of each exchange.
    read_ms: Samples,
    write_ms: Samples,
    /// Process CPU time of each exchange: the client's and the server's.
    read_cpu_ms: Samples,
    write_cpu_ms: Samples,
    /// Exchange time per traced read, by request id.
    exchanges: HashMap<u64, f64>,
    log: Vec<(u64, Logged)>,
}

impl Stream<'_> {
    /// Sends the next operation; `false` once the stream is exhausted or the
    /// server failed.
    fn step(&mut self, out: &mut Outcome) -> bool {
        self.op += 1;
        trace::set_request(self.op);
        out.attempted += 1;
        let tracing = trace::enabled();
        if self.op.is_multiple_of(READS_PER_WRITE as u64 + 1) {
            let Some(batch) = self.inputs.writes.get(self.next_write) else {
                out.attempted -= 1;
                return false;
            };
            let index = self.next_write;
            self.next_write += 1;
            let path = if batch.assert { "/assert" } else { "/retract" };
            let body = body_for_batch(batch);
            let cpu_start = cpu_ms();
            let span = trace::span("server.write_exchange");
            let reply = self.client.send("POST", path, &body);
            let elapsed = ms(span.end());
            let cpu = cpu_ms() - cpu_start;
            let acked = match &reply {
                Ok(r) if r.status == 200 => serde_json::from_str(&r.body).ok().and_then(|v| {
                    let epoch = v.get("epoch")?.as_u64()?;
                    let applied = v.get("applied")?.as_u64()?;
                    let missing = v.get("missing")?.as_array()?.len();
                    Some((epoch, applied, missing))
                }),
                _ => None,
            };
            let Some((epoch, applied, missing)) = acked else {
                out.failed += 1;
                self.write_ms.fail();
                self.write_cpu_ms.fail();
                eprintln!(
                    "serve: write failed: {:?}",
                    reply.map(|r| (r.status, r.body))
                );
                return false;
            };
            self.write_ms.push(elapsed);
            self.write_cpu_ms.push(cpu);
            self.state.apply(batch);
            if epoch != self.state.epoch || applied as usize != batch.facts.len() || missing != 0 {
                out.wrong(format!(
                    "{path} acknowledged epoch {epoch} applied {applied} missing {missing}, expected epoch {} applied {}",
                    self.state.epoch,
                    batch.facts.len()
                ));
            }
            if tracing {
                self.log.push((self.op, Logged::Write(index)));
            }
        } else {
            let index = self.next_read % self.inputs.reads.len();
            self.next_read += 1;
            let (query, read) = &self.inputs.reads[index];
            let body = body_for_query(query);
            let cpu_start = cpu_ms();
            let span = trace::span("server.read_exchange");
            let reply = self.client.send("POST", "/query", &body);
            let elapsed = ms(span.end());
            let cpu = cpu_ms() - cpu_start;
            let answer = match &reply {
                Ok(r) if r.status == 200 => answer_from_json(&r.body),
                _ => None,
            };
            let Some(answer) = answer else {
                out.failed += 1;
                self.read_ms.fail();
                self.read_cpu_ms.fail();
                eprintln!(
                    "serve: read failed: {:?}",
                    reply.map(|r| (r.status, r.body))
                );
                return false;
            };
            self.read_ms.push(elapsed);
            self.read_cpu_ms.push(cpu);
            check(query, *read, &answer, &self.state, out);
            if tracing {
                self.exchanges.insert(self.op, elapsed);
                self.log.push((self.op, Logged::Read(index)));
            }
        }
        true
    }
}

/// Replays the warm-up and the logged operations in-process through
/// `PersistentWriter::in_memory` and a `SnapshotHandle`, checking every
/// answer; returns the in-process time of each logged read by request id.
fn replay(
    inputs: &Inputs,
    log: &[(u64, Logged)],
    budget: Duration,
    tally: &mut QueryTally,
    out: &mut Outcome,
) -> HashMap<u64, f64> {
    let program = parse_program(&inputs.text).expect("program parsed in set-up");
    let db = HiLogDb::builder()
        .program(program)
        .options(eval_options())
        .build();
    let (mut writer, handle) = PersistentWriter::in_memory(db);
    let mut state = State::new(inputs.base.clone());
    let run_read = |index: usize, state: &State, out: &mut Outcome, tally: &mut QueryTally| {
        let (text, read) = &inputs.reads[index];
        let span = trace::span("bench.inproc_read");
        let mut parse = trace::span("syntax.parse");
        parse.tag("query");
        parse.bytes(text.len() as u64);
        let query = parse_query(text).expect("generated query parses");
        parse.end();
        let mut q = trace::span("engine.query");
        let snapshot = handle.current();
        let result = snapshot.query(&query);
        if let Ok(r) = &result {
            q.tag(strategy_tag(r));
        }
        q.end();
        let elapsed = ms(span.end());
        match result {
            Ok(result) => {
                check(
                    text,
                    *read,
                    &answer_from_result(snapshot.epoch(), &result),
                    state,
                    out,
                );
                tally.add(&result);
            }
            Err(e) => out.wrong(format!("in-process replay of {text} failed: {e}")),
        }
        elapsed
    };
    trace::set_enabled(false);
    let mut scratch = QueryTally::default();
    for &i in &inputs.warmup {
        run_read(i, &state, out, &mut scratch);
    }
    trace::set_enabled(true);
    let start = Instant::now();
    let mut inproc = HashMap::new();
    for &(op, logged) in log {
        if start.elapsed() > budget {
            break;
        }
        trace::set_request(op);
        match logged {
            Logged::Read(i) => {
                inproc.insert(op, run_read(i, &state, out, tally));
            }
            Logged::Write(i) => {
                let batch = &inputs.writes[i];
                let ops: Vec<Op> = batch
                    .facts
                    .iter()
                    .map(|f| {
                        let term = parse_term(f).expect("generated fact parses");
                        if batch.assert {
                            Op::AssertFact(term)
                        } else {
                            Op::RetractFact(term)
                        }
                    })
                    .collect();
                let span = trace::span("bench.inproc_write");
                let result = writer.apply_batch(&ops);
                span.end();
                if let Err(e) = result {
                    out.wrong(format!("in-process replay of a write failed: {e}"));
                }
                state.apply(batch);
            }
        }
    }
    trace::set_enabled(false);
    inproc
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.config.push(format!(
        "serve: one client thread, closed loop, own HTTP/1.1 client (keep-alive when allowed); in-process hilog-server, \
         workers={WORKERS}, eval_threads=1, in-memory store; win/move over a {NODES}-node DAG, churn pool {CHURN}, \
         {WRITE_FACTS}-fact writes, one write per {READS_PER_WRITE} reads"
    ));
    let inputs = inputs(args.seed);
    let mut calib = Calibration::new(!args.trace);

    alloc::reset_peak();
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = cpu_ms();
        let built = setup(&inputs);
        setups.push((cpu_ms() - start) / 1e3);
        calib.probe();
        let (running, client, replies) = match built {
            Ok(built) => built,
            Err(e) => {
                out.wrong(format!("set-up failed: {e}"));
                return out;
            }
        };
        let state = State::new(inputs.base.clone());
        for (&i, reply) in inputs.warmup.iter().zip(&replies) {
            let (query, read) = &inputs.reads[i];
            match answer_from_json(&reply.body).filter(|_| reply.status == 200) {
                Some(answer) => check(query, *read, &answer, &state, &mut out),
                None => out.wrong(format!(
                    "warm-up {query} answered {} {}",
                    reply.status, reply.body
                )),
            }
        }
        if rep + 1 < SETUP_REPS {
            running.stop();
        } else {
            kept = Some((running, client));
        }
    }
    let (running, client) = kept.expect("set-up ran at least once");
    let mut heap = Heap {
        setup_peak: alloc::peak(),
        ..Heap::default()
    };

    alloc::reset_peak();
    let mut stream = Stream {
        inputs: &inputs,
        client,
        state: State::new(inputs.base.clone()),
        next_read: inputs.warmup.len(),
        next_write: 0,
        op: 0,
        read_ms: Samples::default(),
        write_ms: Samples::default(),
        read_cpu_ms: Samples::default(),
        write_cpu_ms: Samples::default(),
        exchanges: HashMap::new(),
        log: Vec::new(),
    };
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let cpu_start = cpu_ms();
    let probe_start = calib.spent_ms();
    let mut traced_reads = Samples::default();
    let mut connects = (0, 0);
    let mut logged = Vec::new();
    if args.trace {
        // Traced phase first (its stream is what the in-process replay
        // repeats from the warm state), then an untraced phase for the
        // overhead figure, then the replay.
        trace::set_enabled(true);
        let root = trace::span("bench.phase");
        let c0 = (stream.client.connects, stream.client.requests);
        while start.elapsed() < seconds.mul_f64(0.45) && stream.step(&mut out) {}
        connects = (stream.client.connects - c0.0, stream.client.requests - c0.1);
        root.end();
        trace::set_enabled(false);
        traced_reads = std::mem::take(&mut stream.read_cpu_ms);
        logged = std::mem::take(&mut stream.log);
        while start.elapsed() < seconds.mul_f64(0.7) && stream.step(&mut out) {}
    } else {
        while start.elapsed() < seconds && stream.step(&mut out) {
            calib.tick();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = (cpu_ms() - cpu_start - (calib.spent_ms() - probe_start)) / 1e3;

    let stats_reply = stream.client.send("GET", "/stats", "");
    let stats = match &stats_reply {
        Ok(r) if r.status == 200 => serde_json::from_str(&r.body).ok(),
        _ => None,
    };
    let counter = |name: &str| {
        stats
            .as_ref()
            .and_then(|v: &serde_json::Value| v.get(name).and_then(|x| x.as_u64()))
    };
    let (shed, timeouts) = (counter("shed_requests"), counter("query_timeouts"));
    if shed.is_none() || timeouts.is_none() {
        out.wrong("GET /stats did not report shed_requests and query_timeouts".into());
    }
    heap.end_timed();
    running.stop();

    if args.trace {
        let mut tally = QueryTally::default();
        let probes_before = hilog_engine::horn::probe_counters();
        let inproc = replay(&inputs, &logged, seconds.mul_f64(0.3), &mut tally, &mut out);
        let probes_after = hilog_engine::horn::probe_counters();
        let records = trace::records();
        let view = SpanView::new(&records);
        let root = view
            .named("bench.phase")
            .last()
            .expect("phase span recorded")
            .clone();
        common_span_layers(&mut out, &view, &root, "query");
        tally.report(&mut out);
        let reads = view.samples("server.read_exchange", None);
        out.layer(
            "server.read_exchange_ms.p50",
            reads.percentile(50.0),
            reads.len(),
        );
        out.layer(
            "server.read_exchange_ms.p99",
            reads.percentile(99.0),
            reads.len(),
        );
        let writes = view.samples("server.write_exchange", None);
        out.layer(
            "server.write_exchange_ms.p50",
            writes.percentile(50.0),
            writes.len(),
        );
        let mut self_ms = Samples::default();
        for (op, http) in &stream.exchanges {
            if let Some(local) = inproc.get(op) {
                self_ms.push(http - local);
            }
        }
        out.layer(
            "server.self_ms.p50",
            self_ms.percentile(50.0),
            self_ms.len(),
        );
        let per_req = if connects.1 == 0 {
            0.0
        } else {
            connects.0 as f64 / connects.1 as f64
        };
        out.layer("server.connects_per_req", per_req, connects.1 as usize);
        out.layer("server.shed", shed.unwrap_or(0) as f64, 1);
        out.layer("server.timeouts", timeouts.unwrap_or(0) as f64, 1);
        let replayed = inproc.len();
        let per_read = |x: usize| {
            if replayed == 0 {
                0.0
            } else {
                x as f64 / replayed as f64
            }
        };
        out.layer("engine.groundings", per_read(tally.groundings), replayed);
        out.layer(
            "engine.index_probes",
            per_read(probes_after.0 - probes_before.0),
            replayed,
        );
        out.layer(
            "engine.index_fallback_scans",
            per_read(probes_after.1 - probes_before.1),
            replayed,
        );
        out.layer(
            "trace.overhead",
            overhead(&traced_reads, &stream.read_cpu_ms),
            traced_reads.len(),
        );
        heap.report(&mut out, true);
    } else {
        let reads = &stream.read_cpu_ms;
        let writes = &stream.write_cpu_ms;
        out.metric(
            "setup_s",
            "setup_s",
            calib.time(median(&setups)),
            "s",
            setups.len(),
        );
        out.metric(
            "read_cpu_p50_ms",
            "op_cpu_p50_ms",
            calib.time(reads.percentile(50.0)),
            "ms",
            reads.len(),
        );
        out.metric(
            "read_cpu_p99_ms",
            "op_cpu_tail_ms",
            calib.time(reads.percentile(99.0)),
            "ms",
            reads.len(),
        );
        out.metric(
            "write_cpu_p50_ms",
            "aux_cpu_p50_ms",
            calib.time(writes.percentile(50.0)),
            "ms",
            writes.len(),
        );
        let ops = reads.len() + writes.len();
        let per_cpu = if cpu > 0.0 { ops as f64 / cpu } else { 0.0 };
        out.metric(
            "reqs_per_cpu_s",
            "ops_per_cpu_s",
            calib.rate(per_cpu),
            "1/s",
            ops,
        );
        heap.report(&mut out, false);
        out.config.push(format!(
            "serve: {} reads and {} writes in {wall:.2} s wall, {cpu:.2} s CPU; read p99 has {} samples beyond it; \
             as measured: read p50/p99 {:.4}/{:.3} ms CPU, {:.4}/{:.3} ms wall, write p50 {:.3} ms CPU, {:.3} ms wall; \
             {} connects for {} requests",
            reads.len(),
            writes.len(),
            reads.beyond(99.0),
            reads.percentile(50.0),
            reads.percentile(99.0),
            stream.read_ms.percentile(50.0),
            stream.read_ms.percentile(99.0),
            writes.percentile(50.0),
            stream.write_ms.percentile(50.0),
            stream.client.connects,
            stream.client.requests
        ));
        out.config.push(calib.describe());
    }
    out
}
