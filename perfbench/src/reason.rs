//! `reason`: the paper's constructions, cold and in-process.
//!
//! Each program is the HiLog win/move program of Example 6.3 over five
//! games: two random DAGs, a layered game, a deep chain, and a DAG with
//! back edges whose cycles leave positions undefined (so the program is not
//! modularly stratified and the magic-sets route falls back to the
//! well-founded model).  Per program the benchmark runs text → `parse_program`
//! → `HiLogDb` → `ground_program` → `model` → `check_modular` → the query
//! list, and checks every answer against the retrograde oracle.

use crate::calib::Calibration;
use crate::oracle;
use crate::report::{
    common_span_layers, overhead, strategy_tag, Heap, Outcome, QueryTally, SpanView,
};
use crate::stats::{cpu_ms, median, Samples};
use crate::trace::{self, ms};
use crate::{alloc, eval_options, Args};
use hilog_core::Truth;
use hilog_engine::{HiLogDb, QueryResult};
use hilog_syntax::{parse_program, parse_query};
use hilog_workloads::{chain, edges_to_facts, layered_game_graph, random_dag};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Positions per game.
const POSITIONS: usize = 120;
/// Distinct programs generated per run; the timed phase cycles through them.
/// The heap peak is the largest program's, so a larger pool makes it vary
/// less from seed to seed.
const POOL: usize = 12;
/// Bound `winning(gI)(pK)` queries per game.
const BOUND_PER_GAME: usize = 2;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 5;

struct Game {
    name: String,
    edges: BTreeSet<(usize, usize)>,
    labels: Vec<Truth>,
}

enum Expect {
    Open(usize),
    Bound(usize, usize),
    AnyGame(usize),
}

struct Program {
    text: String,
    games: Vec<Game>,
    queries: Vec<(String, Expect)>,
    stratified: bool,
}

fn generate(rng: &mut StdRng) -> Program {
    let n = POSITIONS;
    let mut cyclic = random_dag(n, 2.0, rng.next_u64());
    for _ in 0..2 {
        let from = rng.gen_range(n / 2..n);
        let to = rng.gen_range(0..from);
        cyclic.push((from, to));
    }
    let graphs = [
        random_dag(n, 2.0, rng.next_u64()),
        random_dag(n, 2.0, rng.next_u64()),
        layered_game_graph(10, n / 10, 2, rng.next_u64()),
        chain(n - 1),
        cyclic,
    ];
    let mut text = String::from("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n");
    let mut games = Vec::new();
    let mut queries = Vec::new();
    let mut stratified = true;
    for (i, graph) in graphs.into_iter().enumerate() {
        let name = format!("g{i}");
        text.push_str(&format!("game({name}).\n"));
        text.push_str(&edges_to_facts(&name, &graph));
        let edges: BTreeSet<(usize, usize)> = graph.into_iter().collect();
        stratified &= !oracle::has_cycle(n, &edges);
        queries.push((format!("?- winning({name})(X)."), Expect::Open(i)));
        for _ in 0..BOUND_PER_GAME {
            let p = rng.gen_range(0..n);
            queries.push((format!("?- winning({name})(p{p})."), Expect::Bound(i, p)));
        }
        let labels = oracle::solve(n, &edges);
        games.push(Game {
            name,
            edges,
            labels,
        });
    }
    let p = rng.gen_range(0..n);
    queries.push((format!("?- winning(M)(p{p})."), Expect::AnyGame(p)));
    debug_assert!(games.iter().all(|g| !g.edges.is_empty()));
    Program {
        text,
        games,
        queries,
        stratified,
    }
}

fn truth_name(t: Truth) -> &'static str {
    match t {
        Truth::True => "true",
        Truth::False => "false",
        Truth::Undefined => "undefined",
    }
}

/// Answers as `(binding, truth)` pairs.
type Rows = BTreeSet<(String, &'static str)>;

/// The answers of a query with one variable, `var`.
fn answer_set(result: &QueryResult, var: &str) -> Rows {
    result
        .answers
        .iter()
        .map(|a| {
            let binding = a.binding(var).map(ToString::to_string).unwrap_or_default();
            (binding, truth_name(a.truth))
        })
        .collect()
}

fn check(program: &Program, index: usize, result: &QueryResult, out: &mut Outcome) {
    let (text, expect) = &program.queries[index];
    let (got, want): (Rows, Rows) = match *expect {
        Expect::Open(g) => {
            let want = program.games[g]
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &t)| t != Truth::False)
                .map(|(p, &t)| (format!("p{p}"), truth_name(t)))
                .collect();
            (answer_set(result, "X"), want)
        }
        Expect::Bound(g, p) => {
            let want = [(String::new(), truth_name(program.games[g].labels[p]))];
            let got = [(String::new(), truth_name(result.truth))];
            (got.into_iter().collect(), want.into_iter().collect())
        }
        Expect::AnyGame(p) => {
            let want = program
                .games
                .iter()
                .filter(|g| g.labels[p] != Truth::False)
                .map(|g| (g.name.clone(), truth_name(g.labels[p])))
                .collect();
            (answer_set(result, "M"), want)
        }
    };
    if got != want {
        out.wrong(format!("{text} answered {got:?}, oracle says {want:?}"));
    }
}

/// Times of one program run: process CPU ms, and wall time.
struct ProgramRun {
    cpu: f64,
    first_answer_cpu: f64,
    wall: Duration,
    results: Vec<QueryResult>,
    stratified: bool,
}

fn run_program(program: &Program) -> Result<ProgramRun, String> {
    let cpu_start = cpu_ms();
    let start = Instant::now();
    let mut span = trace::span("syntax.parse");
    span.tag("program");
    span.bytes(program.text.len() as u64);
    let parsed = parse_program(&program.text).map_err(|e| e.to_string());
    span.end();
    let span = trace::span("engine.new");
    let mut db = HiLogDb::builder()
        .program(parsed?)
        .options(eval_options())
        .build();
    span.end();
    let span = trace::span("engine.ground");
    db.ground_program().map_err(|e| e.to_string())?;
    span.end();
    let span = trace::span("engine.model");
    db.model().map_err(|e| e.to_string())?;
    span.end();
    let span = trace::span("engine.modular");
    let stratified = db
        .check_modular()
        .map_err(|e| e.to_string())?
        .modularly_stratified;
    span.end();
    let mut results = Vec::with_capacity(program.queries.len());
    let mut first_answer_cpu = None;
    for (text, _) in &program.queries {
        let mut span = trace::span("syntax.parse");
        span.tag("query");
        span.bytes(text.len() as u64);
        let query = parse_query(text).map_err(|e| e.to_string());
        span.end();
        let mut span = trace::span("engine.query");
        let result = db.query(&query?);
        if let Ok(r) = &result {
            span.tag(strategy_tag(r));
        }
        span.end();
        results.push(result.map_err(|e| e.to_string())?);
        first_answer_cpu.get_or_insert_with(|| cpu_ms() - cpu_start);
    }
    let wall = start.elapsed();
    let cpu = cpu_ms() - cpu_start;
    Ok(ProgramRun {
        cpu,
        first_answer_cpu: first_answer_cpu.unwrap_or(cpu),
        wall,
        results,
        stratified,
    })
}

/// Runs one program and checks it; `None` when it failed.
fn run_checked(
    program: &Program,
    out: &mut Outcome,
    tally: Option<&mut QueryTally>,
) -> Option<ProgramRun> {
    out.attempted += 1;
    let span = trace::span("bench.program");
    let run = run_program(program);
    span.end();
    match run {
        Ok(run) => {
            for (i, result) in run.results.iter().enumerate() {
                check(program, i, result, out);
            }
            if run.stratified != program.stratified {
                out.wrong(format!(
                    "check_modular said modularly stratified = {}, but the games' cycles say {}",
                    run.stratified, program.stratified
                ));
            }
            if let Some(tally) = tally {
                run.results.iter().for_each(|r| tally.add(r));
            }
            Some(run)
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("reason: program failed: {e}");
            None
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.config.push(format!(
        "reason: cold in-process HiLogDb (eval_threads=1), no store, no HTTP; {POOL} programs of 5 games x {POSITIONS} positions, {} queries each, cycled",
        5 * (1 + BOUND_PER_GAME) + 1
    ));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let programs: Vec<Program> = (0..POOL).map(|_| generate(&mut rng)).collect();
    let mut calib = Calibration::new(!args.trace);

    // Set-up: parse every program text of the pool and run the first
    // program once (warm-up), repeated; setup_s is the median.
    alloc::reset_peak();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = cpu_ms();
        for p in &programs {
            let _ = parse_program(&p.text);
        }
        let warm = run_program(&programs[0]);
        setups.push((cpu_ms() - start) / 1e3);
        calib.probe();
        match warm {
            Ok(run) => {
                for (i, result) in run.results.iter().enumerate() {
                    check(&programs[0], i, result, &mut out);
                }
            }
            Err(e) => {
                out.wrong(format!("warm-up program failed: {e}"));
                return out;
            }
        }
    }
    let mut heap = Heap {
        setup_peak: alloc::peak(),
        ..Heap::default()
    };

    // Timed phase.  The traced run measures its first half untraced (for
    // the overhead figure) and records spans over the second half.
    alloc::reset_peak();
    let budget = Duration::from_secs_f64(args.seconds);
    let traced_from = if args.trace { budget / 2 } else { budget };
    let start = Instant::now();
    let cpu_start = cpu_ms();
    let probe_start = calib.spent_ms();
    let mut totals = Samples::default();
    let mut walls = Samples::default();
    let mut first = Samples::default();
    let mut untraced_ms = Samples::default();
    let mut traced_ms = Samples::default();
    let mut tally = QueryTally::default();
    let mut root = None;
    let mut probes_before = (0, 0);
    let mut traced_programs = 0usize;
    let mut i = 0;
    while start.elapsed() < budget {
        if args.trace && root.is_none() && start.elapsed() >= traced_from {
            trace::set_enabled(true);
            probes_before = hilog_engine::horn::probe_counters();
            root = Some(trace::span("bench.phase"));
        }
        let tracing = root.is_some();
        trace::set_request(i as u64);
        let program = &programs[i % POOL];
        i += 1;
        let tally_ref = if tracing { Some(&mut tally) } else { None };
        match run_checked(program, &mut out, tally_ref) {
            Some(run) => {
                totals.push(run.cpu);
                walls.push(ms(run.wall));
                first.push(run.first_answer_cpu);
                if tracing {
                    traced_ms.push(run.cpu);
                    traced_programs += 1;
                } else {
                    untraced_ms.push(run.cpu);
                }
            }
            None => {
                totals.fail();
                first.fail();
            }
        }
        calib.tick();
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = (cpu_ms() - cpu_start - (calib.spent_ms() - probe_start)) / 1e3;
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
        common_span_layers(&mut out, &view, &root, "program");
        tally.report(&mut out);
        let per_program = |x: usize| {
            if traced_programs == 0 {
                0.0
            } else {
                x as f64 / traced_programs as f64
            }
        };
        let ground_calls = view.named("engine.ground").count();
        out.layer(
            "engine.groundings",
            per_program(ground_calls + tally.groundings),
            traced_programs,
        );
        out.layer(
            "engine.index_probes",
            per_program(probes_after.0 - probes_before.0),
            traced_programs,
        );
        out.layer(
            "engine.index_fallback_scans",
            per_program(probes_after.1 - probes_before.1),
            traced_programs,
        );
        out.layer(
            "trace.overhead",
            overhead(&traced_ms, &untraced_ms),
            traced_ms.len(),
        );
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
            "program_cpu_p50_ms",
            "op_cpu_p50_ms",
            calib.time(totals.percentile(50.0)),
            "ms",
            totals.len(),
        );
        out.metric(
            "program_cpu_p90_ms",
            "op_cpu_tail_ms",
            calib.time(totals.percentile(90.0)),
            "ms",
            totals.len(),
        );
        out.metric(
            "first_answer_cpu_p50_ms",
            "aux_cpu_p50_ms",
            calib.time(first.percentile(50.0)),
            "ms",
            first.len(),
        );
        let per_cpu = if cpu > 0.0 {
            totals.len() as f64 / cpu
        } else {
            0.0
        };
        out.metric(
            "programs_per_cpu_s",
            "ops_per_cpu_s",
            calib.rate(per_cpu),
            "1/s",
            totals.len(),
        );
        heap.report(&mut out, false);
        out.config.push(format!(
            "reason: {} programs in {wall:.2} s wall, {cpu:.2} s CPU; p90 has {} samples beyond it; \
             as measured: program p50 {:.3} ms CPU, {:.3} ms wall",
            totals.len(),
            totals.beyond(90.0),
            totals.percentile(50.0),
            walls.percentile(50.0)
        ));
        out.config.push(calib.describe());
    }
    out
}
