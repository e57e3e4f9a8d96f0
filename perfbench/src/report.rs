//! Metric names, the per-layer computations shared by the workloads, and
//! the output format.

use crate::alloc;
use crate::stats::Samples;
use crate::trace::Record;
use hilog_engine::{ModelSource, PlanStrategy, QueryResult};
use std::collections::{BTreeMap, HashMap};

/// The end-to-end metrics every workload reports, under one name each so
/// the workloads can be compared run against run.  Each workload fills a
/// key with its own headline number (see [`Metric::name`] and README.md).
/// Every time among them is process CPU time (see [`crate::stats::cpu_ms`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_tail_ms", "ms"),
    ("aux_cpu_p50_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("heap_peak_mb", "MB"),
];

/// Every per-layer metric, in output order.  A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.read_exchange_ms.p50", "ms"),
    ("server.read_exchange_ms.p99", "ms"),
    ("server.write_exchange_ms.p50", "ms"),
    ("server.self_ms.p50", "ms"),
    ("server.connects_per_req", "1/req"),
    ("server.shed", "count"),
    ("server.timeouts", "count"),
    ("store.apply_batch_ms.p50", "ms"),
    ("store.apply_batch_ms.p90", "ms"),
    ("store.checkpoint_ms.p50", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.open_ms.p50", "ms"),
    ("store.replayed_records", "count"),
    ("io.sync.count", "1/batch"),
    ("io.sync_ms.total", "ms/batch"),
    ("io.write_bytes", "bytes/batch"),
    ("io.write_amplification", "ratio"),
    ("io.read_bytes", "bytes/open"),
    ("engine.apply_self_ms.p50", "ms"),
    ("engine.tables_refilled", "1/query"),
    ("engine.tables_patched", "1/query"),
    ("engine.tables_dropped", "1/query"),
    ("engine.model_source.cached", "1/query"),
    ("engine.model_source.patched", "1/query"),
    ("engine.model_source.rebuilt", "1/query"),
    ("engine.query_ms.magic.p50", "ms"),
    ("engine.query_ms.full.p50", "ms"),
    ("magic.subqueries", "1/query"),
    ("magic.table_hit_ratio", "ratio"),
    ("magic.fallbacks", "1/query"),
    ("plan.magic_with_cached_model_share", "ratio"),
    ("engine.ground_ms.p50", "ms"),
    ("engine.groundings", "1/op"),
    ("engine.index_probes", "1/op"),
    ("engine.index_fallback_scans", "1/op"),
    ("engine.model_ms.p50", "ms"),
    ("engine.modular_ms.p50", "ms"),
    ("syntax.parse_ms.p50", "ms"),
    ("syntax.parse_mb_per_s", "MB/s"),
    ("heap.setup_peak_mb", "MB"),
    ("heap.timed_peak_mb", "MB"),
    ("heap.live_end_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The workload's own name for it (`batch_cpu_p50_ms`, `read_cpu_p99_ms`, …).
    pub name: String,
    /// The `END_TO_END` or `PER_LAYER` name it is reported under.
    pub key: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or operations) behind the value.
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failed durability checks, described.
    pub wrong: Vec<String>,
    /// Lines describing the load and configuration.
    pub config: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: &str,
        key: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            key,
            value,
            unit,
            samples,
        });
    }

    /// Records a per-layer metric under its own name.
    pub fn layer(&mut self, key: &'static str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(name, _)| *name == key)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("{key} is not a per-layer metric"));
        self.metric(key, key, value, unit, samples);
    }

    /// Records a wrong answer (kept in full only for the first few).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        } else if self.wrong.len() == 20 {
            self.wrong.push("... further wrong answers omitted".into());
        }
    }

    pub fn is_correct(&self) -> bool {
        self.wrong.is_empty()
    }
}

/// `EvalStats` and plan counters summed over the queries of the traced
/// phase.
#[derive(Debug, Default, Clone)]
pub struct QueryTally {
    pub queries: usize,
    pub magic_with_cached_model: usize,
    pub subqueries: usize,
    pub cached_subqueries: usize,
    pub fallbacks: usize,
    pub groundings: usize,
    pub tables_refilled: usize,
    pub tables_patched: usize,
    pub tables_dropped: usize,
    pub model_cached: usize,
    pub model_patched: usize,
    pub model_rebuilt: usize,
}

impl QueryTally {
    pub fn add(&mut self, result: &QueryResult) {
        let s = &result.stats;
        self.queries += 1;
        if result.plan.strategy == PlanStrategy::MagicSets && result.plan.cached_model {
            self.magic_with_cached_model += 1;
        }
        self.subqueries += s.subqueries;
        self.cached_subqueries += s.cached_subqueries;
        self.fallbacks += usize::from(result.fallback.is_some());
        self.groundings += s.groundings;
        self.tables_refilled += s.tables_refilled;
        self.tables_patched += s.tables_patched;
        self.tables_dropped += s.tables_dropped;
        match s.model_source {
            ModelSource::Cached => self.model_cached += 1,
            ModelSource::Patched => self.model_patched += 1,
            ModelSource::Rebuilt => self.model_rebuilt += 1,
            ModelSource::NotUsed => {}
        }
    }

    /// Reports the tally, per query.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.queries;
        let per = |x: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        out.layer("engine.tables_refilled", per(self.tables_refilled), n);
        out.layer("engine.tables_patched", per(self.tables_patched), n);
        out.layer("engine.tables_dropped", per(self.tables_dropped), n);
        out.layer("engine.model_source.cached", per(self.model_cached), n);
        out.layer("engine.model_source.patched", per(self.model_patched), n);
        out.layer("engine.model_source.rebuilt", per(self.model_rebuilt), n);
        out.layer("magic.subqueries", per(self.subqueries), n);
        let hit = if self.subqueries == 0 {
            0.0
        } else {
            self.cached_subqueries as f64 / self.subqueries as f64
        };
        out.layer("magic.table_hit_ratio", hit, self.subqueries);
        out.layer("magic.fallbacks", per(self.fallbacks), n);
        out.layer(
            "plan.magic_with_cached_model_share",
            per(self.magic_with_cached_model),
            n,
        );
    }
}

/// Tracing overhead: the traced operations' median CPU time over the
/// untraced ones' of the same run, minus one.
pub fn overhead(traced: &Samples, untraced: &Samples) -> f64 {
    let base = untraced.percentile(50.0);
    if base > 0.0 {
        traced.percentile(50.0) / base - 1.0
    } else {
        0.0
    }
}

/// The plan strategy as a span tag.
pub fn strategy_tag(result: &QueryResult) -> &'static str {
    match result.plan.strategy {
        PlanStrategy::MagicSets => "magic",
        PlanStrategy::FullModel => "full",
    }
}

/// Span-derived views of one traced phase.
pub struct SpanView<'a> {
    records: &'a [Record],
    by_id: HashMap<u32, usize>,
}

/// Benchmark bookkeeping spans (`bench.*`) group layer calls; every other
/// span is a call into a layer of the program.
fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

impl<'a> SpanView<'a> {
    pub fn new(records: &'a [Record]) -> Self {
        let by_id = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        SpanView { records, by_id }
    }

    pub fn named(&self, name: &str) -> impl Iterator<Item = &'a Record> + '_ {
        let name = name.to_string();
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Durations (ms) of the spans named `name`, optionally with `tag`.
    pub fn samples(&self, name: &str, tag: Option<&str>) -> Samples {
        let mut s = Samples::default();
        for r in self.named(name) {
            if tag.is_none_or(|t| r.tag == t) {
                s.push(r.ms());
            }
        }
        s
    }

    /// The span's duration minus the time its direct children cover.
    pub fn self_ms(&self, span: &Record) -> f64 {
        let children: f64 = self
            .records
            .iter()
            .filter(|r| r.parent == span.id)
            .map(Record::ms)
            .sum();
        span.ms() - children
    }

    /// Share of `root`'s wall time covered by layer spans: every layer span
    /// whose nearest enclosing span is not itself a layer span counts once.
    pub fn coverage(&self, root: &Record) -> f64 {
        let mut covered = 0.0;
        for r in self.records {
            if !is_layer(r.name) || r.start_ns < root.start_ns || r.end_ns > root.end_ns {
                continue;
            }
            let outermost = match self.by_id.get(&r.parent) {
                Some(&i) => !is_layer(self.records[i].name),
                None => true,
            };
            if outermost {
                covered += r.ms();
            }
        }
        if root.ms() > 0.0 {
            covered / root.ms()
        } else {
            0.0
        }
    }
}

/// Reports the span-derived metrics every workload shares: parse and
/// engine call timings, coverage, and the span count.  `parse_tag` picks
/// the parse calls that read the workload's main input.
pub fn common_span_layers(out: &mut Outcome, view: &SpanView, root: &Record, parse_tag: &str) {
    let parse = view.samples("syntax.parse", Some(parse_tag));
    out.layer("syntax.parse_ms.p50", parse.percentile(50.0), parse.len());
    let (bytes, ms) = view
        .named("syntax.parse")
        .fold((0u64, 0.0), |(b, t), r| (b + r.bytes, t + r.ms()));
    let mb_per_s = if ms > 0.0 {
        bytes as f64 / 1e6 / (ms / 1e3)
    } else {
        0.0
    };
    out.layer(
        "syntax.parse_mb_per_s",
        mb_per_s,
        view.named("syntax.parse").count(),
    );
    for (key, name, tag) in [
        ("engine.query_ms.magic.p50", "engine.query", Some("magic")),
        ("engine.query_ms.full.p50", "engine.query", Some("full")),
        ("engine.ground_ms.p50", "engine.ground", None),
        ("engine.model_ms.p50", "engine.model", None),
        ("engine.modular_ms.p50", "engine.modular", None),
    ] {
        let s = view.samples(name, tag);
        out.layer(key, s.percentile(50.0), s.len());
    }
    out.layer("trace.coverage", view.coverage(root), 1);
    out.layer("trace.spans", view.records.len() as f64, view.records.len());
}

/// Heap metrics: peak over set-up, peak over the timed phase, live at the
/// end of the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Heap {
    pub setup_peak: usize,
    pub timed_peak: usize,
    pub live_end: usize,
}

impl Heap {
    /// Closes the timed phase's window.
    pub fn end_timed(&mut self) {
        self.timed_peak = alloc::peak();
        self.live_end = alloc::live();
    }

    pub fn report(&self, out: &mut Outcome, trace: bool) {
        if trace {
            out.layer("heap.setup_peak_mb", alloc::mb(self.setup_peak), 1);
            out.layer("heap.timed_peak_mb", alloc::mb(self.timed_peak), 1);
            out.layer("heap.live_end_mb", alloc::mb(self.live_end), 1);
        } else {
            let peak = self.setup_peak.max(self.timed_peak);
            out.metric("heap_peak_mb", "heap_peak_mb", alloc::mb(peak), "MB", 1);
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Prints the human-readable report, then the result line: one JSON
/// object with `correct`, `attempted`, `failed` and `metrics` (the
/// end-to-end metrics, or with `trace` the per-layer ones).
pub fn print(workload: &str, out: &Outcome, trace: bool) {
    for line in &out.config {
        println!("config: {line}");
    }
    for m in &out.metrics {
        let under = if m.name == m.key {
            String::new()
        } else {
            format!("  [reported as {}]", m.key)
        };
        println!(
            "{workload}.{} = {} {} (n={}){under}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{workload}: attempted {} failed {} wrong {}",
        out.attempted,
        out.failed,
        out.wrong.len()
    );
    for w in &out.wrong {
        println!("WRONG: {w}");
    }
    let by_key: BTreeMap<&str, &Metric> = out.metrics.iter().map(|m| (m.key, m)).collect();
    let names = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = by_key.get(name).map_or(0.0, |m| m.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.is_correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
