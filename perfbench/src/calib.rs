//! Machine-speed calibration for the end-to-end times.
//!
//! The benchmark runs on a few vCPUs of a shared host.  Other tenants on
//! the same physical cores and caches change how fast the same instructions
//! run, by up to 40% over seconds to minutes, and CPU time does not remove
//! that (it only removes the time the process waits for a CPU).  So while a
//! workload runs, the benchmark also runs a fixed *probe* between
//! operations: a short computation of its own (string-keyed `BTreeMap`,
//! `HashMap` of vectors, and the retrograde win/move solver of
//! [`crate::oracle`] on a fixed 20k-position game), with inputs that never
//! change.  The probe shares no code with the repository's crates, so no
//! change to them can make it faster or slower; only the machine can.
//!
//! The run's speed factor is the median probe CPU time over
//! [`NOMINAL_PROBE_MS`].  Every end-to-end time is reported divided by it:
//! CPU time at the reference speed, the speed of a machine on which one
//! probe takes [`NOMINAL_PROBE_MS`] of CPU.  Every run prints its factor.
//! The probe's memory is left out of the `heap_*` metrics.

use crate::alloc;
use crate::oracle;
use crate::stats::{cpu_ms, median};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;

/// Probe CPU time at the reference speed.
pub const NOMINAL_PROBE_MS: f64 = 10.0;
/// CPU time of workload between two probes (about 4% overhead).
const INTERVAL_MS: f64 = 250.0;
/// Positions of the probe's fixed game.
const GAME: usize = 20_000;
/// Keys of the probe's maps.  A probe four times this size (and game)
/// tracked `reason` better but `ingest` worse: ten runs of `ingest` then
/// spread by 0.29 of the median on the batch p90, against 0.11 with this one.
const KEYS: u64 = 4_000;

pub struct Calibration {
    enabled: bool,
    game: BTreeSet<(usize, usize)>,
    probes: Vec<f64>,
    last: f64,
    spent: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibration {
    /// Builds the probe's fixed inputs and runs two untimed probes (warm-up).
    /// When not `enabled` (the traced run, whose layer spans are reported as
    /// measured) it never probes and its factor is 1.
    pub fn new(enabled: bool) -> Self {
        let mut calibration = Calibration {
            enabled,
            game: BTreeSet::new(),
            probes: Vec::new(),
            last: 0.0,
            spent: 0.0,
        };
        if enabled {
            alloc::uncounted(|| {
                let mut x = 0x2545_f491_4f6c_dd1d;
                for u in 0..GAME {
                    for _ in 0..2 {
                        let v = u + 1 + (xorshift(&mut x) % 50) as usize;
                        if v < GAME {
                            calibration.game.insert((u, v));
                        }
                    }
                }
                calibration.work();
                calibration.work();
            });
        }
        calibration.last = cpu_ms();
        calibration
    }

    /// The probe's computation.
    fn work(&self) {
        let mut keyed = BTreeMap::new();
        for i in 0..KEYS {
            keyed.insert(
                format!("p{}_{i}", i.wrapping_mul(2_654_435_761) % 100_000),
                i,
            );
        }
        let mut sum = 0u64;
        for i in 0..KEYS {
            let key = format!("p{}_{i}", i.wrapping_mul(2_654_435_761) % 100_000);
            sum += keyed.get(&key).copied().unwrap_or(0);
        }
        black_box(sum);
        drop(keyed);
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..5 * KEYS {
            buckets
                .entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % KEYS)
                .or_default()
                .push(i as u32);
        }
        black_box(buckets.values().map(Vec::len).sum::<usize>());
        drop(buckets);
        black_box(oracle::solve(GAME, &self.game));
    }

    /// Runs one timed probe.
    pub fn probe(&mut self) {
        if !self.enabled {
            return;
        }
        let start = cpu_ms();
        alloc::uncounted(|| self.work());
        let end = cpu_ms();
        alloc::uncounted(|| self.probes.push(end - start));
        self.spent += end - start;
        self.last = end;
    }

    /// Runs a probe when the workload has used `INTERVAL_MS` of CPU since the
    /// last one.  Call it between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if cpu_ms() - self.last >= INTERVAL_MS {
            self.probe();
        }
    }

    /// CPU ms spent in probes so far (to take out of a phase's CPU time).
    pub fn spent_ms(&self) -> f64 {
        self.spent
    }

    /// Median probe time over the nominal one: above 1 on a slow spell.
    pub fn factor(&self) -> f64 {
        let m = median(&self.probes);
        if m > 0.0 {
            m / NOMINAL_PROBE_MS
        } else {
            1.0
        }
    }

    /// A measured CPU time (any unit) at the reference speed.
    pub fn time(&self, measured: f64) -> f64 {
        measured / self.factor()
    }

    /// A measured rate per CPU second at the reference speed.
    pub fn rate(&self, measured: f64) -> f64 {
        measured * self.factor()
    }

    /// A line for the report.
    pub fn describe(&self) -> String {
        format!(
            "speed calibration: {} probes, median {:.3} ms CPU against {NOMINAL_PROBE_MS} ms nominal (factor {:.4}); \
             end-to-end times are CPU time divided by the factor",
            self.probes.len(),
            median(&self.probes),
            self.factor()
        )
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        let game = std::mem::take(&mut self.game);
        let probes = std::mem::take(&mut self.probes);
        alloc::uncounted(|| drop((game, probes)));
    }
}
