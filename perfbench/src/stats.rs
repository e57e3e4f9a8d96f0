//! Latency samples with failure accounting, process CPU time, and CPU
//! pinning.

/// Latency samples in milliseconds.  A failed operation is recorded as
/// missing every latency limit: it sorts above every measured sample, so a
/// percentile that reaches it reads as [`FAILED_MS`].
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    failed: usize,
}

/// What a percentile reads when it falls on a failed operation (JSON has no
/// infinity).
pub const FAILED_MS: f64 = 1e12;

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Operations recorded, failed ones included.
    pub fn len(&self) -> usize {
        self.ms.len() + self.failed
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if rank > self.ms.len() {
            return FAILED_MS;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank - 1]
    }

    /// Samples strictly above the `p` percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank)
    }

    pub fn sum(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// Median of a small set of values (set-up repetitions); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPU time of the whole process (every thread, user plus system) in
/// milliseconds, from `CLOCK_PROCESS_CPUTIME_ID`.  Unlike wall time it does
/// not count time the process waits for a CPU, whether another process or
/// the hypervisor holds it, so it stays put when the machine is shared.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Idle time of each CPU so far, from `/proc/stat` (`cpuN` lines, idle plus
/// iowait ticks); empty when unreadable.
fn idle_ticks() -> Vec<(usize, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let cpu = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            let ticks: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
            Some((cpu, ticks.get(3)? + ticks.get(4)?))
        })
        .collect()
}

/// Pins the calling thread, and every thread it starts afterwards, to one
/// CPU it may run on: the one that was idle longest over the next 200 ms
/// (the highest-numbered on a tie), so a run does not share a core with
/// whatever else is busy.  Returns that CPU, or `None` when the affinity
/// calls fail (the run then goes on unpinned).
///
/// On one CPU a closed-loop exchange between the client and the server's
/// threads runs as direct hand-offs on one core: no wake-up of an idle
/// second core, no migration between caches.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed = |c: usize| c < mask.len() * 64 && mask[c / 64] & (1 << (c % 64)) != 0;
    let before = idle_ticks();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let after = idle_ticks();
    let idle = |c: usize| {
        let at = |ticks: &[(usize, u64)]| ticks.iter().find(|&&(n, _)| n == c).map(|&(_, t)| t);
        at(&after)
            .zip(at(&before))
            .map_or(0, |(a, b)| a.saturating_sub(b))
    };
    let cpu = (0..mask.len() * 64)
        .filter(|&c| allowed(c))
        .max_by_key(|&c| (idle(c), c))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_count_failures_as_slowest() {
        let mut s = Samples::default();
        for ms in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(ms);
        }
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        s.fail();
        assert_eq!(s.len(), 6);
        assert_eq!(s.percentile(100.0), FAILED_MS);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.beyond(50.0), 3);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let start = cpu_ms();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(cpu_ms() > start);
    }
}
