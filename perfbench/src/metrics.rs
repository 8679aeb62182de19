//! Percentiles, operation accounting and host facts shared by every
//! workload.

use std::time::{Duration, Instant};

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics every workload reports in an untraced run.
/// Each workload gives the latency names its own primary operation (see
/// the README in this directory).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("logic.parse.calls", "count"),
    ("logic.parse.busy_ms", "ms"),
    ("logic.parse.self_ms", "ms"),
    ("logic.compile.calls", "count"),
    ("logic.compile.busy_ms", "ms"),
    ("logic.compile.self_ms", "ms"),
    ("logic.compile.states_out", "states"),
    ("logic.compile.defect_draws", "count"),
    ("automata.hoa.calls", "count"),
    ("automata.hoa.busy_ms", "ms"),
    ("automata.hoa.self_ms", "ms"),
    ("automata.minimize.calls", "count"),
    ("automata.minimize.busy_ms", "ms"),
    ("automata.minimize.self_ms", "ms"),
    ("automata.minimize.states_in", "states"),
    ("automata.minimize.states_out", "states"),
    ("automata.minimize.atoms_out", "count"),
    ("automata.product.calls", "count"),
    ("automata.product.busy_ms", "ms"),
    ("automata.product.self_ms", "ms"),
    ("automata.product.max_states", "states"),
    ("automata.product.max_acceptance_chars", "chars"),
    ("automata.analysis.new_busy_ms", "ms"),
    ("automata.analysis.classify_busy_ms", "ms"),
    ("automata.analysis.self_ms", "ms"),
    ("automata.analysis.scc_passes", "count"),
    ("automata.analysis.scc_state_visits", "count"),
    ("automata.analysis.scc_hit_ratio", "ratio"),
    ("automata.analysis.inclusion_hit_ratio", "ratio"),
    ("automata.canonical.hash_busy_ms", "ms"),
    ("automata.canonical.language_eq_calls", "count"),
    ("automata.canonical.self_ms", "ms"),
    ("automata.inclusion.calls", "count"),
    ("automata.inclusion.busy_ms", "ms"),
    ("automata.inclusion.self_ms", "ms"),
    ("automata.par.efficiency", "ratio"),
    ("serve.store.ingest_busy_ms", "ms"),
    ("serve.store.sweep_oracle_calls_per_ingest", "count"),
    ("serve.store.dedup_hit_ratio", "ratio"),
    ("serve.store.lock_wait_ms", "ms"),
    ("serve.store.self_ms", "ms"),
    ("serve.json.parse_busy_ms", "ms"),
    ("serve.json.serialize_busy_ms", "ms"),
    ("serve.json.bytes", "bytes"),
    ("serve.service.self_ms", "ms"),
    ("lint.rules.calls", "count"),
    ("lint.rules.busy_ms", "ms"),
    ("lint.rules.self_ms", "ms"),
    ("lint.suite.busy_ms", "ms"),
    ("lint.suite.self_ms", "ms"),
    ("lint.suite.oracle_calls", "count"),
    ("lint.suite.hash_decided_ratio", "ratio"),
    ("lint.suite.fold_states_max", "states"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs`, averaging the middle pair; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency histogram in fixed memory: buckets 2^(1/256) wide (0.27 %)
/// from 1 ns up, so the benchmark's own footprint does not grow with the
/// number of operations and stays out of `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    const PER_OCTAVE: f64 = 256.0;
    const BUCKETS: usize = 48 * 256;

    pub fn record(&mut self, ms: f64) {
        let ns = (ms * 1e6).max(1.0);
        let b = ((ns.log2() * Self::PER_OCTAVE) as usize).min(Self::BUCKETS - 1);
        self.counts[b] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile in ms (the bucket's geometric middle); 0
    /// when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let b = self
            .counts
            .iter()
            .position(|&c| {
                seen += u64::from(c);
                seen >= rank
            })
            .unwrap_or(Self::BUCKETS - 1);
        (2f64).powf((b as f64 + 0.5) / Self::PER_OCTAVE) / 1e6
    }
}

/// A slice of the measured phase: its length and the latencies of the
/// operations that completed in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub seconds: f64,
    pub latencies: Histogram,
}

/// Fixed-width windows over the measured phase, filled as operations
/// complete.
#[derive(Debug, Clone)]
pub struct Windows {
    width: f64,
    hists: Vec<Histogram>,
}

impl Windows {
    pub fn new(width: f64) -> Windows {
        Windows {
            width,
            hists: Vec::new(),
        }
    }

    /// Records an operation that completed `at` seconds into the phase.
    pub fn record(&mut self, at: f64, ms: f64) {
        let k = (at / self.width) as usize;
        if self.hists.len() <= k {
            self.hists.resize_with(k + 1, Histogram::default);
        }
        self.hists[k].record(ms);
    }

    pub fn merge(&mut self, other: &Windows) {
        if self.hists.len() < other.hists.len() {
            self.hists
                .resize_with(other.hists.len(), Histogram::default);
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// The windows of a phase `wall` seconds long. A trailing window
    /// shorter than half the width is folded into the one before it.
    pub fn finish(&self, wall: f64) -> Vec<Window> {
        let n = ((wall / self.width).ceil() as usize)
            .max(self.hists.len())
            .max(1);
        let mut out: Vec<Window> = (0..n)
            .map(|k| Window {
                seconds: (wall - k as f64 * self.width).clamp(0.0, self.width),
                latencies: self.hists.get(k).cloned().unwrap_or_default(),
            })
            .collect();
        while out.len() > 1 && out[out.len() - 1].seconds < self.width / 2.0 {
            let last = out.pop().expect("len > 1");
            let prev = out.last_mut().expect("len > 1");
            prev.latencies.merge(&last.latencies);
            prev.seconds += last.seconds;
        }
        out
    }

    /// All operations of every window.
    pub fn total(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

/// The median over windows of each window's p50 latency, `tail`
/// percentile latency and completion rate. Medians over windows keep a
/// burst of interference from another process out of the result.
pub fn windowed(windows: &[Window], tail: f64) -> (f64, f64, f64) {
    let mut p50 = Vec::new();
    let mut worst = Vec::new();
    let mut rate = Vec::new();
    for w in windows.iter().filter(|w| !w.latencies.is_empty()) {
        p50.push(w.latencies.percentile(50.0));
        worst.push(w.latencies.percentile(tail));
        rate.push(w.latencies.len() as f64 / w.seconds);
    }
    (median(&p50), median(&worst), median(&rate))
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time the calling thread has run so far, in ms. Unlike wall time
/// it leaves out time the thread was runnable but off a core, including
/// time the hypervisor gave this machine's virtual core to another guest
/// (steal), which on a shared host varies by tens of percent from minute
/// to minute.
pub fn thread_cpu_ms() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have run so far, in ms; like
/// [`thread_cpu_ms`] it leaves out steal.
pub fn process_cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock_ms(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux
    // (checked by the `compile_error!` in lib.rs) and is a live, writable
    // value for the whole call; `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// How the timed operations of one run ended. An operation that
/// panicked, returned an error, or disagreed with its reference is
/// failed; one the program correctly refused is rejected and succeeds.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub panicked: u64,
    pub mismatched: u64,
    pub rejected: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    pub fn note(&mut self, note: String) {
        if self.notes.len() < Self::MAX_NOTES && !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    pub fn panic(&mut self, note: String) {
        self.failed += 1;
        self.panicked += 1;
        self.note(format!("panic: {note}"));
    }

    /// A wrong answer: the run's output is not correct.
    pub fn mismatch(&mut self, note: String) {
        self.failed += 1;
        self.mismatched += 1;
        self.note(format!("mismatch: {note}"));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.panicked += other.panicked;
        self.mismatched += other.mismatched;
        self.rejected += other.rejected;
        for n in other.notes {
            self.note(n);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Core-seconds the hypervisor has so far given this machine's virtual
/// cores to other guests (steal, summed over cores), and the number of
/// cores, from `/proc/stat` (whose ticks are USER_HZ = 100 per second).
/// `(0, 1)` where the file is unreadable.
fn steal() -> (f64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut lines = stat.lines();
    let ticks = lines
        .next()
        .and_then(|all| all.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cores = lines.filter(|l| l.starts_with("cpu")).count();
    (ticks / 100.0, cores.max(1))
}

/// A stopwatch for work that keeps every core busy: wall time minus the
/// steal (see [`steal`]) averaged over cores, i.e. the time the work
/// would have taken on cores of its own. On a shared 2-vCPU virtual
/// machine steal took 6–21 % of CPU time and moved from minute to minute;
/// wall rates moved with it by up to 30 % between runs. Where fewer cores are
/// busy than the machine has, the correction is only partial.
pub struct GivenClock {
    start: Instant,
    steal: f64,
}

impl GivenClock {
    pub fn start() -> GivenClock {
        GivenClock {
            start: Instant::now(),
            steal: steal().0,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let (now, cores) = steal();
        // Steal is counted in 10 ms ticks: over a short interval this can
        // err either way, which sums over many intervals cancel.
        wall - (now - self.steal) / cores as f64
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Message of the last panic on this thread, recorded by the hook that
/// [`QuietPanics`] installs.
pub fn take_panic_message() -> String {
    LAST_PANIC
        .with(|p| p.borrow_mut().take())
        .unwrap_or_default()
}

thread_local! {
    static LAST_PANIC: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// Replaces the panic hook with one that records the message for
/// [`take_panic_message`] instead of printing it; restores the default
/// hook on drop.
pub struct QuietPanics;

impl QuietPanics {
    pub fn install() -> QuietPanics {
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let at = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()))
                .unwrap_or_default();
            LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("{at}: {msg}")));
        }));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windows_fold_a_short_tail_into_the_last_full_window() {
        let mut w = Windows::new(1.0);
        for (at, ms) in [(0.1, 1.0), (0.9, 3.0), (1.5, 2.0), (2.1, 10.0)] {
            w.record(at, ms);
        }
        let windows = w.finish(2.2);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[1].latencies.len(), 2);
        assert!((windows[1].seconds - 1.2).abs() < 1e-9);
        let (p50, _, rate) = windowed(&windows, 100.0);
        assert!((rate - (2.0 + 2.0 / 1.2) / 2.0).abs() < 1e-9);
        assert!((p50 - 1.5).abs() < 0.01, "{p50}");
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(f64::from(i) * 0.01);
        }
        for (p, want) in [(50.0, 5.0), (99.0, 9.9)] {
            let got = h.percentile(p);
            assert!((got / want - 1.0).abs() < 0.003, "p{p}: {got} vs {want}");
        }
    }
}
