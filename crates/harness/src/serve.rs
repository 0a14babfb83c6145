//! `clear-harness serve`: a bounded-memory trace-replay / open-loop
//! arrival loop computing streaming time-to-commit percentiles.
//!
//! The paper's single-retry bound is a *tail-latency* claim, so the repo
//! needs a service-style harness, not just end-of-run aggregates: ARs
//! arrive on an open-loop schedule (synthetic random gaps, or gaps
//! recorded from a real trace via `clear-harness trace --arrivals`), wait
//! in a bounded admission queue, and execute in batches on a fresh
//! simulated machine per batch with metrics collection enabled. The
//! per-batch registries merge into one session registry
//! ([`clear_metrics::MetricsRegistry::merge`] is commutative, so the
//! merged snapshot equals what one giant sequential run over the same
//! invocations would produce), from which the session reports
//! p50/p99/p999 time-to-commit per AR class and per retry mode.
//!
//! Memory stays bounded regardless of session length: the admission queue
//! never exceeds its configured bound (arrival generation *backpressures*
//! instead of growing the queue), each batch reuses a fresh
//! fixed-footprint machine, and the registry's size is capped by the
//! metric schema, not the AR count. Nothing is ever dropped: gaps not
//! consumed by a batch return to the queue front in order.
//!
//! Everything in [`ServeReport::json`] and [`ServeReport::text`] is a pure
//! function of the options (simulated cycles and counts only), which is
//! what lets the `slo-latency` golden pin the percentiles byte-exactly.
//! Host time lives only in the [`ServeReport::trajectory`] rows, which the
//! repository benchmark reads.

use crate::json::Json;
use crate::metrics_export::{snapshot_to_json, QUANTILES};
use clear_isa::{ArInvocation, Workload, WorkloadMeta};
use clear_machine::{Machine, MachineConfig, Preset};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::Memory;
use clear_metrics::{families, Log2Hist, MetricValue, MetricsRegistry};
use clear_workloads::{by_name, Size};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

/// Options of one serve session.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Benchmark supplying the AR stream.
    pub workload: String,
    /// Input scale of each per-batch workload instance.
    pub size: Size,
    /// Simulated cores per batch machine.
    pub cores: usize,
    /// Session seed: drives the arrival generator and derives each
    /// batch's workload seed.
    pub seed: u64,
    /// Total ARs to admit before the session ends.
    pub total_ars: u64,
    /// ARs per machine batch.
    pub batch: usize,
    /// Admission-queue bound (arrivals beyond it backpressure).
    pub queue: usize,
    /// Mean synthetic inter-arrival gap in simulated cycles (a batch
    /// member's gap becomes its think time). Ignored under replay.
    pub rate: u64,
    /// Recorded inter-arrival gaps to replay (cycled when shorter than
    /// `total_ars`); `None` selects the synthetic generator.
    pub replay_gaps: Option<Vec<u64>>,
    /// Ignored: every batch machine steps one core at a time. The field
    /// stays only because the repository benchmark still sets it, and goes
    /// when the benchmark stops setting it.
    pub sim_threads: usize,
    /// Emit a trajectory row every this many batches.
    pub snapshot_every: usize,
    /// Retry threshold of each batch machine.
    pub max_retries: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workload: "arrayswap".to_string(),
            size: Size::Tiny,
            cores: 8,
            seed: 1,
            total_ars: 512,
            batch: 128,
            queue: 256,
            rate: 24,
            replay_gaps: None,
            sim_threads: 1,
            snapshot_every: 4,
            max_retries: 5,
        }
    }
}

/// Result of a serve session.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Deterministic session document (simulated values only — safe to
    /// pin in goldens).
    pub json: Json,
    /// Human-readable summary.
    pub text: String,
    /// The merged session registry.
    pub registry: MetricsRegistry,
    /// Wall-clock trajectory rows (one per `snapshot_every` batches plus
    /// a final row), read by the repository benchmark.
    pub trajectory: Trajectory,
    /// ARs committed.
    pub ars: u64,
    /// Simulator steps across all batches.
    pub steps: u64,
    /// Peak admission-queue depth observed.
    pub queue_max_depth: usize,
    /// Times arrival generation stalled because the queue was full.
    pub backpressure_events: u64,
}

/// Shared admission state between the serve loop and the per-batch
/// workload wrapper. Single-threaded by construction: the machine always
/// fetches ARs on the driving thread, so `Rc<RefCell<…>>` suffices (and
/// the `Workload` trait carries no `Send` bound).
struct ServeState {
    /// Inter-arrival gaps admitted to this batch, in arrival order.
    gaps: VecDeque<u64>,
    /// Gaps actually consumed (== invocations issued).
    consumed: u64,
}

/// Wraps a benchmark workload, rationing its AR stream to the admitted
/// arrivals: each issued invocation consumes one gap, which becomes the
/// invocation's think time (the open-loop arrival spacing). When the
/// admitted gaps run out the stream reports exhaustion, ending the batch.
struct ServeWorkload {
    inner: Box<dyn Workload>,
    state: Rc<RefCell<ServeState>>,
}

impl Workload for ServeWorkload {
    fn meta(&self) -> WorkloadMeta {
        self.inner.meta()
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.inner.setup(mem, threads);
    }

    fn next_ar(&mut self, tid: usize, mem: &Memory) -> Option<ArInvocation> {
        if self.state.borrow().gaps.is_empty() {
            return None;
        }
        // Pop a gap only once the inner workload actually yields an
        // invocation — if this thread's stream is exhausted, the gap stays
        // queued for another thread or the next batch (zero drops).
        let mut inv = self.inner.next_ar(tid, mem)?;
        let mut st = self.state.borrow_mut();
        let gap = st.gaps.pop_front()?;
        inv.think_cycles = gap;
        st.consumed += 1;
        Some(inv)
    }
}

/// The arrival generator: synthetic open-loop gaps from a seeded xoshiro
/// stream, or recorded gaps cycled for as long as the session runs.
enum Arrivals {
    Synthetic { rng: Xoshiro256PlusPlus, rate: u64 },
    Replay { gaps: Vec<u64>, next: usize },
}

impl Arrivals {
    fn next_gap(&mut self) -> u64 {
        match self {
            Arrivals::Synthetic { rng, rate } => rng.gen_range(0..(2 * *rate + 1)),
            Arrivals::Replay { gaps, next } => {
                let gap = gaps[*next % gaps.len()];
                *next += 1;
                gap
            }
        }
    }
}

/// The merged time-to-commit histogram across every mode × backend
/// series — the session-wide distribution the trajectory rows quote.
fn overall_ttc(registry: &MetricsRegistry) -> Log2Hist {
    let mut all = Log2Hist::new();
    for (key, value) in registry.iter() {
        if key.name == families::TTC_CYCLES {
            if let MetricValue::Hist(h) = value {
                all.merge(h);
            }
        }
    }
    all
}

/// One percentile row for a labelled time-to-commit series.
fn ttc_row(label_key: &str, label: &str, h: &Log2Hist) -> Json {
    let mut pairs = vec![
        (label_key.to_string(), Json::from(label)),
        ("count".to_string(), Json::from(h.count())),
        ("min".to_string(), Json::from(h.min())),
        ("max".to_string(), Json::from(h.max())),
    ];
    for (name, q) in QUANTILES {
        pairs.push((name.to_string(), Json::from(h.quantile(q))));
    }
    Json::Obj(pairs)
}

/// All rows of a labelled histogram family, in canonical label order.
fn ttc_rows(registry: &MetricsRegistry, family: &str, label_key: &str) -> Vec<Json> {
    registry
        .iter()
        .filter(|(k, _)| k.name == family)
        .filter_map(|(k, v)| match v {
            MetricValue::Hist(h) => {
                let label = k
                    .labels
                    .iter()
                    .find(|(name, _)| name == label_key)
                    .map(|(_, value)| value.as_str())?;
                Some(ttc_row(label_key, label, h))
            }
            _ => None,
        })
        .collect()
}

/// Runs a serve session to completion.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or a batch machine times out.
pub fn serve_session(opts: &ServeOptions) -> ServeReport {
    assert!(
        opts.batch > 0 && opts.queue > 0,
        "batch and queue must be positive"
    );
    let started = std::time::Instant::now();
    let mut arrivals = match &opts.replay_gaps {
        Some(gaps) => {
            assert!(!gaps.is_empty(), "replay gap list is empty");
            Arrivals::Replay {
                gaps: gaps.clone(),
                next: 0,
            }
        }
        None => Arrivals::Synthetic {
            rng: Xoshiro256PlusPlus::seed_from_u64(opts.seed),
            rate: opts.rate.max(1),
        },
    };

    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut generated = 0u64;
    let mut served = 0u64;
    let mut steps = 0u64;
    let mut batches = 0u64;
    let mut queue_max_depth = 0usize;
    let mut backpressure_events = 0u64;
    let mut registry = MetricsRegistry::new();
    // Sized for the usual session, in which every batch takes a full
    // `batch` of arrivals: a caller may keep many reports, so the rows
    // should not carry growth slack.
    let every = opts.snapshot_every.max(1) as u64;
    let rows = opts.total_ars.div_ceil(opts.batch as u64).div_ceil(every);
    let mut trajectory = Trajectory(Vec::with_capacity(rows as usize + 1));
    let mut starved = false;

    while served < opts.total_ars {
        // Admit arrivals up to the queue bound; the generator stalls
        // (backpressure) rather than letting the queue grow.
        while queue.len() < opts.queue && generated < opts.total_ars {
            queue.push_back(arrivals.next_gap());
            generated += 1;
        }
        if queue.len() >= opts.queue && generated < opts.total_ars {
            backpressure_events += 1;
        }
        queue_max_depth = queue_max_depth.max(queue.len());
        let take = queue.len().min(opts.batch);
        if take == 0 {
            break;
        }
        let state = Rc::new(RefCell::new(ServeState {
            gaps: queue.drain(..take).collect(),
            consumed: 0,
        }));
        let inner = by_name(&opts.workload, opts.size, opts.seed.wrapping_add(batches))
            .unwrap_or_else(|| panic!("unknown benchmark {}", opts.workload));
        let mut cfg: MachineConfig = Preset::C.config(opts.cores, opts.max_retries);
        cfg.seed = opts.seed.wrapping_add(batches);
        let mut machine = Machine::new(
            cfg,
            Box::new(ServeWorkload {
                inner,
                state: Rc::clone(&state),
            }),
        );
        machine.enable_metrics();
        let stats = machine.run();
        assert!(
            !stats.timed_out,
            "serve batch {batches} of {} timed out",
            opts.workload
        );
        registry.merge(&machine.take_metrics().expect("metrics enabled"));
        steps += stats.perf.steps;

        let mut st = state.borrow_mut();
        let consumed = st.consumed;
        // Unconsumed gaps return to the queue front in order: admitted
        // arrivals are never dropped, only deferred.
        while let Some(gap) = st.gaps.pop_back() {
            queue.push_front(gap);
        }
        drop(st);
        if consumed == 0 {
            // The benchmark yielded no ARs at all (degenerate stream);
            // stop rather than spin.
            starved = true;
            break;
        }
        served += consumed;
        batches += 1;

        if batches.is_multiple_of(every) || served >= opts.total_ars {
            let all = overall_ttc(&registry);
            trajectory.0.push(TrajectoryPoint {
                batch: batches,
                ars: served,
                steps,
                queue_depth: queue.len() as u64,
                wall_ns: started.elapsed().as_nanos() as u64,
                p50: all.quantile(0.50),
                p99: all.quantile(0.99),
                p999: all.quantile(0.999),
            });
        }
    }

    let all = overall_ttc(&registry);
    let mut json_pairs = vec![
        ("workload".to_string(), Json::from(opts.workload.as_str())),
        ("cores".to_string(), Json::from(opts.cores)),
        ("seed".to_string(), Json::from(opts.seed)),
        (
            "arrivals".to_string(),
            Json::from(if opts.replay_gaps.is_some() {
                "replay"
            } else {
                "synthetic"
            }),
        ),
        ("ars".to_string(), Json::from(served)),
        ("batches".to_string(), Json::from(batches)),
        ("steps".to_string(), Json::from(steps)),
        ("starved".to_string(), Json::from(starved)),
        (
            "queue".to_string(),
            Json::obj([
                ("bound", Json::from(opts.queue)),
                ("max_depth", Json::from(queue_max_depth)),
                ("backpressure_events", Json::from(backpressure_events)),
                ("dropped", Json::from(0u64)),
            ]),
        ),
        ("ttc".to_string(), ttc_row("scope", "all", &all)),
        (
            "ttc_by_class".to_string(),
            Json::arr(ttc_rows(&registry, families::TTC_CLASS_CYCLES, "class")),
        ),
        (
            "ttc_by_mode".to_string(),
            Json::arr(ttc_rows(&registry, families::TTC_CYCLES, "mode")),
        ),
        (
            "snapshot".to_string(),
            snapshot_to_json(&registry.snapshot()),
        ),
    ];
    // Keys stay insertion-ordered; the snapshot goes last because it is
    // the bulkiest block.
    let snapshot = json_pairs.pop().expect("snapshot pair");
    json_pairs.push(snapshot);
    let json = Json::Obj(json_pairs);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== serve {} ({} cores, seed {}, {} arrivals) ===",
        opts.workload,
        opts.cores,
        opts.seed,
        if opts.replay_gaps.is_some() {
            "replay"
        } else {
            "synthetic"
        }
    );
    let _ = writeln!(
        text,
        "{served} ARs in {batches} batches; queue peak {queue_max_depth}/{} \
         ({backpressure_events} backpressure stalls, 0 dropped)",
        opts.queue
    );
    let _ = writeln!(
        text,
        "time-to-commit cycles: p50 {} p99 {} p999 {} (min {} max {})",
        all.quantile(0.50),
        all.quantile(0.99),
        all.quantile(0.999),
        all.min(),
        all.max()
    );
    for row in ttc_rows(&registry, families::TTC_CLASS_CYCLES, "class") {
        let g = |k: &str| match row.get(k) {
            Some(Json::Int(v)) => *v,
            _ => 0,
        };
        let class = match row.get("class") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".to_string(),
        };
        let _ = writeln!(
            text,
            "  class {class:18} n={:<7} p50 {:>6} p99 {:>6} p999 {:>6}",
            g("count"),
            g("p50"),
            g("p99"),
            g("p999")
        );
    }

    ServeReport {
        json,
        text,
        registry,
        trajectory,
        ars: served,
        steps,
        queue_max_depth,
        backpressure_events,
    }
}

/// The keys of a [`TrajectoryRow`], in order.
pub const TRAJECTORY_KEYS: [&str; 10] = [
    "batch",
    "ars",
    "steps",
    "queue_depth",
    "wall_ns",
    "ars_per_sec",
    "steps_per_sec",
    "p50",
    "p99",
    "p999",
];

/// The wall-clock trajectory of a session. Each row is kept as its eight
/// counters; the two rates are built on demand, so a kept report stays
/// small however many batches it ran.
#[derive(Clone, Debug)]
pub struct Trajectory(Vec<TrajectoryPoint>);

/// The counters of one trajectory row.
#[derive(Clone, Copy, Debug)]
struct TrajectoryPoint {
    batch: u64,
    ars: u64,
    steps: u64,
    queue_depth: u64,
    wall_ns: u64,
    p50: u64,
    p99: u64,
    p999: u64,
}

impl Trajectory {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the session recorded no row.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The final row, if any.
    pub fn last(&self) -> Option<TrajectoryRow> {
        self.0.last().map(TrajectoryPoint::row)
    }

    /// The rows in batch order.
    pub fn iter(&self) -> impl Iterator<Item = TrajectoryRow> + '_ {
        self.0.iter().map(TrajectoryPoint::row)
    }
}

impl TrajectoryPoint {
    fn row(&self) -> TrajectoryRow {
        let secs = (self.wall_ns as f64 / 1e9).max(1e-9);
        TrajectoryRow([
            Json::from(self.batch),
            Json::from(self.ars),
            Json::from(self.steps),
            Json::from(self.queue_depth),
            Json::from(self.wall_ns),
            Json::Float(self.ars as f64 / secs),
            Json::Float(self.steps as f64 / secs),
            Json::from(self.p50),
            Json::from(self.p99),
            Json::from(self.p999),
        ])
    }
}

/// One wall-clock trajectory row (benchmark material, never golden
/// material): the value of each of [`TRAJECTORY_KEYS`], in order.
#[derive(Clone, Debug)]
pub struct TrajectoryRow([Json; 10]);

impl TrajectoryRow {
    /// The value under `key`, one of [`TRAJECTORY_KEYS`].
    pub fn get(&self, key: &str) -> Option<&Json> {
        let i = TRAJECTORY_KEYS.iter().position(|k| *k == key)?;
        Some(&self.0[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ServeOptions {
        ServeOptions {
            total_ars: 96,
            batch: 32,
            queue: 48,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serves_the_requested_ars_with_zero_drops() {
        let r = serve_session(&tiny_opts());
        assert_eq!(r.ars, 96);
        assert!(r.queue_max_depth <= 48);
        assert_eq!(r.json.get("starved"), Some(&Json::Bool(false)));
        let q = r.json.get("queue").expect("queue block");
        assert_eq!(q.get("dropped"), Some(&Json::Int(0)));
        assert!(!r.trajectory.is_empty());
        // The tiny session takes cacheline locks, so the lock-wait fold fires.
        let lock_waits = r.registry.hist(families::LOCK_WAIT_CYCLES, &[]);
        assert!(lock_waits.is_some_and(|h| h.count() > 0));
    }

    #[test]
    fn trajectory_rows_hold_every_key() {
        let r = serve_session(&tiny_opts());
        let row = r.trajectory.last().expect("a final row");
        for key in TRAJECTORY_KEYS {
            assert!(row.get(key).is_some(), "{key}");
        }
        assert_eq!(row.get("batch"), Some(&Json::from(3u64)));
        assert_eq!(row.get("ars"), Some(&Json::from(96u64)));
        assert_eq!(row.get("nosuch"), None);
    }

    #[test]
    fn session_json_is_reproducible() {
        let a = serve_session(&tiny_opts()).json.to_pretty();
        let b = serve_session(&tiny_opts()).json.to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn replay_gaps_become_think_times() {
        let opts = ServeOptions {
            replay_gaps: Some(vec![3, 5, 7]),
            ..tiny_opts()
        };
        let r = serve_session(&opts);
        assert_eq!(r.ars, 96);
        assert_eq!(r.json.get("arrivals"), Some(&Json::from("replay")));
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = serve_session(&tiny_opts());
        let all = overall_ttc(&r.registry);
        assert!(all.count() > 0);
        assert!(all.quantile(0.5) <= all.quantile(0.99));
        assert!(all.quantile(0.99) <= all.quantile(0.999));
        assert!(all.quantile(0.999) <= all.max());
    }
}
