//! Cross-cutting determinism guarantees of the metrics layer: snapshots
//! must be byte-identical regardless of how the work was partitioned —
//! across grid-pool worker counts, merge orders and serve-loop batch
//! boundaries. These are the properties that let
//! the `slo-latency` golden pin p50/p99/p999 exactly.

use clear_harness::metrics_export::{prometheus_text, snapshot_to_json, validate_prometheus};
use clear_harness::pool;
use clear_harness::serve::{serve_session, ServeOptions};
use clear_machine::{Machine, MachineConfig, Preset};
use clear_metrics::MetricsRegistry;
use clear_workloads::{by_name, Size};

/// One metrics-enabled run of a tiny benchmark cell.
fn run_cell(bench: &str, seed: u64) -> MetricsRegistry {
    let workload = by_name(bench, Size::Tiny, seed).expect(bench);
    let mut cfg: MachineConfig = Preset::C.config(8, 5);
    cfg.seed = seed;
    let mut machine = Machine::new(cfg, workload);
    machine.enable_metrics();
    let stats = machine.run();
    assert!(!stats.timed_out);
    machine.take_metrics().expect("metrics enabled")
}

/// The canonical serialized form used for byte-identity comparisons.
fn canon(reg: &MetricsRegistry) -> String {
    snapshot_to_json(&reg.snapshot()).to_pretty()
}

#[test]
fn merge_is_identical_for_one_vs_many_workers() {
    let cells: Vec<(&str, u64)> = (1u64..=8)
        .map(|s| (if s % 2 == 0 { "arrayswap" } else { "mwobject" }, s))
        .collect();
    // Same cells, executed on 1 pool worker vs 4; merged in index order.
    let merged_on = |workers: usize| {
        let regs = pool::run_indexed(cells.len(), workers, |i| {
            let (bench, seed) = cells[i];
            run_cell(bench, seed)
        });
        let mut all = MetricsRegistry::new();
        for r in &regs {
            all.merge(r);
        }
        all
    };
    assert_eq!(canon(&merged_on(1)), canon(&merged_on(4)));
}

#[test]
fn merge_order_does_not_change_the_snapshot() {
    let a = run_cell("arrayswap", 3);
    let b = run_cell("mwobject", 4);
    let mut ab = MetricsRegistry::new();
    ab.merge(&a);
    ab.merge(&b);
    let mut ba = MetricsRegistry::new();
    ba.merge(&b);
    ba.merge(&a);
    assert_eq!(canon(&ab), canon(&ba));
}

#[test]
fn serve_backpressure_bounds_the_queue_without_drops() {
    // Queue far smaller than the session: admission must stall (not grow)
    // and still deliver every AR.
    let opts = ServeOptions {
        total_ars: 256,
        batch: 16,
        queue: 24,
        ..ServeOptions::default()
    };
    let r = serve_session(&opts);
    assert_eq!(r.ars, 256, "every admitted AR is served");
    assert!(
        r.queue_max_depth <= 24,
        "queue exceeded its bound: {}",
        r.queue_max_depth
    );
    assert!(r.backpressure_events > 0, "a 24-slot queue must stall");
    let q = r.json.get("queue").expect("queue block");
    assert_eq!(
        q.get("dropped"),
        Some(&clear_harness::json::Json::Int(0)),
        "steady state drops nothing"
    );
    // The merged registry renders a self-validating Prometheus exposition.
    validate_prometheus(&prometheus_text(&r.registry.snapshot())).expect("valid exposition");
}
