//! The metrics `BENCHMARK.json` names, and how each is computed from the
//! untraced (`plain`) and traced child runs.

use crate::layers::STAGE_NAMES;
use crate::run::ChildReport;
use crate::stats::{mean, median, percentile};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Operation and set-up
/// times are normalised to host speed (see `run::HostProbe`). The gated
/// operation time is the lower quartile, not the median: other tenants'
/// load only ever adds time, so the faster quarter of operations shows
/// the code's own cost. Over 10 seeds in the noisiest period measured,
/// the normalised median spread by up to 17%, the lower quartile by 8%.
pub const END_TO_END: [Metric; 3] = [
    m("op_ms_p25", "ms", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, from a traced run beside an untraced one. Shares
/// are of the untraced mean operation wall time.
pub const PER_LAYER: [Metric; 19] = [
    m("core.trigger_pct", "%", Lower),
    m("core.execute_pct", "%", Lower),
    m("core.bookkeeping_pct", "%", Lower),
    m("core.next_event_pct", "%", Lower),
    m("mem.dram_pct", "%", Lower),
    m("dsa.driver_pct", "%", Lower),
    m("isa.build_pct", "%", Lower),
    m("trace.coverage_pct", "%", Higher),
    m("trace.timer_floor_ns", "ns", Lower),
    m("trace.overhead_x", "x", Lower),
    m("sim.cycles_per_s", "cycles/s", Higher),
    m("sim.cycles_per_op", "cycles", Lower),
    m("sim.ticks_per_cycle", "ticks/cycle", Lower),
    m("sim.parallel_fallbacks", "count", Lower),
    m("core.hit_rate", "fraction", Higher),
    m("core.walker_launches_per_op", "count", Lower),
    m("mem.dram_accesses_per_op", "count", Lower),
    m("serve.cell_pct", "%", Higher),
    m("serve.fsyncs_per_cell", "count", Lower),
];

/// Values of [`END_TO_END`], in order.
#[must_use]
pub fn end_to_end(plain: &ChildReport) -> Vec<f64> {
    vec![
        percentile(&plain.normalized_ms(), 0.25).unwrap_or(0.0),
        median(&plain.normalized_setup_s()).unwrap_or(0.0),
        plain.fact("peak_rss_mb"),
    ]
}

/// Values of [`PER_LAYER`], in order.
#[must_use]
pub fn per_layer(plain: &ChildReport, traced: &ChildReport) -> Vec<f64> {
    let wall_ns = mean(&plain.normalized_ms()).unwrap_or(0.0) * 1e6;
    let pct = |ns: f64| ratio(100.0 * ns, wall_ns);
    let stage = |name: &str| pct(traced.fact(name));
    let p50 = |r: &ChildReport| median(&r.normalized_ms()).unwrap_or(0.0);
    let attributed: f64 = STAGE_NAMES.iter().map(|n| traced.fact(n)).sum();
    let hits = plain.fact("hits");
    vec![
        stage("ns.trigger"),
        stage("ns.execute"),
        stage("ns.bookkeeping"),
        stage("ns.next_event"),
        stage("ns.dram"),
        stage("ns.driver"),
        stage("build_ns"),
        pct(attributed),
        traced.fact("timer_floor_ns"),
        ratio(p50(traced), p50(plain)),
        ratio(plain.fact("sim_cycles") * 1e3, p50(plain)),
        plain.fact("sim_cycles"),
        ratio(traced.fact("ticks"), traced.fact("xcache_cycles")),
        plain.fact("parallel_fallbacks"),
        ratio(hits, hits + plain.fact("misses")),
        plain.fact("walker_launches"),
        plain.fact("dram_accesses"),
        // Both sides raw: /metrics reports cell time in wall microseconds.
        ratio(
            100.0 * plain.fact("serve.cell_us") * 1e3,
            mean(&plain.op_ms).unwrap_or(0.0) * 1e6,
        ),
        plain.fact("serve.fsyncs_per_cell"),
    ]
}

/// `num / den`, or 0 where the denominator is not positive (a layer the
/// workload does not run).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(&PER_LAYER)
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in names() {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
    }

    #[test]
    fn shares_are_of_the_untraced_mean_wall() {
        let plain = ChildReport {
            op_ms: vec![2.0, 1.0, 4.0],
            probe_ms: vec![1.0, 0.5, 2.0],
            facts: vec![
                ("sim_cycles".into(), 4000.0),
                ("hits".into(), 3.0),
                ("misses".into(), 1.0),
            ],
            ..ChildReport::default()
        };
        let traced = ChildReport {
            op_ms: vec![5.0],
            probe_ms: vec![1.0],
            facts: vec![
                ("ns.trigger".into(), 500_000.0),
                ("ns.dram".into(), 1_000_000.0),
                ("ticks".into(), 2000.0),
                ("xcache_cycles".into(), 4000.0),
            ],
            ..ChildReport::default()
        };
        let v = per_layer(&plain, &traced);
        let get = |name| v[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        assert_eq!(get("core.trigger_pct"), 25.0);
        assert_eq!(get("mem.dram_pct"), 50.0);
        assert_eq!(get("trace.coverage_pct"), 75.0);
        assert_eq!(get("trace.overhead_x"), 2.5);
        assert_eq!(get("sim.cycles_per_s"), 2e6);
        assert_eq!(get("sim.ticks_per_cycle"), 0.5);
        assert_eq!(get("core.hit_rate"), 0.75);
        assert_eq!(get("serve.cell_pct"), 0.0);
        assert_eq!(v.len(), PER_LAYER.len());
        assert_eq!(end_to_end(&plain)[0], 2.0);
    }
}
