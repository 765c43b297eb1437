//! Metric names and units, and the two lines a run prints: a detail line
//! (every metric the run measured, with its unit and sample count `n`, and
//! the closed-loop windows as median and quartiles) and, last, the result
//! line.

use std::fmt::Write as _;

use crate::check::Tally;
use crate::stats::Quartiles;

/// Printed by an untraced run, in this order (`BENCHMARK.json`
/// `end_to_end`).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("rss_mb", "MiB")];

/// Printed by a traced run, in this order (`BENCHMARK.json` `per_layer`).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.counted_loads_per_op", "count/op"),
    ("core.deferred_reads_per_get", "count/op"),
    ("core.load_retry_frac", "ratio"),
    ("core.promote_fail_per_op", "count/op"),
    ("core.rc_ops_per_op", "count/op"),
    ("core.defer_flushes_per_op", "count/op"),
    ("core.load_counted_ns", "ns"),
    ("core.load_deferred_ns", "ns"),
    ("dcas.mcas_per_op", "count/op"),
    ("dcas.helps_per_op", "count/op"),
    ("dcas.help_abandoned_frac", "ratio"),
    ("dcas.dcas_ns", "ns"),
    ("reclaim.pins_per_op", "count/op"),
    ("reclaim.retired_per_op", "count/op"),
    ("reclaim.freed_per_retired", "ratio"),
    ("reclaim.advance_blocked_frac", "ratio"),
    ("reclaim.grace_p99_us", "us"),
    ("reclaim.pin_ns", "ns"),
    ("pool.allocs_per_op", "count/op"),
    ("pool.magazine_hit_frac", "ratio"),
    ("pool.slabs_live", "count"),
    ("pool.alloc_free_ns", "ns"),
    ("kv.shard_skew", "ratio"),
    ("kv.throughput_ops_s", "ops/s"),
    ("kv.get_p50_us", "us"),
    ("kv.get_p99_us", "us"),
    ("kv.write_p50_us", "us"),
    ("kv.write_p99_us", "us"),
    ("kv.ol_get_p50_us", "us"),
    ("kv.ol_write_p50_us", "us"),
    ("kv.get_ns", "ns"),
    ("kv.write_ns", "ns"),
    ("kv.scan_ns", "ns"),
    ("kv.batch_ns", "ns"),
    ("structures.contains_ns", "ns"),
    ("structures.insert_remove_ns", "ns"),
    ("structures.scan32_ns", "ns"),
    ("ledger.explained_frac.get", "ratio"),
    ("ledger.explained_frac.write", "ratio"),
    ("ledger.explained_frac.scan", "ratio"),
    ("ledger.explained_frac.batch", "ratio"),
    ("driver.gen_ns_per_op", "ns"),
    ("driver.ol_late_p99_us", "us"),
    ("driver.ol_p99_us", "us"),
    ("driver.ol_p999_us", "us"),
    ("driver.window_spread", "ratio"),
    ("driver.setup_wall_s", "s"),
    ("driver.host_slowdown", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values, each with the number of samples behind it.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, u64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        assert!(value.is_finite(), "{name} = {value}");
        self.values.push((name, value, n));
    }

    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(m, ..)| *m == name)
            .map(|&(_, v, _)| v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }
}

fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
}

/// `{"workload": .., "seed": .., "measured": {metric: {"value": .., "unit":
/// .., "n": ..}, ..}, "windows_ops_s": {"n": .., "q1": .., "median": ..,
/// "q3": ..}}`: every metric the run measured, whichever section of
/// `BENCHMARK.json` lists it, and the untraced closed-loop windows'
/// throughput.
pub fn detail_line(workload: &str, seed: u64, metrics: &Metrics, windows: &[f64]) -> String {
    let q = Quartiles::of(windows);
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"measured\": {{");
    for (i, &(name, value, n)) in metrics.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit(name);
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"n\": {n}}}"
        )
        .unwrap();
    }
    write!(
        out,
        "}}, \"windows_ops_s\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}}}",
        windows.len(),
        q.q1,
        q.median,
        q.q3
    )
    .unwrap();
    out
}

/// The last line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}` over `names`.
pub fn result_line(names: &[(&str, &str)], metrics: &Metrics, tally: &Tally) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = metrics.value(name);
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, field: &str| {
            let at = obj.find(&format!("\"{field}\"")).expect("field present");
            let rest = &obj[at + field.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_are_those_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(json, "end_to_end"), own(&END_TO_END));
        assert_eq!(section(json, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_with_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64, 7);
        }
        let tally = Tally {
            attempted: 10,
            failed: 0,
            net: 0,
        };
        let line = result_line(&END_TO_END, &m, &tally);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"rss_mb\": {\"value\": 1.5, \"unit\": \"MiB\"}}}"
        );
        m.set("kv.throughput_ops_s", 2e5, 10);
        let detail = detail_line("hot_small", 3, &m, &[1.0, 2.0]);
        assert!(detail.contains(
            "\"kv.throughput_ops_s\": {\"value\": 200000, \"unit\": \"ops/s\", \"n\": 10}"
        ));
    }
}
