//! Every metric the benchmark reports, by name and unit — the same lists
//! as `BENCHMARK.json` (a unit test holds the two together) — and the
//! result object the driver reads.

use laminar_json::{jobj, Value};

pub type Table = [(&'static str, &'static str)];

/// The timed run's metrics (`--trace 0`).
pub const END_TO_END: &Table = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("first_result_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MB"),
];

/// The layers whose self times telescope to `D0`, outermost first.
/// `delivery` exists on `stream_push` only: HTTP, route, pool and event
/// log between the client's transport calls and the engine, which cannot
/// be told apart from outside while producer and reader run together.
pub const LAYERS: [&str; 8] = [
    "server.http",
    "client",
    "delivery",
    "server.route",
    "registry",
    "engine.pool",
    "engine.run",
    "dataflow",
];

/// The traced run's metrics (`--trace 1`). Every traced run reports all
/// of them; one that a workload does not exercise, or whose probe belongs
/// to another workload, reads 0 there.
pub const PER_LAYER: &Table = &[
    ("server.http.self_us", "us"),
    ("client.self_us", "us"),
    ("delivery.self_us", "us"),
    ("server.route.self_us", "us"),
    ("registry.self_us", "us"),
    ("engine.pool.self_us", "us"),
    ("engine.run.self_us", "us"),
    ("dataflow.self_us", "us"),
    ("server.http.allocs_per_op", "count"),
    ("client.allocs_per_op", "count"),
    ("delivery.allocs_per_op", "count"),
    ("server.route.allocs_per_op", "count"),
    ("registry.allocs_per_op", "count"),
    ("engine.pool.allocs_per_op", "count"),
    ("engine.run.allocs_per_op", "count"),
    ("dataflow.allocs_per_op", "count"),
    ("trace.d0_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("client.op_p90_ms", "ms"),
    ("client.op_p99_ms", "ms"),
    ("client.op_mean_ms", "ms"),
    ("client.first_result_p50_ms", "ms"),
    ("client.submit_rtt_us", "us"),
    ("client.page_rtt_us", "us"),
    ("client.pages_per_op", "count"),
    ("client.events_per_page", "count"),
    ("client.page_parse_us", "us"),
    ("server.http.connections_per_op", "count"),
    ("server.http.req_bytes_per_op", "B"),
    ("server.http.resp_bytes_per_op", "B"),
    ("engine.pool.queue_wait_us", "us"),
    ("engine.pool.stream_overhead_ratio", "ratio"),
    ("engine.event_log.page_us", "us"),
    ("engine.event_log.kb_per_event", "KB"),
    ("engine.journal.record_us", "us"),
    ("dataflow.plan_us", "us"),
    ("dataflow.enact_us", "us"),
    ("dataflow.collect_us", "us"),
    ("dataflow.first_output_us", "us"),
    ("dataflow.multi_enact_us", "us"),
    ("dataflow.items_per_op", "count"),
    ("dataflow.events_per_op", "count"),
    ("dataflow.enact_items_per_s", "1/s"),
    ("script.parse_us", "us"),
    ("script.compile_us", "us"),
    ("script.cache_hit_ratio", "ratio"),
    ("json.ser_us_per_op", "us"),
    ("json.parse_us_per_op", "us"),
    ("json.page_ser_us", "us"),
    ("json.page_bytes", "B"),
    ("registry.search_semantic_us", "us"),
    ("registry.search_text_us", "us"),
    ("registry.search_code_us", "us"),
    ("registry.rank_semantic_us", "us"),
    ("registry.rank_code_us", "us"),
    ("registry.register_pe_us", "us"),
    ("registry.remove_pe_us", "us"),
    ("registry.wal_append_us", "us"),
    ("registry.snapshot_ms", "ms"),
    ("registry.allocs_per_search", "count"),
    ("registry.allocs_per_write", "count"),
    ("registry.kb_per_pe", "KB"),
    ("registry.read_during_write_ratio", "ratio"),
    ("embed.query_text_us", "us"),
    ("embed.query_code_us", "us"),
    ("embed.pe_us", "us"),
];

/// The values one run measured, by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Every metric of `table` with its unit, in the table's order; 0
    /// where the run set none (or an estimate of no samples). A name the
    /// table does not hold is a bug in this benchmark.
    pub fn complete(&self, table: &Table) -> Vec<(&'static str, &'static str, f64)> {
        if let Some((stray, _)) = self.0.iter().find(|(name, _)| !table.iter().any(|(n, _)| n == name)) {
            panic!("metric {stray} is not in the table");
        }
        table
            .iter()
            .map(|(name, unit)| {
                let value = self.0.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
                (*name, *unit, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    }

    pub fn to_value(&self, table: &Table) -> Value {
        let mut map = Value::Null;
        for (name, unit, value) in self.complete(table) {
            map.set(name, jobj! { "value" => value, "unit" => unit });
        }
        map
    }

    /// Print the metrics for people, then the result object as the last
    /// line of standard output.
    pub fn report(&self, table: &Table, attempted: u64, failed: u64) {
        for (name, unit, value) in self.complete(table) {
            println!("{name:<36} {value:>16.4} {unit}");
        }
        let result = jobj! {
            "correct" => failed == 0,
            "attempted" => attempted as i64,
            "failed" => failed as i64,
            "metrics" => self.to_value(table)
        };
        println!("{}", laminar_json::to_string(&result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| (m["name"].as_str().expect("name").into(), m["unit"].as_str().expect("unit").into()))
            .collect()
    }

    fn owned(table: &Table) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn the_tables_are_the_lists_of_benchmark_json() {
        let bench = laminar_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(declared(&bench["end_to_end"]), owned(END_TO_END));
        assert_eq!(declared(&bench["per_layer"]), owned(PER_LAYER));
        assert_eq!(bench["run_seconds"].as_i64(), Some(crate::RUN_SECONDS as i64));
        let workloads: Vec<&str> = bench["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        assert_eq!(workloads, crate::workload::SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
    }

    #[test]
    fn every_layer_has_its_self_time_and_allocation_count() {
        for layer in LAYERS {
            for suffix in ["self_us", "allocs_per_op"] {
                let name = format!("{layer}.{suffix}");
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is missing");
            }
        }
    }

    #[test]
    fn a_run_reports_the_whole_table_and_zero_for_what_it_did_not_measure() {
        let mut m = Metrics::default();
        m.set("op_p50_ms", 1.5);
        m.set("setup_s", f64::INFINITY);
        let all = m.complete(END_TO_END);
        assert_eq!(all.len(), END_TO_END.len());
        assert_eq!(all[2], ("op_p50_ms", "ms", 1.5));
        assert_eq!(all[0], ("setup_s", "s", 0.0));
        assert_eq!(all[5], ("rss_peak_mb", "MB", 0.0));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn an_unknown_metric_name_is_a_bug() {
        let mut m = Metrics::default();
        m.set("op_p51_ms", 1.0);
        m.complete(END_TO_END);
    }
}
