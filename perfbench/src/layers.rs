//! The per-layer metric set every traced run reports, and the reading of
//! a traced run's span tree into it. A layer a workload bypasses reads 0.

use std::collections::BTreeMap;

use vericomp::core::PASS_NAMES;

use crate::spans::{reconcile, Adopted, Tracer};
use crate::util::{quantile, Outcome, OUT_DIR};

/// Every per-layer metric, in reporting order, with its unit.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for pass in PASS_NAMES {
        out.push((format!("core.{pass}.ns"), "ns"));
        out.push((format!("core.{pass}.calls"), "count"));
    }
    let fixed: &[(&str, &str)] = &[
        ("wcet.analyze.ns", "ns"),
        ("wcet.analyze.calls", "count"),
        ("wcet.functions_analyzed", "count"),
        ("wcet.functions_reused", "count"),
        ("wcet.reuse_ratio", "ratio"),
        ("wcet.arena_nodes", "count"),
        ("wcet.cfg.ns", "ns"),
        ("wcet.value.ns", "ns"),
        ("wcet.bounds.ns", "ns"),
        ("wcet.cache.ns", "ns"),
        ("scenario.generate.ns", "ns"),
        ("dataflow.lower.ns", "ns"),
        ("dataflow.lower.units", "count"),
        ("dataflow.canonical_bytes", "bytes"),
        ("scenario.check.ns", "ns"),
        ("client.negotiate.ns", "ns"),
        ("client.have_roundtrips", "count"),
        ("client.units_offered", "count"),
        ("client.units_uploaded", "count"),
        ("client.verify.ns", "ns"),
        ("proto.encode_request.ns", "ns"),
        ("proto.decode_request.ns", "ns"),
        ("proto.encode_response.ns", "ns"),
        ("proto.decode_response.ns", "ns"),
        ("proto.request_bytes", "bytes"),
        ("proto.response_bytes", "bytes"),
        ("server.request.ns", "ns"),
        ("server.wire.ns", "ns"),
        ("server.wire_rx_bytes", "bytes"),
        ("server.wire_tx_bytes", "bytes"),
        ("server.queue_wait_p50.ns", "ns"),
        ("server.queue_wait_p90.ns", "ns"),
        ("server.batches", "count"),
        ("server.cells_per_batch", "cells"),
        ("server.queue_peak", "count"),
        ("store.lookup.ns", "ns"),
        ("store.hits", "count"),
        ("store.hit_ratio", "ratio"),
        ("store.insert.ns", "ns"),
        ("store.inserts", "count"),
        ("store.evictions", "count"),
        ("store.resident_bytes", "bytes"),
        ("store.parse.hits", "count"),
        ("store.parse.misses", "count"),
        ("store.parse.evictions", "count"),
        ("store.parse.hit_ratio", "ratio"),
        ("pool.busy.ns", "ns"),
        ("pool.utilization", "ratio"),
        ("service.queue_wait_p50.ns", "ns"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    out.push(("unexplained.ns".to_owned(), "ns"));
    out.push(("trace.overhead_frac".to_owned(), "ratio"));
    out.push(("nproc".to_owned(), "count"));
    out
}

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// Reads layer self times and call counts out of the span tree: the
    /// 14 passes, analysis, store lookups and inserts, front end, client
    /// verification, worker busy time.
    pub fn read_spans(&mut self, tracer: &Tracer) {
        for (name, (self_ns, calls, _)) in tracer.layers() {
            match name.as_str() {
                "wcet.analyze" | "store.lookup" | "store.insert" | "dataflow.lower"
                | "scenario.check" | "client.verify" | "scenario.generate" => {
                    self.add(&format!("{name}.ns"), self_ns);
                    if name == "wcet.analyze" {
                        self.add("wcet.analyze.calls", calls as f64);
                    }
                    if name == "store.insert" {
                        self.add("store.inserts", calls as f64);
                    }
                }
                n if n.starts_with("core.") && n != "core.compile" => {
                    self.add(&format!("{name}.ns"), self_ns);
                    self.add(&format!("{name}.calls"), calls as f64);
                }
                _ => {}
            }
        }
        self.add("pool.busy.ns", tracer.pool_busy());
    }

    /// Counts from adopted program spans: fixpoint/reuse events.
    pub fn read_adopted(&mut self, adopted: &Adopted) {
        self.add("wcet.functions_analyzed", adopted.fixpoints as f64);
        self.add("wcet.functions_reused", adopted.reuses as f64);
    }

    /// Derived ratios, then the reconciliation table and Chrome trace
    /// files; fills `unexplained.ns` and the metric list of `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        mut self,
        out: &mut Outcome,
        tracer: &Tracer,
        tag: &str,
        wall_ns: f64,
        client_threads: usize,
        pool_jobs: usize,
        untraced_op_ns: f64,
        traced_op_ns: f64,
    ) {
        let get = |l: &Layers, n: &str| l.0.get(n).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        let fr = ratio(
            get(&self, "wcet.functions_reused"),
            get(&self, "wcet.functions_analyzed"),
        );
        self.set("wcet.reuse_ratio", fr);
        let hr = ratio(get(&self, "store.hits"), get(&self, "store.inserts"));
        self.set("store.hit_ratio", hr);
        let pr = ratio(
            get(&self, "store.parse.hits"),
            get(&self, "store.parse.misses"),
        );
        self.set("store.parse.hit_ratio", pr);
        self.set("nproc", crate::util::nproc() as f64);
        self.set(
            "trace.overhead_frac",
            if untraced_op_ns > 0.0 {
                traced_op_ns / untraced_op_ns - 1.0
            } else {
                0.0
            },
        );
        let (table, unexplained) = reconcile(tracer, wall_ns, client_threads, pool_jobs);
        self.set("unexplained.ns", unexplained);

        let _ = std::fs::create_dir_all(OUT_DIR);
        let layers_path = format!("{OUT_DIR}/layers-{tag}.txt");
        let trace_path = format!("{OUT_DIR}/trace-{tag}.json");
        let mut text = table;
        text.push_str(&format!(
            "\ntraced op {traced_op_ns:.0} ns vs untraced op {untraced_op_ns:.0} ns at reference \
             speed (tracing overhead {:+.1}%)\n",
            100.0 * get(&self, "trace.overhead_frac")
        ));
        eprint!("{text}");
        if std::fs::write(&layers_path, &text).is_err()
            || std::fs::write(&trace_path, tracer.to_chrome_json()).is_err()
        {
            out.problem(format!("could not write {layers_path} / {trace_path}"));
        }
        out.info("layers", &layers_path);
        out.info("chrome_trace", &trace_path);
        for (name, unit) in catalogue() {
            let value = get(&self, &name);
            out.metric(&name, value, unit);
        }
    }
}

/// p50 and p90 of a wait distribution.
pub fn wait_quantiles(waits: &[f64]) -> (f64, f64) {
    (quantile(waits, 0.5), quantile(waits, 0.9))
}
