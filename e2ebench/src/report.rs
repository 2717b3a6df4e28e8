//! Metrics from a run's measurements, and the lines the benchmark prints.

use std::collections::{BTreeMap, BTreeSet};

use cxm_server::Json;

use crate::replica::Replica;
use crate::stats::{median, tail};
use crate::trace::{children_of, per_request_ms, self_time_ns, Span};
use crate::workload::{Sample, WireOutcome, SETUP_IDS};

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn read_ms(reads: &[Sample]) -> Vec<f64> {
    reads.iter().map(|s| s.ms).collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &WireOutcome) -> Vec<Metric> {
    let completed = out.reads.len().max(1) as f64;
    vec![
        metric("setup_s", "s", median(&out.setup_s).unwrap_or(f64::NAN)),
        metric("p50_ms", "ms", median(&read_ms(&out.reads)).unwrap_or(f64::NAN)),
        metric("throughput_rps", "1/s", out.reads.len() as f64 / out.phase_s),
        metric("cpu_ms_per_request", "ms", out.server_cpu_ms / completed),
        metric("peak_rss_mb", "MiB", out.peak_rss_kb / 1024.0),
        metric("write_p50_ms", "ms", median(&out.writes_ms).unwrap_or(f64::NAN)),
        metric("match_f1", "%", out.match_f1),
    ]
}

/// Names of the server-side stages of a `submit`, as the replica times them.
const SERVER_STAGES: [&str; 6] = [
    "json.request_parse",
    "protocol.decode",
    "relational.fingerprint",
    "service.submit",
    "protocol.encode",
    "json.reply_encode",
];

/// Spans of read requests only (writes have their own ids).
fn reads_only(spans: &[Span], writes: &BTreeSet<u64>) -> Vec<Span> {
    spans.iter().filter(|s| !writes.contains(&s.request)).cloned().collect()
}

/// Per-request medians of span durations, by span name.
fn span_medians(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    per_request_ms(spans).into_iter().filter_map(|(k, v)| Some((k, median(&v)?))).collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    wire: &WireOutcome,
    replica: &Replica,
    replica_spans: &[Span],
    writes: &BTreeSet<u64>,
) -> Vec<Metric> {
    let wire_reads = span_medians(&reads_only(&wire.spans, writes));
    let replica_reads_spans = reads_only(replica_spans, writes);
    let replica_reads = span_medians(&replica_reads_spans);
    let replica_all = span_medians(replica_spans);
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let count = |k: &str| replica.counts.get(k).and_then(|v| median(v)).unwrap_or(0.0);
    let sum = |k: &str| replica.counts.get(k).map_or(0.0, |v| v.iter().sum::<f64>());

    // Server-side time of each replayed read: the sum of its stages.
    let mut server_side: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &replica_reads_spans {
        if SERVER_STAGES.contains(&s.name) {
            *server_side.entry(s.request).or_default() += s.duration_ns() as f64 / 1e6;
        }
    }
    let server_side: Vec<f64> = server_side.into_values().collect();
    let roundtrip = get(&wire_reads, "server.roundtrip");

    // The replica's own glue between the stages.
    let kids = children_of(replica_spans);
    let unaccounted: Vec<f64> = replica_reads_spans
        .iter()
        .filter(|s| s.name == "replica.submit")
        .map(|s| self_time_ns(s, kids.get(&s.id).map_or(&[][..], |v| v)) as f64 / 1e6)
        .collect();

    let by_request = |name: &str| -> BTreeMap<u64, f64> {
        replica_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.duration_ns() as f64 / 1e6))
            .collect()
    };
    let register = by_request("service.register");
    // Warm/cold: a miss's service time over its cold one-shot run.
    let cold = by_request("core.run_cold");
    let submit = by_request("service.submit");
    let ratios: Vec<f64> = cold.iter().filter_map(|(r, c)| Some(submit.get(r)? / c)).collect();

    let traced: Vec<f64> = wire.reads.iter().filter(|s| s.traced).map(|s| s.ms).collect();
    let untraced: Vec<f64> = wire.reads.iter().filter(|s| !s.traced).map(|s| s.ms).collect();
    let scanned = sum("index.pairs_scanned");

    vec![
        metric("server.request_bytes", "bytes", count("server.request_bytes")),
        metric("server.reply_bytes", "bytes", count("server.reply_bytes")),
        metric("json.request_encode_ms", "ms", get(&wire_reads, "json.request_encode")),
        metric("json.request_parse_ms", "ms", get(&replica_reads, "json.request_parse")),
        metric("json.reply_encode_ms", "ms", get(&replica_reads, "json.reply_encode")),
        metric("json.reply_parse_ms", "ms", get(&wire_reads, "json.reply_parse")),
        metric("protocol.decode_ms", "ms", get(&replica_reads, "protocol.decode")),
        metric("protocol.encode_ms", "ms", get(&replica_reads, "protocol.encode")),
        metric("server.roundtrip_ms", "ms", roundtrip),
        metric("server.wire_overhead_ms", "ms", roundtrip - median(&server_side).unwrap_or(0.0)),
        metric("relational.fingerprint_ms", "ms", get(&replica_reads, "relational.fingerprint")),
        metric("service.submit_ms", "ms", get(&replica_reads, "service.submit")),
        // The read tenant's registration only: the write probe's catalog is
        // registered after the timed phase, outside `setup_s`.
        metric("service.register_ms", "ms", register.get(&SETUP_IDS).copied().unwrap_or(0.0)),
        metric("service.replace_ms", "ms", get(&replica_all, "service.replace")),
        metric("catalog.columns_rebuilt", "count", count("catalog.columns_rebuilt")),
        metric("service.result_cache_hits", "count", replica.result_hits as f64),
        metric("service.result_cache_misses", "count", replica.result_misses as f64),
        metric(
            "service.restricted_profile_hits",
            "count",
            count("service.restricted_profile_hits"),
        ),
        metric(
            "service.restricted_profile_misses",
            "count",
            count("service.restricted_profile_misses"),
        ),
        metric("service.selection_cache_hits", "count", count("service.selection_cache_hits")),
        metric("service.selection_cache_misses", "count", count("service.selection_cache_misses")),
        metric("matching.profile_builds", "count", count("matching.profile_builds")),
        metric("index.build_ms", "ms", get(&replica_all, "index.build")),
        metric("index.update_ms", "ms", get(&replica_all, "index.update")),
        metric("index.postings_rebuilt", "count", count("index.postings_rebuilt")),
        metric("index.pairs_scanned", "count", count("index.pairs_scanned")),
        metric("index.pairs_surviving", "count", count("index.pairs_surviving")),
        metric(
            "index.surviving_pct",
            "%",
            if scanned > 0.0 { 100.0 * sum("index.pairs_surviving") / scanned } else { 0.0 },
        ),
        metric("matching.kernel_scores_pruned", "count", count("matching.kernel_scores_pruned")),
        metric("classify.target_train_ms", "ms", get(&replica_all, "classify.target_train")),
        metric("classify.work_units", "count", count("classify.work_units")),
        metric("core.view_generation_ms", "ms", get(&replica_all, "core.view_generation")),
        metric("core.candidate_views", "count", count("core.candidate_views")),
        metric("core.run_cold_ms", "ms", get(&replica_all, "core.run_cold")),
        metric("core.submit_over_cold", "ratio", median(&ratios).unwrap_or(0.0)),
        metric(
            "trace.overhead_ms",
            "ms",
            median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0),
        ),
        metric("trace.unaccounted_ms", "ms", median(&unaccounted).unwrap_or(0.0)),
    ]
}

/// One traced read's self-time breakdown: the client-side spans of the
/// traced read with the median latency, and the replica's median stages.
pub fn breakdown(wire: &WireOutcome, replica_spans: &[Span], writes: &BTreeSet<u64>) -> Json {
    // Timed-phase reads only: `client.submit` spans are reads, and set-up
    // ids start at `SETUP_IDS`.
    let mut by_duration: Vec<&Span> =
        wire.spans.iter().filter(|s| s.name == "client.submit" && s.request < SETUP_IDS).collect();
    by_duration.sort_by_key(|s| s.duration_ns());
    let Some(root) = by_duration.get(by_duration.len() / 2) else {
        return Json::Null;
    };
    let kids = children_of(&wire.spans);
    let children = kids.get(&root.id).map_or(&[][..], |v| v);
    let ms = |ns: u64| Json::Float(ns as f64 / 1e6);
    let mut members = vec![
        ("request".to_string(), Json::Int(root.request as i64)),
        ("total_ms".to_string(), ms(root.duration_ns())),
    ];
    for child in children {
        members.push((child.name.to_string(), ms(child.duration_ns())));
    }
    members.push(("client.unaccounted_ms".to_string(), ms(self_time_ns(root, children))));
    let server = span_medians(&reads_only(replica_spans, writes));
    let mut stages = 0.0;
    for stage in SERVER_STAGES {
        let v = server.get(stage).copied().unwrap_or(0.0);
        stages += v;
        members.push((format!("server.{stage}"), Json::Float(v)));
    }
    let roundtrip = children.iter().find(|c| c.name == "server.roundtrip");
    if let Some(rt) = roundtrip {
        members.push((
            "server.wire_overhead_ms".to_string(),
            Json::Float(rt.duration_ns() as f64 / 1e6 - stages),
        ));
    }
    Json::Object(members)
}

/// The detail line: everything beside the bounded metrics.
pub fn detail(workload: &str, seed: u64, out: &WireOutcome, extra: Vec<(String, Json)>) -> Json {
    let reads = read_ms(&out.reads);
    let tail_json = |values: &[f64]| match tail(values) {
        Some(t) => Json::Object(vec![
            ("percentile".into(), Json::Float(t.percentile)),
            ("ms".into(), Json::Float(t.value)),
            ("beyond".into(), Json::Int(t.beyond as i64)),
            ("samples".into(), Json::Int(t.samples as i64)),
        ]),
        None => Json::Object(vec![("samples".into(), Json::Int(values.len() as i64))]),
    };
    let mut members = vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::Int(seed as i64)),
        ("nproc".into(), Json::Int(crate::process::nproc() as i64)),
        ("server_threads".into(), Json::Int(out.server_threads as i64)),
        ("steal_ticks".into(), Json::Int(out.steal_phase as i64)),
        ("reads".into(), Json::Int(out.reads.len() as i64)),
        ("writes".into(), Json::Int(out.writes_ms.len() as i64)),
        ("phase_s".into(), Json::Float(out.phase_s)),
        ("setup_s".into(), Json::Array(out.setup_s.iter().map(|&s| Json::Float(s)).collect())),
        ("read_tail".into(), tail_json(&reads)),
        ("write_tail".into(), tail_json(&out.writes_ms)),
        (
            "failures".into(),
            Json::Array(out.ledger.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
    ];
    members.extend(extra);
    Json::Object(vec![("detail".into(), Json::Object(members))])
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        (
            "metrics".into(),
            Json::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Object(vec![
                                ("value".into(), Json::Float(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
