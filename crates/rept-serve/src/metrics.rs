//! Per-tenant serving metrics and Prometheus-style text exposition.
//!
//! Every [`ServeCore`](crate::core::ServeCore) owns one [`ServeMetrics`]:
//! a fixed set of atomic counters, gauges and log₂-bucket histograms from
//! [`rept_metrics::registry`], plus a slow-op [`TraceRing`]. Recording is
//! lock-free and allocation-free; scraping reads the same atomics, so a
//! scrape can never block ingest.
//!
//! [`render_exposition`] turns one or more tenant scrapes into
//! Prometheus-style text: `# TYPE` headers, one sample per line,
//! `tenant="…"` labels, histograms as summaries with
//! `quantile="0.5|0.9|0.99|1"` rows plus `_sum`/`_count`. With
//! `include_aggregate`, counters and histograms are additionally folded
//! across tenants into `tenant="_all"` rows (exact at bucket granularity —
//! see [`Histogram::merge_from`]). Tenant names are restricted to
//! `[A-Za-z0-9_-]` by the router, so label values never need escaping.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use rept_metrics::registry::Gauge;
pub use rept_metrics::registry::{Counter, Histogram};
use rept_metrics::trace::TraceRing;

use crate::core::Health;

/// Query verbs with per-verb service-latency histograms, in exposition
/// order. `record_query` ignores verbs not in this list.
pub const QUERY_VERBS: &[&str] = &["global", "local", "topk", "stats", "journal", "health"];

/// The full metric set owned by one tenant's serving core.
///
/// All fields are plain atomics; writers and scrapers never contend on a
/// lock (the trace ring locks only for events at or above its threshold).
#[derive(Debug)]
pub struct ServeMetrics {
    /// Edge batches applied to the estimator.
    pub ingest_batches: Counter,
    /// Individual edges applied.
    pub ingest_edges: Counter,
    /// Batches refused with `ERR BUSY` after the queue stayed full for
    /// the hold bound (immediately, for a zero hold).
    pub busy_rejections: Counter,
    /// Batches rejected by the tenant quota (`QUOTA`).
    pub quota_rejections: Counter,
    /// Batches rejected by a journal append/sync failure.
    pub rejected_batches: Counter,
    /// Batches recorded to the dead-letter queue.
    pub dead_letters: Counter,
    /// Immutable snapshots published.
    pub snapshots_published: Counter,
    /// Publications that took an `O(locals)` step (see
    /// [`crate::snapshot::Publication::full`]).
    pub publish_full: Counter,
    /// Cadence publications skipped because an aggregate exchange was
    /// answered since the last cadence point.
    pub publish_skipped: Counter,
    /// Checkpoints written.
    pub checkpoints_written: Counter,
    /// Total bytes of checkpoint files written.
    pub checkpoint_bytes: Counter,
    /// Journal records appended.
    pub journal_appends: Counter,
    /// Journal fsync (`sync_data`) calls.
    pub journal_fsyncs: Counter,
    /// Size, in batches, of the most recent group commit.
    pub last_group_commit: Gauge,
    /// Wire batches currently held on a full queue, waiting for room.
    pub ingest_held: Gauge,
    /// Time a wire batch was held on a full queue before it was
    /// enqueued or refused (µs); batches that found room are not
    /// recorded.
    pub ingest_hold_micros: Histogram,
    /// Time an ingest batch waited in the control queue (µs).
    pub queue_wait_micros: Histogram,
    /// Time to apply one batch to the estimator (µs).
    pub apply_micros: Histogram,
    /// Time to build and write one journal record, excluding fsync (µs).
    pub journal_append_micros: Histogram,
    /// Journal fsync duration (µs).
    pub fsync_micros: Histogram,
    /// Group-commit sizes (batches per barrier sync).
    pub group_commit_batches: Histogram,
    /// Checkpoint write duration (µs).
    pub checkpoint_micros: Histogram,
    /// Snapshot publication duration (µs).
    pub publish_micros: Histogram,
    /// Nodes recombined per publication.
    pub publish_nodes: Histogram,
    /// Slow-operation ring, drained by `TRACE TAIL`.
    pub trace: TraceRing,
    queries: Vec<Histogram>,
}

impl ServeMetrics {
    /// Create an empty metric set with a trace ring of `trace_capacity`
    /// events and the given slow-op threshold.
    pub fn new(trace_capacity: usize, slow_op_threshold: Duration) -> Self {
        ServeMetrics {
            ingest_batches: Counter::new(),
            ingest_edges: Counter::new(),
            busy_rejections: Counter::new(),
            quota_rejections: Counter::new(),
            rejected_batches: Counter::new(),
            dead_letters: Counter::new(),
            snapshots_published: Counter::new(),
            publish_full: Counter::new(),
            publish_skipped: Counter::new(),
            checkpoints_written: Counter::new(),
            checkpoint_bytes: Counter::new(),
            journal_appends: Counter::new(),
            journal_fsyncs: Counter::new(),
            last_group_commit: Gauge::new(),
            ingest_held: Gauge::new(),
            ingest_hold_micros: Histogram::new(),
            queue_wait_micros: Histogram::new(),
            apply_micros: Histogram::new(),
            journal_append_micros: Histogram::new(),
            fsync_micros: Histogram::new(),
            group_commit_batches: Histogram::new(),
            checkpoint_micros: Histogram::new(),
            publish_micros: Histogram::new(),
            publish_nodes: Histogram::new(),
            trace: TraceRing::new(trace_capacity, slow_op_threshold),
            queries: QUERY_VERBS.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// The service-latency histogram for `verb`, if it is a known verb.
    pub fn query(&self, verb: &str) -> Option<&Histogram> {
        QUERY_VERBS
            .iter()
            .position(|v| *v == verb)
            .map(|i| &self.queries[i])
    }

    /// Record one query service time for `verb` (unknown verbs ignored).
    pub fn record_query(&self, verb: &str, took: Duration) {
        if let Some(h) = self.query(verb) {
            h.record_duration(took);
        }
    }
}

/// One tenant's scrape unit: its name, a live health reading, and a shared
/// handle to its metric set.
#[derive(Debug, Clone)]
pub struct TenantScrape {
    /// Tenant name, used verbatim as the `tenant=` label value.
    pub tenant: String,
    /// The tenant's configured execution engine, used verbatim as the
    /// `engine=` label value of `rept_tenant_info` (same source as the
    /// `engine=` field of `STATS`).
    pub engine: &'static str,
    /// Health reading taken at scrape time (gauge-backed, live).
    pub health: Health,
    /// The tenant's metric set.
    pub metrics: Arc<ServeMetrics>,
}

/// One exposition column: series name + accessor.
type CounterColumn = (&'static str, fn(&ServeMetrics) -> u64);
type GaugeColumn = (&'static str, fn(&TenantScrape) -> u64);
type HistogramColumn = (&'static str, fn(&ServeMetrics) -> &Histogram);

const COUNTERS: &[CounterColumn] = &[
    ("rept_ingest_batches_total", |m| m.ingest_batches.get()),
    ("rept_ingest_edges_total", |m| m.ingest_edges.get()),
    ("rept_busy_rejections_total", |m| m.busy_rejections.get()),
    ("rept_quota_rejections_total", |m| m.quota_rejections.get()),
    ("rept_rejected_batches_total", |m| m.rejected_batches.get()),
    ("rept_dead_letters_total", |m| m.dead_letters.get()),
    ("rept_snapshots_published_total", |m| {
        m.snapshots_published.get()
    }),
    ("rept_publish_full_total", |m| m.publish_full.get()),
    ("rept_publish_skipped_total", |m| m.publish_skipped.get()),
    ("rept_checkpoints_total", |m| m.checkpoints_written.get()),
    ("rept_checkpoint_bytes_total", |m| m.checkpoint_bytes.get()),
    ("rept_journal_appends_total", |m| m.journal_appends.get()),
    ("rept_journal_fsyncs_total", |m| m.journal_fsyncs.get()),
    ("rept_trace_events_total", |m| m.trace.recorded()),
    ("rept_trace_dropped_total", |m| m.trace.dropped()),
];

const GAUGES: &[GaugeColumn] = &[
    ("rept_queue_depth", |s| s.health.queue_depth),
    ("rept_stored_bytes", |s| s.health.stored_bytes),
    ("rept_journal_lag_bytes", |s| s.health.journal_lag_bytes),
    ("rept_dlq_depth", |s| s.health.dlq),
    ("rept_degraded", |s| u64::from(s.health.degraded)),
    ("rept_last_group_commit", |s| {
        s.metrics.last_group_commit.get()
    }),
    ("rept_ingest_held", |s| s.metrics.ingest_held.get()),
];

const HISTOGRAMS: &[HistogramColumn] = &[
    ("rept_ingest_hold_micros", |m| &m.ingest_hold_micros),
    ("rept_queue_wait_micros", |m| &m.queue_wait_micros),
    ("rept_apply_micros", |m| &m.apply_micros),
    ("rept_journal_append_micros", |m| &m.journal_append_micros),
    ("rept_fsync_micros", |m| &m.fsync_micros),
    ("rept_group_commit_batches", |m| &m.group_commit_batches),
    ("rept_checkpoint_micros", |m| &m.checkpoint_micros),
    ("rept_publish_micros", |m| &m.publish_micros),
    ("rept_publish_nodes", |m| &m.publish_nodes),
];

/// Writes one histogram as a summary: `quantile="0.5|0.9|0.99|1"` rows
/// under `labels` (non-empty), then `_sum` and `_count`.
pub fn write_summary(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("1", h.max()),
    ] {
        let _ = writeln!(out, "{name}{{{labels},quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

/// Render Prometheus-style text exposition for the given tenant scrapes.
///
/// With `include_aggregate`, every counter and histogram family gains
/// `tenant="_all"` rows holding the cross-tenant sum / bucket-exact merge.
/// Gauges describe a single tenant's instantaneous state and are never
/// aggregated. The returned string has one sample or `# TYPE` header per
/// line and no trailing blank line.
pub fn render_exposition(scrapes: &[TenantScrape], include_aggregate: bool) -> String {
    let mut out = String::new();
    let aggregate = include_aggregate && !scrapes.is_empty();
    // Info-style series carrying each tenant's engine label (constant 1,
    // joined onto the other series by `tenant=` — the Prometheus idiom
    // for string-valued metadata). Never aggregated: engines differ.
    let _ = writeln!(out, "# TYPE rept_tenant_info gauge");
    for s in scrapes {
        let _ = writeln!(
            out,
            "rept_tenant_info{{tenant=\"{}\",engine=\"{}\"}} 1",
            s.tenant, s.engine
        );
    }
    for (name, get) in COUNTERS {
        let _ = writeln!(out, "# TYPE {name} counter");
        let mut total = 0u64;
        for s in scrapes {
            let v = get(&s.metrics);
            total += v;
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {v}", s.tenant);
        }
        if aggregate {
            let _ = writeln!(out, "{name}{{tenant=\"_all\"}} {total}");
        }
    }
    for (name, get) in GAUGES {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for s in scrapes {
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", s.tenant, get(s));
        }
    }
    for (name, get) in HISTOGRAMS {
        let _ = writeln!(out, "# TYPE {name} summary");
        let merged = Histogram::new();
        for s in scrapes {
            let h = get(&s.metrics);
            if aggregate {
                merged.merge_from(h);
            }
            write_summary(&mut out, name, &format!("tenant=\"{}\"", s.tenant), h);
        }
        if aggregate {
            write_summary(&mut out, name, "tenant=\"_all\"", &merged);
        }
    }
    let _ = writeln!(out, "# TYPE rept_query_micros summary");
    let merged: Vec<Histogram> = QUERY_VERBS.iter().map(|_| Histogram::new()).collect();
    for s in scrapes {
        for (i, verb) in QUERY_VERBS.iter().enumerate() {
            let h = s.metrics.query(verb).expect("verb table");
            if aggregate {
                merged[i].merge_from(h);
            }
            write_summary(
                &mut out,
                "rept_query_micros",
                &format!("tenant=\"{}\",verb=\"{verb}\"", s.tenant),
                h,
            );
        }
    }
    if aggregate {
        for (i, verb) in QUERY_VERBS.iter().enumerate() {
            write_summary(
                &mut out,
                "rept_query_micros",
                &format!("tenant=\"_all\",verb=\"{verb}\""),
                &merged[i],
            );
        }
    }
    while out.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(tenant: &str, edges: u64) -> TenantScrape {
        let m = ServeMetrics::new(16, Duration::from_millis(50));
        m.ingest_edges.add(edges);
        m.ingest_batches.inc();
        m.queue_wait_micros.record(edges);
        m.record_query("global", Duration::from_micros(7));
        TenantScrape {
            tenant: tenant.to_string(),
            engine: "fused-hybrid",
            health: Health {
                degraded: false,
                queue_depth: 2048,
                queue_capacity: 4096,
                stored_bytes: 64,
                memory_budget: 0,
                journal_lag_bytes: 0,
                dlq: 0,
                sync: "per-record",
                last_group: 1,
            },
            metrics: Arc::new(m),
        }
    }

    #[test]
    fn exposition_labels_every_tenant() {
        let text = render_exposition(&[scrape("default", 10), scrape("alpha", 5)], false);
        assert!(text.contains("# TYPE rept_tenant_info gauge"));
        assert!(text.contains("rept_tenant_info{tenant=\"default\",engine=\"fused-hybrid\"} 1"));
        assert!(text.contains("# TYPE rept_ingest_edges_total counter"));
        assert!(text.contains("rept_ingest_edges_total{tenant=\"default\"} 10"));
        assert!(text.contains("rept_ingest_edges_total{tenant=\"alpha\"} 5"));
        assert!(!text.contains("_all"), "no aggregate unless requested");
        assert!(text.contains("rept_queue_depth{tenant=\"default\"} 2048"));
        assert!(
            text.contains("rept_query_micros{tenant=\"alpha\",verb=\"global\",quantile=\"1\"} 7")
        );
        assert!(!text.ends_with('\n'));
    }

    #[test]
    fn aggregate_sums_counters_and_merges_histograms() {
        let text = render_exposition(&[scrape("default", 10), scrape("alpha", 5)], true);
        assert!(text.contains("rept_ingest_edges_total{tenant=\"_all\"} 15"));
        assert!(text.contains("rept_queue_wait_micros_count{tenant=\"_all\"} 2"));
        assert!(text.contains("rept_queue_wait_micros_sum{tenant=\"_all\"} 15"));
        assert!(text.contains("rept_queue_wait_micros{tenant=\"_all\",quantile=\"1\"} 10"));
        assert!(
            !text.contains("rept_queue_depth{tenant=\"_all\"}"),
            "gauges are never aggregated"
        );
    }

    #[test]
    fn unknown_query_verb_is_ignored() {
        let m = ServeMetrics::new(4, Duration::ZERO);
        m.record_query("nonsense", Duration::from_micros(1));
        assert!(m.query("nonsense").is_none());
        assert_eq!(m.query("global").unwrap().count(), 0);
    }
}
