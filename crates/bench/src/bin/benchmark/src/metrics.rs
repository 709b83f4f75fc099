//! The metric catalogue: every name the benchmark reports, with its unit,
//! in print order. `BENCHMARK.json` lists the same names and units (a
//! test holds the two equal).

use system_sim::Mechanism;

use crate::workload::slug;

/// End-to-end metrics of the untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("records_per_s", "records/s"),
    ("cold_s", "s"),
    ("warm_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER_HEAD: [(&str, &str); 33] = [
    ("trace.ns_per_record", "ns"),
    ("trace.share", "ratio"),
    ("core.ns_per_record", "ns"),
    ("core.share", "ratio"),
    ("cache.ns_per_record", "ns"),
    ("cache.share", "ratio"),
    ("cache.l1_hit", "ratio"),
    ("cache.l2_hit", "ratio"),
    ("llc.ns_per_record", "ns"),
    ("llc.share", "ratio"),
    ("llc.calls_per_record", "calls/record"),
    ("llc.read_hit_ns", "ns"),
    ("llc.read_dram_ns", "ns"),
    ("llc.bypass_ns", "ns"),
    ("llc.writeback_ns", "ns"),
    ("llc.drain_ns", "ns"),
    ("llc.drain_share", "ratio"),
    ("llc.tag_lookups_pki", "1/kinst"),
    ("llc.bypass_rate", "ratio"),
    ("llc.sweep_wb_pki", "1/kinst"),
    ("dbi.marks_pki", "1/kinst"),
    ("dbi.evictions_pki", "1/kinst"),
    ("dbi.wb_per_eviction", "wb/eviction"),
    ("dram.reads_pki", "1/kinst"),
    ("dram.writes_pki", "1/kinst"),
    ("dram.drains_pki", "1/kinst"),
    ("dram.read_row_hit", "ratio"),
    ("dram.write_row_hit", "ratio"),
    ("dram.drain_cycle_share", "ratio"),
    ("setup.llc_new_ms", "ms"),
    ("setup.dram_new_ms", "ms"),
    ("setup.cache_new_ms", "ms"),
    ("setup.trace_new_ms", "ms"),
];

const PER_LAYER_TAIL: [(&str, &str); 13] = [
    ("runner.unit_s_p50", "s"),
    ("runner.unit_s_p90", "s"),
    ("runner.parallel_eff", "ratio"),
    ("runner.sims", "count"),
    ("runner.hits", "count"),
    ("store.save_ms_p50", "ms"),
    ("store.save_ms_p90", "ms"),
    ("store.load_ms_p50", "ms"),
    ("store.load_ms_p90", "ms"),
    ("store.open_ms", "ms"),
    ("store.entry_bytes", "bytes"),
    ("tracing.overhead_pct", "%"),
    ("alloc.per_record", "allocs/record"),
];

/// Per-layer metrics of the traced run: the fixed ones, with one
/// `mech.<slug>.ns_per_record` per Table 2 mechanism in the middle.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&PER_LAYER_HEAD);
    out.extend(
        Mechanism::ALL
            .iter()
            .map(|&m| (format!("mech.{}.ns_per_record", slug(m)), "ns")),
    );
    out.extend(fixed(&PER_LAYER_TAIL));
    out
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
