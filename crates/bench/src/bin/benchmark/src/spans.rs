//! Sampled spans around the replica's layer calls, and their self times.
//!
//! Every `SAMPLE_EVERY`-th trace record of a unit gets a record span (its
//! id is the record index); each public call the replica makes while
//! executing it — the trace generator, an L1/L2 `Cache` method, an
//! `SharedLlc` read or writeback — gets a child span under it. LLC spans
//! are classified by what the call did: a DRAM write drain (the drain
//! counter moved), a bypass, a hit, or a read that went to DRAM; a
//! writeback that drained nothing is a plain writeback. Child spans never
//! nest, so a child's self time is its duration and the record's self
//! time — the core model and the drive loop — is its duration minus its
//! children's. Both are corrected by a calibrated empty-span cost.
//!
//! Counts (records, LLC calls, L1/L2 lookups) are taken on every record,
//! not only sampled ones. Spans go into a preallocated buffer that is
//! written out as JSONL when the run ends.

use std::io::Write as _;
use std::time::Instant;

use cache_sim::CacheStats;
use dram_sim::MemoryController;
use system_sim::ReadOutcome;

/// One record in this many gets a record span.
const SAMPLE_EVERY: u64 = 64;

/// Child spans kept per record; a record never makes more calls than
/// this on the default configuration (the longest write path makes ten).
const MAX_CHILDREN: usize = 32;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A whole trace record; its self time is the core model + drive loop.
    Record,
    Trace,
    Cache,
    LlcReadHit,
    LlcReadDram,
    LlcBypass,
    LlcWriteback,
    LlcDrain,
}

impl Layer {
    pub const COUNT: usize = 8;

    pub const LLC: [Layer; 5] = [
        Layer::LlcReadHit,
        Layer::LlcReadDram,
        Layer::LlcBypass,
        Layer::LlcWriteback,
        Layer::LlcDrain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Record => "record",
            Layer::Trace => "trace",
            Layer::Cache => "cache",
            Layer::LlcReadHit => "llc.read_hit",
            Layer::LlcReadDram => "llc.read_dram",
            Layer::LlcBypass => "llc.bypass",
            Layer::LlcWriteback => "llc.writeback",
            Layer::LlcDrain => "llc.drain",
        }
    }
}

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub unit: u32,
    pub record: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

/// The cost of recording a span: `inner` is what an empty child span
/// measures itself, `outer` what it adds to its parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

/// Per-layer self time and counts, summed over sampled records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub self_ns: [f64; Layer::COUNT],
    pub calls: [u64; Layer::COUNT],
    /// Records executed (all of them, sampled or not).
    pub records: u64,
    /// `SharedLlc` calls made (all records).
    pub llc_calls: u64,
    pub l1_lookups: u64,
    pub l1_hits: u64,
    pub l2_lookups: u64,
    pub l2_hits: u64,
}

impl Totals {
    pub fn merge(&mut self, o: &Totals) {
        for i in 0..Layer::COUNT {
            self.self_ns[i] += o.self_ns[i];
            self.calls[i] += o.calls[i];
        }
        self.records += o.records;
        self.llc_calls += o.llc_calls;
        self.l1_lookups += o.l1_lookups;
        self.l1_hits += o.l1_hits;
        self.l2_lookups += o.l2_lookups;
        self.l2_hits += o.l2_hits;
    }

    /// Sampled records.
    pub fn sampled(&self) -> u64 {
        self.calls[Layer::Record as usize]
    }
}

/// The span recorder one replica run writes into.
pub struct Tracer {
    epoch: Instant,
    unit: u32,
    calib: Calibration,
    active: bool,
    record: u64,
    record_start: u64,
    children: [(Layer, u64, u64); MAX_CHILDREN],
    n_children: usize,
    pub totals: Totals,
    /// Spans kept for export; preallocated, never grown.
    pub export: Vec<Span>,
}

impl Tracer {
    /// A tracer for unit `unit` that keeps at most `export_cap` spans.
    pub fn new(epoch: Instant, unit: u32, export_cap: usize, calib: Calibration) -> Tracer {
        Tracer {
            epoch,
            unit,
            calib,
            active: false,
            record: 0,
            record_start: 0,
            children: [(Layer::Record, 0, 0); MAX_CHILDREN],
            n_children: 0,
            totals: Totals::default(),
            export: Vec::with_capacity(export_cap),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens record `id`'s span when `id` is sampled.
    #[inline]
    pub fn begin_record(&mut self, id: u64) {
        self.totals.records += 1;
        if id.is_multiple_of(SAMPLE_EVERY) {
            self.active = true;
            self.record = id;
            self.n_children = 0;
            self.record_start = self.now();
        }
    }

    /// Closes the open record span and folds it into the totals.
    #[inline]
    pub fn end_record(&mut self) {
        if !self.active {
            return;
        }
        let end = self.now();
        self.active = false;
        self.close(end);
    }

    #[inline]
    fn child(&mut self, layer: Layer, start: u64, end: u64) {
        if self.n_children < MAX_CHILDREN {
            self.children[self.n_children] = (layer, start, end);
            self.n_children += 1;
        }
    }

    fn close(&mut self, end: u64) {
        let Calibration { inner_ns, outer_ns } = self.calib;
        let children = &self.children[..self.n_children];
        let mut covered = 0.0;
        for &(layer, s, e) in children {
            let d = (e - s) as f64;
            covered += d;
            self.totals.self_ns[layer as usize] += (d - inner_ns).max(0.0);
            self.totals.calls[layer as usize] += 1;
        }
        let per_child = (outer_ns - inner_ns).max(0.0);
        let own = (end - self.record_start) as f64 - covered - per_child * children.len() as f64;
        self.totals.self_ns[Layer::Record as usize] += own.max(0.0);
        self.totals.calls[Layer::Record as usize] += 1;
        if self.export.capacity() - self.export.len() > children.len() {
            let (unit, record) = (self.unit, self.record);
            let span = |layer, start, end| Span {
                unit,
                record,
                layer,
                start,
                end,
            };
            self.export
                .push(span(Layer::Record, self.record_start, end));
            self.export
                .extend(children.iter().map(|&(l, s, e)| span(l, s, e)));
        }
    }

    /// Runs `f` inside a `layer` child span when the record is sampled.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.active {
            return f();
        }
        let s = self.now();
        let r = f();
        let e = self.now();
        self.child(layer, s, e);
        r
    }

    /// An LLC demand read, classified by its outcome and by whether the
    /// memory controller drained its write buffer during the call.
    #[inline]
    pub fn llc_read(
        &mut self,
        dram: &mut MemoryController,
        f: impl FnOnce(&mut MemoryController) -> ReadOutcome,
    ) -> ReadOutcome {
        self.totals.llc_calls += 1;
        if !self.active {
            return f(dram);
        }
        let drains = dram.stats().drains;
        let s = self.now();
        let o = f(dram);
        let e = self.now();
        let layer = if dram.stats().drains != drains {
            Layer::LlcDrain
        } else if o.bypassed {
            Layer::LlcBypass
        } else if o.hit {
            Layer::LlcReadHit
        } else {
            Layer::LlcReadDram
        };
        self.child(layer, s, e);
        o
    }

    /// An LLC writeback (including any sweep it triggers), classified as
    /// a drain when the memory controller drained during the call.
    #[inline]
    pub fn llc_writeback(
        &mut self,
        dram: &mut MemoryController,
        f: impl FnOnce(&mut MemoryController),
    ) {
        self.totals.llc_calls += 1;
        if !self.active {
            return f(dram);
        }
        let drains = dram.stats().drains;
        let s = self.now();
        f(dram);
        let e = self.now();
        let layer = if dram.stats().drains != drains {
            Layer::LlcDrain
        } else {
            Layer::LlcWriteback
        };
        self.child(layer, s, e);
    }

    /// Adds one core's whole-run L1 and L2 lookup counters.
    pub fn add_cache_stats(&mut self, l1: &CacheStats, l2: &CacheStats) {
        self.totals.l1_lookups += l1.lookups;
        self.totals.l1_hits += l1.hits;
        self.totals.l2_lookups += l2.lookups;
        self.totals.l2_hits += l2.hits;
    }
}

/// Measures the span cost on this host: `inner` is the median duration
/// of an empty child span, `outer` the median time one adds to its
/// parent.
pub fn calibrate() -> Calibration {
    const PER_RECORD: usize = 16;
    let mut t = Tracer::new(Instant::now(), 0, 0, Calibration::default());
    let mut inner = Vec::new();
    let mut outer = Vec::new();
    for _ in 0..2000 {
        t.begin_record(0);
        let s = t.now();
        for _ in 0..PER_RECORD {
            t.time(Layer::Cache, || std::hint::black_box(()));
        }
        let e = t.now();
        outer.push((e - s) as f64 / PER_RECORD as f64);
        inner.extend(
            t.children[..t.n_children]
                .iter()
                .map(|&(_, s, e)| (e - s) as f64),
        );
        t.end_record();
    }
    Calibration {
        inner_ns: crate::stats::median(&inner),
        outer_ns: crate::stats::median(&outer),
    }
}

/// Writes spans as JSON lines: the record span has no parent, every
/// other span's parent is its record's span.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.layer == Layer::Record {
            "null"
        } else {
            "\"record\""
        };
        writeln!(
            w,
            "{{\"unit\":{},\"record\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.unit,
            s.record,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    w.flush()
}
