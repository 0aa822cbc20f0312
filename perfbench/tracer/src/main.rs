//! `perfbench-tracer` — the traced run of the benchmark.
//!
//! ```text
//! perfbench-tracer --workload pcap-seq --pcap in.pcap --dnfr in.dnfr \
//!     --expect ref.out --seconds 10 --spans spans.json
//! ```
//!
//! Replays one seed's inputs (the pcap and the DNFR export that `gen-trace`
//! wrote from the same trace) through each layer's public functions and
//! records a span (name, start, end, parent) around every call. Spans are
//! aggregated in memory — whole passes and one-shot calls are kept as
//! individual spans, per-record calls as (count, total) per layer — and
//! written to `--spans` at the end. Nothing is traced inside the program.
//!
//! Every repetition runs every layer, so each per-layer metric is measured
//! on every workload. Where a metric has one variant per workload (set-up,
//! finish, the engine, the pipeline, the resolver on the pcap or DNFR path,
//! the attribution), the workload picks the variant of its own path; see
//! [`section`].
//!
//! Repetitions alternate between a traced and an untraced replay of the
//! same calls, and the kind that runs first alternates from pair to pair.
//! Per-layer figures are medians over the traced repetitions;
//! `trace.overhead_share` compares the two kinds. Every repetition renders
//! the workload's output and compares it byte for byte with `--expect`,
//! the `dn-hunter` binary's output over the same inputs.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": bool, "reps": n, "mismatches": n, "metrics": {name: value}}`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::net::IpAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnhunter::{
    run_flowrec_daemon, run_records, DaemonSniffer, FlowSink, FlowrecConfig, ParallelSniffer,
    RealTimeSniffer, RotationEmitter, SnifferConfig, StreamingAnalytics, StreamingConfig,
    TaggedFlow, WindowConfig, WindowedAnalytics,
};
use dnhunter_dns::{codec, DnsMessage};
use dnhunter_flow::{dpi, CompactSeg, FlowEvent, FlowTable};
use dnhunter_net::{
    parse_flat, ExportRecord, FlatParse, FlowRecReader, FrameSource, IpProtocol, PcapReader,
    PcapRecord, PcapStreamSource, SourcePoll,
};
use dnhunter_resolver::{DnsResolver, OrderedTables};
use dnhunter_telemetry::{self as telemetry, Metric};

/// Worker and dispatcher counts of the parallel workloads' command lines.
const WORKERS: usize = 2;
const DISPATCHERS: usize = 2;
/// `--window 1h --slide 5m --rotate 10m` of the stream-window workload.
const WINDOW_MICROS: u64 = 3_600_000_000;
const SLIDE_MICROS: u64 = 300_000_000;
const ROTATE_MICROS: u64 = 600_000_000;
/// The daemon loop's back-off on `Pending` (`PENDING_BACKOFF_MICROS`).
const PENDING_BACKOFF: Duration = Duration::from_micros(200);

/// Layers timed per call. The DNFR path's DNS decode and resolver calls
/// are aggregated apart from the pcap path's.
#[derive(Clone, Copy)]
enum L {
    PcapRead,
    SourcePoll,
    Parse,
    Decode,
    Insert,
    Lookup,
    FlowSeg,
    Dpi,
    Engine,
    FlowrecRead,
    FlowrecDecode,
    FlowrecInsert,
    FlowrecLookup,
    FlowrecEngine,
    SinkEvent,
    WindowEvent,
    Rotate,
    WindowEmit,
}

const LAYERS: usize = 18;
const LAYER_NAMES: [&str; LAYERS] = [
    "net.pcap",
    "net.source",
    "net.parse",
    "dns.decode",
    "resolver.insert",
    "resolver.lookup",
    "flow.table",
    "flow.dpi",
    "core.engine",
    "net.flowrec",
    "dns.decode",
    "resolver.insert",
    "resolver.lookup",
    "core.engine",
    "core.sink",
    "core.window",
    "core.daemon.rotate",
    "core.window.emit",
];

/// One recorded span. `parent` indexes `Tracer::spans`.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-call spans of one layer, aggregated: the enclosing span, the call
/// count and the summed duration.
#[derive(Clone, Copy, Default)]
struct Agg {
    parent: Option<usize>,
    calls: u64,
    ns: u64,
}

/// In-memory span recorder for one repetition. With `on == false` the
/// per-call spans are skipped (the untraced replay); pass-level spans are
/// always kept, since they are what the two kinds are compared by.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    calls: [Agg; LAYERS],
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            calls: [Agg::default(); LAYERS],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in ns.
    fn close(&mut self) -> f64 {
        let end = self.now_ns();
        let i = self.stack.pop().expect("close without open");
        self.spans[i].end_ns = end;
        (end - self.spans[i].start_ns) as f64
    }

    /// A span around one call; returns its result and duration in ns.
    fn once<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let out = black_box(f());
        (out, self.close())
    }

    /// A per-call span around one call into layer `l`.
    #[inline(always)]
    fn call<T>(&mut self, l: L, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return black_box(f());
        }
        let t0 = Instant::now();
        let out = black_box(f());
        let ns = t0.elapsed().as_nanos() as u64;
        let a = &mut self.calls[l as usize];
        if a.calls == 0 {
            a.parent = self.stack.last().copied();
        }
        a.calls += 1;
        a.ns += ns;
        out
    }

    fn total_ns(&self, l: L) -> f64 {
        self.calls[l as usize].ns as f64
    }

    /// Mean ns per call into `l`.
    fn ns_per_call(&self, l: L) -> f64 {
        self.total_ns(l) / self.calls[l as usize].calls.max(1) as f64
    }

    /// The spans that enclose per-call spans, bar `net.source`: its pass
    /// time is set by the writer thread and the `Pending` back-off, not by
    /// the calls. Both kinds of repetition open the same spans in the same
    /// order, so the indices select the same passes in either.
    fn traced_passes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.calls.iter().filter_map(|a| a.parent).collect();
        v.retain(|&i| self.spans[i].name != "net.source");
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Summed duration of the spans at `indices`.
    fn spans_ns(&self, indices: &[usize]) -> f64 {
        indices
            .iter()
            .map(|&i| (self.spans[i].end_ns - self.spans[i].start_ns) as f64)
            .sum()
    }

    fn to_json(&self, rep: usize, out: &mut String) {
        let parent = |p: Option<usize>| p.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"rep\":{rep},\"traced\":{},\"spans\":[",
            self.on
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                parent(s.parent),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("],\"calls\":[");
        let used = self.calls.iter().enumerate().filter(|(_, a)| a.calls > 0);
        for (n, (i, a)) in used.enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"calls\":{},\"total_ns\":{}}}",
                LAYER_NAMES[i],
                parent(a.parent),
                a.calls,
                a.ns
            ));
        }
        out.push_str("]}");
    }
}

/// One event a sniffer hands its analytics sink, captured for replay.
enum Ev {
    TraceStart(u64),
    Answered(u64),
    FirstDelay(u64, u64),
    AnyDelay(u64, u64),
    Finished(Box<TaggedFlow>),
}

/// A `FlowSink` owned by the benchmark: records the events it is fed.
#[derive(Default)]
struct RecordingSink {
    events: Vec<Ev>,
}

impl FlowSink for RecordingSink {
    fn on_trace_start(&mut self, ts: u64) {
        self.events.push(Ev::TraceStart(ts));
    }
    fn on_answered_response(&mut self, ts: u64) {
        self.events.push(Ev::Answered(ts));
    }
    fn on_first_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        self.events.push(Ev::FirstDelay(ts, delay_micros));
    }
    fn on_any_flow_delay(&mut self, ts: u64, delay_micros: u64) {
        self.events.push(Ev::AnyDelay(ts, delay_micros));
    }
    fn on_flow_finished(&mut self, flow: &TaggedFlow) {
        self.events.push(Ev::Finished(Box::new(flow.clone())));
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
        self
    }
}

/// Run a sequential sniffer with a [`RecordingSink`] and keep its events.
fn capture_events(feed: impl FnOnce(&mut RealTimeSniffer)) -> Vec<Ev> {
    let mut s = RealTimeSniffer::new(SnifferConfig::default());
    s.set_sink(Box::<RecordingSink>::default());
    feed(&mut s);
    s.finish_with_sinks()
        .1
        .into_iter()
        .filter_map(|s| s.as_any_box().downcast::<RecordingSink>().ok())
        .flat_map(|s| s.events)
        .collect()
}

/// Feed captured events to `sink`, one per-call span each.
fn replay_events(t: &mut Tracer, l: L, events: &[Ev], sink: &mut dyn FlowSink) {
    for ev in events {
        t.call(l, || match ev {
            Ev::TraceStart(ts) => sink.on_trace_start(*ts),
            Ev::Answered(ts) => sink.on_answered_response(*ts),
            Ev::FirstDelay(ts, d) => sink.on_first_flow_delay(*ts, *d),
            Ev::AnyDelay(ts, d) => sink.on_any_flow_delay(*ts, *d),
            Ev::Finished(f) => sink.on_flow_finished(f),
        });
    }
}

fn window_config() -> WindowConfig {
    let mut wc = WindowConfig::new(WINDOW_MICROS, SLIDE_MICROS);
    wc.stream = StreamingConfig::default();
    wc
}

/// Everything a repetition reads, loaded once before the first one.
struct Inputs {
    pcap_path: String,
    dnfr_path: String,
    records: Vec<PcapRecord>,
    /// DNFR records in the reorder buffer's release order.
    released: Vec<ExportRecord>,
    /// Events the engine hands a sink, over the pcap and over the DNFR.
    pcap_events: Vec<Ev>,
    flowrec_events: Vec<Ev>,
}

/// What one repetition rendered, for the byte comparisons.
struct Outputs {
    seq_json: String,
    par_json: String,
    stream: String,
    flowrec: Option<String>,
    flowrec_daemon: Option<String>,
}

type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, key: &str, v: f64) {
    m.insert(key.to_string(), v);
}

/// Per-call layers of one resolver path (pcap or DNFR).
struct ResolverPath {
    decode: L,
    insert: L,
    lookup: L,
}

const PCAP_PATH: ResolverPath = ResolverPath {
    decode: L::Decode,
    insert: L::Insert,
    lookup: L::Lookup,
};
const FLOWREC_PATH: ResolverPath = ResolverPath {
    decode: L::FlowrecDecode,
    insert: L::FlowrecInsert,
    lookup: L::FlowrecLookup,
};

fn insert_msg(
    t: &mut Tracer,
    l: L,
    r: &mut DnsResolver<OrderedTables>,
    client: IpAddr,
    msg: &DnsMessage,
) {
    if !msg.header.is_response || msg.header.truncated {
        return;
    }
    if let Some(name) = msg.queried_fqdn() {
        let servers = msg.answer_addresses();
        t.call(l, || r.insert(client, name, &servers));
    }
}

fn flow_events(t: &mut Tracer, r: &mut DnsResolver<OrderedTables>, events: Vec<FlowEvent>) {
    for ev in events {
        match ev {
            FlowEvent::FlowStarted(key) => {
                t.call(L::Lookup, || r.lookup(key.client, key.server));
            }
            FlowEvent::FlowFinished(rec) => {
                t.call(L::Dpi, || {
                    dpi::classify(&rec.head_c2s, &rec.head_s2c, rec.key.server_port)
                });
            }
        }
    }
}

/// Resolver figures of one path, under `prefix:`.
fn put_resolver(
    m: &mut Metrics,
    prefix: &str,
    t: &Tracer,
    path: &ResolverPath,
    r: &DnsResolver<OrderedTables>,
    decode_errors: u64,
) {
    let s = r.stats();
    put(
        m,
        &format!("{prefix}:dns.decode.ns_per_msg"),
        t.ns_per_call(path.decode),
    );
    put(
        m,
        &format!("{prefix}:dns.decode.errors"),
        decode_errors as f64,
    );
    put(
        m,
        &format!("{prefix}:resolver.insert.ns_per_call"),
        t.ns_per_call(path.insert),
    );
    put(
        m,
        &format!("{prefix}:resolver.lookup.ns_per_call"),
        t.ns_per_call(path.lookup),
    );
    put(
        m,
        &format!("{prefix}:resolver.lookup.hit_share"),
        s.hits as f64 / s.lookups.max(1) as f64,
    );
    put(
        m,
        &format!("{prefix}:resolver.evictions"),
        s.evictions as f64,
    );
    put(
        m,
        &format!("{prefix}:resolver.memory_bytes"),
        r.memory_estimate() as f64,
    );
}

/// The sequential engine's per-frame path one layer call at a time:
/// parse → DNS decode → resolver insert, or flow table → resolver lookup
/// at flow start → DPI at flow end, with the engine's eviction-scan gate.
fn layers_pcap(t: &mut Tracer, records: &[PcapRecord], m: &mut Metrics) {
    let cfg = SnifferConfig::default();
    let mut resolver: DnsResolver<OrderedTables> = DnsResolver::with_config(cfg.resolver);
    let mut table = FlowTable::new(cfg.flow_table.clone());
    let (mut faults, mut decode_errors, mut live_max) = (0u64, 0u64, 0usize);
    let mut last_eviction = 0u64;
    t.open("replay.pcap_layers");
    for rec in records {
        let ts = rec.timestamp_micros();
        let seg = match t.call(L::Parse, || parse_flat(&rec.frame)) {
            Ok(FlatParse::Seg(seg)) => seg,
            Ok(FlatParse::Opaque) => continue,
            Err(_) => {
                faults += 1;
                continue;
            }
        };
        if seg.src_port == cfg.dns_port {
            if seg.proto == IpProtocol::Udp {
                match t.call(L::Decode, || codec::decode(seg.payload)) {
                    Ok(msg) => insert_msg(t, L::Insert, &mut resolver, seg.dst, &msg),
                    Err(_) => decode_errors += 1,
                }
            } else {
                for msg in t.call(L::Decode, || codec::decode_tcp_stream(seg.payload)) {
                    insert_msg(t, L::Insert, &mut resolver, seg.dst, &msg);
                }
            }
            continue;
        }
        if seg.dst_port == cfg.dns_port {
            continue;
        }
        let cseg = CompactSeg {
            src: seg.src,
            src_port: seg.src_port,
            dst: seg.dst,
            dst_port: seg.dst_port,
            proto: seg.proto,
            tcp_flags: seg.tcp_flags,
            tcp_seq: seg.tcp_seq,
            wire_bytes: seg.wire_bytes,
            payload_len: seg.payload.len(),
        };
        let events = t.call(L::FlowSeg, || table.process_seg(ts, &cseg, seg.payload));
        flow_events(t, &mut resolver, events);
        live_max = live_max.max(table.live_flows());
        if ts.saturating_sub(last_eviction) >= cfg.flow_table.eviction_interval_micros {
            last_eviction = ts;
            let events = t.call(L::FlowSeg, || table.evict_idle(ts));
            flow_events(t, &mut resolver, events);
        }
    }
    let events = t.call(L::FlowSeg, || table.flush());
    flow_events(t, &mut resolver, events);
    t.close();
    put(
        m,
        "net.parse.ns_per_frame",
        t.total_ns(L::Parse) / records.len().max(1) as f64,
    );
    put(m, "net.parse.faults", faults as f64);
    put(m, "flow.table.ns_per_seg", t.ns_per_call(L::FlowSeg));
    put(m, "flow.table.flows_created", table.total_created() as f64);
    put(m, "flow.table.live_flows_max", live_max as f64);
    put(m, "flow.dpi.ns_per_flow", t.ns_per_call(L::Dpi));
    put_resolver(m, "seq", t, &PCAP_PATH, &resolver, decode_errors);
}

/// The flow-record engine path one layer call at a time: DNS records are
/// decoded and inserted, flow records looked up.
fn layers_flowrec(t: &mut Tracer, released: &[ExportRecord], m: &mut Metrics) {
    let cfg = SnifferConfig::default();
    let mut resolver: DnsResolver<OrderedTables> = DnsResolver::with_config(cfg.resolver);
    let mut decode_errors = 0u64;
    t.open("replay.flowrec_layers");
    for rec in released {
        match rec {
            ExportRecord::Dns(d) => match t.call(L::FlowrecDecode, || codec::decode(&d.message)) {
                Ok(msg) => insert_msg(t, L::FlowrecInsert, &mut resolver, d.client, &msg),
                Err(_) => decode_errors += 1,
            },
            ExportRecord::Flow(f) => {
                t.call(L::FlowrecLookup, || resolver.lookup(f.client, f.server));
            }
        }
    }
    t.close();
    put_resolver(m, "flowrec", t, &FLOWREC_PATH, &resolver, decode_errors);
}

/// Pipeline shares from the telemetry registry's Runtime counters, under
/// `prefix:`; returns the summed dispatcher and worker busy time.
fn put_pipeline(
    m: &mut Metrics,
    prefix: &str,
    snap: &telemetry::Snapshot,
    wall_ns: f64,
    dispatchers: usize,
    records: usize,
) -> f64 {
    let busy_d = snap.get(Metric::DispatchBusyNanos) as f64;
    let wait = snap.get(Metric::SendWaitNanos) as f64;
    let busy_w = snap.get(Metric::WorkerBusyNanos) as f64;
    let d_wall = dispatchers as f64 * wall_ns;
    put(
        m,
        &format!("{prefix}:core.pipeline.ns_per_record"),
        wall_ns / records.max(1) as f64,
    );
    put(
        m,
        &format!("{prefix}:core.pipeline.send_wait_share"),
        wait / d_wall,
    );
    put(
        m,
        &format!("{prefix}:core.pipeline.dispatch_busy_share"),
        busy_d / d_wall,
    );
    put(
        m,
        &format!("{prefix}:core.pipeline.worker_busy_share"),
        busy_w / (WORKERS as f64 * wall_ns),
    );
    busy_d + busy_w
}

/// Read and drop every record of the capture file, as the binary reads it.
fn pass_pcap_read(t: &mut Tracer, inp: &Inputs, m: &mut Metrics) {
    t.open("net.pcap");
    let file = File::open(&inp.pcap_path).expect("pcap opens");
    let mut reader = PcapReader::new(BufReader::new(file)).expect("pcap header");
    let mut n = 0u64;
    while t
        .call(L::PcapRead, || reader.next_record().expect("pcap record"))
        .is_some()
    {
        n += 1;
    }
    t.close();
    put(
        m,
        "net.pcap.ns_per_record",
        t.total_ns(L::PcapRead) / n.max(1) as f64,
    );
}

/// The live backend over a pipe that one writer thread fills from the
/// capture file, polled like the daemon loop polls it.
fn pass_source(t: &mut Tracer, inp: &Inputs, m: &mut Metrics) {
    t.open("net.source");
    let (rx, mut tx) = std::io::pipe().expect("pipe");
    let path = inp.pcap_path.clone();
    let writer = std::thread::spawn(move || {
        File::open(path).and_then(|mut f| std::io::copy(&mut f, &mut tx))
    });
    let mut source = PcapStreamSource::new(rx);
    let (mut n, mut pending) = (0u64, 0u64);
    loop {
        match t.call(L::SourcePoll, || source.poll_next().expect("stream record")) {
            SourcePoll::Ready(_) => n += 1,
            SourcePoll::Pending => {
                pending += 1;
                std::thread::sleep(PENDING_BACKOFF);
            }
            SourcePoll::Eof => break,
        }
    }
    writer.join().expect("writer").expect("pipe write");
    t.close();
    put(
        m,
        "net.source.ns_per_record",
        t.total_ns(L::SourcePoll) / n.max(1) as f64,
    );
    put(m, "net.source.pending_polls", pending as f64);
}

/// pcap-seq's path: the sequential engine over in-memory records.
fn section_seq(t: &mut Tracer, inp: &Inputs, m: &mut Metrics) -> (String, f64) {
    let (mut s, setup_ns) = t.once("core.setup", || {
        RealTimeSniffer::new(SnifferConfig::default())
    });
    t.open("core.engine");
    for rec in &inp.records {
        t.call(L::Engine, || s.process_record(rec));
    }
    let engine_ns = t.close();
    let (report, finish_ns) = t.once("core.finish", || s.finish());
    let (json, render_ns) = t.once("core.db.render", || report.database.to_json_lines());
    put(m, "seq:core.setup_s", setup_ns / 1e9);
    put(
        m,
        "seq:core.engine.ns_per_record",
        engine_ns / inp.records.len().max(1) as f64,
    );
    put(m, "seq:core.finish_s", finish_ns / 1e9);
    put(
        m,
        "core.db.render_ns_per_flow",
        render_ns / report.database.len().max(1) as f64,
    );
    (json, engine_ns)
}

/// pcap-par's path: the multi-dispatcher pull pipeline.
fn section_par(t: &mut Tracer, inp: &Inputs, m: &mut Metrics) -> (String, f64) {
    let cfg = SnifferConfig::default();
    let (p, setup_ns) = t.once("core.setup", || ParallelSniffer::new(cfg.clone(), WORKERS));
    black_box(p.finish());
    let registry = Arc::new(telemetry::Registry::new());
    let guard = telemetry::bind(Arc::clone(&registry));
    let ((report, _), wall_ns) = t.once("core.pipeline", || {
        run_records(&cfg, WORKERS, DISPATCHERS, &inp.records)
    });
    drop(guard);
    let snap = registry.snapshot();
    let busy = put_pipeline(m, "par", &snap, wall_ns, DISPATCHERS, inp.records.len());
    put(m, "par:core.setup_s", setup_ns / 1e9);
    put(
        m,
        "par:core.finish_s",
        snap.get(Metric::MergeNanos) as f64 / 1e9,
    );
    (report.database.to_json_lines(), busy)
}

/// stream-window's path: the loop of `run_frame_daemon` with packet-clock
/// rotation over the push pipeline, so rotation and emission are timed
/// apart.
fn section_stream(t: &mut Tracer, inp: &Inputs, m: &mut Metrics) -> (String, f64) {
    let cfg = SnifferConfig::default();
    let registry = Arc::new(telemetry::Registry::new());
    let guard = telemetry::bind(Arc::clone(&registry));
    let (p, setup_ns) = t.once("core.setup", || {
        ParallelSniffer::with_sinks(cfg.clone(), WORKERS, &mut |_| {
            Box::new(WindowedAnalytics::new(window_config())) as Box<dyn FlowSink>
        })
    });
    let mut sniffer = DaemonSniffer::Par(Box::new(p));
    let mut emitter = RotationEmitter::new(window_config(), ROTATE_MICROS);
    let (mut clock, mut anchor, mut rotations) = (0u64, None::<u64>, 0u64);
    t.open("core.pipeline");
    for rec in &inp.records {
        let ts = rec.timestamp_micros();
        emitter.note_origin(ts);
        sniffer.process_record(rec);
        clock = clock.max(ts);
        if clock - *anchor.get_or_insert(ts) >= ROTATE_MICROS {
            let (horizon, retired) = t.call(L::Rotate, || sniffer.rotate(clock));
            anchor = Some(clock);
            rotations += 1;
            t.call(L::WindowEmit, || emitter.on_rotation(horizon, retired));
        }
    }
    let ((_, sinks), finish_ns) = t.once("core.finish", || sniffer.finish_with_sinks());
    let wall_ns = t.close();
    let (out, render_ns) = t.once("core.window.render", || emitter.finish(rotations, sinks));
    drop(guard);
    let snap = registry.snapshot();
    let busy = put_pipeline(m, "stream", &snap, wall_ns, 1, inp.records.len());
    put(m, "stream:core.setup_s", setup_ns / 1e9);
    put(m, "stream:core.finish_s", finish_ns / 1e9);
    put(m, "core.daemon.rotations", rotations as f64);
    put(
        m,
        "core.daemon.rotate_ns_per_call",
        t.ns_per_call(L::Rotate),
    );
    put(
        m,
        "core.window.render_s",
        (render_ns + t.total_ns(L::WindowEmit)) / 1e9,
    );
    put(
        m,
        "core.window.retract_underflows",
        snap.get(Metric::WindowRetractUnderflow) as f64,
    );
    (out, busy)
}

/// flowrec's path: DNFR decode, the engine's `ingest_export` in release
/// order, and the whole flow-record daemon (decode + reorder + ingest).
fn section_flowrec(
    t: &mut Tracer,
    inp: &Inputs,
    m: &mut Metrics,
) -> (Option<String>, Option<String>, f64) {
    let n = inp.released.len().max(1) as f64;
    let open = || {
        let file = File::open(&inp.dnfr_path).expect("dnfr opens");
        FlowRecReader::new(BufReader::new(file)).expect("dnfr header")
    };
    let new_sniffer = || {
        let mut s = RealTimeSniffer::new(SnifferConfig::default());
        s.set_sink(Box::new(
            StreamingAnalytics::new(StreamingConfig::default()),
        ));
        s
    };

    t.open("net.flowrec");
    let mut reader = open();
    while t
        .call(L::FlowrecRead, || {
            reader.next_record().expect("dnfr record")
        })
        .is_some()
    {}
    let read_ns = t.close();
    put(
        m,
        "net.flowrec.ns_per_record",
        t.total_ns(L::FlowrecRead) / n,
    );

    let (mut s, setup_ns) = t.once("core.setup", new_sniffer);
    t.open("core.engine");
    for rec in &inp.released {
        t.call(L::FlowrecEngine, || s.ingest_export(rec));
    }
    let engine_ns = t.close();
    let (out, finish_ns) = t.once("core.finish", || {
        StreamingAnalytics::fold(s.finish_with_sinks().1).map(|a| a.render())
    });
    put(m, "flowrec:core.setup_s", setup_ns / 1e9);
    put(m, "flowrec:core.engine.ns_per_record", engine_ns / n);
    put(m, "flowrec:core.finish_s", finish_ns / 1e9);

    let mut s = new_sniffer();
    let mut reader = open();
    let (stats, daemon_ns) = t.once("core.daemon", || {
        run_flowrec_daemon(&mut reader, &mut s, &FlowrecConfig::default(), None)
            .expect("flow-record stream")
    });
    let daemon_out = StreamingAnalytics::fold(s.finish_with_sinks().1).map(|a| a.render());
    put(
        m,
        "core.daemon.reorder_ns_per_record",
        (daemon_ns - read_ns - engine_ns) / n,
    );
    put(m, "core.daemon.skew_overflow", stats.skew_overflow as f64);
    put(m, "core.daemon.late_records", stats.late_records as f64);
    (out, daemon_out, engine_ns)
}

/// One repetition: every pass, every layer.
fn rep(t: &mut Tracer, inp: &Inputs) -> (Metrics, Outputs) {
    let mut m = Metrics::new();
    t.open("rep");
    pass_pcap_read(t, inp, &mut m);
    pass_source(t, inp, &mut m);
    let (seq_json, seq_engine_ns) = section_seq(t, inp, &mut m);
    let (par_json, par_busy_ns) = section_par(t, inp, &mut m);
    let (stream, stream_busy_ns) = section_stream(t, inp, &mut m);
    let (flowrec, flowrec_daemon, flowrec_engine_ns) = section_flowrec(t, inp, &mut m);

    let mut window = WindowedAnalytics::new(window_config());
    t.open("replay.window");
    replay_events(t, L::WindowEvent, &inp.pcap_events, &mut window);
    t.close();
    put(
        &mut m,
        "core.window.ns_per_event",
        t.ns_per_call(L::WindowEvent),
    );
    let mut sink = StreamingAnalytics::new(StreamingConfig::default());
    t.open("replay.sink");
    replay_events(t, L::SinkEvent, &inp.flowrec_events, &mut sink);
    t.close();
    put(
        &mut m,
        "core.sink.ns_per_event",
        t.ns_per_call(L::SinkEvent),
    );

    layers_pcap(t, &inp.records, &mut m);
    layers_flowrec(t, &inp.released, &mut m);
    t.close();

    let sum = |ls: &[L]| ls.iter().map(|&l| t.total_ns(l)).sum::<f64>();
    let pcap_layers = sum(&[
        L::Parse,
        L::Decode,
        L::Insert,
        L::Lookup,
        L::FlowSeg,
        L::Dpi,
    ]);
    put(&mut m, "seq:attribution_share", pcap_layers / seq_engine_ns);
    put(&mut m, "par:attribution_share", pcap_layers / par_busy_ns);
    put(
        &mut m,
        "stream:attribution_share",
        (pcap_layers + t.total_ns(L::WindowEvent)) / stream_busy_ns,
    );
    put(
        &mut m,
        "flowrec:attribution_share",
        sum(&[
            L::FlowrecDecode,
            L::FlowrecInsert,
            L::FlowrecLookup,
            L::SinkEvent,
        ]) / flowrec_engine_ns,
    );
    let outputs = Outputs {
        seq_json,
        par_json,
        stream,
        flowrec,
        flowrec_daemon,
    };
    (m, outputs)
}

/// The section whose variant of `metric` a workload reports: the one on
/// its own path. The sequential workloads have no pipeline of their own,
/// so they report the pull pipeline's.
fn section(workload: &str, metric: &str) -> &'static str {
    let own = match workload {
        "pcap-seq" => "seq",
        "pcap-par" => "par",
        "stream-window" => "stream",
        _ => "flowrec",
    };
    if metric.starts_with("core.pipeline.") {
        return if own == "stream" { "stream" } else { "par" };
    }
    let engine_path = metric == "core.engine.ns_per_record"
        || metric.starts_with("dns.decode.")
        || metric.starts_with("resolver.");
    if engine_path && own != "flowrec" {
        return "seq";
    }
    own
}

/// What a workload's attribution leaves out.
fn unattributed(workload: &str) -> &'static str {
    match workload {
        "pcap-seq" => "tagging bookkeeping in the engine (pending tags, response index, delay samples, TaggedFlow assembly) and per-frame dispatch",
        "pcap-par" | "stream-window" => "tagging bookkeeping plus routing, batching and ring hand-off in the dispatchers",
        _ => "tagging bookkeeping in ingest_export (response index, delay samples, TaggedFlow assembly)",
    }
}

/// Whether this repetition's outputs match the binary's.
fn outputs_ok(workload: &str, o: &Outputs, expect: &[u8]) -> bool {
    let flowrec = |s: &Option<String>| s.as_deref().map(str::as_bytes) == Some(expect);
    // pcap-par's database must be byte-identical to pcap-seq's in any case.
    o.seq_json == o.par_json
        && match workload {
            "pcap-seq" => o.seq_json.as_bytes() == expect,
            "pcap-par" => o.par_json.as_bytes() == expect,
            "stream-window" => o.stream.as_bytes() == expect,
            _ => flowrec(&o.flowrec) && flowrec(&o.flowrec_daemon),
        }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn load(pcap: &str, dnfr: &str) -> Result<Inputs, String> {
    let file = File::open(pcap).map_err(|e| format!("cannot open {pcap}: {e}"))?;
    let mut reader = PcapReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record().map_err(|e| e.to_string())? {
        records.push(rec);
    }
    let bytes = std::fs::read(dnfr).map_err(|e| format!("cannot read {dnfr}: {e}"))?;
    let mut released = dnhunter_net::flowrec::decode_stream(&bytes).map_err(|e| e.to_string())?;
    // The reorder buffer's release order when no record overflows it or
    // arrives late: event time, then arrival (a stable sort keeps arrival
    // order). The daemon run of every repetition checks both counts.
    released.sort_by_key(|r| r.event_ts());
    let pcap_events = capture_events(|s| records.iter().for_each(|r| s.process_record(r)));
    let flowrec_events = capture_events(|s| released.iter().for_each(|r| s.ingest_export(r)));
    Ok(Inputs {
        pcap_path: pcap.to_string(),
        dnfr_path: dnfr.to_string(),
        records,
        released,
        pcap_events,
        flowrec_events,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(pcap), Some(dnfr), Some(expect), Some(spans_out)) = (
        get("--workload"),
        get("--pcap"),
        get("--dnfr"),
        get("--expect"),
        get("--spans"),
    ) else {
        eprintln!(
            "usage: perfbench-tracer --workload W --pcap FILE --dnfr FILE --expect FILE \
             --spans FILE [--seconds S]"
        );
        return ExitCode::FAILURE;
    };
    if !["pcap-seq", "pcap-par", "stream-window", "flowrec"].contains(&workload.as_str()) {
        eprintln!("perfbench-tracer: unknown workload '{workload}'");
        return ExitCode::FAILURE;
    }
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let loaded = load(&pcap, &dnfr).and_then(|inp| {
        std::fs::read(&expect)
            .map(|e| (inp, e))
            .map_err(|e| format!("cannot read {expect}: {e}"))
    });
    let (inp, expect) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return ExitCode::FAILURE;
        }
    };

    let start = Instant::now();
    let mut traced: Vec<Metrics> = Vec::new();
    let mut untraced: Vec<Metrics> = Vec::new();
    let mut overhead = Vec::new();
    let mut mismatches = 0u64;
    let mut spans_json = format!("{{\"workload\":\"{workload}\",\"reps\":[");
    let mut pair = 0usize;
    while pair < 2 || start.elapsed().as_secs_f64() < seconds {
        // [untraced, traced]; the kind that runs first alternates.
        let mut kinds: [Option<Tracer>; 2] = [None, None];
        let even = pair.is_multiple_of(2);
        for on in [even, !even] {
            let mut t = Tracer::new(on);
            let (m, outputs) = rep(&mut t, &inp);
            mismatches += u64::from(!outputs_ok(&workload, &outputs, &expect));
            let index = traced.len() + untraced.len();
            if index > 0 {
                spans_json.push(',');
            }
            t.to_json(index, &mut spans_json);
            (if on { &mut traced } else { &mut untraced }).push(m);
            kinds[usize::from(on)] = Some(t);
        }
        if let [Some(off), Some(on)] = &kinds {
            let passes = on.traced_passes();
            overhead.push(on.spans_ns(&passes) / off.spans_ns(&passes) - 1.0);
        }
        pair += 1;
    }

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for key in traced[0].keys() {
        let name = match key.split_once(':') {
            Some((sec, name)) if sec == section(&workload, name) => name,
            Some(_) => continue,
            None => key.as_str(),
        };
        // The reorder figure is a difference of pass times, so it comes from
        // the untraced repetitions, whose passes carry no per-call span cost.
        let source = if name == "core.daemon.reorder_ns_per_record" {
            &untraced
        } else {
            &traced
        };
        metrics.insert(
            name.to_string(),
            median(source.iter().map(|m| m[key]).collect()),
        );
    }
    metrics.insert("trace.overhead_share".to_string(), median(overhead));
    let attributed = metrics["attribution_share"];
    eprintln!(
        "attribution {workload}: {:.1}% of the enclosing call; unattributed {:.1}%: {}",
        100.0 * attributed,
        100.0 * (1.0 - attributed),
        unattributed(&workload)
    );
    spans_json.push_str(&format!(
        "],\"attribution_share\":{attributed},\"unattributed\":{{\"share\":{},\"covers\":\"{}\"}}}}\n",
        1.0 - attributed,
        unattributed(&workload)
    ));
    if let Err(e) = std::fs::write(&spans_out, spans_json) {
        eprintln!("perfbench-tracer: cannot write {spans_out}: {e}");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"correct\":{},\"reps\":{},\"mismatches\":{mismatches},\"metrics\":{{{}}}}}",
        mismatches == 0,
        traced.len() + untraced.len(),
        body.join(",")
    );
    ExitCode::SUCCESS
}
