//! Parallel ingest: the multi-core DN-Hunter sniffer.
//!
//! The paper sizes DN-Hunter for a single monitor thread (§3.2 shows one
//! core keeps up with a 1M-packets/s PoP) and notes the scaling escape
//! hatch in §3.1.1: partition the monitored *clients* across independent
//! resolvers. This module applies that idea to the whole fast path with one
//! streaming driver, [`ParallelSniffer`]:
//!
//! * the caller's thread is the **router**: it flat-parses each frame
//!   ([`parse_flat`]), classifies it, and fans work out over bounded ring
//!   channels to `N` shard workers, in frame order;
//! * with `D > 1` dispatchers ([`ParallelSniffer::with_dispatchers`]) the
//!   flat parse moves off the routing path: records gather into
//!   fixed-size chunks ([`SegBatch`], [`SEG_BATCH_FRAMES`] records), dealt
//!   round-robin to `D` parse lanes — lane 0 is the caller, lanes `1..D`
//!   are threads — and the caller routes the parsed chunks back in chunk
//!   order. At most one chunk per lane is in flight, so memory is
//!   `O(D × chunk + rings)` however long the capture.
//!
//! [`run_records`] is a thin loop over the same driver for in-memory
//! traces.
//!
//! Work travels as batches: up to `BATCH_ITEMS` pre-parsed items plus one
//! shared byte arena holding only what the worker still needs — a DNS
//! response's transport payload, or the payload prefix the flow record's
//! DPI head still wants (usually nothing once a flow's first ~[`DPI_SNAP`]
//! bytes per direction have shipped) — so the channels move tens of bytes
//! per packet instead of whole frames, and workers never re-parse. Arenas
//! recycle worker→router over a return ring, and the batched ring
//! operations (`crate::ring`) move several batches per lock handoff in
//! every direction. Shard routing keys client IPs through an FNV hash
//! ([`shard_of`]) — the *shard-affinity invariant*: a client's DNS
//! bindings (Algorithm 1 state), the flows those bindings tag, and the
//! §5.1 delay samples for both always live on the same worker, so workers
//! share nothing and take no locks on the per-packet path.
//!
//! Determinism is by construction, not by luck (see `DESIGN.md` §7): every
//! frame carries a global sequence number (its trace index), the router
//! replicates the flow table's eviction-scan gate and broadcasts explicit
//! tick events, each worker drains one ring in routing order, and the
//! final merge re-orders every output stream under the `(seq, phase)` key
//! — so the driver returns a [`SnifferReport`] byte-identical to
//! [`crate::RealTimeSniffer`]'s for any worker *and* dispatcher count (as
//! long as no shard overflows its Clist partition; the default `L = 2^20`
//! makes evictions a non-issue at trace scale).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::IpAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dnhunter_dns::codec;
use dnhunter_flow::{CanonFlowKey, CompactSeg, TcpTracker, DPI_SNAP};
use dnhunter_net::seg::{parse_flat, FlatParse, FlatSeg, FrameFault, SegBatch, SEG_BATCH_FRAMES};
use dnhunter_net::{IpProtocol, PcapRecord};
use dnhunter_resolver::maps::FnvHashMap;
use dnhunter_resolver::{InternStats, ResolverConfig};
use dnhunter_telemetry::{
    self as telemetry, tm_count, tm_observe, tm_trace, tm_trace_wall, LaneKind, Metric as Tm,
    TraceEvent as Te, TraceSet,
};

use crate::engine::{assemble_report, ShardEngine, ShardOutput};
use crate::policy::RuleEnforcer;
use crate::ring::{self, Receiver, Sender};
use crate::sniffer::{compact_seg, SnifferConfig, SnifferReport, SnifferStats};
use crate::stream::{FlowSink, StreamingAnalytics};

/// What a worker hands back over its rotation ring: the retired
/// `(bucket index, partial)` pairs its windowed sink gave up, in bucket
/// order.
type RotateReply = Vec<(u64, StreamingAnalytics)>;

/// Frames per batch before the router seals a batch. Batching amortises
/// the ring's lock handoff over many frames (§3.2's per-packet budget is
/// far below one syscall/lock per packet).
const BATCH_ITEMS: usize = 128;
/// Arena bytes per batch before an early seal (keeps batches cache-sized
/// even under jumbo frames).
const BATCH_BYTES: usize = 128 * 1024;
/// Sealed batches a worker link buffers locally before one `send_batch`
/// moves them all under a single ring lock acquisition.
const OUTBOX_BATCHES: usize = 2;
/// In-flight batches per worker ring: enough to keep a worker busy while
/// the router fills the next batch, small enough that a slow shard
/// backpressures ingest instead of buffering the trace.
const CHANNEL_BATCHES: usize = 4;
/// Most batches a worker drains per `recv_batch` lock acquisition.
const RECV_BATCH_MAX: usize = CHANNEL_BATCHES;
/// Capacity of each worker→router arena recycle ring; sized so a
/// best-effort `try_send_batch` of every drained batch always fits.
const RECYCLE_BATCHES: usize = CHANNEL_BATCHES + 2;
/// Record chunks a parse lane holds at once. The router deals a lane its
/// next chunk only after routing the previous one, so each lane ring
/// carries at most this many chunks and the chunks in flight never exceed
/// one per lane.
const LANE_CHUNKS: usize = 1;
/// With one dispatcher the caller times one frame in this many and scales
/// the sample up: a clock read costs about a tenth of a frame's parse and
/// route time, so timing every frame would slow the path it measures.
const TIMING_SAMPLE: u64 = 16;
/// Hard ceiling on pipeline fan-out in either role. Worker and dispatcher
/// counts are operator configuration, but every per-thread ring, chunk and
/// merge buffer is sized from them, so the bounded-allocation discipline
/// (L8) wants a named cap on those statements — and far past the core
/// count extra threads only add contention anyway.
const MAX_PIPELINE_THREADS: usize = 64;

/// Shard index for a client address, over `shards` shards.
///
/// The paper (§3.1.1) suggests splitting "for odd and even fourth octet
/// value in the client IP-address". That scheme balances poorly beyond
/// two shards: monitored populations are assigned addresses from DHCP
/// pools, so low-order octets carry allocation patterns (e.g. /28
/// customer blocks put 14 of 16 hosts on the same few residues). We
/// depart from the paper and mix *all* address bytes through FNV-1a
/// before reducing modulo `N`, which keeps per-shard load within a few
/// percent of uniform for any address-assignment policy while remaining
/// deterministic across runs.
fn shard_of(client: IpAddr, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    match client {
        IpAddr::V4(a) => mix(&a.octets()),
        IpAddr::V6(a) => mix(&a.octets()),
    }
    (hash % shards.max(1) as u64) as usize
}

/// What a batch item tells the worker to do.
#[derive(Debug, Clone, Copy)]
enum ItemKind {
    /// Anchor the warm-up window at the trace's first frame timestamp.
    Start,
    /// A UDP datagram from the DNS port: the item's byte range is the
    /// transport payload; decode it and feed Algorithm 1 for `client`
    /// (the response's destination — the endpoint that asked).
    DnsUdp { client: IpAddr },
    /// A TCP segment from the DNS port: the byte range is the payload,
    /// framed per RFC 1035 §4.2.2 (2-byte length prefixes).
    DnsTcp { client: IpAddr },
    /// A user data segment, pre-parsed by the router: flow
    /// reconstruction + tagging (Fig. 1 fast path). The item's byte range
    /// holds only the payload prefix the flow record's DPI head still
    /// wants — usually nothing once a flow's first ~[`DPI_SNAP`] bytes per
    /// direction have shipped — so the channel moves tens of bytes per
    /// segment instead of whole frames, and the worker never re-parses.
    Seg(CompactSeg),
    /// Run one eviction scan — the router's replica of the sequential
    /// interval gate fired at this frame.
    Tick,
    /// Retire every windowed-analytics bucket strictly below `horizon` and
    /// answer with the retired partials on this worker's rotation ring —
    /// the broadcast half of [`ParallelSniffer::rotate`]'s barrier.
    Rotate { horizon: u64 },
}

/// One event in a batch; `off..off+len` indexes the batch's byte arena
/// (empty for `Start`/`Tick`).
#[derive(Debug, Clone, Copy)]
struct Item {
    kind: ItemKind,
    seq: u64,
    ts: u64,
    off: u32,
    len: u32,
}

/// A batch of items plus the arena holding their payload bytes. Recycled
/// between worker and router so steady-state ingest allocates nothing.
#[derive(Default)]
struct Batch {
    items: Vec<Item>,
    bytes: Vec<u8>,
}

/// The router's mirror of one live flow: which shard owns it, which
/// endpoint initiated it, and exactly the state the worker's flow table
/// consults when deciding evictions (`last_ts`, TCP terminal state) — kept
/// in lock-step so the routing table prunes entries at the same tick the
/// worker emits the flow, and a later packet on the same 5-tuple re-orients
/// identically on both sides.
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: usize,
    client: IpAddr,
    client_port: u16,
    /// When this flow record started — the router's replica of
    /// `FlowRecord::first_ts`, reset on SYN port-reuse renewal exactly as
    /// the worker's table resets it. The rotation horizon clamps to the
    /// minimum of these so no window a live flow can still touch is
    /// retired early.
    first_ts: u64,
    last_ts: u64,
    tcp: TcpTracker,
    /// Bytes of each direction's DPI head already shipped — the router's
    /// replica of `FlowRecord::head_{c2s,s2c}.len()`, so it can truncate
    /// segment payloads to exactly the prefix the worker's record will
    /// still consume (capped at [`DPI_SNAP`]).
    head_c2s: u16,
    head_s2c: u16,
}

/// First instant at which `route` can satisfy the prune predicate in
/// [`Router::prune_routes`] if it sees no further traffic — the mirror
/// of `FlowTable`'s expiry deadline.
fn route_deadline(route: &Route, idle: u64, linger: u64) -> u64 {
    let ttl = if route.tcp.state().is_terminal() {
        linger.min(idle)
    } else {
        idle
    };
    route.last_ts.saturating_add(ttl)
}

/// Router-side handle for one shard worker.
struct WorkerLink {
    tx: Sender<Batch>,
    recycle_rx: Receiver<Batch>,
    pending: Batch,
    /// Sealed batches awaiting one batched send.
    outbox: Vec<Batch>,
    /// Recycled arenas pulled off the return ring in batches.
    spares: Vec<Batch>,
}

/// Busy-time decomposition of one pipeline run, for the throughput
/// baseline. "Busy" excludes time blocked on channel waits (a full ring
/// means the router is waiting for a slow shard, and on a one-core host it
/// means the worker is running *on the router's core*), so even with fewer
/// cores than pipeline threads the per-stage busy time still measures each
/// stage's real CPU cost. Accumulated in nanoseconds internally: the
/// router's per-frame window is sub-microsecond, so microsecond
/// accumulation would truncate most of it to zero.
#[derive(Debug, Clone)]
pub struct PipelineTimings {
    /// Worker count the pipeline ran with.
    pub workers: usize,
    /// Dispatcher count: parse lanes, the caller included.
    pub dispatchers: usize,
    /// Total dispatch CPU time (parse + route + batch building) summed
    /// over all parse lanes, µs — blocking ring waits excluded. With one
    /// dispatcher this and the two fields below are scaled up from a
    /// one-in-`TIMING_SAMPLE` frame sample.
    pub dispatch_busy_micros: u64,
    /// Per-lane CPU time spent flat-parsing frames, µs, lane 0 (the
    /// caller) first.
    pub dispatcher_busy_micros: Vec<u64>,
    /// The caller's CPU time outside parsing (routing, batch building,
    /// chunk dealing), µs — the pipeline's sequential section, so it bounds
    /// dispatcher scaling the way `max(dispatcher_busy_micros)` bounds
    /// parse scaling.
    pub route_busy_micros: u64,
    /// Caller time spent blocked on rings (worker sends, parse-lane
    /// hand-backs), µs.
    pub send_wait_micros: u64,
    /// Per-worker CPU time (engine work + DNS decode + final flush), µs.
    pub worker_busy_micros: Vec<u64>,
    /// FQDN interning effectiveness summed over all shard resolvers.
    pub intern: InternStats,
}

/// The routing stage: links to every shard worker, the order-sensitive
/// routing state, and the counters the merge needs. Lives on the caller's
/// thread and sees every frame in trace order, so the flow-routing table,
/// the eviction clock and the warm-up anchor evolve exactly as the
/// sequential sniffer's would.
struct Router {
    dns_port: u16,
    eviction_interval: u64,
    idle_timeout: u64,
    terminal_linger: u64,
    links: Vec<WorkerLink>,
    routes: FnvHashMap<CanonFlowKey, Route>,
    last_eviction: u64,
    /// Lazy min-heap of prune candidates `(deadline, key)` — the
    /// router-side mirror of the flow table's expiry heap, so each prune
    /// pass touches only routes whose deadline has passed instead of
    /// retaining over the whole table. Entries are lower bounds (pushed on
    /// insert, port-reuse renewal, and terminal transition; re-pushed at
    /// the current deadline when the exact predicate says "not yet"), so
    /// a route is always re-examined no later than it can expire — prunes
    /// stay in lock-step with the workers' evictions.
    prune_heap: BinaryHeap<Reverse<(u64, CanonFlowKey)>>,
    /// Router-side counters (frames, parse faults, DNS queries); worker
    /// engines count the rest, and the merge sums both.
    stats: SnifferStats,
    trace_start: Option<u64>,
    trace_end: Option<u64>,
    send_wait_nanos: u64,
}

impl Router {
    fn new(config: &SnifferConfig, links: Vec<WorkerLink>) -> Self {
        Router {
            dns_port: config.dns_port,
            eviction_interval: config.flow_table.eviction_interval_micros,
            idle_timeout: config.flow_table.idle_timeout_micros,
            terminal_linger: config.flow_table.terminal_linger_micros,
            links,
            routes: FnvHashMap::default(),
            last_eviction: 0,
            prune_heap: BinaryHeap::new(),
            stats: SnifferStats::default(),
            trace_start: None,
            trace_end: None,
            send_wait_nanos: 0,
        }
    }

    /// Classify one flat-parsed frame and enqueue whatever its shard
    /// worker needs — the router's whole per-frame job. Same
    /// demultiplexing order as the sequential sniffer; DNS frames route by
    /// the *client* (the responses' destination) so bindings land on the
    /// shard that will tag that client's flows.
    // lint_root(ingest): routes every captured frame, parsed or faulted
    fn route_frame(
        &mut self,
        seq: u64,
        ts: u64,
        wire_len: u32,
        parse: &Result<FlatParse<'_>, FrameFault>,
    ) {
        self.stats.frames += 1;
        tm_count!(Tm::IngestFrames);
        if self.trace_start.is_none() {
            self.trace_start = Some(ts);
            // Every shard anchors its warm-up window at the global trace
            // start, not its own first frame.
            for shard in 0..self.links.len() {
                self.push_item(shard, ItemKind::Start, seq, ts, &[]);
            }
        }
        self.trace_end = Some(self.trace_end.map_or(ts, |t| t.max(ts)));
        let seg = match parse {
            Ok(FlatParse::Seg(seg)) => seg,
            // Not reconstructed; never advances the eviction-scan clock.
            Ok(FlatParse::Opaque) => return,
            Err(fault) => {
                self.stats.note_parse_fault(*fault);
                if telemetry::trace_enabled() {
                    tm_trace!(Te::FrameParse, seq, ts, *fault as u64, u64::from(wire_len));
                }
                return;
            }
        };
        let dns_port = self.dns_port;
        match seg.proto {
            IpProtocol::Udp => {
                if seg.src_port == dns_port {
                    let shard = shard_of(seg.dst, self.links.len());
                    let kind = ItemKind::DnsUdp { client: seg.dst };
                    self.push_item(shard, kind, seq, ts, seg.payload);
                    return;
                }
                if seg.dst_port == dns_port {
                    self.stats.dns_queries += 1;
                    tm_count!(Tm::IngestDnsQueries);
                    return;
                }
            }
            // `parse_flat` only yields TCP or UDP segments; TCP DNS is
            // used after truncated UDP responses (RFC 1035 §4.2.2).
            _ => {
                if seg.src_port == dns_port {
                    let shard = shard_of(seg.dst, self.links.len());
                    let kind = ItemKind::DnsTcp { client: seg.dst };
                    self.push_item(shard, kind, seq, ts, seg.payload);
                    return;
                }
                if seg.dst_port == dns_port {
                    if !seg.payload.is_empty() {
                        self.stats.dns_queries += 1;
                        tm_count!(Tm::IngestDnsQueries);
                    }
                    return;
                }
            }
        }
        self.dispatch_data(seq, ts, seg);
    }

    /// Route one user data segment to its flow's shard, mirroring the flow
    /// table's orientation rules, then run the eviction gate.
    fn dispatch_data(&mut self, seq: u64, ts: u64, seg: &FlatSeg<'_>) {
        let payload_len = seg.payload.len();
        let key = CanonFlowKey::of(seg.src, seg.src_port, seg.dst, seg.dst_port, seg.proto);
        let idle = self.idle_timeout;
        let linger = self.terminal_linger;
        let (shard, head_take, push_deadline) = match self.routes.get_mut(&key) {
            Some(route) => {
                // An existing entry fixes the orientation; the new-flow
                // case below sets sender=initiator.
                let from_client = seg.src == route.client && seg.src_port == route.client_port;
                let mut renewed = false;
                let mut was_terminal = route.tcp.state().is_terminal();
                if let Some(flags) = seg.tcp_flags {
                    // Mirror of the flow table's port-reuse rule: a fresh SYN
                    // on a terminated flow finishes the old record and starts
                    // a new one under the *same* oriented key, so the route
                    // keeps its orientation and shard but resets TCP state,
                    // DPI head fill, and ages from this packet.
                    if flags.syn() && !flags.ack() && was_terminal {
                        route.tcp = TcpTracker::new();
                        route.first_ts = ts;
                        route.last_ts = ts;
                        route.head_c2s = 0;
                        route.head_s2c = 0;
                        renewed = true;
                        was_terminal = false;
                    }
                    route.tcp.observe(from_client, flags, payload_len);
                }
                route.last_ts = route.last_ts.max(ts);
                // Replica of `FlowRecord::observe_seg`'s head fill: ship
                // exactly the prefix the worker's record will append.
                let fill = if from_client {
                    &mut route.head_c2s
                } else {
                    &mut route.head_s2c
                };
                let take = (DPI_SNAP - *fill as usize).min(payload_len);
                *fill += take as u16;
                // Renewal and terminal transition are the only events that
                // can move this route's prune deadline down (the flow
                // table's heap applies the same rule).
                let push = (renewed || (!was_terminal && route.tcp.state().is_terminal()))
                    .then(|| route_deadline(route, idle, linger));
                (route.shard, take, push)
            }
            None => {
                let shard = shard_of(seg.src, self.links.len());
                let mut tcp = TcpTracker::new();
                if let Some(flags) = seg.tcp_flags {
                    tcp.observe(true, flags, payload_len);
                }
                let take = DPI_SNAP.min(payload_len);
                let route = Route {
                    shard,
                    client: seg.src,
                    client_port: seg.src_port,
                    first_ts: ts,
                    last_ts: ts,
                    tcp,
                    head_c2s: take as u16,
                    head_s2c: 0,
                };
                let deadline = route_deadline(&route, idle, linger);
                self.routes.insert(key, route);
                (shard, take, Some(deadline))
            }
        };
        // Same lazy-heap bookkeeping the workers' flow tables keep: insert,
        // SYN-renewal, and terminal transition are the events that can move
        // a route's prune deadline down, so each pushes a fresh candidate.
        if let Some(deadline) = push_deadline {
            self.prune_heap.push(Reverse((deadline, key)));
        }
        let (cseg, payload) = compact_seg(seg);
        let head = payload.get(..head_take).unwrap_or(payload);
        self.push_item(shard, ItemKind::Seg(cseg), seq, ts, head);
        // The sequential flow table's scan gate, replicated bit-for-bit:
        // only a reconstructed data frame advances the clock, and the scan
        // runs *after* that frame — so the tick follows the data item in
        // its shard's queue, and every shard scans at the same trace times
        // the single-threaded table would.
        if ts.saturating_sub(self.last_eviction) >= self.eviction_interval {
            self.last_eviction = ts;
            self.prune_routes(ts);
            for shard in 0..self.links.len() {
                self.push_item(shard, ItemKind::Tick, seq, ts, &[]);
            }
        }
    }

    /// Drop routing entries for every flow the workers' scan at `now` will
    /// evict — the same predicate `FlowTable::evict` applies, over the same
    /// `last_ts`/terminal state (kept in lock-step by `dispatch_data`), at
    /// the same tick times. A later packet on such a 5-tuple then starts a
    /// fresh flow with sender-as-initiator on both sides.
    fn prune_routes(&mut self, now: u64) {
        let idle = self.idle_timeout;
        let linger = self.terminal_linger;
        while let Some(&Reverse((deadline, key))) = self.prune_heap.peek() {
            if deadline > now {
                break; // every remaining candidate is provably still alive
            }
            self.prune_heap.pop();
            let Some(r) = self.routes.get(&key) else {
                continue; // stale: route already pruned via an earlier entry
            };
            let silent = now.saturating_sub(r.last_ts);
            if silent >= idle || (r.tcp.state().is_terminal() && silent >= linger) {
                self.routes.remove(&key);
            } else {
                // Activity extended the deadline past this (lower-bound)
                // entry; re-arm at the route's current deadline.
                self.prune_heap
                    .push(Reverse((route_deadline(r, idle, linger), key)));
            }
        }
    }

    /// Append one item (and its arena bytes — a DNS payload, or a data
    /// segment's DPI head prefix) to a shard's pending batch, sealing the
    /// batch when it fills.
    fn push_item(&mut self, shard: usize, kind: ItemKind, seq: u64, ts: u64, bytes: &[u8]) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        match kind {
            ItemKind::Tick => tm_count!(Tm::PipelineTicks),
            ItemKind::DnsUdp { .. } | ItemKind::DnsTcp { .. } | ItemKind::Seg(_) => {
                tm_count!(Tm::PipelineItemsRouted)
            }
            ItemKind::Start | ItemKind::Rotate { .. } => {}
        }
        let off = link.pending.bytes.len() as u32;
        link.pending.bytes.extend_from_slice(bytes);
        link.pending.items.push(Item {
            kind,
            seq,
            ts,
            off,
            len: bytes.len() as u32,
        });
        if link.pending.items.len() >= BATCH_ITEMS || link.pending.bytes.len() >= BATCH_BYTES {
            self.seal_pending(shard);
        }
    }

    /// Move a shard's filled batch into its outbox, swapping in a recycled
    /// (or fresh) arena; once [`OUTBOX_BATCHES`] have accumulated, one
    /// batched send moves them all under a single lock handoff.
    fn seal_pending(&mut self, shard: usize) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        if link.pending.items.is_empty() {
            return;
        }
        if link.spares.is_empty() {
            link.recycle_rx
                .try_recv_batch(&mut link.spares, RECYCLE_BATCHES);
        }
        let next = link.spares.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut link.pending, next);
        tm_count!(Tm::PipelineBatchesSent);
        tm_observe!(Tm::BatchItems, batch.items.len() as u64);
        link.outbox.push(batch);
        if link.outbox.len() >= OUTBOX_BATCHES {
            self.send_outbox(shard);
        }
    }

    /// Send a shard's outbox in one batched ring operation. Send time is
    /// accounted separately from dispatch busy time: a full ring means the
    /// router is *waiting* on a slow shard.
    fn send_outbox(&mut self, shard: usize) {
        let Some(link) = self.links.get_mut(shard) else {
            return;
        };
        if link.outbox.is_empty() {
            return;
        }
        let batches = link.outbox.len() as u64;
        // allow_lint(L7): wall-clock here feeds only the `send_wait_nanos`
        // telemetry split; no emitted byte depends on it
        let t0 = Instant::now();
        // A send only fails when the worker died; the merge then simply
        // misses that shard's output — nothing to do here.
        let _ = link.tx.send_batch(&mut link.outbox);
        link.outbox.clear();
        self.send_wait_nanos += t0.elapsed().as_nanos() as u64;
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::RingSendBatch, 0, shard as u64, batches);
        }
    }

    /// Seal and send everything still pending, on every link.
    fn flush_all(&mut self) {
        for shard in 0..self.links.len() {
            self.seal_pending(shard);
            self.send_outbox(shard);
        }
    }
}

/// One parse lane besides the caller: a thread that flat-parses the record
/// chunks it is dealt and hands each back on its return ring.
struct ParseLane {
    tx: Sender<SegBatch>,
    rx: Receiver<SegBatch>,
    /// Returns the lane's parse busy time (ns).
    handle: JoinHandle<u64>,
}

/// A sealed record chunk awaiting routing, in chunk order.
enum Chunk {
    /// Parsed on the caller's thread (lane 0).
    Parsed(SegBatch),
    /// Dealt to parse lane `i` (`lanes[i]`); comes back on its ring.
    Lane(usize),
}

/// Multi-core variant of [`crate::RealTimeSniffer`]: same input API, same
/// [`SnifferReport`] (byte-identical — see the module docs), `N` shard
/// workers doing the heavy lifting behind the caller-thread router, and
/// optionally `D - 1` parse-lane threads taking the flat parse off it.
///
/// Policy enforcement (the `process_frame_with_policy` path) stays on the
/// sequential sniffer: an enforcer is a synchronous admission hook, which
/// would reserialize the workers.
pub struct ParallelSniffer {
    config: SnifferConfig,
    router: Router,
    handles: Vec<JoinHandle<(ShardOutput, u64)>>,
    /// Receive half of each worker's capacity-1 rotation ring, shard
    /// order; [`ParallelSniffer::rotate`] blocks on one reply per worker.
    rotation_rxs: Vec<Receiver<RotateReply>>,
    seq: u64,
    busy_nanos: u64,
    /// Parse lanes `1..D`; empty with one dispatcher, where the caller
    /// parses and routes each frame inline, with no chunking at all.
    lanes: Vec<ParseLane>,
    /// The chunk collecting records for the next lane.
    filling: SegBatch,
    /// Sealed chunks not routed yet, oldest first — at most one per lane.
    in_flight: VecDeque<Chunk>,
    /// Routed chunks kept for reuse.
    spare_chunks: Vec<SegBatch>,
    /// The lane (0 = caller) the next sealed chunk goes to.
    next_lane: usize,
    /// The caller's own parse time (ns), part of `busy_nanos`.
    parse_nanos: u64,
    /// Telemetry registries of every pipeline thread (workers, then parse
    /// lanes), present only when the constructing thread had one bound.
    /// Each thread binds its own for its lifetime; `finish` folds them
    /// into the caller's registry so the final stable-class snapshot
    /// equals the sequential run's.
    thread_registries: Vec<Arc<telemetry::Registry>>,
}

impl ParallelSniffer {
    /// Spawn `workers` shard threads (at least one). Each worker gets its
    /// slice of the Clist budget `L` (§3.1.1 — sharding splits the §4.2
    /// memory budget, it does not multiply it).
    pub fn new(config: SnifferConfig, workers: usize) -> Self {
        Self::build(config, workers, None)
    }

    /// [`ParallelSniffer::new`], additionally installing a streaming
    /// analytics sink per worker: `make_sink(shard)` is called once per
    /// shard before its thread spawns. The per-shard partials come back
    /// (in shard order) from [`ParallelSniffer::finish_with_sinks`].
    pub fn with_sinks(
        config: SnifferConfig,
        workers: usize,
        make_sink: &mut dyn FnMut(usize) -> Box<dyn FlowSink>,
    ) -> Self {
        Self::build(config, workers, Some(make_sink))
    }

    fn build(
        config: SnifferConfig,
        workers: usize,
        mut make_sink: Option<&mut dyn FnMut(usize) -> Box<dyn FlowSink>>,
    ) -> Self {
        let workers = workers.clamp(1, MAX_PIPELINE_THREADS);
        let mut links = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut thread_registries = Vec::new();
        let mut rotation_rxs = Vec::with_capacity(workers);
        for (shard, engine) in shard_engines(&config, workers, &mut make_sink)
            .into_iter()
            .enumerate()
        {
            let (tx, rx) = ring::channel::<Batch>(CHANNEL_BATCHES);
            let (recycle_tx, recycle_rx) = ring::channel::<Batch>(RECYCLE_BATCHES);
            let (rotate_tx, rotate_rx) = ring::channel::<RotateReply>(1);
            rotation_rxs.push(rotate_rx);
            let (registry, trace) = thread_telemetry(&mut thread_registries);
            handles.push(std::thread::spawn(move || {
                worker_loop(engine, shard, rx, recycle_tx, rotate_tx, registry, trace)
            }));
            links.push(WorkerLink {
                tx,
                recycle_rx,
                pending: Batch::default(),
                outbox: Vec::with_capacity(OUTBOX_BATCHES),
                spares: Vec::with_capacity(RECYCLE_BATCHES),
            });
        }
        ParallelSniffer {
            router: Router::new(&config, links),
            config,
            handles,
            rotation_rxs,
            seq: 0,
            busy_nanos: 0,
            lanes: Vec::new(),
            filling: SegBatch::default(),
            in_flight: VecDeque::new(),
            spare_chunks: Vec::new(),
            next_lane: 0,
            parse_nanos: 0,
            thread_registries,
        }
    }

    /// Use `dispatchers` parse lanes (at least one; the caller is lane 0):
    /// spawns the `dispatchers - 1` lane threads, which flat-parse
    /// [`SEG_BATCH_FRAMES`]-record chunks while the caller routes. Call
    /// right after construction, on the constructing thread — lanes bind
    /// the telemetry registry and flight recorder they find there.
    pub fn with_dispatchers(mut self, dispatchers: usize) -> Self {
        let extra = dispatchers.clamp(1, MAX_PIPELINE_THREADS) - 1;
        for index in 1..=extra {
            let (tx, lane_rx) = ring::channel::<SegBatch>(LANE_CHUNKS);
            let (lane_tx, rx) = ring::channel::<SegBatch>(LANE_CHUNKS);
            let (registry, trace) = thread_telemetry(&mut self.thread_registries);
            let handle = std::thread::spawn(move || {
                parse_lane_loop(index as u16, lane_rx, lane_tx, registry, trace)
            });
            self.lanes.push(ParseLane { tx, rx, handle });
        }
        self
    }

    /// Retire windowed-analytics buckets below the rotation horizon on
    /// every shard, returning the retired `(bucket, partial)` lists in
    /// shard order. The horizon is `clock` clamped down to the oldest live
    /// flow's start (the routing table's `first_ts` minimum — the mirror
    /// of the sequential sniffer's `FlowTable::oldest_live_first_ts`), so
    /// no window a live flow can still contribute to is emitted early.
    /// Runs as a barrier: every record seen so far is routed, a `Rotate`
    /// item is broadcast to every shard, pending batches flush, and the
    /// call blocks until each worker answers on its capacity-1 rotation
    /// ring — cheap at rotation cadence, and it pins retirement to the
    /// same packet-clock instant at every worker and dispatcher count.
    // lint_root(determinism): rotation barrier fires identically at every worker count
    pub fn rotate(&mut self, clock: u64) -> (u64, Vec<Vec<(u64, StreamingAnalytics)>>) {
        self.route_all_chunks();
        let oldest = self.router.routes.values().map(|r| r.first_ts).min();
        let horizon = oldest.map_or(clock, |t| t.min(clock));
        let seq = self.seq;
        for shard in 0..self.router.links.len() {
            self.router
                .push_item(shard, ItemKind::Rotate { horizon }, seq, clock, &[]);
        }
        self.router.flush_all();
        let mut replies = Vec::with_capacity(self.rotation_rxs.len());
        for rx in &self.rotation_rxs {
            // `None` = the worker died; treat as "nothing retired" and let
            // the join in `finish` surface the loss.
            replies.push(rx.recv().unwrap_or_default());
        }
        (horizon, replies)
    }

    /// Merged point-in-time copy of the pipeline threads' telemetry cells
    /// (workers and parse lanes) — empty unless a registry was bound when
    /// the sniffer was built. A live view (the `--metrics` mode) adds this
    /// to a snapshot of the caller's own registry; mid-run values are racy
    /// but monotone, and the final post-`finish` snapshot comes from the
    /// merged caller registry instead.
    pub fn thread_telemetry_snapshot(&self) -> telemetry::Snapshot {
        let mut snap = telemetry::Snapshot::default();
        for reg in &self.thread_registries {
            snap.merge(&reg.snapshot());
        }
        snap
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.router.links.len()
    }

    /// Process one pcap record.
    // lint_root(ingest): router entry, one call per pcap record
    pub fn process_record(&mut self, rec: &PcapRecord) {
        self.process_frame(rec.timestamp_micros(), &rec.frame);
    }

    /// Dispatch one raw Ethernet frame: flat-parse ([`parse_flat`], no
    /// payload copy), classify exactly as the sequential sniffer does, and
    /// enqueue it for the owning shard. With parse lanes, the frame's bytes
    /// are appended to the filling chunk instead, which is dealt to its
    /// lane once full.
    // lint_root(ingest): router entry, one call per captured frame
    pub fn process_frame(&mut self, ts: u64, frame: &[u8]) {
        if !self.lanes.is_empty() {
            self.filling.push(ts, frame);
            if self.filling.is_full() {
                self.busy(Self::seal_chunk);
            }
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if !seq.is_multiple_of(TIMING_SAMPLE) {
            let parse = parse_flat(frame);
            self.router.route_frame(seq, ts, frame.len() as u32, &parse);
            return;
        }
        // A sampled frame: parse and route are timed apart, as with parse
        // lanes, so the timings split the caller's work the same way at any
        // lane count.
        let t0 = Instant::now();
        let wait_before = self.router.send_wait_nanos;
        let parse = parse_flat(frame);
        let parsed = t0.elapsed().as_nanos() as u64;
        self.router.route_frame(seq, ts, frame.len() as u32, &parse);
        let busy = (t0.elapsed().as_nanos() as u64)
            .saturating_sub(self.router.send_wait_nanos - wait_before);
        self.parse_nanos += parsed * TIMING_SAMPLE;
        self.busy_nanos += busy * TIMING_SAMPLE;
    }

    /// Run `work` on the router, adding its time to the busy total minus
    /// the ring waits inside it (counted into `send_wait_nanos`), so busy
    /// time is router CPU only.
    fn busy(&mut self, work: impl FnOnce(&mut Self)) {
        // allow_lint(L7): wall-clock here feeds only the busy-time split;
        // no emitted byte depends on it
        let t0 = Instant::now();
        let wait_before = self.router.send_wait_nanos;
        work(self);
        self.busy_nanos += (t0.elapsed().as_nanos() as u64)
            .saturating_sub(self.router.send_wait_nanos - wait_before);
    }

    /// Deal the filling chunk to the next lane, round-robin: lane 0 (this
    /// thread) parses it right away, any other lane on its own thread. A
    /// lane's previous chunk was dealt one full round earlier; routing the
    /// oldest chunks until fewer than one round is in flight guarantees it
    /// is back, so a lane never holds more than one chunk.
    fn seal_chunk(&mut self) {
        if self.filling.is_empty() {
            return;
        }
        let lanes = self.lanes.len() + 1;
        while self.in_flight.len() >= lanes {
            self.route_oldest_chunk();
        }
        let next = self.spare_chunks.pop().unwrap_or_default();
        let mut chunk = std::mem::replace(&mut self.filling, next);
        let lane = self.next_lane;
        self.next_lane = (lane + 1) % lanes;
        match lane
            .checked_sub(1)
            .and_then(|i| self.lanes.get(i).map(|l| (i, l)))
        {
            Some((i, parse_lane)) => {
                // Fails only if the lane died; its chunk is then lost and
                // the hand-back below yields nothing.
                let _ = parse_lane.tx.send(chunk);
                self.in_flight.push_back(Chunk::Lane(i));
            }
            None => {
                self.parse_nanos += parse_chunk(&mut chunk);
                self.in_flight.push_back(Chunk::Parsed(chunk));
            }
        }
    }

    /// Route the oldest in-flight chunk, frame by frame, stamping each with
    /// the next sequence number.
    fn route_oldest_chunk(&mut self) {
        let chunk = match self.in_flight.pop_front() {
            Some(Chunk::Parsed(chunk)) => Some(chunk),
            Some(Chunk::Lane(i)) => {
                // allow_lint(L7): wall-clock here feeds only the wait-time
                // split; no emitted byte depends on it
                let t0 = Instant::now();
                let chunk = self.lanes.get(i).and_then(|lane| lane.rx.recv());
                self.router.send_wait_nanos += t0.elapsed().as_nanos() as u64;
                chunk
            }
            None => None,
        };
        let Some(mut chunk) = chunk else {
            return;
        };
        for frame in chunk.frames() {
            let seq = self.seq;
            self.seq += 1;
            self.router
                .route_frame(seq, frame.ts, frame.wire_len, &frame.parse);
        }
        chunk.clear();
        self.spare_chunks.push(chunk);
    }

    /// Route every record seen so far: seal the partial chunk and drain the
    /// in-flight ones. A no-op with one dispatcher, where each frame is
    /// routed as it arrives. A live source calls this whenever it goes
    /// idle, so no record waits unrouted for a chunk to fill; chunk
    /// boundaries never change the output, since sequence numbers are
    /// stamped at routing time.
    pub fn route_all_chunks(&mut self) {
        self.busy(|s| {
            s.seal_chunk();
            while !s.in_flight.is_empty() {
                s.route_oldest_chunk();
            }
        });
    }

    /// End of trace: flush every pending batch, close the channels, join
    /// the workers and merge their outputs into the one report.
    pub fn finish(self) -> SnifferReport {
        self.finish_full().0
    }

    /// [`ParallelSniffer::finish`], also returning the busy-time
    /// decomposition for the throughput baseline.
    pub fn finish_with_timings(self) -> (SnifferReport, PipelineTimings) {
        let (report, timings, _) = self.finish_full();
        (report, timings)
    }

    /// [`ParallelSniffer::finish`], also handing back the per-shard
    /// streaming sinks (shard order; empty unless built
    /// [`ParallelSniffer::with_sinks`]).
    pub fn finish_with_sinks(self) -> (SnifferReport, Vec<Box<dyn FlowSink>>) {
        let (report, _, sinks) = self.finish_full();
        (report, sinks)
    }

    fn finish_full(mut self) -> (SnifferReport, PipelineTimings, Vec<Box<dyn FlowSink>>) {
        self.route_all_chunks();
        // Dropping a lane's sender closes its ring; the lane exits.
        let mut lane_parse_nanos = Vec::with_capacity(self.lanes.len());
        for lane in std::mem::take(&mut self.lanes) {
            drop(lane.tx);
            lane_parse_nanos.push(lane.handle.join().unwrap_or(0));
        }
        self.router.flush_all();
        // Dropping the links drops the senders, which closes each ring;
        // workers drain what is queued, flush their engines and return.
        let links = std::mem::take(&mut self.router.links);
        let workers = links.len();
        drop(links);
        let mut outputs = Vec::with_capacity(workers);
        let mut worker_busy_micros = Vec::with_capacity(workers);
        for handle in std::mem::take(&mut self.handles) {
            if let Ok((out, busy)) = handle.join() {
                outputs.push(out);
                worker_busy_micros.push(busy);
            }
        }
        // Shard-order extraction; the streaming fold is commutative, but a
        // stable order keeps the driver's view reproducible regardless.
        let sinks: Vec<Box<dyn FlowSink>> =
            outputs.iter_mut().filter_map(|o| o.sink.take()).collect();
        let intern = fold_intern(&outputs);
        // The joins above are the happens-before edge: every thread-side
        // relaxed store is visible, so folding the per-thread registries
        // into the caller's yields exact totals — and, for the stable
        // class, the same values a sequential run records.
        let lanes_nanos: u64 = lane_parse_nanos.iter().sum();
        tm_count!(Tm::DispatchBusyNanos, self.busy_nanos + lanes_nanos);
        tm_count!(Tm::SendWaitNanos, self.router.send_wait_nanos);
        for reg in &self.thread_registries {
            telemetry::merge_into_bound(reg);
        }
        let report = assemble_report(
            outputs,
            std::mem::take(&mut self.router.stats),
            self.router.trace_start,
            self.router.trace_end,
            self.config.warmup_micros,
        );
        let route_busy = self.busy_nanos.saturating_sub(self.parse_nanos);
        let dispatcher_busy_micros = std::iter::once(self.parse_nanos)
            .chain(lane_parse_nanos)
            .map(|nanos| nanos / 1_000)
            .collect::<Vec<_>>();
        (
            report,
            PipelineTimings {
                workers,
                dispatchers: dispatcher_busy_micros.len(),
                dispatch_busy_micros: (self.busy_nanos + lanes_nanos) / 1_000,
                dispatcher_busy_micros,
                route_busy_micros: route_busy / 1_000,
                send_wait_micros: self.router.send_wait_nanos / 1_000,
                worker_busy_micros,
                intern,
            },
            sinks,
        )
    }
}

/// Run a whole in-memory trace through [`ParallelSniffer`] with `workers`
/// shard threads and `dispatchers` parse lanes (capped at one lane per
/// [`SEG_BATCH_FRAMES`]-record chunk), returning the merged report
/// (byte-identical to [`crate::RealTimeSniffer`]'s — see the module docs)
/// plus the busy-time decomposition.
pub fn run_records(
    config: &SnifferConfig,
    workers: usize,
    dispatchers: usize,
    records: &[PcapRecord],
) -> (SnifferReport, PipelineTimings) {
    let chunks = records.len().div_ceil(SEG_BATCH_FRAMES).max(1);
    let mut sniffer =
        ParallelSniffer::new(config.clone(), workers).with_dispatchers(dispatchers.min(chunks));
    for rec in records {
        sniffer.process_record(rec);
    }
    sniffer.finish_with_timings()
}

/// The telemetry a new pipeline thread binds: a fresh registry (recorded in
/// `registries` for the merge) when the calling thread has one bound, and
/// the calling thread's flight-recorder set, so one `--trace-out` export
/// shows every thread of the pipeline.
fn thread_telemetry(
    registries: &mut Vec<Arc<telemetry::Registry>>,
) -> (Option<Arc<telemetry::Registry>>, Option<Arc<TraceSet>>) {
    let registry = telemetry::is_bound().then(|| {
        let reg = Arc::new(telemetry::Registry::new());
        registries.push(Arc::clone(&reg));
        reg
    });
    (registry, telemetry::trace_set())
}

/// Build the `workers` shard engines, splitting the Clist budget `L`
/// across them (§3.1.1 — sharding splits the §4.2 memory budget, it does
/// not multiply it): the first `L mod N` shards take one extra slot.
fn shard_engines(
    config: &SnifferConfig,
    workers: usize,
    make_sink: &mut Option<&mut dyn FnMut(usize) -> Box<dyn FlowSink>>,
) -> Vec<ShardEngine> {
    let base = config.resolver.clist_size / workers;
    let remainder = config.resolver.clist_size % workers;
    (0..workers)
        .map(|i| {
            let per_shard = (base + usize::from(i < remainder)).max(1);
            let mut engine = ShardEngine::new(
                config.clone(),
                ResolverConfig {
                    clist_size: per_shard,
                    ..config.resolver
                },
            );
            if let Some(make_sink) = make_sink.as_deref_mut() {
                engine.set_sink(make_sink(i));
            }
            engine
        })
        .collect()
}

/// Sum the per-shard interning stats.
fn fold_intern(outputs: &[ShardOutput]) -> InternStats {
    let mut intern = InternStats::default();
    for out in outputs {
        intern.allocated += out.intern.allocated;
        intern.reused += out.intern.reused;
    }
    intern
}

/// Flat-parse one chunk on the current thread, recording a `parse` slice
/// on its flight-recorder lane. Returns the parse time (ns).
fn parse_chunk(chunk: &mut SegBatch) -> u64 {
    // allow_lint(L7): wall-clock here feeds only the busy/wait-time split;
    // no emitted byte depends on it
    let t0 = Instant::now();
    chunk.parse();
    let nanos = t0.elapsed().as_nanos() as u64;
    if telemetry::trace_enabled() {
        tm_trace_wall!(Te::ChunkParse, 0, chunk.len() as u64, nanos);
    }
    nanos
}

/// One parse-lane thread: parse every chunk it is dealt and hand it back,
/// until the router closes the ring. Returns the lane's parse time (ns).
// lint_root(ingest): parse lane over raw captured records
fn parse_lane_loop(
    index: u16,
    rx: Receiver<SegBatch>,
    tx: Sender<SegBatch>,
    registry: Option<Arc<telemetry::Registry>>,
    trace: Option<Arc<TraceSet>>,
) -> u64 {
    // The lane's parse telemetry lands in its own registry (merged at
    // finish) and its trace events in its own flight-recorder lane.
    let _telemetry_guard = registry.map(telemetry::bind);
    let _trace_guard = trace
        .as_ref()
        .map(|set| telemetry::trace_bind(set, LaneKind::Parse, index));
    let mut busy_nanos = 0;
    while let Some(mut chunk) = rx.recv() {
        busy_nanos += parse_chunk(&mut chunk);
        if tx.send(chunk).is_err() {
            break;
        }
    }
    busy_nanos
}

/// One shard worker: drive this shard's [`ShardEngine`]. Items arrive
/// pre-parsed — a [`CompactSeg`] plus DPI head bytes straight into the
/// flow table, or a DNS payload decoded here, the exact decode path the
/// sequential sniffer runs — in routing order, several batches per lock
/// via `recv_batch`. Returns the shard's output plus its busy time (µs,
/// excluding `recv` blocking).
// lint_root(ingest): per-worker ingest: decodes DNS and drives the shard engine
fn worker_loop(
    mut engine: ShardEngine,
    shard: usize,
    rx: Receiver<Batch>,
    recycle: Sender<Batch>,
    rotate_tx: Sender<RotateReply>,
    registry: Option<Arc<telemetry::Registry>>,
    trace: Option<Arc<TraceSet>>,
) -> (ShardOutput, u64) {
    // Bind this shard's registry for the thread's whole lifetime, so every
    // engine/resolver/flow-table update below lands in per-shard cells that
    // the merge later folds into the caller's registry.
    let _telemetry_guard = registry.map(telemetry::bind);
    // And its flight-recorder lane: resolver/flow/sink provenance events
    // fired by the engine below record into this worker's ring.
    let _trace_guard = trace
        .as_ref()
        .map(|set| telemetry::trace_bind(set, LaneKind::Worker, shard as u16));
    let mut busy_nanos = 0u64;
    let mut inbox: Vec<Batch> = Vec::with_capacity(RECV_BATCH_MAX);
    let mut done: Vec<Batch> = Vec::with_capacity(RECV_BATCH_MAX);
    let mut last_seq = 0u64;
    // `recv_batch` returns 0 only once the ring is closed *and* empty.
    loop {
        let n = rx.recv_batch(&mut inbox, RECV_BATCH_MAX);
        if n == 0 {
            break;
        }
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::RingRecvBatch, 0, shard as u64, n as u64);
        }
        let t0 = Instant::now();
        let mut drained_items = 0u64;
        for mut batch in inbox.drain(..) {
            drained_items += batch.items.len() as u64;
            for item in &batch.items {
                debug_assert!(
                    item.seq >= last_seq,
                    "worker observed seq {} after {}",
                    item.seq,
                    last_seq
                );
                last_seq = item.seq;
                let start = item.off as usize;
                let end = start + item.len as usize;
                match item.kind {
                    ItemKind::Start => engine.note_trace_start(item.ts),
                    ItemKind::Tick => engine.tick(item.seq, item.ts),
                    ItemKind::Seg(seg) => {
                        let head = batch.bytes.get(start..end).unwrap_or(&[]);
                        engine.process_seg(
                            item.seq,
                            item.ts,
                            &seg,
                            head,
                            &mut None::<&mut RuleEnforcer>,
                        );
                    }
                    ItemKind::DnsUdp { client } => {
                        let payload = batch.bytes.get(start..end).unwrap_or(&[]);
                        engine.handle_dns_payload(item.seq, item.ts, client, payload);
                    }
                    ItemKind::DnsTcp { client } => {
                        let payload = batch.bytes.get(start..end).unwrap_or(&[]);
                        for msg in codec::decode_tcp_stream(payload) {
                            engine.handle_dns_message(item.seq, item.ts, client, &msg);
                        }
                    }
                    ItemKind::Rotate { horizon } => {
                        let retired = engine.rotate(horizon);
                        // The barrier half: the router blocks on this
                        // reply, so the send can never find the capacity-1
                        // ring full. A failed send means the router
                        // already gave up on us.
                        let _ = rotate_tx.send(retired);
                    }
                }
            }
            batch.items.clear();
            batch.bytes.clear();
            done.push(batch);
        }
        let drain_nanos = t0.elapsed().as_nanos() as u64;
        busy_nanos += drain_nanos;
        if telemetry::trace_enabled() {
            tm_trace_wall!(Te::WorkerDrain, 0, drained_items, drain_nanos);
        }
        // Best effort, never blocking: arenas that don't fit the recycle
        // ring are simply dropped and the router allocates fresh ones.
        recycle.try_send_batch(&mut done);
        done.clear();
    }
    let t0 = Instant::now();
    let out = engine.finish_shard();
    busy_nanos += t0.elapsed().as_nanos() as u64;
    tm_count!(Tm::WorkerBusyNanos, busy_nanos);
    (out, busy_nanos / 1_000)
}
