//! Daemon-mode equivalence: replaying the same pcap bytes through the
//! poll/backpressure event loop must render byte-identical windowed output,
//! rotated or not, whether the source is a file or a dribbling byte stream
//! (the FIFO/socket regime: short reads, mid-record stalls, `WouldBlock`),
//! at 1, 2, and 8 workers and 1 or 2 dispatchers, on every simnet profile.
//! Rotation cadence, horizons, and the emitted window lines are functions of
//! the record stream alone — never of source pacing, shard count or parse
//! lanes. See DESIGN.md §13.

use std::io::{Cursor, Read};
use std::sync::Arc;

use dnhunter::{
    DaemonSniffer, FlowSink, ParallelSniffer, RealTimeSniffer, Rotation, SnifferConfig,
    WindowConfig, WindowedAnalytics,
};
use dnhunter_net::{
    FrameSource, PcapFileSource, PcapRecord, PcapStreamSource, PcapWriter, SourcePoll,
};
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry as telemetry;
use telemetry::Metric;

const WINDOW_MICROS: u64 = 30 * 60 * 1_000_000;
const SLIDE_MICROS: u64 = 10 * 60 * 1_000_000;
const ROTATE_MICROS: u64 = 10 * 60 * 1_000_000;

/// Nightly (`FAULT_MATRIX_FULL=1`) multiplies the trace scale by 4 and
/// widens the worker/source grid; the PR gate keeps the runs quick.
fn full() -> bool {
    std::env::var_os("FAULT_MATRIX_FULL").is_some()
}

fn scaled(base: f64) -> f64 {
    if full() {
        base * 4.0
    } else {
        base
    }
}

fn pcap_bytes(records: &[PcapRecord]) -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new()).expect("header writes");
    for rec in records {
        writer.write_record(rec).expect("record writes");
    }
    writer.into_inner().expect("flushes")
}

/// A hostile byte source: short reads sized to split pcap records across
/// poll boundaries, with periodic `WouldBlock` stalls — what a FIFO or
/// non-blocking socket hands the daemon.
struct Dribble {
    data: Vec<u8>,
    pos: usize,
    tick: u64,
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.tick += 1;
        if self.tick.is_multiple_of(13) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        // 997 is coprime to every pcap record size in play: the cut point
        // walks through header/payload boundaries as the stream advances.
        let n = buf.len().min(997).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn window_cfg() -> WindowConfig {
    WindowConfig::new(WINDOW_MICROS, SLIDE_MICROS)
}

fn make_sniffer(workers: usize, dispatchers: usize) -> DaemonSniffer {
    let config = SnifferConfig::default();
    if workers > 1 || dispatchers > 1 {
        DaemonSniffer::Par(Box::new(
            ParallelSniffer::with_sinks(config, workers, &mut |_| {
                Box::new(WindowedAnalytics::new(window_cfg())) as Box<dyn FlowSink>
            })
            .with_dispatchers(dispatchers),
        ))
    } else {
        let mut s = RealTimeSniffer::new(config);
        s.set_sink(Box::new(WindowedAnalytics::new(window_cfg())));
        DaemonSniffer::Seq(Box::new(s))
    }
}

/// One daemon-loop configuration: shard workers, parse lanes, the
/// FIFO-style dribbling source instead of a file, and state rotation.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workers: usize,
    dispatchers: usize,
    stream: bool,
    rotate: bool,
}

/// Run the daemon loop over `bytes` and return the windowed JSONL (the
/// rotated stream, or the batch render of the folded sinks) plus the
/// telemetry snapshot.
fn run_daemon(bytes: &[u8], cell: Cell) -> (String, telemetry::Snapshot) {
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = make_sniffer(cell.workers, cell.dispatchers);
    let mut rotation = cell
        .rotate
        .then(|| Rotation::new(ROTATE_MICROS, window_cfg()));
    let records = if cell.stream {
        let mut source = PcapStreamSource::new(Dribble {
            data: bytes.to_vec(),
            pos: 0,
            tick: 0,
        });
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, rotation.as_mut(), |_, _| {})
    } else {
        let mut source = PcapFileSource::new(Cursor::new(bytes)).expect("valid pcap");
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, rotation.as_mut(), |_, _| {})
    }
    .expect("daemon loop completes");
    assert!(records > 0, "daemon ingested nothing");
    let (_, sinks) = sniffer.finish_with_sinks();
    let out = match rotation {
        Some(rotation) => {
            let rotations = rotation.rotations;
            assert!(rotations > 0, "no rotation fired over a multi-hour trace");
            rotation.emitter.finish(rotations, sinks)
        }
        None => WindowedAnalytics::fold(sinks)
            .expect("windowed sinks returned")
            .render(),
    };
    (out, registry.snapshot())
}

#[test]
fn daemon_stream_replay_matches_batch_on_every_profile() {
    for profile in profiles::all_paper_profiles() {
        let name = profile.name.clone();
        let trace = TraceGenerator::new(profile.scaled(scaled(0.006)), false).generate();
        let bytes = pcap_bytes(&trace.records);

        for rotate in [true, false] {
            let reference_cell = Cell {
                workers: 1,
                dispatchers: 1,
                stream: false,
                rotate,
            };
            let (reference, refsnap) = run_daemon(&bytes, reference_cell);
            assert!(
                reference.lines().count() > 2,
                "{name}: windowed output has no window lines"
            );
            // The rotated stream reports drops in its footer, the batch
            // render in its header.
            let drops_line = if rotate {
                reference.lines().last()
            } else {
                reference.lines().next()
            };
            assert!(
                drops_line.is_some_and(|l| l.contains("\"dropped_bucket_events\":0")),
                "{name}: windowing dropped bucket events: {drops_line:?}"
            );
            if rotate {
                assert!(refsnap.get(Metric::DaemonRotations) > 0);
                assert!(refsnap.get(Metric::WindowBucketsRetired) > 0);
            }
            assert_eq!(refsnap.get(Metric::WindowRetractUnderflow), 0, "{name}");
            let reference_prom = telemetry::prometheus(&refsnap, false);

            // (1, 1, file) is the reference itself; every other grid cell
            // (workers, dispatchers, stream) must reproduce it byte for byte.
            // The PR gate runs one and two parse lanes over both sources,
            // rotated and not; the nightly grid is the full cross product.
            let grid: Vec<(usize, usize, bool)> = if full() {
                let mut cells = Vec::new();
                for workers in [1, 2, 8] {
                    for dispatchers in [1, 2] {
                        for stream in [false, true] {
                            cells.push((workers, dispatchers, stream));
                        }
                    }
                }
                cells.retain(|&cell| cell != (1, 1, false));
                cells
            } else if rotate {
                vec![
                    (1, 1, true),
                    (2, 1, true),
                    (8, 1, false),
                    (2, 2, true),
                    (8, 2, false),
                ]
            } else {
                vec![(2, 2, true), (8, 2, false)]
            };
            for (workers, dispatchers, stream) in grid {
                let cell = Cell {
                    workers,
                    dispatchers,
                    stream,
                    rotate,
                };
                let (out, snap) = run_daemon(&bytes, cell);
                assert_eq!(out, reference, "{name}: {cell:?} windowed output diverged");
                assert_eq!(
                    telemetry::prometheus(&snap, false),
                    reference_prom,
                    "{name}: {cell:?} stable metrics diverged"
                );
            }
        }
    }
}

/// A live source that goes idle (`Pending`) after every `stall_every`
/// records, as a quiet link does.
struct Stalling {
    records: std::vec::IntoIter<PcapRecord>,
    fed: usize,
    stall_every: usize,
    stalled: bool,
}

impl FrameSource for Stalling {
    fn poll_next(&mut self) -> dnhunter_net::Result<SourcePoll> {
        if self.fed > 0 && self.fed.is_multiple_of(self.stall_every) && !self.stalled {
            self.stalled = true;
            return Ok(SourcePoll::Pending);
        }
        self.stalled = false;
        Ok(match self.records.next() {
            Some(rec) => {
                self.fed += 1;
                SourcePoll::Ready(rec)
            }
            None => SourcePoll::Eof,
        })
    }
}

#[test]
fn idle_stream_routes_every_record_before_eof() {
    // With two parse lanes, records gather into chunks far larger than one
    // stall's worth of traffic. Once the source goes idle every record fed
    // so far must be routed anyway, instead of waiting unrouted (and
    // uncounted in mid-run metrics) until more traffic fills the chunk.
    const STALL_EVERY: usize = 10;
    let trace = TraceGenerator::new(
        profiles::profile_by_name("EU1-FTTH")
            .unwrap()
            .scaled(scaled(0.002)),
        false,
    )
    .generate();
    let total = trace.records.len().min(400);
    assert!(total > 3 * STALL_EVERY, "trace too short: {total} records");
    let mut records = trace.records;
    records.truncate(total);
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    let mut sniffer = make_sniffer(2, 2);
    let mut source = Stalling {
        records: records.into_iter(),
        fed: 0,
        stall_every: STALL_EVERY,
        stalled: false,
    };
    let mut seen = 0u64;
    let mut checked = 0;
    dnhunter::run_frame_daemon(&mut source, &mut sniffer, None, |sniffer, _| {
        seen += 1;
        // The first record after a stall: everything before it is routed.
        if seen > 1 && (seen - 1).is_multiple_of(STALL_EVERY as u64) {
            let routed = sniffer.live_snapshot(&registry).get(Metric::IngestFrames);
            assert_eq!(routed, seen - 1, "records left unrouted across a stall");
            checked += 1;
        }
    })
    .expect("daemon loop completes");
    assert!(checked >= 3, "only {checked} stalls checked");
    let (report, _) = sniffer.finish_with_sinks();
    assert_eq!(report.sniffer_stats.frames, total as u64);
}

#[test]
fn rotation_cadence_does_not_change_which_windows_exist() {
    // Different rotation cadences retire buckets at different instants, but
    // the set of emitted windows and their line content must be identical:
    // the emitter replicates the batch sweep regardless of when state
    // rotates out of the live sinks.
    let trace = TraceGenerator::new(
        profiles::profile_by_name("EU1-FTTH")
            .unwrap()
            .scaled(scaled(0.006)),
        false,
    )
    .generate();
    let bytes = pcap_bytes(&trace.records);

    let strip_header = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("\"window_start\""))
            .map(str::to_owned)
            .collect()
    };

    let run_at = |rotate_micros: u64| -> Vec<String> {
        let mut sniffer = make_sniffer(1, 1);
        let mut rotation = Rotation::new(rotate_micros, window_cfg());
        let mut source = PcapFileSource::new(Cursor::new(&bytes)).expect("valid pcap");
        dnhunter::run_frame_daemon(&mut source, &mut sniffer, Some(&mut rotation), |_, _| {})
            .expect("daemon loop completes");
        let (_, sinks) = sniffer.finish_with_sinks();
        let rotations = rotation.rotations;
        strip_header(&rotation.emitter.finish(rotations, sinks))
    };

    // Cadences from one slide up to effectively-never (one giant interval):
    // the *set* of emitted window positions must not depend on the
    // retirement schedule. (Window contents can differ across cadences —
    // rotation deliberately evicts cross-window DNS correlation state — so
    // this pins the sweep's shape, not the summaries.)
    let reference = run_at(SLIDE_MICROS);
    assert!(!reference.is_empty());
    for cadence in [ROTATE_MICROS * 3, u64::MAX / 2] {
        let lines = run_at(cadence);
        assert_eq!(
            lines.len(),
            reference.len(),
            "cadence {cadence}: window count diverged"
        );
    }
}
