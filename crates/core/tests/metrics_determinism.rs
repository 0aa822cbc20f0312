//! Telemetry companion to `pipeline_determinism`: the *stable-class*
//! metric snapshot is a pure function of the input trace. A sequential
//! run and merged parallel runs at any worker and dispatcher count must
//! render the same Prometheus exposition and the same final JSONL line,
//! byte for byte (DESIGN.md "Telemetry and live monitoring").

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;

use dnhunter::{ParallelSniffer, RealTimeSniffer, SnifferConfig};
use dnhunter_simnet::{profiles, TraceGenerator};
use dnhunter_telemetry as telemetry;

#[test]
fn stable_metrics_identical_across_worker_counts() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(
        trace.records.len() > 5_000,
        "trace too small ({} frames) to exercise the pipeline",
        trace.records.len()
    );
    let config = SnifferConfig::default();

    let reference = {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut sequential = RealTimeSniffer::new(config.clone());
        for rec in &trace.records {
            sequential.process_record(rec);
        }
        let report = sequential.finish();
        // The workload must actually drive the instrumented layers for
        // byte-equality to mean anything.
        assert!(report.sniffer_stats.tag_hits > 0, "no tags assigned");
        registry.snapshot()
    };
    let reference_prom = telemetry::prometheus(&reference, false);
    let reference_jsonl = telemetry::jsonl(&reference, 0, 0, false);
    assert!(reference.get(telemetry::Metric::IngestFrames) > 5_000);
    assert!(reference.get(telemetry::Metric::DnsResponsesSniffed) > 0);
    assert!(reference.get(telemetry::Metric::ResolverHits) > 0);
    assert!(reference.get(telemetry::Metric::FlowsStarted) > 0);
    // Final flush returned every flow: the gauge must read empty.
    assert_eq!(reference.gauge(telemetry::Metric::FlowTableSize), 0);

    for (workers, dispatchers) in [(1usize, 1usize), (2, 1), (8, 1), (2, 2), (8, 2)] {
        let registry = Arc::new(telemetry::Registry::new());
        let _guard = telemetry::bind(registry.clone());
        let mut parallel =
            ParallelSniffer::new(config.clone(), workers).with_dispatchers(dispatchers);
        for rec in &trace.records {
            parallel.process_record(rec);
        }
        let _ = parallel.finish();
        let snap = registry.snapshot();
        assert_eq!(
            telemetry::prometheus(&snap, false),
            reference_prom,
            "{workers}x{dispatchers} (workers x dispatchers) stable exposition diverged \
             from sequential"
        );
        assert_eq!(
            telemetry::jsonl(&snap, 0, 0, false),
            reference_jsonl,
            "{workers}x{dispatchers} (workers x dispatchers) stable JSONL diverged from \
             sequential"
        );
    }
}

/// Value of counter `name` in one `--metrics` JSONL line.
fn counter(line: &str, name: &str) -> u64 {
    line.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from {line}"))
}

/// Mid-run `--metrics` lines merge the pipeline threads' registries
/// whatever the input source: a late mid-run line of a stdin run at two
/// workers shows a worker-side Stable counter moving. The worker rings
/// bound how far a worker lags the router (one ring of batches plus the
/// inbox it is draining), so once far more items than that have been
/// routed the check is deterministic.
#[test]
fn stdin_mid_run_metrics_include_worker_counters() {
    let trace = TraceGenerator::new(profiles::eu1_adsl1().scaled(0.02), false).generate();
    let bytes = trace.write_pcap(Vec::new()).expect("pcap writes");
    for dispatchers in [1usize, 2] {
        let metrics = std::env::temp_dir().join(format!(
            "dnh-live-metrics-{}-{dispatchers}.jsonl",
            std::process::id()
        ));
        let mut child = Command::new(env!("CARGO_BIN_EXE_dn-hunter"))
            .args(["-", "--workers", "2", "--dispatchers"])
            .arg(dispatchers.to_string())
            .arg("--metrics")
            .arg(&metrics)
            .args(["--metrics-interval", "600"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("dn-hunter starts");
        child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(&bytes)
            .expect("pcap bytes piped");
        assert!(child.wait().expect("dn-hunter exits").success());
        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(metrics.with_extension("jsonl.prom"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "need mid-run lines: {}", lines.len());
        // The last line is the exact post-finish snapshot; the one before
        // it is the latest mid-run line.
        let late = lines[lines.len() - 2];
        assert!(
            counter(late, "dnh_dns_responses_total") > 0,
            "dispatchers={dispatchers}: worker-side counter stuck at zero mid-run: {late}"
        );
        assert!(counter(late, "dnh_ingest_frames_total") > 0);
    }
}

#[test]
fn snapshots_fire_on_packet_timestamps() {
    let profile = profiles::eu1_adsl1().scaled(0.1);
    let trace = TraceGenerator::new(profile, false).generate();
    let registry = Arc::new(telemetry::Registry::new());
    let _guard = telemetry::bind(registry.clone());
    // One snapshot per 10 minutes of *trace* time: the count depends only
    // on the trace's timestamps, never on host speed.
    let mut emitter = telemetry::SnapshotEmitter::new(600 * 1_000_000);
    let mut sniffer = RealTimeSniffer::new(SnifferConfig::default());
    let mut lines = Vec::new();
    for rec in &trace.records {
        let ts = rec.timestamp_micros();
        sniffer.process_record(rec);
        if emitter.poll(ts) {
            let seq = emitter.emitted().saturating_sub(1);
            lines.push(telemetry::jsonl(&registry.snapshot(), seq, ts, false));
        }
    }
    let span = trace
        .records
        .last()
        .map(|r| r.timestamp_micros())
        .unwrap_or(0)
        .saturating_sub(
            trace
                .records
                .first()
                .map(|r| r.timestamp_micros())
                .unwrap_or(0),
        );
    let expected = (span / (600 * 1_000_000)) as usize;
    assert!(
        lines.len() >= expected.saturating_sub(1) && lines.len() <= expected + 1,
        "{} snapshots over a {span}µs trace (expected ~{expected})",
        lines.len()
    );
    assert!(lines.len() >= 2, "need at least two mid-run snapshots");
    // Counters are monotone across successive snapshots of one run.
    let frames: Vec<u64> = lines
        .iter()
        .map(|l| {
            l.split("\"dnh_ingest_frames_total\":")
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .and_then(|v| v.parse().ok())
                .expect("frames counter present")
        })
        .collect();
    assert!(frames.windows(2).all(|w| w[0] <= w[1]));
}
