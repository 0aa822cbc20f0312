//! The parallel pipeline's headline guarantee: for any worker count *and*
//! dispatcher count, the merged [`SnifferReport`] is **byte-identical** to
//! the sequential sniffer's. Determinism is by construction — global
//! sequence numbers, router-broadcast eviction ticks, one router routing
//! in trace order, `(seq, phase)`-ordered merge — and these tests pin it
//! against a full seeded simnet workload (DNS, TCP/TLS, UDP, port reuse,
//! idle evictions, the §5.1 delay accounting, all of it).

use dnhunter::{run_records, ParallelSniffer, RealTimeSniffer, SnifferConfig, SnifferReport};
use dnhunter_simnet::{profiles, TraceGenerator};

/// Canonical serialization of everything a report contains. Two reports
/// with equal digests are equal field-for-field, including database row
/// order and every delay/time-series sample.
fn digest(report: &SnifferReport) -> String {
    let mut out = String::new();
    let mut push = |part: Result<String, serde_json::Error>| {
        out.push_str(&part.expect("report part serializes"));
        out.push('\n');
    };
    push(serde_json::to_string(report.database.flows()));
    push(serde_json::to_string(&report.sniffer_stats));
    push(serde_json::to_string(&report.resolver_stats));
    push(serde_json::to_string(&report.delays));
    push(serde_json::to_string(&report.dns_response_times));
    push(serde_json::to_string(&report.answers_per_response));
    push(serde_json::to_string(&report.trace_start));
    push(serde_json::to_string(&report.trace_end));
    push(serde_json::to_string(&report.warmup_micros));
    out
}

#[test]
fn parallel_report_is_byte_identical_to_sequential() {
    let profile = profiles::eu1_adsl1().scaled(0.2);
    let trace = TraceGenerator::new(profile, false).generate();
    assert!(
        trace.records.len() > 5_000,
        "trace too small ({} frames) to exercise the pipeline",
        trace.records.len()
    );

    let config = SnifferConfig::default();

    let mut sequential = RealTimeSniffer::new(config.clone());
    for rec in &trace.records {
        sequential.process_record(rec);
    }
    let reference = sequential.finish();
    let reference_digest = digest(&reference);

    // The workload must actually exercise tagging and flow accounting for
    // the byte-identity claim to mean anything.
    assert!(reference.database.len() > 50, "too few flows");
    assert!(
        reference.sniffer_stats.dns_responses > 50,
        "too few responses"
    );
    assert!(reference.sniffer_stats.tag_hits > 0, "no tags assigned");

    for workers in [1usize, 2, 8] {
        let mut parallel = ParallelSniffer::new(config.clone(), workers);
        for rec in &trace.records {
            parallel.process_record(rec);
        }
        let (report, timings) = parallel.finish_with_timings();
        assert_eq!(timings.workers, workers);
        assert_eq!(
            digest(&report),
            reference_digest,
            "{workers}-worker report diverged from the sequential report"
        );
        // The allocation diet must be visible: interning reuses far more
        // FQDN Arcs than it allocates on a workload with repeated lookups.
        assert!(
            timings.intern.reused > timings.intern.allocated,
            "interner should mostly reuse ({:?})",
            timings.intern
        );
    }
}

#[test]
fn multi_dispatcher_report_is_byte_identical_to_sequential() {
    let profile = profiles::eu1_adsl1().scaled(0.2);
    let trace = TraceGenerator::new(profile, false).generate();

    let config = SnifferConfig::default();
    let mut sequential = RealTimeSniffer::new(config.clone());
    for rec in &trace.records {
        sequential.process_record(rec);
    }
    let reference = sequential.finish();
    let reference_digest = digest(&reference);
    assert!(reference.sniffer_stats.tag_hits > 0, "no tags assigned");

    for (workers, dispatchers) in [(1usize, 1usize), (2, 2), (8, 2)] {
        let (report, timings) = run_records(&config, workers, dispatchers, &trace.records);
        assert_eq!(timings.workers, workers);
        assert_eq!(timings.dispatchers, dispatchers);
        assert_eq!(
            timings.dispatcher_busy_micros.len(),
            dispatchers,
            "one parse-busy sample per dispatcher"
        );
        assert_eq!(
            digest(&report),
            reference_digest,
            "{workers}x{dispatchers} (workers x dispatchers) report \
             diverged from the sequential report"
        );
    }
}

#[test]
fn parallel_sniffer_with_empty_input_matches_sequential() {
    let config = SnifferConfig::default();
    let reference = RealTimeSniffer::new(config.clone()).finish();
    let parallel = ParallelSniffer::new(config.clone(), 4).finish();
    assert_eq!(digest(&parallel), digest(&reference));
    // The multi-dispatcher driver clamps to one dispatcher on an empty
    // trace and must produce the same empty report.
    let (report, timings) = run_records(&config, 4, 8, &[]);
    assert_eq!(timings.dispatchers, 1);
    assert_eq!(digest(&report), digest(&reference));
}
