//! The traced run: replays a workload's inputs through each layer's
//! public entry points, timing every call from here (nothing inside the
//! program is instrumented), and prints the per-layer metrics.
//!
//! Metrics of a layer the workload does not drive read 0: the sharded
//! executor's (`exec.*`) outside `clean_sharded`, the server's
//! (`server.*`) outside `server_evict`, and the approximate kernel's on
//! streams that never switch.

use std::collections::VecDeque;
use std::time::Instant;

use linkage::api::Pipeline;
use linkage::operators::{ProbeFunnel, SwitchJoinConfig};
use linkage::text::{normalize, GramInterner, NormalizeConfig, QGramConfig, QGramSet};
use linkage::types::snapshot::{Encoder, SnapshotFile};
use linkage::types::wire::put_sided_record;
use linkage::types::{PerSide, Result};
use linkage_server::LinkageServer;

use crate::check::Expected;
use crate::data::{Stream, KEY};
use crate::pipelines::{declare, run_stream, Engine, Workload};
use crate::server::{self, RoundLog, FEED_RECORDS};
use crate::util::{median, ms_since, percentile, Scratch};
use crate::{Metrics, Outcome};

/// `STATS` round trips timed per traced server run.
const STATS_SAMPLES: usize = 400;
/// Rounds of real traffic per traced server run: 1,296 `FEED`s, so
/// about a dozen lie beyond their 99th percentile.
const TRACED_ROUNDS: usize = 2;

/// Accumulated per-layer spans and counts over a round's streams.
#[derive(Default)]
struct Layers {
    keys: u64,
    normalize_s: f64,
    tokenise_s: f64,
    grams: u64,
    interner_bytes: usize,

    exact_tuples: u64,
    /// Key normalisation inside the exact phase (`normalized_key`).
    exact_normalize_s: f64,
    exact_s: f64,
    handover_ms: Vec<f64>,
    ssh_tuples: u64,
    prepare_s: f64,
    process_s: f64,
    funnel: ProbeFunnel,
    approx_emitted: u64,
    state_bytes: Vec<f64>,
    slack_bytes: Vec<f64>,
    /// Wall time of the operator replay, timers included.
    replay_s: f64,
    /// Wall time of the same replay with no timer in its loops.
    untimed_replay_s: f64,

    switch_tuples: Vec<f64>,
    detection_delays: Vec<f64>,
    false_switches: u64,

    exec_overhead_ns: f64,
    shard_skew: Vec<f64>,

    encode_ms: Vec<f64>,
    write_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    read_ms: Vec<f64>,
    restore_ms: Vec<f64>,

    /// Wall time of each stream's longest pull, untraced round.
    stalls_ms: Vec<f64>,
    /// Wall time of every pull, untraced round.
    pulls_ms: Vec<f64>,
}

impl Layers {
    /// The text layer alone: normalise, then tokenise and intern every
    /// key of the stream into one fresh interner.
    fn text(&mut self, stream: &Stream) -> Result<()> {
        let (qgram, norm) = (QGramConfig::default(), NormalizeConfig::default());
        let mut interner = GramInterner::new();
        for record in stream
            .parents
            .records()
            .iter()
            .chain(stream.children.records())
        {
            let raw = record.key_str(KEY)?;
            let t = Instant::now();
            std::hint::black_box(normalize(raw, &norm));
            self.normalize_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let set = QGramSet::extract(raw, &qgram, &mut interner);
            self.tokenise_s += t.elapsed().as_secs_f64();
            self.grams += set.len() as u64;
            self.keys += 1;
        }
        self.interner_bytes = self.interner_bytes.max(interner.state_bytes());
        Ok(())
    }

    /// The operator layer as the engine drives it: the exact kernel up
    /// to the stream's switch tuple, the §3.3 handover, then the
    /// approximate kernel.  With `timed` off the same replay runs with
    /// no timer inside its loops, which prices the tracing itself.
    /// Returns the exact phase's span in seconds.
    fn operators(&mut self, stream: &Stream, switch_at: Option<u64>, timed: bool) -> Result<f64> {
        let started = Instant::now();
        let config = SwitchJoinConfig::new(PerSide::new(KEY, KEY));
        let mut exact = config.exact_core();
        let mut out = VecDeque::new();
        let mut tuples = stream.interleaved().into_iter();
        let cut = switch_at.map_or(usize::MAX, |t| t as usize);
        let (mut normalised, mut processed) = (0.0, 0.0);
        for sided in tuples.by_ref().take(cut) {
            let key = span(timed, &mut normalised, || exact.normalized_key(&sided))?;
            span(timed, &mut processed, || {
                exact.process_with_key(sided, key, &mut out)
            })?;
            self.exact_tuples += 1;
            out.clear();
        }
        self.exact_normalize_s += normalised;
        self.exact_s += processed;
        if switch_at.is_none() {
            let bytes = exact.state_bytes();
            self.state_bytes.push((bytes.left + bytes.right) as f64);
            self.slack_bytes.push(0.0);
            self.replay_s += started.elapsed().as_secs_f64();
            return Ok(normalised + processed);
        }
        let mut handover = 0.0;
        let (mut ssh, _) = span(timed, &mut handover, || {
            config
                .ssh_core()
                .with_exact_state(exact.into_tables(), &mut out)
        });
        self.handover_ms.push(handover * 1e3);
        self.approx_emitted += out.iter().filter(|p| !p.kind.is_exact()).count() as u64;
        out.clear();
        for sided in tuples {
            let (key, grams) = span(timed, &mut self.prepare_s, || ssh.prepare(&sided))?;
            span(timed, &mut self.process_s, || {
                ssh.process_prepared(&sided, &key, &grams, true, &mut out)
            })?;
            self.approx_emitted += out.iter().filter(|p| !p.kind.is_exact()).count() as u64;
            self.ssh_tuples += 1;
            out.clear();
        }
        self.funnel.absorb(ssh.funnel());
        let (bytes, slack) = (ssh.state_bytes(), ssh.postings_slack_bytes());
        self.state_bytes.push((bytes.left + bytes.right) as f64);
        self.slack_bytes.push((slack.left + slack.right) as f64);
        self.replay_s += started.elapsed().as_secs_f64();
        Ok(normalised + processed)
    }

    /// Replay the operators twice, traced and untraced; returns the
    /// exact phase's span.
    fn operators_both(&mut self, stream: &Stream, switch_at: Option<u64>) -> Result<f64> {
        let exact_span = self.operators(stream, switch_at, true)?;
        let mut untimed = Layers::default();
        untimed.operators(stream, switch_at, false)?;
        self.untimed_replay_s += untimed.replay_s;
        Ok(exact_span)
    }

    /// Sum of the spans that cover the engine's join work.
    fn covered_s(&self) -> f64 {
        self.exact_normalize_s
            + self.exact_s
            + self.handover_ms.iter().sum::<f64>() / 1e3
            + self.prepare_s
            + self.process_s
    }

    fn snapshot(&mut self, encode: f64, write: f64, bytes: u64, read: f64, resume: f64) {
        self.encode_ms.push(encode);
        self.write_ms.push(write);
        self.snapshot_bytes.push(bytes as f64);
        self.read_ms.push(read);
        self.restore_ms.push(resume - read);
    }

    /// Break a checkpoint file down: read it back alone, then resume
    /// through `resume` (which reads it again); the difference is the
    /// restore.
    fn read_and_resume<T>(
        &mut self,
        encode: f64,
        write: f64,
        path: &std::path::Path,
        resume: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let bytes = std::fs::metadata(path)?.len();
        let t = Instant::now();
        std::hint::black_box(SnapshotFile::read_from(path)?);
        let read = ms_since(t);
        let t = Instant::now();
        let resumed = resume()?;
        self.snapshot(encode, write, bytes, read, ms_since(t));
        Ok(resumed)
    }

    fn metrics(&self, rounds_untraced_s: f64, server: ServerLayer) -> Metrics {
        let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
        let mut m = Metrics::default();
        m.push(
            "text.normalize_ns_per_key",
            per(self.normalize_s, self.keys),
            "ns",
        );
        m.push(
            "text.tokenise_ns_per_key",
            per(self.tokenise_s, self.keys),
            "ns",
        );
        m.push(
            "text.grams_per_key",
            self.grams as f64 / self.keys.max(1) as f64,
            "count",
        );
        m.push("text.interner_bytes", self.interner_bytes as f64, "bytes");
        m.push(
            "operators.exact_ns_per_tuple",
            per(self.exact_s, self.exact_tuples),
            "ns",
        );
        m.push(
            "operators.ssh_prepare_ns_per_tuple",
            per(self.prepare_s, self.ssh_tuples),
            "ns",
        );
        m.push(
            "operators.ssh_process_ns_per_tuple",
            per(self.process_s, self.ssh_tuples),
            "ns",
        );
        m.push("operators.handover_ms", median(&self.handover_ms), "ms");
        m.push(
            "operators.candidates_scanned",
            self.funnel.candidates_scanned as f64,
            "count",
        );
        m.push(
            "operators.candidates_verified",
            self.funnel.candidates_verified as f64,
            "count",
        );
        m.push(
            "operators.prefix_postings_skipped",
            self.funnel.prefix_postings_skipped as f64,
            "count",
        );
        let verified = self.funnel.candidates_verified;
        m.push(
            "operators.verify_yield",
            if verified == 0 {
                0.0
            } else {
                self.approx_emitted as f64 / verified as f64
            },
            "ratio",
        );
        m.push("operators.state_bytes", median(&self.state_bytes), "bytes");
        m.push(
            "operators.postings_slack_bytes",
            median(&self.slack_bytes),
            "bytes",
        );
        m.push("core.switch_tuple", median(&self.switch_tuples), "tuples");
        m.push(
            "core.detection_delay_tuples",
            median(&self.detection_delays),
            "tuples",
        );
        m.push("core.false_switches", self.false_switches as f64, "count");
        m.push("exec.overhead_ns_per_tuple", self.exec_overhead_ns, "ns");
        m.push("exec.shard_skew", median(&self.shard_skew), "ratio");
        m.push("api.snapshot_encode_ms", median(&self.encode_ms), "ms");
        m.push("types.snapshot_write_ms", median(&self.write_ms), "ms");
        m.push(
            "types.snapshot_bytes",
            median(&self.snapshot_bytes),
            "bytes",
        );
        m.push("types.snapshot_read_ms", median(&self.read_ms), "ms");
        m.push("api.restore_ms", median(&self.restore_ms), "ms");
        m.push("api.stall_ms", median(&self.stalls_ms), "ms");
        m.push("api.pull_p99_ms", percentile(&self.pulls_ms, 99.0), "ms");
        m.push("server.stats_rtt_ms", server.stats_rtt_ms, "ms");
        m.push(
            "server.feed_encode_ns_per_record",
            server.feed_encode_ns,
            "ns",
        );
        m.push("server.evictions", server.evictions, "count");
        m.push("server.rehydrations", server.rehydrations, "count");
        m.push("server.feed_p50_ms", server.feed_p50_ms, "ms");
        m.push("server.feed_p99_ms", server.feed_p99_ms, "ms");
        m.push("server.poll_p50_ms", server.poll_p50_ms, "ms");
        m.push("server.session_stall_ms", server.session_stall_ms, "ms");
        let covered = self.covered_s();
        m.push("trace.span_coverage", covered / rounds_untraced_s, "ratio");
        m.push(
            "trace.overhead_ms",
            (self.replay_s - self.untimed_replay_s) * 1e3,
            "ms",
        );
        eprintln!(
            "spans cover {:.1} ms of {:.1} ms untraced join wall time; the operator replay \
             took {:.1} ms traced and {:.1} ms untraced",
            covered * 1e3,
            rounds_untraced_s * 1e3,
            self.replay_s * 1e3,
            self.untimed_replay_s * 1e3
        );
        m
    }
}

/// Run `f`, adding its wall time to `acc` when `on`.
fn span<T>(on: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Server-layer figures (zero outside `server_evict`).
#[derive(Default)]
struct ServerLayer {
    stats_rtt_ms: f64,
    session_stall_ms: f64,
    feed_encode_ns: f64,
    /// Per round.
    evictions: f64,
    rehydrations: f64,
    feed_p50_ms: f64,
    feed_p99_ms: f64,
    poll_p50_ms: f64,
}

/// Record a stream's switch against its first dirty tuple.
fn core(layers: &mut Layers, expected: &Expected, switched_after: Option<u64>) -> bool {
    let Some(at) = switched_after else {
        return false;
    };
    layers.switch_tuples.push(at as f64);
    if expected.is_false_switch(at) {
        layers.false_switches += 1;
        return true;
    }
    if let Some(first) = expected.first_dirty {
        layers.detection_delays.push((at - first) as f64);
    }
    false
}

/// Traced run of `dirty_serial` or `clean_sharded`.
pub fn pipelines(
    workload: &Workload,
    streams: &[Stream],
    expected: &[Expected],
) -> Result<Outcome> {
    let scratch = Scratch::new("trace")?;
    let snap = scratch.path("stream.snap");
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let mut failed = 0;

    // One round as the untraced run pulls it: the denominator of the
    // span coverage.  Its checkpoints are broken into their layers.
    let mut untraced_s = 0.0;
    for (stream, expected) in streams.iter().zip(expected) {
        let mut pulls = Vec::new();
        let run = run_stream(
            stream,
            workload.engine,
            workload.checkpoint,
            &mut pulls,
            &mut |mut events| {
                let t = Instant::now();
                let builder = events.snapshot_builder()?;
                let encode = ms_since(t);
                let t = Instant::now();
                builder.write_to(&snap)?;
                let write = ms_since(t);
                drop(events);
                let resumed = layers.read_and_resume(encode, write, &snap, || {
                    declare(stream, workload.engine).resume(&snap)
                })?;
                // The breakdown above is wall time; no CPU figure is kept.
                Ok((resumed, 0.0, 0.0))
            },
        )?;
        if let Err(e) = expected.check(&run.pairs, run.switched_after.is_some()) {
            errors.push(format!("stream {}: {e}", stream.datagen_seed));
        }
        untraced_s += run.join_s;
        layers.pulls_ms.extend(pulls);
        layers.stalls_ms.push(run.max_pull_ms);
    }

    let (mut clean_wall_s, mut clean_exact_s, mut clean_tuples) = (0.0, 0.0, 0u64);
    for (stream, expected) in streams.iter().zip(expected) {
        // The engine end to end: its switch point, shard statistics and
        // output (checked like every run's).
        let t = Instant::now();
        let outcome = declare(stream, workload.engine).collect()?;
        let wall_s = t.elapsed().as_secs_f64();
        let switched_after = outcome.report.switch.map(|s| s.after_tuples);
        eprintln!(
            "stream {}: {:.1} ms, switch {}",
            stream.datagen_seed,
            wall_s * 1e3,
            match switched_after {
                Some(t) if expected.is_false_switch(t) =>
                    format!("at tuple {t}, before any dirty tuple"),
                Some(t) => format!("at tuple {t}"),
                None => "none".to_string(),
            }
        );
        if let Err(e) = expected.check(&outcome.matches, switched_after.is_some()) {
            errors.push(format!("stream {}: {e}", stream.datagen_seed));
        }
        failed += u64::from(core(&mut layers, expected, switched_after));

        layers.text(stream)?;
        let exact_span = layers.operators_both(stream, switched_after)?;

        if let Engine::Sharded(_) = workload.engine {
            let stored: Vec<f64> = outcome
                .report
                .shard_stats
                .iter()
                .map(|s| s.stored_tuples as f64)
                .collect();
            let mean = stored.iter().sum::<f64>() / stored.len().max(1) as f64;
            layers
                .shard_skew
                .push(stored.iter().copied().fold(0.0, f64::max) / mean.max(1.0));
            if switched_after.is_none() {
                clean_wall_s += wall_s;
                clean_exact_s += exact_span;
                clean_tuples += stream.tuples();
            }
        }
    }
    if clean_tuples > 0 {
        layers.exec_overhead_ns = (clean_wall_s - clean_exact_s) * 1e9 / clean_tuples as f64;
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: streams.len() as u64,
        failed,
        metrics: layers.metrics(untraced_s, ServerLayer::default()),
    })
}

/// Traced run of `server_evict`.
pub fn server(
    server: LinkageServer,
    streams: &[Stream],
    expected: &[Expected],
    scratch: &Scratch,
) -> Result<Outcome> {
    let mut layers = Layers::default();
    let mut server_layer = ServerLayer {
        stats_rtt_ms: server::stats_rtt_ms(&server, STATS_SAMPLES)?,
        ..ServerLayer::default()
    };

    // The FEED payload codec over every session's records.
    let (mut encode_s, mut records) = (0.0, 0u64);
    for stream in streams {
        for chunk in stream.interleaved().chunks(FEED_RECORDS) {
            let t = Instant::now();
            let mut e = Encoder::new();
            e.put_u64(1);
            e.put_u32(chunk.len() as u32);
            for record in chunk {
                put_sided_record(&mut e, record);
            }
            std::hint::black_box(e.finish());
            encode_s += t.elapsed().as_secs_f64();
            records += chunk.len() as u64;
        }
    }
    server_layer.feed_encode_ns = encode_s * 1e9 / records as f64;

    // Rounds of the real traffic: eviction counts and per-kind request
    // latencies, pooled, and the coverage denominator.
    let mut server = server;
    let mut logs = Vec::with_capacity(TRACED_ROUNDS);
    for _ in 0..TRACED_ROUNDS {
        let (next, log) = server::round(server, streams, scratch)?;
        server = next;
        logs.push(log);
    }
    server.shutdown()?;
    let pooled = |pick: fn(&RoundLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter()
            .flat_map(|log| pick(log).iter().copied())
            .collect()
    };
    let (feeds, polls) = (pooled(|l| &l.latencies.feed), pooled(|l| &l.latencies.poll));
    let rounds = TRACED_ROUNDS as f64;
    server_layer.evictions = logs.iter().map(|l| l.evictions).sum::<u64>() as f64 / rounds;
    server_layer.rehydrations = logs.iter().map(|l| l.rehydrations).sum::<u64>() as f64 / rounds;
    server_layer.feed_p50_ms = percentile(&feeds, 50.0);
    server_layer.feed_p99_ms = percentile(&feeds, 99.0);
    server_layer.poll_p50_ms = percentile(&polls, 50.0);
    server_layer.session_stall_ms = median(&pooled(|l| &l.session_max_ms));
    eprintln!(
        "{TRACED_ROUNDS} rounds: {} FEEDs, {} beyond the 99th percentile",
        feeds.len(),
        feeds
            .iter()
            .filter(|&&ms| ms > server_layer.feed_p99_ms)
            .count()
    );
    let mut errors = Vec::new();
    for log in &logs {
        for (out, (stream, expected)) in log.outputs.iter().zip(streams.iter().zip(expected)) {
            if !out.complete {
                continue;
            }
            if let Err(e) = expected.check(&out.pairs, out.switched_after.is_some()) {
                errors.push(format!("session {}: {e}", stream.datagen_seed));
            }
        }
        if log.evictions == 0 || log.rehydrations == 0 {
            errors.push("a round neither evicted nor rehydrated".to_string());
        }
    }
    let switches: Vec<Option<u64>> = logs[0].outputs.iter().map(|o| o.switched_after).collect();
    for (expected, switched) in expected.iter().zip(&switches) {
        core(&mut layers, expected, *switched);
    }

    // The layers each session's engine runs, replayed in feed order,
    // and the snapshot a mid-session eviction writes.
    let snap = scratch.path("session.snap");
    for (stream, switched) in streams.iter().zip(&switches) {
        layers.text(stream)?;
        layers.operators_both(stream, *switched)?;

        let config = server::session_config(stream);
        let records = stream.interleaved();
        let half = &records[..records.len() / 2];
        let (pipeline, input) = Pipeline::builder().config(config.clone()).session()?;
        let mut events = pipeline.run()?;
        for chunk in half.chunks(FEED_RECORDS) {
            for record in chunk {
                input.push_sided(record.clone())?;
            }
            events.advance(input.pushed())?;
            while let Some(event) = events.next_ready() {
                event?;
            }
        }
        let t = Instant::now();
        let builder = events.snapshot_builder()?;
        let encode = ms_since(t);
        let t = Instant::now();
        builder.write_to(&snap)?;
        let write = ms_since(t);
        drop(events);
        // Rehydration: a fresh session input replayed from the feed log,
        // then resumed from the snapshot.
        let (pipeline, input) = Pipeline::builder().config(config).session()?;
        for record in half {
            input.push_sided(record.clone())?;
        }
        std::hint::black_box(
            layers.read_and_resume(encode, write, &snap, || pipeline.resume(&snap))?,
        );
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: logs.iter().map(|l| l.latencies.all().len() as u64).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        metrics: layers.metrics(
            logs.iter().map(|l| l.wall_s).sum::<f64>() / rounds,
            server_layer,
        ),
    })
}
