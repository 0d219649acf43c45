//! The library workloads: `dirty_serial` and `clean_sharded`.
//!
//! A round pulls every stream of the workload through a `MatchStream`
//! once, timing each pull; each stream is checkpointed once with
//! `MatchStream::snapshot`, dropped, and continued from
//! `Pipeline::resume`.  Rounds repeat until the run's time is up.

use std::path::Path;
use std::time::Instant;

use linkage::api::{MatchEvent, MatchPair, MatchStream, Pipeline, PipelineBuilder};
use linkage::datagen::DatagenConfig;
use linkage::types::Result;

use crate::check::Expected;
use crate::data::{Stream, KEY};
use crate::util::{cpu_s, median, Scratch};
use crate::{end_to_end, Outcome, SetupClock};

#[derive(Clone, Copy)]
pub enum Engine {
    Serial,
    Sharded(usize),
}

/// When a stream is checkpointed and resumed.
#[derive(Clone, Copy)]
pub enum CheckpointAt {
    /// Right after the `Switched` event.
    AfterSwitch,
    /// After this many match events.
    AfterMatches(usize),
}

pub struct Workload {
    pub engine: Engine,
    pub checkpoint: CheckpointAt,
    pub configs: Vec<DatagenConfig>,
}

/// Eight of the paper's mid-stream-dirty streams (10k parents, datagen
/// seeds 1..=8) on the serial engine, checkpointed after the switch.
pub fn dirty_serial() -> Workload {
    Workload {
        engine: Engine::Serial,
        checkpoint: CheckpointAt::AfterSwitch,
        configs: (1..=8)
            .map(|s| DatagenConfig::mid_stream_dirty(10_000, s))
            .collect(),
    }
}

/// Sixteen clean streams (10k parents, datagen seeds 100..=115) on two
/// shards, checkpointed at their midpoint.
pub fn clean_sharded() -> Workload {
    Workload {
        engine: Engine::Sharded(2),
        checkpoint: CheckpointAt::AfterMatches(5_000),
        configs: (100..=115)
            .map(|s| DatagenConfig::clean(10_000, s))
            .collect(),
    }
}

/// The pipeline declaration of one stream on `engine`.
pub fn declare(stream: &Stream, engine: Engine) -> PipelineBuilder {
    let builder = Pipeline::builder()
        .left(&stream.parents)
        .right(&stream.children)
        .key_column(KEY);
    match engine {
        Engine::Serial => builder.serial(),
        Engine::Sharded(shards) => builder.sharded(shards),
    }
}

/// One stream pulled to its end.
pub struct StreamRun {
    pub pairs: Vec<MatchPair>,
    pub switched_after: Option<u64>,
    pub consumed: u64,
    /// Wall time of `run()` plus every pull, checkpoint and resume
    /// excluded.
    pub join_s: f64,
    /// Process CPU time of the stream, checkpoint and resume excluded.
    pub join_cpu_s: f64,
    /// Wall time of the longest single pull.
    pub max_pull_ms: f64,
    /// Process CPU time of the `snapshot` call.
    pub checkpoint_cpu_ms: Option<f64>,
    /// Process CPU time of dropping the stream and `Pipeline::resume`.
    pub resume_cpu_ms: Option<f64>,
}

impl CheckpointAt {
    /// Whether a stream that has or has not `switched`, having emitted
    /// `matches` pairs, is due for its checkpoint.
    fn due(self, switched: bool, matches: usize) -> bool {
        match self {
            CheckpointAt::AfterSwitch => switched,
            CheckpointAt::AfterMatches(n) => matches >= n,
        }
    }
}

/// Checkpoints a live stream and continues it: returns the resumed
/// stream and the process CPU time (ms) of the checkpoint and of the
/// resume.
pub type Checkpoint<'a> = dyn FnMut(MatchStream) -> Result<(MatchStream, f64, f64)> + 'a;

/// The workloads' checkpoint: `MatchStream::snapshot` to `snap`, drop
/// the stream, and `Pipeline::resume` from the file.
pub fn snapshot_and_resume<'a>(
    stream: &'a Stream,
    engine: Engine,
    snap: &'a Path,
) -> impl FnMut(MatchStream) -> Result<(MatchStream, f64, f64)> + 'a {
    move |mut events| {
        let c0 = cpu_s();
        events.snapshot(snap)?;
        let c1 = cpu_s();
        drop(events);
        let events = declare(stream, engine).resume(snap)?;
        let c2 = cpu_s();
        Ok((events, (c1 - c0) * 1e3, (c2 - c1) * 1e3))
    }
}

/// Pull `stream` to its end, appending every pull's wall latency (ms)
/// to `pulls`, and pass it through `checkpoint` once, where `at` says.
pub fn run_stream(
    stream: &Stream,
    engine: Engine,
    at: CheckpointAt,
    pulls: &mut Vec<f64>,
    checkpoint: &mut Checkpoint,
) -> Result<StreamRun> {
    let started = Instant::now();
    let cpu_started = cpu_s();
    let mut events = declare(stream, engine).run()?;
    let mut join_s = started.elapsed().as_secs_f64();
    let mut checkpoint_cpu_s = 0.0;
    let mut run = StreamRun {
        pairs: Vec::with_capacity(stream.children.len()),
        switched_after: None,
        consumed: 0,
        join_s: 0.0,
        join_cpu_s: 0.0,
        max_pull_ms: 0.0,
        checkpoint_cpu_ms: None,
        resume_cpu_ms: None,
    };
    loop {
        let t = Instant::now();
        let event = events.next();
        let pull = t.elapsed().as_secs_f64();
        join_s += pull;
        pulls.push(pull * 1e3);
        run.max_pull_ms = run.max_pull_ms.max(pull * 1e3);
        match event.transpose()? {
            None => break,
            Some(MatchEvent::Match(pair)) => run.pairs.push(pair),
            Some(MatchEvent::Switched(switch)) => run.switched_after = Some(switch.after_tuples),
            Some(MatchEvent::Finished(report)) => {
                run.consumed = report.total_consumed();
                continue;
            }
            Some(_) => {}
        }
        if run.checkpoint_cpu_ms.is_none() && at.due(run.switched_after.is_some(), run.pairs.len())
        {
            let c = cpu_s();
            let (resumed, checkpoint_ms, resume_ms) = checkpoint(events)?;
            checkpoint_cpu_s += cpu_s() - c;
            events = resumed;
            run.checkpoint_cpu_ms = Some(checkpoint_ms);
            run.resume_cpu_ms = Some(resume_ms);
        }
    }
    run.join_s = join_s;
    run.join_cpu_s = cpu_s() - cpu_started - checkpoint_cpu_s;
    Ok(run)
}

/// Set-up unit `i`: generate stream `i` and build (then discard) its
/// pipeline.
pub fn setup_unit(workload: &Workload, cipher: &crate::data::Cipher, i: usize) -> Result<Stream> {
    let stream = Stream::generate(&workload.configs[i], cipher)?;
    declare(&stream, workload.engine).build()?;
    Ok(stream)
}

/// The untraced run: whole rounds until `seconds` have passed.
pub fn measure(
    workload: &Workload,
    streams: &[Stream],
    expected: &[Expected],
    seconds: f64,
    setup: &mut SetupClock,
) -> Result<Outcome> {
    let scratch = Scratch::new("pipeline")?;
    let snap = scratch.path("stream.snap");
    let mut pulls = Vec::new();
    // Warm-up: let allocator and page cache settle before the clock runs.
    run_stream(
        &streams[0],
        workload.engine,
        workload.checkpoint,
        &mut pulls,
        &mut snapshot_and_resume(&streams[0], workload.engine, &snap),
    )?;
    let mut rates = Vec::new();
    // Per stream: join CPU seconds over the run, and its switch point.
    let mut per_stream = vec![(0.0, None); streams.len()];
    let (mut checkpoints, mut resumes) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut true_matches) = (0u64, 0u64, 0u64);
    let mut errors = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        let (mut consumed, mut join_cpu) = (0u64, 0.0);
        for (i, (stream, expected)) in streams.iter().zip(expected).enumerate() {
            pulls.clear();
            let run = run_stream(
                stream,
                workload.engine,
                workload.checkpoint,
                &mut pulls,
                &mut snapshot_and_resume(stream, workload.engine, &snap),
            )?;
            attempted += 1;
            if run
                .switched_after
                .is_some_and(|t| expected.is_false_switch(t))
            {
                failed += 1;
            }
            if run.consumed != stream.tuples() {
                errors.push(format!(
                    "stream {}: consumed {} of {} tuples",
                    stream.datagen_seed,
                    run.consumed,
                    stream.tuples()
                ));
            }
            match expected.check(&run.pairs, run.switched_after.is_some()) {
                Ok(n) => true_matches += n,
                Err(e) => errors.push(format!("stream {}: {e}", stream.datagen_seed)),
            }
            consumed += run.consumed;
            join_cpu += run.join_cpu_s;
            per_stream[i].0 += run.join_cpu_s;
            per_stream[i].1 = run.switched_after;
            checkpoints.extend(run.checkpoint_cpu_ms);
            resumes.extend(run.resume_cpu_ms);
        }
        rates.push(consumed as f64 / join_cpu);
        setup.after_round()?;
        if Instant::now() >= deadline {
            break;
        }
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let total: f64 = per_stream.iter().map(|(cpu, _)| cpu).sum();
    for ((stream, expected), (cpu, switch)) in streams.iter().zip(expected).zip(&per_stream) {
        let switch = match switch {
            Some(t) if expected.is_false_switch(*t) => {
                format!(
                    "switched at tuple {t}, before any dirty tuple: failed, a false \
                     alarm of the controller's binomial outlier test"
                )
            }
            Some(t) => format!("switched at tuple {t}"),
            None => "did not switch".to_string(),
        };
        eprintln!(
            "stream {}: {:.1}% of the join CPU time, {switch}",
            stream.datagen_seed,
            cpu / total * 1e2
        );
    }
    eprintln!(
        "{} round(s), {attempted} streams, {failed} switched before any dirty tuple; \
         tuples per CPU second by round: {rates:.0?}",
        rates.len()
    );
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: end_to_end(
            median(&rates),
            true_matches as f64 / rates.len() as f64,
            median(&checkpoints),
            median(&resumes),
            setup.setup_s(),
        ),
    })
}
