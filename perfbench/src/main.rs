//! The repository's benchmark: runs one named workload for a fixed time
//! and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <dirty_serial|clean_sharded|server_evict>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! workload's inputs through each layer's public entry points and
//! prints the per-layer metrics instead.  See `README.md`.

mod check;
mod data;
mod pipelines;
mod server;
mod trace;
mod util;

use std::process::ExitCode;

use linkage::types::Result;

use crate::check::Expected;
use crate::data::Cipher;
use crate::util::median;

/// Times each set-up unit is run again after every round.
const SETUP_REPEATS_PER_ROUND: usize = 2;

/// Named metric values in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The end-to-end metrics of a run, in print order.  Durations are
/// process CPU time, all threads together: see the README for why.
pub fn end_to_end(
    tuples_per_cpu_s: f64,
    true_matches: f64,
    checkpoint_cpu_ms: f64,
    resume_cpu_ms: f64,
    setup_s: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.push("tuples_per_cpu_s", tuples_per_cpu_s, "1/s");
    m.push("true_matches", true_matches, "count");
    m.push("checkpoint_cpu_ms", checkpoint_cpu_ms, "ms");
    m.push("resume_cpu_ms", resume_cpu_ms, "ms");
    m.push("setup_s", setup_s, "s");
    m
}

/// A run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Times a workload's set-up, unit by unit (one stream's inputs and
/// pipeline, or the server's start): once to build the workload, then
/// [`SETUP_REPEATS_PER_ROUND`] more times after each round, dropping
/// what it builds.  `setup_s` is the sum over the units of each unit's
/// median, so it samples the host over the whole run as the rounds do,
/// while holding no more than one extra unit in memory at a time.
pub struct SetupClock<'a> {
    /// Runs unit `i` and returns its process CPU seconds (the drop of
    /// what it built excluded).
    unit: Box<dyn FnMut(usize) -> Result<f64> + 'a>,
    /// Per unit, the CPU seconds of every run.
    times: Vec<Vec<f64>>,
}

impl<'a> SetupClock<'a> {
    /// Build a workload of `units` set-up units, timing each.
    fn start<T: 'a>(
        units: usize,
        mut unit: impl FnMut(usize) -> Result<T> + 'a,
    ) -> Result<(Vec<T>, Self)> {
        let mut built = Vec::with_capacity(units);
        let mut times = Vec::with_capacity(units);
        for i in 0..units {
            let t = util::cpu_s();
            built.push(unit(i)?);
            times.push(vec![util::cpu_s() - t]);
        }
        let unit = Box::new(move |i| {
            let t = util::cpu_s();
            let product = unit(i)?;
            let s = util::cpu_s() - t;
            drop(product);
            Ok(s)
        });
        Ok((built, Self { unit, times }))
    }

    /// Time every unit again.
    pub fn after_round(&mut self) -> Result<()> {
        for _ in 0..SETUP_REPEATS_PER_ROUND {
            for (i, times) in self.times.iter_mut().enumerate() {
                times.push((self.unit)(i)?);
            }
        }
        Ok(())
    }

    /// `setup_s`: the sum of the units' median set-up, CPU seconds.
    pub fn setup_s(&self) -> f64 {
        let medians: Vec<f64> = self.times.iter().map(|t| median(t)).collect();
        eprintln!(
            "set-up: {} runs of {} units; median CPU ms by unit: {:.2?}",
            self.times[0].len(),
            self.times.len(),
            medians.iter().map(|s| s * 1e3).collect::<Vec<_>>()
        );
        medians.iter().sum()
    }
}

fn run(args: &Args) -> Result<Outcome> {
    let cipher = Cipher::new(args.seed);
    let mut outcome = match args.workload.as_str() {
        "dirty_serial" | "clean_sharded" => {
            let workload = if args.workload == "dirty_serial" {
                pipelines::dirty_serial()
            } else {
                pipelines::clean_sharded()
            };
            let (streams, mut setup) = SetupClock::start(workload.configs.len(), |i| {
                pipelines::setup_unit(&workload, &cipher, i)
            })?;
            let expected: Vec<Expected> = streams.iter().map(Expected::new).collect();
            if args.trace {
                trace::pipelines(&workload, &streams, &expected)?
            } else {
                pipelines::measure(&workload, &streams, &expected, args.seconds, &mut setup)?
            }
        }
        "server_evict" => {
            let (units, mut setup) =
                SetupClock::start(server::SETUP_UNITS, |i| server::setup_unit(&cipher, i))?;
            let (streams, server, scratch) = server::assemble(units);
            let expected: Vec<Expected> = streams.iter().map(Expected::new).collect();
            if args.trace {
                trace::server(server, &streams, &expected, &scratch)?
            } else {
                server::measure(
                    server,
                    &streams,
                    &expected,
                    &scratch,
                    args.seconds,
                    &mut setup,
                )?
            }
        }
        other => {
            return Err(linkage::types::LinkageError::config(format!(
                "unknown workload {other:?} (dirty_serial, clean_sharded, server_evict)"
            )))
        }
    };
    if !args.trace {
        outcome
            .metrics
            .push("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
