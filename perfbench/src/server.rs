//! The service workload: `server_evict`.
//!
//! An in-process `LinkageServer` capped at two live sessions is driven
//! over two TCP connections (closed loop: each connection sends its
//! next request only after the reply).  Each connection opens four
//! sessions (two mid-stream-dirty, two clean) and feeds them in
//! round-robin bursts of `FEED` + `POLL` requests, so almost every
//! burst rehydrates its session from disk and evicts another.  At a
//! third and at two thirds of every session's feed the server is shut
//! down gracefully (persisting its live sessions: the service's
//! checkpoint) and started again on the same directory (adopting them:
//! its resume), and the connections reconnect.  They finish with `FIN`,
//! a poll-drain and `CLOSE`.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

use linkage::api::{MatchPair, PipelineConfig};
use linkage::datagen::DatagenConfig;
use linkage::types::{LinkageError, PerSide, Result, SidedRecord};
use linkage_server::proto::WireEvent;
use linkage_server::{Client, LinkageServer, ServerConfig, ServerStats};

use crate::check::Expected;
use crate::data::{Cipher, Stream, KEY};
use crate::util::{cpu_s, median, ms_since, Scratch};
use crate::{end_to_end, Outcome, SetupClock};

/// Parents per session stream.
const PARENTS: usize = 2_000;
/// Records per `FEED` request.
pub const FEED_RECORDS: usize = 50;
/// `FEED` + `POLL` pairs a connection sends to one session before
/// turning to its next session.
const BURST: usize = 4;
/// Events asked for per `POLL`.
const POLL_MAX: u32 = 64;
/// Client connections (and server workers).
pub const CONNECTIONS: usize = 2;
/// Live-session cap: below the eight sessions open at once.
const MAX_SESSIONS: usize = 2;
/// Resident-state budget: about two fully fed sessions, so feeds and
/// rehydrations keep evicting the least recently used idle session.
const BUDGET_BYTES: u64 = 1 << 20;
/// Requests in a row the server may refuse one session before its
/// connection gives the session up.
const MAX_REFUSALS: u32 = 8;
/// Phases of a round; the server restarts between two phases.  Two
/// restarts put twice the work of one into each round's checkpoint and
/// resume figures.
const PHASES: usize = 3;

/// Session streams in connection order: connection `c` serves sessions
/// `4c..4c+4`, two dirty (datagen seeds 201..=204) and two clean
/// (301..=304).
pub fn configs() -> Vec<DatagenConfig> {
    (0..CONNECTIONS as u64)
        .flat_map(|c| {
            [
                DatagenConfig::mid_stream_dirty(PARENTS, 201 + 2 * c),
                DatagenConfig::clean(PARENTS, 301 + 2 * c),
                DatagenConfig::mid_stream_dirty(PARENTS, 202 + 2 * c),
                DatagenConfig::clean(PARENTS, 302 + 2 * c),
            ]
        })
        .collect()
}

/// The declaration every session is opened with.
pub fn session_config(stream: &Stream) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.keys = PerSide::new(KEY, KEY);
    config.reference_size = Some(stream.parents.len() as u64);
    config
}

pub fn server_config(scratch: &Scratch) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.workers = CONNECTIONS;
    config.max_sessions = MAX_SESSIONS;
    config.budget_bytes = BUDGET_BYTES;
    config.evict_dir = Some(scratch.path("evict"));
    config
}

/// Set-up units: one per session stream (four per connection), then the
/// server's start.
pub const SETUP_UNITS: usize = 4 * CONNECTIONS + 1;

/// What one set-up unit builds.
pub enum SetupUnit {
    Stream(Stream),
    /// A server on an empty eviction directory of its own; the server is
    /// dropped, hence stopped, before its directory is removed.
    Server(LinkageServer, Scratch),
}

/// Set-up unit `i`: generate session stream `i`, or, last, start the
/// server.
pub fn setup_unit(cipher: &Cipher, i: usize) -> Result<SetupUnit> {
    match configs().get(i) {
        Some(config) => Ok(SetupUnit::Stream(Stream::generate(config, cipher)?)),
        None => {
            let scratch = Scratch::new("server")?;
            let server = LinkageServer::start(server_config(&scratch))?;
            Ok(SetupUnit::Server(server, scratch))
        }
    }
}

/// The session streams, in [`configs`] order, and the server.
pub fn assemble(units: Vec<SetupUnit>) -> (Vec<Stream>, LinkageServer, Scratch) {
    let mut streams = Vec::with_capacity(units.len());
    let mut server = None;
    for unit in units {
        match unit {
            SetupUnit::Stream(stream) => streams.push(stream),
            SetupUnit::Server(s, scratch) => server = Some((s, scratch)),
        }
    }
    let (server, scratch) = server.expect("the last set-up unit starts the server");
    (streams, server, scratch)
}

/// One session as a connection drives it.
struct SessionRun {
    id: u64,
    records: Vec<SidedRecord>,
    fed: usize,
    pairs: Vec<MatchPair>,
    switched_after: Option<u64>,
    finished: bool,
    max_request_ms: f64,
    /// Requests refused in a row; at [`MAX_REFUSALS`] the session is
    /// given up and its output goes unchecked.
    refusals: u32,
}

impl SessionRun {
    fn new(records: Vec<SidedRecord>) -> Self {
        Self {
            id: 0,
            records,
            fed: 0,
            pairs: Vec::new(),
            switched_after: None,
            finished: false,
            max_request_ms: 0.0,
            refusals: 0,
        }
    }

    /// Note a request's latency and whether the server answered it;
    /// returns the answer.
    fn answered<T>(&mut self, (reply, ms): (Option<T>, f64)) -> Option<T> {
        self.max_request_ms = self.max_request_ms.max(ms);
        if reply.is_some() {
            self.refusals = 0;
        } else {
            self.refusals += 1;
        }
        reply
    }

    fn given_up(&self) -> bool {
        self.refusals >= MAX_REFUSALS
    }
}

/// Client-side request latencies (ms) of one connection, by kind.
#[derive(Default)]
pub struct Latencies {
    pub feed: Vec<f64>,
    pub poll: Vec<f64>,
    pub other: Vec<f64>,
}

impl Latencies {
    fn absorb(&mut self, other: Latencies) {
        self.feed.extend(other.feed);
        self.poll.extend(other.poll);
        self.other.extend(other.other);
    }

    pub fn all(&self) -> Vec<f64> {
        let mut all = self.feed.clone();
        all.extend(&self.poll);
        all.extend(&self.other);
        all
    }
}

/// One timed request, with its latency in ms.  An error frame counts as
/// a failed request and yields no answer; only a lost connection ends
/// the round.
fn request<T>(
    samples: &mut Vec<f64>,
    failed: &mut u64,
    call: impl FnOnce() -> Result<T>,
) -> Result<(Option<T>, f64)> {
    let t = Instant::now();
    let out = call();
    let ms = ms_since(t);
    samples.push(ms);
    match out {
        Ok(reply) => Ok((Some(reply), ms)),
        Err(e @ LinkageError::ConnectionLost(_)) => Err(e),
        Err(_) => {
            *failed += 1;
            Ok((None, ms))
        }
    }
}

fn absorb_events(session: &mut SessionRun, events: Vec<WireEvent>) {
    for event in events {
        match event {
            WireEvent::Match(pair) => session.pairs.push(pair),
            WireEvent::Switched(switch) => session.switched_after = Some(switch.after_tuples),
            WireEvent::Finished(_) => session.finished = true,
        }
    }
}

/// What one connection did in one round.
struct ConnectionRun {
    sessions: Vec<SessionRun>,
    latencies: Latencies,
    failed: u64,
}

impl ConnectionRun {
    fn new(streams: &[Stream]) -> Self {
        Self {
            sessions: streams
                .iter()
                .map(|s| SessionRun::new(s.interleaved()))
                .collect(),
            latencies: Latencies::default(),
            failed: 0,
        }
    }

    /// Feed every session up to `limit(session)` records in round-robin
    /// bursts.  A refused `FEED` ends the session's burst; its records
    /// are sent again at the session's next turn.
    fn bursts(&mut self, client: &mut Client, limit: impl Fn(&SessionRun) -> usize) -> Result<()> {
        let lat = &mut self.latencies;
        let failed = &mut self.failed;
        let pending = |s: &SessionRun| !s.given_up() && s.fed < limit(s);
        while self.sessions.iter().any(pending) {
            for s in &mut self.sessions {
                let end = limit(s);
                for _ in 0..BURST {
                    if s.given_up() || s.fed >= end {
                        break;
                    }
                    let upto = (s.fed + FEED_RECORDS).min(end);
                    let reply = request(&mut lat.feed, failed, || {
                        client.feed(s.id, &s.records[s.fed..upto])
                    })?;
                    if s.answered(reply).is_none() {
                        break;
                    }
                    s.fed = upto;
                    let reply = request(&mut lat.poll, failed, || client.poll(s.id, POLL_MAX))?;
                    if let Some(events) = s.answered(reply) {
                        absorb_events(s, events);
                    }
                }
            }
        }
        Ok(())
    }

    /// Phase `p` of [`PHASES`] on a fresh connection: the first opens
    /// every session; each feeds every session up to its share of the
    /// records; the last ends with `FIN`, a drain and `CLOSE`.
    fn phase(
        &mut self,
        addr: std::net::SocketAddr,
        p: usize,
        configs: &[PipelineConfig],
    ) -> Result<()> {
        let mut client = Client::connect(addr)?;
        if p == 0 {
            self.open(&mut client, configs)?;
        }
        self.bursts(&mut client, |s| s.records.len() * (p + 1) / PHASES)?;
        if p + 1 == PHASES {
            self.finish(&mut client)?;
        }
        Ok(())
    }

    fn open(&mut self, client: &mut Client, configs: &[PipelineConfig]) -> Result<()> {
        for (s, config) in self.sessions.iter_mut().zip(configs) {
            while !s.given_up() {
                let reply = request(&mut self.latencies.other, &mut self.failed, || {
                    client.open(config)
                })?;
                if let Some(id) = s.answered(reply) {
                    s.id = id;
                    break;
                }
            }
        }
        Ok(())
    }

    /// `FIN`, drain and `CLOSE` every session.
    fn finish(&mut self, client: &mut Client) -> Result<()> {
        let lat = &mut self.latencies;
        for s in &mut self.sessions {
            while !s.given_up() {
                let reply = request(&mut lat.other, &mut self.failed, || client.finish(s.id))?;
                if s.answered(reply).is_some() {
                    break;
                }
            }
            while !s.given_up() && !s.finished {
                let reply = request(&mut lat.poll, &mut self.failed, || client.poll(s.id, 256))?;
                match s.answered(reply) {
                    Some(events) if events.is_empty() => {
                        return Err(LinkageError::execution(format!(
                            "session {} stopped yielding events before Finished",
                            s.id
                        )))
                    }
                    Some(events) => absorb_events(s, events),
                    None => {}
                }
            }
            if !s.given_up() {
                let reply = request(&mut lat.other, &mut self.failed, || client.close(s.id))?;
                s.answered(reply);
            }
        }
        Ok(())
    }
}

/// What one session emitted in a round.
pub struct SessionOutput {
    pub pairs: Vec<MatchPair>,
    pub switched_after: Option<u64>,
    /// False when the connection gave the session up after repeated
    /// refusals: its output is incomplete and goes unchecked.
    pub complete: bool,
}

/// Everything one round measured.
#[derive(Default)]
pub struct RoundLog {
    pub wall_s: f64,
    /// Process CPU time of the round, the restarts excluded.
    pub cpu_s: f64,
    /// Process CPU time of the restarts' graceful shutdowns (the
    /// service's checkpoint) and of their starts on the same directory
    /// (its resume).
    pub shutdown_cpu_s: f64,
    pub start_cpu_s: f64,
    /// Sessions the shutdowns persisted and the starts adopted.
    pub persisted: f64,
    pub adopted: f64,
    pub latencies: Latencies,
    pub failed: u64,
    pub records: u64,
    pub session_max_ms: Vec<f64>,
    /// Per session, in [`configs`] order.
    pub outputs: Vec<SessionOutput>,
    pub evictions: u64,
    pub rehydrations: u64,
}

fn counters(stats: &ServerStats) -> (u64, u64) {
    (stats.evictions, stats.rehydrations)
}

/// Checkpoint the idle service by a graceful shutdown and resume it on
/// the same directory, logging both.
fn restart(server: LinkageServer, scratch: &Scratch, log: &mut RoundLog) -> Result<LinkageServer> {
    let (evictions, rehydrations) = counters(&server.stats());
    log.evictions += evictions;
    log.rehydrations += rehydrations;
    let c0 = cpu_s();
    let persisted = server.shutdown()?;
    let c1 = cpu_s();
    let server = LinkageServer::start(server_config(scratch))?;
    let c2 = cpu_s();
    log.shutdown_cpu_s += c1 - c0;
    log.start_cpu_s += c2 - c1;
    log.persisted += persisted as f64;
    log.adopted += server.stats().evicted_sessions as f64;
    Ok(server)
}

/// Drive one round against `server`, restarting it between its phases;
/// returns the last server started and the round's log.
pub fn round(
    server: LinkageServer,
    streams: &[Stream],
    scratch: &Scratch,
) -> Result<(LinkageServer, RoundLog)> {
    let configs: Vec<PipelineConfig> = streams.iter().map(session_config).collect();
    let per_conn = streams.len() / CONNECTIONS;
    let barrier = Barrier::new(CONNECTIONS + 1);
    let addr = Mutex::new(server.addr());
    let mut log = RoundLog::default();
    let started = Instant::now();
    let cpu_started = cpu_s();

    let (restarted, runs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (barrier, addr) = (&barrier, &addr);
                let streams = &streams[c * per_conn..(c + 1) * per_conn];
                let configs = &configs[c * per_conn..(c + 1) * per_conn];
                scope.spawn(move || {
                    let mut run = ConnectionRun::new(streams);
                    let mut result = Ok(());
                    for p in 0..PHASES {
                        if p > 0 {
                            barrier.wait();
                            barrier.wait();
                        }
                        let addr = *addr.lock().expect("address lock");
                        result = result.and_then(|()| run.phase(addr, p, configs));
                    }
                    (run, result)
                })
            })
            .collect();

        // Between phases both connections are idle and disconnected.
        let mut server = Ok(server);
        for _ in 1..PHASES {
            barrier.wait();
            server = server.and_then(|s| restart(s, scratch, &mut log));
            if let Ok(server) = &server {
                *addr.lock().expect("address lock") = server.addr();
            }
            barrier.wait();
        }
        let runs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (server, runs)
    });
    log.wall_s = started.elapsed().as_secs_f64();
    log.cpu_s = cpu_s() - cpu_started - log.shutdown_cpu_s - log.start_cpu_s;
    let server = restarted?;
    let after = counters(&server.stats());
    log.evictions += after.0;
    log.rehydrations += after.1;

    let mut first_error = None;
    for (run, result) in runs {
        if let Err(e) = result {
            first_error.get_or_insert(e);
        }
        log.failed += run.failed;
        log.latencies.absorb(run.latencies);
        for s in run.sessions {
            log.records += s.fed as u64;
            log.session_max_ms.push(s.max_request_ms);
            log.outputs.push(SessionOutput {
                complete: !s.given_up(),
                pairs: s.pairs,
                switched_after: s.switched_after,
            });
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok((server, log)),
    }
}

/// The untraced run: whole rounds until `seconds` have passed.
pub fn measure(
    mut server: LinkageServer,
    streams: &[Stream],
    expected: &[Expected],
    scratch: &Scratch,
    seconds: f64,
    setup: &mut SetupClock,
) -> Result<Outcome> {
    let (mut rates, mut checkpoints, mut resumes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut true_matches) = (0u64, 0u64, 0u64);
    let (mut feeds, mut evictions, mut rehydrations) = (0usize, 0u64, 0u64);
    let mut errors = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        let (next, log) = round(server, streams, scratch)?;
        server = next;
        for (out, (stream, expected)) in log.outputs.iter().zip(streams.iter().zip(expected)) {
            if !out.complete {
                continue;
            }
            match expected.check(&out.pairs, out.switched_after.is_some()) {
                Ok(n) => true_matches += n,
                Err(e) => errors.push(format!("session {}: {e}", stream.datagen_seed)),
            }
        }
        attempted += log.latencies.all().len() as u64;
        failed += log.failed;
        feeds += log.latencies.feed.len();
        evictions += log.evictions;
        rehydrations += log.rehydrations;
        rates.push(log.records as f64 / log.cpu_s);
        // Per session: how many are live, hence persisted, at a restart
        // depends on how far the sessions have run and how the two
        // connections interleaved.
        checkpoints.push(log.shutdown_cpu_s * 1e3 / log.persisted.max(1.0));
        resumes.push(log.start_cpu_s * 1e3 / log.adopted.max(1.0));
        setup.after_round()?;
        if Instant::now() >= deadline {
            break;
        }
    }
    server.shutdown()?;
    eprintln!(
        "{} round(s), {feeds} FEEDs, {evictions} evictions, {rehydrations} rehydrations; \
         records per CPU second by round: {rates:.0?}",
        rates.len()
    );
    if evictions == 0 || rehydrations == 0 {
        errors.push("the run neither evicted nor rehydrated: the disk path dropped out".into());
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
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

/// Median round trip (ms) of `STATS` on an idle server: frame I/O plus
/// dispatch, no engine work.
pub fn stats_rtt_ms(server: &LinkageServer, samples: usize) -> Result<f64> {
    let mut client = Client::connect(server.addr())?;
    let mut rtts = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        std::hint::black_box(client.stats()?);
        rtts.push(ms_since(t));
    }
    Ok(median(&rtts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Cipher;

    #[test]
    fn an_error_reply_is_a_failed_request_and_a_lost_connection_ends_the_round() {
        let (mut samples, mut failed) = (Vec::new(), 0);
        let refused = request(&mut samples, &mut failed, || {
            Err::<(), _>(LinkageError::busy("at capacity"))
        });
        assert!(refused.unwrap().0.is_none());
        assert_eq!(failed, 1);
        let answered = request(&mut samples, &mut failed, || Ok(7));
        assert_eq!(answered.unwrap().0, Some(7));
        assert_eq!(failed, 1);
        let lost = request(&mut samples, &mut failed, || {
            Err::<(), _>(LinkageError::connection_lost("peer gone"))
        });
        assert!(lost.is_err());
        assert_eq!(samples.len(), 3);
    }

    #[test]
    fn a_session_the_server_refuses_is_counted_and_given_up() {
        let scratch = Scratch::new("server-test").unwrap();
        let server = LinkageServer::start(server_config(&scratch)).unwrap();
        let stream = Stream::generate(&DatagenConfig::clean(200, 3), &Cipher::new(1)).unwrap();
        let mut run = ConnectionRun::new(std::slice::from_ref(&stream));
        // Never opened: the server answers every FEED with an error frame.
        run.sessions[0].id = 4_242;
        let mut client = Client::connect(server.addr()).unwrap();
        run.bursts(&mut client, |s| s.records.len()).unwrap();
        let session = &run.sessions[0];
        assert!(session.given_up());
        assert_eq!(session.fed, 0);
        assert_eq!(run.failed, u64::from(MAX_REFUSALS));
        assert_eq!(run.latencies.feed.len(), MAX_REFUSALS as usize);
        server.shutdown().unwrap();
    }
}
