//! The three workloads over the wire: set-up, the timed phase, the retail
//! write probe, and the checks of every reply.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cxm_core::ContextMatchResult;
use cxm_relational::Database;
use cxm_server::{Client, Json};

use crate::inputs::{self, DriftInputs, RetailInputs, SIDE_TENANT, TENANT};
use crate::oracle;
use crate::process::{steal_ticks, ServerProcess};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::wire::{TracedClient, Wire};

/// Server processes per untraced run; `setup_s` is the median of their
/// set-ups, and each takes an equal share of the timed phase.
pub const SETUP_REPEATS: usize = 3;
/// `fresh_sources` replies checked against a cold reference: this many
/// first ones (they also give `match_f1`), plus each connection's last.
pub const FRESH_CHECKED: usize = 6;
/// `catalog_drift` rounds checked against a cold reference besides the last
/// (they also give `match_f1`).
pub const DRIFT_CHECKED: [usize; 2] = [0, 5];
/// Connections of `fresh_sources`; the other workloads use one.
pub const FRESH_CONNECTIONS: usize = 2;

/// Request ids of set-up and write-probe operations, apart from the timed
/// phase's operation indices.
pub const SETUP_IDS: u64 = 1 << 40;
pub const SIDE_IDS: u64 = 2 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHits,
    FreshSources,
    CatalogDrift,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_hits" => Some(Workload::WarmHits),
            "fresh_sources" => Some(Workload::FreshSources),
            "catalog_drift" => Some(Workload::CatalogDrift),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "warm_hits",
            Workload::FreshSources => "fresh_sources",
            Workload::CatalogDrift => "catalog_drift",
        }
    }
}

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Count one operation; true when it passed.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(note) => {
                self.fail(note);
                false
            }
        }
    }

    /// Mark an operation already counted as passed as failed after all.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The generated inputs of one workload.
pub enum Inputs {
    Retail(RetailInputs),
    Drift(DriftInputs),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        match workload {
            Workload::WarmHits => Inputs::Retail(inputs::warm_hits(seed)),
            Workload::FreshSources => Inputs::Retail(inputs::fresh_sources(seed, seconds)),
            Workload::CatalogDrift => Inputs::Drift(inputs::catalog_drift(seed, seconds)),
        }
    }

    pub fn catalog(&self) -> &Database {
        match self {
            Inputs::Retail(r) => &r.catalog,
            Inputs::Drift(d) => &d.catalog,
        }
    }

    pub fn warmups(&self) -> Vec<&Database> {
        match self {
            Inputs::Retail(r) => r.warmups.iter().collect(),
            Inputs::Drift(d) => vec![&d.probe],
        }
    }
}

/// One timed read: latency, and whether the traced run recorded its spans.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub traced: bool,
}

/// Everything a run measured over the wire.
#[derive(Debug, Default)]
pub struct WireOutcome {
    pub setup_s: Vec<f64>,
    pub reads: Vec<Sample>,
    pub writes_ms: Vec<f64>,
    /// Timed-phase wall time over every server, less the time spent
    /// checking replies.
    pub phase_s: f64,
    pub server_cpu_ms: f64,
    /// Median `VmHWM` of the run's server processes.
    pub peak_rss_kb: f64,
    pub server_threads: u64,
    pub steal_phase: u64,
    pub match_f1: f64,
    pub ledger: Ledger,
    pub spans: Vec<Span>,
}

/// A connection of the run: the library client, or the tracing one.
enum Conn {
    Plain(Client),
    Traced(TracedClient),
}

impl Conn {
    fn open(addr: &str, epoch: Option<(Instant, u64)>) -> std::io::Result<Conn> {
        Ok(match epoch {
            None => Conn::Plain(Client::connect(addr)?),
            Some((epoch, base)) => {
                Conn::Traced(TracedClient::connect(addr, Tracer::new(epoch, base))?)
            }
        })
    }

    fn wire(&mut self) -> &mut (dyn Wire + Send) {
        match self {
            Conn::Plain(c) => c,
            Conn::Traced(c) => c,
        }
    }

    fn into_spans(self) -> Vec<Span> {
        match self {
            Conn::Plain(_) => Vec::new(),
            Conn::Traced(c) => c.tracer.into_spans(),
        }
    }
}

/// Drive one workload. An untraced run spawns [`SETUP_REPEATS`] servers one
/// after another: each is set up (timed), takes an equal share of the timed
/// phase and the whole write probe, and is stopped. Pooling the phase over
/// several server processes keeps one process's luck (thread placement,
/// allocator state) from setting the run's figures. The traced run uses one
/// server for the whole phase; `trace` carries its epoch.
pub fn run_wire(
    workload: Workload,
    inputs: &Inputs,
    seconds: u64,
    trace: Option<Instant>,
) -> Result<WireOutcome, String> {
    let mut out = WireOutcome::default();
    let io = |e: std::io::Error| e.to_string();
    let warm: Vec<ContextMatchResult> = match inputs {
        Inputs::Retail(r) if workload == Workload::WarmHits => {
            r.warmups.iter().map(|s| oracle::cold_result(s, &r.catalog)).collect()
        }
        _ => Vec::new(),
    };
    let servers = if trace.is_some() { 1 } else { SETUP_REPEATS };
    let share = Duration::from_secs_f64(seconds as f64 / servers as f64);
    // Replies kept for the cold-reference checks: (source index or round,
    // registered version, reply).
    let mut kept: Vec<(usize, u64, Json)> = Vec::new();
    let mut next_fresh = 0;
    let mut rss_kb = Vec::new();
    for _ in 0..servers {
        let (server, conn, version) = set_up(inputs, &warm, trace, &mut out)?;
        let cpu_before = server.cpu_ms().map_err(io)?;
        let steal_before = steal_ticks();
        let mut conns = vec![conn];
        match (workload, inputs) {
            (Workload::WarmHits, Inputs::Retail(r)) => {
                let expected: Vec<oracle::Expected> =
                    warm.iter().map(|res| oracle::expected_reply(version, true, res)).collect();
                warm_hits_phase(conns[0].wire(), r, &expected, share, &mut out);
            }
            (Workload::FreshSources, Inputs::Retail(r)) => {
                for c in 1..FRESH_CONNECTIONS {
                    let base = trace.map(|t| (t, (c as u64) << 48));
                    conns.push(Conn::open(&server.addr, base).map_err(io)?);
                }
                let replies = fresh_phase(&mut conns, r, version, share, &mut next_fresh, &mut out);
                kept.extend(replies.into_iter().map(|(i, reply)| (i, version, reply)));
            }
            (Workload::CatalogDrift, Inputs::Drift(d)) => {
                let replies = drift_phase(conns[0].wire(), d, version, share, &mut out);
                kept.extend(replies.into_iter().map(|(round, reply)| (round, version, reply)));
            }
            _ => unreachable!("inputs are generated for their workload"),
        }
        out.server_cpu_ms += server.cpu_ms().map_err(io)? - cpu_before;
        out.steal_phase += steal_ticks() - steal_before;
        rss_kb.push(server.status_field("VmHWM").map_err(io)? as f64);
        out.server_threads = server.status_field("Threads").map_err(io)?;
        if let Inputs::Retail(r) = inputs {
            side_writes(conns[0].wire(), r, &mut out)?;
        }
        for conn in conns {
            out.spans.extend(conn.into_spans());
        }
        server.stop().map_err(io)?;
    }
    out.peak_rss_kb = median(&rss_kb).unwrap_or(f64::NAN);

    // Cold-reference checks and F-measures, after every server is gone.
    match inputs {
        Inputs::Retail(r) if workload == Workload::WarmHits => {
            out.match_f1 = median_f1(warm.iter().map(|res| r.truth.f_measure_pct(&res.selected)));
        }
        Inputs::Retail(r) => {
            let mut cold: BTreeMap<usize, ContextMatchResult> = BTreeMap::new();
            for (i, version, reply) in &kept {
                let result =
                    cold.entry(*i).or_insert_with(|| oracle::cold_result(&r.timed[*i], &r.catalog));
                let expected = oracle::expected_reply(*version, false, result);
                if let Err(e) = oracle::check_reply(reply, &expected) {
                    out.ledger.fail(format!("fresh source {i}: {e}"));
                }
            }
            out.match_f1 = median_f1(
                cold.range(..FRESH_CHECKED).map(|(_, res)| r.truth.f_measure_pct(&res.selected)),
            );
        }
        Inputs::Drift(d) => {
            let mut cold: BTreeMap<usize, ContextMatchResult> = BTreeMap::new();
            for (round, version, reply) in &kept {
                let result = cold.entry(*round).or_insert_with(|| {
                    oracle::cold_result(&d.probe, &d.rounds[*round].catalog_after)
                });
                let expected = oracle::expected_reply(version + 1 + *round as u64, false, result);
                if let Err(e) = oracle::check_reply(reply, &expected) {
                    out.ledger.fail(format!("drift round {round}: {e}"));
                }
            }
            let truth = inputs::family_truth(&d.config);
            out.match_f1 = median_f1(
                DRIFT_CHECKED
                    .iter()
                    .filter_map(|round| cold.get(round))
                    .map(|res| oracle::pair_f1_pct(res, &truth)),
            );
        }
    }
    Ok(out)
}

/// Spawn a server, register the catalog and answer the warm-ups; the clock
/// runs from the spawn to the last warm-up reply. The replies are checked
/// after it stops.
fn set_up(
    inputs: &Inputs,
    warm: &[ContextMatchResult],
    trace: Option<Instant>,
    out: &mut WireOutcome,
) -> Result<(ServerProcess, Conn, u64), String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let server = ServerProcess::spawn().map_err(io)?;
    let mut conn = Conn::open(&server.addr, trace.map(|t| (t, 0))).map_err(io)?;
    let ack = conn.wire().register(TENANT, inputs.catalog(), SETUP_IDS).map_err(io)?;
    let replies = inputs
        .warmups()
        .iter()
        .enumerate()
        .map(|(k, source)| conn.wire().submit(TENANT, source, SETUP_IDS + 1 + k as u64, true))
        .collect::<Result<Vec<Json>, _>>()
        .map_err(io)?;
    out.setup_s.push(start.elapsed().as_secs_f64());

    let version = oracle::registered_version(&ack)?;
    out.ledger.record(Ok(()));
    for (k, reply) in replies.iter().enumerate() {
        let check = match warm.get(k) {
            Some(result) => {
                oracle::check_reply(reply, &oracle::expected_reply(version, false, result))
            }
            None => oracle::check_submit_flags(reply, false, Some(version)).map(|_| ()),
        };
        if !out.ledger.record(check) {
            return Err(format!("set-up reply {k} failed: {:?}", out.ledger.notes));
        }
    }
    Ok((server, conn, version))
}

/// The median of per-source F-measures: a rare source whose F-measure
/// collapses moves a mean by points, and the median not at all.
fn median_f1(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One connection cycles the warm sources in whole rounds; every reply must
/// be the cached cold reference.
fn warm_hits_phase(
    wire: &mut (dyn Wire + Send),
    r: &RetailInputs,
    expected: &[oracle::Expected],
    length: Duration,
    out: &mut WireOutcome,
) {
    let start = Instant::now();
    let mut checking = Duration::ZERO;
    let mut op = out.reads.len() as u64;
    let mut round = 0u64;
    while start.elapsed() < length {
        // Whole rounds are traced or not, so both kinds see every source.
        let traced = round % 2 == 1;
        round += 1;
        for (j, source) in r.timed.iter().enumerate() {
            let t = Instant::now();
            let reply = wire.submit(TENANT, source, op, traced);
            let ms = ms_since(t);
            let c = Instant::now();
            let check = reply
                .map_err(|e| e.to_string())
                .and_then(|reply| oracle::check_reply(&reply, &expected[j]));
            if out.ledger.record(check) {
                out.reads.push(Sample { ms, traced });
            }
            checking += c.elapsed();
            op += 1;
        }
    }
    out.phase_s += (start.elapsed() - checking).as_secs_f64();
}

/// What one `fresh_sources` connection brings back: its samples, its
/// ledger and the replies it kept.
type ConnectionLoad = (Vec<Sample>, Ledger, Vec<(usize, Json)>);

/// Each connection takes the next unsent source until the phase is up.
/// Returns the replies kept for the cold-reference check.
fn fresh_phase(
    conns: &mut [Conn],
    r: &RetailInputs,
    version: u64,
    length: Duration,
    next_fresh: &mut usize,
    out: &mut WireOutcome,
) -> Vec<(usize, Json)> {
    let next = AtomicUsize::new(*next_fresh);
    let start = Instant::now();
    let results: Vec<ConnectionLoad> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let wire = conn.wire();
                    let (mut samples, mut ledger, mut kept) =
                        (Vec::new(), Ledger::default(), Vec::new());
                    let mut last = None;
                    let mut own = 0u64;
                    while start.elapsed() < length {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(source) = r.timed.get(i) else { break };
                        let traced = own % 2 == 1;
                        own += 1;
                        let t = Instant::now();
                        let reply = wire.submit(TENANT, source, i as u64, traced);
                        let ms = ms_since(t);
                        let reply = reply.map_err(|e| e.to_string()).and_then(|reply| {
                            oracle::check_submit_flags(&reply, false, Some(version)).map(|_| reply)
                        });
                        match reply {
                            Ok(reply) => {
                                ledger.record(Ok(()));
                                samples.push(Sample { ms, traced });
                                if i < FRESH_CHECKED {
                                    kept.push((i, reply));
                                } else {
                                    last = Some((i, reply));
                                }
                            }
                            Err(e) => {
                                ledger.record(Err(format!("fresh source {i}: {e}")));
                            }
                        }
                    }
                    kept.extend(last);
                    (samples, ledger, kept)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a load thread panicked")).collect()
    });
    out.phase_s += start.elapsed().as_secs_f64();
    *next_fresh = next.load(Ordering::Relaxed).min(r.timed.len());
    let mut kept = Vec::new();
    for (samples, ledger, replies) in results {
        out.reads.extend(samples);
        out.ledger.merge(ledger);
        kept.extend(replies);
    }
    kept
}

/// One connection alternates a one-column `replace` and a probe `submit`,
/// in whole rounds from the first edit. Returns the replies of the rounds
/// checked cold.
fn drift_phase(
    wire: &mut (dyn Wire + Send),
    d: &DriftInputs,
    registered: u64,
    length: Duration,
    out: &mut WireOutcome,
) -> Vec<(usize, Json)> {
    let start = Instant::now();
    let mut kept = Vec::new();
    let mut last = None;
    for (round, edit) in d.rounds.iter().enumerate() {
        if start.elapsed() >= length {
            break;
        }
        // The catalog version before this round's write.
        let before = registered + round as u64;
        let traced = round % 2 == 1;
        let t = Instant::now();
        let ack = wire.replace(TENANT, &edit.table, 2 * round as u64);
        let write_ms = ms_since(t);
        let step =
            ack.map_err(|e| e.to_string()).and_then(|ack| oracle::check_version_step(&ack, before));
        if out.ledger.record(step.map(|_| ()).map_err(|e| format!("drift write {round}: {e}"))) {
            out.writes_ms.push(write_ms);
        }
        let t = Instant::now();
        let reply = wire.submit(TENANT, &d.probe, 2 * round as u64 + 1, traced);
        let ms = ms_since(t);
        let reply = reply.map_err(|e| e.to_string()).and_then(|reply| {
            oracle::check_submit_flags(&reply, false, Some(before + 1)).map(|_| reply)
        });
        match reply {
            Ok(reply) => {
                out.ledger.record(Ok(()));
                out.reads.push(Sample { ms, traced });
                if DRIFT_CHECKED.contains(&round) {
                    kept.push((round, reply));
                } else {
                    last = Some((round, reply));
                }
            }
            Err(e) => {
                out.ledger.record(Err(format!("drift read {round}: {e}")));
            }
        }
    }
    out.phase_s += start.elapsed().as_secs_f64();
    kept.extend(last);
    kept
}

/// The retail workloads' write probe: a second tenant registers the probe's
/// catalog and takes its one-column replaces, after the timed phase and its
/// readings, so the read tenant's caches and the phase's figures stay as
/// they were.
fn side_writes(
    wire: &mut (dyn Wire + Send),
    r: &RetailInputs,
    out: &mut WireOutcome,
) -> Result<(), String> {
    let ack = wire.register(SIDE_TENANT, &r.side_catalog, SIDE_IDS).map_err(|e| e.to_string())?;
    let registered = oracle::registered_version(&ack)?;
    out.ledger.record(Ok(()));
    for (w, edit) in r.side_edits.iter().enumerate() {
        let t = Instant::now();
        let ack = wire.replace(SIDE_TENANT, &edit.table, SIDE_IDS + 1 + w as u64);
        let ms = ms_since(t);
        let step = ack
            .map_err(|e| e.to_string())
            .and_then(|ack| oracle::check_version_step(&ack, registered + w as u64));
        if out.ledger.record(step.map(|_| ()).map_err(|e| format!("side write {w}: {e}"))) {
            out.writes_ms.push(ms);
        }
    }
    Ok(())
}
