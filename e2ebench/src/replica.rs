//! The traced run's in-process replica: a `MatchService` configured like a
//! server tenant replays the workload's operations serially, and every call
//! into a layer's public functions is timed as a span from here. Counts come
//! from the service's own telemetry, which is exact while requests do not
//! overlap, as they never do in this replay.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cxm_core::{clustered_view_gen, ContextMatchConfig, TgtLabeler};
use cxm_matching::index::GramIndex;
use cxm_relational::Database;
use cxm_relational::Table;
use cxm_server::json::parse;
use cxm_server::protocol::{decode_database, encode_update};
use cxm_server::{encode_result, Json, Request, TenantPolicy};
use cxm_service::{MatchService, ServiceConfig};

use crate::inputs::{same_family_pairs, TENANT};
use crate::oracle;
use crate::trace::Tracer;
use crate::wire::{replace_frame, submit_frame};
use crate::workload::{Inputs, Ledger, Workload, SETUP_IDS, SIDE_IDS};

/// Misses that also run the cold one-shot matcher.
const COLD_RUNS: usize = 3;
/// Timed-phase operations replayed, after the set-up's.
const REPLAY_HITS: usize = 400;
const REPLAY_MISSES: usize = 12;
const REPLAY_ROUNDS: usize = 8;
const REPLAY_SIDE_WRITES: usize = 20;

/// Replay a workload's set-up and the start of its timed phase and write
/// probe, with the operation ids the wire run used. Returns the replica and
/// the ids of write operations.
pub fn replay(workload: Workload, inputs: &Inputs, epoch: Instant) -> (Replica, BTreeSet<u64>) {
    let expect_surviving = match inputs {
        Inputs::Drift(d) => Some(same_family_pairs(&d.config)),
        Inputs::Retail(_) => None,
    };
    let mut replica = Replica::new(Tracer::new(epoch, 15 << 48), expect_surviving);
    let mut writes: BTreeSet<u64> = [SETUP_IDS, SIDE_IDS].into_iter().collect();
    replica.register(inputs.catalog(), SETUP_IDS, false);
    for (k, source) in inputs.warmups().into_iter().enumerate() {
        replica.submit(source, SETUP_IDS + 1 + k as u64);
    }
    replica.build_index(SETUP_IDS);
    match inputs {
        Inputs::Retail(r) => {
            let ops = if workload == Workload::WarmHits { REPLAY_HITS } else { REPLAY_MISSES };
            for (i, source) in r.timed.iter().cycle().take(ops).enumerate() {
                replica.submit(source, i as u64);
            }
            replica.register(&r.side_catalog, SIDE_IDS, true);
            for (w, edit) in r.side_edits.iter().take(REPLAY_SIDE_WRITES).enumerate() {
                let id = SIDE_IDS + 1 + w as u64;
                replica.replace(&edit.table, id, true);
                replica.update_index(id, true);
            }
            writes.extend((0..r.side_edits.len() as u64).map(|w| SIDE_IDS + 1 + w));
        }
        Inputs::Drift(d) => {
            for (round, edit) in d.rounds.iter().take(REPLAY_ROUNDS).enumerate() {
                let id = 2 * round as u64;
                replica.replace(&edit.table, id, false);
                replica.submit(&d.probe, id + 1);
                replica.update_index(id, false);
            }
            writes.extend((0..d.rounds.len() as u64).map(|r| 2 * r));
        }
    }
    (replica, writes)
}

/// One replicated tenant: its service and the gram index the benchmark
/// maintains beside it.
struct Replicated {
    service: MatchService,
    index: Option<GramIndex>,
}

impl Replicated {
    fn new() -> Replicated {
        Replicated { service: MatchService::with_config(ServiceConfig::default()), index: None }
    }
}

/// Per-request counts, by metric name.
pub type Counts = BTreeMap<&'static str, Vec<f64>>;

pub struct Replica {
    pub tracer: Tracer,
    pub counts: Counts,
    pub ledger: Ledger,
    /// Result-cache hits and misses over the whole replay (`warm_stats`
    /// deltas).
    pub result_hits: usize,
    pub result_misses: usize,
    main: Replicated,
    side: Replicated,
    cold_left: usize,
    /// Expected surviving pairs of every read, when the workload fixes it.
    expect_surviving: Option<usize>,
}

impl Replica {
    pub fn new(tracer: Tracer, expect_surviving: Option<usize>) -> Replica {
        Replica {
            tracer,
            counts: Counts::new(),
            ledger: Ledger::default(),
            result_hits: 0,
            result_misses: 0,
            main: Replicated::new(),
            side: Replicated::new(),
            cold_left: COLD_RUNS,
            expect_surviving,
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Register the catalog of the read tenant, or of the write-probe tenant.
    pub fn register(&mut self, catalog: &Database, request: u64, side: bool) {
        let Replica { tracer, main, side: other, .. } = self;
        let tenant = if side { other } else { main };
        tracer.enter("replica.register", request);
        tracer.time("service.register", request, || tenant.service.register_target(catalog));
        tracer.exit();
        if side {
            // The base the write probe's index updates start from.
            tenant.index = Some(GramIndex::build(tenant.service.catalog().snapshot().columns()));
        }
    }

    /// Build the read tenant's gram index over its (already profiled)
    /// catalog columns.
    pub fn build_index(&mut self, request: u64) {
        let snapshot = self.main.service.catalog().snapshot();
        let index =
            self.tracer.time("index.build", request, || GramIndex::build(snapshot.columns()));
        self.main.index = Some(index);
    }

    /// Carry a tenant's gram index over to its current catalog version.
    pub fn update_index(&mut self, request: u64, side: bool) {
        let Replica { tracer, main, side: other, counts, .. } = self;
        let tenant = if side { other } else { main };
        let snapshot = tenant.service.catalog().snapshot();
        let Some(prev) = &tenant.index else { return };
        let next = tracer
            .time("index.update", request, || GramIndex::update_from(prev, snapshot.columns()));
        counts.entry("index.postings_rebuilt").or_default().push(next.postings_rebuilt() as f64);
        tenant.index = Some(next);
    }

    /// Replay one `submit` the way a server worker runs it, then time the
    /// layers a miss goes through on their own.
    pub fn submit(&mut self, source: &Database, request: u64) {
        let before = self.main.service.warm_stats();
        let bytes = submit_frame(TENANT, source).to_bytes();
        let config = *self.main.service.config();
        let Replica { tracer, main, .. } = self;
        tracer.enter("replica.submit", request);
        let frame = tracer.time("json.request_parse", request, || parse(&bytes));
        let Ok(Ok(Request::Submit { source: encoded, .. })) = frame.map(|f| Request::from_json(&f))
        else {
            tracer.exit();
            self.ledger.record(Err(format!("replica request {request} did not decode")));
            return;
        };
        let db = tracer.time("protocol.decode", request, || decode_database(&encoded));
        let Ok(db) = db else {
            tracer.exit();
            self.ledger.record(Err(format!("replica source {request} did not decode")));
            return;
        };
        tracer.time("relational.fingerprint", request, || db.table_fingerprints());
        let response = tracer.time("service.submit", request, || main.service.submit(&db));
        let Ok(response) = response else {
            tracer.exit();
            self.ledger.record(Err(format!("replica submit {request} failed")));
            return;
        };
        let result = tracer.time("protocol.encode", request, || {
            encode_result(&response.result, &TenantPolicy::default())
        });
        let t = &response.telemetry;
        let reply = Json::Object(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::str("submit")),
            ("tenant".into(), Json::str(TENANT)),
            ("catalog_version".into(), Json::Int(t.catalog_version as i64)),
            ("result_cache_hit".into(), Json::Bool(t.result_cache_hit)),
            ("result".into(), result.clone()),
        ]);
        let reply_bytes = tracer.time("json.reply_encode", request, || reply.to_bytes());
        tracer.exit();

        let after = self.main.service.warm_stats();
        self.result_hits += after.result_hits - before.result_hits;
        self.result_misses += after.result_misses - before.result_misses;
        let t = response.telemetry;
        for (name, value) in [
            ("server.request_bytes", bytes.len()),
            ("server.reply_bytes", reply_bytes.len()),
            ("matching.profile_builds", t.qgram_profile_builds),
            ("service.selection_cache_hits", t.selection_cache_hits),
            ("service.selection_cache_misses", t.selection_cache_misses),
            ("service.restricted_profile_hits", t.restricted_profile_hits),
            ("service.restricted_profile_misses", t.restricted_profile_misses),
            ("classify.work_units", t.classifier_work_units),
            ("index.pairs_scanned", t.candidates_scanned),
            ("index.pairs_surviving", t.candidates_surviving),
            ("matching.kernel_scores_pruned", t.kernel_scores_pruned),
        ] {
            self.count(name, value as f64);
        }
        let mut outcome = Ok(());
        if let (Some(expected), false) = (self.expect_surviving, t.result_cache_hit) {
            outcome = oracle::check_surviving(t.candidates_surviving, expected);
        }
        if !t.result_cache_hit {
            if let Err(e) = self.layers(&db, &result, request, config) {
                outcome = Err(e);
            }
        }
        self.ledger.record(outcome.map_err(|e| format!("replica request {request}: {e}")));
    }

    /// The layers of a miss, called one by one: target classifier training,
    /// view generation with that classifier, and (for the first few) the
    /// cold one-shot run, whose encoding must equal the service's.
    fn layers(
        &mut self,
        db: &Database,
        served: &Json,
        request: u64,
        config: ContextMatchConfig,
    ) -> Result<(), String> {
        let snapshot = self.main.service.catalog().snapshot();
        let catalog = snapshot.database();
        let tracer = &mut self.tracer;
        tracer.enter("replica.layers", request);
        let labeler =
            tracer.time("classify.target_train", request, || TgtLabeler::from_target(catalog));
        let mut views = 0;
        for table in db.tables() {
            let families = tracer.time("core.view_generation", request, || {
                clustered_view_gen(table, &labeler, &config)
            });
            views += families.iter().map(|f| f.family.views.len()).sum::<usize>();
        }
        let cold = (self.cold_left > 0)
            .then(|| tracer.time("core.run_cold", request, || oracle::cold_result(db, catalog)));
        tracer.exit();
        self.count("core.candidate_views", views as f64);
        if let Some(cold) = cold {
            self.cold_left -= 1;
            if encode_result(&cold, &TenantPolicy::default()) != *served {
                return Err("the service's result differs from the cold run".into());
            }
        }
        Ok(())
    }

    /// Replay one `replace` the way the server's reactor thread runs it.
    pub fn replace(&mut self, table: &Table, request: u64, side: bool) {
        let bytes = replace_frame(TENANT, table).to_bytes();
        let Replica { tracer, main, side: other, .. } = self;
        let tenant = if side { other } else { main };
        let previous = tenant.service.catalog().version();
        tracer.enter("replica.replace", request);
        let frame = tracer.time("json.request_parse", request, || parse(&bytes));
        let decoded =
            tracer.time("protocol.decode", request, || frame.map(|f| Request::from_json(&f)));
        let Ok(Ok(Request::Replace { table, .. })) = decoded else {
            tracer.exit();
            self.ledger.record(Err(format!("replica write {request} did not decode")));
            return;
        };
        let update =
            tracer.time("service.replace", request, || tenant.service.replace_table(table));
        let Ok(update) = update else {
            tracer.exit();
            self.ledger.record(Err(format!("replica write {request} failed")));
            return;
        };
        let mut members =
            vec![("ok".into(), Json::Bool(true)), ("op".into(), Json::str("replace"))];
        members.extend(encode_update(&update));
        tracer.time("json.reply_encode", request, || Json::Object(members).to_bytes());
        tracer.exit();
        self.count("catalog.columns_rebuilt", update.columns_rebuilt as f64);
        let step = if update.version == previous + 1 {
            Ok(())
        } else {
            Err(format!("replica write {request}: version {} after {previous}", update.version))
        };
        self.ledger.record(step);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use cxm_core::TgtLabeler;
    use cxm_datagen::{generate_wide_catalog, WideCatalogConfig};
    use cxm_service::MatchService;

    /// Reference figure for the README: on the generator's default wide
    /// catalog (150 × 8 × 40), the share of a probe read that goes to
    /// training a target classifier the probe never queries.
    #[test]
    #[ignore = "prints a reference figure and takes about 15 s in a release build"]
    fn default_wide_catalog_classifier_share() {
        let ds = generate_wide_catalog(&WideCatalogConfig::default());
        let service = MatchService::with_defaults();
        service.register_target(&ds.target);
        service.submit(&ds.source).unwrap();
        let first = ds.target.tables().next().unwrap().clone();
        service.replace_table(first).unwrap();
        let t = Instant::now();
        service.submit(&ds.source).unwrap();
        let read = t.elapsed();
        let t = Instant::now();
        TgtLabeler::from_target(&ds.target);
        let train = t.elapsed();
        println!("read after a write: {read:?}; TgtLabeler::from_target: {train:?}");
    }
}
