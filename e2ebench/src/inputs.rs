//! Workload inputs, all derived from the `--seed` argument. Generation runs
//! before any clock starts; the server process only ever sees the encoded
//! results.

use cxm_datagen::{
    generate_retail, generate_wide_catalog, GroundTruth, RetailConfig, WideCatalogConfig,
};
use cxm_relational::{Database, Table, Tuple, Value};

/// The tenant every workload reads from.
pub const TENANT: &str = "bench";
/// The tenant the retail workloads' write probe edits, so the writes leave
/// the read tenant's caches alone.
pub const SIDE_TENANT: &str = "edits";

/// Rows of each retail source (`items`).
pub const RETAIL_SOURCE_ITEMS: usize = 100;
/// Rows of each retail catalog table (`book`, `music`).
pub const RETAIL_TARGET_ROWS: usize = 150;
/// Distinct sources `warm_hits` cycles through.
pub const WARM_SOURCES: usize = 12;
/// Sources per second of run length pre-generated for `fresh_sources`; a
/// run that exhausts them ends its timed phase early.
pub const FRESH_SOURCES_PER_SECOND: usize = 60;
/// Replace operations of the retail workloads' write probe, per server.
pub const SIDE_WRITES: usize = 70;
/// Rows of each table of the write probe's catalog: large enough that a
/// replace is milliseconds of work, not mostly thread wake-ups.
pub const SIDE_TARGET_ROWS: usize = 1200;
/// Catalog-drift rounds per second of run length pre-generated.
pub const DRIFT_ROUNDS_PER_SECOND: usize = 20;

/// The catalog of `catalog_drift`: 30 tables of 8 text columns and 20 rows
/// over 15 disjoint-alphabet families (240 target columns).
pub fn wide_config(seed: u64) -> WideCatalogConfig {
    WideCatalogConfig {
        seed: mix(seed, 0x57_1DE),
        tables: 30,
        columns_per_table: 8,
        rows_per_table: 20,
        families: 15,
    }
}

/// SplitMix64: a small, fixed generator, so the inputs depend on the seed
/// alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent sub-seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.rotate_left(29)).next_u64()
}

/// One catalog write: the table to send, and the benchmark's own copy of the
/// whole catalog after the write.
#[derive(Debug, Clone)]
pub struct Edit {
    pub table: Table,
    pub catalog_after: Database,
}

/// Inputs of `warm_hits` and `fresh_sources`.
#[derive(Debug)]
pub struct RetailInputs {
    pub catalog: Database,
    /// Schema-level truth: the same triples hold for every generated source.
    pub truth: GroundTruth,
    /// Sources answered during set-up.
    pub warmups: Vec<Database>,
    /// Sources of the timed phase, in submission order (`warm_hits` cycles
    /// them; `fresh_sources` takes each once).
    pub timed: Vec<Database>,
    /// The write probe's catalog and its edits, against [`SIDE_TENANT`].
    pub side_catalog: Database,
    pub side_edits: Vec<Edit>,
}

fn retail_source(seed: u64) -> Database {
    generate_retail(&RetailConfig {
        seed,
        source_items: RETAIL_SOURCE_ITEMS,
        target_rows: 1,
        ..RetailConfig::default()
    })
    .source
}

fn retail_catalog(seed: u64, rows: usize) -> (Database, GroundTruth) {
    let ds = generate_retail(&RetailConfig {
        seed,
        source_items: 1,
        target_rows: rows,
        ..RetailConfig::default()
    });
    (ds.target, ds.truth)
}

/// The write probe: a larger retail catalog and its one-column edits.
fn side_probe(seed: u64) -> (Database, Vec<Edit>) {
    let (catalog, _) = retail_catalog(mix(seed, 2), SIDE_TARGET_ROWS);
    let edits = resample_edits(&catalog, mix(seed, 3), SIDE_WRITES);
    (catalog, edits)
}

/// `warm_hits`: a few sources, all answered once during set-up.
pub fn warm_hits(seed: u64) -> RetailInputs {
    let (catalog, truth) = retail_catalog(mix(seed, 1), RETAIL_TARGET_ROWS);
    let warmups: Vec<Database> =
        (0..WARM_SOURCES as u64).map(|j| retail_source(mix(seed, 100 + j))).collect();
    let (side_catalog, side_edits) = side_probe(seed);
    RetailInputs { timed: warmups.clone(), warmups, catalog, truth, side_catalog, side_edits }
}

/// `fresh_sources`: one warm-up source, then sources no request sent before.
pub fn fresh_sources(seed: u64, seconds: u64) -> RetailInputs {
    let (catalog, truth) = retail_catalog(mix(seed, 1), RETAIL_TARGET_ROWS);
    let warmups = vec![retail_source(mix(seed, 99))];
    let pool = FRESH_SOURCES_PER_SECOND * seconds as usize;
    let timed = (0..pool as u64).map(|j| retail_source(mix(seed, 1000 + j))).collect();
    let (side_catalog, side_edits) = side_probe(seed);
    RetailInputs { catalog, truth, warmups, timed, side_catalog, side_edits }
}

/// Retail write rule: one seeded column of one seeded table has each row's
/// value redrawn from that column's own values.
fn resample_edits(catalog: &Database, seed: u64, count: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed);
    let mut current = catalog.clone();
    (0..count)
        .map(|_| {
            let names: Vec<String> = current.table_names().iter().map(|s| s.to_string()).collect();
            let table = current.table(&names[rng.below(names.len())]).expect("listed table");
            let column = rng.below(table.schema().arity());
            let pool: Vec<Value> = table.rows().iter().map(|r| r.at(column).clone()).collect();
            let rows = table
                .rows()
                .iter()
                .map(|r| with_value(r, column, pool[rng.below(pool.len())].clone()));
            let edited = rebuild(table, rows.collect());
            current.replace_table(edited.clone());
            Edit { table: edited, catalog_after: current.clone() }
        })
        .collect()
}

/// Inputs of `catalog_drift`.
#[derive(Debug)]
pub struct DriftInputs {
    pub config: WideCatalogConfig,
    pub catalog: Database,
    pub probe: Database,
    pub rounds: Vec<Edit>,
}

/// `catalog_drift`: the wide catalog, its probe, and one edit per round.
pub fn catalog_drift(seed: u64, seconds: u64) -> DriftInputs {
    let config = wide_config(seed);
    let ds = generate_wide_catalog(&config);
    let mut rng = Rng::new(mix(seed, 4));
    let mut current = ds.target.clone();
    let rounds = (0..DRIFT_ROUNDS_PER_SECOND * seconds as usize)
        .map(|_| {
            let table = current
                .table(&format!("wide_{}", rng.below(config.tables)))
                .expect("generated table");
            let edited = redraw_column(table, &mut rng);
            current.replace_table(edited.clone());
            Edit { table: edited, catalog_after: current.clone() }
        })
        .collect();
    DriftInputs { config, catalog: ds.target, probe: ds.source, rounds }
}

/// Wide-catalog write rule: one seeded column gets fresh values of 4–8
/// words, drawn from the words the table already holds. Every table draws
/// from one family, so the column stays in its table's family.
fn redraw_column(table: &Table, rng: &mut Rng) -> Table {
    let mut words: Vec<String> = table
        .rows()
        .iter()
        .flat_map(|r| r.values().iter().map(Value::as_text).collect::<Vec<_>>())
        .flat_map(|v| v.split(' ').map(str::to_string).collect::<Vec<_>>())
        .collect();
    words.sort();
    words.dedup();
    let column = rng.below(table.schema().arity());
    let rows = table
        .rows()
        .iter()
        .map(|r| {
            let n = 4 + rng.below(5);
            let value = (0..n).map(|_| words[rng.below(words.len())].as_str()).collect::<Vec<_>>();
            with_value(r, column, Value::Str(value.join(" ")))
        })
        .collect();
    rebuild(table, rows)
}

fn with_value(row: &Tuple, column: usize, value: Value) -> Tuple {
    let mut values = row.values().to_vec();
    values[column] = value;
    Tuple::new(values)
}

fn rebuild(table: &Table, rows: Vec<Tuple>) -> Table {
    Table::with_rows(table.schema().clone(), rows).expect("an edit keeps the table's arity")
}

/// The family truth of the wide catalog: probe column `f` corresponds to
/// every column of every table `i` with `i % families == f` (the generator's
/// round-robin assignment), rendered `source->target`.
pub fn family_truth(config: &WideCatalogConfig) -> Vec<String> {
    let mut truth = Vec::new();
    for i in 0..config.tables {
        for c in 0..config.columns_per_table {
            truth.push(format!("probe.probe_f{}->wide_{i}.c{c}", i % config.families));
        }
    }
    truth
}

/// The source×target column pairs that share grams: each probe column with
/// every column of its own family's tables.
pub fn same_family_pairs(config: &WideCatalogConfig) -> usize {
    (0..config.families)
        .map(|f| (0..config.tables).filter(|i| i % config.families == f).count())
        .sum::<usize>()
        * config.columns_per_table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let a = catalog_drift(7, 1);
        let b = catalog_drift(7, 1);
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.table, y.table);
        }
        assert_ne!(catalog_drift(8, 1).catalog, a.catalog);
    }

    #[test]
    fn a_drift_edit_changes_one_column_of_one_table() {
        let inputs = catalog_drift(3, 1);
        let edit = &inputs.rounds[0];
        let before = inputs.catalog.table(edit.table.name()).unwrap();
        let arity = before.schema().arity();
        let changed: Vec<usize> = (0..arity)
            .filter(|&c| {
                before.rows().iter().zip(edit.table.rows()).any(|(x, y)| x.at(c) != y.at(c))
            })
            .collect();
        assert_eq!(changed.len(), 1, "{changed:?}");
        assert_eq!(edit.catalog_after.table(edit.table.name()), Some(&edit.table));
    }

    #[test]
    fn same_family_pairs_follow_the_round_robin() {
        let config = WideCatalogConfig {
            seed: 1,
            tables: 7,
            columns_per_table: 2,
            rows_per_table: 1,
            families: 3,
        };
        // Every table belongs to exactly one family with one probe column.
        assert_eq!(same_family_pairs(&config), 14);
        assert_eq!(family_truth(&config).len(), 14);
        let fewer = WideCatalogConfig { families: 9, ..config };
        assert_eq!(same_family_pairs(&fewer), 14);
    }
}
