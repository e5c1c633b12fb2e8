//! Workload inputs, made from the seed alone.
//!
//! * The Q1 relation is the chemotherapy generator of `ses-workload`
//!   with the auxiliary-event rate raised until about 99 % of events
//!   pass no constant condition of Q1, the way real ward data is
//!   dominated by labs and vitals.
//! * The bank stream and its 64 queries come from `ses-workload`'s bank
//!   generator with an odd type pool, so every type feeds two queries
//!   and all 64 queries are distinct.

use std::ops::Range;
use std::path::Path;

use ses_event::{Relation, Schema, Timestamp, Value};
use ses_pattern::Pattern;
use ses_query::TickUnit;
use ses_workload::bank::{self, BankConfig};
use ses_workload::chemo::{self, ChemoConfig};

/// The paper's Q1, relative to the repository root.
pub const Q1_FILE: &str = "examples/queries/chemo_q1.ses";
/// Q1's window (`WITHIN 264 HOURS`) in ticks of one hour.
pub const Q1_WINDOW: i64 = 264;
/// Patients in the Q1 relation (four cycles each).
pub const Q1_PATIENTS: usize = 450;
/// Patients start treatment staggered over 48 weeks, a ward admitting
/// all year round; fewer patients under treatment at once keep one find
/// near two seconds.
pub const Q1_STAGGER_HOURS: i64 = 16 * 21 * 24;
/// Auxiliary events per patient and treatment day.
pub const Q1_AUX_PER_DAY: f64 = 58.0;

/// Standing queries in the bank workload.
pub const BANK_QUERIES: usize = 64;
/// Event-type pool of the bank workload. Odd and above the query count,
/// so `2i mod 65` and `2i+1 mod 65` give 64 distinct type pairs and
/// each type is watched by two queries.
pub const BANK_TYPES: usize = 65;
/// Events in one bank round.
pub const BANK_EVENTS: usize = 1_000_000;
/// Window of every bank query, in ticks.
pub const BANK_WINDOW: i64 = 50;
/// Correlation keys of the bank stream.
pub const BANK_IDS: i64 = 16;

/// Derives a workload-specific seed, so the workloads of one seed do
/// not share random streams.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// The Q1 relation for `seed` (about 1.8 M events).
pub fn q1_relation(seed: u64) -> Relation {
    let cfg = ChemoConfig {
        patients: Q1_PATIENTS,
        aux_per_day: Q1_AUX_PER_DAY,
        stagger_hours: Q1_STAGGER_HOURS,
        ..ChemoConfig::paper_d1()
    }
    .with_seed(sub_seed(seed, 1));
    chemo::generate(&cfg)
}

/// Q1's schema, `(ID, L, V, U)`.
pub fn q1_schema() -> Schema {
    ses_workload::paper::schema()
}

/// Reads Q1's file from the repository root.
pub fn q1_file(root: &Path) -> Result<String, String> {
    let path = root.join(Q1_FILE);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses Q1's file (the work a user's start-up does).
pub fn q1_pattern(file_text: &str) -> Result<Pattern, String> {
    let mut items =
        ses_query::parse_pattern_file(file_text, TickUnit::Hour).map_err(|e| e.to_string())?;
    if items.len() != 1 {
        return Err(format!(
            "{Q1_FILE}: expected one query, got {}",
            items.len()
        ));
    }
    Ok(items.remove(0).1)
}

/// The bank generator's configuration for `seed`.
pub fn bank_config(seed: u64) -> BankConfig {
    BankConfig {
        patterns: BANK_QUERIES,
        event_types: BANK_TYPES,
        events: BANK_EVENTS,
        within: BANK_WINDOW,
        ids: BANK_IDS,
        overlap: 0.0,
        anchor_share: 0.0,
        seed: sub_seed(seed, 2),
    }
}

/// The bank's 64 queries as query text (what a client would submit),
/// rendered from the generator's patterns.
pub fn bank_queries(cfg: &BankConfig) -> Vec<(String, String)> {
    bank::patterns(cfg)
        .iter()
        .map(|(name, p)| (name.clone(), ses_query::render(p)))
        .collect()
}

/// The type pair `(a, b)` query `i` of the bank watches.
pub fn bank_pair(i: usize) -> (String, String) {
    (
        bank::label((2 * i) % BANK_TYPES),
        bank::label((2 * i + 1) % BANK_TYPES),
    )
}

/// The bank stream for `cfg`.
pub fn bank_stream(cfg: &BankConfig) -> Relation {
    bank::generate(cfg)
}

/// The events of `rel` as owned rows, ready to be moved into pushes.
pub fn rows(rel: &Relation) -> Vec<(Timestamp, Vec<Value>)> {
    rows_in(rel, 0..rel.len())
}

/// The events of `rel` in `range` as owned rows.
pub fn rows_in(rel: &Relation, range: Range<usize>) -> Vec<(Timestamp, Vec<Value>)> {
    rel.events()[range]
        .iter()
        .map(|e| (e.ts(), e.values().to_vec()))
        .collect()
}
