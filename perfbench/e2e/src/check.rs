//! Output checks that do not rely on the engine under test.
//!
//! A match is compared as a [`Key`]: its `(event index, role)` pairs in
//! event order, the form both `Match::display_with` and the server's
//! match lines render (`{c/e1, p+/e2, d/e3, b/e9}`, 1-based events).
//!
//! * Q1's expected answer comes from a per-patient scan of the relation:
//!   one match per treatment cycle, binding the cycle's C, its D, every P
//!   before the next blood count, and that blood count.
//! * A bank match must satisfy its query's conditions, window and set
//!   order; for a fixed sample of queries the bank's answer must also
//!   equal that query's own batch `Matcher::find`.
//!
//! Every checker can be shown to reject a match set with one match
//! removed and with one match duplicated ([`self_test`]).

use std::collections::{HashMap, HashSet};

use ses_event::{Relation, Value};

/// A match as sorted `(0-based event index, role)` pairs; the role of a
/// group variable is written without its `+`.
pub type Key = Vec<(u32, String)>;

/// Parses a rendered match, `{c/e1, p+/e4, d/e3, b/e12}`.
pub fn parse_key(rendered: &str) -> Result<Key, String> {
    let body = rendered
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a rendered match: {rendered}"))?;
    let mut key = Vec::new();
    for part in body.split(", ") {
        let (role, ev) = part
            .split_once("/e")
            .ok_or_else(|| format!("bad binding `{part}` in {rendered}"))?;
        let n: u32 = ev
            .parse()
            .map_err(|_| format!("bad event `{ev}` in {rendered}"))?;
        if n == 0 {
            return Err(format!("event numbers are 1-based: {rendered}"));
        }
        key.push((n - 1, role.trim_end_matches('+').to_string()));
    }
    key.sort();
    Ok(key)
}

/// How a delivered match set differs from what was expected.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Matches expected (and due) but not delivered.
    pub missing: usize,
    /// Deliveries of a match already delivered.
    pub duplicates: usize,
    /// Delivered matches that are not in the expected answer or break a
    /// query's conditions.
    pub wrong: usize,
}

impl Verdict {
    /// Failed match operations.
    pub fn failed(&self) -> usize {
        self.missing + self.duplicates + self.wrong
    }

    /// `true` when nothing failed.
    pub fn ok(&self) -> bool {
        self.failed() == 0
    }
}

/// One expected Q1 match.
#[derive(Debug, Clone)]
pub struct Q1Match {
    /// The bindings.
    pub key: Key,
    /// Timestamp (ticks) of the closing blood count.
    pub last_ts: i64,
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn label(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s.as_ref()),
        _ => None,
    }
}

/// Q1's expected answer over `rel` (schema `ID, L, V, U`) with window
/// `window` ticks: per patient, the events are cut at every blood count
/// (B); a stretch holding one C, one D and at least one P, all inside
/// the window that ends at the closing B, is one match of that C, D,
/// those P and the B.
///
/// A P that comes before its cycle's C is bound only when no P or D of
/// another patient arrives between the two. Q1 ties `p` and `d` to the
/// patient only through `c`, so under skip-till-next-match a run opened
/// by that P takes the next P or D of any patient and can no longer
/// match; the run opened by the C then holds the maximal match.
pub fn q1_expected(rel: &Relation, window: i64) -> Result<Vec<Q1Match>, String> {
    // Per patient: (event index, ts, label) of C, D, P and B events.
    let mut patients: HashMap<i64, Vec<(u32, i64, char)>> = HashMap::new();
    for (i, e) in rel.events().iter().enumerate() {
        let v = e.values();
        let id = int(&v[0]).ok_or("Q1 relation: ID must be an integer")?;
        let l = match label(&v[1]) {
            Some("C") => 'c',
            Some("D") => 'd',
            Some("P") => 'p',
            Some("B") => 'b',
            _ => continue,
        };
        patients
            .entry(id)
            .or_default()
            .push((i as u32, e.ts().ticks(), l));
    }
    let mut out = Vec::new();
    for (&id, events) in &patients {
        let mut stretch: Vec<(u32, i64, char)> = Vec::new();
        for &(idx, ts, l) in events {
            if l != 'b' {
                stretch.push((idx, ts, l));
                continue;
            }
            let count = |r: char| stretch.iter().filter(|e| e.2 == r).count();
            let (c, d) = (count('c'), count('d'));
            if c > 1 || d > 1 {
                return Err(format!(
                    "Q1 relation: a stretch before event {} holds {c} C and {d} D; \
                     the expected-answer rule covers one of each",
                    idx + 1
                ));
            }
            if let Some(c_idx) = stretch.iter().find(|e| e.2 == 'c').map(|e| e.0) {
                let from = stretch
                    .iter()
                    .filter(|e| e.2 == 'p' && e.0 < c_idx)
                    .map(|e| e.0)
                    .find(|&p_idx| !foreign_p_or_d(rel, id, p_idx, c_idx))
                    .unwrap_or(c_idx);
                stretch.retain(|e| e.2 != 'p' || e.0 >= from);
            }
            let p = stretch.iter().filter(|e| e.2 == 'p').count();
            let first = stretch.iter().map(|e| e.1).min();
            let fits = first.is_some_and(|f| ts - f <= window) && stretch.iter().all(|e| e.1 < ts);
            if c == 1 && d == 1 && p >= 1 && fits {
                let mut key: Key = stretch
                    .iter()
                    .map(|&(i, _, r)| (i, r.to_string()))
                    .collect();
                key.push((idx, "b".to_string()));
                key.sort();
                out.push(Q1Match { key, last_ts: ts });
            }
            stretch.clear();
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

/// `true` when a P or D event of a patient other than `id` lies strictly
/// between events `from` and `to` of `rel`.
fn foreign_p_or_d(rel: &Relation, id: i64, from: u32, to: u32) -> bool {
    rel.events()[from as usize + 1..to as usize]
        .iter()
        .any(|e| {
            let v = e.values();
            matches!(label(&v[1]), Some("P" | "D")) && int(&v[0]) != Some(id)
        })
}

/// Checks delivered matches against an expected answer. Every delivered
/// match must be expected and arrive once; every expected match whose
/// last event is before `due_before` (ticks; `i64::MAX` for all) must
/// have been delivered.
pub fn check_against(expected: &[Q1Match], delivered: &[Key], due_before: i64) -> Verdict {
    let index: HashSet<&Key> = expected.iter().map(|m| &m.key).collect();
    let mut seen: HashSet<&Key> = HashSet::new();
    let mut v = Verdict::default();
    for k in delivered {
        if !index.contains(k) {
            v.wrong += 1;
        } else if !seen.insert(k) {
            v.duplicates += 1;
        }
    }
    v.missing = expected
        .iter()
        .filter(|m| m.last_ts < due_before && !seen.contains(&m.key))
        .count();
    v
}

/// One bank query as the checker sees it: `a THEN b` with
/// `a.TYPE = ta`, `b.TYPE = tb`, `a.ID = b.ID` within `window` ticks.
#[derive(Debug, Clone)]
pub struct PairQuery {
    /// Type of `a`.
    pub ta: String,
    /// Type of `b`.
    pub tb: String,
    /// Window in ticks.
    pub window: i64,
}

/// Validates bank matches `(query, key)` against the bank stream
/// (schema `TYPE, ID`): every match binds exactly `a` and `b`, each of
/// its query's type, with equal `ID`s, `a` strictly before `b`, within
/// the window, and no match is delivered twice.
pub fn check_pairs(stream: &Relation, queries: &[PairQuery], matches: &[(usize, Key)]) -> Verdict {
    let mut v = Verdict::default();
    let mut seen: HashSet<(usize, &Key)> = HashSet::new();
    for (q, key) in matches {
        if !seen.insert((*q, key)) {
            v.duplicates += 1;
            continue;
        }
        if !pair_ok(stream, queries.get(*q), key) {
            v.wrong += 1;
        }
    }
    v
}

fn pair_ok(stream: &Relation, query: Option<&PairQuery>, key: &Key) -> bool {
    let Some(q) = query else { return false };
    let role = |r: &str| {
        let mut it = key.iter().filter(|(_, x)| x == r);
        match (it.next(), it.next()) {
            (Some(&(i, _)), None) => stream.events().get(i as usize),
            _ => None,
        }
    };
    let (Some(a), Some(b)) = (role("a"), role("b")) else {
        return false;
    };
    key.len() == 2
        && label(&a.values()[0]) == Some(q.ta.as_str())
        && label(&b.values()[0]) == Some(q.tb.as_str())
        && a.values()[1] == b.values()[1]
        && a.ts() < b.ts()
        && b.ts().ticks() - a.ts().ticks() <= q.window
}

/// Compares the bank's answer for one query with that query's own
/// batch answer, as multisets.
pub fn check_equal(bank: &[Key], batch: &[Key]) -> Verdict {
    let (got, want) = (multiset(bank), multiset(batch));
    let mut v = Verdict::default();
    for (k, &n) in &got {
        let w = want.get(k).copied().unwrap_or(0);
        if w == 0 {
            v.wrong += n;
        } else if n > w {
            v.duplicates += n - w;
        }
    }
    for (k, &w) in &want {
        v.missing += w.saturating_sub(got.get(k).copied().unwrap_or(0));
    }
    v
}

fn multiset(keys: &[Key]) -> HashMap<&Key, usize> {
    let mut m: HashMap<&Key, usize> = HashMap::new();
    for k in keys {
        *m.entry(k).or_default() += 1;
    }
    m
}

/// Shows that `check` rejects `good` with one match removed and with
/// one match duplicated, and accepts `good` itself. `removable` picks
/// the element whose removal must be noticed.
pub fn self_test<T: Clone>(
    name: &str,
    good: &[T],
    removable: usize,
    check: impl Fn(&[T]) -> Verdict,
) -> Result<(), String> {
    if good.is_empty() {
        return Err(format!("{name}: nothing to check"));
    }
    if !check(good).ok() {
        return Err(format!("{name}: rejects the correct answer"));
    }
    let mut removed = good.to_vec();
    removed.remove(removable);
    if check(&removed).missing == 0 {
        return Err(format!(
            "{name}: accepts a match set with one match removed"
        ));
    }
    let mut doubled = good.to_vec();
    doubled.push(good[removable].clone());
    if check(&doubled).duplicates == 0 {
        return Err(format!(
            "{name}: accepts a match set with one match duplicated"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_parse_and_sort() {
        let k = parse_key("{c/e1, p+/e4, d/e3, b/e12}").unwrap();
        assert_eq!(
            k,
            vec![
                (0, "c".to_string()),
                (2, "d".to_string()),
                (3, "p".to_string()),
                (11, "b".to_string())
            ]
        );
        assert!(parse_key("{c/e0}").is_err());
        assert!(parse_key("c/e1").is_err());
    }
}
