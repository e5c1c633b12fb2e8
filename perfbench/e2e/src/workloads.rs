//! The four workloads. Each repeats whole rounds of the same operations
//! until the run's time is spent, checks every round's output, and
//! reports the median of its per-round figures.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ses_core::{Matcher, MatcherOptions, MatcherSnapshot, PatternBank};
use ses_event::Relation;
use ses_pattern::Pattern;
use ses_query::TickUnit;

use crate::check::{self, Key, PairQuery, Q1Match, Verdict};
use crate::inputs;
use crate::stats::{self, median, quantile};
use crate::wire::{self, Conn, ServerProc, BATCH};

/// Times the set-up of an in-process workload is repeated per round.
const SETUP_REPS: usize = 20;
/// Times `bank_64` recovers its bank from a checkpoint per round.
const RECOVERY_REPS: usize = 2;
/// Events of the bank stream after `bank_64`'s checkpoint, the log
/// suffix a recovery replays: a tenth of the stream, so a recovery
/// takes about as long as the live pushes of a tenth of a round.
const BANK_REPLAY_EVENTS: usize = inputs::BANK_EVENTS / 10;
/// Events the server workloads send per round: a prefix of the Q1
/// relation, 1172 whole batch lines. Not a multiple of the server's
/// checkpoint cadence, so a restart replays a log suffix.
pub const SERVE_EVENTS: usize = 1172 * BATCH;
/// The paced producer's rate, about a quarter of what one unpaced
/// producer reaches against today's server on two cores: at half that
/// rate the server's queueing made the median latency swing by a
/// quarter between runs.
pub const PACED_RATE: f64 = 50_000.0;
/// Queries of the bank whose answers are compared with batch `find`.
pub const BANK_SAMPLE: [usize; 4] = [0, 21, 42, 63];
/// Extra server start-ups per round, so set-up and restart times are
/// medians of several samples.
const SERVER_SETUP_REPS: usize = 4;
/// How long a round waits for matches still in flight after `sync`.
const DELIVERY_GRACE: Duration = Duration::from_secs(10);

/// What a workload needs from the command line.
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Repository root (the checkout the benchmark runs in).
    pub root: PathBuf,
    /// The `ses-server` executable.
    pub server_bin: PathBuf,
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: events pushed or sent plus matches due.
    pub attempted: u64,
    /// Operations failed: events lost, shed or refused, matches
    /// missing, duplicated or wrong.
    pub failed: u64,
    /// Per-round figures, by metric name.
    samples: HashMap<&'static str, Vec<f64>>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn verdict(&mut self, what: &str, v: &Verdict, due: usize) {
        self.attempted += due as u64;
        self.failed += v.failed() as u64;
        if !v.ok() {
            self.note(format!(
                "CHECK FAILED {what}: {} missing, {} duplicated, {} wrong",
                v.missing, v.duplicates, v.wrong
            ));
        }
    }

    /// Counts a failure that is not a match (lost events, bad replies).
    fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.note(format!("CHECK FAILED {what}"));
        }
    }

    /// The reported value of `metric`: the median of its samples.
    pub fn metric(&self, metric: &str) -> Option<f64> {
        self.samples
            .get(metric)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    }

    /// The 99th percentile of the pooled latency samples.
    fn p99(&self, metric: &str) -> Option<f64> {
        self.samples.get(metric).and_then(|v| quantile(v, 0.99))
    }

    fn count_of(&self, metric: &str) -> usize {
        self.samples.get(metric).map_or(0, Vec::len)
    }
}

/// Runs `round` until `seconds` have passed (at least once).
fn rounds(
    seconds: f64,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Outcome) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        round(out)?;
        n += 1;
    }
    Ok(n)
}

fn own_pid() -> u32 {
    std::process::id()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn keys_of(matches: &[ses_core::Match], pattern: &Pattern) -> Result<Vec<Key>, String> {
    matches
        .iter()
        .map(|m| check::parse_key(&m.display_with(pattern)))
        .collect()
}

/// Reads, parses and compiles Q1: `find_q1`'s set-up.
fn q1_setup(cfg: &Config) -> Result<(Matcher, Pattern), String> {
    let text = inputs::q1_file(&cfg.root)?;
    let p = inputs::q1_pattern(&text)?;
    let m = Matcher::compile(&p, &inputs::q1_schema()).map_err(|e| e.to_string())?;
    Ok((m, p))
}

/// Runs `setup` [`SETUP_REPS`] times, sampling `setup_s`, and returns
/// the last result. Called once per round, so the samples span the run.
fn timed_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let v = setup()?;
        out.sample("setup_s", stats::secs(t.elapsed()));
        last = Some(v);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

/// `find_q1`: batch `Matcher::find` of the paper's Q1.
pub fn find_q1(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rel = inputs::q1_relation(cfg.seed);
    let expected = check::q1_expected(&rel, inputs::Q1_WINDOW)?;
    let n = rel.len();
    out.note(format!(
        "find_q1: {n} events, {} expected matches, {:.2} % pass a constant condition",
        expected.len(),
        100.0 * q1_passing(&rel) as f64 / n as f64
    ));

    let mut first_check = true;
    let done = rounds(cfg.seconds, &mut out, |out| {
        let (matcher, pattern) = timed_setup(out, || q1_setup(cfg))?;
        let cpu0 = stats::cpu_seconds(own_pid())?;
        let t = Instant::now();
        let found = matcher.find(black_box(&rel));
        let took = t.elapsed();
        let cpu1 = stats::cpu_seconds(own_pid())?;
        out.sample("events_per_s", n as f64 / stats::secs(took));
        // Every match of a batch find reaches the caller when find returns.
        out.sample("match_latency_p50_ms", ms(took));
        // A batch find keeps no state: restarted, it sets up and finds
        // its answer again.
        let setup = out.metric("setup_s").unwrap_or(0.0);
        out.sample("recovery_s", setup + stats::secs(took));
        out.sample("cpu_us_per_event", (cpu1 - cpu0) * 1e6 / n as f64);
        out.sample("peak_rss_mb", stats::peak_rss_mb(own_pid())?);
        out.attempted += n as u64;

        let keys = keys_of(&found, &pattern)?;
        let check = |ks: &[Key]| check::check_against(&expected, ks, i64::MAX);
        out.verdict("find_q1 matches", &check(&keys), expected.len());
        if first_check {
            check::self_test("find_q1 checker", &keys, keys.len() / 2, check)?;
            first_check = false;
        }
        Ok(())
    })?;
    out.note(format!("find_q1: {done} round(s)"));
    Ok(out)
}

/// Events of the Q1 relation that pass one of Q1's constant conditions.
fn q1_passing(rel: &Relation) -> usize {
    rel.events()
        .iter()
        .filter(|e| {
            matches!(&e.values()[1], ses_event::Value::Str(s) if matches!(s.as_ref(), "C" | "D" | "P" | "B"))
        })
        .count()
}

/// Builds the bank of the 64 queries from their text.
fn build_bank(queries: &[(String, String)]) -> Result<(PatternBank, Vec<Pattern>), String> {
    let schema = ses_workload::bank::schema();
    let mut builder = PatternBank::builder(&schema).with_eviction(true);
    let mut patterns = Vec::with_capacity(queries.len());
    for (name, text) in queries {
        let p = ses_query::parse_pattern(text, TickUnit::Abstract).map_err(|e| e.to_string())?;
        builder = builder
            .register(name.clone(), &p, MatcherOptions::default())
            .map_err(|e| e.to_string())?;
        patterns.push(p);
    }
    Ok((builder.build(), patterns))
}

/// `bank_64`: 64 standing queries in one `PatternBank`, events pushed
/// one at a time, then `finish`.
pub fn bank_64(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bcfg = inputs::bank_config(cfg.seed);
    let queries = inputs::bank_queries(&bcfg);
    let stream = inputs::bank_stream(&bcfg);
    let n = stream.len();
    let schema = ses_workload::bank::schema();
    let pair_queries: Vec<PairQuery> = (0..queries.len())
        .map(|i| {
            let (ta, tb) = inputs::bank_pair(i);
            PairQuery {
                ta,
                tb,
                window: inputs::BANK_WINDOW,
            }
        })
        .collect();

    let (_, patterns) = build_bank(&queries)?;
    let specs: Vec<(String, Pattern, MatcherOptions)> = queries
        .iter()
        .zip(&patterns)
        .map(|((name, _), p)| (name.clone(), p.clone(), MatcherOptions::default()))
        .collect();

    // Batch answers of the sampled queries: stream ≡ batch and
    // bank ≡ independent, checked outside the timed region.
    let mut batch: HashMap<usize, Vec<Key>> = HashMap::new();
    for &q in &BANK_SAMPLE {
        let m = Matcher::compile(&patterns[q], &schema).map_err(|e| e.to_string())?;
        let mut keys = keys_of(&m.find(&stream), &patterns[q])?;
        keys.sort();
        batch.insert(q, keys);
    }
    // The checkpoint a recovery starts from: the bank's state after all
    // but the last `BANK_REPLAY_EVENTS` events, encoded once.
    let cut = n
        .checked_sub(BANK_REPLAY_EVENTS)
        .ok_or("bank_64: the stream is shorter than its replayed suffix")?;
    let checkpoint = {
        let (mut bank, _) = build_bank(&queries)?;
        for (ts, values) in inputs::rows_in(&stream, 0..cut) {
            bank.push(ts, values).map_err(|e| e.to_string())?;
        }
        ses_store::encode_snapshot(&MatcherSnapshot::Bank(bank.snapshot()))
    };
    out.note(format!(
        "bank_64: {n} events, {} queries over {} types, window {} ticks, {} ids, \
         checkpoint of {} bytes at event {cut}",
        queries.len(),
        inputs::BANK_TYPES,
        inputs::BANK_WINDOW,
        inputs::BANK_IDS,
        checkpoint.len()
    ));

    let mut first_check = true;
    let done = rounds(cfg.seconds, &mut out, |out| {
        let (mut bank, _) = timed_setup(out, || build_bank(&queries))?;
        let rows = inputs::rows(&stream);
        let mut found: Vec<(usize, ses_core::Match)> = Vec::new();
        let mut latency = Vec::new();
        let mut refused = 0u64;
        let mut found_at_cut = 0;

        let cpu0 = stats::cpu_seconds(own_pid())?;
        let t0 = Instant::now();
        let mut prev = t0;
        for (i, (ts, values)) in rows.into_iter().enumerate() {
            if i == cut {
                found_at_cut = found.len();
            }
            let pushed = bank.push(ts, values);
            let now = Instant::now();
            match pushed {
                Ok(emitted) if !emitted.is_empty() => {
                    latency.extend(std::iter::repeat_n(ms(now - prev), emitted.len()));
                    found.extend(emitted);
                }
                Ok(_) => {}
                Err(_) => refused += 1,
            }
            prev = now;
        }
        let pushed = t0.elapsed();
        let cpu1 = stats::cpu_seconds(own_pid())?;

        let cpu2 = stats::cpu_seconds(own_pid())?;
        let t1 = Instant::now();
        let tail = bank.finish();
        let finished = t1.elapsed();
        let cpu3 = stats::cpu_seconds(own_pid())?;
        latency.extend(std::iter::repeat_n(ms(finished), tail.len()));
        found.extend(tail);

        // Restart path, as a server recovers: decode the checkpoint,
        // restore, replay the log suffix and finish. The recovered bank
        // must emit exactly what the live bank emitted after the cut.
        for _ in 0..RECOVERY_REPS {
            let suffix = inputs::rows_in(&stream, cut..n);
            let mut recovered: Vec<(usize, ses_core::Match)> = Vec::new();
            let mut replay_refused = 0u64;
            let t = Instant::now();
            let snap = ses_store::decode_snapshot(&checkpoint).map_err(|e| e.to_string())?;
            let MatcherSnapshot::Bank(snap) = snap else {
                return Err("bank snapshot decoded as another kind".into());
            };
            let mut restored =
                PatternBank::restore(&specs, &schema, &snap).map_err(|e| e.to_string())?;
            for (ts, values) in suffix {
                match restored.push(ts, values) {
                    Ok(emitted) => recovered.extend(emitted),
                    Err(_) => replay_refused += 1,
                }
            }
            recovered.extend(restored.finish());
            out.sample("recovery_s", stats::secs(t.elapsed()));
            out.attempted += BANK_REPLAY_EVENTS as u64;
            out.fail(
                replay_refused,
                format!("bank_64: {replay_refused} replayed event(s) refused"),
            );
            out.fail(
                (recovered[..] != found[found_at_cut..]) as u64,
                "bank_64: the recovered bank emitted other matches than the live one".into(),
            );
        }

        let took = stats::secs(pushed + finished);
        out.sample("events_per_s", n as f64 / took);
        out.sample(
            "cpu_us_per_event",
            ((cpu1 - cpu0) + (cpu3 - cpu2)) * 1e6 / n as f64,
        );
        out.sample("match_latency_p50_ms", median(&latency));
        for l in latency {
            out.sample("latency_pool", l);
        }
        out.attempted += n as u64;
        out.fail(refused, format!("bank_64: {refused} event(s) refused"));

        let keyed: Vec<(usize, Key)> = found
            .iter()
            .map(|(q, m)| Ok((*q, check::parse_key(&m.display_with(&patterns[*q]))?)))
            .collect::<Result<_, String>>()?;
        let check = |ks: &[(usize, Key)]| {
            let mut v = check::check_pairs(&stream, &pair_queries, ks);
            for &q in &BANK_SAMPLE {
                let mine: Vec<Key> = ks
                    .iter()
                    .filter(|(i, _)| *i == q)
                    .map(|(_, k)| k.clone())
                    .collect();
                let s = check::check_equal(&mine, &batch[&q]);
                v.missing += s.missing;
                v.wrong += s.wrong;
                // Duplicates are already counted by `check_pairs`.
            }
            v
        };
        out.verdict("bank_64 matches", &check(&keyed), keyed.len());
        if first_check {
            let removable = keyed
                .iter()
                .position(|(q, _)| *q == BANK_SAMPLE[0])
                .ok_or("bank_64: the first sampled query matched nothing")?;
            check::self_test("bank_64 checker", &keyed, removable, check)?;
            first_check = false;
        }
        Ok(())
    })?;
    out.sample("peak_rss_mb", stats::peak_rss_mb(own_pid())?);
    out.note(format!(
        "bank_64: {done} round(s), {} matches per round",
        out.count_of("latency_pool") / done.max(1)
    ));
    Ok(out)
}

/// What the server workloads share: the stream prefix, its expected
/// answer and, per match, the push that releases it.
struct ServeInput {
    query: String,
    lines: Vec<String>,
    expected: Vec<Q1Match>,
    /// Matches are due once the stream's end passed them by 2τ.
    due_before: i64,
    /// Releasing event index of each match an in-process bank emits on
    /// the same prefix (what the server can deliver before the end).
    release: HashMap<Key, usize>,
}

fn serve_input(cfg: &Config) -> Result<ServeInput, String> {
    let rel = inputs::q1_relation(cfg.seed);
    let text = inputs::q1_file(&cfg.root)?;
    let pattern = inputs::q1_pattern(&text)?;
    let expected = check::q1_expected(&rel, inputs::Q1_WINDOW)?;
    let events = SERVE_EVENTS.min(rel.len());
    let end_ts = rel.events()[events - 1].ts().ticks();

    let schema = inputs::q1_schema();
    let mut bank = PatternBank::builder(&schema)
        .register("q1", &pattern, MatcherOptions::default())
        .map_err(|e| e.to_string())?
        .build();
    let mut release = HashMap::new();
    for (i, e) in rel.events()[..events].iter().enumerate() {
        let emitted = bank
            .push(e.ts(), e.values().to_vec())
            .map_err(|e| e.to_string())?;
        for (_, m) in emitted {
            release.insert(check::parse_key(&m.display_with(&pattern))?, i);
        }
    }
    Ok(ServeInput {
        query: ses_query::render(&pattern),
        lines: wire::batch_lines(&rel, events),
        expected,
        due_before: end_ts - 2 * inputs::Q1_WINDOW,
        release,
    })
}

/// Matches read by a subscriber thread: arrival time and raw line.
pub type Arrivals = Vec<(Instant, String)>;

/// Reads match lines on `conn` until it is closed, counting them.
pub fn spawn_subscriber(mut conn: Conn, count: Arc<AtomicUsize>) -> JoinHandle<Arrivals> {
    std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(Some(line)) = conn.read_line() {
            if wire::str_field(&line, "op") == Some("match") {
                got.push((Instant::now(), line));
                count.fetch_add(1, Ordering::SeqCst);
            }
        }
        got
    })
}

/// Starts a server and subscribes Q1; returns it, the subscriber and a
/// producer connection.
fn start_subscribed(
    cfg: &Config,
    dir: Option<&Path>,
    query: &str,
) -> Result<(ServerProc, Conn, Conn), String> {
    let server = ServerProc::start(&cfg.server_bin, dir)?;
    let mut sub = Conn::connect(&server.addr)?;
    sub.subscribe("q1", query, 0)?;
    let prod = Conn::connect(&server.addr)?;
    Ok((server, sub, prod))
}

/// Times [`SERVER_SETUP_REPS`] start-ups (start, subscribe, connect a
/// producer) and restarts (start to first answered `ping`) of servers
/// that are killed right away; durable ones start on an empty
/// directory under `dir`.
fn setup_samples(
    cfg: &Config,
    dir: Option<&Path>,
    query: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    for _ in 0..SERVER_SETUP_REPS {
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let t = Instant::now();
        let (server, _sub, _prod) = start_subscribed(cfg, dir, query)?;
        out.sample("setup_s", stats::secs(t.elapsed()));
        server.kill()?;
        if dir.is_none() {
            let (server, took, _) = restart_to_ping(cfg, None)?;
            out.sample("recovery_s", stats::secs(took));
            server.kill()?;
        }
    }
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(())
}

/// Waits until `count` reaches `target` or the grace period ends.
fn await_count(count: &AtomicUsize, target: usize) {
    let deadline = Instant::now() + DELIVERY_GRACE;
    while count.load(Ordering::SeqCst) < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Parses match lines into `(seq, key)`.
fn parse_matches(lines: &[(Instant, String)]) -> Result<Vec<(u64, Key, Instant)>, String> {
    lines
        .iter()
        .map(|(at, l)| {
            let seq = wire::u64_field(l, "seq").ok_or("match line without seq")?;
            let m = wire::str_field(l, "match").ok_or("match line without match")?;
            Ok((seq, check::parse_key(m)?, *at))
        })
        .collect()
}

/// Sync reply counters: `(accepted, shed, consumed, error replies)`.
pub fn sync(prod: &mut Conn) -> Result<(u64, u64, u64, u64), String> {
    let (reply, errors) = prod.request("{\"op\":\"sync\"}\n", "sync")?;
    let field = |k| wire::u64_field(&reply, k).ok_or(format!("sync reply without {k}"));
    Ok((
        field("accepted")?,
        field("shed")?,
        field("consumed")?,
        errors,
    ))
}

/// Checks the events of one round: all sent were accepted and consumed,
/// none shed or refused.
fn check_events(out: &mut Outcome, what: &str, sent: u64, counters: (u64, u64, u64, u64)) {
    let (accepted, shed, consumed, errors) = counters;
    out.attempted += sent;
    let lost = sent.saturating_sub(consumed.min(accepted));
    out.fail(
        lost + shed + errors,
        format!("{what}: sent {sent}, accepted {accepted}, consumed {consumed}, shed {shed}, {errors} error replies"),
    );
}

/// Records match latencies from the scheduled (or actual) send time of
/// the batch that holds each match's releasing event.
fn latencies(
    out: &mut Outcome,
    input: &ServeInput,
    got: &[(u64, Key, Instant)],
    sent_at: &[Instant],
) {
    let mut round = Vec::new();
    for (_, key, at) in got {
        if let Some(&i) = input.release.get(key) {
            let l = ms(at.saturating_duration_since(sent_at[i / BATCH]));
            round.push(l);
            out.sample("latency_pool", l);
        }
    }
    out.sample("match_latency_p50_ms", median(&round));
}

/// A memory-only server's restart: start to first answered `ping`.
fn restart_to_ping(
    cfg: &Config,
    dir: Option<&Path>,
) -> Result<(ServerProc, Duration, String), String> {
    let t = Instant::now();
    let server = ServerProc::start(&cfg.server_bin, dir)?;
    let mut conn = Conn::connect(&server.addr)?;
    let pong = conn.ping()?;
    Ok((server, t.elapsed(), pong))
}

/// `serve_paced`: a memory-only server, one Q1 subscriber, one producer
/// sending 256-event batches on a fixed schedule.
pub fn serve_paced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = serve_input(cfg)?;
    let period = Duration::from_secs_f64(BATCH as f64 / PACED_RATE);
    let events = SERVE_EVENTS as u64;
    let target = input.release.len();
    out.note(format!(
        "serve_paced: {events} events per round in {} batches at {PACED_RATE} events/s, {target} matches released",
        input.lines.len()
    ));
    let mut lateness = Vec::new();
    let mut first_check = true;

    let done = rounds(cfg.seconds, &mut out, |out| {
        setup_samples(cfg, None, &input.query, out)?;
        let t = Instant::now();
        let (server, sub, mut prod) = start_subscribed(cfg, None, &input.query)?;
        out.sample("setup_s", stats::secs(t.elapsed()));
        let count = Arc::new(AtomicUsize::new(0));
        let closer = sub.try_clone()?;
        let reader = spawn_subscriber(sub, Arc::clone(&count));

        let cpu0 = stats::cpu_seconds(server.pid())?;
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut sched = Vec::with_capacity(input.lines.len());
        for (k, line) in input.lines.iter().enumerate() {
            let due = t0 + period * k as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            lateness.push(ms(Instant::now().saturating_duration_since(due)));
            prod.send(line)?;
            sched.push(due);
        }
        let counters = sync(&mut prod)?;
        let took = t0.elapsed();
        let cpu1 = stats::cpu_seconds(server.pid())?;
        await_count(&count, target);
        let rss = stats::peak_rss_mb(server.pid())?;
        closer.close();
        let got = parse_matches(&reader.join().map_err(|_| "subscriber thread panicked")?)?;
        server.kill()?;

        let (restarted, recovery, _) = restart_to_ping(cfg, None)?;
        out.sample("recovery_s", stats::secs(recovery));
        restarted.kill()?;

        out.sample("events_per_s", counters.2 as f64 / stats::secs(took));
        out.sample("cpu_us_per_event", (cpu1 - cpu0) * 1e6 / events as f64);
        out.sample("peak_rss_mb", rss);
        check_events(out, "serve_paced events", events, counters);
        latencies(out, &input, &got, &sched);

        let keys: Vec<Key> = got.into_iter().map(|(_, k, _)| k).collect();
        let check = |ks: &[Key]| check::check_against(&input.expected, ks, input.due_before);
        out.verdict("serve_paced matches", &check(&keys), keys.len());
        if first_check {
            check::self_test("serve checker", &keys, 0, check)?;
            first_check = false;
        }
        Ok(())
    })?;
    out.note(format!(
        "serve_paced: {done} round(s); generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        median(&lateness),
        quantile(&lateness, 0.99).unwrap_or(0.0),
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    Ok(out)
}

/// `serve_durable`: the same traffic to a durable server, unpaced; then
/// SIGKILL, restart on the same directory and resume the subscription.
pub fn serve_durable(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = serve_input(cfg)?;
    let events = SERVE_EVENTS as u64;
    let target = input.release.len();
    out.note(format!(
        "serve_durable: {events} events per round, unpaced, {target} matches released"
    ));
    let mut round_no = 0;
    let mut first_check = true;

    let done = rounds(cfg.seconds, &mut out, |out| {
        round_no += 1;
        let dir = wire::scratch_dir(&cfg.root, &format!("durable-{round_no}"));
        let _ = std::fs::remove_dir_all(&dir);
        let result = durable_round(cfg, &input, &dir, out, &mut first_check);
        let _ = std::fs::remove_dir_all(&dir);
        result
    })?;
    out.note(format!("serve_durable: {done} round(s)"));
    Ok(out)
}

fn durable_round(
    cfg: &Config,
    input: &ServeInput,
    dir: &Path,
    out: &mut Outcome,
    first_check: &mut bool,
) -> Result<(), String> {
    let events = SERVE_EVENTS as u64;
    setup_samples(cfg, Some(dir), &input.query, out)?;
    let t = Instant::now();
    let (server, sub, mut prod) = start_subscribed(cfg, Some(dir), &input.query)?;
    out.sample("setup_s", stats::secs(t.elapsed()));
    let count = Arc::new(AtomicUsize::new(0));
    let closer = sub.try_clone()?;
    let reader = spawn_subscriber(sub, Arc::clone(&count));

    let cpu0 = stats::cpu_seconds(server.pid())?;
    let t0 = Instant::now();
    let mut sent_at = Vec::with_capacity(input.lines.len());
    for line in &input.lines {
        sent_at.push(Instant::now());
        prod.send(line)?;
    }
    let counters = sync(&mut prod)?;
    let took = t0.elapsed();
    let cpu1 = stats::cpu_seconds(server.pid())?;
    await_count(&count, input.release.len());
    let rss = stats::peak_rss_mb(server.pid())?;
    server.kill()?;
    closer.close();
    let got = parse_matches(&reader.join().map_err(|_| "subscriber thread panicked")?)?;

    out.sample("events_per_s", events as f64 / stats::secs(took));
    out.sample("cpu_us_per_event", (cpu1 - cpu0) * 1e6 / events as f64);
    out.sample("peak_rss_mb", rss);
    check_events(out, "serve_durable events", events, counters);
    latencies(out, input, &got, &sent_at);

    // Restart on the same directory, then resume from what was read.
    let (server, recovery, pong) = restart_to_ping(cfg, Some(dir))?;
    out.sample("recovery_s", stats::secs(recovery));
    let consumed = wire::u64_field(&pong, "consumed").unwrap_or(0);
    out.fail(
        events.abs_diff(consumed),
        format!("serve_durable: restarted server consumed {consumed} of {events} events"),
    );
    let cursor = got.len() as u64;
    let in_order = got
        .iter()
        .enumerate()
        .all(|(i, (s, _, _))| *s == i as u64 + 1);
    out.fail(
        (!in_order) as u64,
        "serve_durable: match seqs before the kill are not 1..n".into(),
    );
    let mut conn = Conn::connect(&server.addr)?;
    let reply = conn.subscribe("q1", &input.query, cursor)?;
    let resend = wire::u64_field(&reply, "resend").unwrap_or(0);
    let seq = wire::u64_field(&reply, "seq").unwrap_or(0);
    let mut resent = Vec::new();
    while (resent.len() as u64) < resend {
        let line = conn
            .read_line()?
            .ok_or("server closed the resumed subscription")?;
        if wire::str_field(&line, "op") == Some("match") {
            resent.push((Instant::now(), line));
        }
    }
    conn.close();
    server.kill()?;
    let resent = parse_matches(&resent)?;
    let contiguous = resent
        .iter()
        .enumerate()
        .all(|(i, (s, _, _))| *s == cursor + i as u64 + 1)
        && cursor + resend == seq;
    out.fail(
        (!contiguous) as u64,
        format!("serve_durable: resume from {cursor} resent {resend} up to seq {seq}"),
    );

    let keys: Vec<Key> = got.into_iter().chain(resent).map(|(_, k, _)| k).collect();
    let check = |ks: &[Key]| check::check_against(&input.expected, ks, input.due_before);
    out.verdict("serve_durable matches", &check(&keys), keys.len());
    if *first_check {
        check::self_test("serve checker", &keys, 0, check)?;
        *first_check = false;
    }
    Ok(())
}

/// The metrics of a run, in report order, with units.
pub fn metrics(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let mut m = Vec::new();
    for (name, unit) in [
        ("setup_s", "s"),
        ("events_per_s", "1/s"),
        ("match_latency_p50_ms", "ms"),
        ("cpu_us_per_event", "us"),
        ("peak_rss_mb", "MB"),
        ("recovery_s", "s"),
    ] {
        if let Some(v) = out.metric(name) {
            m.push((name, v, unit));
        }
    }
    m
}

/// The pooled 99th-percentile match latency and its sample count, when
/// at least ten samples lie beyond it. Printed, not reported: its
/// spread between runs is wider than any bound it could be given (see
/// the README).
pub fn latency_p99(out: &Outcome) -> Option<(f64, usize)> {
    let n = out.count_of("latency_pool");
    (n >= 1000).then(|| out.p99("latency_pool").map(|v| (v, n)))?
}
