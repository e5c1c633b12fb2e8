//! `perfbench-trace`: the traced run. For the workload's input it times
//! each layer through the layer's public functions, records spans (see
//! [`spans`]), runs the untraced path once for comparison, and prints
//! the per-layer metrics. Its own package, so an API change that breaks
//! it leaves the end-to-end binary building.
//!
//! Every workload runs every layer on its own stream, so each traced run
//! reports every per-layer metric:
//!
//! 1. query and core: parse and compile each query, then batch
//!    `execute` (timed without a probe, counted in a second run) and
//!    Maximal `select_with` per query;
//! 2. bank: one `PatternBank` of all queries, pushes one at a time, then
//!    `finish`;
//! 3. server: the workload's wire lines replayed in process through
//!    `protocol::parse_request`, `protocol::event_values`, a
//!    `BoundedQueue` handed to a second thread, `PatternBank::push` and
//!    `protocol::match_line`;
//! 4. store: the durable router's write path (`EventLog` append and
//!    sync, `MatchLog` appends, `CheckpointStore::save` every 1000
//!    events), then its read path (`EventLog::scan`, checkpoint load and
//!    `PatternBank::restore`, replay of the suffix);
//! 5. a real `ses-server` round on the same lines, paced for
//!    `serve_paced` and durable for `serve_durable`, whose CPU per event
//!    less the named server layers is the residual, and whose `stats`
//!    verb gives the counts the server exposes.

mod spans;

use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::args::{print_result, Args};
use perfbench::inputs;
use perfbench::stats;
use perfbench::wire::{self, Conn, ServerProc};
use perfbench::workloads::{self, PACED_RATE, SERVE_EVENTS};
use ses_core::{
    execute, filter_negations, select_with, AdjudicationMode, ExecOptions, MatchSemantics, Matcher,
    MatcherOptions, MatcherSnapshot, NoProbe, PatternBank,
};
use ses_event::{Relation, Schema, Timestamp, Value};
use ses_metrics::CountingProbe;
use ses_pattern::Pattern;
use ses_query::TickUnit;
use ses_server::{protocol, BoundedQueue};
use ses_store::{CheckpointStore, EventLog, LogConfig, MatchLog};

use spans::Tracer;

/// Pushes per bank span.
const CHUNK: usize = 4096;
/// The server's default checkpoint cadence, in events.
const CHECKPOINT_EVERY: usize = 1000;
/// The server's default checkpoint retention.
const KEEP: usize = 3;
/// The server's default core queue bound.
const QUEUE: usize = 1024;
/// A queue pop or push slower than this blocked on an empty or full
/// queue.
const POP_WAIT: Duration = Duration::from_micros(5);

/// A workload's input as every layer sees it.
struct Input {
    /// The full stream (batch and bank layers).
    stream: Relation,
    /// The prefix the server and store layers replay.
    serve: Relation,
    queries: Vec<(String, String)>,
    tick: TickUnit,
    tick_name: &'static str,
    schema_spec: &'static str,
}

fn prefix(rel: &Relation, n: usize) -> Relation {
    let mut b = Relation::builder(rel.schema().clone());
    for e in &rel.events()[..n.min(rel.len())] {
        b = b.event(e.clone());
    }
    b.build()
}

fn input(args: &Args) -> Result<Input, String> {
    if args.workload == "bank_64" {
        let cfg = inputs::bank_config(args.seed);
        let stream = inputs::bank_stream(&cfg);
        return Ok(Input {
            serve: prefix(&stream, SERVE_EVENTS),
            stream,
            queries: inputs::bank_queries(&cfg),
            tick: TickUnit::Abstract,
            tick_name: "abstract",
            schema_spec: wire::BANK_SCHEMA,
        });
    }
    let rel = inputs::q1_relation(args.seed);
    let query = ses_query::render(&inputs::q1_pattern(&inputs::q1_file(&args.root)?)?);
    let stream = if args.workload == "find_q1" {
        rel
    } else {
        prefix(&rel, SERVE_EVENTS)
    };
    Ok(Input {
        serve: prefix(&stream, SERVE_EVENTS),
        stream,
        queries: vec![("q1".to_string(), query)],
        tick: TickUnit::Hour,
        tick_name: "hour",
        schema_spec: wire::Q1_SCHEMA,
    })
}

/// Metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Layer 1: parse, compile, batch execute and adjudicate every query.
/// Returns the patterns and the summed engine + adjudication time.
fn core_layers(
    tr: &mut Tracer,
    input: &Input,
    m: &mut Metrics,
) -> Result<(Vec<Pattern>, Duration, usize), String> {
    let schema = input.stream.schema();
    let root = tr.open();
    let t_root = Instant::now();
    let mut patterns = Vec::new();
    let mut matchers = Vec::new();
    for (_, text) in &input.queries {
        let t = Instant::now();
        let p = ses_query::parse_pattern(text, input.tick).map_err(err)?;
        tr.span("query.parse", Some(root), t, 1);
        let t = Instant::now();
        let matcher = Matcher::compile(&p, schema).map_err(err)?;
        tr.span("core.matcher_build", Some(root), t, 1);
        patterns.push(p);
        matchers.push(matcher);
    }
    let mut probe = CountingProbe::new();
    let mut raw_total = 0usize;
    let mut found = 0usize;
    for matcher in &matchers {
        let t = Instant::now();
        let raw = execute(
            matcher.automaton(),
            &input.stream,
            &ExecOptions::default(),
            &mut NoProbe,
        );
        tr.span("core.engine", Some(root), t, input.stream.len() as u64);
        // Counts come from a second, untimed run: a counting probe slows
        // the engine by about a tenth.
        let counted = execute(
            matcher.automaton(),
            &input.stream,
            &ExecOptions::default(),
            &mut probe,
        );
        if counted.len() != raw.len() {
            return Err("the counted engine run found other raw matches".into());
        }
        raw_total += raw.len();
        let t = Instant::now();
        let pattern = matcher.automaton().pattern();
        let raw = filter_negations(raw, &input.stream, pattern);
        let out = select_with(
            raw,
            &input.stream,
            pattern,
            MatchSemantics::Maximal,
            AdjudicationMode::Indexed,
        );
        found += out.len();
        tr.span("core.adjudicate", Some(root), t, out.len() as u64);
    }
    tr.close(root, "core.batch", None, t_root, matchers.len() as u64);

    let read = probe.events_read.max(1) as f64;
    m.put(
        "query.parse_ms",
        tr.work("query.parse").as_secs_f64() * 1e3,
        "ms",
    );
    m.put(
        "core.matcher_build_ms",
        tr.work("core.matcher_build").as_secs_f64() * 1e3,
        "ms",
    );
    m.put("core.engine_s", tr.work("core.engine").as_secs_f64(), "s");
    m.put(
        "core.adjudicate_s",
        tr.work("core.adjudicate").as_secs_f64(),
        "s",
    );
    m.put(
        "core.events_filtered",
        probe.events_filtered as f64,
        "count",
    );
    m.put(
        "core.instances_spawned",
        probe.instances_spawned as f64,
        "count",
    );
    m.put(
        "core.transitions_evaluated",
        probe.transitions_evaluated as f64,
        "count",
    );
    m.put("core.raw_matches", raw_total as f64, "count");
    m.put(
        "core.filter_pass_ratio",
        (read - probe.events_filtered as f64) / read,
        "ratio",
    );
    Ok((
        patterns,
        tr.work("core.engine") + tr.work("core.adjudicate"),
        found,
    ))
}

fn bank_of(input: &Input, patterns: &[Pattern]) -> Result<PatternBank, String> {
    let mut b = PatternBank::builder(input.stream.schema()).with_eviction(true);
    for ((name, _), p) in input.queries.iter().zip(patterns) {
        b = b
            .register(name.clone(), p, MatcherOptions::default())
            .map_err(err)?;
    }
    Ok(b.build())
}

/// The untraced bank pass: pushes and `finish`, timed as a whole.
fn bank_untraced(input: &Input, patterns: &[Pattern]) -> Result<(Duration, usize), String> {
    let mut bank = bank_of(input, patterns)?;
    let rows = inputs::rows(&input.stream);
    let t = Instant::now();
    let mut n = 0;
    for (ts, values) in rows {
        n += bank.push(ts, values).map_err(err)?.len();
    }
    n += bank.finish().len();
    Ok((t.elapsed(), black_box(n)))
}

/// Layer 2: the bank, traced in chunks of pushes.
fn bank_layer(
    tr: &mut Tracer,
    input: &Input,
    patterns: &[Pattern],
    m: &mut Metrics,
) -> Result<(Duration, usize), String> {
    let root = tr.open();
    let t_root = Instant::now();
    let t = Instant::now();
    let mut bank = bank_of(input, patterns)?;
    tr.span("bank.build", Some(root), t, patterns.len() as u64);
    let rows = inputs::rows(&input.stream);
    let events = rows.len();
    let mut matches = 0usize;
    let mut retained_peak = 0usize;
    let mut t = Instant::now();
    for (i, (ts, values)) in rows.into_iter().enumerate() {
        matches += bank.push(ts, values).map_err(err)?.len();
        if (i + 1) % CHUNK == 0 || i + 1 == events {
            tr.span("bank.push", Some(root), t, (i % CHUNK + 1) as u64);
            retained_peak = retained_peak.max(bank.retained_events());
            t = Instant::now();
        }
    }
    let (hits, skips) = (bank.total_hits(), bank.total_skips());
    let t = Instant::now();
    matches += bank.finish().len();
    tr.span("bank.finish", Some(root), t, 1);
    tr.close(root, "bank.run", None, t_root, events as u64);

    let pushes = events.max(1) as f64;
    m.put(
        "bank.build_ms",
        tr.work("bank.build").as_secs_f64() * 1e3,
        "ms",
    );
    m.put("bank.push_ns_mean", ns(tr.work("bank.push")) / pushes, "ns");
    m.put(
        "bank.finish_ms",
        tr.work("bank.finish").as_secs_f64() * 1e3,
        "ms",
    );
    m.put("bank.routed_pushes", hits as f64, "count");
    m.put("bank.heartbeats", skips as f64, "count");
    m.put(
        "bank.routed_ratio",
        hits as f64 / (pushes * patterns.len().max(1) as f64),
        "ratio",
    );
    m.put("bank.retained_events_peak", retained_peak as f64, "count");
    m.put("bank.matches", matches as f64, "count");
    Ok((tr.work("bank.push") + tr.work("bank.finish"), matches))
}

/// One typed event on the replay's queue; `None` ends the stream.
type Row = (i64, Vec<Value>);

/// Per-layer sums of the in-process server replay, in nanoseconds.
#[derive(Default)]
struct ServerLayers {
    parse: f64,
    values: f64,
    handoff: f64,
    push: f64,
    render: f64,
    matches: usize,
}

/// Layer 3: the server's ingest path in process. `timed` off runs the
/// same calls without per-call clocks, for the overhead figure.
fn server_replay(
    tr: &mut Tracer,
    origin: Instant,
    input: &Input,
    patterns: &[Pattern],
    lines: &[String],
    timed: bool,
) -> Result<(ServerLayers, Duration), String> {
    let schema: Schema = input.serve.schema().clone();
    let queue: Arc<BoundedQueue<Option<Row>>> = Arc::new(BoundedQueue::new(QUEUE));
    let mut bank = bank_of(input, patterns)?;
    let names: Vec<String> = input.queries.iter().map(|(n, _)| n.clone()).collect();
    let patterns_b = patterns.to_vec();
    let root = tr.open();
    let t_root = Instant::now();

    let router = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || -> Result<(Tracer, ServerLayers), String> {
            let mut tr = Tracer::new(origin, 1 << 40);
            let mut l = ServerLayers::default();
            let mut seq = vec![0u64; names.len()];
            let (mut pop, mut push, mut render, mut n) =
                (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0u64);
            let mut span_start = Instant::now();
            let clock = || timed.then(Instant::now);
            loop {
                let t0 = clock();
                let item = queue.pop();
                let t1 = clock();
                let Some(Some((ts, values))) = item else {
                    break;
                };
                if let (Some(a), Some(b)) = (t0, t1) {
                    // A pop that blocked waited for the producer; only
                    // the handoff of a ready item counts.
                    if b - a < POP_WAIT {
                        pop += b - a;
                    }
                }
                let emitted = bank.push(Timestamp::new(ts), values).map_err(err)?;
                let t2 = clock();
                if let (Some(a), Some(b)) = (t1, t2) {
                    push += b - a;
                }
                if !emitted.is_empty() {
                    for (q, m) in emitted {
                        seq[q] += 1;
                        black_box(protocol::match_line(
                            &names[q],
                            seq[q],
                            &m.display_with(&patterns_b[q]),
                        ));
                        l.matches += 1;
                    }
                    if let Some(a) = t2 {
                        render += a.elapsed();
                    }
                }
                n += 1;
                if timed && n % wire::BATCH as u64 == 0 {
                    let now = Instant::now();
                    tr.record("server.queue_pop", Some(root), span_start, now, pop, n);
                    tr.record("server.bank_push", Some(root), span_start, now, push, n);
                    tr.record(
                        "server.match_render",
                        Some(root),
                        span_start,
                        now,
                        render,
                        n,
                    );
                    l.handoff += ns(pop);
                    l.push += ns(push);
                    l.render += ns(render);
                    (pop, push, render, n) = (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0);
                    span_start = now;
                }
            }
            let now = Instant::now();
            tr.record("server.queue_pop", Some(root), span_start, now, pop, n);
            tr.record("server.bank_push", Some(root), span_start, now, push, n);
            tr.record(
                "server.match_render",
                Some(root),
                span_start,
                now,
                render,
                n,
            );
            l.handoff += ns(pop);
            l.push += ns(push);
            l.render += ns(render);
            Ok((tr, l))
        })
    };

    let mut a = ServerLayers::default();
    let mut failure = None;
    for line in lines {
        let t0 = Instant::now();
        let req = protocol::parse_request(line);
        let t1 = Instant::now();
        let events = match req {
            Ok(protocol::Request::Batch { events }) => events,
            other => {
                failure = Some(format!("replay: expected a batch line, got {other:?}"));
                break;
            }
        };
        let count = events.len() as u64;
        let mut typed = Vec::with_capacity(events.len());
        for (ts, raw) in &events {
            match protocol::event_values(&schema, raw) {
                Ok(v) => typed.push((*ts, v)),
                Err(e) => failure = Some(e),
            }
        }
        let t2 = Instant::now();
        let mut push = Duration::ZERO;
        for item in typed {
            if !timed {
                queue.push(Some(item));
                continue;
            }
            let t = Instant::now();
            queue.push(Some(item));
            // A push that blocked on a full queue waited for the router.
            let took = t.elapsed();
            if took < POP_WAIT {
                push += took;
            }
        }
        let t3 = Instant::now();
        if timed {
            tr.record("server.parse_request", Some(root), t0, t1, t1 - t0, count);
            tr.record("server.event_values", Some(root), t1, t2, t2 - t1, count);
            tr.record("server.queue_push", Some(root), t2, t3, push, count);
            a.parse += ns(t1 - t0);
            a.values += ns(t2 - t1);
            a.handoff += ns(push);
        }
    }
    queue.push(None);
    let (btr, b) = router.join().map_err(|_| "router thread panicked")??;
    let took = t_root.elapsed();
    tr.close(root, "server.replay", None, t_root, lines.len() as u64);
    if let Some(f) = failure {
        return Err(f);
    }
    if timed {
        tr.absorb(btr);
    }
    Ok((
        ServerLayers {
            parse: a.parse,
            values: a.values,
            handoff: a.handoff + b.handoff,
            push: b.push,
            render: b.render,
            matches: b.matches,
        },
        took,
    ))
}

/// Layer 4: the durable router's write path, then its restart path.
/// Returns the checkpoints saved and their bytes.
fn store_layers(
    tr: &mut Tracer,
    args: &Args,
    input: &Input,
    patterns: &[Pattern],
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let dir = wire::scratch_dir(&args.root, "trace-store");
    let _ = std::fs::remove_dir_all(&dir);
    let result = store_in(tr, &dir, input, patterns, m);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn store_in(
    tr: &mut Tracer,
    dir: &std::path::Path,
    input: &Input,
    patterns: &[Pattern],
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let schema = input.serve.schema().clone();
    let root = tr.open();
    let t_root = Instant::now();
    let mut log =
        EventLog::create(dir.join("events"), schema.clone(), LogConfig::default()).map_err(err)?;
    let mut store = CheckpointStore::open(dir, KEEP).map_err(err)?;
    let mut match_logs = (0..patterns.len())
        .map(|i| MatchLog::open(dir.join(format!("sub-{i}.matches.log"))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut bank = bank_of(input, patterns)?;
    let (mut append, mut sync, mut mlog, mut save) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut syncs, mut mlines, mut saves) = (0u64, 0u64, 0u64);
    let (mut checkpoints, mut bytes) = (0u64, 0u64);
    let mut since = 0usize;
    let mut span_start = Instant::now();
    for (i, e) in input.serve.events().iter().enumerate() {
        let t0 = Instant::now();
        log.append(e.ts(), e.values().to_vec()).map_err(err)?;
        let t1 = Instant::now();
        append += t1 - t0;
        let emitted = bank.push(e.ts(), e.values().to_vec()).map_err(err)?;
        if !emitted.is_empty() {
            // The event log is synced before any match is made durable.
            let t = Instant::now();
            log.sync().map_err(err)?;
            sync += t.elapsed();
            syncs += 1;
            for (q, mt) in emitted {
                let line = mt.display_with(&patterns[q]);
                let t = Instant::now();
                match_logs[q].append(&line).map_err(err)?;
                mlog += t.elapsed();
                mlines += 1;
            }
        }
        since += 1;
        if since >= CHECKPOINT_EVERY {
            since = 0;
            let t = Instant::now();
            log.sync().map_err(err)?;
            for l in &mut match_logs {
                l.sync().map_err(err)?;
            }
            sync += t.elapsed();
            syncs += 1;
            let t = Instant::now();
            let info = store
                .save(&MatcherSnapshot::Bank(bank.snapshot()))
                .map_err(err)?;
            save += t.elapsed();
            saves += 1;
            checkpoints += 1;
            bytes += info.bytes;
        }
        if (i + 1) % CHUNK == 0 || i + 1 == input.serve.len() {
            let now = Instant::now();
            let n = (i % CHUNK + 1) as u64;
            tr.record("store.log_append", Some(root), span_start, now, append, n);
            tr.record("store.log_sync", Some(root), span_start, now, sync, syncs);
            tr.record(
                "store.match_log_append",
                Some(root),
                span_start,
                now,
                mlog,
                mlines,
            );
            tr.record(
                "store.checkpoint_save",
                Some(root),
                span_start,
                now,
                save,
                saves,
            );
            (append, sync, mlog, save) = (
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
            );
            (syncs, mlines, saves) = (0, 0, 0);
            span_start = now;
        }
    }
    log.sync().map_err(err)?;
    drop(log);
    tr.close(root, "store.write", None, t_root, input.serve.len() as u64);

    // Restart: scan the log, load the newest checkpoint, restore, replay.
    let root = tr.open();
    let t_root = Instant::now();
    let t = Instant::now();
    let rel = EventLog::open(dir.join("events"), LogConfig::default())
        .and_then(|l| l.scan())
        .map_err(err)?;
    tr.span("store.log_scan", Some(root), t, rel.len() as u64);
    let t = Instant::now();
    let loaded = store
        .load_latest()
        .map_err(err)?
        .ok_or("no checkpoint was saved")?;
    let MatcherSnapshot::Bank(snap) = loaded.snapshot else {
        return Err("checkpoint is not a bank snapshot".into());
    };
    let specs: Vec<(String, Pattern, MatcherOptions)> = input
        .queries
        .iter()
        .zip(patterns)
        .map(|((n, _), p)| (n.clone(), p.clone(), MatcherOptions::default()))
        .collect();
    let mut restored = PatternBank::restore(&specs, &schema, &snap).map_err(err)?;
    tr.span("store.restore", Some(root), t, 1);
    let skip = snap.next_id as usize;
    let t = Instant::now();
    for e in rel.events().iter().skip(skip) {
        restored.push(e.ts(), e.values().to_vec()).map_err(err)?;
    }
    let replayed = rel.len().saturating_sub(skip);
    tr.span("store.replay", Some(root), t, replayed as u64);
    tr.close(root, "store.restart", None, t_root, 1);

    let events = input.serve.len().max(1) as f64;
    m.put(
        "store.log_append_ns_per_event",
        ns(tr.work("store.log_append")) / events,
        "ns",
    );
    m.put(
        "store.log_sync_ms",
        tr.work("store.log_sync").as_secs_f64() * 1e3 / tr.count("store.log_sync").max(1) as f64,
        "ms",
    );
    m.put(
        "store.checkpoint_save_ms",
        tr.work("store.checkpoint_save").as_secs_f64() * 1e3
            / tr.count("store.checkpoint_save").max(1) as f64,
        "ms",
    );
    m.put(
        "store.match_log_append_us",
        tr.work("store.match_log_append").as_secs_f64() * 1e6
            / tr.count("store.match_log_append").max(1) as f64,
        "us",
    );
    m.put(
        "store.log_scan_s",
        tr.work("store.log_scan").as_secs_f64(),
        "s",
    );
    m.put(
        "store.restore_ms",
        tr.work("store.restore").as_secs_f64() * 1e3,
        "ms",
    );
    m.put("store.replayed_events", replayed as f64, "count");
    Ok((checkpoints, bytes))
}

/// What the real server round reports.
struct ServerRound {
    start: Duration,
    cpu_ns_per_event: f64,
    stats: String,
    matches: usize,
}

/// Layer 5: one `ses-server` round on the prefix's wire lines.
fn server_round(args: &Args, input: &Input, lines: &[String]) -> Result<ServerRound, String> {
    let durable = args.workload == "serve_durable";
    let dir = wire::scratch_dir(&args.root, "trace-server");
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let server = ServerProc::start_with(
        &args.server_bin,
        input.schema_spec,
        input.tick_name,
        durable.then_some(dir.as_path()),
    )?;
    let start = t.elapsed();
    let mut sub = Conn::connect(&server.addr)?;
    for (name, text) in &input.queries {
        sub.subscribe(name, text, 0)?;
    }
    let mut prod = Conn::connect(&server.addr)?;
    let count = Arc::new(AtomicUsize::new(0));
    let closer = sub.try_clone()?;
    let reader = workloads::spawn_subscriber(sub, Arc::clone(&count));
    let period = Duration::from_secs_f64(wire::BATCH as f64 / PACED_RATE);
    let cpu0 = stats::cpu_seconds(server.pid())?;
    let t0 = Instant::now();
    for (k, line) in lines.iter().enumerate() {
        if args.workload == "serve_paced" {
            let due = t0 + period * k as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        prod.send(line)?;
    }
    let (_, _, consumed, _) = workloads::sync(&mut prod)?;
    let cpu1 = stats::cpu_seconds(server.pid())?;
    let (stats_line, _) = prod.request("{\"op\":\"stats\"}\n", "stats")?;
    closer.close();
    let matches = reader
        .join()
        .map_err(|_| "subscriber thread panicked")?
        .len();
    server.kill()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ServerRound {
        start,
        cpu_ns_per_event: (cpu1 - cpu0) * 1e9 / consumed.max(1) as f64,
        stats: stats_line,
        matches,
    })
}

fn run(args: &Args) -> Result<(Metrics, Tracer, u64, Vec<String>), String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let input = input(args)?;
    let events = input.stream.len();

    // The untraced find runs once to warm up and once timed, before
    // the traced layers.
    let find_untraced = if args.workload == "find_q1" {
        let p = ses_query::parse_pattern(&input.queries[0].1, input.tick).map_err(err)?;
        let matcher = Matcher::compile(&p, input.stream.schema()).map_err(err)?;
        black_box(matcher.find(&input.stream));
        let t = Instant::now();
        let n = black_box(matcher.find(&input.stream)).len();
        Some((t.elapsed(), n))
    } else {
        None
    };
    let (patterns, engine_and_adjudicate, batch_matches) = core_layers(&mut tr, &input, &mut m)?;
    if let Some((_, n)) = find_untraced {
        if n != batch_matches {
            return Err(format!(
                "traced batch found {batch_matches} matches, untraced {n}"
            ));
        }
    }
    let (bank_untraced, bank_untraced_matches) = bank_untraced(&input, &patterns)?;
    let (bank_traced, bank_matches) = bank_layer(&mut tr, &input, &patterns, &mut m)?;
    if bank_matches != bank_untraced_matches {
        return Err(format!(
            "traced bank found {bank_matches} matches, untraced {bank_untraced_matches}"
        ));
    }

    let lines = wire::batch_lines(&input.serve, input.serve.len());
    let served = input.serve.len().max(1) as f64;
    let (_, replay_untraced) = server_replay(
        &mut Tracer::new(origin, 1 << 50),
        origin,
        &input,
        &patterns,
        &lines,
        false,
    )?;
    let (layers, replay_traced) = server_replay(&mut tr, origin, &input, &patterns, &lines, true)?;
    let (checkpoints, checkpoint_bytes) = store_layers(&mut tr, args, &input, &patterns, &mut m)?;
    let round = server_round(args, &input, &lines)?;
    if round.matches != layers.matches {
        notes.push(format!(
            "server round delivered {} matches, the in-process replay {} (the round reads until sync, not until finish)",
            round.matches, layers.matches
        ));
    }

    let mut named =
        (layers.parse + layers.values + layers.handoff + layers.push + layers.render) / served;
    if args.workload == "serve_durable" {
        // The durable server also runs the store's write path. Its spans
        // include fsync waits, which are not CPU time, so the residual
        // here is a lower bound.
        named += [
            "store.log_append",
            "store.log_sync",
            "store.match_log_append",
            "store.checkpoint_save",
        ]
        .iter()
        .map(|n| ns(tr.work(n)))
        .sum::<f64>()
            / served;
    }
    m.put(
        "server.parse_request_ns_per_event",
        layers.parse / served,
        "ns",
    );
    m.put(
        "server.event_values_ns_per_event",
        layers.values / served,
        "ns",
    );
    m.put(
        "server.queue_handoff_ns_per_event",
        layers.handoff / served,
        "ns",
    );
    m.put("server.bank_push_ns_per_event", layers.push / served, "ns");
    m.put(
        "server.match_render_us_per_match",
        layers.render / 1e3 / layers.matches.max(1) as f64,
        "us",
    );
    m.put(
        "server.residual_ns_per_event",
        round.cpu_ns_per_event - named,
        "ns",
    );
    let bytes: usize = lines.iter().map(String::len).sum();
    m.put("server.wire_bytes_per_event", bytes as f64 / served, "B");
    m.put(
        "server.queue_high_water",
        wire::u64_field(&round.stats, "high_water").unwrap_or(0) as f64,
        "count",
    );
    m.put("server.start_ms", round.start.as_secs_f64() * 1e3, "ms");
    // A durable server counts its own checkpoints; a memory-only one
    // saves none, so the in-process write path's counts stand in.
    let (checkpoints, checkpoint_bytes) = if args.workload == "serve_durable" {
        (
            wire::u64_field(&round.stats, "checkpoints").unwrap_or(0),
            wire::u64_field(&round.stats, "checkpoint_bytes").unwrap_or(0),
        )
    } else {
        (checkpoints, checkpoint_bytes)
    };
    m.put("store.checkpoints", checkpoints as f64, "count");
    m.put("store.checkpoint_bytes", checkpoint_bytes as f64, "B");

    // How much of the untraced end-to-end time the traced layers cover.
    let (ratio, what) = match find_untraced.map(|(t, _)| t) {
        Some(untraced) => (
            engine_and_adjudicate.as_secs_f64() / untraced.as_secs_f64(),
            format!(
                "find: engine + adjudication {:.3} s traced vs find {:.3} s untraced",
                engine_and_adjudicate.as_secs_f64(),
                untraced.as_secs_f64()
            ),
        ),
        None if args.workload == "bank_64" => (
            bank_traced.as_secs_f64() / bank_untraced.as_secs_f64(),
            format!(
                "bank: pushes + finish {:.3} s traced vs {:.3} s untraced",
                bank_traced.as_secs_f64(),
                bank_untraced.as_secs_f64()
            ),
        ),
        None => (
            named / round.cpu_ns_per_event,
            format!(
                "server: named layers {named:.0} ns/event of {:.0} ns/event server CPU",
                round.cpu_ns_per_event
            ),
        ),
    };
    m.put("trace.layer_sum_ratio", ratio, "ratio");
    notes.push(format!("layer sum: {what}"));
    notes.push(format!(
        "tracing overhead: server replay {:.3} s traced vs {:.3} s untraced; bank {:.3} s vs {:.3} s",
        replay_traced.as_secs_f64(),
        replay_untraced.as_secs_f64(),
        bank_traced.as_secs_f64(),
        bank_untraced.as_secs_f64()
    ));
    notes.push(format!(
        "server stats: hits {} skips {} over {} pattern(s)",
        wire::u64_field_sum(&round.stats, "hits"),
        wire::u64_field_sum(&round.stats, "skips"),
        input.queries.len()
    ));
    let attempted = (events + 3 * input.serve.len()) as u64;
    Ok((m, tr, attempted, notes))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    };
    println!("machine: {}", stats::machine());
    println!("traced workload {} seed {}", args.workload, args.seed);
    let (m, tr, attempted, notes) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench-trace: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = tr.write(path) {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(1);
        }
        println!("spans: {} ({} spans)", path.display(), tr.len());
    }
    for n in &notes {
        println!("{n}");
    }
    for (name, value, unit) in &m.0 {
        println!("{name:>36} {value:>18.6} {unit}");
    }
    print_result(true, attempted, 0, &m.0);
}
