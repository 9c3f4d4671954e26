//! `live_sync`: three live sessions, each a `DurableMigration` (default
//! `DurableOptions`) fed in lockstep with a `ServedMigration`.
//!
//! Every batch carries 32 held-out source rows to insert and 32 live rows
//! to delete, and is followed by a burst of point lookups with the first
//! column bound. At the end of a pass each session is dropped without a
//! checkpoint and reopened, so recovery replays the pass's WAL. This is
//! the only workload that loads `datalog::{incremental, durable, query}`
//! and `instance::binio`, with writes beside reads.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dynamite_bench_suite::{all_benchmarks, Benchmark};
use dynamite_datalog::{evaluate, legacy, DurableOptions, Program};
use dynamite_instance::{from_facts, to_facts, Database, Instance, Relation, Value};
use dynamite_migrate::{DurableMigration, MaintainedMigration, ServedMigration};
use dynamite_schema::Schema;

use crate::migrate::same_facts;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::trace::{median, pct, Digest, Tracer, J};
use crate::{more_passes, peak_rss_mb, Args, Report};

/// Document→relational, graph→relational and relational→document.
const SCENARIOS: [&str; 3] = ["Mondial-1", "Soccer-1", "MLB-1"];
/// Generator scale: 51 k, 57 k and 120 k source facts at seed 11.
const SCALE: u64 = 475;
/// One top-level source record in `HOLDOUT` is held out of the initial
/// load; the stream inserts held-out rows.
const HOLDOUT: usize = 8;
/// Inserts and deletes per batch (each).
const BATCH: usize = 32;
/// Batches per session per pass, before the session is reopened.
const BATCHES_PER_PASS: usize = 24;
/// Lookups after each batch.
const BURST: usize = 32;
/// Skew: a lookup picks one of `HOT` fixed keys with probability
/// `HOT_P`, otherwise a uniform key. Repeats hit the answer cache, which
/// every batch clears; this keeps the hit rate near 15%, far from the
/// median, so lookup percentiles do not straddle hits and misses.
const HOT: usize = 4;
const HOT_P: f64 = 0.25;
/// Lookups of the last burst compared against evaluate-then-filter.
const CHECKED_LOOKUPS: usize = 8;

/// Per-layer metrics reported pooled and per scenario (suffix
/// `.<scenario>`).
const PER_SCENARIO: &[(&str, &str)] = &[
    ("incremental.apply_p50_ms", "ms"),
    ("incremental.delete_p50_ms", "ms"),
    ("incremental.insert_p50_ms", "ms"),
    ("incremental.rows_changed", "count"),
    ("durable.apply_p50_ms", "ms"),
    ("durable.wal_tax_ms", "ms"),
    ("durable.wal_bytes", "count"),
    ("durable.checkpoint_s", "s"),
    ("durable.load_s", "s"),
    ("durable.replay_s", "s"),
    ("durable.frames_replayed", "count"),
    ("query.swap_p50_ms", "ms"),
    ("query.cold_miss_p50_us", "us"),
    ("query.warm_miss_p50_us", "us"),
    ("query.hit_p50_us", "us"),
    ("query.hit_rate", "ratio"),
    ("query.fixpoints", "count"),
    ("query.fallbacks", "count"),
];

/// Sample counts of the pooled timings.
const SAMPLE_METRICS: &[(&str, &str)] = &[
    ("live.batch_samples", "count"),
    ("durable.open_samples", "count"),
    ("query.cold_miss_samples", "count"),
    ("query.warm_miss_samples", "count"),
    ("query.hit_samples", "count"),
];

/// Pooled per-layer metrics: every per-scenario metric plus sample counts.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    PER_SCENARIO
        .iter()
        .chain(SAMPLE_METRICS)
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

pub fn per_scenario_metrics() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for s in SCENARIOS {
        for (m, u) in PER_SCENARIO {
            v.push((format!("{m}.{s}"), *u));
        }
    }
    v
}

type Row = (String, Vec<Value>);

/// One session's generated inputs, replayed identically in every pass.
struct Inputs {
    name: &'static str,
    program: Program,
    target: Arc<Schema>,
    /// The initially loaded source instance.
    live: Instance,
    /// Held-out rows to insert and live rows to delete, in stream order.
    inserts: Vec<Row>,
    deletes: Vec<Row>,
    /// Lookup domain: (target relation, first-column value).
    keys: Vec<(String, Value)>,
    hot: Vec<usize>,
    arity: BTreeMap<String, usize>,
    lookup_seed: u64,
}

/// One session's handles during one pass.
struct Session {
    dir: PathBuf,
    dur: Option<DurableMigration>,
    served: ServedMigration,
    /// In-memory shadows (traced runs only): the batch in one call, and
    /// split into a delete call and an insert call.
    shadows: Option<(MaintainedMigration, MaintainedMigration)>,
    rng: StdRng,
    /// The first lookups of the last burst and their answers.
    last_burst: Vec<(String, Value, Relation)>,
}

/// Work counts of one session in one pass; identical in every pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Counts {
    rows_changed: u64,
    wal_bytes: u64,
    frames_replayed: u64,
    lookups: u64,
    hits: u64,
    fixpoints: u64,
    fallbacks: u64,
}

/// Timings of one session across passes.
#[derive(Default)]
struct Samples {
    // Untraced passes: the end-to-end figures of the detail line.
    sync_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    recover_s: Vec<f64>,
    // Traced passes.
    durable_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    shadow_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    hit_us: Vec<f64>,
    checkpoint_s: Vec<f64>,
    load_s: Vec<f64>,
    replay_s: Vec<f64>,
    counts: Option<Counts>,
}

/// Splits `full` into a live instance and held-out fact rows that share
/// one identifier space with the live facts.
fn split(full: &Instance, rng: &mut StdRng) -> (Instance, Vec<Row>, Database) {
    let mut live = Instance::new(full.schema().clone());
    let mut held = Vec::new();
    for (name, records) in full.iter() {
        for r in records {
            if rng.gen_range(0..HOLDOUT) == 0 {
                held.push((name.to_string(), r.clone()));
            } else {
                live.insert(name, r.clone())
                    .expect("generated record is valid");
            }
        }
    }
    // `to_facts` numbers nested records in traversal order, so appending
    // the held-out records after the live ones leaves every live fact —
    // ids included — as `DurableMigration::create` will derive it.
    let mut combined = live.clone();
    for (name, r) in held {
        combined
            .insert(&name, r)
            .expect("generated record is valid");
    }
    let live_facts = to_facts(&live);
    let all_facts = to_facts(&combined);
    let covered = live_facts.iter().all(|(n, r)| {
        all_facts
            .relation(n)
            .is_some_and(|a| r.iter().all(|row| a.contains_row(row)))
    });
    assert!(covered, "held-out split shifted the ids of live facts");
    let held_rows = all_facts
        .iter()
        .flat_map(|(n, r)| {
            let live_rel = live_facts.relation(n);
            r.iter()
                .filter(move |row| !live_rel.is_some_and(|l| l.contains_row(*row)))
                .map(move |row| (n.to_string(), row.to_vec()))
        })
        .collect();
    (live, held_rows, live_facts)
}

fn rows(db: &Database) -> Vec<Row> {
    db.iter()
        .flat_map(|(n, r)| r.iter().map(move |row| (n.to_string(), row.to_vec())))
        .collect()
}

fn make_inputs(bs: &[Benchmark], seed: u64) -> Vec<Inputs> {
    SCENARIOS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let b = bs
                .iter()
                .find(|b| b.name == *name)
                .expect("live scenario exists in the corpus");
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(k as u64));
            let full = b.generate_source(SCALE, seed);
            let (live, mut inserts, live_facts) = split(&full, &mut rng);
            let mut deletes = rows(&live_facts);
            inserts.shuffle(&mut rng);
            deletes.shuffle(&mut rng);
            let out = evaluate(b.golden(), &live_facts).expect("initial output evaluates");
            let (mut keys, mut arity, mut seen) = (Vec::new(), BTreeMap::new(), HashSet::new());
            for (rel, r) in out.iter() {
                arity.insert(rel.to_string(), r.arity());
                for row in r.iter() {
                    let key = (rel.to_string(), row.at(0));
                    if seen.insert(key.clone()) {
                        keys.push(key);
                    }
                }
            }
            let hot = (0..HOT).map(|_| rng.gen_range(0..keys.len())).collect();
            Inputs {
                name,
                program: b.golden().clone(),
                target: b.target().clone(),
                live,
                inserts,
                deletes,
                keys,
                hot,
                arity,
                lookup_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// Brings the three sessions up: the set-up a user pays per session.
fn build(inputs: &[Inputs], root: &Path, rep: &mut Report) -> Option<Vec<Session>> {
    let mut sessions = Vec::new();
    for inp in inputs {
        let dir = root.join(inp.name);
        let dur = DurableMigration::create(&dir, &inp.program, &inp.live, inp.target.clone());
        let dur = rep.call(inp.name, dur)?;
        let served = ServedMigration::new(&inp.program, &inp.live, inp.target.clone());
        let served = rep.call(inp.name, served)?;
        sessions.push(Session {
            dir,
            dur: Some(dur),
            served,
            shadows: None,
            rng: StdRng::seed_from_u64(inp.lookup_seed),
            last_burst: Vec::new(),
        });
    }
    Some(sessions)
}

/// Gives every session its two in-memory shadows; false if one fails.
fn add_shadows(sessions: &mut [Session], inputs: &[Inputs], rep: &mut Report) -> bool {
    for (s, inp) in sessions.iter_mut().zip(inputs) {
        let mk = || MaintainedMigration::new(&inp.program, &inp.live, inp.target.clone());
        match (rep.call(inp.name, mk()), rep.call(inp.name, mk())) {
            (Some(a), Some(b)) => s.shadows = Some((a, b)),
            _ => return false,
        }
    }
    true
}

fn batch(inp: &Inputs, i: usize) -> (Database, Database) {
    let mut ins = Database::new();
    let mut del = Database::new();
    for (rel, row) in &inp.inserts[i * BATCH..(i + 1) * BATCH] {
        ins.insert(rel, row.clone());
    }
    for (rel, row) in &inp.deletes[i * BATCH..(i + 1) * BATCH] {
        del.insert(rel, row.clone());
    }
    (ins, del)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let record = tr.on;
    let root = args.out.join(format!("live-state-{}", std::process::id()));
    let inputs = make_inputs(&all_benchmarks(), args.seed);
    for inp in &inputs {
        assert!(
            inp.inserts.len().min(inp.deletes.len()) >= BATCHES_PER_PASS * BATCH,
            "{}: too few rows for a pass",
            inp.name
        );
    }
    let mut samples: Vec<Samples> = inputs.iter().map(|_| Samples::default()).collect();
    let mut sessions: Vec<Session> = Vec::new();
    let mut pass_parts = Vec::new();
    let started = Instant::now();
    let mut pass = 0usize;
    let mut request = 0u64;
    // Every pass starts fresh sessions from the same inputs and replays
    // the same stream, so passes do identical work; each build is one
    // set-up sample (untraced runs take at least three).
    while more_passes(started, args.seconds, pass, if record { 2 } else { 3 }) {
        drop(std::mem::take(&mut sessions));
        let _ = std::fs::remove_dir_all(&root);
        let Some(built) = rep.setup(1, |rep| build(&inputs, &root, rep)) else {
            break;
        };
        sessions = built;
        if record && !add_shadows(&mut sessions, &inputs, &mut rep) {
            break;
        }
        let traced = record && pass % 2 == 1;
        tr.on = traced;
        rep.start_pass(traced);
        // Seconds blocked in writes, lookups and recovery this pass.
        let mut parts = [0.0f64; 3];
        let mut counts = vec![Counts::default(); inputs.len()];
        for i in 0..BATCHES_PER_PASS {
            for (k, (s, inp)) in sessions.iter_mut().zip(&inputs).enumerate() {
                let (smp, cnt) = (&mut samples[k], &mut counts[k]);
                request += 1;
                let (ins, del) = batch(inp, i);
                let req = tr.open("live.request", None, request);
                let dur = s.dur.as_mut().expect("session is open");
                let (r, t_dur) = tr.time("durable.apply", req, request, || {
                    dur.apply_delta(&ins, &del)
                });
                if let Some(delta) = rep.call(inp.name, r) {
                    cnt.rows_changed +=
                        (delta.inserted.num_facts() + delta.deleted.num_facts()) as u64;
                }
                let served = &mut s.served;
                let (r, t_swap) = tr.time("query.swap", req, request, || {
                    served.apply_delta(&ins, &del)
                });
                rep.call(inp.name, r);
                rep.op(t_dur + t_swap);
                parts[0] += t_dur + t_swap;
                if traced {
                    smp.durable_ms.push(ms(t_dur));
                    smp.swap_ms.push(ms(t_swap));
                } else {
                    smp.sync_ms.push(ms(t_dur + t_swap));
                }
                // Shadows see every batch, so they track the durable
                // state; only traced passes keep their timings.
                if let Some((shadow, split)) = s.shadows.as_mut() {
                    let (r, t) = tr.time("incremental.apply", req, request, || {
                        shadow.apply_delta(&ins, &del)
                    });
                    rep.call(inp.name, r);
                    let empty = Database::new();
                    let (r, t_del) = tr.time("incremental.delete", req, request, || {
                        split.apply_delta(&empty, &del)
                    });
                    rep.call(inp.name, r);
                    let (r, t_ins) = tr.time("incremental.insert", req, request, || {
                        split.apply_delta(&ins, &empty)
                    });
                    rep.call(inp.name, r);
                    if traced {
                        smp.shadow_ms.push(ms(t));
                        smp.delete_ms.push(ms(t_del));
                        smp.insert_ms.push(ms(t_ins));
                    }
                }
                s.last_burst.clear();
                for j in 0..BURST {
                    let key = if s.rng.gen_bool(HOT_P) {
                        inp.hot[s.rng.gen_range(0..HOT)]
                    } else {
                        s.rng.gen_range(0..inp.keys.len())
                    };
                    let (rel, value) = inp.keys[key].clone();
                    let mut bindings = vec![None; inp.arity[&rel]];
                    bindings[0] = Some(value);
                    let before = s.served.stats();
                    let served = &s.served;
                    let (r, t) = tr.time("query.lookup", req, request, || {
                        served.query(&rel, &bindings)
                    });
                    rep.op(t);
                    parts[1] += t;
                    let after = s.served.stats();
                    let hit = after.cache_hits > before.cache_hits;
                    cnt.lookups += 1;
                    cnt.hits += hit as u64;
                    cnt.fixpoints += after.fixpoints - before.fixpoints;
                    cnt.fallbacks += after.fallbacks - before.fallbacks;
                    if let Some(answer) = rep.call(inp.name, r) {
                        if j < CHECKED_LOOKUPS {
                            s.last_burst.push((rel, value, answer));
                        }
                    }
                    if !traced {
                        smp.lookup_us.push(us(t));
                    } else if hit {
                        smp.hit_us.push(us(t));
                    } else if j == 0 {
                        smp.cold_us.push(us(t));
                    } else {
                        smp.warm_us.push(us(t));
                    }
                }
                tr.close(req);
            }
        }

        // Drop every session without a checkpoint and reopen it.
        for (k, (s, inp)) in sessions.iter_mut().zip(&inputs).enumerate() {
            let (smp, cnt) = (&mut samples[k], &mut counts[k]);
            request += 1;
            let mut dur = s.dur.take().expect("session is open");
            cnt.wal_bytes = dur.evaluator().wal_bytes();
            let live_edb = dur.facts().clone();
            let live_target = rep.call(inp.name, dur.target());
            drop(dur);
            let (dir, target) = (&s.dir, inp.target.clone());
            let req = tr.open("live.request", None, request);
            let (reopened, t_open) = tr.time("durable.open", req, request, || {
                DurableMigration::open(dir, target)
            });
            tr.close(req);
            rep.op(t_open);
            parts[2] += t_open;
            let Some(mut dur) = rep.call(inp.name, reopened) else {
                continue;
            };
            cnt.frames_replayed = dur.recovery_report().map_or(0, |r| r.frames_replayed);
            let same_edb = same_rows_in_order(&live_edb, dur.facts());
            let recovered_target = rep.call(inp.name, dur.target());
            let same_target = matches!((&live_target, &recovered_target),
                (Some(a), Some(b)) if a.iter().eq(b.iter()));
            rep.check(same_edb && same_target, || {
                format!("{}: recovered state differs from the live state", inp.name)
            });
            if traced {
                let (r, t_ckpt) = tr.time("durable.checkpoint", None, request, || dur.checkpoint());
                rep.call(inp.name, r);
                drop(dur);
                let target = inp.target.clone();
                let (r, t_load) = tr.time("durable.load", None, request, || {
                    DurableMigration::open(dir, target)
                });
                smp.checkpoint_s.push(t_ckpt);
                smp.load_s.push(t_load);
                smp.replay_s.push(t_open - t_load);
                s.dur = rep.call(inp.name, r);
            } else {
                smp.recover_s.push(t_open);
                s.dur = Some(dur);
            }
        }
        for (k, inp) in inputs.iter().enumerate() {
            let c = counts[k];
            match samples[k].counts {
                None => samples[k].counts = Some(c),
                Some(first) => rep.check(first == c, || {
                    format!(
                        "{}: work counts differ between passes: {first:?} vs {c:?}",
                        inp.name
                    )
                }),
            }
        }
        if !traced {
            pass_parts.push(J::Arr(parts.iter().map(|x| J::Num(*x)).collect()));
        }
        pass += 1;
    }
    tr.on = false;
    rep.detail
        .put("untraced_pass_write_lookup_recover_s", J::Arr(pass_parts));
    rep.peak_rss_mb = peak_rss_mb();

    // Output checks on the last pass, outside the timed regions.
    for (s, inp) in sessions.iter_mut().zip(&inputs) {
        let Some(dur) = s.dur.as_mut() else {
            rep.check(false, || format!("{}: session was not reopened", inp.name));
            continue;
        };
        let scratch = rep.call(inp.name, legacy::evaluate(&inp.program, dur.facts()));
        let expected = scratch
            .as_ref()
            .and_then(|o| from_facts(o, inp.target.clone()).ok());
        let maintained = rep.call(inp.name, dur.target());
        let ok = matches!((&expected, &maintained), (Some(x), Some(m)) if m.canon_eq(x));
        rep.check(ok, || {
            format!("{}: maintained output differs from scratch", inp.name)
        });
        rep.check(same_facts(dur.facts(), s.served.facts()), || {
            format!("{}: served facts differ from durable facts", inp.name)
        });
        if let Some((a, b)) = s.shadows.as_mut() {
            for shadow in [a, b] {
                let t = rep.call(inp.name, shadow.target());
                let ok = matches!((&expected, &t), (Some(x), Some(m)) if m.canon_eq(x));
                rep.check(ok, || {
                    format!("{}: shadow output differs from scratch", inp.name)
                });
            }
        }
        let Some(scratch) = scratch else { continue };
        for (rel, value, answer) in &s.last_burst {
            let want: Vec<Vec<Value>> = scratch
                .relation(rel)
                .map(|r| {
                    r.iter()
                        .filter(|row| row.at(0) == *value)
                        .map(|row| row.to_vec())
                        .collect()
                })
                .unwrap_or_default();
            let ok = answer.len() == want.len() && want.iter().all(|w| answer.contains(w));
            rep.check(ok, || {
                format!(
                    "{}: lookup on {rel} differs from evaluate-then-filter",
                    inp.name
                )
            });
        }
    }
    drop(sessions);
    let _ = std::fs::remove_dir_all(&root);

    report_metrics(&mut rep, &inputs, &samples, record);
    rep
}

fn same_rows_in_order(a: &Database, b: &Database) -> bool {
    a.iter().count() == b.iter().count()
        && a.iter().zip(b.iter()).all(|((na, ra), (nb, rb))| {
            na == nb && ra.len() == rb.len() && ra.iter().zip(rb.iter()).all(|(x, y)| x == y)
        })
}

fn report_metrics(rep: &mut Report, inputs: &[Inputs], samples: &[Samples], record: bool) {
    let cat = |ss: &[&Samples], f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        ss.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    // Per-pass sums over sessions, for the recovery-type figures.
    let summed = |ss: &[&Samples], f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        let n = ss.iter().map(|s| f(s).len()).min().unwrap_or(0);
        (0..n).map(|i| ss.iter().map(|s| f(s)[i]).sum()).collect()
    };
    let all: Vec<&Samples> = samples.iter().collect();
    let e2e = |ss: &[&Samples]| {
        let mut o = J::obj();
        o.put("sync_p50_ms", J::Num(median(&cat(ss, |s| &s.sync_ms))))
            .put("sync_p90_ms", J::Num(pct(&cat(ss, |s| &s.sync_ms), 0.9)))
            .put("sync_samples", J::Int(cat(ss, |s| &s.sync_ms).len() as i64))
            .put("lookup_p50_us", J::Num(median(&cat(ss, |s| &s.lookup_us))))
            .put(
                "lookup_p99_us",
                J::Num(pct(&cat(ss, |s| &s.lookup_us), 0.99)),
            )
            .put(
                "lookup_samples",
                J::Int(cat(ss, |s| &s.lookup_us).len() as i64),
            )
            .put("recover_s", J::Num(median(&summed(ss, |s| &s.recover_s))));
        o
    };
    let mut per = Vec::new();
    let mut digest = Digest::new();
    for inp in inputs {
        digest.db(&to_facts(&inp.live));
        for (rel, row) in inp.inserts.iter().chain(&inp.deletes) {
            digest.row(rel, row.iter().copied());
        }
        for &k in &inp.hot {
            digest.row(&inp.keys[k].0, std::iter::once(inp.keys[k].1));
        }
    }
    for (inp, s) in inputs.iter().zip(samples) {
        let mut o = e2e(&[s]);
        o.put("scenario", J::Str(inp.name.into()))
            .put(
                "source_facts",
                J::Int(to_facts(&inp.live).num_facts() as i64),
            )
            .put("held_out_rows", J::Int(inp.inserts.len() as i64))
            .put("lookup_keys", J::Int(inp.keys.len() as i64));
        per.push(o);
    }
    rep.detail
        .put("input_digest", J::Str(digest.hex()))
        .put("scale", J::Int(SCALE as i64))
        .put(
            "durable_options",
            J::Str(format!("{:?}", DurableOptions::default())),
        )
        .put(
            "batch",
            J::Str(format!("{BATCH} inserts + {BATCH} deletes")),
        )
        .put(
            "batches_per_pass_per_session",
            J::Int(BATCHES_PER_PASS as i64),
        )
        .put("lookups_per_batch", J::Int(BURST as i64))
        .put("end_to_end", e2e(&all))
        .put("per_scenario", J::Arr(per));
    if !record {
        return;
    }

    // Per-layer figures from the traced passes: per scenario and pooled.
    let mut layer_set = |suffix: &str, ss: &[&Samples]| {
        let count = |f: fn(&Counts) -> u64| -> f64 {
            ss.iter()
                .map(|s| s.counts.map_or(0, |c| f(&c)))
                .sum::<u64>() as f64
        };
        let durable = median(&cat(ss, |s| &s.durable_ms));
        let shadow = median(&cat(ss, |s| &s.shadow_ms));
        let figures: [(&str, f64); 18] = [
            ("incremental.apply_p50_ms", shadow),
            (
                "incremental.delete_p50_ms",
                median(&cat(ss, |s| &s.delete_ms)),
            ),
            (
                "incremental.insert_p50_ms",
                median(&cat(ss, |s| &s.insert_ms)),
            ),
            ("incremental.rows_changed", count(|c| c.rows_changed)),
            ("durable.apply_p50_ms", durable),
            ("durable.wal_tax_ms", durable - shadow),
            ("durable.wal_bytes", count(|c| c.wal_bytes)),
            (
                "durable.checkpoint_s",
                median(&summed(ss, |s| &s.checkpoint_s)),
            ),
            ("durable.load_s", median(&summed(ss, |s| &s.load_s))),
            ("durable.replay_s", median(&summed(ss, |s| &s.replay_s))),
            ("durable.frames_replayed", count(|c| c.frames_replayed)),
            ("query.swap_p50_ms", median(&cat(ss, |s| &s.swap_ms))),
            ("query.cold_miss_p50_us", median(&cat(ss, |s| &s.cold_us))),
            ("query.warm_miss_p50_us", median(&cat(ss, |s| &s.warm_us))),
            ("query.hit_p50_us", median(&cat(ss, |s| &s.hit_us))),
            (
                "query.hit_rate",
                count(|c| c.hits) / count(|c| c.lookups).max(1.0),
            ),
            ("query.fixpoints", count(|c| c.fixpoints)),
            ("query.fallbacks", count(|c| c.fallbacks)),
        ];
        for ((name, value), (decl, unit)) in figures.iter().zip(PER_SCENARIO) {
            assert_eq!(name, decl, "per-scenario metric order");
            rep.layer(format!("{name}{suffix}"), *value, unit);
        }
    };
    for (inp, s) in inputs.iter().zip(samples) {
        layer_set(&format!(".{}", inp.name), &[s]);
    }
    layer_set("", &all);
    let n = |f: fn(&Samples) -> &Vec<f64>| cat(&all, f).len() as f64;
    rep.layer("live.batch_samples", n(|s| &s.durable_ms), "count");
    rep.layer("durable.open_samples", n(|s| &s.load_s), "count");
    rep.layer("query.cold_miss_samples", n(|s| &s.cold_us), "count");
    rep.layer("query.warm_miss_samples", n(|s| &s.warm_us), "count");
    rep.layer("query.hit_samples", n(|s| &s.hit_us), "count");
}
