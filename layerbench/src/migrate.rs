//! `migrate_bulk`: `dynamite_migrate::migrate` with each golden program
//! over its generated source instance.
//!
//! Loads `instance::facts` (`to_facts`, `from_facts`) and large fixpoints
//! in `datalog::engine`; never calls `core` or the live layers. It pairs
//! with `synth_corpus`, which runs the same engine on tiny inputs: an
//! engine change that helps large scans but taxes per-call set-up shows
//! as a loss there.

use std::collections::BTreeMap;
use std::time::Instant;

use dynamite_bench_suite::all_benchmarks;
use dynamite_datalog::{evaluate, legacy};
use dynamite_instance::{from_facts, to_facts, Database};
use dynamite_migrate::migrate;
use dynamite_schema::DbKind;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::{median, Digest, Tracer, J};
use crate::{more_passes, peak_rss_mb, Args, Report};

/// Generator scale of every source instance.
pub const SCALE: u64 = 500;
/// Set-up samples: each generates every source once.
const SETUP_SAMPLES: usize = 3;

pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("instance.to_facts_s", "s"),
    ("datalog.eval_s", "s"),
    ("instance.from_facts_s", "s"),
    ("migrate.calls", "count"),
    ("instance.to_facts_facts_per_s", "1/s"),
    ("datalog.eval_facts_per_s", "1/s"),
    ("instance.from_facts_records_per_s", "1/s"),
    ("instance.facts_in", "count"),
    ("datalog.facts_out", "count"),
    ("instance.records_out", "count"),
];

const STAGES: [&str; 3] = [
    "instance.to_facts_s",
    "datalog.eval_s",
    "instance.from_facts_s",
];

fn kind(k: DbKind) -> &'static str {
    match k {
        DbKind::Relational => "rel",
        DbKind::Document => "doc",
        DbKind::Graph => "graph",
    }
}

/// The seven source→target kind pairs of Table 2.
const KIND_PAIRS: [&str; 7] = [
    "doc-rel",
    "rel-doc",
    "graph-rel",
    "graph-doc",
    "doc-graph",
    "rel-graph",
    "rel-rel",
];

/// Each stage's time split by kind pair.
pub fn kind_metrics() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for stage in STAGES {
        for pair in KIND_PAIRS {
            v.push((format!("{stage}.{pair}"), "s"));
        }
    }
    v
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Counts {
    facts_in: usize,
    facts_out: usize,
    records_out: usize,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let generate = |_: &mut Report| {
        let bs = all_benchmarks();
        let sources: Vec<_> = bs
            .iter()
            .map(|b| b.generate_source(SCALE, args.seed))
            .collect();
        (bs, sources)
    };
    for _ in 1..SETUP_SAMPLES {
        drop(rep.setup(1, generate));
    }
    let (bs, sources) = rep.setup(1, generate);
    let mut order: Vec<usize> = (0..bs.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed));
    let pair_of = |i: usize| {
        let (s, t) = bs[i].kinds();
        format!("{}-{}", kind(s), kind(t))
    };

    let record = tr.on;
    let mut first: Option<Counts> = None;
    // Traced passes: per stage (and per stage × kind pair) seconds.
    let mut stage_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_scenario_s: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    let started = Instant::now();
    let mut pass = 0usize;
    let mut request = 0u64;
    while more_passes(started, args.seconds, pass, if record { 2 } else { 1 }) {
        let traced = record && pass % 2 == 1;
        tr.on = traced;
        rep.start_pass(traced);
        let mut counts = Counts::default();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for &i in &order {
            let b = &bs[i];
            let target = b.target().clone();
            request += 1;
            if traced {
                let req = tr.open("migrate.request", None, request);
                let (facts, t1) =
                    tr.time("instance.to_facts", req, request, || to_facts(&sources[i]));
                let (out, t2) = tr.time("datalog.eval", req, request, || {
                    evaluate(b.golden(), &facts)
                });
                let mut t3 = 0.0;
                if let Some(out) = rep.call(b.name, out) {
                    let (inst, t) = tr.time("instance.from_facts", req, request, || {
                        from_facts(&out, target)
                    });
                    t3 = t;
                    counts.facts_out += out.num_facts();
                    if let Some(inst) = rep.call(b.name, inst) {
                        counts.records_out += inst.num_records();
                    }
                }
                tr.close(req);
                counts.facts_in += facts.num_facts();
                rep.op(t1 + t2 + t3);
                let pair = pair_of(i);
                for (stage, t) in STAGES.iter().zip([t1, t2, t3]) {
                    *sums.entry(stage.to_string()).or_default() += t;
                    *sums.entry(format!("{stage}.{pair}")).or_default() += t;
                }
            } else {
                let (r, t) = tr.time("migrate.migrate", None, request, || {
                    migrate(b.golden(), &sources[i], target)
                });
                rep.op(t);
                per_scenario_s[i].push(t);
                if let Some((_, report)) = rep.call(b.name, r) {
                    counts.facts_in += report.facts_in;
                    counts.facts_out += report.facts_out;
                    counts.records_out += report.records_out;
                }
            }
        }
        match first {
            None => first = Some(counts),
            Some(f) => rep.check(f == counts, || {
                format!("fact counts differ between passes: {f:?} vs {counts:?}")
            }),
        }
        if traced {
            for (k, v) in sums {
                stage_s.entry(k).or_default().push(v);
            }
        }
        pass += 1;
    }
    tr.on = false;
    rep.peak_rss_mb = peak_rss_mb();

    // Output checks, outside the timed passes: the engine against the
    // legacy interpreter, and the rebuilt instance against the instance
    // built from the legacy output.
    let mut rows = Vec::new();
    let mut digest = Digest::new();
    for (i, b) in bs.iter().enumerate() {
        let facts = to_facts(&sources[i]);
        digest.db(&facts);
        let reference = rep.call(b.name, legacy::evaluate(b.golden(), &facts));
        let engine = rep.call(b.name, evaluate(b.golden(), &facts));
        let same = matches!((&reference, &engine), (Some(r), Some(e)) if same_facts(r, e));
        rep.check(same, || {
            format!("{}: engine output differs from legacy", b.name)
        });
        let expected = reference.and_then(|r| from_facts(&r, b.target().clone()).ok());
        let migrated = rep.call(b.name, migrate(b.golden(), &sources[i], b.target().clone()));
        let rebuilt = matches!((&expected, &migrated), (Some(x), Some((m, _))) if m.canon_eq(x));
        rep.check(rebuilt, || {
            format!("{}: migrated instance differs from expected", b.name)
        });
        let mut row = J::obj();
        row.put("scenario", J::Str(b.name.into()))
            .put("kinds", J::Str(pair_of(i)))
            .put("facts_in", J::Int(facts.num_facts() as i64))
            .put("migrate_s_median", J::Num(median(&per_scenario_s[i])));
        rows.push(row);
    }

    let counts = first.unwrap_or_default();
    if record {
        let med = |k: &str| median(stage_s.get(k).map_or(&[][..], |v| &v[..]));
        for (name, _) in kind_metrics() {
            rep.layer(name.clone(), med(&name), "s");
        }
        let (tf, ev, ff) = (med(STAGES[0]), med(STAGES[1]), med(STAGES[2]));
        let rate = |n: usize, s: f64| n as f64 / s.max(f64::MIN_POSITIVE);
        rep.layer("instance.to_facts_s", tf, "s");
        rep.layer("datalog.eval_s", ev, "s");
        rep.layer("instance.from_facts_s", ff, "s");
        rep.layer("migrate.calls", bs.len() as f64, "count");
        rep.layer(
            "instance.to_facts_facts_per_s",
            rate(counts.facts_in, tf),
            "1/s",
        );
        rep.layer("datalog.eval_facts_per_s", rate(counts.facts_in, ev), "1/s");
        rep.layer(
            "instance.from_facts_records_per_s",
            rate(counts.records_out, ff),
            "1/s",
        );
        rep.layer("instance.facts_in", counts.facts_in as f64, "count");
        rep.layer("datalog.facts_out", counts.facts_out as f64, "count");
        rep.layer("instance.records_out", counts.records_out as f64, "count");
    }
    let pass_s = rep.pass_s(false, false);
    rep.detail
        .put("input_digest", J::Str(digest.hex()))
        .put("scale", J::Int(SCALE as i64))
        .put("scenarios", J::Int(bs.len() as i64))
        .put("facts_in_per_pass", J::Int(counts.facts_in as i64))
        .put("facts_out_per_pass", J::Int(counts.facts_out as i64))
        .put("records_out_per_pass", J::Int(counts.records_out as i64))
        .put(
            "migrate_facts_per_s",
            J::Num(counts.facts_in as f64 / pass_s.max(f64::MIN_POSITIVE)),
        )
        .put("per_scenario", J::Arr(rows));
    rep
}

/// Set equality of the non-empty relations of two fact databases.
pub fn same_facts(a: &Database, b: &Database) -> bool {
    let nonempty = |d: &Database| -> Vec<String> {
        d.iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(n, _)| n.to_string())
            .collect()
    };
    nonempty(a) == nonempty(b)
        && a.iter()
            .filter(|(_, r)| !r.is_empty())
            .all(|(n, r)| b.relation(n).is_some_and(|o| o == r))
}
