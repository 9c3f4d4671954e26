//! `synth_corpus`: `dynamite_core::synthesize` on all 28 Table 2
//! scenarios from their curated examples, as in Table 3.
//!
//! Loads `dynamite-core` (Ψ inference, sketch, CEGIS, MDPs),
//! `dynamite-smt` and thousands of tiny evaluations; barely touches
//! `instance::facts` and never the live layers.

use std::time::Instant;

use dynamite_bench_suite::all_benchmarks;
use dynamite_core::{synthesize, SynthesisConfig, Synthesizer};
use dynamite_datalog::{legacy, Program};
use dynamite_instance::{from_facts, to_facts, Instance};
use dynamite_migrate::migrate;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::{median, Digest, Tracer, J};
use crate::{more_passes, peak_rss_mb, Args, Report};

pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.prepare_s", "s"),
    ("core.cegis_s", "s"),
    ("core.calls", "count"),
    ("core.candidates", "count"),
    ("core.mdps", "count"),
    ("core.blocking_clauses", "count"),
    ("core.resource_skips", "count"),
    ("core.candidates_per_s", "1/s"),
    ("core.accept_ratio", "ratio"),
    ("core.synth_correct", "count"),
];

/// Scenarios whose curated example admits a program that differs from
/// the golden one on larger instances (the example is ambiguous). Their
/// held-out disagreement is counted in `core.synth_correct` and listed in
/// the detail line; it fails a check only if the program also stops
/// reproducing its own example.
const AMBIGUOUS_EXAMPLES: &[&str] = &["Bike-1", "Bike-3"];

/// Corpus loads per set-up sample, and samples before every pass.
const SETUP_UNITS: usize = 16;
const SETUP_SAMPLES: usize = 3;

/// Generator scale of the held-out check instance.
const HELDOUT_SCALE: u64 = 4;
/// Mixed into the seed so the held-out instance differs from the sources
/// other workloads generate at the same seed.
const HELDOUT_SALT: u64 = 0x4E1D;

/// Per-pass work counts; identical in every pass of a correct program.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Counts {
    candidates: usize,
    mdps: usize,
    blocking_clauses: usize,
    resource_skips: usize,
    rules: usize,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    // Set-up loads the corpus and its examples. One load takes a few
    // milliseconds, so a set-up sample times `SETUP_UNITS` loads, and
    // `SETUP_SAMPLES` samples are taken before every pass.
    let load = |_: &mut Report| {
        let bs = all_benchmarks();
        let examples: Vec<_> = bs.iter().map(|b| b.example()).collect();
        (bs, examples)
    };
    let (bs, examples) = rep.setup(SETUP_UNITS, load);
    // The client's request order is part of the seeded input.
    let mut order: Vec<usize> = (0..bs.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed));
    let config = SynthesisConfig::default();

    let mut programs: Vec<Option<Program>> = vec![None; bs.len()];
    let mut first: Option<Counts> = None;
    let mut per_scenario_s: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    let mut per_scenario_cegis: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    let mut per_scenario_counts: Vec<Counts> = vec![Counts::default(); bs.len()];
    let (mut prepare_s, mut cegis_s) = (Vec::new(), Vec::new());
    let record = tr.on;
    let started = Instant::now();
    let mut pass = 0usize;
    let mut request = 0u64;
    while more_passes(started, args.seconds, pass, if record { 2 } else { 1 }) {
        // Traced runs alternate untraced and traced passes.
        let traced = record && pass % 2 == 1;
        tr.on = traced;
        for _ in 0..SETUP_SAMPLES {
            drop(rep.setup(SETUP_UNITS, load));
        }
        rep.start_pass(traced);
        let (mut prep_sum, mut cegis_sum) = (0.0, 0.0);
        let mut counts = Counts::default();
        for &i in &order {
            let b = &bs[i];
            let ex = std::slice::from_ref(&examples[i]);
            request += 1;
            let result = if traced {
                let req = tr.open("synth.request", None, request);
                let (prepared, t_prep) = tr.time("core.prepare", req, request, || {
                    Synthesizer::new(
                        b.source().clone(),
                        b.target().clone(),
                        ex.to_vec(),
                        config.clone(),
                    )
                });
                let mut t_cegis = 0.0;
                let result = prepared.and_then(|s| {
                    let (r, t) = tr.time("core.cegis", req, request, || s.synthesize());
                    t_cegis = t;
                    r
                });
                tr.close(req);
                prep_sum += t_prep;
                cegis_sum += t_cegis;
                per_scenario_cegis[i].push(t_cegis);
                rep.op(t_prep + t_cegis);
                result
            } else {
                let (r, t) = tr.time("core.synthesize", None, request, || {
                    synthesize(b.source(), b.target(), ex, &config)
                });
                rep.op(t);
                per_scenario_s[i].push(t);
                r
            };
            let Some(syn) = rep.call(b.name, result) else {
                continue;
            };
            let c = Counts {
                candidates: syn.stats.total_iterations(),
                mdps: syn.stats.rules.iter().map(|r| r.mdps_computed).sum(),
                blocking_clauses: syn.stats.rules.iter().map(|r| r.blocking_clauses).sum(),
                resource_skips: syn.stats.rules.iter().map(|r| r.resource_skips).sum(),
                rules: syn.program.rules.len(),
            };
            counts.candidates += c.candidates;
            counts.mdps += c.mdps;
            counts.blocking_clauses += c.blocking_clauses;
            counts.resource_skips += c.resource_skips;
            counts.rules += c.rules;
            match &programs[i] {
                None => {
                    per_scenario_counts[i] = c;
                    programs[i] = Some(syn.program);
                }
                Some(p) => {
                    let same = p.to_string() == syn.program.to_string();
                    rep.check(same, || {
                        format!("{}: program differs between passes", b.name)
                    });
                }
            }
        }
        match first {
            None => first = Some(counts),
            Some(f) => rep.check(f == counts, || {
                format!("work counts differ between passes: {f:?} vs {counts:?}")
            }),
        }
        if traced {
            prepare_s.push(prep_sum);
            cegis_s.push(cegis_sum);
        }
        pass += 1;
    }
    tr.on = false;
    rep.peak_rss_mb = peak_rss_mb();

    // Output checks, outside the timed passes.
    let mut synth_correct = 0usize;
    let mut rows = Vec::new();
    let mut digest = Digest::new();
    for &i in &order {
        digest.row(bs[i].name, std::iter::empty());
    }
    for (i, b) in bs.iter().enumerate() {
        let Some(program) = &programs[i] else {
            rep.check(false, || format!("{}: no synthesized program", b.name));
            continue;
        };
        // The synthesizer's contract: the program reproduces its example.
        let ex = &examples[i];
        let reproduces = legacy_target(program, &ex.input, b.target())
            .is_some_and(|out| out.canon_eq(&ex.output));
        rep.check(reproduces, || {
            format!("{}: program does not reproduce its example", b.name)
        });
        // Agreement with the golden program on a held-out instance.
        let heldout = b.generate_source(HELDOUT_SCALE, args.seed ^ HELDOUT_SALT);
        digest.db(&to_facts(&heldout));
        let golden = legacy_target(b.golden(), &heldout, b.target());
        let ours = rep.call(b.name, migrate(program, &heldout, b.target().clone()));
        let agrees = matches!((&golden, &ours), (Some(g), Some((o, _))) if o.canon_eq(g));
        synth_correct += agrees as usize;
        rep.check(agrees || AMBIGUOUS_EXAMPLES.contains(&b.name), || {
            format!(
                "{}: synthesized program disagrees with the golden program",
                b.name
            )
        });
        let c = per_scenario_counts[i];
        let mut row = J::obj();
        row.put("scenario", J::Str(b.name.into()))
            .put(
                "kinds",
                J::Str(format!("{:?}->{:?}", b.kinds().0, b.kinds().1)),
            )
            .put("synthesize_s_median", J::Num(median(&per_scenario_s[i])))
            .put("cegis_s_median", J::Num(median(&per_scenario_cegis[i])))
            .put("candidates", J::Int(c.candidates as i64))
            .put("mdps", J::Int(c.mdps as i64))
            .put("blocking_clauses", J::Int(c.blocking_clauses as i64))
            .put("agrees_with_golden", J::Bool(agrees));
        rows.push(row);
    }

    let counts = first.unwrap_or_default();
    if record {
        let cegis = median(&cegis_s);
        rep.layer("core.prepare_s", median(&prepare_s), "s");
        rep.layer("core.cegis_s", cegis, "s");
        rep.layer("core.calls", bs.len() as f64, "count");
        rep.layer("core.candidates", counts.candidates as f64, "count");
        rep.layer("core.mdps", counts.mdps as f64, "count");
        rep.layer(
            "core.blocking_clauses",
            counts.blocking_clauses as f64,
            "count",
        );
        rep.layer("core.resource_skips", counts.resource_skips as f64, "count");
        rep.layer(
            "core.candidates_per_s",
            counts.candidates as f64 / cegis.max(f64::MIN_POSITIVE),
            "1/s",
        );
        rep.layer(
            "core.accept_ratio",
            counts.rules as f64 / counts.candidates.max(1) as f64,
            "ratio",
        );
        rep.layer("core.synth_correct", synth_correct as f64, "count");
    }
    rep.detail
        .put("input_digest", J::Str(digest.hex()))
        .put("scenarios", J::Int(bs.len() as i64))
        .put("heldout_scale", J::Int(HELDOUT_SCALE as i64))
        .put("candidates_per_pass", J::Int(counts.candidates as i64))
        .put("mdps_per_pass", J::Int(counts.mdps as i64))
        .put("synth_correct", J::Int(synth_correct as i64))
        .put("per_scenario", J::Arr(rows));
    rep
}

/// Runs `program` on `source` with the legacy interpreter (the
/// differential oracle) and rebuilds the target instance.
pub fn legacy_target(
    program: &Program,
    source: &Instance,
    target: &std::sync::Arc<dynamite_schema::Schema>,
) -> Option<Instance> {
    let out = legacy::evaluate(program, &to_facts(source)).ok()?;
    from_facts(&out, target.clone()).ok()
}
