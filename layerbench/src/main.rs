//! Layered end-to-end benchmark of the dynamite workspace.
//!
//! One closed-loop client (this process, one thread) calls the public API
//! and waits for each call before making the next. The program keeps its
//! default worker pool. Three workloads each load one group of crates:
//!
//! - `synth_corpus`: `dynamite_core::synthesize` on the 28 Table 2
//!   scenarios from their curated examples (core, smt, tiny fixpoints);
//! - `migrate_bulk`: `dynamite_migrate::migrate` with each golden program
//!   over a large generated source (instance facts, large fixpoints);
//! - `live_sync`: three durable, served sessions fed delete+insert batches,
//!   each followed by a burst of point lookups, then dropped and reopened
//!   (incremental, durable, query, binio).
//!
//! Usage: `dynamite-layerbench --workload W --seed N --seconds S --trace 0|1
//! --out DIR`. The last stdout line is the result object; the line before
//! it is a detail object (stamps, sizes, per-scenario figures). With
//! `--trace 1` the spans are written to `DIR`.

mod live;
mod migrate;
mod speed;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use speed::Speed;
use trace::{median, Tracer, J};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
        out: PathBuf::from(get("out")?),
    })
}

/// Metrics of one kind, by name: (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Reference-task times that normalize `pass_s` and `setup_s`.
    speed: Speed,
    /// Set-up samples: wall seconds per set-up unit, and when the sample
    /// ended (`Speed::now`).
    setups: Vec<(f64, f64)>,
    /// Per pass: whether it was traced, and each timed public API call in
    /// call order as (wall seconds, when it ended). Every pass of a run
    /// makes the same calls in the same order.
    passes: Vec<(bool, Vec<(f64, f64)>)>,
    /// Peak resident set before the output checks ran, in MB.
    pub peak_rss_mb: f64,
    /// Public API calls attempted and failed.
    pub calls: u64,
    pub calls_failed: u64,
    /// Output checks run and failed (with a note per failure).
    pub checks: u64,
    pub checks_failed: u64,
    pub failures: Vec<String>,
    /// Per-layer metrics this workload measures (traced runs only).
    pub layer: Metrics,
    /// Free-form figures for the detail line.
    pub detail: J,
}

impl Report {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.checks_failed += 1;
            let note = what();
            eprintln!("check failed: {note}");
            self.failures.push(note);
        }
    }

    /// Records one public API call's outcome, returning the value.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.calls += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.calls_failed += 1;
                let note = format!("{what}: {e}");
                eprintln!("call failed: {note}");
                self.failures.push(note);
                None
            }
        }
    }

    /// Runs `f` `units` times back to back as one set-up sample and
    /// returns the last result. The sample is the mean wall time of one
    /// unit; `setup_s` is the median sample, normalized.
    pub fn setup<T>(&mut self, units: usize, mut f: impl FnMut(&mut Report) -> T) -> T {
        self.speed.refresh();
        let mut last = None;
        let t = Instant::now();
        for _ in 0..units {
            drop(last.take());
            last = Some(f(self));
        }
        let wall = t.elapsed().as_secs_f64();
        self.setups.push((wall / units as f64, self.speed.now()));
        last.expect("at least one set-up unit")
    }

    /// Median set-up sample: normalized (`norm`) or wall seconds.
    pub fn setup_s(&self, norm: bool) -> f64 {
        let v: Vec<f64> = self
            .setups
            .iter()
            .map(|&(unit, end)| {
                if norm {
                    // The whole sample ran at the speed around it.
                    unit * self.speed.normalize(1.0, end)
                } else {
                    unit
                }
            })
            .collect();
        median(&v)
    }

    /// Starts recording a pass.
    pub fn start_pass(&mut self, traced: bool) {
        self.speed.refresh();
        self.passes.push((traced, Vec::new()));
    }

    /// Records one timed call of the current pass, just after it
    /// returned, then calibrates if the last calibration is stale.
    pub fn op(&mut self, seconds: f64) {
        let end = self.speed.now();
        self.passes
            .last_mut()
            .expect("a pass is open")
            .1
            .push((seconds, end));
        self.speed.refresh();
    }

    /// The time a pass spends blocked in API calls: the sum over calls of
    /// each call's median across the run's (traced or untraced) passes,
    /// each call normalized (`norm`) or in wall seconds. Per-call medians
    /// shed a stall that hits one pass, where a median of pass totals
    /// keeps it whenever stalls hit most passes somewhere.
    pub fn pass_s(&self, traced: bool, norm: bool) -> f64 {
        let ps: Vec<&Vec<(f64, f64)>> = self
            .passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, v)| v)
            .collect();
        let n = ps.iter().map(|v| v.len()).min().unwrap_or(0);
        let at = |&(wall, end): &(f64, f64)| {
            if norm {
                self.speed.normalize(wall, end)
            } else {
                wall
            }
        };
        (0..n)
            .map(|i| median(&ps.iter().map(|v| at(&v[i])).collect::<Vec<_>>()))
            .sum()
    }

    /// Each pass's total wall time in API calls.
    pub fn pass_totals(&self, traced: bool) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, v)| v.iter().map(|(wall, _)| wall).sum())
            .collect()
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.insert(name.into(), (value, unit));
    }
}

/// Whether another timed pass fits: always at least `min_passes`, then
/// until the measuring window has elapsed.
pub fn more_passes(started: Instant, seconds: f64, done: usize, min_passes: usize) -> bool {
    done < min_passes || started.elapsed().as_secs_f64() < seconds
}

/// The process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nums(xs: &[f64]) -> J {
    J::Arr(xs.iter().map(|x| J::Num(*x)).collect())
}

/// Every per-layer metric name with its unit, across all workloads: a
/// traced run reports all of them, with zero for layers its workload
/// does not call.
fn all_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for list in [
        synth::LAYER_METRICS,
        migrate::LAYER_METRICS,
        COMMON_LAYER_METRICS,
    ] {
        v.extend(list.iter().map(|(n, u)| (n.to_string(), *u)));
    }
    v.extend(migrate::kind_metrics());
    v.extend(live::layer_metrics());
    v.extend(live::per_scenario_metrics());
    v
}

/// Per-layer metrics every workload reports from its traced run.
const COMMON_LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("bench.self_s", "s"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "synth_corpus" => synth::run(&args, &mut tracer),
        "migrate_bulk" => migrate::run(&args, &mut tracer),
        "live_sync" => live::run(&args, &mut tracer),
        w => {
            eprintln!("error: unknown workload `{w}` (synth_corpus, migrate_bulk, live_sync)");
            std::process::exit(2);
        }
    };

    let attempted = report.calls + report.checks;
    let failed = report.calls_failed + report.checks_failed;
    let success_rate = (attempted - failed) as f64 / attempted.max(1) as f64;

    let mut metrics = Metrics::new();
    if args.trace {
        let overhead = report.pass_s(true, true) - report.pass_s(false, true);
        report.layer("trace.overhead_s", overhead, "s");
        report.layer("trace.spans", tracer.spans.len() as f64, "count");
        let self_times = tracer.self_times();
        let request_self: f64 = self_times
            .iter()
            .filter(|(n, _)| n.ends_with(".request"))
            .map(|(_, (_, _, s))| s)
            .sum();
        report.layer("bench.self_s", request_self, "s");
        let mut spans = J::obj();
        for (name, (n, total, own)) in &self_times {
            let mut o = J::obj();
            o.put("spans", J::Int(*n as i64))
                .put("total_s", J::Num(*total))
                .put("self_s", J::Num(*own));
            spans.put(*name, o);
        }
        report.detail.put("span_self_times", spans);
        let (owned, rest): (Vec<_>, Vec<_>) = all_layer_metrics()
            .into_iter()
            .partition(|(n, _)| report.layer.contains_key(n));
        for (name, unit) in owned {
            let (v, u) = report.layer[&name];
            assert_eq!(u, unit, "unit of {name}");
            metrics.insert(name, (v, u));
        }
        for (name, unit) in rest {
            metrics.insert(name, (0.0, unit));
        }
        let extra: Vec<_> = report
            .layer
            .keys()
            .filter(|k| !metrics.contains_key(*k))
            .collect();
        assert!(extra.is_empty(), "undeclared per-layer metrics: {extra:?}");
        std::fs::create_dir_all(&args.out).expect("results directory is writable");
        let path = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, tracer.to_jsonl()).expect("spans file is writable");
        report
            .detail
            .put("spans_file", J::Str(path.display().to_string()));
    } else {
        metrics.insert("setup_s".into(), (report.setup_s(true), "s"));
        metrics.insert("peak_rss_mb".into(), (report.peak_rss_mb, "MB"));
        metrics.insert("success_rate".into(), (success_rate, "ratio"));
        metrics.insert("pass_s".into(), (report.pass_s(false, true), "s"));
    }

    let mut stamp = J::obj();
    stamp
        .put("workload", J::Str(args.workload.clone()))
        .put("seed", J::Int(args.seed as i64))
        .put("seconds", J::Num(args.seconds))
        .put("trace", J::Bool(args.trace))
        .put(
            "hardware_threads",
            J::Int(std::thread::available_parallelism().map_or(1, usize::from) as i64),
        )
        .put(
            "pool_threads",
            J::Int(dynamite_datalog::pool::resolve_threads(None) as i64),
        )
        .put(
            "load_model",
            J::Str("closed loop, one client thread".into()),
        )
        .put("reference_nominal_s", J::Num(speed::NOMINAL_S))
        .put("reference_mean_s", J::Num(report.speed.mean_s()))
        .put("reference_s", nums(&report.speed.refs()))
        .put("pass_wall_s", J::Num(report.pass_s(false, false)))
        .put("setup_wall_s", J::Num(report.setup_s(false)))
        .put("untraced_pass_totals_s", nums(&report.pass_totals(false)))
        .put("traced_pass_totals_s", nums(&report.pass_totals(true)))
        .put("calls", J::Int(report.calls as i64))
        .put("calls_failed", J::Int(report.calls_failed as i64))
        .put("checks", J::Int(report.checks as i64))
        .put("checks_failed", J::Int(report.checks_failed as i64))
        .put(
            "failures",
            J::Arr(report.failures.iter().map(|f| J::Str(f.clone())).collect()),
        );
    let mut detail = J::obj();
    detail
        .put("stamp", stamp)
        .put("detail", std::mem::take(&mut report.detail));
    println!("{detail}");

    let mut m = J::obj();
    for (name, (v, unit)) in &metrics {
        let mut o = J::obj();
        o.put("value", J::Num(*v))
            .put("unit", J::Str(unit.to_string()));
        m.put(name.clone(), o);
    }
    let mut result = J::obj();
    result
        .put("correct", J::Bool(failed == 0))
        .put("attempted", J::Int(attempted as i64))
        .put("failed", J::Int(failed as i64))
        .put("metrics", m);
    println!("{result}");
}
