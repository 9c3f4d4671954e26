//! The `DYNAMITE_*` environment overrides, read and validated once per
//! process.
//!
//! Each knob is `None` when unset or invalid (unparseable, zero, an
//! unrecognized word) — an invalid value is ignored rather than silently
//! clobbering an explicit request — and a valid value wins over the
//! caller's request ([`resolve_threads`](crate::pool::resolve_threads),
//! [`resolve_reorder`](crate::resolve_reorder),
//! [`resolve_fact_budget`](crate::resolve_fact_budget)), so a run is
//! re-configurable without touching code.

use std::str::FromStr;
use std::sync::OnceLock;

pub(crate) struct Overrides {
    /// `DYNAMITE_THREADS`: a positive worker count.
    pub(crate) threads: Option<usize>,
    /// `DYNAMITE_NO_REORDER`: `Some(true)` disables the cost-based join
    /// planner (body-order plans), `Some(false)` forces it on.
    pub(crate) no_reorder: Option<bool>,
    /// `DYNAMITE_FACT_BUDGET`: a positive per-evaluation fact budget.
    pub(crate) fact_budget: Option<u64>,
}

pub(crate) fn overrides() -> &'static Overrides {
    static ENV: OnceLock<Overrides> = OnceLock::new();
    ENV.get_or_init(|| Overrides {
        threads: positive("DYNAMITE_THREADS"),
        no_reorder: match var("DYNAMITE_NO_REORDER").as_deref() {
            Some("1" | "true" | "yes") => Some(true),
            Some("0" | "false" | "no") => Some(false),
            _ => None,
        },
        fact_budget: positive("DYNAMITE_FACT_BUDGET"),
    })
}

/// The trimmed value of `name`, if set.
fn var(name: &str) -> Option<String> {
    Some(std::env::var(name).ok()?.trim().to_string())
}

/// `name` as a positive integer, if it parses as one.
fn positive<T: FromStr + PartialOrd + From<u8>>(name: &str) -> Option<T> {
    var(name)?.parse().ok().filter(|n| *n >= T::from(1))
}
