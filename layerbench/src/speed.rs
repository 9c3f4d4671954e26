//! CPU-speed normalization of measured times.
//!
//! The 2-vCPU virtual machine this benchmark was tuned on (2.0 GHz Xeon,
//! host shared with other tenants, no hardware counters to count
//! instructions with) changes speed by 1.4–2.5× in phases of seconds to
//! minutes. A run of a few dozen seconds sees a few such phases, so wall
//! times of identical code moved by 30% between runs however many passes
//! a run took.
//!
//! So the benchmark also times a fixed reference task whenever 50 ms
//! have passed since the last one, between the measured calls (never
//! inside one), and scales each call's wall time by `NOMINAL_S / the mean
//! reference time around the call`: its time at the speed at which the
//! reference task takes `NOMINAL_S`. The reference task is the
//! benchmark's own code (sorting, hashing, searching, on memory of its
//! own), so a change to the program moves the normalized times as it
//! moves the wall times, while a slower phase of the machine moves both
//! the calls and the reference. Wall times stay in the detail line.

use std::hint::black_box;
use std::time::Instant;

/// What one reference task takes at the nominal speed, in seconds: about
/// its mean on the machine the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.003;

/// Most wall time between two calibrations, in seconds.
const STALE_S: f64 = 0.05;

/// A call is normalized by the calibrations within `WINDOW_S` seconds
/// of it, the window doubling until it holds at least `MIN_REFS`.
const WINDOW_S: f64 = 2.0;
const MIN_REFS: usize = 8;

/// Share of calibrations dropped at each end before averaging: a
/// reference task that was preempted says nothing about the speed.
const TRIM: f64 = 0.1;

/// Keys the reference task sorts, hashes and searches.
const KEYS: usize = 4096;
/// Slots of its open-addressing table (a power of two).
const SLOTS: usize = 2 * KEYS;
/// Repetitions of the task's body per reference task.
const ROUNDS: usize = 12;

/// The reference task's memory, allocated once: the task itself never
/// allocates, so its time does not depend on the state of the heap the
/// program under test leaves behind.
struct Task {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
}

impl Task {
    fn new() -> Task {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x | 1
            })
            .collect();
        Task {
            keys,
            sorted: vec![0; KEYS],
            table: vec![0; SLOTS],
        }
    }

    /// Fixed work: sort the keys, insert them into a linear-probing hash
    /// table, then look every key up in the table and in the sorted copy.
    fn run(&mut self) -> u64 {
        let mut acc = 0u64;
        for round in 0..ROUNDS as u64 {
            self.sorted.copy_from_slice(&self.keys);
            self.sorted.sort_unstable();
            self.table.fill(0);
            let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51) as usize;
            for &k in &self.keys {
                let mut i = slot(k ^ round);
                while self.table[i] != 0 {
                    i = (i + 1) & (SLOTS - 1);
                }
                self.table[i] = k;
            }
            for &k in &self.keys {
                let probe = k.rotate_left(17) ^ round;
                let mut i = slot(k ^ round);
                while self.table[i] != k {
                    i = (i + 1) & (SLOTS - 1);
                }
                acc = acc.wrapping_add(i as u64);
                acc ^= self.sorted.partition_point(|&s| s < probe) as u64;
            }
        }
        acc
    }

    /// Seconds of one run of the task.
    fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_secs_f64()
    }
}

/// Reference-task times sampled through a run.
pub struct Speed {
    task: Task,
    epoch: Instant,
    /// Per calibration: when it ended, in seconds since `epoch`, and the
    /// task's seconds.
    refs: Vec<(f64, f64)>,
    /// When the last calibration ended, in seconds since `epoch`.
    last: f64,
}

impl Default for Speed {
    /// Starts with one calibration.
    fn default() -> Speed {
        let mut speed = Speed {
            task: Task::new(),
            epoch: Instant::now(),
            refs: Vec::new(),
            last: 0.0,
        };
        speed.calibrate();
        speed
    }
}

impl Speed {
    /// Seconds since this tracker was made.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn calibrate(&mut self) {
        let t = self.task.time();
        self.last = self.now();
        self.refs.push((self.last, t));
    }

    /// Calibrates if the last calibration is stale; call only between
    /// measured calls.
    pub fn refresh(&mut self) {
        if self.now() - self.last >= STALE_S {
            self.calibrate();
        }
    }

    /// The reference time around a call of `wall` seconds that ended at
    /// `end` (see [`Speed::now`]): the trimmed mean of the calibrations
    /// within `WINDOW_S` of the call, the window doubling until it holds
    /// `MIN_REFS` of them. The call's time follows the machine's average
    /// speed while it ran, and the calibrations nearest to it sample
    /// that phase.
    pub fn reference_s(&self, wall: f64, end: f64) -> f64 {
        let mut w = WINDOW_S;
        let mut near: Vec<f64> = loop {
            let near: Vec<f64> = self
                .refs
                .iter()
                .filter(|(at, _)| *at >= end - wall - w && *at <= end + w)
                .map(|(_, t)| *t)
                .collect();
            if near.len() >= MIN_REFS.min(self.refs.len()) {
                break near;
            }
            w *= 2.0;
        };
        near.sort_by(f64::total_cmp);
        let cut = (near.len() as f64 * TRIM).round() as usize;
        let kept = &near[cut..near.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// A call of `wall` seconds that ended at `end`, in seconds at the
    /// nominal speed.
    pub fn normalize(&self, wall: f64, end: f64) -> f64 {
        wall * NOMINAL_S / self.reference_s(wall, end)
    }

    /// The run's mean reference time, trimmed.
    pub fn mean_s(&self) -> f64 {
        self.reference_s(self.now(), self.now())
    }

    /// Every calibration so far, in seconds of one reference task.
    pub fn refs(&self) -> Vec<f64> {
        self.refs.iter().map(|(_, t)| *t).collect()
    }
}
