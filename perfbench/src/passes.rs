//! The pass loop shared by every workload.
//!
//! A pass runs a workload's fixed work once from the same starting state.
//! Passes repeat until the run's time is up, so every pass must produce the
//! same outputs, and each timed operation gets several samples. A traced run
//! alternates untraced and traced passes: the per-layer numbers come from
//! the traced ones, and the tracing overhead compares the two kinds.

use std::fmt::Debug;

use lorafusion_trace::now_ns;

use crate::stats::median;
use crate::Run;

pub struct Passes {
    start_ns: u64,
    seconds: f64,
    trace: bool,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
}

impl Passes {
    pub fn new(run: &Run) -> Self {
        Self {
            start_ns: now_ns(),
            seconds: run.seconds,
            trace: run.trace,
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
        }
    }

    /// Whether the next pass is traced, or `None` once the time is up and
    /// every needed kind of pass has run.
    pub fn next(&self) -> Option<bool> {
        let done = (now_ns() - self.start_ns) as f64 / 1e9 >= self.seconds
            && !self.untraced_s.is_empty()
            && (!self.trace || !self.traced_s.is_empty());
        let n = self.untraced_s.len() + self.traced_s.len();
        (!done).then_some(self.trace && n % 2 == 1)
    }

    /// Records a finished pass and its timed seconds.
    pub fn record(&mut self, traced: bool, seconds: f64) {
        if traced {
            self.traced_s.push(seconds);
        } else {
            self.untraced_s.push(seconds);
        }
    }

    pub fn count(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }

    pub fn traced(&self) -> usize {
        self.traced_s.len()
    }

    /// Timed seconds of all traced passes together.
    pub fn traced_seconds(&self) -> f64 {
        self.traced_s.iter().sum()
    }

    /// Median traced pass time over median untraced pass time, minus one.
    pub fn overhead(&self) -> f64 {
        median(&mut self.traced_s.clone()) / median(&mut self.untraced_s.clone()) - 1.0
    }

    /// Pass counts and median pass times, for the provenance line.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} untraced, median {:.3} s",
            self.untraced_s.len(),
            median(&mut self.untraced_s.clone())
        );
        if !self.traced_s.is_empty() {
            out += &format!(
                "; {} traced, median {:.3} s",
                self.traced_s.len(),
                median(&mut self.traced_s.clone())
            );
        }
        out
    }
}

/// Keeps the first pass's results and reports any later pass that differs.
pub fn check_repeat<T: PartialEq + Debug>(
    first: &mut Option<T>,
    now: T,
    pass: usize,
    mismatches: &mut Vec<String>,
) {
    match first {
        None => *first = Some(now),
        Some(f) if *f != now => mismatches.push(format!("pass {pass} diverged: {now:?} vs {f:?}")),
        Some(_) => {}
    }
}
