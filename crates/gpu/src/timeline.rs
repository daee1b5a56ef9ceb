//! Execution timelines and DRAM-traffic ledgers.
//!
//! [`Timeline`] records kernel executions on one logical stream; the
//! distributed simulator uses one timeline per pipeline stage to measure
//! bubble ratios (Fig. 20). [`TrafficLedger`] aggregates DRAM bytes per
//! kernel name, reproducing the NCU traffic comparison of Fig. 19.

use std::collections::BTreeMap;

use crate::device::DeviceSpec;
use crate::kernel::{CostModel, KernelProfile};

/// One executed kernel interval on a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Kernel name.
    pub name: String,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

impl TimelineEvent {
    /// Event duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One idle gap on a stream: the interval a `wait_until` skipped over.
/// Idle is first-class so bubble ratios can be computed from explicit
/// events rather than reconstructed from cursor arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleGap {
    /// Gap start in seconds (the cursor before the wait).
    pub start: f64,
    /// Gap end in seconds (the waited-for time).
    pub end: f64,
}

impl IdleGap {
    /// Gap duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-stream execution record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    idle: Vec<IdleGap>,
    cursor: f64,
}

impl Timeline {
    /// Creates an empty timeline starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time cursor (end of the last event or last wait).
    #[inline]
    pub fn now(&self) -> f64 {
        self.cursor
    }

    /// Advances the cursor to `time` if it is later, recording the
    /// skipped interval as an explicit [`IdleGap`].
    pub fn wait_until(&mut self, time: f64) {
        if time > self.cursor {
            self.idle.push(IdleGap {
                start: self.cursor,
                end: time,
            });
            self.cursor = time;
        }
    }

    /// Appends an event of `duration` seconds starting at the cursor and
    /// returns its `(start, end)` interval.
    pub fn push(&mut self, name: impl Into<String>, duration: f64) -> (f64, f64) {
        let start = self.cursor;
        let end = start + duration.max(0.0);
        self.events.push(TimelineEvent {
            name: name.into(),
            start,
            end,
        });
        self.cursor = end;
        (start, end)
    }

    /// Executes `profile` through `model` on `device` and appends it.
    pub fn execute(
        &mut self,
        device: &DeviceSpec,
        model: &CostModel,
        profile: &KernelProfile,
    ) -> (f64, f64) {
        let cost = model.kernel_cost(device, profile);
        self.push(profile.name.clone(), cost.seconds)
    }

    /// All recorded events in execution order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Sum of event durations (busy time).
    pub fn busy(&self) -> f64 {
        self.events.iter().map(TimelineEvent::duration).sum()
    }

    /// Total elapsed time from zero to the cursor.
    pub fn makespan(&self) -> f64 {
        self.cursor
    }

    /// Idle fraction in `[0, 1]`: the pipeline-bubble ratio of this stream.
    pub fn idle_ratio(&self) -> f64 {
        if self.cursor <= 0.0 {
            return 0.0;
        }
        1.0 - self.busy() / self.cursor
    }

    /// All recorded idle gaps in execution order.
    pub fn idle_gaps(&self) -> &[IdleGap] {
        &self.idle
    }

    /// Sum of explicit idle-gap durations. Because the cursor only
    /// advances through `push` (busy) or `wait_until` (a recorded
    /// gap), this equals `makespan() - busy()` up to rounding.
    pub fn idle_total(&self) -> f64 {
        self.idle.iter().map(IdleGap::duration).sum()
    }

    /// Bubble ratio computed purely from the explicit idle events,
    /// with no cursor arithmetic: `idle_total / makespan`.
    pub fn idle_ratio_from_events(&self) -> f64 {
        if self.cursor <= 0.0 {
            return 0.0;
        }
        self.idle_total() / self.cursor
    }

    /// Exports this timeline as one simulated-stream track labelled
    /// `label` in the process trace: kernels as `sim` events, gaps as
    /// `idle` events (simulated seconds become trace microseconds).
    /// No-op when tracing is disabled.
    pub fn export_to_trace(&self, label: &str) {
        use lorafusion_trace::sim;
        let track = sim::sim_track(label);
        if !track.is_live() {
            return;
        }
        for e in &self.events {
            sim::sim_complete(track, &e.name, e.start * 1e6, e.duration() * 1e6);
        }
        for gap in &self.idle {
            sim::sim_idle(track, gap.start * 1e6, gap.duration() * 1e6);
        }
    }
}

/// Aggregated DRAM traffic per kernel name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficLedger {
    per_kernel: BTreeMap<String, (u64, u64)>,
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the traffic of one kernel launch.
    pub fn record(&mut self, profile: &KernelProfile) {
        let entry = self
            .per_kernel
            .entry(profile.name.clone())
            .or_insert((0, 0));
        entry.0 += profile.bytes_read;
        entry.1 += profile.bytes_written;
    }

    /// Records every kernel in a lowered sequence.
    pub fn record_all(&mut self, profiles: &[KernelProfile]) {
        for p in profiles {
            self.record(p);
        }
    }

    /// Total bytes read across all kernels.
    pub fn total_read(&self) -> u64 {
        self.per_kernel.values().map(|(r, _)| r).sum()
    }

    /// Total bytes written across all kernels.
    pub fn total_written(&self) -> u64 {
        self.per_kernel.values().map(|(_, w)| w).sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn total(&self) -> u64 {
        self.total_read() + self.total_written()
    }

    /// Iterates `(kernel name, bytes_read, bytes_written)` sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.per_kernel
            .iter()
            .map(|(k, &(r, w))| (k.as_str(), r, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::kernel::KernelClass;

    #[test]
    fn timeline_accumulates_and_measures_idle() {
        let mut t = Timeline::new();
        t.push("a", 1.0);
        t.wait_until(3.0);
        t.push("b", 1.0);
        assert_eq!(t.makespan(), 4.0);
        assert_eq!(t.busy(), 2.0);
        assert!((t.idle_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[1].start, 3.0);
    }

    #[test]
    fn idle_ratios_of_empty_timeline_are_zero() {
        // Regression guard: both idle-ratio spellings must return 0 (not
        // NaN from 0/0) on a timeline whose cursor never advanced, and
        // agree with each other once it has.
        let t = Timeline::new();
        assert_eq!(t.idle_ratio(), 0.0);
        assert_eq!(t.idle_ratio_from_events(), 0.0);

        let mut t = Timeline::new();
        t.push("a", 1.0);
        t.wait_until(4.0);
        assert!((t.idle_ratio_from_events() - t.idle_ratio()).abs() < 1e-12);
        assert!((t.idle_ratio_from_events() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut t = Timeline::new();
        t.push("a", 2.0);
        t.wait_until(1.0);
        assert_eq!(t.now(), 2.0);
        // A backwards wait records no idle gap.
        assert!(t.idle_gaps().is_empty());
    }

    #[test]
    fn wait_until_records_explicit_idle_gaps() {
        let mut t = Timeline::new();
        t.push("a", 1.0);
        t.wait_until(3.0);
        t.push("b", 1.0);
        t.wait_until(4.5);
        assert_eq!(t.idle_gaps().len(), 2);
        assert_eq!(
            t.idle_gaps()[0],
            IdleGap {
                start: 1.0,
                end: 3.0
            }
        );
        assert_eq!(
            t.idle_gaps()[1],
            IdleGap {
                start: 4.0,
                end: 4.5
            }
        );
        assert!((t.idle_total() - 2.5).abs() < 1e-12);
        // The explicit-event bubble ratio must agree with the cursor
        // arithmetic the Fig. 20 path uses.
        assert!((t.idle_ratio_from_events() - t.idle_ratio()).abs() < 1e-12);
        assert!((t.idle_total() - (t.makespan() - t.busy())).abs() < 1e-12);
    }

    #[test]
    fn execute_uses_cost_model() {
        let dev = DeviceKind::H100Sxm.spec();
        let model = CostModel::default();
        let profile = KernelProfile {
            name: "ew".into(),
            class: KernelClass::Elementwise { tensors: 2 },
            flops: 0.0,
            bytes_read: 1 << 30,
            bytes_written: 1 << 30,
        };
        let mut t = Timeline::new();
        let (s, e) = t.execute(&dev, &model, &profile);
        assert_eq!(s, 0.0);
        let expect = model.kernel_cost(&dev, &profile).seconds;
        assert!((e - expect).abs() < 1e-15);
    }

    #[test]
    fn ledger_aggregates_by_name() {
        let mk = |name: &str, r: u64, w: u64| KernelProfile {
            name: name.into(),
            class: KernelClass::Reduction,
            flops: 0.0,
            bytes_read: r,
            bytes_written: w,
        };
        let mut ledger = TrafficLedger::new();
        ledger.record_all(&[mk("x", 10, 1), mk("x", 5, 2), mk("y", 7, 3)]);
        assert_eq!(ledger.total_read(), 22);
        assert_eq!(ledger.total_written(), 6);
        assert_eq!(ledger.total(), 28);
        let rows: Vec<_> = ledger.iter().collect();
        assert_eq!(rows, vec![("x", 15, 3), ("y", 7, 3)]);
    }

    #[test]
    fn empty_timeline_has_zero_idle() {
        assert_eq!(Timeline::new().idle_ratio(), 0.0);
    }
}
