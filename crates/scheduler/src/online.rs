//! Streaming scheduler with incremental re-packing.
//!
//! The offline pipeline re-solves every packing from scratch; an online
//! service facing continuous arrivals and departures needs the incumbent
//! packing to *survive* each event. [`OnlineScheduler`] maintains bins
//! under [`JobEvent`] streams with a two-rung escalation ladder:
//!
//! 1. **Local repair** — place an arriving job by best-fit over the
//!    bubble-lemma cost (the padded-load delta from [`AdapterLoads`]),
//!    preferring bins that already hold the job's adapter (their delta is
//!    at most the standalone padded length, often less). When nothing
//!    fits, evict at most `max_evictions` small jobs from the roomiest
//!    bin and re-place them. Everything here is `O(log bins)` index
//!    lookups plus bounded scans — the per-event cost the bench proves
//!    sub-linear.
//! 2. **Cold re-pack** — when the incumbent drifts past the configured
//!    threshold over the bin lower bound (and at most once per
//!    `cold_interval_min` events), rebuild the whole packing with
//!    best-fit-decreasing over a headroom index, `O(n log n)`.
//!
//! Rung hits are counted in `scheduler.repack.{local_repair,cold_solves}`.
//! Every step is a pure function of the event stream, so replay is
//! bitwise-identical on any machine and thread count.

use std::collections::{BTreeMap, BTreeSet};

use lorafusion_data::{JobEvent, Sample};

use crate::types::{AdapterLoads, Microbatch, MicrobatchEntry, SchedulerError};

/// One live job in the online packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Unique job id.
    pub id: u64,
    /// Adapter the job trains.
    pub adapter: usize,
    /// Token length.
    pub len: usize,
}

/// Configuration of the online scheduler.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Token capacity per bin (microbatch).
    pub capacity: usize,
    /// Padding multiple `P` applied per adapter segment.
    pub padding_multiple: usize,
    /// Local repair may evict at most this many jobs per arrival.
    pub max_evictions: usize,
    /// Re-pack cold when `(bins - lower_bound) / lower_bound` exceeds
    /// this. The threshold triggers the cold re-pack itself, not an
    /// intermediate rung at a fraction of it: the former default of 0.25,
    /// which re-packed cold past twice its value, corresponds to 0.5 here.
    pub drift_threshold: f64,
    /// Minimum events between cold re-packs.
    pub cold_interval_min: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            capacity: 16384,
            padding_multiple: 64,
            max_evictions: 4,
            drift_threshold: 0.5,
            cold_interval_min: 64,
        }
    }
}

/// One bin of the incumbent packing.
#[derive(Debug, Clone)]
struct Bin {
    /// Jobs in the bin, in placement order.
    jobs: Vec<Job>,
    /// Incremental per-adapter padded loads.
    loads: AdapterLoads,
}

/// Streaming scheduler maintaining an incumbent packing under job
/// arrival / finish / cancel events. See the module docs for the
/// escalation ladder. All state updates are single-threaded and
/// deterministic: replaying the same event stream yields bitwise-equal
/// [`OnlineScheduler::digest`] at any `LORAFUSION_THREADS`.
#[derive(Debug)]
pub struct OnlineScheduler {
    config: OnlineConfig,
    /// Slab of bins; freed slots go to `free` and stay `None`.
    bins: Vec<Option<Bin>>,
    /// Free slot indices, reused LIFO.
    free: Vec<usize>,
    /// `(headroom, bin)` for every live bin — best-fit range queries.
    by_headroom: BTreeSet<(usize, usize)>,
    /// Adapter → bins currently holding it (affinity placement).
    affinity: BTreeMap<usize, BTreeSet<usize>>,
    /// Job id → bin slot.
    job_bin: BTreeMap<u64, usize>,
    /// Per-adapter total raw tokens (for the bin lower bound).
    adapter_totals: AdapterLoads,
    /// Events applied since the last cold re-pack.
    events_since_cold: usize,
    /// Reusable eviction buffer.
    evicted: Vec<Job>,
}

/// Distinct `adapter=` label values before placements collapse into the
/// `adapter=other` bucket — keeps the metric cardinality bounded on
/// fleets with thousands of adapters.
const ADAPTER_LABEL_CAP: usize = 64;

struct Counters {
    local_repair: lorafusion_trace::metrics::Counter,
    cold_solves: lorafusion_trace::metrics::Counter,
    /// `scheduler.events{class=…}`: one counter per event class.
    arrive: lorafusion_trace::metrics::Counter,
    finish: lorafusion_trace::metrics::Counter,
    cancel: lorafusion_trace::metrics::Counter,
    /// `scheduler.event.padded_tokens{class=…}`: the *logical* cost of
    /// each event (padded segment length) as a deterministic quantile
    /// histogram — the scheduler records no wall-clock (its per-event
    /// latency histograms live bench-side, see `bench_scheduler`).
    arrive_padded: lorafusion_trace::metrics::Histogram,
    depart_padded: lorafusion_trace::metrics::Histogram,
    /// `scheduler.repair.moved_jobs{rung=…}`: how many jobs each repair
    /// rung touched per invocation.
    moved_local: lorafusion_trace::metrics::Histogram,
    moved_cold: lorafusion_trace::metrics::Histogram,
    /// `scheduler.placements{adapter=…}`: dynamic labels, interned on
    /// first observation per adapter and cached here so steady-state
    /// placements stay allocation-free.
    placements: std::sync::Mutex<BTreeMap<usize, lorafusion_trace::metrics::Counter>>,
}

impl Counters {
    fn placement(&self, adapter: usize) -> lorafusion_trace::metrics::Counter {
        let key = adapter.min(ADAPTER_LABEL_CAP);
        let mut map = self.placements.lock().unwrap();
        *map.entry(key).or_insert_with(|| {
            let value = if key == ADAPTER_LABEL_CAP {
                "other".to_owned()
            } else {
                key.to_string()
            };
            lorafusion_trace::label::Scope::new(&[("adapter", &value)])
                .counter("scheduler.placements")
        })
    }
}

fn counters() -> &'static Counters {
    use lorafusion_trace::label::Scope;
    use std::sync::OnceLock;
    static CELLS: OnceLock<Counters> = OnceLock::new();
    CELLS.get_or_init(|| {
        let class = |v: &str| Scope::new(&[("class", v)]);
        let rung = |v: &str| Scope::new(&[("rung", v)]);
        Counters {
            local_repair: lorafusion_trace::metrics::counter("scheduler.repack.local_repair"),
            cold_solves: lorafusion_trace::metrics::counter("scheduler.repack.cold_solves"),
            arrive: class("arrive").counter("scheduler.events"),
            finish: class("finish").counter("scheduler.events"),
            cancel: class("cancel").counter("scheduler.events"),
            arrive_padded: class("arrive").quantile_histogram("scheduler.event.padded_tokens"),
            depart_padded: class("depart").quantile_histogram("scheduler.event.padded_tokens"),
            moved_local: rung("local").quantile_histogram("scheduler.repair.moved_jobs"),
            moved_cold: rung("cold").quantile_histogram("scheduler.repair.moved_jobs"),
            placements: std::sync::Mutex::new(BTreeMap::new()),
        }
    })
}

impl OnlineScheduler {
    /// Creates an empty scheduler.
    pub fn new(config: OnlineConfig) -> Result<Self, SchedulerError> {
        if config.capacity == 0 {
            return Err(SchedulerError::InvalidConfig("capacity must be positive"));
        }
        if config.padding_multiple == 0 {
            return Err(SchedulerError::InvalidConfig(
                "padding multiple must be positive",
            ));
        }
        if config.drift_threshold < 0.0 {
            return Err(SchedulerError::InvalidConfig(
                "drift threshold must be nonnegative",
            ));
        }
        Ok(Self {
            config,
            bins: Vec::new(),
            free: Vec::new(),
            by_headroom: BTreeSet::new(),
            affinity: BTreeMap::new(),
            job_bin: BTreeMap::new(),
            adapter_totals: AdapterLoads::new(1),
            events_since_cold: 0,
            evicted: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    fn pad(&self, tokens: usize) -> usize {
        let p = self.config.padding_multiple;
        tokens.div_ceil(p) * p
    }

    fn headroom(&self, slot: usize) -> usize {
        let bin = self.bins[slot].as_ref().expect("live bin");
        self.config.capacity - bin.loads.padded_total()
    }

    /// Number of live bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len() - self.free.len()
    }

    /// Number of live jobs.
    pub fn num_jobs(&self) -> usize {
        self.job_bin.len()
    }

    /// Largest padded bin load (the bubble-lemma cost of the packing's
    /// critical microbatch).
    pub fn max_bin_tokens(&self) -> usize {
        self.bins
            .iter()
            .flatten()
            .map(|b| b.loads.padded_total())
            .max()
            .unwrap_or(0)
    }

    /// Lower bound on the number of bins any packing of the live jobs
    /// needs: each adapter's tokens pay their padding at least once, so
    /// `ceil(Σ_a pad(tot_a) / capacity)` bins are unavoidable.
    pub fn lower_bound_bins(&self) -> usize {
        if self.job_bin.is_empty() {
            return 0;
        }
        let p = self.config.padding_multiple;
        let padded: usize = self
            .adapter_totals
            .iter()
            .map(|(_, tokens)| tokens.div_ceil(p) * p)
            .sum();
        padded.div_ceil(self.config.capacity).max(1)
    }

    /// Applies one event, escalating through the repair ladder as
    /// needed.
    pub fn apply(&mut self, event: &JobEvent) -> Result<(), SchedulerError> {
        match *event {
            JobEvent::Arrive { id, adapter, len } => {
                if self.pad(len) > self.config.capacity {
                    return Err(SchedulerError::SampleExceedsCapacity {
                        adapter,
                        sample: id,
                        len,
                        capacity: self.config.capacity,
                    });
                }
                if self.job_bin.contains_key(&id) {
                    return Err(SchedulerError::InvalidConfig("duplicate job id in stream"));
                }
                let job = Job { id, adapter, len };
                let c = counters();
                c.arrive.incr();
                c.arrive_padded.record(self.pad(len) as u64);
                self.adapter_totals.add(adapter, len);
                self.place(job);
            }
            JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                let Some(slot) = self.job_bin.get(&id).copied() else {
                    return Err(SchedulerError::InvalidConfig(
                        "departure of a job not in the packing",
                    ));
                };
                let c = counters();
                match event {
                    JobEvent::Finish { .. } => c.finish.incr(),
                    _ => c.cancel.incr(),
                }
                let job = self.remove_job(id, slot);
                c.depart_padded.record(self.pad(job.len) as u64);
                self.adapter_totals.remove(job.adapter, job.len);
            }
        }
        self.events_since_cold += 1;
        self.settle();
        Ok(())
    }

    /// Places `job` via the local-repair rung (best-fit, then bounded
    /// eviction, then a fresh bin).
    fn place(&mut self, job: Job) {
        if let Some(slot) = self.find_slot(job) {
            self.insert_job(job, slot);
            return;
        }
        // Nothing fits directly: evict up to `max_evictions` small jobs
        // from the roomiest bin, place the new job, then re-place the
        // evicted ones (they fit back where they came from in the worst
        // case, so this terminates without recursion).
        if self.config.max_evictions > 0 {
            if let Some(&(_, slot)) = self.by_headroom.iter().next_back() {
                let c = counters();
                c.local_repair.incr();
                let mut evicted = std::mem::take(&mut self.evicted);
                evicted.clear();
                {
                    let bin = self.bins[slot].as_ref().expect("live bin");
                    // Smallest jobs first; stable deterministic order.
                    let mut order: Vec<Job> = bin.jobs.clone();
                    order.sort_by(|a, b| a.len.cmp(&b.len).then(a.id.cmp(&b.id)));
                    let mut freed_loads = bin.loads.clone();
                    for cand in order.into_iter().take(self.config.max_evictions) {
                        freed_loads.remove(cand.adapter, cand.len);
                        evicted.push(cand);
                        let delta = freed_loads.delta_add(job.adapter, job.len);
                        if freed_loads.padded_total() + delta <= self.config.capacity {
                            break;
                        }
                    }
                }
                for e in &evicted {
                    let slot_of = self.job_bin[&e.id];
                    self.remove_job(e.id, slot_of);
                }
                // Place the new job first (the eviction was for it), then
                // re-place the evicted jobs smallest-last so large ones
                // grab tight slots first.
                let target = if self.fits(slot, job) {
                    Some(slot)
                } else {
                    None
                };
                match target.or_else(|| self.find_slot(job)) {
                    Some(s) => self.insert_job(job, s),
                    None => self.open_bin(job),
                }
                let moved = evicted.len() as u64 + 1;
                while let Some(e) = evicted.pop() {
                    match self.find_slot(e) {
                        Some(s) => self.insert_job(e, s),
                        None => self.open_bin(e),
                    }
                }
                self.evicted = evicted;
                c.moved_local.record(moved);
                lorafusion_trace::flight::note("scheduler.repair.local", moved);
                return;
            }
        }
        self.open_bin(job);
    }

    /// True when `job` fits into live bin `slot`.
    fn fits(&self, slot: usize, job: Job) -> bool {
        let Some(bin) = self.bins.get(slot).and_then(|b| b.as_ref()) else {
            return false;
        };
        bin.loads.padded_total() + bin.loads.delta_add(job.adapter, job.len) <= self.config.capacity
    }

    /// Best-fit slot for `job`, or `None` when nothing fits.
    ///
    /// Affinity bins (already holding the adapter) are scanned first —
    /// their delta is at most the standalone padded length — with the
    /// scan capped for bounded per-event cost; then the global headroom
    /// index answers "tightest bin with room for a full padded segment"
    /// in one range query.
    fn find_slot(&self, job: Job) -> Option<usize> {
        const AFFINITY_SCAN_CAP: usize = 16;
        let mut best: Option<(usize, usize)> = None; // (headroom after, slot)
        if let Some(slots) = self.affinity.get(&job.adapter) {
            for &slot in slots.iter().take(AFFINITY_SCAN_CAP) {
                let bin = self.bins[slot].as_ref().expect("live bin");
                let delta = bin.loads.delta_add(job.adapter, job.len);
                let load = bin.loads.padded_total() + delta;
                if load <= self.config.capacity {
                    let after = self.config.capacity - load;
                    if best.is_none_or(|b| (after, slot) < b) {
                        best = Some((after, slot));
                    }
                }
            }
        }
        if let Some((_, slot)) = best {
            // An affinity hit that reuses padding slack beats any
            // non-affinity bin (whose delta is the full padded length).
            return Some(slot);
        }
        // Tightest bin whose headroom fits a full padded segment.
        let need = self.pad(job.len);
        self.by_headroom
            .range((need, 0)..)
            .next()
            .map(|&(_, slot)| slot)
    }

    /// Inserts `job` into live bin `slot`, maintaining every index.
    fn insert_job(&mut self, job: Job, slot: usize) {
        let old_headroom = self.headroom(slot);
        let bin = self.bins[slot].as_mut().expect("live bin");
        bin.loads.add(job.adapter, job.len);
        bin.jobs.push(job);
        let new_headroom = self.config.capacity - bin.loads.padded_total();
        self.by_headroom.remove(&(old_headroom, slot));
        self.by_headroom.insert((new_headroom, slot));
        self.affinity.entry(job.adapter).or_default().insert(slot);
        self.job_bin.insert(job.id, slot);
        counters().placement(job.adapter).incr();
    }

    /// Opens a fresh bin holding only `job`.
    fn open_bin(&mut self, job: Job) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.bins.push(None);
                self.bins.len() - 1
            }
        };
        let mut loads = AdapterLoads::new(self.config.padding_multiple);
        loads.add(job.adapter, job.len);
        let headroom = self.config.capacity - loads.padded_total();
        self.bins[slot] = Some(Bin {
            jobs: vec![job],
            loads,
        });
        self.by_headroom.insert((headroom, slot));
        self.affinity.entry(job.adapter).or_default().insert(slot);
        self.job_bin.insert(job.id, slot);
        counters().placement(job.adapter).incr();
    }

    /// Removes job `id` from live bin `slot`, maintaining every index;
    /// frees the bin when it empties.
    fn remove_job(&mut self, id: u64, slot: usize) -> Job {
        let old_headroom = self.headroom(slot);
        let bin = self.bins[slot].as_mut().expect("live bin");
        let pos = bin
            .jobs
            .iter()
            .position(|j| j.id == id)
            .expect("job index points into its bin");
        let job = bin.jobs.swap_remove(pos);
        bin.loads.remove(job.adapter, job.len);
        self.job_bin.remove(&id);
        self.by_headroom.remove(&(old_headroom, slot));
        let empty = bin.jobs.is_empty();
        let adapter_gone = empty || bin.loads.adapter_tokens(job.adapter) == 0;
        let new_headroom = self.config.capacity - bin.loads.padded_total();
        if empty {
            self.bins[slot] = None;
            self.free.push(slot);
        } else {
            self.by_headroom.insert((new_headroom, slot));
        }
        if adapter_gone {
            if let Some(slots) = self.affinity.get_mut(&job.adapter) {
                slots.remove(&slot);
                if slots.is_empty() {
                    self.affinity.remove(&job.adapter);
                }
            }
        }
        job
    }

    /// Drift check and escalation to the cold rung.
    fn settle(&mut self) {
        let lb = self.lower_bound_bins();
        let used = self.num_bins();
        if lb == 0 || used <= lb {
            return;
        }
        let drift = (used - lb) as f64 / lb as f64;
        if drift > self.config.drift_threshold
            && self.events_since_cold >= self.config.cold_interval_min
        {
            self.cold_repack();
        }
    }

    /// Rung 2: full best-fit-decreasing re-pack of every live job over a
    /// fresh headroom index (`O(n log n)`).
    fn cold_repack(&mut self) {
        let c = counters();
        c.cold_solves.incr();
        let mut jobs: Vec<Job> = self
            .bins
            .iter()
            .flatten()
            .flat_map(|b| b.jobs.iter().copied())
            .collect();
        c.moved_cold.record(jobs.len() as u64);
        lorafusion_trace::flight::note("scheduler.repair.cold", jobs.len() as u64);
        let packed = cold_pack(
            &mut jobs,
            self.config.capacity,
            self.config.padding_multiple,
        );
        self.bins.clear();
        self.free.clear();
        self.by_headroom.clear();
        self.affinity.clear();
        self.job_bin.clear();
        for bin in packed {
            let headroom = self.config.capacity - bin.loads.padded_total();
            let slot = self.bins.len();
            for j in &bin.jobs {
                self.job_bin.insert(j.id, slot);
                self.affinity.entry(j.adapter).or_default().insert(slot);
            }
            self.by_headroom.insert((headroom, slot));
            self.bins.push(Some(bin));
        }
        self.events_since_cold = 0;
    }

    /// The incumbent packing as microbatches, bins in slot order.
    pub fn microbatches(&self) -> Vec<Microbatch> {
        self.bins
            .iter()
            .flatten()
            .map(|b| Microbatch {
                entries: b.jobs.iter().map(|j| job_entry(*j)).collect(),
                noop: false,
            })
            .collect()
    }

    /// FNV-1a digest of the packing: bin contents in slot order, job ids
    /// sorted within each bin. Two schedulers that processed the same
    /// stream identically agree bit-for-bit.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.num_bins() as u64);
        for bin in self.bins.iter().flatten() {
            let mut ids: Vec<u64> = bin.jobs.iter().map(|j| j.id).collect();
            ids.sort_unstable();
            mix(ids.len() as u64);
            for id in ids {
                mix(id);
            }
            mix(bin.loads.padded_total() as u64);
        }
        h
    }

    /// Checks every internal invariant; returns the first violation.
    /// Intended for tests and debug assertions, not the hot path.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (slot, bin) in self.bins.iter().enumerate() {
            let Some(bin) = bin else {
                if !self.free.contains(&slot) {
                    return Err(format!("empty slot {slot} missing from free list"));
                }
                continue;
            };
            if bin.jobs.is_empty() {
                return Err(format!("bin {slot} is live but empty"));
            }
            let rebuilt = AdapterLoads::from_entries(
                &bin.jobs.iter().map(|j| job_entry(*j)).collect::<Vec<_>>(),
                self.config.padding_multiple,
            );
            if rebuilt != bin.loads {
                return Err(format!("bin {slot} loads out of sync"));
            }
            if bin.loads.padded_total() > self.config.capacity {
                return Err(format!("bin {slot} over capacity"));
            }
            let headroom = self.config.capacity - bin.loads.padded_total();
            if !self.by_headroom.contains(&(headroom, slot)) {
                return Err(format!("bin {slot} missing from headroom index"));
            }
            for j in &bin.jobs {
                if self.job_bin.get(&j.id) != Some(&slot) {
                    return Err(format!("job {} index mismatch", j.id));
                }
                let aff = self
                    .affinity
                    .get(&j.adapter)
                    .is_some_and(|s| s.contains(&slot));
                if !aff {
                    return Err(format!(
                        "adapter {} of bin {slot} missing from affinity index",
                        j.adapter
                    ));
                }
                seen += 1;
            }
        }
        if seen != self.job_bin.len() {
            return Err(format!(
                "job index holds {} jobs but bins hold {seen}",
                self.job_bin.len()
            ));
        }
        if self.by_headroom.len() != self.num_bins() {
            return Err("headroom index size mismatch".into());
        }
        Ok(())
    }
}

fn job_entry(j: Job) -> MicrobatchEntry {
    MicrobatchEntry {
        adapter: j.adapter,
        global_batch: 0,
        sample: Sample {
            id: j.id,
            len: j.len,
        },
    }
}

/// Best-fit-decreasing packing of `jobs` (sorted in place), used as the
/// cold baseline and by the cold rung. `O(n log n)`: jobs are sorted by
/// decreasing length and each placement is one range query on a
/// `(headroom, bin)` index.
fn cold_pack(jobs: &mut [Job], capacity: usize, padding: usize) -> Vec<Bin> {
    jobs.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));
    let p = padding.max(1);
    let mut bins: Vec<Bin> = Vec::new();
    let mut by_headroom: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &job in jobs.iter() {
        let need = job.len.div_ceil(p) * p;
        let slot = by_headroom.range((need, 0)..).next().map(|&(_, s)| s);
        match slot {
            Some(s) => {
                let old = capacity - bins[s].loads.padded_total();
                bins[s].loads.add(job.adapter, job.len);
                bins[s].jobs.push(job);
                by_headroom.remove(&(old, s));
                by_headroom.insert((capacity - bins[s].loads.padded_total(), s));
            }
            None => {
                let mut loads = AdapterLoads::new(padding);
                loads.add(job.adapter, job.len);
                let s = bins.len();
                by_headroom.insert((capacity - loads.padded_total(), s));
                bins.push(Bin {
                    jobs: vec![job],
                    loads,
                });
            }
        }
    }
    bins
}

/// Packs `jobs` cold with best-fit-decreasing and returns the resulting
/// microbatches — the from-scratch baseline the online packing's quality
/// and speed are measured against.
pub fn cold_solve(jobs: &[Job], capacity: usize, padding: usize) -> Vec<Microbatch> {
    let mut jobs = jobs.to_vec();
    cold_pack(&mut jobs, capacity, padding)
        .into_iter()
        .map(|b| Microbatch {
            entries: b.jobs.iter().map(|j| job_entry(*j)).collect(),
            noop: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_data::{generate_events, EventStreamConfig};

    fn arrive(id: u64, adapter: usize, len: usize) -> JobEvent {
        JobEvent::Arrive { id, adapter, len }
    }

    fn small_config() -> OnlineConfig {
        OnlineConfig {
            capacity: 1024,
            padding_multiple: 64,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn places_and_removes_jobs() {
        let mut s = OnlineScheduler::new(small_config()).unwrap();
        s.apply(&arrive(0, 0, 500)).unwrap();
        s.apply(&arrive(1, 0, 400)).unwrap();
        assert_eq!(s.num_bins(), 1, "both fit one bin");
        assert_eq!(s.num_jobs(), 2);
        s.apply(&JobEvent::Finish { id: 0 }).unwrap();
        assert_eq!(s.num_jobs(), 1);
        s.apply(&JobEvent::Cancel { id: 1 }).unwrap();
        assert_eq!(s.num_jobs(), 0);
        assert_eq!(s.num_bins(), 0);
        s.validate().unwrap();
    }

    #[test]
    fn prefers_affinity_bins() {
        let mut s = OnlineScheduler::new(small_config()).unwrap();
        // Adapter 0 occupies bin 0 with padding slack: 100 pads to 128.
        s.apply(&arrive(0, 0, 100)).unwrap();
        // Adapter 1 opens bin 1 (bin 0 would fit it, but then a second
        // adapter-0 job shows the affinity preference).
        s.apply(&arrive(1, 1, 900)).unwrap();
        assert_eq!(s.num_bins(), 2);
        // 20 tokens of adapter 0 fit in bin 0's padding slack for free.
        s.apply(&arrive(2, 0, 20)).unwrap();
        assert_eq!(s.num_bins(), 2);
        let mbs = s.microbatches();
        let with_a0: Vec<_> = mbs
            .iter()
            .filter(|m| m.entries.iter().any(|e| e.adapter == 0))
            .collect();
        assert_eq!(with_a0.len(), 1, "adapter 0 stays in one bin");
        assert_eq!(with_a0[0].entries.len(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn rejects_oversized_and_duplicate_jobs() {
        let mut s = OnlineScheduler::new(small_config()).unwrap();
        assert!(s.apply(&arrive(0, 0, 2000)).is_err());
        s.apply(&arrive(1, 0, 100)).unwrap();
        assert!(s.apply(&arrive(1, 0, 100)).is_err());
        assert!(s.apply(&JobEvent::Finish { id: 99 }).is_err());
    }

    #[test]
    fn eviction_repair_fires_when_nothing_fits() {
        let mut s = OnlineScheduler::new(OnlineConfig {
            capacity: 1000,
            padding_multiple: 1,
            ..OnlineConfig::default()
        })
        .unwrap();
        let before = counters().local_repair.get();
        // Two bins, each with one large and some small jobs, headroom 100.
        s.apply(&arrive(0, 0, 850)).unwrap();
        s.apply(&arrive(1, 0, 50)).unwrap();
        s.apply(&arrive(2, 0, 850)).unwrap();
        s.apply(&arrive(3, 0, 50)).unwrap();
        s.apply(&arrive(4, 0, 50)).unwrap();
        s.apply(&arrive(5, 0, 50)).unwrap();
        // 150 fits nowhere directly (headrooms are 100 and 0): eviction
        // must relocate small jobs rather than opening a third bin
        // mindlessly.
        s.apply(&arrive(6, 0, 150)).unwrap();
        assert!(counters().local_repair.get() > before, "eviction not hit");
        s.validate().unwrap();
        assert_eq!(s.num_jobs(), 7);
    }

    #[test]
    fn replay_is_deterministic_and_valid() {
        let events = generate_events(
            &EventStreamConfig {
                num_events: 800,
                num_adapters: 6,
                target_live: 120,
                max_len: 900,
                ..EventStreamConfig::default()
            },
            11,
        );
        let run = || {
            let mut s = OnlineScheduler::new(small_config()).unwrap();
            for e in &events {
                s.apply(e).unwrap();
            }
            s.validate().unwrap();
            s.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quality_tracks_cold_baseline() {
        // ε contract (documented in DESIGN.md): after every event, the
        // online bin count stays within 25% of the cold BFD re-solve,
        // plus one bin of slack for mid-repair states.
        let events = generate_events(
            &EventStreamConfig {
                num_events: 600,
                num_adapters: 4,
                target_live: 80,
                max_len: 900,
                ..EventStreamConfig::default()
            },
            23,
        );
        let mut s = OnlineScheduler::new(small_config()).unwrap();
        let mut live: Vec<Job> = Vec::new();
        for e in &events {
            s.apply(e).unwrap();
            match *e {
                JobEvent::Arrive { id, adapter, len } => live.push(Job { id, adapter, len }),
                JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                    live.retain(|j| j.id != id);
                }
            }
            let cold = cold_solve(&live, 1024, 64);
            let bound = (cold.len() as f64 * 1.25).ceil() as usize + 1;
            assert!(
                s.num_bins() <= bound,
                "online {} bins vs cold {} (bound {bound})",
                s.num_bins(),
                cold.len()
            );
        }
        s.validate().unwrap();
    }

    #[test]
    fn cold_repack_fires_past_the_drift_threshold() {
        // Force fragmentation, then check the drift check re-packs the
        // live jobs down to the lower bound.
        let mut s = OnlineScheduler::new(OnlineConfig {
            capacity: 1000,
            padding_multiple: 1,
            cold_interval_min: 1,
            ..OnlineConfig::default()
        })
        .unwrap();
        // 12 jobs of 500 fill 6 bins exactly.
        for i in 0..12 {
            s.apply(&arrive(i, 0, 500)).unwrap();
        }
        assert_eq!(s.num_bins(), 6);
        // Finish one job of each pair. Drift stays at or under 0.5 until
        // the last finish leaves 6 half-full bins for LB = 3.
        let cold_before = counters().cold_solves.get();
        for i in [0u64, 2, 4, 6, 8] {
            s.apply(&JobEvent::Finish { id: i }).unwrap();
        }
        assert_eq!(s.num_bins(), 6, "re-packed below the threshold");
        s.apply(&JobEvent::Finish { id: 10 }).unwrap();
        assert!(
            counters().cold_solves.get() > cold_before,
            "drift never triggered a cold re-pack"
        );
        assert_eq!(s.num_bins(), s.lower_bound_bins());
        assert_eq!(s.num_bins(), 3);
        s.validate().unwrap();
    }

    #[test]
    fn cold_solve_respects_capacity() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| Job {
                id: i,
                adapter: (i % 3) as usize,
                len: 100 + (i as usize * 37) % 700,
            })
            .collect();
        let bins = cold_solve(&jobs, 1024, 64);
        let total: usize = bins.iter().map(|b| b.entries.len()).sum();
        assert_eq!(total, 40);
        for b in &bins {
            assert!(b.padded_tokens(64) <= 1024);
        }
    }
}
