//! Event-driven pipeline-parallel simulation.
//!
//! Simulates 1F1B execution of a microbatch stream over `S` stages, in two
//! modes:
//!
//! * **Flushed** (Megatron-LM): the stream is cut into global batches;
//!   each batch drains the pipeline completely before the optimizer step
//!   and the next batch — the source of the large bubbles in Figs. 5/20;
//! * **Continuous** (multi-LoRA zero-bubble): one uninterrupted 1F1B
//!   stream. Cross-global-batch dependencies of each adapter are expressed
//!   as `after_backward_of` edges, which the scheduler's bubble-lemma
//!   spacing (including no-op microbatches) makes non-blocking in the
//!   steady state.

use lorafusion_gpu::Timeline;

/// One microbatch to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineJob {
    /// Forward seconds per stage.
    pub fwd: Vec<f64>,
    /// Backward seconds per stage.
    pub bwd: Vec<f64>,
    /// Real tokens (for throughput accounting).
    pub tokens: usize,
    /// Index of a microbatch whose stage-0 backward must complete before
    /// this microbatch's stage-0 forward starts (same-adapter global-batch
    /// dependency). Must reference an earlier microbatch.
    pub after_backward_of: Option<usize>,
}

impl PipelineJob {
    /// A no-op filler occupying a schedule slot with zero work.
    pub fn noop(stages: usize) -> Self {
        Self {
            fwd: vec![0.0; stages],
            bwd: vec![0.0; stages],
            tokens: 0,
            after_backward_of: None,
        }
    }
}

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Number of stages.
    pub stages: usize,
    /// Activation/gradient transfer time between adjacent stages.
    pub comm_seconds: f64,
    /// Optimizer step time charged at each flush boundary.
    pub optimizer_seconds: f64,
}

/// One executed task in the pipeline trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Microbatch index in the stream.
    pub microbatch: usize,
    /// Pipeline stage.
    pub stage: usize,
    /// True for forward, false for backward.
    pub forward: bool,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

/// Simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Total wall-clock seconds.
    pub makespan: f64,
    /// Busy seconds per stage.
    pub per_stage_busy: Vec<f64>,
    /// Mean idle fraction across stages — the paper's pipeline bubble
    /// ratio (Fig. 20).
    pub bubble_ratio: f64,
    /// Total real tokens processed.
    pub tokens: usize,
    /// Full execution trace (one event per executed task).
    pub trace: Vec<TraceEvent>,
}

impl PipelineResult {
    /// Replays the execution trace into one [`Timeline`] per stage, so the
    /// simulated ranks get the same event/idle-gap accounting as any other
    /// simulated device. Trace events are chronological per stage, so each
    /// `wait_until(start)` records the exact inter-task gap as an explicit
    /// [`lorafusion_gpu::IdleGap`]; a final `wait_until(makespan)` turns
    /// flush/optimizer tail time into idle as well. The mean per-stage
    /// [`Timeline::idle_ratio_from_events`] therefore equals
    /// [`PipelineResult::bubble_ratio`].
    pub fn stage_timelines(&self) -> Vec<Timeline> {
        let stages = self.per_stage_busy.len();
        let mut timelines: Vec<Timeline> = (0..stages).map(|_| Timeline::new()).collect();
        for e in &self.trace {
            let tl = &mut timelines[e.stage];
            tl.wait_until(e.start);
            tl.push(
                format!("{}{}", if e.forward { "F" } else { "B" }, e.microbatch),
                e.end - e.start,
            );
        }
        for tl in timelines.iter_mut() {
            tl.wait_until(self.makespan);
        }
        timelines
    }

    /// Exports the per-stage timelines onto the global trace as simulated
    /// GPU tracks (one per stage). No-op when tracing is disabled.
    pub fn export_to_trace(&self, label: &str) {
        if !lorafusion_trace::enabled() {
            return;
        }
        for (stage, tl) in self.stage_timelines().into_iter().enumerate() {
            tl.export_to_trace(&format!("{label} stage{stage}"));
        }
    }

    /// Throughput in tokens per second.
    pub fn tokens_per_second(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.tokens as f64 / self.makespan
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskKind {
    Fwd,
    Bwd,
}

/// Simulates the stream. `flush_groups` gives the sizes of consecutive
/// flush groups (their sum must equal `jobs.len()`); pass a single group
/// for the continuous zero-bubble mode.
pub fn simulate_pipeline(
    jobs: &[PipelineJob],
    flush_groups: &[usize],
    opts: &PipelineOptions,
) -> PipelineResult {
    let s = opts.stages.max(1);
    let n = jobs.len();
    let _span = lorafusion_trace::span!("pipeline.simulate", stages = s, microbatches = n);
    assert_eq!(
        flush_groups.iter().sum::<usize>(),
        n,
        "flush groups must partition the microbatch stream"
    );

    let mut fwd_done = vec![vec![f64::INFINITY; s]; n];
    let mut bwd_done = vec![vec![f64::INFINITY; s]; n];
    let mut stage_time = vec![0.0f64; s];
    let mut busy = vec![0.0f64; s];
    let mut clock = 0.0f64;
    let mut trace: Vec<TraceEvent> = Vec::new();

    let mut start = 0usize;
    for &group_len in flush_groups {
        let end = start + group_len;
        if group_len == 0 {
            continue;
        }
        // Per-stage 1F1B task order for this group.
        let mut orders: Vec<Vec<(TaskKind, usize)>> = Vec::with_capacity(s);
        for stage in 0..s {
            let warmup = (s - 1 - stage).min(group_len);
            let mut order = Vec::with_capacity(2 * group_len);
            for i in 0..warmup {
                order.push((TaskKind::Fwd, start + i));
            }
            let mut next_b = 0usize;
            for i in warmup..group_len {
                order.push((TaskKind::Fwd, start + i));
                order.push((TaskKind::Bwd, start + next_b));
                next_b += 1;
            }
            while next_b < group_len {
                order.push((TaskKind::Bwd, start + next_b));
                next_b += 1;
            }
            orders.push(order);
        }

        // Event loop: each stage executes its order as dependencies allow.
        let mut cursor = vec![0usize; s];
        let total_tasks: usize = orders.iter().map(Vec::len).sum();
        let mut done = 0usize;
        // Stages resume no earlier than the previous group's flush point.
        for t in stage_time.iter_mut() {
            *t = t.max(clock);
        }
        // Readiness of a task given the completion tables.
        let task_ready = |kind: TaskKind,
                          i: usize,
                          stage: usize,
                          fwd_done: &Vec<Vec<f64>>,
                          bwd_done: &Vec<Vec<f64>>|
         -> Option<f64> {
            match kind {
                TaskKind::Fwd => {
                    if stage == 0 {
                        match jobs[i].after_backward_of {
                            Some(dep) => {
                                debug_assert!(dep < i, "dependency must be earlier");
                                let t = bwd_done[dep][0];
                                t.is_finite().then_some(t)
                            }
                            None => Some(0.0),
                        }
                    } else {
                        let t = fwd_done[i][stage - 1];
                        t.is_finite().then_some(t + opts.comm_seconds)
                    }
                }
                TaskKind::Bwd => {
                    if stage == s - 1 {
                        let t = fwd_done[i][stage];
                        t.is_finite().then_some(t)
                    } else {
                        let down = bwd_done[i][stage + 1];
                        let own_fwd = fwd_done[i][stage];
                        (down.is_finite() && own_fwd.is_finite())
                            .then_some((down + opts.comm_seconds).max(own_fwd))
                    }
                }
            }
        };

        while done < total_tasks {
            let mut progressed = false;
            for stage in 0..s {
                while cursor[stage] < orders[stage].len() {
                    let (kind, i) = orders[stage][cursor[stage]];
                    let mut ready = task_ready(kind, i, stage, &fwd_done, &bwd_done);
                    if ready.is_none()
                        && kind == TaskKind::Fwd
                        && jobs[i].after_backward_of.is_some()
                    {
                        // A forward stalled on its adapter's previous
                        // global batch lets the backward sharing its 1F1B
                        // slot run first (what a zero-bubble scheduler
                        // does dynamically).
                        if let Some(&(next_kind, next_i)) = orders[stage].get(cursor[stage] + 1) {
                            if next_kind == TaskKind::Bwd
                                && task_ready(next_kind, next_i, stage, &fwd_done, &bwd_done)
                                    .is_some()
                            {
                                orders[stage].swap(cursor[stage], cursor[stage] + 1);
                                continue;
                            }
                        }
                    }
                    let Some(ready_at) = ready.take() else {
                        break;
                    };
                    let (kind, i) = orders[stage][cursor[stage]];
                    let dur = match kind {
                        TaskKind::Fwd => jobs[i].fwd[stage],
                        TaskKind::Bwd => jobs[i].bwd[stage],
                    };
                    let begin = stage_time[stage].max(ready_at);
                    let finish = begin + dur;
                    stage_time[stage] = finish;
                    busy[stage] += dur;
                    trace.push(TraceEvent {
                        microbatch: i,
                        stage,
                        forward: kind == TaskKind::Fwd,
                        start: begin,
                        end: finish,
                    });
                    match kind {
                        TaskKind::Fwd => fwd_done[i][stage] = finish,
                        TaskKind::Bwd => bwd_done[i][stage] = finish,
                    }
                    cursor[stage] += 1;
                    done += 1;
                    progressed = true;
                }
            }
            assert!(
                progressed,
                "pipeline deadlock: inconsistent schedule dependencies"
            );
        }

        // Flush: everyone synchronizes, then the optimizer runs.
        clock = stage_time.iter().fold(0.0f64, |a, &b| a.max(b)) + opts.optimizer_seconds;
        start = end;
    }

    let makespan = clock.max(stage_time.iter().fold(0.0f64, |a, &b| a.max(b)));
    let bubble_ratio = if makespan > 0.0 {
        1.0 - busy.iter().sum::<f64>() / (makespan * s as f64)
    } else {
        0.0
    };
    let result = PipelineResult {
        makespan,
        per_stage_busy: busy,
        bubble_ratio,
        tokens: jobs.iter().map(|j| j.tokens).sum(),
        trace,
    };
    if lorafusion_trace::enabled() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        result.export_to_trace(&format!("pipeline#{run}"));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_jobs(n: usize, stages: usize, f: f64, b: f64) -> Vec<PipelineJob> {
        (0..n)
            .map(|_| PipelineJob {
                fwd: vec![f; stages],
                bwd: vec![b; stages],
                tokens: 1000,
                after_backward_of: None,
            })
            .collect()
    }

    #[test]
    fn single_stage_is_sequential() {
        let jobs = uniform_jobs(4, 1, 1.0, 2.0);
        let opts = PipelineOptions {
            stages: 1,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&jobs, &[4], &opts);
        assert!((r.makespan - 12.0).abs() < 1e-9);
        assert!(r.bubble_ratio.abs() < 1e-9);
    }

    #[test]
    fn classic_1f1b_bubble_formula() {
        // Uniform microbatches, f = b: bubble = (S-1)/(M + S-1) when
        // bwd = fwd; with bwd = 2 fwd the canonical formula uses the
        // combined slot time. Check against (S-1)/(M+S-1) for f == b.
        let (s, m) = (4usize, 8usize);
        let jobs = uniform_jobs(m, s, 1.0, 1.0);
        let opts = PipelineOptions {
            stages: s,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&jobs, &[m], &opts);
        let expect = (s - 1) as f64 / (m + s - 1) as f64;
        assert!(
            (r.bubble_ratio - expect).abs() < 0.02,
            "bubble {} expect {expect}",
            r.bubble_ratio
        );
    }

    #[test]
    fn more_microbatches_shrink_the_bubble() {
        let opts = PipelineOptions {
            stages: 4,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let small = simulate_pipeline(&uniform_jobs(4, 4, 1.0, 2.0), &[4], &opts);
        let large = simulate_pipeline(&uniform_jobs(32, 4, 1.0, 2.0), &[32], &opts);
        assert!(large.bubble_ratio < small.bubble_ratio);
        assert!(large.tokens_per_second() > small.tokens_per_second());
    }

    #[test]
    fn flushes_add_bubbles() {
        let jobs = uniform_jobs(16, 4, 1.0, 2.0);
        let opts = PipelineOptions {
            stages: 4,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let continuous = simulate_pipeline(&jobs, &[16], &opts);
        let flushed = simulate_pipeline(&jobs, &[4, 4, 4, 4], &opts);
        assert!(flushed.bubble_ratio > continuous.bubble_ratio * 1.3);
        assert!(flushed.makespan > continuous.makespan);
    }

    #[test]
    fn imbalance_creates_bubbles() {
        let opts = PipelineOptions {
            stages: 4,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let uniform = simulate_pipeline(&uniform_jobs(16, 4, 1.0, 2.0), &[16], &opts);
        let mut ragged = uniform_jobs(16, 4, 1.0, 2.0);
        for (i, j) in ragged.iter_mut().enumerate() {
            let scale = if i % 4 == 0 { 2.5 } else { 0.5 };
            for v in j.fwd.iter_mut().chain(j.bwd.iter_mut()) {
                *v *= scale;
            }
        }
        let imb = simulate_pipeline(&ragged, &[16], &opts);
        assert!(imb.bubble_ratio > uniform.bubble_ratio + 0.03);
    }

    #[test]
    fn backward_dependency_is_honored() {
        let stages = 2;
        let mut jobs = uniform_jobs(4, stages, 1.0, 1.0);
        // Microbatch 3 must wait for microbatch 0's backward at stage 0.
        jobs[3].after_backward_of = Some(0);
        let opts = PipelineOptions {
            stages,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&jobs, &[4], &opts);
        // Without the dep, makespan would be the steady 1F1B value; the dep
        // can only delay.
        let mut free = uniform_jobs(4, stages, 1.0, 1.0);
        free[3].after_backward_of = None;
        let base = simulate_pipeline(&free, &[4], &opts);
        assert!(r.makespan >= base.makespan - 1e-12);
    }

    #[test]
    fn noops_occupy_slots_without_work() {
        let stages = 4;
        let mut jobs = uniform_jobs(8, stages, 1.0, 2.0);
        jobs.insert(4, PipelineJob::noop(stages));
        let opts = PipelineOptions {
            stages,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&jobs, &[9], &opts);
        assert_eq!(r.tokens, 8000);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn idle_events_reproduce_bubble_ratio() {
        // The aggregate bubble ratio (cursor arithmetic) must be exactly
        // reproducible from the explicit idle events of the replayed
        // per-stage timelines — flushed mode included, where the optimizer
        // tail shows up as trailing idle gaps.
        let stages = 4usize;
        let jobs = uniform_jobs(8, stages, 1.0, 2.0);
        let opts = PipelineOptions {
            stages,
            comm_seconds: 0.1,
            optimizer_seconds: 0.5,
        };
        let r = simulate_pipeline(&jobs, &[4, 4], &opts);
        let timelines = r.stage_timelines();
        assert_eq!(timelines.len(), stages);
        let mean_idle = timelines
            .iter()
            .map(|t| t.idle_ratio_from_events())
            .sum::<f64>()
            / stages as f64;
        assert!(
            (mean_idle - r.bubble_ratio).abs() < 1e-9,
            "idle-event bubble {mean_idle} != cursor bubble {}",
            r.bubble_ratio
        );
        for (tl, &busy) in timelines.iter().zip(&r.per_stage_busy) {
            assert!((tl.makespan() - r.makespan).abs() < 1e-9);
            assert!((tl.idle_total() - (r.makespan - busy)).abs() < 1e-9);
        }
    }

    #[test]
    fn optimizer_time_is_charged_per_flush() {
        let jobs = uniform_jobs(8, 2, 1.0, 1.0);
        let opts0 = PipelineOptions {
            stages: 2,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let opts1 = PipelineOptions {
            stages: 2,
            comm_seconds: 0.0,
            optimizer_seconds: 0.5,
        };
        let a = simulate_pipeline(&jobs, &[4, 4], &opts0);
        let b = simulate_pipeline(&jobs, &[4, 4], &opts1);
        assert!((b.makespan - a.makespan - 1.0).abs() < 1e-9);
    }
}
