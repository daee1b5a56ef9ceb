//! Property-based suite: compile-gated because `proptest` is not
//! vendored in the offline build. Enable with `--features proptest` after
//! re-adding the `proptest` dev-dependency in a networked environment.
//! Deterministic sweep fallbacks live in the regular test suites.
#![cfg(feature = "proptest")]

//! Property-based tests for the pipeline simulator: on random microbatch
//! streams the simulation must be physically consistent — no overlapping
//! work on a stage, all dependencies respected, and makespan bounded below
//! by the critical-path lower bounds.

use lorafusion_dist::pipeline::{simulate_pipeline, PipelineJob, PipelineOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Stream {
    jobs: Vec<PipelineJob>,
    stages: usize,
}

fn arb_stream() -> impl Strategy<Value = Stream> {
    (
        2usize..5,
        prop::collection::vec((1u32..40, 1u32..40), 2..24),
    )
        .prop_map(|(stages, durs)| Stream {
            jobs: durs
                .into_iter()
                .map(|(f, b)| PipelineJob {
                    fwd: vec![f as f64 * 0.01; stages],
                    bwd: vec![b as f64 * 0.01; stages],
                    tokens: 100,
                    after_backward_of: None,
                })
                .collect(),
            stages,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tasks on the same stage never overlap, and each task's duration
    /// matches its job's cost.
    #[test]
    fn stages_are_sequential(stream in arb_stream()) {
        let opts = PipelineOptions {
            stages: stream.stages,
            comm_seconds: 0.001,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&stream.jobs, &[stream.jobs.len()], &opts);
        for stage in 0..stream.stages {
            let mut events: Vec<_> =
                r.trace.iter().filter(|e| e.stage == stage).collect();
            events.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in events.windows(2) {
                prop_assert!(w[1].start >= w[0].end - 1e-12, "overlap on stage {stage}");
            }
        }
        // Every microbatch executes F and B on every stage exactly once.
        prop_assert_eq!(r.trace.len(), 2 * stream.jobs.len() * stream.stages);
    }

    /// Dataflow dependencies hold in the trace: F(i,s) after F(i,s-1),
    /// B(i,s) after B(i,s+1) and after F(i,s); B at the last stage after F.
    #[test]
    fn dependencies_hold(stream in arb_stream()) {
        let opts = PipelineOptions {
            stages: stream.stages,
            comm_seconds: 0.002,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&stream.jobs, &[stream.jobs.len()], &opts);
        let find = |i: usize, stage: usize, fwd: bool| {
            r.trace
                .iter()
                .find(|e| e.microbatch == i && e.stage == stage && e.forward == fwd)
                .copied()
                .expect("task executed")
        };
        for i in 0..stream.jobs.len() {
            for stage in 0..stream.stages {
                let f = find(i, stage, true);
                let b = find(i, stage, false);
                prop_assert!(b.start >= f.end - 1e-12, "B before F at stage {stage}");
                if stage > 0 {
                    let up = find(i, stage - 1, true);
                    prop_assert!(f.start >= up.end + opts.comm_seconds - 1e-9);
                }
                if stage + 1 < stream.stages {
                    let down = find(i, stage + 1, false);
                    prop_assert!(b.start >= down.end + opts.comm_seconds - 1e-9);
                }
            }
        }
    }

    /// The makespan respects both lower bounds: the busiest stage's total
    /// work, and any single microbatch's full pipeline traversal.
    #[test]
    fn makespan_lower_bounds(stream in arb_stream()) {
        let opts = PipelineOptions {
            stages: stream.stages,
            comm_seconds: 0.0,
            optimizer_seconds: 0.0,
        };
        let r = simulate_pipeline(&stream.jobs, &[stream.jobs.len()], &opts);
        let stage_work: f64 = stream
            .jobs
            .iter()
            .map(|j| j.fwd[0] + j.bwd[0])
            .sum();
        prop_assert!(r.makespan >= stage_work - 1e-9);
        let traversal: f64 = (0..stream.stages)
            .map(|s| stream.jobs[0].fwd[s] + stream.jobs[0].bwd[s])
            .sum();
        prop_assert!(r.makespan >= traversal - 1e-9);
        // Bubble ratio stays in [0, 1).
        prop_assert!((0.0..1.0).contains(&r.bubble_ratio));
    }

    /// Flushing into more groups never reduces the makespan.
    #[test]
    fn flushes_never_help(stream in arb_stream(), cut in 1usize..23) {
        let n = stream.jobs.len();
        let cut = cut.min(n - 1).max(1);
        let opts = PipelineOptions {
            stages: stream.stages,
            comm_seconds: 0.001,
            optimizer_seconds: 0.0,
        };
        let continuous = simulate_pipeline(&stream.jobs, &[n], &opts);
        let flushed = simulate_pipeline(&stream.jobs, &[cut, n - cut], &opts);
        prop_assert!(flushed.makespan >= continuous.makespan - 1e-9);
    }

    /// Adapter dependencies delay but never deadlock when spaced at least
    /// `stages - 1` slots apart.
    #[test]
    fn spaced_dependencies_never_deadlock(stream in arb_stream()) {
        let mut jobs = stream.jobs.clone();
        let gap = stream.stages - 1;
        for i in 0..jobs.len() {
            if i > gap {
                jobs[i].after_backward_of = Some(i - gap - 1);
            }
        }
        let opts = PipelineOptions {
            stages: stream.stages,
            comm_seconds: 0.001,
            optimizer_seconds: 0.0,
        };
        // Must terminate (no deadlock assert) and honor the edges.
        let r = simulate_pipeline(&jobs, &[jobs.len()], &opts);
        for (i, job) in jobs.iter().enumerate() {
            if let Some(dep) = job.after_backward_of {
                let f = r.trace.iter().find(|e| e.microbatch == i && e.stage == 0 && e.forward).unwrap();
                let b = r.trace.iter().find(|e| e.microbatch == dep && e.stage == 0 && !e.forward).unwrap();
                prop_assert!(f.start >= b.end - 1e-12, "dependency violated for mb {i}");
            }
        }
    }
}
