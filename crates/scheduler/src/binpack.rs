//! Two-stage MILP bin-packing with greedy fallback (Algorithm 1, lines 2-10).

use std::time::Duration;

use lorafusion_solver::{solve_milp, MilpOptions, Problem, Sense, Status, VarId};

use crate::types::{AdapterLoads, Microbatch, MicrobatchEntry, SchedulerError};

/// Result of packing one global batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PackOutcome {
    /// The packed microbatches (bins), in schedule order.
    pub microbatches: Vec<Microbatch>,
    /// Whether the MILP solution was selected over the greedy baseline
    /// (the paper reports 77.4% selection at a 10 s timeout).
    pub used_milp: bool,
    /// Whether the MILP proved optimality before the timeout.
    pub milp_optimal: bool,
}

/// Padded token load a set of entries adds for one adapter.
fn padded_load(tokens: usize, padding: usize) -> usize {
    let p = padding.max(1);
    tokens.div_ceil(p) * p
}

/// Padded size of a bin holding `entries`.
fn bin_tokens(entries: &[MicrobatchEntry], padding: usize) -> usize {
    let mut adapters: Vec<usize> = entries.iter().map(|e| e.adapter).collect();
    adapters.sort_unstable();
    adapters.dedup();
    adapters
        .into_iter()
        .map(|a| {
            padded_load(
                entries
                    .iter()
                    .filter(|e| e.adapter == a)
                    .map(|e| e.sample.len)
                    .sum(),
                padding,
            )
        })
        .sum()
}

/// Greedy first-fit-decreasing packing.
///
/// Samples are sorted by decreasing length and placed into the first bin
/// whose padded load stays within `capacity`; a new bin opens otherwise.
/// Trial placements use the incremental [`AdapterLoads`] delta (the
/// padded total is separable per adapter) instead of recomputing the
/// whole bin, which drops a placement trial from `O(bin entries)` to
/// `O(log adapters)` with bitwise-identical results.
pub fn greedy_packing(
    entries: &[MicrobatchEntry],
    capacity: usize,
    padding: usize,
) -> Vec<Microbatch> {
    let mut sorted: Vec<MicrobatchEntry> = entries.to_vec();
    sorted.sort_by(|a, b| {
        b.sample
            .len
            .cmp(&a.sample.len)
            .then(a.sample.id.cmp(&b.sample.id))
    });

    let mut bins: Vec<Vec<MicrobatchEntry>> = Vec::new();
    let mut loads: Vec<AdapterLoads> = Vec::new();
    for e in sorted {
        let mut placed = false;
        for (bin, load) in bins.iter_mut().zip(loads.iter_mut()) {
            if load.padded_total() + load.delta_add(e.adapter, e.sample.len) <= capacity {
                bin.push(e);
                load.add(e.adapter, e.sample.len);
                placed = true;
                break;
            }
        }
        if !placed {
            let mut load = AdapterLoads::new(padding);
            load.add(e.adapter, e.sample.len);
            bins.push(vec![e]);
            loads.push(load);
        }
    }
    bins.into_iter()
        .map(|entries| Microbatch {
            entries,
            noop: false,
        })
        .collect()
}

/// Variable limit above which the MILP is skipped outright (the greedy
/// result is returned as the fallback, as a large model would only burn
/// the timeout).
const MAX_MILP_VARS: usize = 900;

/// Two-stage MILP packing with the greedy baseline as warm start and
/// fallback (Algorithm 1).
///
/// Stage 1 minimizes the number of bins; stage 2, with the bin count
/// fixed, minimizes the token count of the smallest bin so later merge
/// passes have maximal room. Returns greedy packing when the MILP times
/// out without improving on it.
pub fn two_stage_milp_packing(
    entries: &[MicrobatchEntry],
    capacity: usize,
    padding: usize,
    timeout: Duration,
) -> Result<PackOutcome, SchedulerError> {
    let greedy = greedy_packing(entries, capacity, padding);
    let b_greedy = greedy.len();
    if entries.is_empty() || b_greedy <= 1 {
        // Nothing to optimize: zero or one bin is trivially optimal.
        return Ok(PackOutcome {
            microbatches: greedy,
            used_milp: false,
            milp_optimal: true,
        });
    }

    let mut adapters: Vec<usize> = entries.iter().map(|e| e.adapter).collect();
    adapters.sort_unstable();
    adapters.dedup();
    let num_s = entries.len();
    let num_a = adapters.len();
    let num_b = b_greedy;
    if num_s * num_b + num_a * num_b + num_b > MAX_MILP_VARS {
        // The full model would only burn the timeout; go straight to the
        // neighborhood matheuristic over the smallest bins.
        {
            use std::sync::OnceLock;
            static SKIPS: OnceLock<lorafusion_trace::metrics::Counter> = OnceLock::new();
            SKIPS
                .get_or_init(|| lorafusion_trace::metrics::counter("scheduler.milp_skipped_vars"))
                .incr();
        }
        let greedy_min = greedy
            .iter()
            .map(|m| bin_tokens(&m.entries, padding))
            .min()
            .unwrap_or(0);
        if let Some(bins) = neighborhood_smallest_bin(&greedy, capacity, padding, timeout) {
            let nb_min = bins
                .iter()
                .map(|m| bin_tokens(&m.entries, padding))
                .min()
                .unwrap_or(0);
            if bins.len() <= b_greedy && nb_min < greedy_min {
                return Ok(PackOutcome {
                    microbatches: bins,
                    used_milp: true,
                    milp_optimal: false,
                });
            }
        }
        return Ok(PackOutcome {
            microbatches: greedy,
            used_milp: false,
            milp_optimal: false,
        });
    }

    // ---- Stage 1: minimize the number of used bins. ----
    let stage1 = build_model(
        entries,
        &adapters,
        num_b,
        capacity,
        padding,
        Objective::MinBins,
    );
    let warm1 = warm_start_from(&greedy, entries, &adapters, num_b, capacity, padding, true);
    let options = MilpOptions {
        timeout,
        warm_start: Some(warm1),
    };
    let sol1 = solve_milp(&stage1.problem, &options)?;
    let b_star = match sol1.status {
        Status::Optimal | Status::TimedOut if !sol1.values.is_empty() => {
            let used: f64 = (0..num_b).map(|b| sol1.values[stage1.z[b].0]).sum();
            (used.round() as usize).min(b_greedy).max(1)
        }
        _ => b_greedy,
    };
    let b_star = b_star.min(b_greedy);

    // ---- Stage 2: with B* bins, minimize the smallest bin's tokens. ----
    // The last bin is designated the smallest (bins are interchangeable).
    let stage2 = build_model(
        entries,
        &adapters,
        b_star,
        capacity,
        padding,
        Objective::MinSmallestBin,
    );
    // Warm start: prefer a slack-concentrating repack (fill B*-1 bins as
    // full as possible and push the remainder into the last bin) when it
    // beats the greedy arrangement's smallest bin; greedy otherwise.
    let concentrated = concentrate_slack(entries, b_star, capacity, padding);
    let warm2 = match &concentrated {
        Some(bins)
            if b_star == b_greedy
                && min_bin_tokens(bins, padding) < min_bin_tokens(&greedy, padding) =>
        {
            Some(warm_start_from(
                bins, entries, &adapters, b_star, capacity, padding, false,
            ))
        }
        _ if b_star == b_greedy => Some(warm_start_from(
            &greedy, entries, &adapters, b_star, capacity, padding, false,
        )),
        _ => sol1_to_warm(&sol1, &stage1, num_s, num_a, b_star, padding.max(1)),
    };
    let options2 = MilpOptions {
        timeout,
        warm_start: warm2,
    };
    let sol2 = solve_milp(&stage2.problem, &options2)?;

    let milp_bins = match sol2.status {
        Status::Optimal | Status::TimedOut if !sol2.values.is_empty() => {
            extract_bins(&sol2.values, &stage2, entries, b_star)
        }
        _ => None,
    };

    // When the full stage-2 model is too large for the branch-and-bound to
    // improve within the timeout (the original system uses a commercial
    // solver here), fall back to a neighborhood MILP: re-optimize only the
    // smallest bins exactly, keeping the rest of the assignment fixed.
    let milp_bins = match milp_bins {
        Some(bins) => Some(bins),
        None => neighborhood_smallest_bin(&greedy, capacity, padding, timeout),
    };
    let milp_bins = match milp_bins {
        Some(bins) => {
            let milp_min = bins
                .iter()
                .map(|m| bin_tokens(&m.entries, padding))
                .min()
                .unwrap_or(0);
            let greedy_min = greedy
                .iter()
                .map(|m| bin_tokens(&m.entries, padding))
                .min()
                .unwrap_or(0);
            if bins.len() < b_greedy || (bins.len() == b_greedy && milp_min < greedy_min) {
                Some(bins)
            } else {
                // Try the neighborhood refinement on top of the full-model
                // result before conceding to greedy.
                neighborhood_smallest_bin(&greedy, capacity, padding, timeout).filter(|nb| {
                    let nb_min = nb
                        .iter()
                        .map(|m| bin_tokens(&m.entries, padding))
                        .min()
                        .unwrap_or(0);
                    nb.len() <= b_greedy && nb_min < greedy_min
                })
            }
        }
        None => None,
    };

    // Algorithm 1 lines 8-9: prefer greedy unless the MILP used fewer bins
    // or achieved a smaller smallest-bin.
    match milp_bins {
        Some(bins) => Ok(PackOutcome {
            microbatches: bins,
            used_milp: true,
            milp_optimal: sol2.status == Status::Optimal,
        }),
        None => Ok(PackOutcome {
            microbatches: greedy,
            used_milp: false,
            milp_optimal: sol2.status == Status::Optimal,
        }),
    }
}

/// Smallest padded bin size in a packing.
fn min_bin_tokens(bins: &[Microbatch], padding: usize) -> usize {
    bins.iter()
        .map(|m| bin_tokens(&m.entries, padding))
        .min()
        .unwrap_or(0)
}

/// Slack-concentrating repack: first-fit-decreasing into `num_b - 1` bins,
/// overflow into the last bin. When feasible, the last bin carries all the
/// slack — exactly the stage-2 objective's preferred shape — making it a
/// strong MILP incumbent.
fn concentrate_slack(
    entries: &[MicrobatchEntry],
    num_b: usize,
    capacity: usize,
    padding: usize,
) -> Option<Vec<Microbatch>> {
    if num_b < 2 {
        return None;
    }
    let mut sorted: Vec<MicrobatchEntry> = entries.to_vec();
    sorted.sort_by(|a, b| {
        b.sample
            .len
            .cmp(&a.sample.len)
            .then(a.sample.id.cmp(&b.sample.id))
    });
    let mut bins: Vec<Vec<MicrobatchEntry>> = vec![Vec::new(); num_b - 1];
    let mut loads: Vec<AdapterLoads> = vec![AdapterLoads::new(padding); num_b - 1];
    let mut overflow: Vec<MicrobatchEntry> = Vec::new();
    for e in sorted {
        let mut placed = false;
        for (bin, load) in bins.iter_mut().zip(loads.iter_mut()) {
            if load.padded_total() + load.delta_add(e.adapter, e.sample.len) <= capacity {
                bin.push(e);
                load.add(e.adapter, e.sample.len);
                placed = true;
                break;
            }
        }
        if !placed {
            overflow.push(e);
        }
    }
    if bin_tokens(&overflow, padding) > capacity {
        return None;
    }
    let mut out: Vec<Microbatch> = bins
        .into_iter()
        .map(|entries| Microbatch {
            entries,
            noop: false,
        })
        .collect();
    out.push(Microbatch {
        entries: overflow,
        noop: false,
    });
    out.retain(|m| !m.entries.is_empty());
    if out.len() > num_b {
        return None;
    }
    Some(out)
}

/// Neighborhood matheuristic for stage 2: keep all bins except the three
/// smallest fixed, and solve the min-smallest-bin MILP exactly over the
/// samples of those bins. The reduced instance is small enough for the
/// from-scratch branch-and-bound to solve within the timeout.
fn neighborhood_smallest_bin(
    bins: &[Microbatch],
    capacity: usize,
    padding: usize,
    timeout: Duration,
) -> Option<Vec<Microbatch>> {
    if bins.len() < 2 {
        return None;
    }
    // Neighborhood: the smallest bin (whose load we want to reduce) plus
    // the bins that can absorb its samples — most capacity headroom with
    // the fewest entries — while the reduced model stays genuinely small.
    let mut order: Vec<usize> = (0..bins.len()).collect();
    order.sort_by_key(|&b| bin_tokens(&bins[b].entries, padding));
    let smallest = order[0];
    let mut donors: Vec<usize> = order[1..].to_vec();
    donors.sort_by_key(|&b| {
        // Prefer large headroom, tiebreak on fewer entries.
        let headroom = capacity.saturating_sub(bin_tokens(&bins[b].entries, padding));
        (std::cmp::Reverse(headroom), bins[b].entries.len())
    });
    let mut chosen: Vec<usize> = vec![smallest];
    let mut entries: Vec<MicrobatchEntry> = bins[smallest].entries.clone();
    for &b in donors.iter().take(4) {
        if chosen.len() >= 3 || entries.len() + bins[b].entries.len() > 36 {
            continue;
        }
        chosen.push(b);
        entries.extend(bins[b].entries.iter().copied());
    }
    if chosen.len() < 2 || entries.len() > 36 {
        return None;
    }
    let mut adapters: Vec<usize> = entries.iter().map(|e| e.adapter).collect();
    adapters.sort_unstable();
    adapters.dedup();

    let model = build_model(
        &entries,
        &adapters,
        chosen.len(),
        capacity,
        padding,
        Objective::MinSmallestBin,
    );
    let options = MilpOptions {
        timeout,
        ..MilpOptions::default()
    };
    let sol = solve_milp(&model.problem, &options).ok()?;
    if !matches!(sol.status, Status::Optimal | Status::TimedOut) || sol.values.is_empty() {
        return None;
    }
    let repacked = extract_bins(&sol.values, &model, &entries, chosen.len())?;

    // The repack must not be worse: same bin count, min no larger.
    let old_min = chosen
        .iter()
        .map(|&b| bin_tokens(&bins[b].entries, padding))
        .min()
        .unwrap_or(0);
    let new_min = repacked
        .iter()
        .map(|m| bin_tokens(&m.entries, padding))
        .min()
        .unwrap_or(usize::MAX);
    if repacked.len() > chosen.len() || new_min >= old_min {
        return None;
    }

    let mut result: Vec<Microbatch> = Vec::with_capacity(bins.len());
    for (b, bin) in bins.iter().enumerate() {
        if !chosen.contains(&b) {
            result.push(bin.clone());
        }
    }
    result.extend(repacked);
    Some(result)
}

enum Objective {
    MinBins,
    MinSmallestBin,
}

struct Model {
    problem: Problem,
    /// x[s][b]: sample s in bin b.
    x: Vec<Vec<VarId>>,
    /// k[a][b]: padded multiples of adapter a in bin b.
    k: Vec<Vec<VarId>>,
    /// z[b]: bin b used (stage 1 only; empty for stage 2).
    z: Vec<VarId>,
}

fn build_model(
    entries: &[MicrobatchEntry],
    adapters: &[usize],
    num_b: usize,
    capacity: usize,
    padding: usize,
    objective: Objective,
) -> Model {
    let p = padding.max(1) as f64;
    let cap = capacity as f64;
    let num_s = entries.len();
    let num_a = adapters.len();
    let k_max = (capacity as f64 / p).floor();

    let mut problem = Problem::new();
    let x: Vec<Vec<VarId>> = (0..num_s)
        .map(|_| (0..num_b).map(|_| problem.add_bin_var(0.0)).collect())
        .collect();
    let k: Vec<Vec<VarId>> = (0..num_a)
        .map(|_| {
            (0..num_b)
                .map(|_| problem.add_int_var(0.0, 0.0, k_max))
                .collect()
        })
        .collect();
    let z: Vec<VarId> = match objective {
        Objective::MinBins => (0..num_b).map(|_| problem.add_bin_var(1.0)).collect(),
        Objective::MinSmallestBin => Vec::new(),
    };

    // Each sample in exactly one bin.
    for xs in &x {
        problem.add_constraint(xs.iter().map(|&v| (v, 1.0)).collect(), Sense::Eq, 1.0);
    }
    // Adapter loads respect padded multiples.
    for (ai, &adapter) in adapters.iter().enumerate() {
        for b in 0..num_b {
            let mut terms: Vec<(VarId, f64)> = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.adapter == adapter)
                .map(|(s, e)| (x[s][b], e.sample.len as f64))
                .collect();
            terms.push((k[ai][b], -p));
            problem.add_constraint(terms, Sense::Le, 0.0);
        }
    }
    // Capacity per bin (gated by z in stage 1).
    for b in 0..num_b {
        let mut terms: Vec<(VarId, f64)> = (0..num_a).map(|ai| (k[ai][b], p)).collect();
        match objective {
            Objective::MinBins => {
                terms.push((z[b], -cap));
                problem.add_constraint(terms, Sense::Le, 0.0);
            }
            Objective::MinSmallestBin => {
                problem.add_constraint(terms, Sense::Le, cap);
            }
        }
    }
    match objective {
        Objective::MinBins => {
            // Used bins are contiguous from the start (symmetry breaking +
            // the paper's constraint).
            for b in 0..num_b.saturating_sub(1) {
                problem.add_constraint(vec![(z[b], 1.0), (z[b + 1], -1.0)], Sense::Ge, 0.0);
            }
        }
        Objective::MinSmallestBin => {
            // Designate the last bin as the smallest and minimize it.
            let last = num_b - 1;
            for b in 0..last {
                let mut terms: Vec<(VarId, f64)> = (0..num_a).map(|ai| (k[ai][last], p)).collect();
                for krow in &k {
                    terms.push((krow[b], -p));
                }
                problem.add_constraint(terms, Sense::Le, 0.0);
            }
        }
    }

    let mut model = Model { problem, x, k, z };
    if matches!(objective, Objective::MinSmallestBin) {
        // Epigraph variable t >= last-bin tokens, minimized.
        let t = model.problem.add_var(1.0, 0.0, cap);
        let last = num_b - 1;
        let mut terms: Vec<(VarId, f64)> = (0..num_a).map(|ai| (model.k[ai][last], p)).collect();
        terms.push((t, -1.0));
        model.problem.add_constraint(terms, Sense::Le, 0.0);
        // And t is pushed down only by minimization; since k[.][last]
        // already appears in "last is smallest" constraints, t tracks the
        // last bin's load from above at optimality.
    }
    model
}

/// Builds a warm-start vector from a bin assignment.
fn warm_start_from(
    bins: &[Microbatch],
    entries: &[MicrobatchEntry],
    adapters: &[usize],
    num_b: usize,
    capacity: usize,
    padding: usize,
    with_z: bool,
) -> Vec<f64> {
    let p = padding.max(1);
    let num_s = entries.len();
    let num_a = adapters.len();

    // Order bins so the smallest is last (helps the stage-2 model).
    let mut order: Vec<usize> = (0..bins.len()).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(bin_tokens(&bins[b].entries, padding)));

    let mut x = vec![0.0; num_s * num_b];
    let mut k = vec![0.0; num_a * num_b];
    for (slot, &b) in order.iter().enumerate() {
        if slot >= num_b {
            break;
        }
        for e in &bins[b].entries {
            let s = entries
                .iter()
                .position(|o| o.sample.id == e.sample.id && o.adapter == e.adapter)
                .expect("warm start entry must come from the same global batch");
            x[s * num_b + slot] = 1.0;
        }
        for (ai, &adapter) in adapters.iter().enumerate() {
            let tokens: usize = bins[b]
                .entries
                .iter()
                .filter(|e| e.adapter == adapter)
                .map(|e| e.sample.len)
                .sum();
            k[ai * num_b + slot] = (tokens.div_ceil(p)) as f64;
        }
    }

    let mut values = Vec::with_capacity(num_s * num_b + num_a * num_b + num_b + 1);
    values.extend_from_slice(&x);
    values.extend_from_slice(&k);
    if with_z {
        for b in 0..num_b {
            values.push(if b < bins.len() { 1.0 } else { 0.0 });
        }
    } else {
        // Stage 2 epigraph variable: the last bin's padded tokens.
        let t = order
            .last()
            .map(|&b| bin_tokens(&bins[b].entries, padding) as f64)
            .unwrap_or(0.0)
            .min(capacity as f64);
        values.push(t);
    }
    values
}

/// Converts a stage-1 solution into a stage-2 warm start when the bin
/// counts line up; otherwise returns `None` (stage 2 starts cold).
fn sol1_to_warm(
    sol1: &lorafusion_solver::Solution,
    stage1: &Model,
    num_s: usize,
    num_a: usize,
    b_star: usize,
    padding: usize,
) -> Option<Vec<f64>> {
    if sol1.values.is_empty() {
        return None;
    }
    let num_b1 = stage1.z.len();
    // Collect used bins, largest first so the smallest lands in the
    // designated last slot (stage 2's symmetry-broken layout).
    let mut used: Vec<usize> = (0..num_b1)
        .filter(|&b| sol1.values[stage1.z[b].0] > 0.5)
        .collect();
    if used.len() != b_star {
        return None;
    }
    let bin_load = |b: usize| -> f64 {
        (0..num_a)
            .map(|a| sol1.values[stage1.k[a][b].0].round())
            .sum()
    };
    used.sort_by(|&x, &y| {
        bin_load(y)
            .partial_cmp(&bin_load(x))
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    let mut values = Vec::with_capacity(num_s * b_star + num_a * b_star + 1);
    for s in 0..num_s {
        for &b in &used {
            values.push(sol1.values[stage1.x[s][b].0].round());
        }
    }
    let mut k_last = 0.0;
    for a in 0..num_a {
        for (slot, &b) in used.iter().enumerate() {
            let v = sol1.values[stage1.k[a][b].0].round();
            values.push(v);
            if slot == b_star - 1 {
                k_last += v;
            }
        }
    }
    // Epigraph t tracks the last bin's padded tokens.
    values.push(k_last * padding as f64);
    Some(values)
}

/// Extracts bins from a stage-2 solution. Returns `None` when rounding
/// produced an inconsistent assignment.
fn extract_bins(
    values: &[f64],
    model: &Model,
    entries: &[MicrobatchEntry],
    num_b: usize,
) -> Option<Vec<Microbatch>> {
    let mut bins: Vec<Vec<MicrobatchEntry>> = vec![Vec::new(); num_b];
    for (s, e) in entries.iter().enumerate() {
        let mut placed = false;
        for b in 0..num_b {
            if values[model.x[s][b].0] > 0.5 {
                if placed {
                    return None; // Double assignment: numerically bogus.
                }
                bins[b].push(*e);
                placed = true;
            }
        }
        if !placed {
            return None;
        }
    }
    bins.retain(|b| !b.is_empty());
    Some(
        bins.into_iter()
            .map(|entries| Microbatch {
                entries,
                noop: false,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_data::Sample;

    fn entry(adapter: usize, id: u64, len: usize) -> MicrobatchEntry {
        MicrobatchEntry {
            adapter,
            global_batch: 0,
            sample: Sample { id, len },
        }
    }

    #[test]
    fn greedy_respects_capacity() {
        let entries: Vec<_> = (0..10).map(|i| entry(0, i, 300)).collect();
        let bins = greedy_packing(&entries, 1024, 64);
        for bin in &bins {
            assert!(bin.padded_tokens(64) <= 1024);
        }
        let total: usize = bins.iter().map(|b| b.entries.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn incremental_greedy_matches_recompute_reference() {
        // The AdapterLoads-based first-fit must place every sample exactly
        // where the original full-recompute loop did.
        fn reference(
            entries: &[MicrobatchEntry],
            capacity: usize,
            padding: usize,
        ) -> Vec<Microbatch> {
            let mut sorted: Vec<MicrobatchEntry> = entries.to_vec();
            sorted.sort_by(|a, b| {
                b.sample
                    .len
                    .cmp(&a.sample.len)
                    .then(a.sample.id.cmp(&b.sample.id))
            });
            let mut bins: Vec<Vec<MicrobatchEntry>> = Vec::new();
            for e in sorted {
                let mut placed = false;
                for bin in &mut bins {
                    bin.push(e);
                    if bin_tokens(bin, padding) <= capacity {
                        placed = true;
                        break;
                    }
                    bin.pop();
                }
                if !placed {
                    bins.push(vec![e]);
                }
            }
            bins.into_iter()
                .map(|entries| Microbatch {
                    entries,
                    noop: false,
                })
                .collect()
        }

        let mut rng = lorafusion_tensor::Pcg32::seeded(7);
        for case in 0..20u64 {
            let n = 5 + (rng.next_u32() % 60) as usize;
            let entries: Vec<MicrobatchEntry> = (0..n)
                .map(|i| {
                    entry(
                        (rng.next_u32() % 5) as usize,
                        case * 1000 + i as u64,
                        1 + (rng.next_u32() % 900) as usize,
                    )
                })
                .collect();
            for padding in [1usize, 64] {
                let got = greedy_packing(&entries, 1024, padding);
                let want = reference(&entries, 1024, padding);
                assert_eq!(got, want, "case {case} padding {padding}");
            }
        }
    }

    #[test]
    fn greedy_is_first_fit_decreasing() {
        // 600, 500, 400, 300, 200 with capacity 1000 and padding 1:
        // FFD -> [600, 400], [500, 300, 200]: two bins.
        let lens = [600, 500, 400, 300, 200];
        let entries: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| entry(0, i as u64, l))
            .collect();
        let bins = greedy_packing(&entries, 1000, 1);
        assert_eq!(bins.len(), 2);
    }

    #[test]
    fn milp_beats_greedy_on_adversarial_instance() {
        // Classic FFD failure: items {46, 40, 27, 27, 26, 17, 17} with
        // capacity 100. FFD: [46+40], [27+27+26+17], [17] = 3 bins;
        // optimal: [46+27+27], [40+26+17+17] = 2 bins.
        let lens = [46, 40, 27, 27, 26, 17, 17];
        let entries: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| entry(0, i as u64, l))
            .collect();
        let greedy = greedy_packing(&entries, 100, 1);
        assert_eq!(greedy.len(), 3);
        let outcome = two_stage_milp_packing(&entries, 100, 1, Duration::from_secs(5)).unwrap();
        assert!(outcome.used_milp, "MILP should improve on greedy here");
        assert_eq!(outcome.microbatches.len(), 2);
        // All samples present exactly once.
        let mut ids: Vec<u64> = outcome
            .microbatches
            .iter()
            .flat_map(|m| m.entries.iter().map(|e| e.sample.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn milp_respects_padding_multiples() {
        // Two adapters, padding 64: loads must round up per adapter.
        let entries = vec![
            entry(0, 0, 100),
            entry(0, 1, 100),
            entry(1, 2, 100),
            entry(1, 3, 100),
        ];
        let outcome = two_stage_milp_packing(&entries, 512, 64, Duration::from_secs(2)).unwrap();
        for mb in &outcome.microbatches {
            assert!(mb.padded_tokens(64) <= 512);
        }
        let total: usize = outcome.microbatches.iter().map(|m| m.entries.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn single_bin_instances_skip_milp() {
        let entries = vec![entry(0, 0, 100), entry(0, 1, 100)];
        let outcome = two_stage_milp_packing(&entries, 4096, 64, Duration::from_secs(1)).unwrap();
        assert_eq!(outcome.microbatches.len(), 1);
        assert!(!outcome.used_milp);
        assert!(outcome.milp_optimal);
    }

    #[test]
    fn oversized_models_fall_back_to_greedy() {
        // 300 samples would exceed MAX_MILP_VARS, so the full model is
        // skipped. A zero timeout stops the neighborhood MILP before its
        // first node, with no incumbent, so the result is greedy on any
        // host.
        let entries: Vec<_> = (0..300).map(|i| entry((i % 4) as usize, i, 200)).collect();
        let outcome = two_stage_milp_packing(&entries, 1024, 64, Duration::ZERO).unwrap();
        assert!(!outcome.used_milp);
        assert!(!outcome.milp_optimal);
        assert_eq!(
            outcome.microbatches.len(),
            greedy_packing(&entries, 1024, 64).len()
        );
        let total: usize = outcome.microbatches.iter().map(|m| m.entries.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn stage2_minimizes_smallest_bin() {
        // Items {60, 60, 40, 40} capacity 100, padding 1: both greedy and
        // optimal need 2+ bins; stage 2 should concentrate slack.
        let lens = [60, 60, 40, 40];
        let entries: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| entry(0, i as u64, l))
            .collect();
        let outcome = two_stage_milp_packing(&entries, 100, 1, Duration::from_secs(5)).unwrap();
        let total: usize = outcome.microbatches.iter().map(|m| m.entries.len()).sum();
        assert_eq!(total, 4);
        for mb in &outcome.microbatches {
            assert!(mb.real_tokens() <= 100);
        }
    }
}
