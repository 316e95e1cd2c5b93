//! The two workloads. Every workload walks the whole spine — solve, cold
//! starts, steady traffic, traffic under rollouts — so every end-to-end
//! metric exists on every workload; what a workload fixes is the regime
//! the spine runs in. `BENCHMARK.json` names each one and says why.

/// Diffusion model handed to `efficient-imm --model`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Uniform [0, 1] edge weights: the paper's dense regime, where every
    /// reverse-reachable set covers most of the graph.
    Ic,
    /// Normalised in-weights: the sparse regime of many tiny sets.
    Lt,
}

impl Model {
    pub fn cli_name(self) -> &'static str {
        match self {
            Model::Ic => "ic",
            Model::Lt => "lt",
        }
    }
}

/// Which queries a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One cheap, never-repeating query per request.
    Point,
    /// Eight expensive queries per request.
    Heavy,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub name: &'static str,
    pub model: Model,
    pub nodes: usize,
    pub avg_degree: usize,
    pub k: usize,
    pub epsilon: f64,
    pub mix: Mix,
    /// Rounds the run is cut into; each executes `run` and `build-index`
    /// once and takes its share of the cold starts and of the steady
    /// window, and medians over the rounds are kept.
    pub solve_repeats: usize,
    /// Cold starts per load path (mapped and read-decode alternate).
    pub cold_starts: usize,
    /// Share of `--seconds` spent on steady traffic; the rest is traffic
    /// under rollouts.
    pub steady_share: f64,
    /// Pause between the reply to one `apply-delta` and the next send.
    pub rollout_gap_ms: u64,
    /// Rollouts applied before the timed ones. The first rollouts of a
    /// daemon's life copy the mapped snapshot to the heap and fault fresh
    /// memory in, and cost up to twice what every later one does; timing
    /// them with the rest makes the median depend on how many fit the
    /// window.
    pub warm_rollouts: usize,
    /// Timed rollouts a run applies at least, however long they take.
    pub min_rollouts: usize,
    /// Edge insertions per `apply-delta`.
    pub delta_edges: usize,
    /// Daemon shard count.
    pub shards: usize,
}

#[cfg(test)]
pub const WORKLOADS: [&str; 2] = ["solve-ic", "solve-lt"];

/// The frozen parameters of workload `name`; `smoke` shrinks the graph so
/// the whole catalog runs in seconds (numbers from a smoke run mean
/// nothing — it only proves every metric is produced).
pub fn plan(name: &str, smoke: bool) -> Option<Plan> {
    // 150k nodes is what fits the time cap with five rounds; θ is the same
    // 281 738 for every seed there (the estimation loop's own sample count
    // decides it; at 100k OPT/n sits 4 % below a threshold of that loop,
    // and θ — and every cost with it — jumps by a third between seeds).
    let solve_lt = Plan {
        name: "solve-lt",
        model: Model::Lt,
        nodes: if smoke { 4_000 } else { 150_000 },
        avg_degree: 10,
        k: 50,
        epsilon: if smoke { 0.5 } else { 0.35 },
        mix: Mix::Heavy,
        solve_repeats: if smoke { 1 } else { 5 },
        cold_starts: if smoke { 1 } else { 10 },
        steady_share: 0.6,
        rollout_gap_ms: 100,
        warm_rollouts: if smoke { 1 } else { 2 },
        min_rollouts: if smoke { 1 } else { 10 },
        delta_edges: 200,
        shards: 2,
    };
    match name {
        "solve-lt" => Some(solve_lt),
        "solve-ic" => Some(Plan {
            name: "solve-ic",
            model: Model::Ic,
            nodes: if smoke { 300 } else { 2_000 },
            epsilon: 0.5,
            mix: Mix::Point,
            // Rounds are cheap here (0.2 s + 0.5 s of solving).
            solve_repeats: if smoke { 1 } else { 10 },
            cold_starts: if smoke { 1 } else { 20 },
            // A dense-regime rollout resamples nearly every set, so it is
            // a rebuild (~1 s: one per round); a few edges are enough to
            // trigger it.
            delta_edges: 20,
            ..solve_lt
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_workload_has_a_plan_carrying_its_own_name() {
        for name in WORKLOADS {
            for smoke in [false, true] {
                let p = plan(name, smoke).expect("plan exists");
                assert_eq!(p.name, name);
                assert!(p.steady_share > 0.0 && p.steady_share < 1.0);
                assert!(p.cold_starts >= 1 && p.shards >= 1 && p.k < p.nodes);
            }
        }
        assert!(plan("nope", false).is_none());
    }
}
