//! Everything the benchmark feeds the system is made here, from one
//! `--seed`: the seeds handed to the CLI, the query streams and the
//! edge-insert batches. The generators are the harness's own (a SplitMix64
//! stream) so a change to the repository's RNG shim cannot silently change
//! the workload.

/// SplitMix64: tiny, seedable, and good enough for drawing workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The independent streams one `--seed` fans out into. The program under
/// test only ever sees the files and requests generated from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub graph: u64,
    pub imm: u64,
    pub queries: u64,
    pub deltas: u64,
    pub spread: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_5EED_5EED_5EED);
        // CLI seeds stay below 2^31 so they read the same in every
        // argument parser and log line.
        let mut next = || rng.next_u64() % (1 << 31);
        Seeds { graph: next(), imm: next(), queries: next(), deltas: next(), spread: next() }
    }
}

/// One query in the harness's own vocabulary; `sut` turns it into the
/// system's request type.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    TopK { k: usize, audience: Option<Vec<u32>> },
    Spread { seeds: Vec<u32> },
    Marginal { seeds: Vec<u32>, candidate: u32 },
}

fn vertices(rng: &mut Rng, count: usize, nodes: usize) -> Vec<u32> {
    (0..count).map(|_| rng.range(0, nodes - 1) as u32).collect()
}

/// A cheap single query: a Spread over 1–8 seeds or a Marginal over 1–4
/// seeds plus a candidate, half each, vertices drawn uniformly so no two
/// queries repeat. One query in 64 is a plain Top-K (k 1–50): it has only
/// fifty distinct forms, all of which the response cache keeps, so a
/// larger share would turn the cache-bypass mix into a cache-hit one.
/// (Audience Top-K is not a point query at this scale — one costs as much
/// as a hundred Spreads — and lives in the heavy mix only.)
pub fn point_query(rng: &mut Rng, nodes: usize) -> QuerySpec {
    if rng.range(0, 63) == 0 {
        return QuerySpec::TopK { k: rng.range(1, 50), audience: None };
    }
    if rng.range(0, 1) == 0 {
        let count = rng.range(1, 8);
        QuerySpec::Spread { seeds: vertices(rng, count, nodes) }
    } else {
        let count = rng.range(1, 4);
        QuerySpec::Marginal {
            seeds: vertices(rng, count, nodes),
            candidate: rng.range(0, nodes - 1) as u32,
        }
    }
}

/// An expensive query: a Spread over 16–64 seeds or an audience Top-K
/// (k 5–20) over a 200–2000-vertex audience, half each.
pub fn heavy_query(rng: &mut Rng, nodes: usize) -> QuerySpec {
    if rng.range(0, 1) == 0 {
        let count = rng.range(16, 64);
        QuerySpec::Spread { seeds: vertices(rng, count, nodes) }
    } else {
        let k = rng.range(5, 20);
        let count = rng.range(200, 2000).min(nodes);
        QuerySpec::TopK { k, audience: Some(vertices(rng, count, nodes)) }
    }
}

/// One `apply-delta` batch in the CLI's text format: `count` random edge
/// insertions of weight `weight`.
pub fn delta_text(rng: &mut Rng, nodes: usize, count: usize, weight: f64) -> String {
    let mut text = String::with_capacity(count * 24);
    for _ in 0..count {
        let src = rng.range(0, nodes - 1);
        let mut dst = rng.range(0, nodes - 1);
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        text.push_str(&format!("+ {src} {dst} {weight}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut out: Vec<QuerySpec> = (0..200).map(|_| point_query(&mut rng, 5000)).collect();
            out.extend((0..50).map(|_| heavy_query(&mut rng, 5000)));
            (out, delta_text(&mut rng, 5000, 20, 0.05))
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        assert_eq!(Seeds::derive(11), Seeds::derive(11));
        assert_ne!(Seeds::derive(11), Seeds::derive(12));
    }

    #[test]
    fn query_shapes_stay_inside_their_documented_ranges() {
        let mut rng = Rng::new(3);
        for _ in 0..2000 {
            match point_query(&mut rng, 1000) {
                QuerySpec::Spread { seeds } => assert!((1..=8).contains(&seeds.len())),
                QuerySpec::Marginal { seeds, candidate } => {
                    assert!((1..=4).contains(&seeds.len()) && candidate < 1000)
                }
                QuerySpec::TopK { k, audience } => {
                    assert!((1..=50).contains(&k) && audience.is_none())
                }
            }
            match heavy_query(&mut rng, 1000) {
                QuerySpec::Spread { seeds } => assert!((16..=64).contains(&seeds.len())),
                QuerySpec::TopK { k, audience: Some(a) } => {
                    assert!((5..=20).contains(&k) && (200..=1000).contains(&a.len()))
                }
                other => panic!("heavy mix drew {other:?}"),
            }
        }
    }

    #[test]
    fn delta_text_is_one_insert_per_line_without_self_loops() {
        let text = delta_text(&mut Rng::new(9), 50, 100, 0.05);
        assert_eq!(text.lines().count(), 100);
        for line in text.lines() {
            let parts: Vec<&str> = line.split(' ').collect();
            assert_eq!(parts[0], "+");
            assert_ne!(parts[1], parts[2]);
            assert_eq!(parts[3], "0.05");
        }
    }
}
