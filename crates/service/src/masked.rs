//! The masked (targeted-audience) Top-K session: one sparse lazy greedy
//! shared by every engine.
//!
//! An audience Top-K is greedy max coverage over the **eligible** sets —
//! those containing at least one audience vertex. Its work follows those
//! sets, not the index: the eligible ids are collected by walking the
//! audience's postings into a θ-bit scratch, the live counts are built by
//! walking the eligible sets only (recording which vertices they touch),
//! and the CELF frontier holds the touched vertices only. A vertex no
//! eligible set contains has gain zero forever, and the all-zero argmax is
//! the smallest vertex id — so once the frontier runs dry every remaining
//! round emits vertex 0, exactly what a whole-index frontier would pop.
//!
//! The scratch is **all-zero between queries**: a finished session walks
//! its own eligible and touched lists to restore it, and goes back into a
//! per-engine pool, so a query allocates nothing in the steady state and
//! concurrent queries each check out their own session (no lock is held
//! while one runs).
//!
//! The core is generic over a [`SetsContaining`] source, so the
//! single-index engine (its `SketchIndex` postings) and the sharded engine
//! (per-segment or merged postings) run the same code over the shared
//! [`RrrCollection`].

use crate::index::{SetId, SketchIndex};
use imm_rrr::{BitSet, NodeId, RrrCollection};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Which sets contain vertex `v`", as global ids into the shared
/// collection — the only index structure the masked greedy needs.
pub trait SetsContaining {
    /// Call `f` with the id of every set containing `v` (`v` is in range).
    fn for_each_set_containing(&self, v: NodeId, f: impl FnMut(SetId));
}

impl SetsContaining for SketchIndex {
    #[inline]
    fn for_each_set_containing(&self, v: NodeId, f: impl FnMut(SetId)) {
        self.postings(v).iter().copied().for_each(f);
    }
}

/// One session's pooled scratch, sized to an index generation (n, θ).
#[derive(Debug)]
struct MaskedSession {
    /// Eligible-and-still-alive flag per set; all clear between queries.
    alive: BitSet,
    /// Live count per vertex over the alive sets; all zero between queries.
    counts: Vec<u32>,
    /// The eligible set ids, ascending (the restore list of `alive`).
    eligible: Vec<SetId>,
    /// Vertices some eligible set contains (the restore list of `counts`).
    touched: Vec<NodeId>,
    /// Storage of the CELF frontier, kept for its allocation.
    frontier: Vec<(u32, Reverse<NodeId>)>,
}

impl MaskedSession {
    fn new(num_nodes: usize, theta: usize) -> Self {
        MaskedSession {
            alive: BitSet::new(theta),
            counts: vec![0; num_nodes],
            eligible: Vec::new(),
            touched: Vec::new(),
            frontier: Vec::new(),
        }
    }

    fn fits(&self, num_nodes: usize, theta: usize) -> bool {
        self.counts.len() == num_nodes && self.alive.capacity() == theta
    }

    /// Run the masked greedy and leave the scratch all-zero again.
    fn top_k(
        &mut self,
        sets: &RrrCollection,
        source: &impl SetsContaining,
        k: usize,
        audience: &BitSet,
    ) -> (Vec<NodeId>, usize) {
        let MaskedSession { alive, counts, eligible, touched, frontier } = self;
        let n = counts.len();

        // Eligible sets: the union of the audience's postings (bits iterate
        // ascending, so the first out-of-range vertex ends the audience).
        // Once every set is eligible the rest of the audience adds nothing —
        // with dense sets that is after a handful of vertices.
        for v in audience.iter().take_while(|&v| v < n) {
            if alive.len() == sets.len() {
                break;
            }
            source.for_each_set_containing(v as NodeId, |sid| {
                alive.insert(sid as usize);
            });
        }
        // Ascending id order walks the arena front to back.
        eligible.extend(alive.iter().map(|sid| sid as SetId));
        crate::metrics::MASKED_SESSION_SETS.record(eligible.len() as u64);
        for &sid in eligible.iter() {
            sets.get(sid as usize).for_each(|v| {
                let count = &mut counts[v as usize];
                if *count == 0 {
                    touched.push(v);
                }
                *count += 1;
            });
        }

        let mut entries = std::mem::take(frontier);
        entries.extend(touched.iter().map(|&v| (counts[v as usize], Reverse(v))));
        let mut heap = BinaryHeap::from(entries);

        let rounds = k.min(n);
        let mut seeds = Vec::with_capacity(rounds);
        let mut covered = 0usize;
        while seeds.len() < rounds {
            let (best, gain) = pop_argmax(&mut heap, counts);
            seeds.push(best);
            if gain == 0 {
                continue;
            }
            source.for_each_set_containing(best, |sid| {
                if alive.remove(sid as usize) {
                    covered += 1;
                    sets.get(sid as usize).for_each(|v| counts[v as usize] -= 1);
                }
            });
            debug_assert_eq!(counts[best as usize], 0, "every alive set containing it retired");
        }

        for &v in touched.iter() {
            counts[v as usize] = 0;
        }
        for &sid in eligible.iter() {
            alive.remove(sid as usize);
        }
        touched.clear();
        eligible.clear();
        let mut entries = heap.into_vec();
        entries.clear();
        *frontier = entries;
        (seeds, covered)
    }
}

/// Pop the round's argmax off the sparse frontier: `(vertex, gain)`. The
/// frontier holds positive bounds only — a stale entry is reinserted with
/// its live count unless that is zero — so it running dry *is* the
/// all-zero round, whose argmax is the smallest vertex id.
fn pop_argmax(heap: &mut BinaryHeap<(u32, Reverse<NodeId>)>, counts: &[u32]) -> (NodeId, u32) {
    let mut stale = 0u64;
    let (argmax, accepted) = loop {
        let Some((stored, Reverse(v))) = heap.pop() else { break ((0, 0), 0) };
        let live = counts[v as usize];
        if stored == live {
            break ((v, live), 1);
        }
        debug_assert!(live < stored, "counts only fall as sets retire");
        stale += 1;
        if live > 0 {
            heap.push((live, Reverse(v)));
        }
    };
    crate::metrics::CELF_ROUNDS.increment();
    crate::metrics::CELF_HEAP_POPS.add(stale + accepted);
    crate::metrics::CELF_REVALIDATIONS.add(stale);
    argmax
}

/// An engine's pool of masked sessions. A query checks one out (allocating
/// only when the pool is empty or the index generation changed size), runs
/// the sparse greedy on it, and returns it all-zero.
#[derive(Debug, Default)]
pub struct MaskedPool {
    pool: Mutex<Vec<MaskedSession>>,
}

impl MaskedPool {
    /// Audience-restricted greedy Top-K over `sets`: the first
    /// `min(k, num_nodes)` seeds and how many sets they cover. `source`
    /// must index exactly `sets`.
    pub fn top_k(
        &self,
        sets: &RrrCollection,
        source: &impl SetsContaining,
        k: usize,
        audience: &BitSet,
    ) -> (Vec<NodeId>, usize) {
        let (num_nodes, theta) = (sets.num_nodes(), sets.len());
        let pooled = {
            let mut pool = self.pool.lock();
            // A session sized for a previous generation is dropped here.
            pool.retain(|session| session.fits(num_nodes, theta));
            pool.pop()
        };
        let mut session = pooled.unwrap_or_else(|| MaskedSession::new(num_nodes, theta));
        let answer = session.top_k(sets, source, k, audience);
        self.pool.lock().push(session);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexMeta;
    use imm_rrr::RrrSet;

    fn index_over(num_nodes: usize, sets: &[&[NodeId]]) -> SketchIndex {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        SketchIndex::from_collection(c, IndexMeta::default()).unwrap()
    }

    #[test]
    fn a_finished_session_returns_to_the_pool_all_zero() {
        let index = index_over(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3]]);
        let sessions = MaskedPool::default();
        let audience = BitSet::from_iter_with_capacity(6, [1, 3]);
        // k = 1 leaves eligible sets alive and counts positive at the end
        // of the rounds: the restore walk has real work to do.
        let (seeds, covered) = sessions.top_k(index.sets(), &index, 1, &audience);
        assert_eq!((seeds, covered), (vec![1], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1);
        let session = &pool[0];
        assert!(session.alive.is_empty() && session.alive.words().iter().all(|&w| w == 0));
        assert!(session.counts.iter().all(|&c| c == 0));
        assert!(session.eligible.is_empty() && session.touched.is_empty());
        assert!(session.frontier.is_empty());
    }

    #[test]
    fn a_session_records_its_eligible_sets_and_celf_rounds() {
        if !imm_obs::recording_enabled() {
            return;
        }
        let index = index_over(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3]]);
        // Other tests of this process record too: lower bounds.
        let sessions_before = crate::metrics::MASKED_SESSION_SETS.snapshot().count;
        let rounds_before = crate::metrics::CELF_ROUNDS.value();
        let audience = BitSet::from_iter_with_capacity(6, [5]);
        MaskedPool::default().top_k(index.sets(), &index, 3, &audience);
        assert!(crate::metrics::MASKED_SESSION_SETS.snapshot().count > sessions_before);
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 3);
    }

    #[test]
    fn a_session_of_another_generation_is_resized_not_reused() {
        let small = index_over(4, &[&[0, 1], &[2]]);
        let large = index_over(9, &[&[0, 8], &[8], &[3, 8], &[7]]);
        let sessions = MaskedPool::default();
        sessions.top_k(small.sets(), &small, 2, &BitSet::from_iter_with_capacity(4, [0]));
        assert!(sessions.pool.lock()[0].fits(4, 2));
        // Vertex 8 and set 3 are out of the small session's bounds.
        let audience = BitSet::from_iter_with_capacity(9, [7, 8]);
        let (seeds, covered) = sessions.top_k(large.sets(), &large, 2, &audience);
        assert_eq!((seeds, covered), (vec![8, 7], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1, "the stale session was dropped, not kept alongside");
        assert!(pool[0].fits(9, 4));
    }
}
