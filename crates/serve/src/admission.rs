//! Admission control: postings-size cost estimates plus a bounded
//! in-flight counter.
//!
//! The daemon must not let one hostile or accidental query walk an
//! unbounded share of the index while latency-sensitive traffic queues
//! behind it. Every query is priced **before** it reaches the engine,
//! from data the index already has — the per-vertex postings sizes —
//! and the estimate is compared against the server's per-query budget.
//! Over-budget queries get a structured
//! [`Rejection::OverBudget`](crate::protocol::Rejection) in their batch
//! slot; the rest of the batch keeps serving. A second, request-level
//! gate bounds the number of requests in flight across all connections:
//! when the bound is hit the whole request is shed with a structured
//! queue-full error instead of queueing without limit. Claiming a slot
//! is also where the in-flight high-water mark is recorded
//! ([`INFLIGHT_PEAK`]).
//!
//! Pricing doubles as validation: computing a query's cost touches
//! every vertex it names, so out-of-range vertices are caught here with
//! a structured [`Rejection::InvalidVertex`](crate::protocol::Rejection)
//! — the in-process engine would panic on them (raw postings indexing),
//! and a long-lived daemon must never let wire input reach that path.

use crate::metrics::INFLIGHT_PEAK;
use crate::protocol::Rejection;
use imm_rrr::Postings;
use imm_service::Query;
use imm_shard::ShardedIndex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The most requests ever in flight at once in this process, across every
/// [`Admission`]: what [`INFLIGHT_PEAK`] publishes. Two claims that raise it
/// at the same instant may publish out of order, so the gauge can read below
/// it until the next rise.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Per-query cost estimates from the index's postings sizes.
///
/// The unit is *postings entries walked*: a spread query over seeds
/// `S` scans `Σ_v degree(v)` postings (the shards' walks sum to the
/// global degree, so one global lookup prices a vertex); a top-k query
/// walks one postings list per round, so it is priced at
/// `k × mean-degree`, plus — with an audience — the audience's postings
/// `Σ_{v ∈ audience} degree(v)`. That sum is what an audience session
/// walks to find its eligible sets. The rest of its work is the prefix of
/// the generation's degree order it evaluates, one recount against the
/// covered bitmap per vertex: at least the seeds it selects, at most every
/// vertex of degree > 0. No per-vertex lookup can know that prefix before
/// the query runs, so the price covers the walk, not the whole session.
/// The estimates are deliberately cheap (one O(1) degree lookup against
/// the global postings per vertex named) — they gate the engine, so they
/// cannot themselves be expensive.
#[derive(Clone)]
pub struct CostModel {
    postings: Arc<Postings>,
}

impl CostModel {
    /// Price queries against `index`'s current global postings. Rebuild
    /// the model after a rollout — costs must describe the index actually
    /// serving.
    pub fn from_index(index: &ShardedIndex) -> Self {
        CostModel { postings: Arc::clone(index.global_postings()) }
    }

    /// Vertex-space size of the priced index.
    pub fn num_nodes(&self) -> u64 {
        self.postings.num_nodes() as u64
    }

    /// Total postings entries of the index.
    fn total_postings(&self) -> u64 {
        self.postings.entries()
    }

    /// Mean postings entries per vertex, rounded up (≥ 1 so a top-k
    /// query never prices at zero).
    fn mean_degree(&self) -> u64 {
        match self.num_nodes() {
            0 => 1,
            n => self.total_postings().div_ceil(n).max(1),
        }
    }

    fn degree(&self, v: u32) -> Result<u64, Rejection> {
        if (v as u64) >= self.num_nodes() {
            return Err(Rejection::InvalidVertex { vertex: v, num_nodes: self.num_nodes() });
        }
        Ok(self.postings.degree(v))
    }

    /// Estimate the postings entries `query` will walk, validating every
    /// vertex it names along the way.
    pub fn cost(&self, query: &Query) -> Result<u64, Rejection> {
        match query {
            Query::TopK { k, audience } => {
                let mut cost = (*k as u64).saturating_mul(self.mean_degree());
                if let Some(audience) = audience {
                    for v in audience.iter() {
                        if (v as u64) >= self.num_nodes() {
                            return Err(Rejection::InvalidVertex {
                                vertex: v as u32,
                                num_nodes: self.num_nodes(),
                            });
                        }
                        cost = cost.saturating_add(self.degree(v as u32)?);
                    }
                }
                Ok(cost)
            }
            Query::Spread { seeds } => {
                let mut cost = 0u64;
                for &v in seeds {
                    cost = cost.saturating_add(self.degree(v)?);
                }
                Ok(cost)
            }
            Query::Marginal { seeds, candidate } => {
                let mut cost = self.degree(*candidate)?;
                for &v in seeds {
                    cost = cost.saturating_add(self.degree(v)?);
                }
                Ok(cost)
            }
        }
    }
}

/// RAII slot in the bounded in-flight queue: dropping it releases the
/// slot even if the request handler errors out part-way.
pub struct InflightGuard<'a> {
    admission: &'a Admission,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The two admission gates: a per-query cost budget and a bounded
/// in-flight request count shared by every connection.
pub struct Admission {
    budget: Option<u64>,
    max_inflight: usize,
    inflight: AtomicUsize,
}

impl Admission {
    /// `budget = None` disables the cost gate (every priced query is
    /// admitted); `max_inflight` always applies.
    pub fn new(budget: Option<u64>, max_inflight: usize) -> Self {
        Admission { budget, max_inflight, inflight: AtomicUsize::new(0) }
    }

    /// The per-query cost budget, if one is configured.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Claim an in-flight slot, or report `(inflight, limit)` when the
    /// queue is full. Lock-free: a `fetch_update` loop so two racing
    /// requests cannot both squeeze into the last slot. A claim that
    /// raises the in-flight high-water mark publishes it.
    pub fn try_acquire(&self) -> Result<InflightGuard<'_>, (u64, u64)> {
        let claimed = self.inflight.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            if n < self.max_inflight {
                Some(n + 1)
            } else {
                None
            }
        });
        match claimed {
            Ok(before) => {
                let now = before + 1;
                if PEAK.fetch_max(now, Ordering::Relaxed) < now {
                    INFLIGHT_PEAK.set(now as f64);
                }
                Ok(InflightGuard { admission: self })
            }
            Err(n) => Err((n as u64, self.max_inflight as u64)),
        }
    }

    /// Gate one priced query against the budget.
    pub fn admit(&self, estimated_cost: u64) -> Result<(), Rejection> {
        match self.budget {
            Some(budget) if estimated_cost > budget => {
                Err(Rejection::OverBudget { estimated_cost, budget })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_slots_are_bounded_and_released_on_drop() {
        let admission = Admission::new(None, 2);
        let a = admission.try_acquire().expect("slot 1");
        let _b = admission.try_acquire().expect("slot 2");
        assert_eq!(admission.try_acquire().err(), Some((2, 2)));
        drop(a);
        let _c = admission.try_acquire().expect("slot reopened by the drop");
        assert_eq!(admission.try_acquire().err(), Some((2, 2)), "the drop released one slot");
    }

    #[test]
    fn claiming_a_slot_publishes_the_inflight_peak() {
        let admission = Admission::new(None, 4);
        let _slots: Vec<_> = (0..3).map(|_| admission.try_acquire().expect("slot")).collect();
        assert!(INFLIGHT_PEAK.value() >= 3.0, "peak {} after 3 claims", INFLIGHT_PEAK.value());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let admission = Admission::new(None, 0);
        assert_eq!(admission.try_acquire().err(), Some((0, 0)));
    }

    #[test]
    fn budget_gate_is_structured() {
        let admission = Admission::new(Some(10), 4);
        assert_eq!(admission.admit(10), Ok(()));
        assert_eq!(
            admission.admit(11),
            Err(Rejection::OverBudget { estimated_cost: 11, budget: 10 })
        );
        let unlimited = Admission::new(None, 4);
        assert_eq!(unlimited.admit(u64::MAX), Ok(()));
    }
}
