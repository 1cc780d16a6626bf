//! Fair multi-tenant scheduling.
//!
//! [`FairQueue`] is a per-tenant round-robin: each tenant owns a FIFO
//! of job ids, and `pop` serves tenants in cyclic order, so a tenant
//! that floods the queue with N jobs cannot starve a tenant with one.
//! With tenants `a` and `b` holding `[a1 a2 a3]` and `[b1]`, the drain
//! order is `a1 b1 a2 a3` — `b1` waits behind at most one job per
//! competing tenant, never behind a whole burst.
//!
//! The structure is intentionally not thread-safe: the server guards
//! it with its core mutex and uses a condvar for wakeups, which keeps
//! the fairness invariant trivially auditable.

use std::collections::{BTreeMap, VecDeque};

/// A per-tenant round-robin job queue.
///
/// Tenants cycle in lexicographic order starting strictly after the
/// tenant served last, so drain order is deterministic given the same
/// push sequence.
#[derive(Debug, Default)]
pub(crate) struct FairQueue {
    lanes: BTreeMap<String, VecDeque<String>>,
    /// The tenant served most recently; the next pop starts strictly
    /// after it (wrapping).
    cursor: Option<String>,
}

impl FairQueue {

    /// Enqueues `job` on `tenant`'s lane.
    pub(crate) fn push(&mut self, tenant: &str, job: String) {
        self.lanes.entry(tenant.to_string()).or_default().push_back(job);
    }

    /// Dequeues the next job in round-robin order, together with its
    /// tenant. Returns `None` when the queue is empty.
    pub(crate) fn pop(&mut self) -> Option<(String, String)> {
        if self.lanes.is_empty() {
            return None;
        }
        // The next lane is the first tenant strictly after the cursor,
        // wrapping to the smallest tenant. `lanes` only holds non-empty
        // lanes, so the first candidate wins.
        let tenant = match &self.cursor {
            Some(cur) => self
                .lanes
                .range::<str, _>((
                    std::ops::Bound::Excluded(cur.as_str()),
                    std::ops::Bound::Unbounded,
                ))
                .next()
                .map(|(t, _)| t.clone())
                .or_else(|| self.lanes.keys().next().cloned()),
            None => self.lanes.keys().next().cloned(),
        }?;
        let lane = self.lanes.get_mut(&tenant)?;
        let job = lane.pop_front()?;
        if lane.is_empty() {
            self.lanes.remove(&tenant);
        }
        self.cursor = Some(tenant.clone());
        Some((tenant, job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairQueue) -> Vec<String> {
        let mut order = Vec::new();
        while let Some((_, job)) = q.pop() {
            order.push(job);
        }
        order
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let mut q = FairQueue::default();
        for j in ["a1", "a2", "a3"] {
            q.push("alpha", j.to_string());
        }
        q.push("beta", "b1".to_string());
        q.push("gamma", "g1".to_string());
        assert_eq!(drain(&mut q), ["a1", "b1", "g1", "a2", "a3"]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_burst_cannot_starve_a_singleton() {
        let mut q = FairQueue::default();
        for i in 0..50 {
            q.push("hog", format!("h{i}"));
        }
        q.push("small", "s0".to_string());
        let order = drain(&mut q);
        let pos = order.iter().position(|j| j == "s0").unwrap();
        // One hog job may precede it (round-robin), but never the burst.
        assert!(pos <= 1, "singleton served at position {pos}");
    }

    #[test]
    fn cursor_survives_lane_exhaustion() {
        let mut q = FairQueue::default();
        q.push("a", "a1".to_string());
        q.push("b", "b1".to_string());
        assert_eq!(q.pop().unwrap().1, "a1");
        // Lane `a` is now gone; pushing to it again mid-cycle keeps
        // rotation fair: b (after cursor a), then the new a job.
        q.push("a", "a2".to_string());
        assert_eq!(q.pop().unwrap().1, "b1");
        assert_eq!(q.pop().unwrap().1, "a2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_during_drain_keep_fifo_within_tenant() {
        let mut q = FairQueue::default();
        q.push("t", "j1".to_string());
        q.push("t", "j2".to_string());
        assert_eq!(q.pop().unwrap().1, "j1");
        q.push("t", "j3".to_string());
        assert_eq!(q.pop().unwrap().1, "j2");
        assert_eq!(q.pop().unwrap().1, "j3");
    }
}
