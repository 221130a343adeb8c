//! Replacement policies for [`crate::SetAssocCache`].
//!
//! The evaluated machine uses LRU in both cache levels (the Timestamp check
//! of §3.2 explicitly reasons about "the LRU replacement policy of the L1
//! cache"). Round-robin is provided as a cheap alternative for sensitivity
//! studies and as a differential-testing foil in the unit tests.

/// Which victim a set picks when all ways are valid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplacementKind {
    /// Evict the least-recently-used way (per-way monotonic use stamps).
    #[default]
    Lru,
    /// Evict ways in strict rotation, ignoring recency.
    RoundRobin,
}

impl ReplacementKind {
    /// Picks a victim among a set's evictable ways, or `None` when every
    /// way is protected.
    ///
    /// `candidate(w)` is way `w`'s last-use stamp, or `None` if the way
    /// must not be evicted; `cursor` is the set's round-robin cursor,
    /// advanced by the caller after an eviction. LRU takes the smallest
    /// stamp (ties to the lowest way); round-robin takes the first
    /// evictable way at or after the cursor.
    #[must_use]
    pub(crate) fn pick_victim(
        self,
        ways: usize,
        cursor: usize,
        candidate: impl Fn(usize) -> Option<u64>,
    ) -> Option<usize> {
        match self {
            ReplacementKind::Lru => {
                let mut best: Option<(usize, u64)> = None;
                for w in 0..ways {
                    if let Some(s) = candidate(w) {
                        if best.map_or(true, |(_, b)| s < b) {
                            best = Some((w, s));
                        }
                    }
                }
                best.map(|(w, _)| w)
            }
            ReplacementKind::RoundRobin => {
                (0..ways).map(|i| (cursor + i) % ways).find(|&w| candidate(w).is_some())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(stamps: &[u64]) -> impl Fn(usize) -> Option<u64> + '_ {
        |w| Some(stamps[w])
    }

    #[test]
    fn lru_picks_smallest_stamp() {
        let k = ReplacementKind::Lru;
        assert_eq!(k.pick_victim(4, 0, all(&[5, 2, 9, 7])), Some(1));
        assert_eq!(k.pick_victim(3, 2, all(&[1, 1, 1])), Some(0), "ties break to lowest way");
    }

    #[test]
    fn round_robin_follows_cursor() {
        let k = ReplacementKind::RoundRobin;
        assert_eq!(k.pick_victim(4, 0, all(&[5, 2, 9, 7])), Some(0));
        assert_eq!(k.pick_victim(4, 3, all(&[5, 2, 9, 7])), Some(3));
        assert_eq!(k.pick_victim(4, 4, all(&[5, 2, 9, 7])), Some(0), "cursor wraps");
    }

    #[test]
    fn protected_ways_are_skipped() {
        let stamps = [5u64, 2, 9, 7];
        let no_way_1 = |w: usize| (w != 1).then_some(stamps[w]);
        assert_eq!(ReplacementKind::Lru.pick_victim(4, 0, no_way_1), Some(0));
        assert_eq!(ReplacementKind::RoundRobin.pick_victim(4, 1, no_way_1), Some(2));
        for k in [ReplacementKind::Lru, ReplacementKind::RoundRobin] {
            assert_eq!(k.pick_victim(4, 0, |_| None), None, "{k:?}: everything protected");
        }
    }

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
    }
}
