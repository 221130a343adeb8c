//! Directory sharer tracking: full-map and ACKwise_p.
//!
//! ACKwise_p (§3.1) keeps up to `p` exact sharer pointers. When a line
//! gains a sharer beyond `p`, the identities are dropped and only a count
//! is maintained; exclusive requests then *broadcast* the invalidation, but
//! acknowledgements are expected "from only the actual sharers of the
//! data", which is exactly the count the directory kept.
//!
//! Both kinds share one compact representation: an exact sharer bitmap
//! (one inline `u64` on machines of up to 64 cores) plus an overflow count
//! that is non-zero only after ACKwise has dropped the identities. The
//! full map is ACKwise with a pointer budget no machine reaches. Plans hand
//! out a [`CoreSet`], so unicast invalidation rounds visit sharers in
//! ascending core order.

use std::fmt;

use lacc_model::{CoreId, CoreSet};

use crate::DirectoryKind;

/// How an invalidation round must be delivered, produced by
/// [`SharerTracker::invalidation_plan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvalidationPlan {
    /// Send a unicast invalidation to each listed sharer (ascending core
    /// order) and await one response (inv-ack or racing evict-notify) per
    /// core.
    Unicast(CoreSet),
    /// Broadcast the invalidation (single network injection) and await
    /// `expected_acks` responses from the actual sharers.
    Broadcast {
        /// Number of responses to await.
        expected_acks: usize,
    },
}

impl InvalidationPlan {
    /// Number of responses the home must collect before proceeding.
    #[must_use]
    pub fn expected_acks(&self) -> usize {
        match self {
            InvalidationPlan::Unicast(s) => s.len(),
            InvalidationPlan::Broadcast { expected_acks } => *expected_acks,
        }
    }
}

/// Exact sharer identities: one `u64` word on machines of up to 64 cores
/// (every Table-1 configuration), a boxed [`CoreSet`] above that so the
/// per-line entry stays small at every width.
#[derive(Clone, PartialEq, Eq)]
enum ExactSet {
    Narrow(u64),
    Wide(Box<CoreSet>),
}

impl ExactSet {
    fn new(num_cores: usize) -> Self {
        if num_cores <= 64 {
            ExactSet::Narrow(0)
        } else {
            ExactSet::Wide(Box::default())
        }
    }

    fn narrow_bit(core: CoreId) -> u64 {
        let i = core.index();
        assert!(i < 64, "core index {i} exceeds a 64-core sharer map");
        1 << i
    }

    fn len(&self) -> usize {
        match self {
            ExactSet::Narrow(w) => w.count_ones() as usize,
            ExactSet::Wide(s) => s.len(),
        }
    }

    fn contains(&self, core: CoreId) -> bool {
        match self {
            ExactSet::Narrow(w) => w & Self::narrow_bit(core) != 0,
            ExactSet::Wide(s) => s.contains(core),
        }
    }

    fn insert(&mut self, core: CoreId) {
        match self {
            ExactSet::Narrow(w) => *w |= Self::narrow_bit(core),
            ExactSet::Wide(s) => {
                s.insert(core);
            }
        }
    }

    fn remove(&mut self, core: CoreId) -> bool {
        match self {
            ExactSet::Narrow(w) => {
                let bit = Self::narrow_bit(core);
                let present = *w & bit != 0;
                *w &= !bit;
                present
            }
            ExactSet::Wide(s) => s.remove(core),
        }
    }

    fn clear(&mut self) {
        match self {
            ExactSet::Narrow(w) => *w = 0,
            ExactSet::Wide(s) => s.clear(),
        }
    }

    fn to_core_set(&self) -> CoreSet {
        match self {
            ExactSet::Narrow(w) => {
                let mut set = CoreSet::new();
                let mut rest = *w;
                while rest != 0 {
                    set.insert(CoreId::new(rest.trailing_zeros() as usize));
                    rest &= rest - 1;
                }
                set
            }
            ExactSet::Wide(s) => **s,
        }
    }
}

/// Pointer budget standing for the full map: no machine has this many
/// cores, so a full-map tracker never overflows.
const FULL_MAP: u16 = u16::MAX;

/// Sharer-set representation for one directory entry: full-map or
/// ACKwise_p, both as an exact set plus an overflow count.
#[derive(Clone, PartialEq, Eq)]
pub struct SharerTracker {
    /// Sharer identities while known; empty after ACKwise overflow.
    exact: ExactSet,
    /// Sharer count after ACKwise overflow (identities dropped, §3.1);
    /// 0 while `exact` is authoritative.
    overflow: u16,
    /// ACKwise pointer budget `p`, or [`FULL_MAP`].
    pointers: u16,
}

impl SharerTracker {
    /// Creates an empty tracker of the configured kind for a machine of
    /// `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if an ACKwise pointer budget does not fit below `u16::MAX`.
    #[must_use]
    pub fn new(kind: DirectoryKind, num_cores: usize) -> Self {
        let pointers = match kind {
            DirectoryKind::FullMap => FULL_MAP,
            DirectoryKind::AckWise { pointers } => u16::try_from(pointers)
                .ok()
                .filter(|&p| p < FULL_MAP)
                .expect("ACKwise pointer budget must be below u16::MAX"),
        };
        SharerTracker { exact: ExactSet::new(num_cores), overflow: 0, pointers }
    }

    /// Number of sharers (exact in all representations — ACKwise always
    /// knows the count, just not always the identities).
    #[must_use]
    pub fn count(&self) -> usize {
        if self.overflow > 0 {
            usize::from(self.overflow)
        } else {
            self.exact.len()
        }
    }

    /// `true` when no core holds a private copy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Whether `core` is a sharer: `Some(bool)` when the representation
    /// knows, `None` after ACKwise overflow (identities dropped).
    #[must_use]
    pub fn contains(&self, core: CoreId) -> Option<bool> {
        (self.overflow == 0).then(|| self.exact.contains(core))
    }

    /// Records that `core` received a private copy.
    ///
    /// Adding a core that is already tracked is a no-op for the full map
    /// and for exact ACKwise pointers; after ACKwise overflow the caller
    /// must only add genuinely new sharers (the protocol guarantees this:
    /// a core with a valid copy never re-requests the line).
    pub fn add(&mut self, core: CoreId) {
        if self.overflow > 0 {
            self.overflow += 1;
        } else if !self.exact.contains(core) {
            let len = self.exact.len();
            if len == usize::from(self.pointers) {
                // Overflow: drop identities, keep the count.
                self.exact.clear();
                self.overflow = self.pointers + 1;
            } else {
                self.exact.insert(core);
            }
        }
    }

    /// Records that `core` no longer holds a copy (eviction notify or
    /// invalidation ack). Returns `true` if the count changed.
    ///
    /// After ACKwise overflow the identity is unknown, so any removal
    /// decrements the count; when it reaches zero the tracker returns to
    /// exact (empty) mode.
    pub fn remove(&mut self, core: CoreId) -> bool {
        if self.overflow > 0 {
            self.overflow -= 1;
            true
        } else {
            self.exact.remove(core)
        }
    }

    /// Clears all sharers (after an invalidation round completes).
    pub fn clear(&mut self) {
        self.exact.clear();
        self.overflow = 0;
    }

    /// Sharer identities, when known exactly.
    #[must_use]
    pub fn known_sharers(&self) -> Option<CoreSet> {
        (self.overflow == 0).then(|| self.exact.to_core_set())
    }

    /// How to invalidate every sharer except `skip` (the requester itself
    /// during an upgrade). Returns `None` when there is nothing to do.
    #[must_use]
    pub fn invalidation_plan(&self, skip: Option<CoreId>) -> Option<InvalidationPlan> {
        match self.known_sharers() {
            Some(mut set) => {
                if let Some(s) = skip {
                    set.remove(s);
                }
                if set.is_empty() {
                    None
                } else {
                    Some(InvalidationPlan::Unicast(set))
                }
            }
            None => {
                // Overflowed ACKwise: broadcast. If the requester itself is
                // a sharer (upgrade), it must not be awaited — but under
                // overflow the directory cannot know, so the paper's
                // protocol invalidates the requester's copy too and the
                // requester simply re-obtains the line with the grant.
                Some(InvalidationPlan::Broadcast { expected_acks: self.count() })
            }
        }
    }
}

impl fmt::Debug for SharerTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SharerTracker");
        if self.pointers == FULL_MAP {
            d.field("kind", &"full-map");
        } else {
            d.field("pointers", &self.pointers);
        }
        match self.known_sharers() {
            Some(set) => d.field("sharers", &set),
            None => d.field("overflow_count", &self.overflow),
        };
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    fn set(cores: &[usize]) -> CoreSet {
        cores.iter().map(|&n| c(n)).collect()
    }

    #[test]
    fn full_map_add_remove() {
        let mut t = SharerTracker::new(DirectoryKind::FullMap, 128);
        t.add(c(0));
        t.add(c(127));
        t.add(c(127)); // idempotent
        assert_eq!(t.count(), 2);
        assert_eq!(t.contains(c(127)), Some(true));
        assert_eq!(t.contains(c(3)), Some(false));
        assert!(t.remove(c(127)));
        assert!(!t.remove(c(127)));
        assert_eq!(t.count(), 1);
        assert_eq!(t.known_sharers(), Some(set(&[0])));
    }

    #[test]
    fn ackwise_exact_until_overflow() {
        let mut t = SharerTracker::new(DirectoryKind::AckWise { pointers: 2 }, 64);
        t.add(c(1));
        t.add(c(2));
        assert_eq!(t.known_sharers(), Some(set(&[1, 2])));
        t.add(c(3)); // overflow: identities dropped
        assert_eq!(t.count(), 3);
        assert_eq!(t.known_sharers(), None);
        assert_eq!(t.contains(c(1)), None);
    }

    #[test]
    fn ackwise_overflow_recovers_at_zero() {
        let mut t = SharerTracker::new(DirectoryKind::AckWise { pointers: 1 }, 64);
        t.add(c(1));
        t.add(c(2));
        assert_eq!(t.known_sharers(), None);
        t.remove(c(1));
        t.remove(c(2));
        assert!(t.is_empty());
        // Back to exact mode.
        t.add(c(5));
        assert_eq!(t.known_sharers(), Some(set(&[5])));
    }

    #[test]
    fn invalidation_plans() {
        let mut t = SharerTracker::new(DirectoryKind::AckWise { pointers: 4 }, 64);
        assert_eq!(t.invalidation_plan(None), None);
        t.add(c(1));
        t.add(c(2));
        assert_eq!(t.invalidation_plan(None), Some(InvalidationPlan::Unicast(set(&[1, 2]))));
        // Skip the requester during an upgrade.
        assert_eq!(t.invalidation_plan(Some(c(1))), Some(InvalidationPlan::Unicast(set(&[2]))));
        assert_eq!(t.invalidation_plan(Some(c(9))).unwrap().expected_acks(), 2);
        for i in 3..=5 {
            t.add(c(i));
        }
        assert_eq!(
            t.invalidation_plan(None),
            Some(InvalidationPlan::Broadcast { expected_acks: 5 })
        );
    }

    #[test]
    fn clear_empties_both_kinds() {
        for kind in [DirectoryKind::FullMap, DirectoryKind::AckWise { pointers: 1 }] {
            let mut t = SharerTracker::new(kind, 64);
            t.add(c(1));
            t.add(c(2));
            t.clear();
            assert!(t.is_empty());
            assert_eq!(t.known_sharers(), Some(CoreSet::new()));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Machine widths: both sides of the 64-core bitmap boundary, with
    /// the boundary itself forced in.
    fn arb_width() -> impl Strategy<Value = usize> {
        prop_oneof![Just(63usize), Just(64), Just(65), 1usize..=64, 65usize..=1024]
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(usize, bool)>> {
        proptest::collection::vec((0usize..1024, proptest::bool::ANY), 1..200)
    }

    /// Drives a tracker with protocol-legal adds and removes (after
    /// overflow only genuinely new sharers are added and only real
    /// sharers removed) and checks every query against a `BTreeSet` of
    /// the true sharers plus an overflow flag: the budget `p` (`None` for
    /// the full map) is exceeded once, and identities return only when
    /// the count reaches zero.
    fn check_against_model(
        kind: DirectoryKind,
        p: Option<usize>,
        width: usize,
        ops: &[(usize, bool)],
        skip_seed: usize,
    ) -> Result<(), TestCaseError> {
        let mut t = SharerTracker::new(kind, width);
        let mut truth: BTreeSet<usize> = BTreeSet::new();
        let mut overflowed = false;
        for (step, &(raw, add)) in ops.iter().enumerate() {
            let core = raw % width;
            let id = CoreId::new(core);
            let member = truth.contains(&core);
            if add {
                if overflowed && member {
                    continue;
                }
                t.add(id);
                truth.insert(core);
                overflowed |= p.is_some_and(|p| truth.len() > p);
            } else {
                if overflowed && !member {
                    continue;
                }
                prop_assert_eq!(t.remove(id), member);
                truth.remove(&core);
                overflowed &= !truth.is_empty();
            }
            prop_assert_eq!(t.count(), truth.len());
            prop_assert_eq!(t.is_empty(), truth.is_empty());
            for probe in [core, (core + 1) % width, (core + width - 1) % width] {
                let want = (!overflowed).then(|| truth.contains(&probe));
                prop_assert_eq!(t.contains(CoreId::new(probe)), want);
            }
            let known = t.known_sharers().map(|s| s.iter().map(|c| c.index()).collect::<Vec<_>>());
            let want = (!overflowed).then(|| truth.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(known, want);
            let skip = (step + skip_seed) % (width + 1);
            let skip = (skip < width).then(|| CoreId::new(skip));
            let plan = if overflowed {
                Some(InvalidationPlan::Broadcast { expected_acks: truth.len() })
            } else {
                let rest: CoreSet =
                    truth.iter().map(|&c| CoreId::new(c)).filter(|&c| Some(c) != skip).collect();
                (!rest.is_empty()).then_some(InvalidationPlan::Unicast(rest))
            };
            prop_assert_eq!(t.invalidation_plan(skip), plan);
        }
        Ok(())
    }

    proptest! {
        /// The full map tracks identities exactly at every width.
        #[test]
        fn full_map_matches_reference_model(
            width in arb_width(),
            ops in arb_ops(),
            skip_seed in 0usize..1025,
        ) {
            check_against_model(DirectoryKind::FullMap, None, width, &ops, skip_seed)?;
        }

        /// ACKwise_p keeps exact pointers up to `p` sharers and always
        /// reports the exact count — the property that makes broadcast-ack
        /// collection terminate — no matter how adds and removes
        /// interleave.
        #[test]
        fn ackwise_matches_reference_model(
            width in arb_width(),
            ops in arb_ops(),
            skip_seed in 0usize..1025,
            p in 1usize..=6,
        ) {
            let kind = DirectoryKind::AckWise { pointers: p };
            check_against_model(kind, Some(p), width, &ops, skip_seed)?;
        }
    }
}
