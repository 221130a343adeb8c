//! A generic set-associative tag/metadata array.
//!
//! [`SetAssocCache<M>`] maps [`LineAddr`]s to per-line metadata `M` under a
//! fixed geometry (sets × ways) and replacement policy. It is the substrate
//! for both the private L1 caches and the shared L2 slices of the simulated
//! machine; the protocol crates choose `M` (MESI state, utilization
//! counters, timestamps, line data, ...).

use std::fmt;

use lacc_model::LineAddr;

use crate::replacement::ReplacementKind;

/// Tag of an invalid way. [`LineAddr::new`] masks line numbers to the
/// physical address width, so no valid line can carry this value.
const INVALID: u64 = u64::MAX;

/// Result of [`SetAssocCache::insert`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InsertOutcome<M> {
    /// The line (and its metadata) evicted to make room, if the set was
    /// full of valid, evictable lines.
    pub evicted: Option<(LineAddr, M)>,
}

/// A set-associative array of per-line metadata.
///
/// Recency is tracked with a monotonically increasing use stamp per way:
/// [`SetAssocCache::touch`], [`SetAssocCache::get_mut`] and
/// [`SetAssocCache::insert`] refresh it, so LRU victims are exact (not
/// pseudo-LRU), matching the paper's simulation model.
///
/// The store is a structure of arrays: flat `tags`, `stamps` and `metas`
/// indexed by `set * assoc + way`, so each set is a contiguous run. A
/// lookup scans only the set's tags (one 64-byte run at 8 ways) and
/// touches the single metadata slot it hits, however large `M` is.
///
/// # Examples
///
/// ```
/// use lacc_cache::SetAssocCache;
/// use lacc_model::LineAddr;
///
/// let mut c: SetAssocCache<&'static str> = SetAssocCache::new(4, 2);
/// c.insert(LineAddr::new(0), "a");
/// assert_eq!(c.get(LineAddr::new(0)), Some(&"a"));
/// assert_eq!(c.remove(LineAddr::new(0)), Some("a"));
/// assert!(!c.contains(LineAddr::new(0)));
/// ```
#[derive(Clone)]
pub struct SetAssocCache<M> {
    /// Line number per way, [`INVALID`] when the way is free.
    tags: Vec<u64>,
    /// Last-use stamp per way (meaningful only for valid ways).
    stamps: Vec<u64>,
    /// Metadata per way: `Some` exactly when the way's tag is valid.
    metas: Vec<Option<M>>,
    cursors: Vec<usize>,
    num_sets: usize,
    assoc: usize,
    next_stamp: u64,
    policy: ReplacementKind,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with `num_sets` sets of `assoc` ways using LRU
    /// replacement.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    #[must_use]
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        Self::with_policy(num_sets, assoc, ReplacementKind::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    #[must_use]
    pub fn with_policy(num_sets: usize, assoc: usize, policy: ReplacementKind) -> Self {
        assert!(num_sets.is_power_of_two(), "num_sets must be a power of two");
        assert!(assoc > 0, "associativity must be positive");
        let ways = num_sets * assoc;
        SetAssocCache {
            tags: vec![INVALID; ways],
            stamps: vec![0; ways],
            metas: (0..ways).map(|_| None).collect(),
            cursors: vec![0; num_sets],
            num_sets,
            assoc,
            next_stamp: 1,
            policy,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    #[must_use]
    pub fn associativity(&self) -> usize {
        self.assoc
    }

    /// Total line capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// Number of valid lines currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// `true` when no line is valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set a line maps to.
    #[must_use]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    /// The flat index range of one set's ways.
    #[inline]
    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.assoc;
        base..base + self.assoc
    }

    /// Flat index of a valid line's way.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let ways = self.ways_of(self.set_index(line));
        let base = ways.start;
        self.tags[ways].iter().position(|&t| t == line.raw()).map(|w| base + w)
    }

    /// `true` if the line is valid in the cache. Does not update recency.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Metadata of a valid line. Does not update recency.
    #[must_use]
    pub fn get(&self, line: LineAddr) -> Option<&M> {
        self.find(line).and_then(|i| self.metas[i].as_ref())
    }

    /// Mutable metadata of a valid line, refreshing its recency stamp (this
    /// models the tag-array write that every hit performs, §3.6).
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let i = self.find(line)?;
        self.stamps[i] = self.bump_stamp();
        self.metas[i].as_mut()
    }

    /// Mutable metadata of a valid line *without* touching recency (for
    /// protocol actions such as invalidations that must not refresh LRU).
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let i = self.find(line)?;
        self.metas[i].as_mut()
    }

    /// Refreshes the recency stamp of a valid line; returns `false` if the
    /// line is not present.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        if let Some(i) = self.find(line) {
            self.stamps[i] = self.bump_stamp();
            true
        } else {
            false
        }
    }

    /// Inserts a line, evicting the policy's victim if the set is full.
    ///
    /// If the line is already valid its metadata is *replaced* and recency
    /// refreshed; no eviction occurs.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> InsertOutcome<M> {
        self.insert_filtered(line, meta, |_, _| true)
    }

    /// Inserts a line, considering only ways for which `evictable` returns
    /// `true` as victims (the simulator uses this to protect lines with
    /// in-flight transactions at the L2).
    ///
    /// If the set is full and nothing is evictable the insert is refused and
    /// the metadata is handed back in `InsertOutcome::evicted` under the
    /// *inserted* line address — callers distinguish refusal by comparing
    /// the returned address. Prefer [`SetAssocCache::try_insert_filtered`]
    /// for an explicit signature.
    pub fn insert_filtered(
        &mut self,
        line: LineAddr,
        meta: M,
        evictable: impl Fn(LineAddr, &M) -> bool,
    ) -> InsertOutcome<M> {
        match self.try_insert_filtered(line, meta, evictable) {
            Ok(evicted) => InsertOutcome { evicted },
            Err(meta) => InsertOutcome { evicted: Some((line, meta)) },
        }
    }

    /// Like [`SetAssocCache::insert_filtered`], but refusal is explicit.
    ///
    /// # Errors
    ///
    /// Returns `Err(meta)` (handing the metadata back) when the set is full
    /// and no way satisfies `evictable`.
    pub fn try_insert_filtered(
        &mut self,
        line: LineAddr,
        meta: M,
        evictable: impl Fn(LineAddr, &M) -> bool,
    ) -> Result<Option<(LineAddr, M)>, M> {
        let set = self.set_index(line);
        let ways = self.ways_of(set);
        let base = ways.start;
        let stamp = self.bump_stamp();

        // Refresh in place if already valid; else fill an invalid way first.
        let tags = &self.tags[ways];
        let slot = tags.iter().position(|&t| t == line.raw());
        if let Some(w) = slot.or_else(|| tags.iter().position(|&t| t == INVALID)) {
            let i = base + w;
            self.tags[i] = line.raw();
            self.stamps[i] = stamp;
            self.metas[i] = Some(meta);
            return Ok(None);
        }

        // Pick a victim among evictable ways only.
        let (tags, stamps, metas) = (&self.tags, &self.stamps, &self.metas);
        let candidate = |w: usize| {
            let i = base + w;
            let m = metas[i].as_ref().expect("full set holds valid ways");
            evictable(LineAddr::new(tags[i]), m).then_some(stamps[i])
        };
        let Some(victim) = self.policy.pick_victim(self.assoc, self.cursors[set], candidate) else {
            return Err(meta);
        };
        self.cursors[set] = (victim + 1) % self.assoc;
        let i = base + victim;
        let old_line = LineAddr::new(std::mem::replace(&mut self.tags[i], line.raw()));
        self.stamps[i] = stamp;
        let old = self.metas[i].replace(meta).expect("victim way is valid");
        Ok(Some((old_line, old)))
    }

    /// Invalidates a line, returning its metadata.
    pub fn remove(&mut self, line: LineAddr) -> Option<M> {
        let i = self.find(line)?;
        self.tags[i] = INVALID;
        self.metas[i].take()
    }

    /// Iterates over the valid lines of one set as `(line, last_use_stamp,
    /// &meta)`.
    ///
    /// # Panics
    ///
    /// Panics if `set >= num_sets`.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, u64, &M)> {
        assert!(set < self.num_sets, "set {set} out of range");
        self.ways_of(set).filter_map(|i| {
            self.metas[i].as_ref().map(|m| (LineAddr::new(self.tags[i]), self.stamps[i], m))
        })
    }

    /// Number of invalid (free) ways in the set a line maps to.
    #[must_use]
    pub fn free_ways_in_set_of(&self, line: LineAddr) -> usize {
        let ways = self.ways_of(self.set_index(line));
        self.tags[ways].iter().filter(|&&t| t == INVALID).count()
    }

    /// Iterates over every valid line as `(line, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.tags
            .iter()
            .zip(&self.metas)
            .filter_map(|(&t, m)| Some((LineAddr::new(t), m.as_ref()?)))
    }

    fn bump_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

impl<M: fmt::Debug> fmt::Debug for SetAssocCache<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SetAssocCache({} sets x {} ways, {} valid)",
            self.num_sets,
            self.assoc,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(c.insert(line(5), 42).evicted.is_none());
        assert_eq!(c.get(line(5)), Some(&42));
        assert!(c.contains(line(5)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set (num_sets = 1): lines 0,1,2 all collide.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.touch(line(0)); // line 1 is now LRU
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted, Some((line(1), 1)));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn get_mut_refreshes_recency() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        *c.get_mut(line(0)).unwrap() += 10; // refresh 0
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted.unwrap().0, line(1));
        assert_eq!(c.get(line(0)), Some(&10));
    }

    #[test]
    fn peek_mut_does_not_refresh_recency() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        *c.peek_mut(line(0)).unwrap() += 1; // 0 stays LRU
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted.unwrap().0, line(0));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1);
        c.insert(line(0), 1);
        let out = c.insert(line(0), 2);
        assert!(out.evicted.is_none());
        assert_eq!(c.get(line(0)), Some(&2));
    }

    #[test]
    fn filtered_insert_skips_protected_ways() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        // Way holding line 0 is LRU but protected; line 1 must go instead.
        let out = c.insert_filtered(line(2), 2, |l, _| l != line(0));
        assert_eq!(out.evicted.unwrap().0, line(1));
    }

    #[test]
    fn filtered_insert_refuses_when_everything_protected() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let res = c.try_insert_filtered(line(2), 2, |_, _| false);
        assert_eq!(res, Err(2));
        assert!(!c.contains(line(2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_invalidates() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
        c.insert(line(0), 7);
        assert_eq!(c.remove(line(0)), Some(7));
        assert_eq!(c.remove(line(0)), None);
        assert_eq!(c.free_ways_in_set_of(line(0)), 2);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c: SetAssocCache<()> = SetAssocCache::new(8, 1);
        assert_eq!(c.set_index(line(0)), 0);
        assert_eq!(c.set_index(line(9)), 1);
        assert_eq!(c.set_index(line(16)), 0);
    }

    #[test]
    fn round_robin_rotates() {
        let mut c: SetAssocCache<u32> =
            SetAssocCache::with_policy(1, 2, ReplacementKind::RoundRobin);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        assert_eq!(c.insert(line(2), 2).evicted.unwrap().0, line(0));
        assert_eq!(c.insert(line(3), 3).evicted.unwrap().0, line(1));
        assert_eq!(c.insert(line(4), 4).evicted.unwrap().0, line(2));
    }

    #[test]
    fn iter_set_reports_stamps() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 4);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let stamps: Vec<u64> = c.iter_set(0).map(|(_, s, _)| s).collect();
        assert_eq!(stamps.len(), 2);
        assert!(stamps[0] < stamps[1]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _: SetAssocCache<()> = SetAssocCache::new(3, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cache never exceeds its capacity and never loses a line
        /// without reporting an eviction.
        #[test]
        fn occupancy_accounting(ops in proptest::collection::vec(0u64..64, 1..200)) {
            let mut c: SetAssocCache<u64> = SetAssocCache::new(4, 2);
            let mut inserted = 0u64;
            let mut evictions = 0u64;
            let mut replaced = 0u64;
            for (i, l) in ops.iter().enumerate() {
                let line = LineAddr::new(*l);
                if c.contains(line) {
                    replaced += 1;
                } else {
                    inserted += 1;
                }
                if c.insert(line, i as u64).evicted.is_some() {
                    evictions += 1;
                }
                prop_assert!(c.len() <= c.capacity());
            }
            prop_assert_eq!(c.len() as u64, inserted - evictions);
            prop_assert_eq!(inserted + replaced, ops.len() as u64);
        }

        /// With a 1-set LRU cache of associativity A, after any sequence of
        /// inserts the cache holds exactly the A most recently used distinct
        /// lines.
        #[test]
        fn lru_keeps_most_recent(ops in proptest::collection::vec(0u64..16, 1..100)) {
            let assoc = 4usize;
            let mut c: SetAssocCache<()> = SetAssocCache::new(1, assoc);
            for l in &ops {
                c.insert(LineAddr::new(*l), ());
            }
            // Reference model: most recent distinct lines, newest first.
            let mut recent: Vec<u64> = Vec::new();
            for l in ops.iter().rev() {
                if !recent.contains(l) {
                    recent.push(*l);
                }
                if recent.len() == assoc {
                    break;
                }
            }
            for l in &recent {
                prop_assert!(c.contains(LineAddr::new(*l)), "missing recent line {l}");
            }
            prop_assert_eq!(c.len(), recent.len());
        }

        /// Every operation agrees with a plain per-set reference model —
        /// victims, refusals, stamps and iteration order included — under
        /// both replacement policies, with random protect masks.
        #[test]
        fn matches_per_set_model(
            geometry in (0u32..4, 1usize..9),
            ops in proptest::collection::vec((0u8..8, 0u64..64, 0u32..256, 0u8..4), 1..300)
        ) {
            let (set_bits, assoc) = geometry;
            for policy in [ReplacementKind::Lru, ReplacementKind::RoundRobin] {
                let mut c: SetAssocCache<u32> =
                    SetAssocCache::with_policy(1 << set_bits, assoc, policy);
                let mut m = model::Model::new(1 << set_bits, assoc, policy);
                for (i, &(kind, l, mask, full)) in ops.iter().enumerate() {
                    let line = LineAddr::new(l);
                    let meta = i as u32;
                    // Way protection by line: bit `line % 8` of the mask;
                    // one op in four protects everything (full refusal).
                    let mask = if full == 0 { 0xff } else { mask };
                    let evictable = |l: LineAddr, _: &u32| mask & (1 << (l.raw() % 8)) == 0;
                    match kind {
                        0 | 1 => {
                            let got = c.insert(line, meta).evicted;
                            let want = m.insert(l, meta, |_| true).expect("never refused");
                            prop_assert_eq!(got.map(|(l, m)| (l.raw(), m)), want);
                        }
                        2 => {
                            let got = c.try_insert_filtered(line, meta, evictable);
                            let want = m.insert(l, meta, |l| evictable(LineAddr::new(l), &0));
                            prop_assert_eq!(got.map(|v| v.map(|(l, m)| (l.raw(), m))), want);
                        }
                        3 => {
                            let got = c.insert_filtered(line, meta, evictable).evicted;
                            let want = m
                                .insert(l, meta, |l| evictable(LineAddr::new(l), &0))
                                .unwrap_or_else(|meta| Some((l, meta)));
                            prop_assert_eq!(got.map(|(l, m)| (l.raw(), m)), want);
                        }
                        4 => {
                            let got = c.get_mut(line).map(|v| {
                                *v += 1000;
                                *v
                            });
                            prop_assert_eq!(got, m.get_mut(l, true).map(|v| {
                                *v += 1000;
                                *v
                            }));
                        }
                        5 => {
                            let got = c.peek_mut(line).map(|v| {
                                *v += 1;
                                *v
                            });
                            prop_assert_eq!(got, m.get_mut(l, false).map(|v| {
                                *v += 1;
                                *v
                            }));
                        }
                        6 => prop_assert_eq!(c.touch(line), m.get_mut(l, true).is_some()),
                        _ => prop_assert_eq!(c.remove(line), m.remove(l)),
                    }
                    prop_assert_eq!(c.len(), m.len());
                    prop_assert_eq!(c.free_ways_in_set_of(line), m.free_ways(l));
                    prop_assert_eq!(c.contains(line), m.get(l).is_some());
                    prop_assert_eq!(c.get(line).copied(), m.get(l));
                    let all: Vec<(u64, u32)> = c.iter().map(|(l, v)| (l.raw(), *v)).collect();
                    prop_assert_eq!(all, m.iter().map(|(l, _, v)| (l, v)).collect::<Vec<_>>());
                    for set in 0..c.num_sets() {
                        let got: Vec<(u64, u64, u32)> =
                            c.iter_set(set).map(|(l, s, v)| (l.raw(), s, *v)).collect();
                        prop_assert_eq!(got, m.iter_set(set).collect::<Vec<_>>(), "{:?}", policy);
                    }
                }
            }
        }

        /// get/insert/remove agree with a naive map-based model.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0u64..32, 0u8..3), 1..200)) {
            use std::collections::HashMap;
            let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (l, op) in ops {
                let line = LineAddr::new(l);
                match op {
                    0 => {
                        if let Some((el, _)) = c.insert(line, op).evicted {
                            model.remove(&el.raw());
                        }
                        model.insert(l, op);
                    }
                    1 => {
                        prop_assert_eq!(c.get(line).copied(), model.get(&l).copied());
                    }
                    _ => {
                        prop_assert_eq!(c.remove(line), model.remove(&l));
                    }
                }
            }
        }
    }
}

/// The reference model for `matches_per_set_model`: each set a plain
/// `Vec<Option<(line, stamp, meta)>>` in way order, victims chosen by a
/// direct scan.
#[cfg(test)]
mod model {
    use crate::ReplacementKind;

    type Way = (u64, u64, u32);

    pub struct Model {
        sets: Vec<Vec<Option<Way>>>,
        cursors: Vec<usize>,
        next_stamp: u64,
        policy: ReplacementKind,
    }

    impl Model {
        pub fn new(num_sets: usize, assoc: usize, policy: ReplacementKind) -> Self {
            Model {
                sets: vec![vec![None; assoc]; num_sets],
                cursors: vec![0; num_sets],
                next_stamp: 1,
                policy,
            }
        }

        fn set(&self, line: u64) -> usize {
            line as usize % self.sets.len()
        }

        fn way(&self, line: u64) -> Option<usize> {
            self.sets[self.set(line)].iter().position(|w| w.is_some_and(|w| w.0 == line))
        }

        fn bump(&mut self) -> u64 {
            self.next_stamp += 1;
            self.next_stamp - 1
        }

        /// `Ok(victim)` or `Err(meta)` on refusal, as `try_insert_filtered`.
        pub fn insert(
            &mut self,
            line: u64,
            meta: u32,
            evictable: impl Fn(u64) -> bool,
        ) -> Result<Option<(u64, u32)>, u32> {
            let set = self.set(line);
            let stamp = self.bump();
            let ways = &mut self.sets[set];
            let assoc = ways.len();
            if let Some(w) = ways.iter().position(|w| w.is_some_and(|w| w.0 == line)) {
                ways[w] = Some((line, stamp, meta));
                return Ok(None);
            }
            if let Some(w) = ways.iter().position(Option::is_none) {
                ways[w] = Some((line, stamp, meta));
                return Ok(None);
            }
            let ok: Vec<bool> = ways.iter().map(|w| evictable(w.unwrap().0)).collect();
            let victim = match self.policy {
                ReplacementKind::Lru => {
                    (0..assoc).filter(|&w| ok[w]).min_by_key(|&w| (ways[w].unwrap().1, w))
                }
                ReplacementKind::RoundRobin => {
                    (0..assoc).map(|i| (self.cursors[set] + i) % assoc).find(|&w| ok[w])
                }
            };
            let Some(v) = victim else { return Err(meta) };
            self.cursors[set] = (v + 1) % assoc;
            let old = ways[v].replace((line, stamp, meta)).unwrap();
            Ok(Some((old.0, old.2)))
        }

        pub fn get(&self, line: u64) -> Option<u32> {
            self.way(line).map(|w| self.sets[self.set(line)][w].unwrap().2)
        }

        pub fn get_mut(&mut self, line: u64, refresh: bool) -> Option<&mut u32> {
            let set = self.set(line);
            let w = self.way(line)?;
            let stamp = if refresh { Some(self.bump()) } else { None };
            let way = self.sets[set][w].as_mut().unwrap();
            if let Some(s) = stamp {
                way.1 = s;
            }
            Some(&mut way.2)
        }

        pub fn remove(&mut self, line: u64) -> Option<u32> {
            let set = self.set(line);
            let w = self.way(line)?;
            self.sets[set][w].take().map(|w| w.2)
        }

        pub fn len(&self) -> usize {
            self.sets.iter().flatten().flatten().count()
        }

        pub fn free_ways(&self, line: u64) -> usize {
            self.sets[self.set(line)].iter().filter(|w| w.is_none()).count()
        }

        pub fn iter_set(&self, set: usize) -> impl Iterator<Item = Way> + '_ {
            self.sets[set].iter().flatten().copied()
        }

        pub fn iter(&self) -> impl Iterator<Item = Way> + '_ {
            self.sets.iter().flatten().flatten().copied()
        }
    }
}
