//! Directory entries are per-line state only: once one entry exists,
//! cloning it for an L2 install and driving it through a line's life does
//! not touch the heap on the Table-1 machine (ACKwise_4, Limited_3,
//! 64 cores). A counting global allocator pins that, and the same driver
//! checks the full map with the Complete classifier at 1024 cores, where
//! the sharer set no longer fits one word.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lacc_core::classifier::{RemovalReason, RequestHints, SharerMode};
use lacc_core::home::{AccessKind, DirectoryEntry, Grant, HomeRequest};
use lacc_core::{DirectoryKind, InvalidationPlan};
use lacc_model::config::{ClassifierConfig, TrackingKind};
use lacc_model::{CoreId, SystemConfig};

/// Counts allocations per thread, so tests running in parallel do not
/// see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const HINTS: RequestHints = RequestHints { set_min_last_access: 0, set_has_invalid: true };

/// Serves one request end to end the way the home tile does: owner
/// downgrade, one response per invalidated sharer, then the grant.
/// `holders` mirrors which cores really hold a private copy.
fn serve(
    e: &mut DirectoryEntry,
    holders: &mut [bool],
    core: usize,
    kind: AccessKind,
    now: u64,
) -> (Grant, Option<InvalidationPlan>) {
    let id = CoreId::new(core);
    let d = e.begin_request(&HomeRequest { core: id, kind, hints: HINTS, instruction: false }, now);
    if let Some(owner) = d.fetch_from_owner {
        e.owner_downgraded(owner);
    }
    match &d.invalidate {
        Some(InvalidationPlan::Unicast(set)) => {
            for c in set {
                assert!(holders[c.index()], "invalidating {c}, which holds no copy");
                holders[c.index()] = false;
                e.sharer_response(c, 1, RemovalReason::Invalidation);
            }
        }
        Some(InvalidationPlan::Broadcast { expected_acks }) => {
            assert_eq!(*expected_acks, holders.iter().filter(|&&h| h).count());
            for (c, held) in holders.iter_mut().enumerate() {
                if std::mem::take(held) {
                    e.sharer_response(CoreId::new(c), 1, RemovalReason::Invalidation);
                }
            }
        }
        None => {}
    }
    e.complete_grant(id, d.grant);
    if d.grant.is_private() {
        holders[core] = true;
    }
    (d.grant, d.invalidate)
}

/// One line's life: `readers` in turn, a write by a non-sharer, the
/// writer's eviction at utilization 1, its next read, and the
/// back-invalidation plan of the final state. Returns the write's plan,
/// the writer's mode after eviction and the grant of its next read.
fn line_life(
    e: &mut DirectoryEntry,
    holders: &mut [bool],
    readers: &[usize],
    writer: usize,
) -> (Option<InvalidationPlan>, Option<SharerMode>, Grant) {
    holders.fill(false);
    for (t, &r) in readers.iter().enumerate() {
        let (grant, _) = serve(e, holders, r, AccessKind::Read, t as u64);
        let want = if t == 0 { Grant::LineExclusive } else { Grant::LineShared };
        assert_eq!(grant, want, "read {t} by core {r}");
    }
    let (grant, plan) = serve(e, holders, writer, AccessKind::Write, 100);
    assert_eq!(grant, Grant::LineModified);
    assert_eq!(plan.as_ref().map(InvalidationPlan::expected_acks), Some(readers.len()));
    holders[writer] = false;
    let mode = e.sharer_response(CoreId::new(writer), 1, RemovalReason::Eviction);
    let (reread, _) = serve(e, holders, writer, AccessKind::Read, 200);
    assert_eq!(e.back_invalidation_plan().is_some(), holders.iter().any(|&h| h));
    (plan, mode, reread)
}

#[test]
fn table1_entries_clone_and_run_without_heap_allocation() {
    let cfg = SystemConfig::isca13_64core();
    assert_eq!(cfg.directory, DirectoryKind::ackwise4());
    assert_eq!(cfg.classifier.tracking, TrackingKind::Limited { k: 3 });
    let blank = DirectoryEntry::new(cfg.directory, &cfg.classifier, cfg.num_cores);
    let mut entries: Vec<DirectoryEntry> = Vec::with_capacity(10_000);
    let mut holders = vec![false; cfg.num_cores];

    let before = allocs();
    for _ in 0..10_000 {
        entries.push(blank.clone());
    }
    let mut broadcasts = 0;
    for (i, e) in entries.iter_mut().enumerate() {
        // Six readers overflow the four ACKwise pointers: the write
        // broadcasts. Core 63 sits at the top of the one-word bitmap.
        let readers = [i % 64, (i + 11) % 64, (i + 23) % 64, (i + 37) % 64, (i + 50) % 64, 63];
        let distinct = readers.iter().enumerate().all(|(j, r)| !readers[..j].contains(r));
        let writer = (i + 5) % 64;
        if !distinct || readers.contains(&writer) {
            continue;
        }
        let (plan, mode, _) = line_life(e, &mut holders, &readers, writer);
        broadcasts += usize::from(matches!(plan, Some(InvalidationPlan::Broadcast { .. })));
        assert!(mode.is_some(), "the writer held a copy");
    }
    let spent = allocs() - before;
    assert!(broadcasts > 0);
    assert_eq!(spent, 0, "heap allocations while cloning and running Table-1 entries");
}

#[test]
fn full_map_complete_runs_at_1024_cores() {
    let ccfg = ClassifierConfig { tracking: TrackingKind::Complete, ..ClassifierConfig::default() };
    let blank = DirectoryEntry::new(DirectoryKind::FullMap, &ccfg, 1024);
    let mut holders = vec![false; 1024];
    for (readers, writer) in
        [(vec![0, 63, 64, 65, 1023], 500), ((0..200).map(|c| c * 5 + 1).collect(), 1022)]
    {
        let mut e = blank.clone();
        let (plan, mode, reread) = line_life(&mut e, &mut holders, &readers, writer);
        let Some(InvalidationPlan::Unicast(set)) = plan else {
            panic!("the full map never broadcasts: {plan:?}");
        };
        let invalidated: Vec<usize> = set.iter().map(CoreId::index).collect();
        let mut want = readers.clone();
        want.sort_unstable();
        assert_eq!(invalidated, want, "ascending, exact");
        assert_eq!(mode, Some(SharerMode::Remote), "utilization 1 < PCT demotes");
        assert_eq!(reread, Grant::WordRead, "a remote sharer reads a word at the L2");
        assert!(e.sharers.is_empty());
    }
}
