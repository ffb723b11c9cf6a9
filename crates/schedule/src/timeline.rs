//! A generic busy-interval timeline with earliest-gap ("insertion") search.
//!
//! Both processor timelines (busy with task executions) and link timelines (busy with
//! message transmissions) are instances of this structure.  Intervals are kept sorted by
//! start time and are non-overlapping; the search primitives are the ones every
//! insertion-based list scheduler needs:
//!
//! * [`Timeline::earliest_gap`] — the earliest start ≥ `ready` at which an item of length
//!   `duration` fits without moving anything else;
//! * [`Timeline::earliest_append`] — the earliest start ≥ max(`ready`, end of last busy
//!   interval), i.e. non-insertion scheduling.
//!
//! The sorted-by-start invariant makes every positional operation a
//! `partition_point` binary search (see DESIGN.md §7.3): [`Timeline::earliest_gap`]
//! skips all intervals that end before `ready`, [`Timeline::position_at`] finds the
//! interval holding a known payload in O(log n), and [`Timeline::remove_at`] /
//! [`Timeline::remove_index`] delete it without a scan.  Callers that know an
//! interval's start time (schedulers always do — they booked it) should prefer these
//! over the linear [`Timeline::remove_where`] escape hatch.
//!
//! # The chunked gap index
//!
//! On timelines with thousands of busy slots the residual linear scan of
//! [`Timeline::earliest_gap`] — from the first interval still alive at `ready` to the
//! first gap that fits — dominates neighbour pricing in the migration phase
//! (DESIGN.md §14).  The timeline therefore keeps a lazily maintained two-level
//! summary: intervals are grouped in chunks of `CHUNK` intervals and each chunk stores
//!
//! * `pmax` — the maximum finish instant inside the chunk, and
//! * `room` — the largest *internal headroom* `start[i] − max(finish[j] : j < i, same
//!   chunk)` over the chunk's intervals after its first.
//!
//! A gap query walks chunk summaries instead of intervals.  A fit inside a chunk is
//! either at its first interval, bounded by `first_start − candidate`, or at a later
//! one, bounded by `room` and by `last_start − candidate`.  A chunk whose bound is
//! (conservatively, with a floating-point safety margin) smaller than the requested
//! duration provably contains no fit and is skipped in O(1), folding its `pmax` into
//! the scan state; only chunks that *might* host the fit are scanned
//! interval-by-interval with the exact scalar rule, so the result is identical to the
//! plain scan — the skip test errs toward descending, never toward skipping a fit.  On
//! a dense timeline a query costs O(n / CHUNK + CHUNK) on fresh summaries instead of
//! O(n): a walk over the chunk summaries plus the one or two chunks it descends into.
//!
//! Mutations stay cheap: every structural change (insert / remove / window rewrite)
//! only lowers a freshness watermark in O(1); the next gap query on a large timeline
//! re-derives the stale chunk summaries once (self-healing, amortized across the many
//! pricing queries between mutation batches).  The summary lives behind a `RefCell`
//! because queries take `&self`; the timeline as a whole stays `Send`, which is all
//! the parallel solver's mirror builders require.  Summaries are pure caches:
//! equality ([`PartialEq`]) compares intervals only, so builders that took different
//! mutation paths to the same schedule still compare equal.
//!
//! # What-if queries
//!
//! A [`TimelineDelta`] records the intervals a what-if frees and the windows it books
//! without mutating the timeline; [`Timeline::earliest_gap_with`] answers the gap
//! query on the merged view exactly as the materialized timeline would.  Chunks that
//! hold no freed position and no pending window still take the O(1) skip.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Numerical slack used when comparing schedule instants.
pub const TIME_EPS: f64 = 1e-9;

/// Intervals per chunk of the gap index.
const CHUNK: usize = 32;

/// Below this many intervals a gap query runs the plain scalar scan: two chunks'
/// worth of summaries cannot beat a scan that short.
const CHUNK_MIN_LEN: usize = 2 * CHUNK;

/// One busy interval tagged with a caller-chosen payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval<P> {
    /// Start of the busy interval.
    pub start: f64,
    /// End of the busy interval.
    pub finish: f64,
    /// Caller payload (task id, message hop, …).
    pub payload: P,
}

/// Lazily maintained per-chunk summaries for [`Timeline::earliest_gap`] (see the
/// module documentation).  A pure cache — never part of timeline equality.
#[derive(Debug, Clone, Default)]
struct GapIndex {
    /// Per-chunk maximum finish instant.
    pmax: Vec<f64>,
    /// Per-chunk maximum internal headroom `start[i] − max(finish[j] : j < i)` over the
    /// chunk's intervals after its first (`−∞` for a one-interval chunk).  The first
    /// interval is left out: its headroom depends on state outside the chunk, so the
    /// skip test bounds a fit there by the interval's own start.
    room: Vec<f64>,
    /// Chunks `[0, fresh)` are valid; mutations lower the watermark, queries heal it.
    fresh: usize,
}

/// Uncommitted edits to one [`Timeline`]: positions of base intervals freed and busy
/// windows booked by a what-if, queried through [`Timeline::earliest_gap_with`]
/// without touching the timeline itself.
///
/// Built against the timeline's current intervals; any mutation of the timeline
/// invalidates it.  Windows are kept in the order [`Timeline::insert`] would have
/// placed them, so the merged view is exactly the materialized timeline.
#[derive(Debug, Clone, Default)]
pub struct TimelineDelta {
    /// Freed base positions, ascending.
    freed: Vec<usize>,
    /// Booked `(start, finish)` windows, in insertion order.
    booked: Vec<(f64, f64)>,
}

impl TimelineDelta {
    /// Whether the delta frees and books nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.freed.is_empty() && self.booked.is_empty()
    }

    /// Forgets every edit, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.freed.clear();
        self.booked.clear();
    }

    /// Frees the base interval at position `pos`; returns where the position was
    /// recorded, which undoing the edit needs.
    pub fn free(&mut self, pos: usize) -> usize {
        let at = self.freed.partition_point(|&p| p < pos);
        debug_assert!(self.freed.get(at) != Some(&pos), "interval freed twice");
        self.freed.insert(at, pos);
        at
    }

    /// Books the window `[start, start + duration)` — the interval
    /// [`Timeline::insert`] would create — and returns where it was recorded, which
    /// undoing the edit needs.
    pub fn book(&mut self, start: f64, duration: f64) -> usize {
        let at = self.booked.partition_point(|&(s, _)| s < start - TIME_EPS);
        self.booked.insert(at, (start, start + duration));
        at
    }

    /// Undoes the [`TimelineDelta::free`] that returned `at`; edits are undone
    /// last-in first-out.
    pub(crate) fn unfree(&mut self, at: usize) {
        self.freed.remove(at);
    }

    /// Undoes the [`TimelineDelta::book`] that returned `at`; edits are undone
    /// last-in first-out.
    pub(crate) fn unbook(&mut self, at: usize) {
        self.booked.remove(at);
    }
}

/// A sorted sequence of non-overlapping busy intervals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline<P> {
    intervals: Vec<Interval<P>>,
    /// Chunked gap-index cache (interior mutability: queries are `&self`).
    index: RefCell<GapIndex>,
}

/// Timeline equality is *schedule* equality: the busy intervals, bit for bit.  The
/// gap-index cache is explicitly excluded — its freshness depends on the mutation
/// history, not on the schedule state (see `ScheduleBuilder::same_schedule_state`).
impl<P: PartialEq + Copy> PartialEq for Timeline<P> {
    fn eq(&self, other: &Self) -> bool {
        self.intervals == other.intervals
    }
}

impl<P> Default for Timeline<P> {
    fn default() -> Self {
        Timeline {
            intervals: Vec::new(),
            index: RefCell::new(GapIndex::default()),
        }
    }
}

impl<P: Copy> Timeline<P> {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The busy intervals, sorted by start time.
    pub fn intervals(&self) -> &[Interval<P>] {
        &self.intervals
    }

    /// Number of busy intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the timeline has no busy intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Finish time of the last busy interval (0 if empty).
    pub fn last_finish(&self) -> f64 {
        self.intervals.last().map_or(0.0, |i| i.finish)
    }

    /// Invalidates every chunk summary from the one containing `pos` onward.  O(1):
    /// mutations only lower the freshness watermark, queries re-derive.
    #[inline]
    fn invalidate_from(&mut self, pos: usize) {
        let idx = self.index.get_mut();
        idx.fresh = idx.fresh.min(pos / CHUNK);
    }

    /// Recomputes the chunk summaries `[idx.fresh, upto)` from the intervals.
    fn heal_index(&self, idx: &mut GapIndex, upto: usize) {
        let n = self.intervals.len();
        if idx.pmax.len() < upto {
            idx.pmax.resize(upto, 0.0);
            idx.room.resize(upto, 0.0);
        }
        for k in idx.fresh..upto {
            let lo = k * CHUNK;
            let hi = ((k + 1) * CHUNK).min(n);
            // The first interval's headroom depends on state outside the chunk; the
            // skip test bounds it by its own start instead.
            let mut pmax = self.intervals[lo].finish;
            let mut room = f64::NEG_INFINITY;
            for iv in &self.intervals[lo + 1..hi] {
                room = room.max(iv.start - pmax);
                pmax = pmax.max(iv.finish);
            }
            idx.pmax[k] = pmax;
            idx.room[k] = room;
        }
        idx.fresh = idx.fresh.max(upto);
    }

    /// Earliest start time `s >= ready` such that `[s, s + duration)` does not overlap any
    /// busy interval.  The gap between consecutive busy intervals is used if large enough
    /// ("insertion scheduling"); otherwise the item goes after the last interval.
    ///
    /// Intervals that finish before `ready` can neither host the item nor push the
    /// candidate later, so the scan starts at the first interval still alive at `ready`
    /// (binary search) instead of at the beginning of the timeline.  Large timelines
    /// additionally consult the chunked gap index (see the module documentation) to skip
    /// whole chunks that provably cannot host a fit; the result is identical to the
    /// scalar scan.
    pub fn earliest_gap(&self, ready: f64, duration: f64) -> f64 {
        self.gap_over(ready, duration, &[], &[])
    }

    /// [`Timeline::earliest_gap`] on the timeline `delta` describes: this one without
    /// the intervals `delta` freed, plus the windows it booked.  The answer is exactly
    /// what `earliest_gap` returns on a materialized copy (the freed intervals removed,
    /// the windows inserted in booking order), without building one.
    ///
    /// `delta` must have been built against this timeline's current intervals.
    pub fn earliest_gap_with(&self, delta: &TimelineDelta, ready: f64, duration: f64) -> f64 {
        self.gap_over(ready, duration, &delta.freed, &delta.booked)
    }

    /// The gap scan over `(intervals ∖ freed) ∪ booked`, in the order
    /// [`Timeline::insert`] would have merged the windows: a window precedes base
    /// interval `b` iff `b.start ≥ w.start − TIME_EPS`.  Runs of untouched base
    /// intervals between the freed positions and the windows' merge points go through
    /// [`Timeline::scan_base`], which skips whole clean chunks.
    fn gap_over(&self, ready: f64, duration: f64, freed: &[usize], booked: &[(f64, f64)]) -> f64 {
        let n = self.intervals.len();
        let first_alive = self
            .intervals
            .partition_point(|iv| iv.finish < ready - TIME_EPS);
        let idx = (n - first_alive >= CHUNK_MIN_LEN).then(|| {
            let mut idx = self.index.borrow_mut();
            self.heal_index(&mut idx, n.div_ceil(CHUNK));
            idx
        });
        // The scan state is `candidate = max(ready, max finish of scanned intervals)`.
        // Intervals and windows that finish before `ready` would be absorbed by `ready`
        // anyway, so the scan starts from `ready` past them.
        let mut candidate = ready;
        let mut i = first_alive;
        let mut f = freed.partition_point(|&p| p < first_alive);
        let mut w = booked.partition_point(|&(_, fin)| fin < ready - TIME_EPS);
        // Base position window `w` merges before, searched from base position `from`.
        let merge_point = |w: usize, from: usize| {
            booked.get(w).map_or(n, |&(start, _)| {
                from + self.intervals[from..].partition_point(|iv| iv.start < start - TIME_EPS)
            })
        };
        let mut window_at = merge_point(w, i);
        loop {
            let freed_at = freed.get(f).map_or(n, |&p| p);
            let stop = window_at.min(freed_at);
            if let Some(fit) = self.scan_base(idx.as_deref(), i, stop, &mut candidate, duration) {
                return fit;
            }
            i = stop;
            if w < booked.len() && window_at == stop {
                let (start, finish) = booked[w];
                if candidate + duration <= start + TIME_EPS {
                    return candidate;
                }
                if finish > candidate {
                    candidate = finish;
                }
                w += 1;
                window_at = merge_point(w, i);
            } else if freed_at < n {
                i += 1;
                f += 1;
            } else {
                return candidate;
            }
        }
    }

    /// The scalar scan over base intervals `[i, stop)`, advancing `candidate`; returns
    /// the fit if one is found.  With the index, every whole chunk inside the range is
    /// tested first and skipped in O(1) when it provably holds no fit.
    fn scan_base(
        &self,
        idx: Option<&GapIndex>,
        mut i: usize,
        stop: usize,
        candidate: &mut f64,
        duration: f64,
    ) -> Option<f64> {
        let n = self.intervals.len();
        while i < stop {
            let k = i / CHUNK;
            let hi = ((k + 1) * CHUNK).min(n);
            if let Some(idx) = idx.filter(|_| i == k * CHUNK && hi <= stop) {
                // Whole chunk ahead.  A fit at its first interval needs `candidate +
                // duration ≤ first_start + EPS`.  A fit at a later interval `j` needs
                // both `candidate + duration` and `(chunk-local max finish before j) +
                // duration` to be ≤ `start[j] + EPS`, where `start[j] ≤ last_start`
                // and the local headroom is ≤ `room[k]`.  If the bound falls short by
                // more than a floating-point safety margin, no fit exists in the chunk
                // and it is skipped whole.  The margin errs toward descending (a
                // scanned chunk is always exact), never toward a wrong skip.
                let c = *candidate;
                let first_start = self.intervals[i].start;
                let last_start = self.intervals[hi - 1].start;
                let bound = (last_start - c).min((first_start - c).max(idx.room[k]));
                let margin = 1e-12
                    * (last_start.abs()
                        + first_start.abs()
                        + c.abs()
                        + idx.pmax[k].abs()
                        + duration);
                if bound < duration - TIME_EPS - margin {
                    if idx.pmax[k] > c {
                        *candidate = idx.pmax[k];
                    }
                    i = hi;
                    continue;
                }
            }
            let end = hi.min(stop);
            #[cfg(test)]
            count_scanned(end - i);
            for iv in &self.intervals[i..end] {
                if *candidate + duration <= iv.start + TIME_EPS {
                    return Some(*candidate);
                }
                if iv.finish > *candidate {
                    *candidate = iv.finish;
                }
            }
            i = end;
        }
        None
    }

    /// Earliest start time when only appending after every existing interval is allowed.
    pub fn earliest_append(&self, ready: f64) -> f64 {
        ready.max(self.last_finish())
    }

    /// Inserts a busy interval `[start, start + duration)`; returns the index at which it
    /// now sits (its predecessor/successor intervals are at `idx - 1` / `idx + 1`).
    ///
    /// # Panics
    /// Panics (in debug builds) if the new interval overlaps an existing one by more than
    /// [`TIME_EPS`]; callers must have obtained `start` from [`Timeline::earliest_gap`] or
    /// an equivalent conflict-free computation.
    pub fn insert(&mut self, start: f64, duration: f64, payload: P) -> usize {
        let finish = start + duration;
        let pos = self
            .intervals
            .partition_point(|iv| iv.start < start - TIME_EPS);
        debug_assert!(
            pos == 0 || self.intervals[pos - 1].finish <= start + TIME_EPS,
            "new interval overlaps predecessor"
        );
        debug_assert!(
            pos == self.intervals.len() || finish <= self.intervals[pos].start + TIME_EPS,
            "new interval overlaps successor"
        );
        self.intervals.insert(
            pos,
            Interval {
                start,
                finish,
                payload,
            },
        );
        self.invalidate_from(pos);
        pos
    }

    /// Index of the interval starting at `start` (within [`TIME_EPS`]) whose payload
    /// satisfies `matches` — the payload→interval lookup used by the incremental
    /// scheduling kernel.  Binary search, O(log n) plus the run of equal-start intervals.
    pub fn position_at(&self, start: f64, mut matches: impl FnMut(P) -> bool) -> Option<usize> {
        let mut i = self
            .intervals
            .partition_point(|iv| iv.start < start - TIME_EPS);
        while i < self.intervals.len() && self.intervals[i].start <= start + TIME_EPS {
            if matches(self.intervals[i].payload) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Removes and returns the interval starting at `start` whose payload satisfies
    /// `matches` (binary search — the O(log n) replacement for [`Timeline::remove_where`]
    /// when the caller knows where the interval was booked).
    pub fn remove_at(&mut self, start: f64, matches: impl FnMut(P) -> bool) -> Option<Interval<P>> {
        let pos = self.position_at(start, matches)?;
        Some(self.remove_index(pos))
    }

    /// Removes and returns the interval at `index` (obtained from
    /// [`Timeline::position_at`] or [`Timeline::insert`]).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn remove_index(&mut self, index: usize) -> Interval<P> {
        let removed = self.intervals.remove(index);
        self.invalidate_from(index);
        removed
    }

    /// Overwrites the window of the interval at `index` **without** re-sorting.
    ///
    /// Only valid when the caller guarantees the timeline's interval *order* is
    /// unchanged — which re-timing passes do by construction (they preserve every
    /// ordering decision).  No per-call invariant check: callers batch their updates
    /// and verify [`Timeline::is_consistent`] once (debug builds).
    pub(crate) fn set_window(&mut self, index: usize, start: f64, finish: f64) {
        let iv = &mut self.intervals[index];
        iv.start = start;
        iv.finish = finish;
        self.invalidate_from(index);
    }

    /// The busy interval covering `time`, if any (binary search).
    pub fn interval_covering(&self, time: f64) -> Option<&Interval<P>> {
        let pos = self
            .intervals
            .partition_point(|iv| iv.finish <= time + TIME_EPS);
        self.intervals
            .get(pos)
            .filter(|iv| iv.start <= time + TIME_EPS)
    }

    /// Iterates the free `(start, end)` windows between busy intervals, including the
    /// window before the first interval; the unbounded window after
    /// [`Timeline::last_finish`] is not reported.  Windows shorter than [`TIME_EPS`] are
    /// skipped.
    pub fn gaps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut cursor = 0.0f64;
        self.intervals.iter().filter_map(move |iv| {
            let gap = (cursor, iv.start);
            cursor = cursor.max(iv.finish);
            (gap.1 - gap.0 > TIME_EPS).then_some(gap)
        })
    }

    /// Removes the first interval matching `pred`; returns the removed interval.
    ///
    /// Linear scan — kept for callers that genuinely do not know the interval's start
    /// time; everything on the scheduling hot path uses [`Timeline::remove_at`].
    pub fn remove_where<F: FnMut(&Interval<P>) -> bool>(&mut self, pred: F) -> Option<Interval<P>> {
        let pos = self.intervals.iter().position(pred)?;
        Some(self.remove_index(pos))
    }

    /// Removes every interval matching `pred`; returns how many were removed.
    pub fn remove_all_where<F: FnMut(&Interval<P>) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.intervals.len();
        self.intervals.retain(|iv| !pred(iv));
        let removed = before - self.intervals.len();
        if removed > 0 {
            self.invalidate_from(0);
        }
        removed
    }

    /// Clears all intervals.
    pub fn clear(&mut self) {
        self.intervals.clear();
        self.invalidate_from(0);
    }

    /// Total busy time.
    pub fn busy_time(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.finish - iv.start).sum()
    }

    /// Checks the internal invariant: sorted by start and non-overlapping.
    pub fn is_consistent(&self) -> bool {
        self.intervals
            .windows(2)
            .all(|w| w[0].finish <= w[1].start + TIME_EPS && w[0].start <= w[1].start)
    }

    /// Iterates payloads in start-time order.
    pub fn payloads(&self) -> impl Iterator<Item = P> + '_ {
        self.intervals.iter().map(|iv| iv.payload)
    }
}

#[cfg(test)]
thread_local! {
    /// Base intervals the gap scan visited one by one on this thread (tests only).
    static SCANNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_scanned(n: usize) {
    SCANNED.with(|c| c.set(c.get() + n as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_basics() {
        let t: Timeline<u32> = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.last_finish(), 0.0);
        assert_eq!(t.earliest_gap(3.0, 5.0), 3.0);
        assert_eq!(t.earliest_append(3.0), 3.0);
        assert_eq!(t.busy_time(), 0.0);
        assert!(t.is_consistent());
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut t = Timeline::new();
        t.insert(10.0, 5.0, 1u32);
        t.insert(0.0, 5.0, 2);
        t.insert(5.0, 5.0, 3);
        assert_eq!(t.len(), 3);
        let starts: Vec<f64> = t.intervals().iter().map(|iv| iv.start).collect();
        assert_eq!(starts, vec![0.0, 5.0, 10.0]);
        assert!(t.is_consistent());
        assert_eq!(t.busy_time(), 15.0);
        assert_eq!(t.payloads().collect::<Vec<_>>(), vec![2, 3, 1]);
    }

    #[test]
    fn earliest_gap_finds_holes_between_intervals() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        t.insert(50.0, 10.0, 'c');
        // Fits in the [10, 20) hole.
        assert_eq!(t.earliest_gap(0.0, 10.0), 10.0);
        assert_eq!(t.earliest_gap(0.0, 5.0), 10.0);
        // Too big for the first hole, fits in [30, 50).
        assert_eq!(t.earliest_gap(0.0, 15.0), 30.0);
        // Too big for every hole: goes after the last interval.
        assert_eq!(t.earliest_gap(0.0, 25.0), 60.0);
        // Ready time inside a busy interval.
        assert_eq!(t.earliest_gap(5.0, 5.0), 10.0);
        // Ready time inside a hole but the remaining hole is too small.
        assert_eq!(t.earliest_gap(17.0, 5.0), 30.0);
        // Exact fit is allowed.
        assert_eq!(t.earliest_gap(30.0, 20.0), 30.0);
    }

    #[test]
    fn earliest_append_ignores_holes() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        assert_eq!(t.earliest_append(0.0), 30.0);
        assert_eq!(t.earliest_append(45.0), 45.0);
    }

    #[test]
    fn remove_where_and_remove_all() {
        let mut t = Timeline::new();
        t.insert(0.0, 1.0, 1u32);
        t.insert(2.0, 1.0, 2);
        t.insert(4.0, 1.0, 1);
        let removed = t.remove_where(|iv| iv.payload == 1).unwrap();
        assert_eq!(removed.start, 0.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_all_where(|iv| iv.payload == 1), 1);
        assert_eq!(t.len(), 1);
        assert!(t.remove_where(|iv| iv.payload == 99).is_none());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn gap_search_result_is_always_insertable() {
        // Mini property check without proptest: random-ish deterministic sequence.
        let mut t = Timeline::new();
        let mut x = 1u64;
        for i in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ready = (x % 1000) as f64 / 10.0;
            let duration = ((x >> 10) % 50) as f64 / 10.0 + 0.1;
            let start = t.earliest_gap(ready, duration);
            assert!(start >= ready - TIME_EPS);
            t.insert(start, duration, i);
            assert!(t.is_consistent(), "timeline inconsistent after insert {i}");
        }
    }

    #[test]
    fn position_at_and_remove_at_find_intervals_by_start() {
        let mut t = Timeline::new();
        t.insert(0.0, 5.0, 'a');
        assert_eq!(t.insert(10.0, 5.0, 'b'), 1);
        assert_eq!(t.insert(5.0, 5.0, 'c'), 1);
        assert_eq!(t.position_at(10.0, |p| p == 'b'), Some(2));
        assert_eq!(t.position_at(10.0, |p| p == 'a'), None);
        assert_eq!(t.position_at(7.5, |_| true), None);
        let removed = t.remove_at(5.0, |p| p == 'c').unwrap();
        assert_eq!(removed.payload, 'c');
        assert_eq!(t.len(), 2);
        assert!(t.remove_at(5.0, |p| p == 'c').is_none());
        let removed = t.remove_index(0);
        assert_eq!(removed.payload, 'a');
        assert_eq!(t.payloads().collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn interval_covering_uses_binary_search() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        assert_eq!(t.interval_covering(5.0).unwrap().payload, 'a');
        assert_eq!(t.interval_covering(20.0).unwrap().payload, 'b');
        assert!(t.interval_covering(15.0).is_none());
        assert!(t.interval_covering(40.0).is_none());
    }

    #[test]
    fn gaps_reports_free_windows() {
        let mut t = Timeline::new();
        assert_eq!(t.gaps().count(), 0);
        t.insert(5.0, 5.0, 'a');
        t.insert(20.0, 10.0, 'b');
        t.insert(30.0, 1.0, 'c');
        let gaps: Vec<(f64, f64)> = t.gaps().collect();
        assert_eq!(gaps, vec![(0.0, 5.0), (10.0, 20.0)]);
    }

    #[test]
    fn earliest_gap_ignores_intervals_finished_before_ready() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        // Ready after 'a' finished: the [10, 20) hole is still found.
        assert_eq!(t.earliest_gap(12.0, 5.0), 12.0);
        // Ready inside 'b': goes after it.
        assert_eq!(t.earliest_gap(25.0, 5.0), 30.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn overlapping_insert_panics_in_debug() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 1u32);
        t.insert(5.0, 10.0, 2);
    }

    // ---- chunked gap index ----------------------------------------------------------

    /// The pre-index scalar semantics, for differential checks.
    fn reference_gap(t: &Timeline<usize>, ready: f64, duration: f64) -> f64 {
        let first_alive = t
            .intervals()
            .partition_point(|iv| iv.finish < ready - TIME_EPS);
        let mut candidate = ready;
        for iv in &t.intervals()[first_alive..] {
            if candidate + duration <= iv.start + TIME_EPS {
                return candidate;
            }
            if iv.finish > candidate {
                candidate = iv.finish;
            }
        }
        candidate
    }

    /// Simple deterministic LCG for the index tests.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 11
    }

    #[test]
    fn chunked_index_matches_scalar_on_large_timelines() {
        // Build a long timeline with irregular holes, then fire gap queries across
        // the whole ready/duration spectrum and compare bit-for-bit to the scalar.
        let mut t = Timeline::new();
        let mut rng = 0x1234_5678u64;
        let mut cursor = 0.0f64;
        for i in 0..500 {
            let hole = (lcg(&mut rng) % 40) as f64 / 4.0; // 0..10
            let dur = (lcg(&mut rng) % 37) as f64 / 4.0 + 0.25; // 0.25..9.5
            cursor += hole;
            t.insert(cursor, dur, i);
            cursor += dur;
        }
        for _ in 0..2000 {
            let ready = (lcg(&mut rng) % 5000) as f64 / 1.3;
            let duration = (lcg(&mut rng) % 60) as f64 / 4.0 + 0.05;
            let got = t.earliest_gap(ready, duration);
            let want = reference_gap(&t, ready, duration);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "chunked gap diverged at ready={ready} duration={duration}: \
                 got {got}, scalar {want}"
            );
        }
    }

    #[test]
    fn chunked_index_self_heals_after_mutation_storms() {
        // Interleave structural mutations (insert / remove / window rewrites) with
        // queries so the freshness watermark keeps dropping mid-stream.
        let mut t = Timeline::new();
        let mut rng = 0x9e37_79b9u64;
        let mut cursor = 0.0f64;
        for i in 0..300usize {
            let hole = (lcg(&mut rng) % 16) as f64 / 8.0;
            cursor += hole + 0.125;
            t.insert(cursor, 1.0, i);
            cursor += 1.0;
        }
        for round in 0..300 {
            match lcg(&mut rng) % 3 {
                0 => {
                    // Remove a random interval…
                    let pos = (lcg(&mut rng) as usize) % t.len();
                    let iv = t.remove_index(pos);
                    // … and re-insert it at the far end.
                    let start = t.last_finish() + 0.5 + (round as f64) * 0.01;
                    t.insert(start, iv.finish - iv.start, iv.payload);
                }
                1 => {
                    // Shrink a random interval in place (order is preserved).
                    let pos = (lcg(&mut rng) as usize) % t.len();
                    let iv = t.intervals()[pos];
                    let mid = iv.start + (iv.finish - iv.start) * 0.5;
                    t.set_window(pos, iv.start, mid.max(iv.start));
                }
                _ => {}
            }
            let ready = (lcg(&mut rng) % 2000) as f64 / 1.7;
            let duration = (lcg(&mut rng) % 24) as f64 / 8.0 + 0.01;
            let got = t.earliest_gap(ready, duration);
            let want = reference_gap(&t, ready, duration);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round}: chunked gap diverged at ready={ready} duration={duration}"
            );
            assert!(t.is_consistent());
        }
    }

    /// `chunks` full chunks of unit intervals separated by gaps of 0.5; the gap before
    /// the first interval of chunk `wide` (if any) is 1.0 instead.
    fn dense(chunks: usize, wide: Option<usize>) -> Timeline<usize> {
        let mut t = Timeline::new();
        let mut cursor = 0.0;
        for i in 0..chunks * CHUNK {
            if wide == Some(i / CHUNK) && i % CHUNK == 0 {
                cursor += 0.5;
            }
            t.insert(cursor, 1.0, i);
            cursor += 1.5;
        }
        t
    }

    /// Runs one gap query on a warm index; returns the answer and the number of
    /// intervals it scanned one by one.
    fn scanned_query(t: &Timeline<usize>, ready: f64, duration: f64) -> (f64, u64) {
        let _ = t.earliest_gap(ready, duration); // heal the summaries
        SCANNED.with(|c| c.set(0));
        let got = t.earliest_gap(ready, duration);
        assert_eq!(got.to_bits(), reference_gap(t, ready, duration).to_bits());
        (got, SCANNED.with(std::cell::Cell::get))
    }

    #[test]
    fn gap_query_skips_chunks_whose_internal_gaps_are_too_short() {
        // Ten chunks whose every gap (0.5) is shorter than the request (1.0): the query
        // must walk the summaries, not the intervals.
        let t = dense(10, None);
        for ready in [0.0, 100.25, 301.0] {
            let (got, scanned) = scanned_query(&t, ready, 1.0);
            assert_eq!(got, t.last_finish());
            assert!(
                scanned <= 2 * CHUNK as u64,
                "ready {ready}: scanned {scanned} intervals one by one"
            );
        }
    }

    #[test]
    fn gap_query_finds_a_fit_exactly_before_a_chunks_first_interval() {
        // The only fitting gap (exactly 1.0) sits before chunk 5's first interval; the
        // chunk's own headroom is 0.5, so only its first start can admit the fit.
        let t = dense(10, Some(5));
        let before_chunk5 = t.intervals()[5 * CHUNK - 1].finish;
        let (got, scanned) = scanned_query(&t, 0.0, 1.0);
        assert_eq!(got, before_chunk5);
        assert!(scanned <= 2 * CHUNK as u64, "scanned {scanned}");
        // A request a hair longer no longer fits there and goes to the end.
        let (got, _) = scanned_query(&t, 0.0, 1.0 + 1e-6);
        assert_eq!(got, t.last_finish());
    }

    #[test]
    fn equality_ignores_the_index_cache() {
        let mut a = Timeline::new();
        let mut b = Timeline::new();
        for i in 0..100usize {
            a.insert(i as f64 * 2.0, 1.0, i);
            b.insert(i as f64 * 2.0, 1.0, i);
        }
        // Heat a's cache only; the timelines must still compare equal.
        let _ = a.earliest_gap(0.0, 0.5);
        assert_eq!(a, b);
        // And a real schedule difference must still be visible.
        b.set_window(0, 0.0, 1.5);
        assert_ne!(a, b);
    }
}
