//! Read-only what-if bookings over a builder's link timelines.
//!
//! Pricing a candidate (BSA's neighbour estimate, the paper's `ComputeMFT`; a DLS/HEFT
//! or repair candidate processor) means asking "when would these messages arrive if
//! they were booked?".  A [`LinkOverlay`] answers that without mutating the
//! [`ScheduleBuilder`]: per link-contention slot it holds the windows the what-if has
//! booked and the base intervals it has freed (the hops of routes it clears or
//! replaces), and its gap queries go through [`Timeline::earliest_gap_with`], which
//! answers exactly as the materialized timeline would.  No undo log, no dirty stamps,
//! no rollback: a what-if ends with [`LinkOverlay::clear`] (O(edits)), or with
//! [`LinkOverlay::truncate`] back to a [`LinkOverlay::mark`] for a nested one.
//!
//! Every edit is made against the builder's *current* timelines; mutating the builder
//! invalidates the overlay, so callers clear it before reusing it on a changed builder.
//! The per-slot scratch keeps its capacity, so steady-state pricing never allocates.
//!
//! [`Timeline::earliest_gap_with`]: crate::timeline::Timeline::earliest_gap_with

use crate::builder::ScheduleBuilder;
use crate::schedule::MessageHop;
use crate::timeline::TimelineDelta;
use bsa_network::{LinkId, ProcId};
use bsa_taskgraph::EdgeId;

/// One overlay edit, for last-in first-out truncation.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// A base interval of `slot` freed; recorded at `at` in the slot's delta.
    Freed { slot: usize, at: usize },
    /// A window booked on `slot`; recorded at `at` in the slot's delta.
    Booked { slot: usize, at: usize },
}

/// Tentative link bookings layered over a [`ScheduleBuilder`] (see the module
/// documentation).
#[derive(Debug, Clone, Default)]
pub struct LinkOverlay {
    /// One delta per link-contention slot, sized on first use.
    slots: Vec<TimelineDelta>,
    /// Every edit since the last clear, in order.
    edits: Vec<Edit>,
}

/// A point in an overlay's edit history (see [`LinkOverlay::truncate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayMark(usize);

impl LinkOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the overlay holds no edit.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Forgets every edit, keeping the scratch capacity.  O(edits).
    pub fn clear(&mut self) {
        for edit in self.edits.drain(..) {
            let (Edit::Freed { slot, .. } | Edit::Booked { slot, .. }) = edit;
            self.slots[slot].clear();
        }
    }

    /// The current point in the edit history.
    pub fn mark(&self) -> OverlayMark {
        OverlayMark(self.edits.len())
    }

    /// Undoes every edit made since `mark`, newest first.
    pub fn truncate(&mut self, mark: OverlayMark) {
        while self.edits.len() > mark.0 {
            match self.edits.pop().expect("edit log is non-empty") {
                Edit::Freed { slot, at } => self.slots[slot].unfree(at),
                Edit::Booked { slot, at } => self.slots[slot].unbook(at),
            }
        }
    }

    /// Earliest start ≥ `ready` at which a transmission of length `duration` leaving
    /// `from` fits on `l`, with the overlay's edits applied — the what-if twin of
    /// [`ScheduleBuilder::earliest_link_slot`].
    pub fn earliest_link_slot(
        &self,
        builder: &ScheduleBuilder<'_>,
        l: LinkId,
        from: ProcId,
        ready: f64,
        duration: f64,
    ) -> f64 {
        let slot = builder.link_slot(l, from);
        let tl = &builder.link_timelines[slot];
        match self.slots.get(slot) {
            Some(delta) if !delta.is_empty() => tl.earliest_gap_with(delta, ready, duration),
            _ => tl.earliest_gap(ready, duration),
        }
    }

    /// Frees every hop of edge `e`'s current route in the builder — what
    /// [`ScheduleBuilder::clear_route`] (or the detach half of
    /// [`ScheduleBuilder::set_route`]) would do to the link timelines.
    pub fn free_route(&mut self, builder: &ScheduleBuilder<'_>, e: EdgeId) {
        for (k, hop) in builder.route(e).iter().enumerate() {
            let slot = builder.link_slot(hop.link, hop.from);
            let pos = builder.link_timelines[slot]
                .position_at(hop.start, |pl| pl == (e, k as u32))
                .expect("routed hop is on its link's timeline");
            let at = self.delta(builder, slot).free(pos);
            self.edits.push(Edit::Freed { slot, at });
        }
    }

    /// Books `hop`'s window on its link-contention slot — what
    /// [`ScheduleBuilder::push_hop`] would do to the link timelines.
    pub fn book(&mut self, builder: &ScheduleBuilder<'_>, hop: &MessageHop) {
        let slot = builder.link_slot(hop.link, hop.from);
        let at = self
            .delta(builder, slot)
            .book(hop.start, hop.finish - hop.start);
        self.edits.push(Edit::Booked { slot, at });
    }

    /// The delta of `slot`, sizing the slot table to the builder on first use.
    fn delta(&mut self, builder: &ScheduleBuilder<'_>, slot: usize) -> &mut TimelineDelta {
        if self.slots.len() < builder.link_timelines.len() {
            self.slots
                .resize_with(builder.link_timelines.len(), TimelineDelta::default);
        }
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::HeterogeneousSystem;
    use bsa_taskgraph::{TaskGraph, TaskGraphBuilder};

    fn three_edges() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        for name in ["B", "C", "D"] {
            let t = b.add_task(name, 10.0);
            b.add_edge(a, t, 4.0).unwrap();
        }
        b.build().unwrap()
    }

    fn hop(start: f64) -> MessageHop {
        MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start,
            finish: start + 4.0,
        }
    }

    #[test]
    fn overlay_queries_match_the_mutated_builder_and_leave_it_untouched() {
        let g = three_edges();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.set_route(EdgeId(0), vec![hop(10.0)]);
        b.set_route(EdgeId(1), vec![hop(20.0)]);
        let reference = b.clone();

        let mut overlay = LinkOverlay::new();
        overlay.free_route(&b, EdgeId(0));
        overlay.book(&b, &hop(0.0));
        let mark = overlay.mark();
        overlay.book(&b, &hop(14.0));
        // Busy: [0, 4) and [14, 18) booked, [10, 14) freed, [20, 24) kept.  From 11 the
        // hole up to 14 is too short and [18, 20) too, so the slot follows [20, 24).
        let q = |o: &LinkOverlay, ready| o.earliest_link_slot(&b, LinkId(0), ProcId(0), ready, 4.0);
        assert_eq!(q(&overlay, 0.0), 4.0);
        assert_eq!(q(&overlay, 9.0), 9.0);
        assert_eq!(q(&overlay, 11.0), 24.0);
        overlay.truncate(mark);
        assert_eq!(q(&overlay, 11.0), 11.0);

        // The same edits applied for real give the same answers.
        let mut mutated = b.clone();
        mutated.clear_route(EdgeId(0));
        mutated.set_route(EdgeId(2), vec![hop(0.0)]);
        for ready in [0.0, 3.0, 9.0, 16.0, 30.0] {
            assert_eq!(
                q(&overlay, ready),
                mutated.earliest_link_slot(LinkId(0), ProcId(0), ready, 4.0)
            );
        }
        overlay.clear();
        assert!(overlay.is_empty());
        assert_eq!(q(&overlay, 0.0), 0.0);
        assert!(b.same_schedule_state(&reference));
    }
}
