//! Persistent decision-graph scaffolding and scratch arenas for the incremental
//! re-timing pass (see DESIGN.md §7.5).
//!
//! Every piece of per-pass setup that would otherwise cost O(V + E) before the cone
//! even starts lives here, so one migration costs in proportion to its *cone*, not to
//! the *problem*:
//!
//! * **Persistent scaffolding** — the per-edge route lengths ([`RetimeScaffold::hop_len`])
//!   and their sum ([`RetimeScaffold::total_hops`]) are maintained incrementally by the
//!   builder's mutation primitives (`push_hop`, `set_route`, `clear_route`) and by the
//!   undo interpreter on rollback, so the pass never runs the O(E) `hop_base` prefix
//!   scan again.  A property test pins the maintained state byte-equal to one rebuilt
//!   from scratch after arbitrary mutation/commit/rollback storms.
//! * **Epoch-stamped slot maps** — membership of a task or hop in the current cone is a
//!   `(stamp, slot)` pair packed in a `u64`; a pass begins by bumping a `u32` epoch
//!   instead of clearing (or worse, reallocating) the maps.  Lookup stays a dense array
//!   index — no hashing, no zero-fill.
//! * **Static message table** — every task's `(edge, consumer)` out-edges in one flat
//!   table built with the scaffold, where the flat sweep reads message successors.
//! * **Scratch arenas** — cone nodes, timeline positions, dependency edges, the cone's
//!   CSR and Kahn queue, and the flat sweep's durations and successors are
//!   `clear()`-reused vectors whose capacity survives across all migrations of a run.  After the first few migrations reach the high-water mark,
//!   [`crate::builder::ScheduleBuilder::recompute_times_from`] performs **zero heap
//!   allocations** (asserted by a counting-allocator test in `tests/zero_alloc.rs` and
//!   tracked by [`RetimeScaffold::realloc_events`]).
//!
//! The scaffold is owned by the builder but holds no schedule semantics of its own: the
//! epoch discipline makes every pass start from a logically empty cone, the message
//! table mirrors the immutable graph, and the persistent parts are pure mirrors of
//! `routes[e].len()`.  Rollback therefore only has
//! to keep the mirrors honest (via the same `set_route_len` hook the forward mutations
//! use); the arenas need no undo at all.

use crate::schedule::MessageHop;
use crate::txn::DirtyNode;
use bsa_taskgraph::TaskGraph;
use std::collections::VecDeque;

/// Sentinel for "not in the cone" in slot lookups.
pub(crate) const NONE: u32 = u32::MAX;

/// Persistent scaffolding + scratch arenas for the dirty-cone re-timing pass.
///
/// One instance lives inside every [`crate::builder::ScheduleBuilder`]; see the module
/// documentation for the design.  Fields are `pub(crate)` so the pass in
/// [`crate::incremental`] can split-borrow the arenas around the shared cone tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetimeScaffold {
    // ---- persistent, incrementally maintained ------------------------------------
    /// Mirror of `routes[e].len()`, kept in lockstep by every route mutation (and by
    /// rollback).  Lets the pass size its fallback decision in O(1) and lets the
    /// property suite verify the incremental maintenance against a rebuild.
    pub(crate) hop_len: Vec<u32>,
    /// Sum of `hop_len` — the total number of booked hops, maintained in O(1).
    pub(crate) total_hops: usize,

    // ---- static, built once per problem ------------------------------------------
    /// Every task's message out-edges as one flat `(edge, consumer)` table, rows
    /// delimited by `msg_out_off` (`num_tasks + 1` entries).
    pub(crate) msg_out: Vec<(u32, u32)>,
    /// Row offsets of `msg_out`.
    pub(crate) msg_out_off: Vec<u32>,

    // ---- epoch-stamped slot maps (never cleared, invalidated by epoch bump) ------
    /// Current pass epoch; a slot entry is valid iff its stamp equals this.
    pub(crate) epoch: u32,
    /// Per-task `(stamp << 32) | slot`.
    pub(crate) task_mark: Vec<u64>,
    /// Per-edge, per-hop `(stamp << 32) | slot`.  Inner vectors only ever grow (to the
    /// longest route the edge has ever had), so stale high indices are dead storage,
    /// never consulted: lookups are bounded by the *current* route length.
    pub(crate) hop_mark: Vec<Vec<u64>>,

    // ---- scratch arenas (clear()-reused, capacity persists) ----------------------
    /// Cone nodes in discovery order.
    pub(crate) nodes: Vec<DirtyNode>,
    /// Timeline position of each cone node's interval.
    pub(crate) tpos: Vec<u32>,
    /// Cone-local dependency edges (slot → slot).
    pub(crate) dep_edges: Vec<(u32, u32)>,
    /// Earliest-start accumulator per cone node.
    pub(crate) start: Vec<f64>,
    /// Finish time per cone node.
    pub(crate) finish: Vec<f64>,
    /// Kahn in-degrees per cone node (per decision-graph node in the flat sweep).
    pub(crate) indeg: Vec<u32>,
    /// Cone CSR row offsets (`m + 1` entries).
    pub(crate) offsets: Vec<u32>,
    /// Cone CSR fill cursors (scratch copy of `offsets`).
    pub(crate) fill: Vec<u32>,
    /// Cone CSR adjacency (one entry per cone dependency edge).
    pub(crate) csr: Vec<u32>,
    /// Cone Kahn ready queue.
    pub(crate) queue: VecDeque<u32>,
    /// Delta-kernel worklist membership per cone slot: a node already queued for
    /// re-evaluation is not queued again (it will observe the newer predecessor value
    /// when popped), collapsing the per-predecessor churn to one evaluation per
    /// update wave.
    pub(crate) queued: Vec<bool>,
    /// Delta-kernel worklist: a min-heap of `(committed-start key, slot)`.  Popping in
    /// committed-start order approximates topological order (every pre-existing
    /// decision edge points from an earlier committed start to a later one, durations
    /// being positive), so almost every node is evaluated exactly once — the unordered
    /// FIFO re-evaluated each node ~2.5–5× per pass on the 1000-task benchmark.
    pub(crate) heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    /// Committed-start heap key per cone slot, fixed at discovery (scratch starts
    /// move during the pass; the key must not).
    pub(crate) key: Vec<u64>,
    /// Current level of the flat relaxation's batched frontier (see
    /// `crate::incremental::flat_relax`): nodes whose predecessors are all settled.
    pub(crate) frontier: Vec<u32>,
    /// Next level of the batched frontier (swapped with `frontier` per sweep).
    pub(crate) frontier_next: Vec<u32>,
    /// Flat-sweep id of each edge's first hop (tasks come first, then every route's
    /// hops in order), summed per flat pass from the `hop_len` mirror.
    pub(crate) hop_base: Vec<u32>,
    /// Flat-sweep duration per node.
    pub(crate) dur: Vec<f64>,
    /// Flat-sweep timeline successor per node: the next interval on its processor
    /// or link timeline, or [`NONE`].
    pub(crate) tl_next: Vec<u32>,
    /// Flat-sweep chain successor per hop (indexed by flat id − `num_tasks`): the
    /// next hop of its route, or the message's consumer.
    pub(crate) hop_next: Vec<u32>,

    // ---- measured cone-vs-flat crossover model -----------------------------------
    /// Accumulated cone sizes of completed cone passes (numerator of the observed
    /// cone-per-estimate growth ratio ĝ; see [`RetimeScaffold::flat_by_model`]).
    xover_cone: u64,
    /// Accumulated seed-horizon estimates of those same passes (denominator of ĝ).
    xover_est: u64,
    /// Accumulated affected-set sizes of delta passes (numerator of the observed
    /// affected-per-estimate ratio ĝΔ; see [`RetimeScaffold::delta_by_model`]).
    /// Successful passes feed their final affected count; bailed passes feed the
    /// count discovered up to the bail — a lower bound, which only makes the model
    /// more willing to retry delta, never less.
    xover_delta_aff: u64,
    /// Accumulated seed-horizon estimates of those same delta passes (denominator
    /// of ĝΔ).
    xover_delta_est: u64,

    /// Number of passes after which some arena had to grow (capacity high-water moved).
    /// Steady state is *zero new events*: the counting-allocator test asserts the hard
    /// version of this, the counter makes regressions observable in release builds too.
    realloc_events: u64,
    /// Sum of arena capacities at the end of the previous pass.
    capacity_watermark: usize,
}

impl RetimeScaffold {
    /// Scaffold for a builder over `graph`.  The only allocations of the scaffold's
    /// lifetime that scale with the problem happen here (and on first growth of each
    /// arena) — never per pass in steady state.
    pub(crate) fn new(graph: &TaskGraph) -> Self {
        let mut msg_out = Vec::with_capacity(graph.num_edges());
        let mut msg_out_off = Vec::with_capacity(graph.num_tasks() + 1);
        msg_out_off.push(0);
        for t in graph.task_ids() {
            msg_out.extend(
                graph
                    .out_edges(t)
                    .iter()
                    .map(|&e| (e.0, graph.edge(e).dst.0)),
            );
            msg_out_off.push(msg_out.len() as u32);
        }
        RetimeScaffold {
            hop_len: vec![0; graph.num_edges()],
            msg_out,
            msg_out_off,
            task_mark: vec![0; graph.num_tasks()],
            hop_mark: vec![Vec::new(); graph.num_edges()],
            ..Self::default()
        }
    }

    /// Keeps the persistent mirrors in lockstep with a route-length change of edge `e`.
    /// Called by every mutation that changes a route's shape (`set_route`,
    /// `clear_route`/`detach`, `push_hop`) **and** by the undo interpreter, so rollback
    /// restores the scaffold through the same single hook.
    pub(crate) fn set_route_len(&mut self, e: usize, len: usize) {
        let old = self.hop_len[e] as usize;
        self.total_hops = self.total_hops - old + len;
        self.hop_len[e] = len as u32;
        // Grow-only: capacity for the longest route this edge has ever carried.
        if self.hop_mark[e].len() < len {
            self.hop_mark[e].resize(len, 0);
        }
    }

    /// Starts a pass: invalidates every slot entry by bumping the epoch and clears the
    /// arenas (keeping their capacity).
    pub(crate) fn begin_pass(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(n) => n,
            None => {
                // Wraparound (once per 2^32 passes): stale stamps could collide with a
                // restarted epoch, so clear the maps for real and restart at 1.
                self.task_mark.iter_mut().for_each(|m| *m = 0);
                self.hop_mark
                    .iter_mut()
                    .for_each(|v| v.iter_mut().for_each(|m| *m = 0));
                1
            }
        };
        self.nodes.clear();
        self.tpos.clear();
        self.dep_edges.clear();
        self.start.clear();
        self.finish.clear();
        self.indeg.clear();
        self.offsets.clear();
        self.fill.clear();
        self.csr.clear();
        self.queue.clear();
        self.queued.clear();
        self.heap.clear();
        self.key.clear();
        self.frontier.clear();
        self.frontier_next.clear();
        self.hop_base.clear();
        self.dur.clear();
        self.tl_next.clear();
        self.hop_next.clear();
    }

    /// Ends a pass: records whether any arena grew past the previous high-water mark.
    pub(crate) fn end_pass(&mut self) {
        let cap = self.nodes.capacity()
            + self.tpos.capacity()
            + self.dep_edges.capacity() * 2
            + self.start.capacity()
            + self.finish.capacity()
            + self.indeg.capacity()
            + self.offsets.capacity()
            + self.fill.capacity()
            + self.csr.capacity()
            + self.queue.capacity()
            + self.queued.capacity()
            + self.heap.capacity() * 2
            + self.key.capacity()
            + self.frontier.capacity()
            + self.frontier_next.capacity()
            + self.hop_base.capacity()
            + self.dur.capacity() * 2
            + self.tl_next.capacity()
            + self.hop_next.capacity();
        if cap > self.capacity_watermark {
            if self.capacity_watermark != 0 {
                self.realloc_events += 1;
            }
            self.capacity_watermark = cap;
        }
    }

    /// Number of passes (excluding the first) in which an arena had to grow.
    pub(crate) fn realloc_events(&self) -> u64 {
        self.realloc_events
    }

    /// Feeds the crossover model one completed cone pass: the pass's seed-horizon
    /// estimate said `est` nodes, the finished cone actually held `cone_nodes`.  The
    /// accumulated ratio ĝ = Σcone / Σest measures how much of the horizon a cone
    /// really covers *on this workload*; both accumulators are halved past a cap so the
    /// model tracks the current solve phase (an exponential moving average in integer
    /// arithmetic — deterministic, unlike any wall-clock-fed model, so thread-mirror
    /// replays and repeated solves route identically).
    pub(crate) fn note_cone_observation(&mut self, cone_nodes: usize, est: usize) {
        if est == 0 {
            return;
        }
        self.xover_cone += cone_nodes as u64;
        self.xover_est += est as u64;
        if self.xover_est > 1 << 20 {
            self.xover_cone /= 2;
            self.xover_est /= 2;
        }
    }

    /// Feeds the delta-vs-flat model one delta attempt: the pass's seed-horizon
    /// estimate said `est` nodes and the kernel touched `affected` of them (the final
    /// affected set on success, the partial set at the bail point otherwise).  Same
    /// integer-EWMA shape as [`RetimeScaffold::note_cone_observation`], tracking the
    /// distinct ratio ĝΔ = Σaffected / Σest — on the steady-state migration workload
    /// the affected set is much smaller than the successor closure, so the two models
    /// must learn separately.
    pub(crate) fn note_delta_observation(&mut self, affected: usize, est: usize) {
        if est == 0 {
            return;
        }
        self.xover_delta_aff += affected as u64;
        self.xover_delta_est += est as u64;
        if self.xover_delta_est > 1 << 20 {
            self.xover_delta_aff /= 2;
            self.xover_delta_est /= 2;
        }
    }

    /// The measured delta-vs-flat routing decision: skip the delta attempt iff the
    /// *predicted* affected set — the horizon estimate scaled by the observed ratio
    /// ĝΔ — exceeds a sixth of the decision graph (`6 · ĝΔ · est > total`).  The
    /// profiled per-node cost ratio alone is ≈4× (one delta evaluation pays for
    /// heap-ordered discovery, committed-position searches, and route pointer chasing
    /// against one level-batched flat relaxation step); the calibrated factor is
    /// higher because a wrong delta attempt also pays the bail and seed-rebuild
    /// overhead, and because ĝΔ's feed mixes visited counts (attempted passes) with
    /// changed counts (skipped passes), which biases it low.  Six is the measured
    /// wall-clock optimum on both the 1000- and 3000-task bench cells, with a flat
    /// plateau up to ~8.  With no observations yet the model is optimistic (ĝΔ = 0 →
    /// always try delta): the budget bail bounds the downside of a wrong first guess
    /// and immediately feeds the model.  Routing only — both kernels compute the
    /// identical fixpoint.
    pub(crate) fn delta_by_model(&self, est: usize, total_nodes: usize) -> bool {
        if self.xover_delta_est == 0 {
            return false;
        }
        6 * self.xover_delta_aff * (est as u64) > (total_nodes as u64) * self.xover_delta_est
    }

    /// The measured cone-vs-flat routing decision: go flat iff the *predicted* cone —
    /// the horizon estimate scaled by the observed growth ratio ĝ — exceeds half the
    /// decision graph (`2 · ĝ · est > total`).  With no observations yet, ĝ defaults
    /// to 1 and the rule degenerates to the static `est > total / 2` heuristic this
    /// model replaces; as cone passes complete, ĝ < 1 workloads (slack absorbs most of
    /// the horizon) keep more passes cone-local.  Routing only — every kernel computes
    /// the identical fixpoint, so the model can never change a schedule.
    pub(crate) fn flat_by_model(&self, est: usize, total_nodes: usize) -> bool {
        let (num, den) = if self.xover_est == 0 {
            (1, 1)
        } else {
            (self.xover_cone.max(1), self.xover_est)
        };
        2 * num * (est as u64) > (total_nodes as u64) * den
    }

    /// Cone slot of `n`, or [`NONE`] if `n` is outside the cone this pass.  The pass
    /// itself uses [`slot_lookup`] against split borrows; this convenience wrapper
    /// serves the unit tests.
    #[cfg(test)]
    pub(crate) fn slot(&self, n: DirtyNode) -> u32 {
        slot_lookup(self.epoch, &self.task_mark, &self.hop_mark, n)
    }

    /// Claims the next cone slot for `n` if it has none yet.  Returns `(slot, fresh)`;
    /// when `fresh` the caller must push the node's timeline position via
    /// [`RetimeScaffold::push_node_pos`].
    pub(crate) fn claim_slot(&mut self, n: DirtyNode) -> (u32, bool) {
        let epoch = self.epoch;
        let mark = match n {
            DirtyNode::Task(t) => &mut self.task_mark[t.index()],
            DirtyNode::Hop(e, k) => &mut self.hop_mark[e.index()][k as usize],
        };
        if (*mark >> 32) as u32 == epoch {
            return (*mark as u32, false);
        }
        let slot = self.nodes.len() as u32;
        *mark = ((epoch as u64) << 32) | slot as u64;
        self.nodes.push(n);
        (slot, true)
    }

    /// Completes [`RetimeScaffold::claim_slot`] for a fresh node.
    pub(crate) fn push_node_pos(&mut self, pos: u32) {
        self.tpos.push(pos);
    }

    /// The persistent mirrors rebuilt from scratch, for equality checks against the
    /// incrementally maintained state
    /// ([`crate::builder::ScheduleBuilder::scaffold_matches_rebuild`]).
    pub(crate) fn rebuild_persistent(routes: &[Vec<MessageHop>]) -> (Vec<u32>, usize) {
        let hop_len: Vec<u32> = routes.iter().map(|r| r.len() as u32).collect();
        let total = hop_len.iter().map(|&n| n as usize).sum();
        (hop_len, total)
    }

    /// Checks the persistent state against a rebuild: `hop_len` byte-equal, `total_hops`
    /// equal, and every slot map sized to its decision-graph object.
    pub(crate) fn matches_rebuild(&self, num_tasks: usize, routes: &[Vec<MessageHop>]) -> bool {
        let (hop_len, total) = Self::rebuild_persistent(routes);
        self.hop_len == hop_len
            && self.total_hops == total
            && self.task_mark.len() == num_tasks
            && self.hop_mark.len() == routes.len()
            && self
                .hop_mark
                .iter()
                .zip(self.hop_len.iter())
                .all(|(marks, &len)| marks.len() >= len as usize)
    }
}

/// Slot lookup against split-borrowed mark tables (used by the pass while the arenas
/// are mutably borrowed; [`RetimeScaffold::slot`] is the whole-struct convenience).
pub(crate) fn slot_lookup(
    epoch: u32,
    task_mark: &[u64],
    hop_mark: &[Vec<u64>],
    n: DirtyNode,
) -> u32 {
    let mark = match n {
        DirtyNode::Task(t) => task_mark[t.index()],
        DirtyNode::Hop(e, k) => hop_mark[e.index()][k as usize],
    };
    if (mark >> 32) as u32 == epoch {
        mark as u32
    } else {
        NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_taskgraph::{EdgeId, TaskGraphBuilder, TaskId};

    /// A chain of `n` tasks (`n - 1` edges).
    fn chain(n: usize) -> TaskGraph {
        let mut gb = TaskGraphBuilder::new();
        let mut prev = gb.add_task("t0", 1.0);
        for i in 1..n {
            let t = gb.add_task(format!("t{i}"), 1.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        gb.build().unwrap()
    }

    #[test]
    fn message_tables_mirror_the_graph() {
        let g = chain(3);
        let sc = RetimeScaffold::new(&g);
        assert_eq!(sc.msg_out, vec![(0, 1), (1, 2)]);
        assert_eq!(sc.msg_out_off, vec![0, 1, 2, 2]);
    }

    #[test]
    fn epoch_bump_invalidates_all_slots() {
        let mut sc = RetimeScaffold::new(&chain(3));
        sc.set_route_len(0, 2);
        sc.begin_pass();
        let (s0, fresh) = sc.claim_slot(DirtyNode::Task(TaskId(1)));
        assert!(fresh);
        sc.push_node_pos(0);
        assert_eq!(s0, 0);
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(1))), 0);
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(0))), NONE);
        let (h, fresh) = sc.claim_slot(DirtyNode::Hop(EdgeId(0), 1));
        assert!(fresh);
        sc.push_node_pos(0);
        assert_eq!(h, 1);
        // Re-claiming is a no-op.
        assert_eq!(sc.claim_slot(DirtyNode::Task(TaskId(1))), (0, false));
        // A new pass forgets everything without clearing the maps.
        sc.begin_pass();
        assert_eq!(sc.slot(DirtyNode::Task(TaskId(1))), NONE);
        assert_eq!(sc.slot(DirtyNode::Hop(EdgeId(0), 1)), NONE);
    }

    #[test]
    fn route_len_mirror_tracks_total_hops_and_capacity() {
        let mut sc = RetimeScaffold::new(&chain(4));
        sc.set_route_len(0, 3);
        sc.set_route_len(2, 1);
        assert_eq!(sc.total_hops, 4);
        assert_eq!(sc.hop_len, vec![3, 0, 1]);
        // Shrinking keeps the mark capacity (grow-only).
        sc.set_route_len(0, 1);
        assert_eq!(sc.total_hops, 2);
        assert!(sc.hop_mark[0].len() >= 3);
    }

    #[test]
    fn arena_growth_is_counted_once_per_pass() {
        let mut sc = RetimeScaffold::new(&chain(4));
        sc.begin_pass();
        for i in 0..4 {
            sc.claim_slot(DirtyNode::Task(TaskId(i)));
            sc.push_node_pos(0);
        }
        sc.end_pass();
        // First pass establishes the watermark without counting an event.
        assert_eq!(sc.realloc_events(), 0);
        sc.begin_pass();
        sc.end_pass();
        assert_eq!(sc.realloc_events(), 0);
    }
}
