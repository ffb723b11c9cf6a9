//! Dirty-cone incremental re-timing (the fast path of the scheduling kernel).
//!
//! [`crate::recompute`] relaxes *every* task and message hop from scratch — O(schedule)
//! per call.  After a single migration, though, almost all of the schedule is untouched:
//! only the migrated task, the re-routed messages, and the nodes whose processor- or
//! link-order predecessor changed can move, plus whatever is downstream of them.  This
//! module relaxes exactly that set — the **dirty cone** — in the style of irregular
//! wavefront propagation (see PAPERS.md, Gomes & Teodoro; DESIGN.md §7.2):
//!
//! 1. **Seeds.**  Every builder mutation records the decision-graph nodes whose
//!    predecessor set it changed (see [`crate::txn`]); the caller may add extra task
//!    seeds.  Stale entries (hops of a route that has since shrunk) are filtered out;
//!    duplicates are deduplicated.
//! 2. **Cone.**  The successor closure of the seeds under the *current* decision edges:
//!    processor order, link order, route chains, and local-message precedence.  The cone
//!    is successor-closed, so every node outside it has only outside predecessors — its
//!    committed time is still the earliest-start fixpoint and can be used as-is.
//! 3. **Relaxation.**  A Kahn pass over the cone only, reading committed finish times
//!    for out-of-cone predecessors.  If the pass cannot consume the whole cone the
//!    ordering decisions are cyclic ([`RecomputeError::CyclicDecisions`]); any new cycle
//!    necessarily passes through a changed edge, hence through the cone, so cycle
//!    detection is not weakened by looking at the cone alone.
//! 4. **Write-back.**  Only nodes whose `(start, finish)` actually changed are touched.
//!    Re-timing preserves every timeline's interval *order*, so each changed window is
//!    overwritten in place at its (cached) position — no interval is ever removed or
//!    reinserted.  Inside a transaction the old times are recorded for rollback.
//!
//! The pass runs on the builder's persistent scaffold (`crate::scaffold`): epoch-
//! stamped slot maps instead of per-call `vec![NONE; …]` fills, `clear()`-reused arenas
//! for the cone/CSR/queue, an O(1) `total_hops` mirror instead of the O(E) `hop_base`
//! prefix scan, and watermark-based undo records backed by persistent stacks.  The cost
//! of one migration is proportional to its cone; in steady state (once the arenas reach
//! their high-water capacity) the pass performs **zero heap allocations** — asserted by
//! the counting-allocator test in `tests/zero_alloc.rs`.
//!
//! Cone-proportional is only a win while the cone is small.  A migration of an
//! early-schedule task dirties nearly everything downstream — at 1000+ tasks the mean
//! successor closure covers most of the schedule — yet the set of nodes whose *times*
//! actually move is far smaller, because committed slack absorbs most perturbations.
//! The pass therefore routes between several same-result kernels (see [`RetimeKind`]):
//!
//! * the **delta kernel** (`try_delta`, tried first on large full placements) —
//!   value-driven propagation over a committed-start-ordered worklist that stops
//!   wherever slack absorbs the change, costing O(|affected| · log) instead of
//!   O(|closure|), with an evaluation budget ([`DELTA_EVAL_NUM`]) bounding the
//!   downside of an attempt that has to bail;
//! * the cone-local Kahn kernel above, for small problems and delta bails whose
//!   horizon stays small;
//! * `flat_relax` — a whole-schedule relaxation on the same arenas that replaces the
//!   much costlier [`crate::recompute`] oracle when nearly everything must be re-timed
//!   anyway.  It builds no adjacency: successors come from the timelines, the route
//!   chains, and a static message table, relaxed as a level-batched frontier with
//!   in-place write-back and zero steady-state allocations.  It is routed to by the seed count
//!   ([`FALLBACK_NUM`]), by the *measured* cone-vs-flat crossover model on the
//!   seed-horizon estimate (`RetimeScaffold::flat_by_model`, which scales the
//!   estimate by the observed cone-per-estimate ratio of completed cone passes), or
//!   by the mid-discovery cap as backstop.
//!
//! The result is bit-identical to a full [`crate::recompute`] pass **provided the
//! schedule outside the cone is already compacted** — which BSA guarantees by
//! re-timing after the serialization phase and after every accepted migration.  The
//! property-based tests in `tests/property_based.rs` pin this equivalence down
//! against the full-relaxation oracle.
//!
//! Errors are detected before anything is written, so a failed call leaves the builder
//! (and its dirty list) untouched.

use crate::builder::ScheduleBuilder;
use crate::recompute::RecomputeError;
use crate::scaffold::{slot_lookup, RetimeScaffold, NONE};
use crate::txn::{DirtyNode, UndoOp};
use bsa_network::ProcId;
use bsa_taskgraph::{EdgeId, TaskId};

/// Which same-result kernel an incremental re-timing pass finished on, and — for the
/// flat sweeps — which routing rule sent it there.  Every kernel computes the identical
/// earliest-start fixpoint; the kind is diagnostics for the crossover model only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetimeKind {
    /// Cone-local Kahn relaxation over the successor closure of the seeds (the classic
    /// dirty-cone kernel; also what an empty pass reports).
    #[default]
    Cone,
    /// Value-driven delta propagation: re-evaluation stopped wherever committed slack
    /// absorbed the change, without ever materializing the successor closure.
    Delta,
    /// Flat sweep, routed by the seed-count check ([`FALLBACK_NUM`]).
    FlatSeeds,
    /// Flat sweep, routed by the measured crossover model on the seed-horizon estimate
    /// (see `RetimeScaffold::flat_by_model`).
    FlatModel,
    /// Flat sweep, after cone discovery outgrew its cap mid-expansion.
    FlatCap,
}

/// What an incremental re-timing pass did, for diagnostics, the BSA trace's phase
/// counters, and the scaling benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetimeStats {
    /// Live, deduplicated seeds the pass started from (setup phase).
    pub seed_nodes: usize,
    /// Nodes (tasks + hops) the pass touched: the relaxed dirty cone (cone kernel),
    /// the discovered affected set (delta kernel), or the whole decision graph (flat).
    pub cone_nodes: usize,
    /// Cone-local dependency edges relaxed by the Kahn pass (relax phase; the delta
    /// kernel never materializes an edge list and reports 0).
    pub cone_edges: usize,
    /// Cone nodes whose start or finish time actually changed (write-back phase).
    pub changed_nodes: usize,
    /// Whether the pass ran the arena-backed **flat relaxation** instead of a
    /// node-local kernel (`kind` is one of the `Flat*` variants).  Identical results
    /// either way; `cone_nodes` then counts the whole decision graph.
    pub fell_back: bool,
    /// Which kernel finished the pass, and why (see [`RetimeKind`]).
    pub kind: RetimeKind,
    /// Node evaluations spent by the delta kernel this pass — including the evaluations
    /// of an attempt that hit its budget and bailed to the classic routing.
    pub delta_evals: usize,
}

/// When the (deduplicated) seeds alone exceed `FALLBACK_NUM / FALLBACK_DEN` of all
/// decision-graph nodes, the incremental pass runs the arena-backed flat relaxation
/// instead: the cone can only be larger still, and at that size the flat sweep beats
/// the cone machinery's per-node bookkeeping.  Deciding on the seed count — *before*
/// any cone construction — keeps the fallback free: no partially built cone is thrown
/// away.  In BSA's steady state (a handful of seeds per migration) it never fires; it
/// catches bulk-mutation batches such as re-timing a freshly built schedule.  The same
/// ratio caps cone *construction*: a cone that grows past it mid-discovery abandons and
/// re-routes to the flat pass (cheap since the arenas are reused either way).
pub const FALLBACK_NUM: usize = 3;
/// See [`FALLBACK_NUM`].
pub const FALLBACK_DEN: usize = 4;

/// Below this many decision-graph nodes the flat re-routes never fire: the cone
/// machinery is cheap regardless, and bailing out would only reduce test coverage of
/// the incremental path.
pub const FALLBACK_FLOOR: usize = 64;

/// Evaluation budget of the delta kernel, as a fraction of the decision graph: the
/// value-driven pass may spend at most `total_nodes · DELTA_EVAL_NUM / DELTA_EVAL_DEN`
/// node evaluations before bailing to the classic cone/flat routing.  One delta
/// evaluation costs about one flat-relax node visit (a full fold over the node's
/// predecessors), so a bailed attempt wastes at most ~one flat sweep.  The
/// committed-start-ordered worklist keeps successful passes near one evaluation per
/// affected node, but a sizeable minority of migrations genuinely touch more than
/// half the decision graph (compaction ripples every removal downstream), so the
/// budget is the full graph — anything tighter bails passes that were about to
/// converge.  The budget is also the divergence backstop: a decision cycle with
/// positive total duration grows values forever and can only exit through it (the
/// classic kernels then report the cycle).
pub const DELTA_EVAL_NUM: usize = 1;
/// See [`DELTA_EVAL_NUM`].
pub const DELTA_EVAL_DEN: usize = 1;

/// Whether a dirty entry still refers to an existing decision-graph node.
fn node_exists(b: &ScheduleBuilder<'_>, n: DirtyNode) -> bool {
    match n {
        DirtyNode::Task(_) => true,
        DirtyNode::Hop(e, k) => (k as usize) < b.routes[e.index()].len(),
    }
}

/// Duration of a node under the current decisions.
fn duration_of(b: &ScheduleBuilder<'_>, n: DirtyNode) -> f64 {
    match n {
        DirtyNode::Task(t) => {
            let p = b.assignment[t.index()].expect("cone tasks are placed");
            b.system.exec_cost(t, p)
        }
        DirtyNode::Hop(e, k) => {
            let hop = b.routes[e.index()][k as usize];
            b.system
                .transfer_time(hop.link, b.graph.edge(e).nominal_cost)
        }
    }
}

/// Adds `n` to the cone (no-op if present), computing its timeline position unless the
/// caller already knows it.  Returns the cone slot.
fn add_to_cone(
    b: &ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    n: DirtyNode,
    pos_hint: Option<u32>,
) -> Result<u32, RecomputeError> {
    let (slot, fresh) = sc.claim_slot(n);
    if !fresh {
        return Ok(slot);
    }
    let pos = match pos_hint {
        Some(p) => p,
        None => match n {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].ok_or(RecomputeError::UnplacedTask(t))?;
                b.proc_timelines[p.index()]
                    .position_at(b.task_start[t.index()], |x| x == t)
                    .expect("placed task is on its processor's timeline") as u32
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                b.link_timelines[b.link_slot(hop.link, hop.from)]
                    .position_at(hop.start, |pl| pl == (e, k))
                    .expect("hop is on its link's timeline") as u32
            }
        },
    };
    sc.push_node_pos(pos);
    Ok(slot)
}

/// Committed start instant of a live decision-graph node (seed-horizon computation).
fn start_of_node(b: &ScheduleBuilder<'_>, n: DirtyNode) -> f64 {
    match n {
        DirtyNode::Task(t) => b.task_start[t.index()],
        DirtyNode::Hop(e, k) => b.routes[e.index()][k as usize].start,
    }
}

/// Committed `(start, finish)` window of a live decision-graph node.
fn committed_times(b: &ScheduleBuilder<'_>, n: DirtyNode) -> (f64, f64) {
    match n {
        DirtyNode::Task(t) => (b.task_start[t.index()], b.task_finish[t.index()]),
        DirtyNode::Hop(e, k) => {
            let hop = &b.routes[e.index()][k as usize];
            (hop.start, hop.finish)
        }
    }
}

/// Discovers `n` for the delta kernel: claims a slot, records the timeline position,
/// and initializes the node's scratch window to its committed one (undiscovered
/// nodes *are* their committed windows, so discovery must be value-neutral).
fn delta_discover(
    b: &ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    n: DirtyNode,
    pos_hint: Option<u32>,
) -> Result<u32, RecomputeError> {
    let before = sc.nodes.len();
    let slot = add_to_cone(b, sc, n, pos_hint)?;
    if sc.nodes.len() > before {
        let (cs, cf) = committed_times(b, n);
        sc.start.push(cs);
        sc.finish.push(cf);
        sc.queued.push(false);
        sc.key.push(start_key(cs));
    }
    Ok(slot)
}

/// Monotone map from a committed start instant to a totally ordered heap key
/// (the standard sign-flip trick, so even a negative start would order correctly).
fn start_key(start: f64) -> u64 {
    let b = start.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Enqueues cone slot `v` for (re-)evaluation unless it is already pending: a queued
/// node will observe the newest predecessor values when popped, so queueing it once
/// per update *wave* — not once per updated predecessor — preserves the "any
/// inconsistent node is queued" invariant.  The worklist is a min-heap on committed
/// start: every decision edge that predates this pass points from an earlier
/// committed start to a strictly later one (durations are positive), so committed-
/// start order is a topological order of the unperturbed decision graph and each node
/// settles in one evaluation.  Only edges the current change *introduced* (around the
/// migrated task and its hops — the seeds) can violate the order, and those trigger
/// the ordinary changed-value re-enqueue, bounding the extra work by the seed count.
fn delta_enqueue(sc: &mut RetimeScaffold, v: u32) {
    if !sc.queued[v as usize] {
        sc.queued[v as usize] = true;
        sc.heap.push(std::cmp::Reverse((sc.key[v as usize], v)));
    }
}

/// Full re-evaluation of a node's earliest start under the current decision edges:
/// the max over *all* its predecessors' finishes, reading discovered predecessors
/// from the delta scratch and everything else from the committed schedule.  `Err(())`
/// means the node has an unroutable cross-processor message — the delta kernel bails
/// and lets the classic path surface the exact error.
fn delta_eval(
    b: &ScheduleBuilder<'_>,
    sc: &RetimeScaffold,
    n: DirtyNode,
    pos: usize,
) -> Result<f64, ()> {
    let pred_finish = |n2: DirtyNode, committed: f64| -> f64 {
        let sl = slot_lookup(sc.epoch, &sc.task_mark, &sc.hop_mark, n2);
        if sl == NONE {
            committed
        } else {
            sc.finish[sl as usize]
        }
    };
    let mut s = 0.0f64;
    match n {
        DirtyNode::Task(t) => {
            let p = b.assignment[t.index()].expect("delta nodes are placed");
            if pos > 0 {
                let prev = b.proc_timelines[p.index()].intervals()[pos - 1].payload;
                let v = pred_finish(DirtyNode::Task(prev), b.task_finish[prev.index()]);
                if v > s {
                    s = v;
                }
            }
            for &eid in b.graph.in_edges(t) {
                let route_len = b.routes[eid.index()].len();
                if route_len == 0 {
                    let src = b.graph.edge(eid).src;
                    let sp = b.assignment[src.index()].expect("delta runs on full placements");
                    if sp != p {
                        return Err(());
                    }
                    let v = pred_finish(DirtyNode::Task(src), b.task_finish[src.index()]);
                    if v > s {
                        s = v;
                    }
                } else {
                    let k = (route_len - 1) as u32;
                    let v = pred_finish(
                        DirtyNode::Hop(eid, k),
                        b.routes[eid.index()][k as usize].finish,
                    );
                    if v > s {
                        s = v;
                    }
                }
            }
        }
        DirtyNode::Hop(e, k) => {
            let hop = b.routes[e.index()][k as usize];
            if pos > 0 {
                let (pe, pk) =
                    b.link_timelines[b.link_slot(hop.link, hop.from)].intervals()[pos - 1].payload;
                let v = pred_finish(
                    DirtyNode::Hop(pe, pk),
                    b.routes[pe.index()][pk as usize].finish,
                );
                if v > s {
                    s = v;
                }
            }
            if k == 0 {
                let src = b.graph.edge(e).src;
                let v = pred_finish(DirtyNode::Task(src), b.task_finish[src.index()]);
                if v > s {
                    s = v;
                }
            } else {
                let v = pred_finish(
                    DirtyNode::Hop(e, k - 1),
                    b.routes[e.index()][(k - 1) as usize].finish,
                );
                if v > s {
                    s = v;
                }
            }
        }
    }
    Ok(s)
}

/// Enqueues every decision-graph successor of node `u` for re-evaluation (discovering
/// it first if needed) — the same successor enumeration the cone expansion uses.
/// `Ok(false)` = bail (cross-processor edge without a route; classic path reports it).
fn delta_push_successors(
    b: &ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    u: usize,
) -> Result<bool, RecomputeError> {
    let node = sc.nodes[u];
    let pos = sc.tpos[u] as usize;
    match node {
        DirtyNode::Task(t) => {
            let p = b.assignment[t.index()].expect("delta nodes are placed");
            let next = b.proc_timelines[p.index()]
                .intervals()
                .get(pos + 1)
                .map(|iv| iv.payload);
            if let Some(next) = next {
                let v = delta_discover(b, sc, DirtyNode::Task(next), Some(pos as u32 + 1))?;
                delta_enqueue(sc, v);
            }
            for &eid in b.graph.out_edges(t) {
                if b.routes[eid.index()].is_empty() {
                    let dst = b.graph.edge(eid).dst;
                    let dp = b.assignment[dst.index()].expect("delta runs on full placements");
                    if dp != p {
                        return Ok(false);
                    }
                    let v = delta_discover(b, sc, DirtyNode::Task(dst), None)?;
                    delta_enqueue(sc, v);
                } else {
                    let v = delta_discover(b, sc, DirtyNode::Hop(eid, 0), None)?;
                    delta_enqueue(sc, v);
                }
            }
        }
        DirtyNode::Hop(e, k) => {
            let hop = b.routes[e.index()][k as usize];
            let next = b.link_timelines[b.link_slot(hop.link, hop.from)]
                .intervals()
                .get(pos + 1)
                .map(|iv| iv.payload);
            if let Some((ne, nk)) = next {
                let v = delta_discover(b, sc, DirtyNode::Hop(ne, nk), Some(pos as u32 + 1))?;
                delta_enqueue(sc, v);
            }
            let v = if (k as usize) + 1 < b.routes[e.index()].len() {
                delta_discover(b, sc, DirtyNode::Hop(e, k + 1), None)?
            } else {
                delta_discover(b, sc, DirtyNode::Task(b.graph.edge(e).dst), None)?
            };
            delta_enqueue(sc, v);
        }
    }
    Ok(true)
}

/// The delta kernel: incremental longest-path maintenance by value-driven propagation.
///
/// Instead of materializing the successor closure of the seeds (whose size is what
/// erodes the incremental advantage at scale — the closure of an early-schedule
/// migration covers nearly everything downstream regardless of whether any time
/// actually moves), this kernel re-evaluates *values*: each worklist node recomputes
/// its earliest start from its current predecessors, and only a node whose window
/// actually **changed** pushes its successors.  Wherever committed slack absorbs the
/// perturbation, propagation dies immediately — a migration's true cost becomes
/// O(|affected|), not O(|closure|).
///
/// Correctness relies on the same compaction invariant as the cone kernel: committed
/// windows outside the discovered set are the previous fixpoint, and every node whose
/// predecessor *set* changed is a seed.  On a DAG the fixpoint is unique and the
/// worklist maintains "any locally inconsistent node is queued", so an empty worklist
/// *is* the fixpoint; `f64` max over identical operand sets is order-independent, so
/// the result is bit-identical to [`crate::recompute`].  The kernel **never touches
/// the builder until convergence** (scratch windows only), so a bail — budget
/// exhausted, a zero-duration node (which could let a freshly created decision cycle
/// stabilize silently instead of erroring), or a missing route — simply falls through
/// to the classic routing with the builder untouched and every error surface intact;
/// positive-duration cycles diverge and exit through the budget.
///
/// Returns `Ok(None)` to bail; `evals` reports the evaluations spent either way.
fn try_delta(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    budget: usize,
    evals: &mut usize,
) -> Result<Option<RetimeStats>, RecomputeError> {
    let seed_nodes = sc.nodes.len();
    for i in 0..seed_nodes {
        let (cs, cf) = committed_times(b, sc.nodes[i]);
        sc.start.push(cs);
        sc.finish.push(cf);
        sc.queued.push(true);
        sc.key.push(start_key(cs));
        sc.heap.push(std::cmp::Reverse((sc.key[i], i as u32)));
    }
    while let Some(std::cmp::Reverse((_, u))) = sc.heap.pop() {
        *evals += 1;
        if *evals > budget {
            return Ok(None);
        }
        let u = u as usize;
        sc.queued[u] = false;
        let n = sc.nodes[u];
        let dur = duration_of(b, n);
        if dur == 0.0 {
            return Ok(None);
        }
        let s = match delta_eval(b, sc, n, sc.tpos[u] as usize) {
            Ok(s) => s,
            Err(()) => return Ok(None),
        };
        let f = s + dur;
        if s == sc.start[u] && f == sc.finish[u] {
            continue;
        }
        sc.start[u] = s;
        sc.finish[u] = f;
        if !delta_push_successors(b, sc, u)? {
            return Ok(None);
        }
    }
    let changed = write_back_slots(b, &sc.nodes, &sc.tpos, &sc.start, &sc.finish);
    Ok(Some(RetimeStats {
        seed_nodes,
        cone_nodes: sc.nodes.len(),
        cone_edges: 0,
        changed_nodes: changed,
        fell_back: false,
        kind: RetimeKind::Delta,
        delta_evals: *evals,
    }))
}

/// In-place write-back shared by every kernel: `apply` overwrites the changed windows
/// and returns how many moved, pushing old windows onto the builder's persistent undo
/// stacks when told to log.  Re-timing preserves every timeline's interval order, so
/// each changed window is overwritten at its known position — no remove/insert
/// shifting — and the logged [`UndoOp::Retime`] only records the stacks' watermarks
/// (see [`crate::txn`]).  Clears the dirty list (the pass consumed it).
fn write_back<'a>(
    b: &mut ScheduleBuilder<'a>,
    apply: impl FnOnce(&mut ScheduleBuilder<'a>, bool) -> usize,
) -> usize {
    let log = b.in_txn();
    let tasks_from = b.retime_undo_tasks.len();
    let hops_from = b.retime_undo_hops.len();
    let changed = apply(b, log);
    #[cfg(debug_assertions)]
    {
        for tl in &b.proc_timelines {
            debug_assert!(tl.is_consistent(), "processor timeline after write-back");
        }
        for tl in &b.link_timelines {
            debug_assert!(tl.is_consistent(), "link timeline after write-back");
        }
    }
    if log {
        b.log_undo(UndoOp::Retime {
            tasks_from,
            hops_from,
        });
    }
    b.clear_dirty();
    changed
}

/// [`write_back`] of a node-local kernel's scratch windows (cone or delta slots).
fn write_back_slots(
    b: &mut ScheduleBuilder<'_>,
    nodes: &[DirtyNode],
    tpos: &[u32],
    start: &[f64],
    finish: &[f64],
) -> usize {
    write_back(b, |b, log| {
        let mut changed = 0usize;
        for i in 0..nodes.len() {
            let pos = tpos[i] as usize;
            match nodes[i] {
                DirtyNode::Task(t) => {
                    if b.task_start[t.index()] != start[i] || b.task_finish[t.index()] != finish[i]
                    {
                        if log {
                            b.retime_undo_tasks.push((
                                t,
                                b.task_start[t.index()],
                                b.task_finish[t.index()],
                            ));
                        }
                        changed += 1;
                        let p = b.assignment[t.index()].expect("cone tasks are placed");
                        b.task_start[t.index()] = start[i];
                        b.task_finish[t.index()] = finish[i];
                        b.proc_timelines[p.index()].set_window(pos, start[i], finish[i]);
                    }
                }
                DirtyNode::Hop(e, k) => {
                    let hop = b.routes[e.index()][k as usize];
                    if hop.start != start[i] || hop.finish != finish[i] {
                        if log {
                            b.retime_undo_hops.push((e, k, hop.start, hop.finish));
                        }
                        changed += 1;
                        let slot = b.link_slot(hop.link, hop.from);
                        let hop = &mut b.routes[e.index()][k as usize];
                        hop.start = start[i];
                        hop.finish = finish[i];
                        b.link_timelines[slot].set_window(pos, start[i], finish[i]);
                    }
                }
            }
        }
        changed
    })
}

/// The first cross-processor message without a route, in edge-id order — the edge the
/// [`crate::recompute`] oracle reports.
fn first_unrouted(b: &ScheduleBuilder<'_>) -> Option<EdgeId> {
    b.graph.edge_ids().find(|&e| {
        let edge = b.graph.edge(e);
        b.routes[e.index()].is_empty()
            && b.assignment[edge.src.index()] != b.assignment[edge.dst.index()]
    })
}

/// Full-schedule Kahn relaxation on the scaffold's arenas — the big-cone sibling of the
/// cone-local pass.  Computes exactly the [`crate::recompute`] fixpoint without
/// building an adjacency list: every decision-graph successor is read where it lives.
///
/// * **Timeline order.**  One walk over the processor and link timelines records each
///   node's next interval (`tl_next`).  The same walk fills durations, in-degrees, and
///   each hop's chain successor (`hop_next`: the next hop, or the consumer).
/// * **Messages.**  A task's message successors come from the scaffold's static
///   `(edge, consumer)` table: the consumer for a local message, the first hop of a
///   routed one.
///
/// Write-back is in place (re-timing preserves interval order, so no timeline is ever
/// rebuilt) with watermark undo records.  Zero steady-state heap allocations, like the
/// cone path.  Errors are raised before any write, in the oracle's precedence: an
/// unplaced task, then the first unrouted cross-processor message in edge-id order
/// (the sweep only notices one; a full scan on the error path names the first), then
/// a cycle.
///
/// The stats mark the flat route (`fell_back`) and record which routing rule chose it.
fn flat_relax(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    seed_nodes: usize,
    kind: RetimeKind,
    delta_evals: usize,
) -> Result<RetimeStats, RecomputeError> {
    let graph = b.graph;
    let n_tasks = graph.num_tasks();
    if let Some(t) = graph.task_ids().find(|t| b.assignment[t.index()].is_none()) {
        return Err(RecomputeError::UnplacedTask(t));
    }
    let RetimeScaffold {
        ref hop_len,
        total_hops,
        ref msg_out,
        ref msg_out_off,
        ref mut hop_base,
        ref mut dur,
        ref mut indeg,
        ref mut tl_next,
        ref mut hop_next,
        ref mut start,
        ref mut finish,
        ref mut frontier,
        ref mut frontier_next,
        ..
    } = *sc;
    let num_nodes = n_tasks + total_hops;
    let mut acc = n_tasks as u32;
    hop_base.extend(hop_len.iter().map(|&len| {
        acc += len;
        acc - len
    }));
    debug_assert_eq!(acc as usize, num_nodes);

    // One walk over every timeline.  Message chains add one dependency edge per local
    // message and `len + 1` per route; timeline order adds `len - 1` per timeline.
    dur.resize(num_nodes, 0.0);
    indeg.resize(num_nodes, 0);
    tl_next.resize(num_nodes, NONE);
    hop_next.resize(total_hops, NONE);
    let mut dep_edges = graph.num_edges() + total_hops;
    for (p, tl) in b.proc_timelines.iter().enumerate() {
        let ivs = tl.intervals();
        dep_edges += ivs.len().saturating_sub(1);
        for (pos, iv) in ivs.iter().enumerate() {
            let t = iv.payload.index();
            dur[t] = b.system.exec_cost(iv.payload, ProcId::from_index(p));
            // Every message adds one predecessor: its producer or its route's last hop.
            indeg[t] = (graph.in_degree(iv.payload) + usize::from(pos > 0)) as u32;
            tl_next[t] = ivs.get(pos + 1).map_or(NONE, |nx| nx.payload.0);
        }
    }
    for (slot, tl) in b.link_timelines.iter().enumerate() {
        let link = b.slot_link(slot);
        let ivs = tl.intervals();
        dep_edges += ivs.len().saturating_sub(1);
        for (pos, iv) in ivs.iter().enumerate() {
            let (e, k) = iv.payload;
            let edge = graph.edge(e);
            let id = hop_base[e.index()] + k;
            dur[id as usize] = b.system.transfer_time(link, edge.nominal_cost);
            indeg[id as usize] = 1 + u32::from(pos > 0);
            tl_next[id as usize] = ivs
                .get(pos + 1)
                .map_or(NONE, |nx| hop_base[nx.payload.0.index()] + nx.payload.1);
            hop_next[id as usize - n_tasks] = if k + 1 < hop_len[e.index()] {
                id + 1
            } else {
                edge.dst.0
            };
        }
    }

    // Level-batched Kahn relaxation from scratch (initial starts all zero): one *level*
    // of ready nodes per batch from a pair of swapped frontier arenas — tight loops
    // over struct-of-arrays state, no queue churn.  Max-merges commute, so the order
    // cannot change the fixpoint, and the processed count still detects cycles.
    start.resize(num_nodes, 0.0);
    finish.resize(num_nodes, 0.0);
    frontier.extend((0..num_nodes as u32).filter(|&i| indeg[i as usize] == 0));
    let mut processed = 0usize;
    let mut unrouted = false;
    'sweep: while !frontier.is_empty() {
        for &u in frontier.iter() {
            let u = u as usize;
            let f = start[u] + dur[u];
            finish[u] = f;
            processed += 1;
            let mut relax = |v: u32| {
                let v = v as usize;
                if f > start[v] {
                    start[v] = f;
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    frontier_next.push(v as u32);
                }
            };
            if tl_next[u] != NONE {
                relax(tl_next[u]);
            }
            if u >= n_tasks {
                relax(hop_next[u - n_tasks]);
                continue;
            }
            let row = msg_out_off[u] as usize..msg_out_off[u + 1] as usize;
            for &(e, dst) in &msg_out[row] {
                if hop_len[e as usize] > 0 {
                    relax(hop_base[e as usize]);
                } else if b.assignment[dst as usize] == b.assignment[u] {
                    relax(dst);
                } else {
                    unrouted = true;
                    break 'sweep;
                }
            }
        }
        std::mem::swap(frontier, frontier_next);
        frontier_next.clear();
    }
    if unrouted || processed != num_nodes {
        return Err(first_unrouted(b).map_or(
            RecomputeError::CyclicDecisions,
            RecomputeError::MissingRoute,
        ));
    }

    // In-place write-back, walking each timeline so positions are implicit.
    let changed = write_back(b, |b, log| {
        let ScheduleBuilder {
            ref mut task_start,
            ref mut task_finish,
            ref mut proc_timelines,
            ref mut link_timelines,
            ref mut routes,
            ref mut retime_undo_tasks,
            ref mut retime_undo_hops,
            ..
        } = *b;
        let mut changed = 0usize;
        for tl in proc_timelines.iter_mut() {
            for pos in 0..tl.len() {
                let t = tl.intervals()[pos].payload;
                let (ns, nf) = (start[t.index()], finish[t.index()]);
                if task_start[t.index()] != ns || task_finish[t.index()] != nf {
                    if log {
                        retime_undo_tasks.push((t, task_start[t.index()], task_finish[t.index()]));
                    }
                    changed += 1;
                    task_start[t.index()] = ns;
                    task_finish[t.index()] = nf;
                    tl.set_window(pos, ns, nf);
                }
            }
        }
        for tl in link_timelines.iter_mut() {
            for pos in 0..tl.len() {
                let (e, k) = tl.intervals()[pos].payload;
                let id = (hop_base[e.index()] + k) as usize;
                let (ns, nf) = (start[id], finish[id]);
                let hop = &mut routes[e.index()][k as usize];
                if hop.start != ns || hop.finish != nf {
                    if log {
                        retime_undo_hops.push((e, k, hop.start, hop.finish));
                    }
                    changed += 1;
                    hop.start = ns;
                    hop.finish = nf;
                    tl.set_window(pos, ns, nf);
                }
            }
        }
        changed
    });
    Ok(RetimeStats {
        seed_nodes,
        cone_nodes: num_nodes,
        cone_edges: dep_edges,
        changed_nodes: changed,
        fell_back: true,
        kind,
        delta_evals,
    })
}

/// See the module documentation.  Called through
/// [`ScheduleBuilder::recompute_times_from`].
pub(crate) fn recompute_from(
    b: &mut ScheduleBuilder<'_>,
    extra_seeds: &[TaskId],
) -> Result<RetimeStats, RecomputeError> {
    if b.dirty.is_empty() && extra_seeds.is_empty() {
        return Ok(RetimeStats::default());
    }
    // The scaffold is moved out for the duration of the pass so the pass can hold it
    // mutably alongside shared borrows of the builder.  No mutation primitive runs
    // while it is out (re-timing only overwrites windows in place), so the persistent
    // mirrors cannot go stale.  Restored on every path, including errors.
    let mut sc = std::mem::take(&mut b.scaffold);
    let result = run_pass(b, &mut sc, extra_seeds);
    sc.end_pass();
    b.scaffold = sc;
    result
}

fn run_pass(
    b: &mut ScheduleBuilder<'_>,
    sc: &mut RetimeScaffold,
    extra_seeds: &[TaskId],
) -> Result<RetimeStats, RecomputeError> {
    sc.begin_pass();
    debug_assert_eq!(
        sc.total_hops,
        b.routes.iter().map(Vec::len).sum::<usize>(),
        "scaffold total_hops mirror out of sync with the routes"
    );

    // ---- seeds (tracking the earliest seed instant for the horizon estimate) ------
    let mut t_min = f64::INFINITY;
    for i in 0..b.dirty.len() {
        let s = b.dirty[i];
        if node_exists(b, s) {
            add_to_cone(b, sc, s, None)?;
            t_min = t_min.min(start_of_node(b, s));
        }
    }
    for &t in extra_seeds {
        add_to_cone(b, sc, DirtyNode::Task(t), None)?;
        t_min = t_min.min(b.task_start[t.index()]);
    }
    let seed_nodes = sc.nodes.len();

    // ---- flat-relaxation routing (see FALLBACK_NUM / DELTA_EVAL_NUM) ---------------
    let total_nodes = b.graph.num_tasks() + sc.total_hops;
    let big = total_nodes >= FALLBACK_FLOOR;
    if big && seed_nodes > total_nodes * FALLBACK_NUM / FALLBACK_DEN {
        // Almost everything is dirty before any kernel starts: a bulk-mutation batch.
        // Neither delta propagation nor a cone can beat the flat sweep here.
        return flat_relax(b, sc, seed_nodes, RetimeKind::FlatSeeds, 0);
    }

    // ---- seed-horizon estimate: shared input of both routing models ----------------
    // Count the nodes scheduled at or after the earliest seed — an O((P+L) log n)
    // upper-bound proxy for the work downstream of the seeds, computed once before any
    // kernel runs.  The delta model scales it by the observed affected-per-estimate
    // ratio ĝΔ, the cone model by the cone-per-estimate ratio ĝ.
    let observed_est = if big && b.all_placed() {
        let mut est = 0usize;
        for tl in &b.proc_timelines {
            est += tl.len() - tl.intervals().partition_point(|iv| iv.start < t_min);
        }
        for tl in &b.link_timelines {
            est += tl.len() - tl.intervals().partition_point(|iv| iv.start < t_min);
        }
        Some(est)
    } else {
        None
    };

    // ---- delta kernel: value-driven propagation (see `try_delta`) ------------------
    // Tried before any closure-based routing — but only when the measured model
    // predicts a small affected set (see `RetimeScaffold::delta_by_model`): one delta
    // evaluation costs ≈4× one level-batched flat-relaxation step, so past
    // ~sixth-of-the-graph cascades the flat sweep wins even though delta would
    // converge.
    // The eval budget bounds the downside of a wrong prediction.  Every pass feeds the
    // model exactly once — an attempted delta with its final affected set (or the
    // partial set at the bail point), a skipped delta with the `changed_nodes` count
    // of whatever kernel ran instead (the true affected size, so a wrong skip is
    // observed and self-corrects rather than locking in; see the closing feed below).
    let mut delta_evals = 0usize;
    let mut delta_fed = false;
    if let Some(est) = observed_est {
        if !sc.delta_by_model(est, total_nodes) {
            delta_fed = true;
            let budget = total_nodes * DELTA_EVAL_NUM / DELTA_EVAL_DEN;
            if let Some(stats) = try_delta(b, sc, budget, &mut delta_evals)? {
                sc.note_delta_observation(stats.cone_nodes, est);
                return Ok(stats);
            }
            // Bailed: record the partially discovered affected set, then reset the
            // scaffold and rebuild the seed state for the classic paths.
            sc.note_delta_observation(sc.nodes.len(), est);
            sc.begin_pass();
            for i in 0..b.dirty.len() {
                let s = b.dirty[i];
                if node_exists(b, s) {
                    add_to_cone(b, sc, s, None)?;
                }
            }
            for &t in extra_seeds {
                add_to_cone(b, sc, DirtyNode::Task(t), None)?;
            }
        }
    }

    // ---- measured cone-vs-flat crossover on the seed-horizon estimate --------------
    if let Some(est) = observed_est {
        if sc.flat_by_model(est, total_nodes) {
            let stats = flat_relax(b, sc, seed_nodes, RetimeKind::FlatModel, delta_evals)?;
            if !delta_fed {
                sc.note_delta_observation(stats.changed_nodes, est);
            }
            return Ok(stats);
        }
    }
    // Backstop for cones that outgrow their estimate: abandon discovery and go flat.
    // Only available when every task is placed (the flat pass needs the whole graph);
    // partial schedules always finish the cone, as before.
    let cone_cap = if big && b.all_placed() {
        total_nodes * FALLBACK_NUM / FALLBACK_DEN
    } else {
        usize::MAX
    };

    // ---- cone: successor closure of the seeds ------------------------------------
    let mut cursor = 0usize;
    while cursor < sc.nodes.len() {
        if sc.nodes.len() > cone_cap {
            let stats = flat_relax(b, sc, seed_nodes, RetimeKind::FlatCap, delta_evals)?;
            if !delta_fed {
                if let Some(est) = observed_est {
                    sc.note_delta_observation(stats.changed_nodes, est);
                }
            }
            return Ok(stats);
        }
        let u = cursor as u32;
        let node = sc.nodes[cursor];
        let pos = sc.tpos[cursor] as usize;
        match node {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].expect("cone tasks are placed");
                let next = b.proc_timelines[p.index()]
                    .intervals()
                    .get(pos + 1)
                    .map(|iv| iv.payload);
                if let Some(next) = next {
                    let v = add_to_cone(b, sc, DirtyNode::Task(next), Some(pos as u32 + 1))?;
                    sc.dep_edges.push((u, v));
                }
                for &eid in b.graph.out_edges(t) {
                    if b.routes[eid.index()].is_empty() {
                        let dst = b.graph.edge(eid).dst;
                        let dp =
                            b.assignment[dst.index()].ok_or(RecomputeError::UnplacedTask(dst))?;
                        if dp != p {
                            return Err(RecomputeError::MissingRoute(eid));
                        }
                        let v = add_to_cone(b, sc, DirtyNode::Task(dst), None)?;
                        sc.dep_edges.push((u, v));
                    } else {
                        let v = add_to_cone(b, sc, DirtyNode::Hop(eid, 0), None)?;
                        sc.dep_edges.push((u, v));
                    }
                }
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                let next = b.link_timelines[b.link_slot(hop.link, hop.from)]
                    .intervals()
                    .get(pos + 1)
                    .map(|iv| iv.payload);
                if let Some((ne, nk)) = next {
                    let v = add_to_cone(b, sc, DirtyNode::Hop(ne, nk), Some(pos as u32 + 1))?;
                    sc.dep_edges.push((u, v));
                }
                let v = if (k as usize) + 1 < b.routes[e.index()].len() {
                    add_to_cone(b, sc, DirtyNode::Hop(e, k + 1), None)?
                } else {
                    add_to_cone(b, sc, DirtyNode::Task(b.graph.edge(e).dst), None)?
                };
                sc.dep_edges.push((u, v));
            }
        }
        cursor += 1;
    }

    // From here on the cone tables (`nodes`, `tpos`, `dep_edges`, slot maps) are
    // read-only; split-borrow them around the mutable relaxation arenas.
    let RetimeScaffold {
        ref nodes,
        ref tpos,
        ref dep_edges,
        epoch,
        ref task_mark,
        ref hop_mark,
        ref mut start,
        ref mut finish,
        ref mut indeg,
        ref mut offsets,
        ref mut fill,
        ref mut csr,
        ref mut queue,
        ..
    } = *sc;
    let slot = |n: DirtyNode| slot_lookup(epoch, task_mark, hop_mark, n);
    let m = nodes.len();

    // ---- initial starts: fold in the (fixed) finishes of out-of-cone predecessors --
    for i in 0..m {
        let pos = tpos[i] as usize;
        let mut s = 0.0f64;
        match nodes[i] {
            DirtyNode::Task(t) => {
                let p = b.assignment[t.index()].expect("cone tasks are placed");
                if pos > 0 {
                    let prev = b.proc_timelines[p.index()].intervals()[pos - 1].payload;
                    if slot(DirtyNode::Task(prev)) == NONE {
                        s = s.max(b.task_finish[prev.index()]);
                    }
                }
                for &eid in b.graph.in_edges(t) {
                    let route_len = b.routes[eid.index()].len();
                    if route_len == 0 {
                        let src = b.graph.edge(eid).src;
                        let sp =
                            b.assignment[src.index()].ok_or(RecomputeError::UnplacedTask(src))?;
                        if sp != p {
                            return Err(RecomputeError::MissingRoute(eid));
                        }
                        if slot(DirtyNode::Task(src)) == NONE {
                            s = s.max(b.task_finish[src.index()]);
                        }
                    } else {
                        let k = (route_len - 1) as u32;
                        if slot(DirtyNode::Hop(eid, k)) == NONE {
                            s = s.max(b.routes[eid.index()][k as usize].finish);
                        }
                    }
                }
            }
            DirtyNode::Hop(e, k) => {
                let hop = b.routes[e.index()][k as usize];
                if pos > 0 {
                    let (pe, pk) = b.link_timelines[b.link_slot(hop.link, hop.from)].intervals()
                        [pos - 1]
                        .payload;
                    if slot(DirtyNode::Hop(pe, pk)) == NONE {
                        s = s.max(b.routes[pe.index()][pk as usize].finish);
                    }
                }
                if k == 0 {
                    let src = b.graph.edge(e).src;
                    if slot(DirtyNode::Task(src)) == NONE {
                        s = s.max(b.task_finish[src.index()]);
                    }
                } else if slot(DirtyNode::Hop(e, k - 1)) == NONE {
                    s = s.max(b.routes[e.index()][(k - 1) as usize].finish);
                }
            }
        }
        start.push(s);
    }

    // ---- Kahn relaxation restricted to the cone (CSR adjacency in the arenas) ------
    indeg.resize(m, 0);
    offsets.resize(m + 1, 0);
    for &(u, v) in dep_edges {
        indeg[v as usize] += 1;
        offsets[u as usize + 1] += 1;
    }
    for i in 0..m {
        offsets[i + 1] += offsets[i];
    }
    csr.resize(dep_edges.len(), 0);
    fill.extend_from_slice(offsets);
    for &(u, v) in dep_edges {
        let f = &mut fill[u as usize];
        csr[*f as usize] = v;
        *f += 1;
    }
    queue.extend((0..m as u32).filter(|&i| indeg[i as usize] == 0));
    finish.resize(m, 0.0);
    let mut processed = 0usize;
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        let f = start[u] + duration_of(b, nodes[u]);
        finish[u] = f;
        processed += 1;
        for &v in &csr[offsets[u] as usize..offsets[u + 1] as usize] {
            let v = v as usize;
            if f > start[v] {
                start[v] = f;
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push_back(v as u32);
            }
        }
    }
    if processed != m {
        return Err(RecomputeError::CyclicDecisions);
    }

    // ---- in-place write-back of changed nodes only (shared with the delta kernel) --
    let cone_edges = dep_edges.len();
    let changed = write_back_slots(b, nodes, tpos, start, finish);
    // Feed the crossover model: this completed cone pass is one (cone, estimate)
    // observation of how much of the seed horizon a real cone covers.  When the delta
    // model skipped the delta attempt, the write-back's changed count is this pass's
    // true affected size — feed it so the skip decision gets audited too.
    if let Some(est) = observed_est {
        sc.note_cone_observation(m, est);
        if !delta_fed {
            sc.note_delta_observation(changed, est);
        }
    }
    Ok(RetimeStats {
        seed_nodes,
        cone_nodes: m,
        cone_edges,
        changed_nodes: changed,
        fell_back: false,
        kind: RetimeKind::Cone,
        delta_evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MessageHop;
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, LinkId, ProcId};
    use bsa_taskgraph::{EdgeId, TaskGraph, TaskGraphBuilder};

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task("T0", 10.0);
        let t1 = b.add_task("T1", 20.0);
        let t2 = b.add_task("T2", 30.0);
        b.add_edge(t0, t1, 5.0).unwrap();
        b.add_edge(t1, t2, 5.0).unwrap();
        b.build().unwrap()
    }

    /// A chain of `n` tasks with no edges between non-consecutive tasks, all placed
    /// compactly on processor 0.
    fn placed_chain(n: usize) -> (TaskGraph, HeterogeneousSystem) {
        let mut gb = TaskGraphBuilder::new();
        let mut prev = gb.add_task("t0", 10.0);
        for i in 1..n {
            let t = gb.add_task(format!("t{i}"), 10.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(2).unwrap());
        (g, sys)
    }

    #[test]
    fn incremental_compacts_like_the_full_pass() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 100.0);
        b.place_task(TaskId(1), ProcId(0), 200.0);
        b.place_task(TaskId(2), ProcId(0), 300.0);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(b.same_schedule_state(&oracle));
        assert_eq!(stats.cone_nodes, 3);
        assert_eq!(stats.changed_nodes, 3);
        assert!(stats.seed_nodes >= 1 && stats.seed_nodes <= 3);
    }

    #[test]
    fn incremental_is_a_noop_on_a_compacted_schedule() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(0), 10.0);
        b.place_task(TaskId(2), ProcId(0), 30.0);
        b.recompute_times_incremental().unwrap();
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.cone_nodes, 0);
        assert_eq!(stats.changed_nodes, 0);
        // Seeding a task relaxes its cone but changes nothing.
        let stats = b.recompute_times_from(&[TaskId(0)]).unwrap();
        assert_eq!(stats.seed_nodes, 1);
        assert_eq!(stats.cone_nodes, 3);
        // Consecutive chain tasks are linked twice: processor order + local message.
        assert_eq!(stats.cone_edges, 4);
        assert_eq!(stats.changed_nodes, 0);
    }

    #[test]
    fn incremental_handles_routes_and_link_order() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 50.0);
        b.place_task(TaskId(1), ProcId(1), 80.0);
        b.place_task(TaskId(2), ProcId(1), 150.0);
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: 60.0,
                finish: 65.0,
            }],
        );
        let mut oracle = b.clone();
        b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(b.same_schedule_state(&oracle));
        assert_eq!(b.start_of(TaskId(1)), 15.0);
        assert_eq!(b.route(EdgeId(0))[0].start, 10.0);
    }

    #[test]
    fn incremental_detects_cycles_without_mutating() {
        use bsa_taskgraph::TaskGraphBuilder;
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task("A", 10.0);
        let c = gb.add_task("C", 10.0);
        gb.add_edge(a, c, 1.0).unwrap();
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(c, ProcId(0), 0.0);
        b.place_task(a, ProcId(0), 10.0);
        let snapshot = b.clone();
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::CyclicDecisions)
        );
        assert!(b.same_schedule_state(&snapshot));
    }

    #[test]
    fn incremental_reports_missing_routes_in_the_cone() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(1), 20.0);
        b.place_task(TaskId(2), ProcId(1), 40.0);
        assert_eq!(
            b.recompute_times_incremental(),
            Err(RecomputeError::MissingRoute(EdgeId(0)))
        );
    }

    // ---- seed-count fallback boundary (FALLBACK_NUM/FALLBACK_DEN, FALLBACK_FLOOR) ---

    #[test]
    fn below_the_node_floor_the_fallback_never_fires() {
        // 40 nodes < FALLBACK_FLOOR: even 100%-dirty seeds stay on the cone path and
        // still match the oracle exactly.
        let (g, sys) = placed_chain(40);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let mut cursor = 100.0;
        for t in g.task_ids() {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t) + 7.0;
        }
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(!stats.fell_back);
        assert_eq!(stats.cone_nodes, 40);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn seed_counts_on_both_sides_of_the_fallback_threshold_match_the_oracle() {
        // 80 placed tasks, no routes: 80 decision-graph nodes, seed threshold at
        // seeds > 80 * 3/4 = 60.  61 seeds trip the seed-count route before any other
        // check; 60 stay under it and land in the delta kernel, which converges well
        // inside its budget (the chain is already settled, so no value moves).  Either
        // path must be invisible in the results: both sides bit-identical to the full
        // relaxation.
        let (g, sys) = placed_chain(80);
        assert_eq!(g.num_tasks() * FALLBACK_NUM / FALLBACK_DEN, 60);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let mut cursor = 0.0;
        for t in g.task_ids() {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t);
        }
        b.recompute_times_incremental().unwrap();

        let at_threshold: Vec<TaskId> = g.task_ids().take(60).collect();
        let mut oracle = b.clone();
        let stats = b.recompute_times_from(&at_threshold).unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.seed_nodes, 60);
        assert_eq!(
            stats.kind,
            RetimeKind::Delta,
            "60 early seeds stay under the seed-count route and settle in the delta kernel"
        );
        assert!(!stats.fell_back);
        assert!(b.same_schedule_state(&oracle));

        let over_threshold: Vec<TaskId> = g.task_ids().take(61).collect();
        let mut oracle = b.clone();
        let stats = b.recompute_times_from(&over_threshold).unwrap();
        oracle.recompute_times().unwrap();
        assert!(stats.fell_back, "seeds > threshold must flat-route");
        assert_eq!(stats.kind, RetimeKind::FlatSeeds);
        assert_eq!(stats.seed_nodes, 61);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn late_seeds_above_the_floor_stay_on_the_cone_path() {
        // Same 80-node schedule, but the seeds sit in the last five slots: the horizon
        // estimate sees a five-node suffix and keeps the pass cone-local.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let mut cursor = 0.0;
        for t in g.task_ids() {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t);
        }
        b.recompute_times_incremental().unwrap();
        let late: Vec<TaskId> = g.task_ids().skip(75).collect();
        let mut oracle = b.clone();
        let stats = b.recompute_times_from(&late).unwrap();
        oracle.recompute_times().unwrap();
        assert!(!stats.fell_back, "a five-node suffix must stay cone-local");
        assert_eq!(stats.seed_nodes, 5);
        assert_eq!(stats.cone_nodes, 5);
        assert!(b.same_schedule_state(&oracle));
    }

    // ---- flat-path error contract ---------------------------------------------------

    /// An 80-task chain plus a closing edge `t0 → t79` (the highest edge id).
    fn flat_error_graph() -> (TaskGraph, HeterogeneousSystem) {
        let mut gb = TaskGraphBuilder::new();
        let ids: Vec<TaskId> = (0..80)
            .map(|i| gb.add_task(format!("t{i}"), 10.0))
            .collect();
        for w in ids.windows(2) {
            gb.add_edge(w[0], w[1], 1.0).unwrap();
        }
        gb.add_edge(ids[0], ids[79], 1.0).unwrap();
        let g = gb.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(2).unwrap());
        (g, sys)
    }

    /// Every task freshly placed — 80 dirty seeds over 80 nodes, so the pass is routed
    /// flat by the seed count.  Tasks in `on_p1` go to P1 without routes, the rest to
    /// P0; `cycle` books tasks 5 and 6 in reverse order, against their local message.
    fn freshly_placed<'a>(
        g: &'a TaskGraph,
        sys: &'a HeterogeneousSystem,
        on_p1: &[u32],
        cycle: bool,
    ) -> ScheduleBuilder<'a> {
        let mut b = ScheduleBuilder::new(g, sys).unwrap();
        for i in 0..80u32 {
            let p = ProcId(u32::from(on_p1.contains(&i)));
            let slot = match i {
                5 if cycle => 6,
                6 if cycle => 5,
                _ => i,
            };
            b.place_task(TaskId(i), p, 3.0 + 12.0 * f64::from(slot));
        }
        b
    }

    /// The failing flat pass reports exactly the oracle's error and leaves the builder
    /// (schedule state and dirty list) as it was.
    fn assert_flat_error(mut b: ScheduleBuilder<'_>, expected: RecomputeError) {
        let snapshot = b.clone();
        let mut oracle = b.clone();
        let got = b.recompute_times_incremental();
        assert_eq!(got, Err(expected));
        assert_eq!(got.map(|_| ()), oracle.recompute_times());
        assert!(b.same_schedule_state(&snapshot));
        assert_eq!(b.dirty, snapshot.dirty);
    }

    #[test]
    fn flat_error_fixture_is_routed_flat() {
        let (g, sys) = flat_error_graph();
        let mut b = freshly_placed(&g, &sys, &[], false);
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert_eq!(stats.kind, RetimeKind::FlatSeeds);
        // 79 processor-order edges plus one per local message.
        assert_eq!(stats.cone_edges, 79 + 80);
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn flat_pass_reports_the_first_unrouted_edge() {
        // Unrouted edges 39, 40, 78 and 79; the sweep meets edge 79 first, at `t0`.
        let (g, sys) = flat_error_graph();
        let b = freshly_placed(&g, &sys, &[40, 79], false);
        assert_flat_error(b, RecomputeError::MissingRoute(EdgeId(39)));
    }

    #[test]
    fn flat_pass_detects_cycles_without_mutating() {
        let (g, sys) = flat_error_graph();
        let b = freshly_placed(&g, &sys, &[], true);
        assert_flat_error(b, RecomputeError::CyclicDecisions);
    }

    #[test]
    fn flat_pass_prefers_the_missing_route_over_a_cycle() {
        // The cycle at tasks 5/6 stalls the sweep before it reaches unrouted edge 39.
        let (g, sys) = flat_error_graph();
        let b = freshly_placed(&g, &sys, &[40], true);
        assert_flat_error(b, RecomputeError::MissingRoute(EdgeId(39)));
    }

    #[test]
    fn bulk_placement_above_the_floor_falls_back_and_matches_the_oracle() {
        // Freshly placing every task marks them all dirty: 80/80 seeds > 3/4 — the
        // classic bulk-mutation batch the fallback exists for.
        let (g, sys) = placed_chain(80);
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let mut cursor = 50.0;
        for t in g.task_ids() {
            b.place_task(t, ProcId(0), cursor);
            cursor = b.finish_of(t) + 3.0;
        }
        let mut oracle = b.clone();
        let stats = b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(stats.fell_back);
        assert!(b.same_schedule_state(&oracle));
        // The fallback cleared the dirty list like a normal pass would.
        let stats = b.recompute_times_incremental().unwrap();
        assert_eq!(stats.cone_nodes, 0);
    }
}
