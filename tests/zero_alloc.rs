//! Steady-state allocation audit of the incremental re-timing kernel and of
//! neighbour pricing.
//!
//! The dirty-cone pass runs on persistent scaffolding (epoch-stamped slot maps,
//! `clear()`-reused arenas, watermark-based undo stacks — DESIGN.md §7.5), so once a
//! run's arenas reach their high-water capacity, `recompute_times_incremental` must not
//! touch the heap at all.  This test pins that down with a counting global allocator:
//! after a warm-up storm, every further pass — inside and outside transactions, with
//! task and hop cones — must report **zero** allocations and zero frees.  The same
//! holds for BSA's read-only neighbour pricing, whose link overlay reuses its scratch
//! (DESIGN.md §7.1).
//!
//! The file deliberately contains a single `#[test]`: the counter is process-global
//! (gated to the test thread via a thread-local flag), and a sibling test opting into
//! counting on another thread would pollute the window.

use bsa::core::bsa::NeighborPricer;
use bsa::core::BsaConfig;
use bsa::network::builders::ring;
use bsa::network::{CommModel, HeterogeneousSystem, LinkId, ProcId, RoutePolicy};
use bsa::schedule::router::route_message;
use bsa::schedule::schedule::MessageHop;
use bsa::schedule::{LinkOverlay, RetimeKind, ScheduleBuilder};
use bsa::taskgraph::{EdgeId, TaskGraphBuilder, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point; forwards to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Restricts counting to the test thread.  The libtest harness's main thread
    /// blocks on its completion channel concurrently with the test body and lazily
    /// allocates its parking context at an unpredictable instant — without this
    /// filter those one-time harness allocations land inside an audit window
    /// nondeterministically.  `const`-initialized, so reading it never allocates.
    static COUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn on_counted_thread() -> bool {
    COUNTED.try_with(std::cell::Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on_counted_thread() {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn heap_events() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    )
}

#[test]
fn steady_state_incremental_retiming_does_not_allocate() {
    COUNTED.with(|c| c.set(true));
    // 100 tasks: two independent 49-task chains pinned to P0/P1 plus a routed producer/
    // consumer pair, so cones cover processor order, local messages, and link hops.
    // Big enough that the fallback floor (64 nodes) is irrelevant and seed counts stay
    // far below the fallback threshold.
    let mut gb = TaskGraphBuilder::new();
    let producer = gb.add_task("producer", 8.0);
    let consumer = gb.add_task("consumer", 8.0);
    gb.add_edge(producer, consumer, 4.0).unwrap();
    let mut chain_heads = Vec::new();
    for c in 0..2 {
        let mut prev = gb.add_task(format!("c{c}_0"), 10.0);
        chain_heads.push(prev);
        for i in 1..49 {
            let t = gb.add_task(format!("c{c}_{i}"), 10.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
    }
    let graph = gb.build().unwrap();
    let system = HeterogeneousSystem::homogeneous(&graph, ring(2).unwrap());
    let mut b = ScheduleBuilder::new(&graph, &system).unwrap();

    // Producer on P0, consumer on P1 over link 0; chain c on processor c.
    b.place_task(producer, ProcId(0), 0.0);
    b.place_task(consumer, ProcId(1), 20.0);
    b.set_route(
        EdgeId(0),
        vec![MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start: 8.0,
            finish: 12.0,
        }],
    );
    let mut starts = [100.0, 100.0];
    for t in graph.task_ids().skip(2) {
        let p = usize::from(t >= TaskId(51));
        b.place_task(t, ProcId(p as u32), starts[p]);
        starts[p] = b.finish_of(t);
    }
    b.recompute_times().unwrap();

    // One "migration-shaped" iteration: bounce the *last* task of chain 0 (no
    // successors, so the reorder stays acyclic) to a far-future slot inside a
    // transaction, re-time (a one-node delta), commit; then re-book the producer's
    // message and re-time outside any transaction (a hop→consumer delta cascade).
    // Same shape every time, so capacity high-water marks stop moving after the
    // warm-up, and the delta kernel gets audited from both contexts.
    let victim = TaskId(50);
    let iteration = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        let txn = b.begin_txn();
        let p = b.proc_of(victim).unwrap();
        b.unplace_task(victim);
        let exec = b.exec_cost(victim, p);
        let start = b.earliest_proc_slot(p, 1e7, exec);
        b.place_task(victim, p, start);
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert!(stats.cone_nodes > 0, "the storm must exercise real cones");
            assert!(
                !stats.fell_back,
                "a one-task suffix delta must stay cone-local"
            );
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "in-txn incremental re-timing allocated in steady state"
            );
        }
        b.commit(txn);

        let hop_start = b.link_timeline(LinkId(0)).last_finish() + 50.0;
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: hop_start,
                finish: hop_start + 4.0,
            }],
        );
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert_eq!(
                stats.kind,
                RetimeKind::Delta,
                "a re-booked message is a short cascade: the delta kernel must absorb it"
            );
            assert!(!stats.fell_back, "delta passes never count as fallbacks");
            assert!(
                stats.cone_nodes >= 2,
                "delta pass touches at least the hop and the consumer"
            );
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "delta-routed incremental re-timing allocated in steady state"
            );
        }
    };

    for _ in 0..5 {
        iteration(&mut b, false);
    }
    assert!(b.scaffold_matches_rebuild());
    for _ in 0..10 {
        iteration(&mut b, true);
    }
    // The release-build observable counter agrees: no arena grew after warm-up.
    let grown_before = b.scaffold_realloc_events();
    iteration(&mut b, true);
    assert_eq!(b.scaffold_realloc_events(), grown_before);

    // Steady-state *resolve*: the warm-start repair kernel is exactly
    // evict → re-place → re-book → `recompute_times_from(frontier)` on a persistent
    // builder, so repeated small deltas must reuse the same scaffolding.  The audit
    // window again brackets only the re-timing pass — eviction and booking go through
    // the undo log and route vectors, whose `vec![...]` literals allocate by design.
    let resolve_shaped = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        let txn = b.begin_txn();
        let p = b.proc_of(consumer).unwrap();
        b.evict_task(consumer);
        let exec = b.exec_cost(consumer, p);
        let ready = b.link_timeline(LinkId(0)).last_finish() + 25.0;
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: ready - 4.0,
                finish: ready,
            }],
        );
        let start = b.earliest_proc_slot(p, ready, exec);
        b.place_task(consumer, p, start);
        let before = heap_events();
        let stats = b.recompute_times_from(&[consumer]).unwrap();
        let after = heap_events();
        if audit {
            assert_eq!(
                stats.kind,
                RetimeKind::Delta,
                "a consumer-only frontier is delta-sized"
            );
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "steady-state resolve re-timing allocated"
            );
        }
        b.commit(txn);
    };
    for _ in 0..5 {
        resolve_shaped(&mut b, false);
    }
    let grown_before = b.scaffold_realloc_events();
    for _ in 0..10 {
        resolve_shaped(&mut b, true);
    }
    assert_eq!(
        b.scaffold_realloc_events(),
        grown_before,
        "resolve-shaped deltas grew an arena after warm-up"
    );
    assert!(b.scaffold_matches_rebuild());

    // Steady-state *flat* pass: bouncing both chains in place marks nearly every node
    // dirty, so the seed-saturation check routes the pass straight to the flat kernel
    // (level-batched relaxation on scaffold-resident frontier arenas).  The audit
    // window again brackets only the re-timing call — the bounce itself goes through
    // the undo log, which allocates by design.
    let bulk_shaped = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        let txn = b.begin_txn();
        for t in graph.task_ids().skip(2) {
            let p = b.proc_of(t).unwrap();
            let start = b.start_of(t);
            b.unplace_task(t);
            b.place_task(t, p, start);
        }
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert_eq!(
                stats.kind,
                RetimeKind::FlatSeeds,
                "a seed-saturated pass must flat-route"
            );
            assert!(stats.fell_back, "flat sweeps report as fallbacks");
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "flat-routed incremental re-timing allocated in steady state"
            );
        }
        b.commit(txn);
    };
    for _ in 0..5 {
        bulk_shaped(&mut b, false);
    }
    let grown_before = b.scaffold_realloc_events();
    for _ in 0..10 {
        bulk_shaped(&mut b, true);
    }
    assert_eq!(
        b.scaffold_realloc_events(),
        grown_before,
        "bulk-shaped flat passes grew an arena after warm-up"
    );
    assert!(b.scaffold_matches_rebuild());

    // Steady-state *pricing*: BSA prices a migration read-only, booking the task's
    // incoming messages in its pricer's link overlay.  On a 4-ring, consumer `x` sits on
    // the pivot P0 and is fed by producers on P0, P1 (one hop) and P2 (two hops
    // through P1).  Pricing `x` onto P1 or P3 frees a route that becomes local, books
    // fresh and extended routes through the pivot, weighs direct links (P2 -- P1,
    // P2 -- P3) and, under `MinTransferTime`, books and truncates a full reroute from
    // P1 to P3.
    // After warm-up the overlay scratch is reused, so pricing every neighbour, under
    // either policy, must stay heap-silent.
    let mut gb = TaskGraphBuilder::new();
    let producers: Vec<TaskId> = (0..3).map(|i| gb.add_task(format!("p{i}"), 10.0)).collect();
    let x = gb.add_task("x", 10.0);
    for &p in &producers {
        gb.add_edge(p, x, 4.0).unwrap();
    }
    let graph = gb.build().unwrap();
    let system = HeterogeneousSystem::homogeneous(&graph, ring(4).unwrap());
    let link = |a: u32, c: u32| system.topology.link_between(ProcId(a), ProcId(c)).unwrap();
    let hop = |a: u32, c: u32, start: f64| MessageHop {
        link: link(a, c),
        from: ProcId(a),
        to: ProcId(c),
        start,
        finish: start + 4.0,
    };
    let mut warm = ScheduleBuilder::new(&graph, &system).unwrap();
    for (i, &p) in producers.iter().enumerate() {
        warm.place_task(p, ProcId(i as u32), 0.0);
    }
    warm.set_route(EdgeId(1), vec![hop(1, 0, 10.0)]);
    warm.set_route(EdgeId(2), vec![hop(2, 1, 10.0), hop(1, 0, 14.0)]);
    warm.place_task(x, ProcId(0), 18.0);

    let cfg = BsaConfig::default();
    let cost_aware = system.comm_model(RoutePolicy::MinTransferTime);
    let mut pricer = NeighborPricer::new();
    let mut price_all = |comm: Option<&CommModel>| {
        system
            .topology
            .neighbors(ProcId(0))
            .iter()
            .map(|&(py, _)| pricer.estimate(&warm, x, ProcId(0), py, &cfg, comm))
            .fold(0.0f64, f64::max)
    };
    for _ in 0..3 {
        price_all(None);
        price_all(Some(&cost_aware));
    }
    for _ in 0..10 {
        for comm in [None, Some(&cost_aware)] {
            let before = heap_events();
            let finish = price_all(comm);
            let after = heap_events();
            assert!(finish > 18.0);
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "read-only neighbour pricing allocated in steady state"
            );
        }
    }

    // `route_message` books through the same kind of overlay; its only heap traffic
    // is the owned route it returns.
    let comm = system.comm_model(RoutePolicy::default());
    let mut overlay = LinkOverlay::new();
    for _ in 0..3 {
        route_message(
            &warm,
            &mut overlay,
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(2),
            8.0,
        );
    }
    for _ in 0..10 {
        let before = heap_events();
        let (hops, _) = route_message(
            &warm,
            &mut overlay,
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(2),
            8.0,
        );
        assert_eq!(hops.len(), 2);
        drop(hops);
        let after = heap_events();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (1, 1),
            "route_message allocated beyond its returned route"
        );
    }
    assert!(overlay.is_empty());
}
