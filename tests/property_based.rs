//! Property-based tests (proptest) over the core data structures and invariants:
//!
//! * graph levels: `t_level + b_level ≤ CP length` with equality exactly on CP tasks,
//!   b-levels decrease along edges;
//! * serialization always yields a valid linearization with CP tasks in path order;
//! * every scheduler yields a schedule that passes full validation on arbitrary layered
//!   DAGs and ring/clique topologies;
//! * the schedule-length metric equals the maximum finish time and is never smaller than
//!   the cheapest critical path under the actual costs.

use bsa::prelude::*;
use bsa::schedule::validate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: parameters of a random layered DAG plus an instance seed.
fn dag_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (
        10usize..60,
        prop_oneof![Just(0.1), Just(1.0), Just(10.0)],
        any::<u64>(),
    )
}

fn build_graph(n: usize, granularity: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    bsa::workloads::random_dag::paper_random_graph(n, granularity, &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn levels_invariants_hold((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let levels = GraphLevels::nominal(&graph);
        let cp = levels.critical_path_length();
        for t in graph.task_ids() {
            let sum = levels.t_level(t) + levels.b_level(t);
            prop_assert!(sum <= cp + 1e-6 * cp.max(1.0));
            prop_assert!(levels.b_level(t) >= graph.task(t).nominal_cost - 1e-9);
            prop_assert!(levels.static_level(t) <= levels.b_level(t) + 1e-9);
        }
        for e in graph.edges() {
            prop_assert!(
                levels.b_level(e.src) >= levels.b_level(e.dst) + graph.task(e.src).nominal_cost - 1e-6,
                "b-level must decrease along edges"
            );
            prop_assert!(levels.t_level(e.dst) >= levels.t_level(e.src) + graph.task(e.src).nominal_cost - 1e-6);
        }
        let path = levels.critical_path(&graph);
        prop_assert!(!path.tasks.is_empty());
        for t in &path.tasks {
            prop_assert!(levels.on_critical_path(*t));
        }
    }

    #[test]
    fn serialization_is_a_valid_linearization_for_arbitrary_costs(
        (n, gran, seed) in dag_params(),
        cost_scale in 1.0f64..50.0,
    ) {
        let graph = build_graph(n, gran, seed);
        let costs: Vec<f64> = graph.tasks().map(|t| t.nominal_cost * cost_scale).collect();
        let s = bsa::core::serialize(&graph, &costs);
        prop_assert!(bsa::taskgraph::TopologicalOrder::is_valid_linearization(&graph, &s.order));
        // CP tasks appear in path order.
        let mut last = 0usize;
        for t in &s.critical_path {
            let pos = s.order.iter().position(|x| x == t).unwrap();
            prop_assert!(pos >= last);
            last = pos;
        }
    }

    #[test]
    fn bsa_and_dls_schedules_are_always_valid((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let kind = if seed % 2 == 0 { TopologyKind::Ring } else { TopologyKind::Clique };
        let topology = kind.build(6, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        for solver in [&Bsa::default() as &dyn Solver, &Dls::new()] {
            let schedule = solver.solve_unbounded(&problem).unwrap().schedule;
            let errors = validate::validate(&schedule, &graph, &system);
            prop_assert!(errors.is_empty(), "{}: {:?}", solver.name(), &errors[..errors.len().min(3)]);
            // The schedule length is the max finish time.
            let max_finish = graph
                .task_ids()
                .map(|t| schedule.finish_of(t))
                .fold(0.0f64, f64::max);
            prop_assert!((schedule.schedule_length() - max_finish).abs() < 1e-9);
            // It can never beat the cheapest possible critical path (every CP task at its
            // fastest processor, zero communication).
            let cheapest_costs: Vec<f64> = graph
                .task_ids()
                .map(|t| {
                    system
                        .topology
                        .proc_ids()
                        .map(|p| system.exec_cost(t, p))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let lower_bound = GraphLevels::with_costs(&graph, &cheapest_costs, 0.0).critical_path_length();
            prop_assert!(schedule.schedule_length() >= lower_bound - 1e-6);
        }
    }

    #[test]
    fn timeline_gap_search_never_overlaps(
        ops in prop::collection::vec((0.0f64..500.0, 0.1f64..40.0), 1..80)
    ) {
        let mut timeline: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        for (i, (ready, duration)) in ops.iter().enumerate() {
            let start = timeline.earliest_gap(*ready, *duration);
            prop_assert!(start >= *ready - 1e-9);
            timeline.insert(start, *duration, i as u32);
            prop_assert!(timeline.is_consistent());
        }
        prop_assert_eq!(timeline.len(), ops.len());
    }

    #[test]
    fn granularity_rescaling_is_exact((n, _gran, seed) in dag_params(), target in 0.05f64..20.0) {
        let graph = build_graph(n, 1.0, seed);
        if graph.num_edges() == 0 {
            return Ok(());
        }
        let scaled = apply_granularity(&graph, target);
        let stats = GraphStats::compute(&scaled);
        prop_assert!((stats.granularity - target).abs() / target < 1e-9);
        prop_assert_eq!(scaled.num_edges(), graph.num_edges());
    }
}

// ---------------------------------------------------------------------------------
// Incremental scheduling kernel: dirty-cone re-timing vs the full Kahn oracle, and
// transaction rollback byte-equality.  See docs/DESIGN.md §7.
// ---------------------------------------------------------------------------------

use bsa::baselines::message_router::{commit_route, route_message};
use bsa::schedule::{LinkOverlay, ScheduleBuilder};
use rand::Rng;

/// Builds a valid partial schedule by placing every task in topological order on a
/// seed-derived processor, routing incoming messages over the shortest-path table.
fn build_routed_schedule<'a>(
    graph: &'a TaskGraph,
    system: &'a HeterogeneousSystem,
    table: &CommModel,
    seed: u64,
) -> ScheduleBuilder<'a> {
    let mut builder = ScheduleBuilder::new(graph, system).unwrap();
    let m = system.num_processors();
    let topo = bsa::taskgraph::TopologicalOrder::compute(graph);
    for (i, t) in topo.iter().enumerate() {
        let p = ProcId(((seed as usize + i * 7) % m) as u32);
        let mut da = 0.0f64;
        for &eid in graph.in_edges(t) {
            let e = graph.edge(eid);
            let sp = builder.proc_of(e.src).unwrap();
            let ready = builder.finish_of(e.src);
            let (hops, arrival) =
                route_message(&builder, &mut LinkOverlay::new(), table, eid, sp, p, ready);
            commit_route(&mut builder, eid, hops);
            da = da.max(arrival);
        }
        let exec = builder.exec_cost(t, p);
        let start = builder.earliest_proc_slot(p, da, exec);
        builder.place_task(t, p, start);
    }
    builder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any random sequence of migrations (a full BSA run *is* one), the
    /// incremental dirty-cone kernel produces timings identical — bit for bit — to the
    /// full Kahn relaxation oracle.
    #[test]
    fn incremental_retiming_matches_the_full_kahn_oracle((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x17C4);
        let kind = if seed % 2 == 0 { TopologyKind::Hypercube } else { TopologyKind::Ring };
        let topology = kind.build(8, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&graph, &system).unwrap();
        let incremental = Bsa::default().solve_unbounded(&problem).unwrap().schedule;
        let oracle = Bsa::new(BsaConfig::full_retiming()).solve_unbounded(&problem).unwrap().schedule;
        prop_assert_eq!(incremental.schedule_length(), oracle.schedule_length());
        for t in graph.task_ids() {
            prop_assert_eq!(incremental.proc_of(t), oracle.proc_of(t));
            prop_assert_eq!(incremental.start_of(t), oracle.start_of(t));
            prop_assert_eq!(incremental.finish_of(t), oracle.finish_of(t));
        }
    }

    /// Rolling back a transaction restores the builder to its exact pre-transaction
    /// state after an arbitrary storm of placements, un-placements, re-routings and
    /// re-timing passes.
    #[test]
    fn txn_rollback_restores_the_builder_byte_for_byte((n, gran, seed) in dag_params()) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
        let topology = TopologyKind::Ring.build(5, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let table = system.comm_model(RoutePolicy::ShortestHop);
        let mut builder = build_routed_schedule(&graph, &system, &table, seed);
        let reference = builder.clone();

        let txn = builder.begin_txn();
        for _ in 0..8 {
            match rng.gen_range(0..4) {
                0 => {
                    // Move a task to the front-most free slot of its own processor.
                    let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                    let p = builder.proc_of(t).unwrap();
                    builder.unplace_task(t);
                    let exec = builder.exec_cost(t, p);
                    let start = builder.earliest_proc_slot(p, 0.0, exec);
                    builder.place_task(t, p, start);
                }
                1 => {
                    // Drop the route of a random routed edge.
                    let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                    builder.clear_route(eid);
                }
                2 => {
                    // Re-route a random crossing edge from scratch.
                    let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                    let e = graph.edge(eid);
                    let (sp, dp) = (builder.proc_of(e.src).unwrap(), builder.proc_of(e.dst).unwrap());
                    if sp != dp {
                        let ready = builder.finish_of(e.src);
                        let (hops, _) = route_message(&builder, &mut LinkOverlay::new(), &table, eid, sp, dp, ready);
                        commit_route(&mut builder, eid, hops);
                    }
                }
                _ => {
                    // Re-time whatever is dirty; failures (missing route after a clear,
                    // cyclic order after a move) must leave the state untouched.
                    let _ = builder.recompute_times_incremental();
                }
            }
        }
        builder.rollback(txn);
        prop_assert!(builder.same_schedule_state(&reference));

        // The restored builder is live, not wreckage: a full re-timing still works on a
        // fully-routed clone once every crossing edge is routed.
        prop_assert!(builder.graph().num_tasks() == graph.num_tasks());
    }

    /// After a random mutation storm with interleaved transactions — commits, rollbacks,
    /// nested speculation, successful and failed re-timings — the incrementally
    /// maintained `RetimeScaffold` (per-edge route-length mirror, total-hop count, slot
    /// map sizing) is byte-equal to one rebuilt from scratch off the surviving routes.
    #[test]
    fn retime_scaffold_matches_a_rebuild_after_mutation_storms(
        (n, gran, seed) in dag_params(),
    ) {
        let graph = build_graph(n, gran, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CAF_F01D);
        let topology = TopologyKind::Ring.build(5, &mut rng).unwrap();
        let system = HeterogeneousSystem::generate(
            &graph,
            topology,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let table = system.comm_model(RoutePolicy::ShortestHop);
        let mut builder = build_routed_schedule(&graph, &system, &table, seed);
        prop_assert!(builder.scaffold_matches_rebuild());

        for round in 0..4 {
            let txn = builder.begin_txn();
            for _ in 0..6 {
                match rng.gen_range(0..4) {
                    0 => {
                        let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                        let p = builder.proc_of(t).unwrap();
                        builder.unplace_task(t);
                        let exec = builder.exec_cost(t, p);
                        let start = builder.earliest_proc_slot(p, 0.0, exec);
                        builder.place_task(t, p, start);
                    }
                    1 => {
                        let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                        builder.clear_route(eid);
                    }
                    2 => {
                        let eid = EdgeId(rng.gen_range(0..graph.num_edges()) as u32);
                        let e = graph.edge(eid);
                        let (sp, dp) =
                            (builder.proc_of(e.src).unwrap(), builder.proc_of(e.dst).unwrap());
                        if sp != dp {
                            let ready = builder.finish_of(e.src);
                            let (hops, _) =
                                route_message(&builder, &mut LinkOverlay::new(), &table, eid, sp, dp, ready);
                            commit_route(&mut builder, eid, hops);
                        }
                    }
                    _ => {
                        let _ = builder.recompute_times_incremental();
                    }
                }
            }
            // Alternate commit / rollback; the mirror must match the rebuild either way.
            if round % 2 == 0 {
                builder.rollback(txn);
            } else {
                builder.commit(txn);
            }
            prop_assert!(
                builder.scaffold_matches_rebuild(),
                "scaffold diverged from rebuild after round {round}"
            );
        }
    }

    /// Every routing policy returns contiguous walks with the right endpoints on
    /// random topologies, and `MinTransferTime` never pays more than `ShortestHop`
    /// under the same link multipliers.
    #[test]
    fn routing_policies_yield_contiguous_walks_and_cost_dominance(
        shape in 0usize..3,
        m in 6usize..20,
        factor_seed in 0u64..1 << 48,
    ) {
        let mut rng = StdRng::seed_from_u64(factor_seed ^ 0xC0FFEE);
        let topology = match shape {
            0 => bsa::network::builders::random_connected(m, 2, 6, &mut rng).unwrap(),
            1 => bsa::network::builders::bounded_degree_random(m, 4, m, &mut rng).unwrap(),
            _ => bsa::network::builders::torus2d(3, (m / 3).max(3)).unwrap(),
        };
        let factors: Vec<f64> = (0..topology.num_links())
            .map(|_| rng.gen_range(1.0..=200.0))
            .collect();
        let costs = CommCostModel::from_factors(factors);
        let tables: Vec<_> = RoutePolicy::ALL
            .iter()
            .map(|&p| bsa::network::routing::RoutingTable::build(&topology, &costs, p))
            .collect();
        for table in &tables {
            for src in topology.proc_ids() {
                for dst in topology.proc_ids() {
                    let links = table.route(src, dst).unwrap();
                    // Contiguous walk: consecutive links share exactly the processor
                    // the previous hop arrived at; endpoints are (src, dst).
                    let mut at = src;
                    let mut cost = 0.0;
                    for &l in links {
                        let next = topology.link(l).other_end(at);
                        prop_assert!(next.is_some(), "link {l} not adjacent to {at}");
                        at = next.unwrap();
                        cost += costs.factor(l);
                    }
                    prop_assert_eq!(at, dst, "walk must end at the destination");
                    prop_assert_eq!(links.len(), table.distance(src, dst));
                    prop_assert!((cost - table.route_cost(src, dst)).abs() <= 1e-9 * cost.max(1.0));
                    if src == dst {
                        prop_assert!(links.is_empty());
                    }
                }
            }
        }
        // Cost dominance: the Dijkstra table is optimal in route cost.
        let (sh, mt) = (&tables[0], &tables[1]);
        for src in topology.proc_ids() {
            for dst in topology.proc_ids() {
                prop_assert!(
                    mt.route_cost(src, dst) <= sh.route_cost(src, dst) + 1e-9,
                    "min-transfer must not cost more than shortest-hop"
                );
                // And never uses fewer hops than the hop-optimal table.
                prop_assert!(mt.distance(src, dst) >= sh.distance(src, dst));
            }
        }
    }

    /// Whatever kernel the adaptive routing picks — cone, delta, or one of the flat
    /// sweeps — the committed timings must be byte-identical to the full-relaxation
    /// oracle.  `frac` sweeps the dirty-seed count from a few nodes to the whole
    /// schedule, straddling the delta eval budget, the seed-saturation threshold and
    /// the crossover model, so each routing decision is exercised across cases.  Both
    /// link modes run — full duplex gives every link one timeline per direction — on
    /// heterogeneous links, so a hop timed on the wrong link shows.
    #[test]
    fn every_retime_kernel_is_byte_identical_to_the_oracle(
        n in 64usize..110,
        gran in prop_oneof![Just(0.1), Just(1.0), Just(10.0)],
        seed in any::<u64>(),
        frac in 0.02f64..1.0,
    ) {
        let graph = build_graph(n, gran, seed);
        for mode in [LinkMode::HalfDuplex, LinkMode::FullDuplex] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
            let topology = TopologyKind::Ring.build(4, &mut rng).unwrap().with_link_mode(mode);
            let system = HeterogeneousSystem::generate(
                &graph,
                topology,
                HeterogeneityRange::DEFAULT,
                HeterogeneityRange::DEFAULT,
                &mut rng,
            );
            let table = system.comm_model(RoutePolicy::ShortestHop);
            let mut builder = build_routed_schedule(&graph, &system, &table, seed);
            builder.recompute_times().unwrap();

            // Dirty ~frac·n tasks by re-placing each at the front-most free slot of its
            // own processor — real time changes, not no-op bounces.  A move that orders
            // a task before one of its own ancestors is rolled back, so the kernels'
            // results get compared; every fourth case keeps such moves, so both kernels
            // must also reject the resulting cycle alike.
            let keep_cycles = seed % 4 == 0;
            let bounces = ((n as f64 * frac).ceil() as usize).max(1);
            for _ in 0..bounces {
                let t = TaskId(rng.gen_range(0..graph.num_tasks()) as u32);
                let p = builder.proc_of(t).unwrap();
                let txn = builder.begin_txn();
                builder.unplace_task(t);
                let exec = builder.exec_cost(t, p);
                let start = builder.earliest_proc_slot(p, 0.0, exec);
                builder.place_task(t, p, start);
                if keep_cycles || builder.clone().recompute_times().is_ok() {
                    builder.commit(txn);
                } else {
                    builder.rollback(txn);
                }
            }
            let mut oracle = builder.clone();
            let inc = builder.recompute_times_incremental();
            let orc = oracle.recompute_times();
            match (&inc, &orc) {
                (Ok(stats), Ok(())) => prop_assert!(
                    builder.same_schedule_state(&oracle),
                    "kernel {:?} diverged from the oracle ({} seeds)",
                    stats.kind,
                    stats.seed_nodes
                ),
                (Err(a), Err(b)) => {
                    // A front-moved task can order a processor predecessor after itself;
                    // both kernels must reject the cycle and leave the builder untouched.
                    prop_assert_eq!(a, b);
                    prop_assert!(
                        builder.same_schedule_state(&oracle),
                        "error paths must leave both builders in the same (pre-pass) state"
                    );
                }
                _ => prop_assert!(false, "kernel disagreement: {inc:?} vs {orc:?}"),
            }
        }
    }

    /// The chunked gap index answers `earliest_gap` bit-identically to the scalar
    /// linear scan it accelerates, across randomized insert/remove/query sequences
    /// (the index is healed lazily, so removals and stale summaries are the
    /// interesting part).
    #[test]
    fn chunked_gap_index_matches_the_scalar_reference(
        ops in prop::collection::vec(
            (0.0f64..2000.0, 0.1f64..60.0, any::<u16>()),
            1..220,
        )
    ) {
        use bsa::schedule::timeline::TIME_EPS;
        let mut timeline: bsa::schedule::Timeline<u32> = bsa::schedule::Timeline::new();
        for (i, (ready, duration, action)) in ops.iter().enumerate() {
            // Mostly inserts, some removals: index invalidation + heal get exercised.
            if *action % 4 == 0 && !timeline.is_empty() {
                timeline.remove_index(*action as usize % timeline.len());
            }
            let got = timeline.earliest_gap(*ready, *duration);
            // Scalar reference: first-fit scan over the raw interval list.
            let mut want = *ready;
            for iv in timeline.intervals() {
                if iv.finish < *ready - TIME_EPS {
                    continue;
                }
                if want + *duration <= iv.start + TIME_EPS {
                    break;
                }
                if iv.finish > want {
                    want = iv.finish;
                }
            }
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "chunked earliest_gap({}, {}) = {} != scalar {}",
                ready,
                duration,
                got,
                want
            );
            timeline.insert(got, *duration, i as u32);
            prop_assert!(timeline.is_consistent());
        }
    }

    /// Seeded incremental re-timing equals the oracle on a freshly gapped placement.
    #[test]
    fn seeded_incremental_recompute_equals_the_oracle(
        (n, _gran, seed) in dag_params(),
    ) {
        let graph = build_graph(n, 1.0, seed);
        let system = HeterogeneousSystem::homogeneous(&graph, bsa::network::builders::ring(1).unwrap());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A95);
        let mut builder = ScheduleBuilder::new(&graph, &system).unwrap();
        let topo = bsa::taskgraph::TopologicalOrder::compute(&graph);
        let mut cursor = 0.0;
        for t in topo.iter() {
            cursor += rng.gen_range(0.0..25.0);
            builder.place_task(t, ProcId(0), cursor);
            cursor = builder.finish_of(t);
        }
        let mut oracle = builder.clone();
        builder.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        prop_assert!(builder.same_schedule_state(&oracle));
    }
}

// ---------------------------------------------------------------------------------
// What-if gap queries: a `TimelineDelta` over a timeline answers exactly as the
// materialized timeline would.
// ---------------------------------------------------------------------------------

/// Whether `Timeline::insert(start, duration)` keeps `t` consistent: sorted by start
/// and non-overlapping, with the new interval where `insert` would put it.  Booking a
/// positive-length interval at the start of a zero-length one breaks that (`insert`
/// places it first); the pricing paths never book such a pair, so the generators
/// below skip them too.
fn insertable(t: &bsa::schedule::Timeline<u32>, start: f64, duration: f64) -> bool {
    use bsa::schedule::timeline::TIME_EPS;
    let ivs = t.intervals();
    let pos = ivs.partition_point(|iv| iv.start < start - TIME_EPS);
    let before =
        pos == 0 || (ivs[pos - 1].finish <= start + TIME_EPS && ivs[pos - 1].start <= start);
    let after = pos == ivs.len()
        || (start + duration <= ivs[pos].start + TIME_EPS && start <= ivs[pos].start);
    before && after
}

/// A dense timeline of about `len` intervals on a 0.25 grid: mostly short gaps (whole
/// chunks the gap index can skip), some wide ones, and zero-length intervals, some of
/// them sharing the start of the interval after them.
fn dense_timeline(len: usize, rng: &mut StdRng) -> bsa::schedule::Timeline<u32> {
    let mut t = bsa::schedule::Timeline::new();
    let mut cursor = 0.0f64;
    for i in 0..len {
        cursor += match rng.gen_range(0..12) {
            0 => rng.gen_range(8..40) as f64 * 0.25,
            1 | 2 => 0.0,
            _ => rng.gen_range(0..4) as f64 * 0.25,
        };
        let dur = rng.gen_range(1..12) as f64 * 0.25;
        t.insert(cursor, dur, i as u32);
        cursor += dur;
    }
    for i in 0..len / 8 {
        let start = t.intervals()[rng.gen_range(0..t.len())].start;
        if insertable(&t, start, 0.0) {
            t.insert(start, 0.0, (len + i) as u32);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `earliest_gap_with` over a delta is bit-identical to `earliest_gap` on a clone
    /// with the freed intervals removed and the windows inserted in booking order.
    /// Windows are booked where the materialized clone finds room (as a pricer does),
    /// including zero-length ones and ones whose start lies within `TIME_EPS` of a
    /// neighbour's; frees favour positions on both sides of chunk boundaries; queries
    /// include `ready` values past booked windows and exact-fit durations.
    #[test]
    fn overlay_gap_query_matches_a_materialized_clone(seed in any::<u64>(), len in 0usize..360) {
        use bsa::schedule::timeline::{TimelineDelta, TIME_EPS};
        let mut rng = StdRng::seed_from_u64(seed);
        let base = dense_timeline(len, &mut rng);
        let n = base.len();
        let mut materialized = base.clone();
        let mut delta = TimelineDelta::default();
        let mut freed = vec![false; n];
        let mut windows: Vec<(f64, f64)> = Vec::new();
        let horizon = base.last_finish() + 10.0;
        let grid = |rng: &mut StdRng| rng.gen_range(0..(horizon * 4.0) as u32) as f64 * 0.25;
        for step in 0..40u32 {
            match rng.gen_range(0..3) {
                0 if n > 0 => {
                    let pos = if rng.gen_bool(0.5) && n > 32 {
                        let k = rng.gen_range(1..=(n - 1) / 32);
                        32 * k - 1 + rng.gen_range(0..2)
                    } else {
                        rng.gen_range(0..n)
                    };
                    if !freed[pos] {
                        freed[pos] = true;
                        delta.free(pos);
                        let payload = base.intervals()[pos].payload;
                        materialized.remove_where(|iv| iv.payload == payload).unwrap();
                    }
                }
                1 => {
                    // Off-grid by under `TIME_EPS`, so windows can start or end within
                    // `TIME_EPS` of their neighbours.
                    let ready = grid(&mut rng) + rng.gen_range(-2..=2) as f64 * 0.4 * TIME_EPS;
                    let dur = match rng.gen_range(0..4) {
                        0 => 0.0,
                        _ => rng.gen_range(1..12) as f64 * 0.25,
                    };
                    let start = materialized.earliest_gap(ready, dur);
                    prop_assert_eq!(
                        base.earliest_gap_with(&delta, ready, dur).to_bits(),
                        start.to_bits()
                    );
                    if insertable(&materialized, start, dur) {
                        delta.book(start, dur);
                        materialized.insert(start, dur, 100_000 + step);
                        windows.push((start, start + dur));
                    }
                }
                _ => {}
            }
            for _ in 0..6 {
                let ready = match (rng.gen_range(0..3), windows.is_empty()) {
                    // At or just past a booked window's end, so it lies behind `ready`.
                    (0, false) => {
                        windows[rng.gen_range(0..windows.len())].1
                            + rng.gen_range(0..3) as f64 * 0.75 * TIME_EPS
                    }
                    (1, _) => rng.gen_range(0.0..horizon),
                    _ => grid(&mut rng),
                };
                let dur = rng.gen_range(0..16) as f64 * 0.25;
                let got = base.earliest_gap_with(&delta, ready, dur);
                let want = materialized.earliest_gap(ready, dur);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "earliest_gap_with({}, {}) = {} != materialized {}",
                    ready,
                    dur,
                    got,
                    want
                );
            }
        }
    }
}
