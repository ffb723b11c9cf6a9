//! End-to-end regression tests for the pluggable communication layer:
//!
//! * with the default `ShortestHop` policy on half-duplex topologies, all five
//!   algorithms produce schedules **bit-identical** to the pre-refactor code (the
//!   fingerprints below were generated on `main` immediately before the communication
//!   layer became pluggable);
//! * on a `FullDuplex` topology, opposite-direction transfers on one link may overlap
//!   in the produced schedule and still validate, while the same scenario on
//!   `HalfDuplex` serializes bit-identically to the pinned times;
//! * cost-aware routing (`MinTransferTime`) yields valid schedules everywhere and
//!   strictly shorter makespans where the hop-shortest route crosses a pathologically
//!   slow link.

use bsa::algorithms::Algo;
use bsa::prelude::*;
use bsa::schedule::schedule::MessageHop;
use bsa::schedule::validate::assert_valid;
use bsa::schedule::ScheduleBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-style fingerprint of every placement's processor and window bits.
fn fingerprint(graph: &TaskGraph, s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in graph.task_ids() {
        for v in [
            s.proc_of(t).0 as u64,
            s.start_of(t).to_bits(),
            s.finish_of(t).to_bits(),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn pin_instance(ti: usize) -> (TaskGraph, HeterogeneousSystem) {
    let topo = match ti {
        0 => bsa::network::builders::ring(8).unwrap(),
        1 => bsa::network::builders::hypercube_for(8).unwrap(),
        _ => bsa::network::builders::random_connected(8, 2, 5, &mut StdRng::seed_from_u64(11))
            .unwrap(),
    };
    let mut rng = StdRng::seed_from_u64(42 + ti as u64);
    let g = bsa::workloads::random_dag::paper_random_graph(40, 1.0, &mut rng).unwrap();
    let sys = HeterogeneousSystem::generate(
        &g,
        topo,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 50.0),
        &mut rng,
    );
    (g, sys)
}

/// Schedules produced with the default policy are bit-identical to `main` before the
/// communication-layer refactor (fingerprints generated by running the pre-refactor
/// code on exactly these instances).
#[test]
fn default_policy_schedules_are_bit_identical_to_pre_refactor_main() {
    #[rustfmt::skip]
    let pins: [(usize, Algo, f64, u64); 15] = [
        (0, Algo::Bsa, 118985.69474282222, 0xdfbd4b530335eae3),
        (0, Algo::Dls, 131827.9926205564, 0xada4f460297f1550),
        (0, Algo::HeftCa, 115580.76034774022, 0x5af51c7a7522693f),
        (0, Algo::HeftCo, 207474.88607489422, 0x3a72ff4a771e8de0),
        (0, Algo::Serial, 134466.41351184945, 0x826aba42dc17e7b8),
        (1, Algo::Bsa, 73471.39687580922, 0xdfd6b3d81a5cad1e),
        (1, Algo::Dls, 48224.478395175945, 0x82c9eecdb9e3645a),
        (1, Algo::HeftCa, 53510.05959924899, 0xaf5b235009551b94),
        (1, Algo::HeftCo, 119430.03773472243, 0x6bf49060ab56eabe),
        (1, Algo::Serial, 128241.75612646271, 0x65719c9fb5e318f9),
        (2, Algo::Bsa, 136660.7480177707, 0xcbf9fd5a30509fb2),
        (2, Algo::Dls, 132841.83566124708, 0xabd0ef16c6d5138e),
        (2, Algo::HeftCa, 181771.37385263873, 0x5d7483b078023392),
        (2, Algo::HeftCo, 214033.30677190123, 0x58032f9884e9d1b7),
        (2, Algo::Serial, 133807.32741353833, 0x3a6de52f6fa179d4),
    ];
    for ti in 0..3 {
        let (g, sys) = pin_instance(ti);
        let problem = Problem::new(&g, &sys).unwrap();
        for &(pti, algo, length, fp) in pins.iter().filter(|(pti, ..)| *pti == ti) {
            let s = algo.solver().solve_unbounded(&problem).unwrap().schedule;
            assert_eq!(
                s.schedule_length(),
                length,
                "{algo} schedule length drifted on instance {pti}"
            );
            assert_eq!(
                fingerprint(&g, &s),
                fp,
                "{algo} placements drifted on instance {pti}"
            );
        }
    }
}

/// Builds the crossing-messages scenario: A on P0 and B on P1 finish at t = 10 and
/// each sends to a consumer on the *other* processor, so both messages want the single
/// link P0 -- P1 at t = 10, in opposite directions.
fn crossing_builder(g: &TaskGraph, sys: &HeterogeneousSystem) -> Schedule {
    let mut b = ScheduleBuilder::new(g, sys).unwrap();
    let link = sys.topology.link_between(ProcId(0), ProcId(1)).unwrap();
    b.place_task(TaskId(0), ProcId(0), 0.0); // A
    b.place_task(TaskId(1), ProcId(1), 0.0); // B
    let mut route = |e: u32, from: u32, to: u32| {
        let dur = sys.transfer_time(link, g.edge(EdgeId(e)).nominal_cost);
        let start = b.earliest_link_slot(link, ProcId(from), 10.0, dur);
        b.set_route(
            EdgeId(e),
            vec![MessageHop {
                link,
                from: ProcId(from),
                to: ProcId(to),
                start,
                finish: start + dur,
            }],
        );
        start + dur
    };
    let a_arrival = route(0, 0, 1); // A -> consumer on P1
    let b_arrival = route(1, 1, 0); // B -> consumer on P0
    b.place_task(TaskId(2), ProcId(1), a_arrival);
    b.place_task(TaskId(3), ProcId(0), b_arrival);
    b.finish("crossing").unwrap()
}

fn crossing_graph() -> TaskGraph {
    let mut gb = TaskGraphBuilder::new();
    let a = gb.add_task("A", 10.0);
    let b = gb.add_task("B", 10.0);
    let ca = gb.add_task("CA", 5.0);
    let cb = gb.add_task("CB", 5.0);
    gb.add_edge(a, ca, 4.0).unwrap();
    gb.add_edge(b, cb, 4.0).unwrap();
    gb.build().unwrap()
}

#[test]
fn full_duplex_allows_opposite_direction_overlap_and_validates() {
    let g = crossing_graph();
    let topo = Topology::new("pair", 2, &[(0, 1)])
        .unwrap()
        .with_link_mode(LinkMode::FullDuplex);
    let sys = HeterogeneousSystem::homogeneous(&g, topo);
    let s = crossing_builder(&g, &sys);
    assert_valid(&s, &g, &sys);
    // Both transmissions got the link at t = 10: they overlap exactly.
    let h0 = s.route(EdgeId(0)).hops[0];
    let h1 = s.route(EdgeId(1)).hops[0];
    assert_eq!((h0.start, h0.finish), (10.0, 14.0));
    assert_eq!((h1.start, h1.finish), (10.0, 14.0));
    assert_eq!(s.schedule_length(), 19.0);
    // The Gantt renderer shows one row per direction.
    let text = bsa::schedule::gantt::render(
        &s,
        &g,
        &sys.topology,
        &bsa::schedule::gantt::GanttOptions::default(),
    );
    assert!(text.contains("L1>2"), "missing a->b row:\n{text}");
    assert!(text.contains("L2>1"), "missing b->a row:\n{text}");
}

#[test]
fn half_duplex_serializes_the_same_scenario_bit_identically() {
    let g = crossing_graph();
    let topo = Topology::new("pair", 2, &[(0, 1)]).unwrap();
    let sys = HeterogeneousSystem::homogeneous(&g, topo);
    let s = crossing_builder(&g, &sys);
    assert_valid(&s, &g, &sys);
    // One link timeline: the second message waits for the first, bit-exactly.
    let h0 = s.route(EdgeId(0)).hops[0];
    let h1 = s.route(EdgeId(1)).hops[0];
    assert_eq!((h0.start, h0.finish), (10.0, 14.0));
    assert_eq!((h1.start, h1.finish), (14.0, 18.0));
    assert_eq!(s.schedule_length(), 23.0);
}

/// Every algorithm produces a valid schedule end-to-end on full-duplex topologies —
/// full-duplex is schedulable now, not validator-only.
#[test]
fn all_algorithms_schedule_validly_on_full_duplex_topologies() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = bsa::workloads::random_dag::paper_random_graph(40, 0.5, &mut rng).unwrap();
    for base in [
        bsa::network::builders::ring(8).unwrap(),
        bsa::network::builders::torus2d(3, 3).unwrap(),
    ] {
        let topo = base.with_link_mode(LinkMode::FullDuplex);
        let sys = HeterogeneousSystem::generate(
            &g,
            topo,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::new(1.0, 10.0),
            &mut rng,
        );
        let problem = Problem::new(&g, &sys).unwrap();
        for algo in [
            Algo::Bsa,
            Algo::Dls,
            Algo::HeftCa,
            Algo::HeftCo,
            Algo::Serial,
        ] {
            let s = algo.solver().solve_unbounded(&problem).unwrap().schedule;
            assert_valid(&s, &g, &sys);
        }
    }
}

/// A full-duplex link never produces a *longer* DLS schedule than the same half-duplex
/// system — relaxing contention can only help a deterministic router.
#[test]
fn full_duplex_never_hurts_the_table_driven_baselines() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = bsa::workloads::random_dag::paper_random_graph(50, 0.2, &mut rng).unwrap();
    let half = bsa::network::builders::ring(6).unwrap();
    let full = half.clone().with_link_mode(LinkMode::FullDuplex);
    let mk = |topo: Topology, rng: &mut StdRng| {
        HeterogeneousSystem::generate(
            &g,
            topo,
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            rng,
        )
    };
    // Same seeds -> same cost draws for both systems.
    let sys_half = mk(half, &mut StdRng::seed_from_u64(9));
    let sys_full = mk(full, &mut StdRng::seed_from_u64(9));
    let a = Dls::new()
        .solve_unbounded(&Problem::new(&g, &sys_half).unwrap())
        .unwrap()
        .schedule;
    let b = Dls::new()
        .solve_unbounded(&Problem::new(&g, &sys_full).unwrap())
        .unwrap()
        .schedule;
    assert_valid(&a, &g, &sys_half);
    assert_valid(&b, &g, &sys_full);
    assert!(
        b.schedule_length() <= a.schedule_length() + 1e-9,
        "full-duplex DLS ({}) must not lose to half-duplex ({})",
        b.schedule_length(),
        a.schedule_length()
    );
}

/// Cost-aware routing strictly beats hop-count routing on a paper-style R = 200
/// heterogeneity instance (the routing bench's instance family), for every
/// table-driven solver — and the chosen policy lands in the provenance.
#[test]
fn min_transfer_time_beats_shortest_hop_on_slow_links() {
    // rep 1 of the BENCH_routing R = 200 cell: a 100-task layered DAG on a 4×4 torus
    // with link factors uniform in [1, 200].
    let mut rng = StdRng::seed_from_u64(0xB5A0 + 977 + 200);
    let topo = bsa::network::builders::torus2d(4, 4).unwrap();
    let g = bsa::workloads::random_dag::paper_random_graph(100, 0.5, &mut rng).unwrap();
    let sys = HeterogeneousSystem::generate(
        &g,
        topo,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 200.0),
        &mut rng,
    );
    let problem = Problem::new(&g, &sys).unwrap();
    for algo in [Algo::Dls, Algo::HeftCa, Algo::HeftCo] {
        let hop = algo
            .solver()
            .solve(&problem, &SolveOptions::default(), &mut NoProgress)
            .unwrap();
        let cost_aware = algo
            .solver()
            .solve(
                &problem,
                &SolveOptions::default().with_route_policy(RoutePolicy::MinTransferTime),
                &mut NoProgress,
            )
            .unwrap();
        assert_valid(&cost_aware.schedule, &g, &sys);
        assert_eq!(hop.provenance.route_policy, RoutePolicy::ShortestHop);
        assert_eq!(
            cost_aware.provenance.route_policy,
            RoutePolicy::MinTransferTime
        );
        assert!(
            cost_aware.schedule.schedule_length() < hop.schedule.schedule_length(),
            "{algo}: cost-aware {} must beat hop-count {}",
            cost_aware.schedule.schedule_length(),
            hop.schedule.schedule_length()
        );
    }
    // BSA consults the same CommModel for full reroutes; the result stays valid.
    let bsa = Algo::Bsa
        .solver()
        .solve(
            &problem,
            &SolveOptions::default().with_route_policy(RoutePolicy::MinTransferTime),
            &mut NoProgress,
        )
        .unwrap();
    assert_valid(&bsa.schedule, &g, &sys);
}

/// `ECube` requested off-hypercube must fall back to `ShortestHop` at table-build
/// time — the deterministic dimension-ordered walk is undefined there, and the solver
/// must never exercise a partial e-cube table.  This combination (fallback + FullDuplex
/// direction-aware timelines) had no coverage before this test.  Pinned: the fallback
/// is visible in `effective_policy()`, the requested policy still lands in the
/// provenance, the schedule validates, and its fingerprint is frozen (generated by
/// running this instance once when the test was added).  Note the schedule is *not*
/// expected to match a plain `ShortestHop` solve bit-for-bit: any non-default policy
/// arms BSA's full-reroute migration option over the comm model, a strict superset of
/// the default migration moves even when the fallback table is hop-shortest.
#[test]
fn ecube_off_hypercube_falls_back_to_shortest_hop_under_full_duplex() {
    // A 3×3 torus is not a hypercube (9 processors, degree 4); FullDuplex exercises
    // the direction-aware timeline path on top of the fallback table.
    let mut rng = StdRng::seed_from_u64(0xECBE);
    let topo = bsa::network::builders::torus2d(3, 3)
        .unwrap()
        .with_link_mode(LinkMode::FullDuplex);
    let g = bsa::workloads::random_dag::paper_random_graph(40, 1.0, &mut rng).unwrap();
    let sys = HeterogeneousSystem::generate(
        &g,
        topo,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 10.0),
        &mut rng,
    );

    // The fallback is decided once, at model-build time.
    let model = sys.comm_model(RoutePolicy::ECube);
    assert_eq!(model.policy(), RoutePolicy::ECube);
    assert_eq!(model.effective_policy(), RoutePolicy::ShortestHop);

    let problem = Problem::new(&g, &sys).unwrap();
    let ecube = Bsa::default()
        .solve(
            &problem,
            &SolveOptions::default().with_route_policy(RoutePolicy::ECube),
            &mut NoProgress,
        )
        .unwrap();
    assert_valid(&ecube.schedule, &g, &sys);
    // Requested policy is recorded verbatim; the routes are the fallback table's.
    assert_eq!(ecube.provenance.route_policy, RoutePolicy::ECube);
    // The pinned fingerprint: any future change to the fallback path shows up here.
    assert_eq!(fingerprint(&g, &ecube.schedule), 16428540367992757982u64);
    assert_eq!(ecube.schedule.schedule_length(), 22308.467829001274);
}

/// FNV-style fingerprint of the whole schedule: every placement (as [`fingerprint`])
/// followed by every hop's link, direction and window bits, edge by edge.
fn schedule_fingerprint(graph: &TaskGraph, s: &Schedule) -> u64 {
    let mut h = fingerprint(graph, s);
    for e in graph.edge_ids() {
        for hop in &s.route(e).hops {
            for v in [
                hop.link.0 as u64,
                hop.from.0 as u64,
                hop.start.to_bits(),
                hop.finish.to_bits(),
            ] {
                h ^= v;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// A 40-task random graph on an 8-processor hypercube whose link factors span
/// [1, 50], so the cost-aware route often differs from the hop-shortest one.
fn cost_aware_instance(mode: LinkMode) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(0xC057);
    let g = bsa::workloads::random_dag::paper_random_graph(40, 1.0, &mut rng).unwrap();
    let topo = bsa::network::builders::hypercube_for(8)
        .unwrap()
        .with_link_mode(mode);
    let sys = HeterogeneousSystem::generate(
        &g,
        topo,
        HeterogeneityRange::DEFAULT,
        HeterogeneityRange::new(1.0, 50.0),
        &mut rng,
    );
    (g, sys)
}

/// Schedules under `MinTransferTime` on heterogeneous links, in both link modes, are
/// frozen: placements, routes and hop windows, bit for bit.  Together with the
/// default-policy pins above this covers every path that books a message along a
/// policy route (BSA's full-reroute option, DLS, both HEFTs).  The fingerprints were
/// generated by running commit 6bcd425 (the last commit that priced candidates by
/// booking and rolling back) on exactly these instances.
#[test]
fn cost_aware_schedules_are_bit_identical_in_both_link_modes() {
    #[rustfmt::skip]
    let pins: [(LinkMode, Algo, f64, u64); 8] = [
        (LinkMode::HalfDuplex, Algo::Bsa, 49992.30097896225, 0x6386b6fceaaee5bc),
        (LinkMode::HalfDuplex, Algo::Dls, 39847.149773603414, 0x7befb93f9dd6cabb),
        (LinkMode::HalfDuplex, Algo::HeftCa, 43237.22856794059, 0xe8c7d0118468b09e),
        (LinkMode::HalfDuplex, Algo::HeftCo, 62772.3796859359, 0xd0ce036c58596453),
        (LinkMode::FullDuplex, Algo::Bsa, 50833.68887710852, 0x5b68cc3417147f33),
        (LinkMode::FullDuplex, Algo::Dls, 40242.240265029686, 0x6163dd666f37c27c),
        (LinkMode::FullDuplex, Algo::HeftCa, 34811.26432795741, 0xe356f4c2f3927100),
        (LinkMode::FullDuplex, Algo::HeftCo, 45460.02656528353, 0x76f3bae4200e0938),
    ];
    let options = SolveOptions::default().with_route_policy(RoutePolicy::MinTransferTime);
    let mut got = Vec::new();
    for &(mode, algo, ..) in &pins {
        let (g, sys) = cost_aware_instance(mode);
        let problem = Problem::new(&g, &sys).unwrap();
        let s = algo
            .solver()
            .solve(&problem, &options, &mut NoProgress)
            .unwrap()
            .schedule;
        assert_valid(&s, &g, &sys);
        got.push((
            mode,
            algo,
            s.schedule_length(),
            schedule_fingerprint(&g, &s),
        ));
    }
    for (pin, cur) in pins.iter().zip(&got) {
        assert_eq!(
            (pin.2, pin.3),
            (cur.2, cur.3),
            "{:?} {} drifted; computed pins:\n{}",
            pin.0,
            pin.1,
            pin_listing(&got)
        );
    }
}

/// Every computed pin, one per line with fingerprints in hex, for failure messages.
fn pin_listing<T: std::fmt::Debug>(v: &[T]) -> String {
    v.iter()
        .map(|x| format!("{x:x?}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Warm resolves of three different delta kinds are frozen, bit for bit: a downed
/// link (re-routes only the affected messages), an added task (a fresh frontier), and
/// a removed processor repaired under `MinTransferTime` (every candidate processor is
/// scored by booking messages along policy routes).  Generated, like the pins above,
/// by running commit 6bcd425 on exactly these inputs.
#[test]
fn warm_resolves_are_bit_identical() {
    #[rustfmt::skip]
    let pins: [(&str, f64, u64); 3] = [
        ("link_down", 70562.85085807374, 0x5394da6349b636bd),
        ("add_task", 56878.196692453595, 0x48b2a0e9a07212ed),
        ("remove_processor", 54114.417439900746, 0x3114fcad0add565d),
    ];
    let (g, sys) = cost_aware_instance(LinkMode::HalfDuplex);
    let problem = Problem::new(&g, &sys).unwrap();
    let cold = Bsa::default().solve_unbounded(&problem).unwrap();
    let order = bsa::taskgraph::TopologicalOrder::compute(&g);
    let order = order.order();
    let mut got = Vec::new();
    for &(kind, ..) in &pins {
        let mut delta = ProblemDelta::new();
        let mut options = SolveOptions::default();
        match kind {
            "link_down" => {
                delta.link_down(LinkId(1));
            }
            "add_task" => {
                delta.add_task(
                    "arrival",
                    90.0,
                    vec![(order[2], 30.0), (order[5], 60.0)],
                    vec![(order[order.len() - 1], 30.0)],
                );
            }
            _ => {
                delta.remove_processor(ProcId(3));
                options = options.with_route_policy(RoutePolicy::MinTransferTime);
            }
        }
        let (update, warm) = cold.resolve(&problem, &delta, &options).unwrap();
        assert_valid(&warm.schedule, update.graph(), update.system());
        got.push((
            kind,
            warm.schedule.schedule_length(),
            schedule_fingerprint(update.graph(), &warm.schedule),
        ));
    }
    for (pin, cur) in pins.iter().zip(&got) {
        assert_eq!(
            (pin.1, pin.2),
            (cur.1, cur.2),
            "{} resolve drifted; computed pins:\n{}",
            pin.0,
            pin_listing(&got)
        );
    }
}
