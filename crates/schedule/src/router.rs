//! Table-driven message booking — the one routing code path shared by every
//! [`CommModel`] consumer.
//!
//! DLS and HEFT decide task placements one task at a time; whenever a task is placed on
//! a processor different from one of its predecessors, the message must travel along
//! the route chosen by the communication model's policy, occupying each link of the
//! route in turn.  BSA's migration loop uses the same helpers for its cost-aware
//! full-reroute option, and the warm-start repair loop for its per-processor scoring.
//!
//! Routing is read-only: [`book_route`] and [`route_message`] take a shared
//! [`ScheduleBuilder`] plus a [`LinkOverlay`] of tentative bookings.  The edge's current
//! route is freed and the new hops are booked *in the overlay*, one after the other, so
//! each hop of the route sees the contention created by the hops before it (and by
//! whatever else the caller's what-if already booked) without the builder changing.
//! Booking is direction-aware through [`LinkOverlay::earliest_link_slot`]: on
//! full-duplex links only same-direction traffic contends.  A decision is committed by
//! handing the hops to [`commit_route`].

use crate::builder::ScheduleBuilder;
use crate::overlay::LinkOverlay;
use crate::schedule::MessageHop;
use bsa_network::{CommModel, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};

/// Re-routes edge `e` from `src_proc` to `dst_proc` in `overlay`, starting no earlier
/// than `ready`, along the communication model's route: frees the edge's current route
/// and books the new hops, which stay booked in the overlay and are appended to `hops`.
/// Returns the arrival time at `dst_proc` (`ready` for a local message, which books
/// nothing).
///
/// The overlay's state afterwards is what [`commit_route`] with the same hops would
/// leave on the builder's link timelines.
#[allow(clippy::too_many_arguments)]
pub fn book_route(
    builder: &ScheduleBuilder<'_>,
    overlay: &mut LinkOverlay,
    comm: &CommModel,
    e: EdgeId,
    src_proc: ProcId,
    dst_proc: ProcId,
    ready: f64,
    hops: &mut Vec<MessageHop>,
) -> f64 {
    overlay.free_route(builder, e);
    if src_proc == dst_proc {
        return ready;
    }
    let links = comm
        .route(src_proc, dst_proc)
        .expect("communication model covers connected topologies");
    let mut cursor = ready;
    let mut at = src_proc;
    for &link in links {
        let next = builder
            .system()
            .topology
            .link(link)
            .other_end(at)
            .expect("route links are adjacent to the current processor");
        let dur = builder.transfer_time(link, e);
        let start = overlay.earliest_link_slot(builder, link, at, cursor, dur);
        let hop = MessageHop {
            link,
            from: at,
            to: next,
            start,
            finish: start + dur,
        };
        overlay.book(builder, &hop);
        hops.push(hop);
        cursor = start + dur;
        at = next;
    }
    cursor
}

/// Computes the hop schedule of sending edge `e` from `src_proc` to `dst_proc`, starting
/// no earlier than `ready`, along the communication model's route and against the
/// builder's link timelines with `overlay`'s tentative bookings applied.
///
/// Returns the hops (with concrete start/finish times) and the arrival time at
/// `dst_proc`.  When `src_proc == dst_proc` the result is an empty route arriving at
/// `ready`.
///
/// Read-only: the route is booked in the overlay ([`book_route`]) and truncated away
/// before returning, so both the builder and the overlay are unchanged.  Callers that
/// commit the decision call [`commit_route`] with the returned hops (the gaps used are
/// still free at commit time within the same scheduling step).
pub fn route_message(
    builder: &ScheduleBuilder<'_>,
    overlay: &mut LinkOverlay,
    comm: &CommModel,
    e: EdgeId,
    src_proc: ProcId,
    dst_proc: ProcId,
    ready: f64,
) -> (Vec<MessageHop>, f64) {
    let mark = overlay.mark();
    let mut hops = Vec::new();
    let arrival = book_route(
        builder, overlay, comm, e, src_proc, dst_proc, ready, &mut hops,
    );
    overlay.truncate(mark);
    (hops, arrival)
}

/// Books the hops returned by [`route_message`] on the builder's link timelines.
pub fn commit_route(builder: &mut ScheduleBuilder<'_>, e: EdgeId, hops: Vec<MessageHop>) {
    if hops.is_empty() {
        builder.clear_route(e);
    } else {
        builder.set_route(e, hops);
    }
}

/// Data-available time of task `t` on processor `p`: the latest arrival over all incoming
/// messages, each routed from its producer's processor on its own (read-only — the
/// builder and the overlay are left unchanged).
///
/// Every predecessor of `t` must already be placed.
pub fn data_available_time(
    builder: &ScheduleBuilder<'_>,
    overlay: &mut LinkOverlay,
    comm: &CommModel,
    t: TaskId,
    p: ProcId,
) -> f64 {
    let graph = builder.graph();
    let mut da = 0.0f64;
    for &eid in graph.in_edges(t) {
        let e = graph.edge(eid);
        let sp = builder
            .proc_of(e.src)
            .expect("predecessors must be scheduled before their successors");
        let ready = builder.finish_of(e.src);
        let (_, arrival) = route_message(builder, overlay, comm, eid, sp, p, ready);
        da = da.max(arrival);
    }
    da
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, RoutePolicy};
    use bsa_taskgraph::{TaskGraph, TaskGraphBuilder};

    fn pair() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn local_route_is_empty_and_arrives_at_ready() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, arrival) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(0),
            ProcId(2),
            ProcId(2),
            33.0,
        );
        assert!(hops.is_empty());
        assert_eq!(arrival, 33.0);
    }

    #[test]
    fn multi_hop_route_is_store_and_forward() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        // P0 -> P2 needs two hops on an otherwise empty 4-ring.
        let (hops, arrival) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(2),
            10.0,
        );
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].start, 10.0);
        assert_eq!(hops[0].finish, 14.0);
        assert_eq!(hops[1].start, 14.0);
        assert_eq!(hops[1].finish, 18.0);
        assert_eq!(arrival, 18.0);
        assert_eq!(hops[0].from, ProcId(0));
        assert_eq!(hops[1].to, ProcId(2));
    }

    #[test]
    fn routing_respects_existing_link_traffic() {
        // Two edges so one can block the other.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 10.0);
        let d = b.add_task("C", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.add_edge(a, d, 4.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        // Occupy L(P0-P1) during [10, 30) with another edge's hop.
        let (hops, _) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(1),
            ProcId(0),
            ProcId(1),
            10.0,
        );
        let mut blocking = hops.clone();
        blocking[0].finish = 30.0;
        commit_route(&mut builder, EdgeId(1), blocking);
        // A new tentative route at ready=10 must start at 30.
        let (hops2, arrival2) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(1),
            10.0,
        );
        assert_eq!(hops2[0].start, 30.0);
        assert_eq!(arrival2, 34.0);
    }

    #[test]
    fn rerouting_an_edge_does_not_contend_with_its_own_old_booking() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, _) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(1),
            10.0,
        );
        commit_route(&mut builder, EdgeId(0), hops.clone());
        // Re-evaluating the same edge sees the link as free where its own hops sit …
        let (hops2, arrival2) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &comm,
            EdgeId(0),
            ProcId(0),
            ProcId(1),
            10.0,
        );
        assert_eq!(hops2, hops);
        assert_eq!(arrival2, 14.0);
        // … and the read-only routing left the committed booking untouched.
        assert_eq!(builder.route(EdgeId(0)), &hops[..]);
        assert_eq!(builder.link_timeline(hops[0].link).len(), 1);
    }

    #[test]
    fn data_available_time_takes_the_slowest_message() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 20.0);
        let d = b.add_task("C", 10.0);
        b.add_edge(a, d, 4.0).unwrap();
        b.add_edge(c, d, 4.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        builder.place_task(TaskId(0), ProcId(0), 0.0); // finishes 10
        builder.place_task(TaskId(1), ProcId(1), 0.0); // finishes 20

        // On P1: A's message crosses one link (arrives 14), B is local (20) -> DA = 20.
        assert_eq!(
            data_available_time(
                &builder,
                &mut LinkOverlay::new(),
                &comm,
                TaskId(2),
                ProcId(1)
            ),
            20.0
        );
        // On P3 (adjacent to P0): A arrives 14, B needs two hops from P1 and arrives 28.
        assert_eq!(
            data_available_time(
                &builder,
                &mut LinkOverlay::new(),
                &comm,
                TaskId(2),
                ProcId(3)
            ),
            28.0
        );
    }

    #[test]
    fn cost_aware_routes_take_the_fast_detour() {
        // 4-ring with one 100x link: the min-transfer route P0 -> P1 goes the long way
        // around (3 hops), and the booking helper follows it hop by hop.
        let g = pair();
        let topo = ring(4).unwrap();
        let slow = topo.link_between(ProcId(0), ProcId(1)).unwrap();
        let mut factors = vec![1.0; 4];
        factors[slow.index()] = 100.0;
        let exec = bsa_network::ExecutionCostMatrix::homogeneous(&g, 4);
        let comm_costs = bsa_network::CommCostModel::from_factors(factors);
        let sys = HeterogeneousSystem::new(topo, exec, comm_costs);
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();

        let hop_table = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, arrival) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &hop_table,
            EdgeId(0),
            ProcId(0),
            ProcId(1),
            0.0,
        );
        assert_eq!(hops.len(), 1);
        assert_eq!(arrival, 400.0); // 4.0 nominal × factor 100

        let cost_table = sys.comm_model(RoutePolicy::MinTransferTime);
        let (hops, arrival) = route_message(
            &builder,
            &mut LinkOverlay::new(),
            &cost_table,
            EdgeId(0),
            ProcId(0),
            ProcId(1),
            0.0,
        );
        assert_eq!(hops.len(), 3);
        assert_eq!(arrival, 12.0); // three fast hops, store-and-forward
        assert_eq!(hops[0].from, ProcId(0));
        assert_eq!(hops[2].to, ProcId(1));
    }
}
