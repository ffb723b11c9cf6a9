//! Problem instances, their wire encoding and the quality reference they are judged by.

use bsa_core::cp_length_on;
use bsa_daemon::json::{self, obj, Value};
use bsa_network::builders::{hypercube_for, mesh2d, ring};
use bsa_network::{HeterogeneityRange, HeterogeneousSystem, LinkMode, Topology};
use bsa_schedule::Schedule;
use bsa_taskgraph::TaskGraph;
use bsa_workloads::{CostParams, RegularApp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The heterogeneity of every instance: execution and link factors uniform in [1, 10].
pub fn factors() -> HeterogeneityRange {
    HeterogeneityRange::new(1.0, 10.0)
}

/// A `paper_random_graph` of `tasks` tasks (granularity 1.0) on `topology`, with
/// [1, 10] execution and link heterogeneity, all drawn from `seed`.
pub fn random_on(tasks: usize, topology: Topology, seed: u64) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = bsa_workloads::random_dag::paper_random_graph(tasks, 1.0, &mut rng)
        .expect("the generator accepts every benchmark size");
    let system = HeterogeneousSystem::generate(&graph, topology, factors(), factors(), &mut rng);
    (graph, system)
}

/// A regular application graph (Gaussian elimination, LU, Laplace or MVA, chosen by
/// `seed`) near `tasks` tasks on `topology`, with [1, 10] heterogeneity.
pub fn regular_on(tasks: usize, topology: Topology, seed: u64) -> (TaskGraph, HeterogeneousSystem) {
    let mut rng = StdRng::seed_from_u64(seed);
    let app = RegularApp::ALL[rng.gen_range(0..RegularApp::ALL.len())];
    let graph = app
        .build_for_size(tasks, &CostParams::paper(1.0))
        .expect("the generator accepts every benchmark size");
    let system = HeterogeneousSystem::generate(&graph, topology, factors(), factors(), &mut rng);
    (graph, system)
}

/// One of the 8–16-processor topologies of the daemon mix, chosen by `pick`.
pub fn small_topology(pick: usize) -> Topology {
    match pick % 4 {
        0 => hypercube_for(8),
        1 => hypercube_for(16),
        2 => mesh2d(3, 4),
        _ => ring(12),
    }
    .expect("fixed benchmark topologies are valid")
}

/// Critical-path lower bound on any schedule length: the shortest critical path over
/// the processors' execution costs (`cp_length_on`), ignoring all communication.
pub fn lower_bound(graph: &TaskGraph, system: &HeterogeneousSystem) -> f64 {
    system
        .topology
        .proc_ids()
        .map(|p| cp_length_on(graph, system, p))
        .fold(f64::INFINITY, f64::min)
}

/// Per-task (processor, start, finish), the part of a schedule two solves must agree
/// on bit for bit.
pub type Placements = Vec<(u32, f64, f64)>;

pub fn placements(schedule: &Schedule, graph: &TaskGraph) -> Placements {
    graph
        .task_ids()
        .map(|t| {
            (
                schedule.proc_of(t).0,
                schedule.start_of(t),
                schedule.finish_of(t),
            )
        })
        .collect()
}

/// Reads the `placements` array of a daemon `end` record's `result`.
pub fn wire_placements(result: &Value) -> Option<Placements> {
    result
        .get("placements")?
        .as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some((
                u32::try_from(row.get(1)?.as_u64()?).ok()?,
                row.get(2)?.as_f64()?,
                row.get(3)?.as_f64()?,
            ))
        })
        .collect()
}

/// The protocol-v1 `problem` object for a graph and system (the inverse of
/// `bsa_daemon::wire::decode_problem`).
pub fn encode_problem(graph: &TaskGraph, system: &HeterogeneousSystem) -> Value {
    let tasks = graph
        .tasks()
        .map(|t| {
            obj(vec![
                ("name", json::s(t.name.clone())),
                ("cost", json::n(t.nominal_cost)),
            ])
        })
        .collect();
    let edges = graph
        .edges()
        .map(|e| {
            Value::Arr(vec![
                json::u(e.src.0 as u64),
                json::u(e.dst.0 as u64),
                json::n(e.nominal_cost),
            ])
        })
        .collect();
    let links = system
        .topology
        .links()
        .map(|l| {
            Value::Arr(vec![
                json::u(l.a.0 as u64),
                json::u(l.b.0 as u64),
                json::n(system.comm_costs.factor(l.id)),
            ])
        })
        .collect();
    let exec = graph
        .task_ids()
        .map(|t| {
            Value::Arr(
                system
                    .exec_costs
                    .row(t)
                    .iter()
                    .map(|&c| json::n(c))
                    .collect(),
            )
        })
        .collect();
    let link_mode = match system.topology.link_mode() {
        LinkMode::HalfDuplex => "half_duplex",
        LinkMode::FullDuplex => "full_duplex",
    };
    obj(vec![
        ("tasks", Value::Arr(tasks)),
        ("edges", Value::Arr(edges)),
        (
            "system",
            obj(vec![
                ("processors", json::u(system.num_processors() as u64)),
                ("links", Value::Arr(links)),
                ("link_mode", json::s(link_mode)),
                ("exec", Value::Arr(exec)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_daemon::wire::decode_problem;

    #[test]
    fn wire_encoding_round_trips_through_the_daemon_decoder() {
        let (graph, system) = random_on(30, small_topology(2), 7);
        let text = encode_problem(&graph, &system).to_json();
        let (g2, s2) = decode_problem(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(g2.num_tasks(), graph.num_tasks());
        assert_eq!(g2.num_edges(), graph.num_edges());
        assert_eq!(s2.fingerprint(), system.fingerprint());
    }

    #[test]
    fn lower_bound_is_below_any_schedule() {
        let (graph, system) = regular_on(40, small_topology(0), 3);
        let problem = bsa_schedule::Problem::new(&graph, &system).unwrap();
        use bsa_schedule::Solver;
        let sol = bsa_core::Bsa::default().solve_unbounded(&problem).unwrap();
        assert!(lower_bound(&graph, &system) <= sol.schedule.schedule_length());
    }
}
