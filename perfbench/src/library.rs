//! The in-process workloads: `solve_large` (cold BSA solves of one big instance) and
//! `resolve_stream` (warm resolves of one incumbent under a seeded delta stream).

use crate::instance::{self, lower_bound, placements, Placements};
use crate::layers::{bsa_solve, check_valid, pivot_and_serialize, tally_resolve};
use crate::stats::Tally;
use crate::trace::Tracer;
use crate::{Report, Settings};
use bsa_core::Bsa;
use bsa_network::builders::hypercube_for;
use bsa_network::{HeterogeneousSystem, LinkId, ProcId, RoutePolicy, RoutingTable};
use bsa_schedule::{Problem, ProblemDelta, Solution, SolveOptions, Solver};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId, TopologicalOrder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Instance seeds.  Solve time varies several-fold between random instances of one
/// size, so each library workload pins its instance; `--seed` varies the op stream.
const SOLVE_LARGE_INSTANCE: u64 = 0x501E_1A46;
const RESOLVE_INSTANCE: u64 = 0x4E50_1FE5;
const PROCESSORS: usize = 16;
/// Set-up repetitions.  A `solve_large` set-up takes about 8 ms, and the host's speed
/// drifts by a third within tenths of a second, so its median is taken over about a
/// second of set-ups.  A `resolve_stream` set-up takes 60 ms; the median of 3 of them
/// moved by up to a third between runs of the same code.
const SOLVE_LARGE_SETUPS: usize = 121;
const RESOLVE_SETUPS: usize = 9;

/// Generates the instance and validates it (`Problem::new`), then builds the
/// shortest-hop routing table a table-driven solver would build for it.
fn setup_instance(
    tracer: &mut Tracer,
    tasks: usize,
    seed: u64,
) -> (TaskGraph, HeterogeneousSystem) {
    let topology = hypercube_for(PROCESSORS).expect("hypercube sizes are powers of two");
    let (graph, system) = instance::random_on(tasks, topology, seed);
    tracer
        .time("solver.problem_new", || Problem::new(&graph, &system))
        .expect("generated instances validate");
    let table = tracer.time("routing.table_build", || {
        RoutingTable::build(
            &system.topology,
            &system.comm_costs,
            RoutePolicy::ShortestHop,
        )
    });
    std::hint::black_box(table);
    (graph, system)
}

/// Runs `op` in whole passes of `pass` ops until `settings.seconds` have passed, and
/// at least twice.  In traced runs every op runs twice, untraced then traced, so the
/// report can state the tracing overhead.
fn measure(
    settings: &Settings,
    report: &mut Report,
    pass: usize,
    mut op: impl FnMut(usize, &mut Tracer, &mut Tally) -> Result<f64, String>,
) {
    let start = Instant::now();
    let mut off = Tracer::new(false, start);
    let mut scratch = Tally::default();
    let mut i = 0;
    while i < 2 || i % pass != 0 || start.elapsed().as_secs_f64() < settings.seconds {
        report.attempted += 1;
        report.tracer.set_op(i as u64);
        let plain = if report.tracer.is_on() {
            op(i, &mut off, &mut scratch)
        } else {
            op(i, &mut report.tracer, &mut report.tally)
        };
        let traced = if report.tracer.is_on() {
            report.attempted += 1;
            Some(op(i, &mut report.tracer, &mut report.tally))
        } else {
            None
        };
        // The first failure ends the run: every later op repeats an input already seen.
        match (plain, traced) {
            (Err(e), _) | (_, Some(Err(e))) => {
                report.failures.push(format!("op {i}: {e}"));
                break;
            }
            (Ok(secs), traced) => {
                report.op_s.push(secs);
                report.traced_op_s.extend(traced.and_then(Result::ok));
            }
        }
        i += 1;
    }
    report.measured_s = report.op_s.iter().sum();
}

/// Compares one op's schedule with the first schedule seen for the same input.
fn check_repeat(reference: &mut Option<Placements>, got: Placements) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got);
            Ok(())
        }
        Some(want) if *want == got => Ok(()),
        Some(_) => Err("schedule differs from the first solve of the same input".into()),
    }
}

pub fn solve_large(settings: &Settings, report: &mut Report) {
    let tasks = if settings.tiny { 60 } else { 1000 };
    // Set-up is instance generation, `Problem::new` and the table build only.
    let mut prepared = None;
    for _ in 0..SOLVE_LARGE_SETUPS {
        let t0 = Instant::now();
        let built = setup_instance(&mut report.tracer, tasks, SOLVE_LARGE_INSTANCE);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(built);
    }
    let (graph, system) = prepared.expect("setup ran");
    let problem = Problem::assume_validated(&graph, &system);
    // An untimed warm-up solve, whose schedule every op must reproduce.
    let warm = Bsa::default()
        .solve_unbounded(&problem)
        .expect("the instance solves");
    let bound = lower_bound(&graph, &system);
    let options = SolveOptions::default();
    let mut reference = Some(placements(&warm.schedule, &graph));

    measure(settings, report, 1, |_, tracer, tally| {
        pivot_and_serialize(tracer, &graph, &system);
        let t0 = Instant::now();
        let solution = bsa_solve(tracer, tally, &problem, &options).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        check_valid(tracer, &solution.schedule, &graph, &system)?;
        check_repeat(&mut reference, placements(&solution.schedule, &graph))?;
        tally.add("nsl", solution.schedule.schedule_length() / bound);
        Ok(secs)
    });
    report.nsl = report.tally.values("nsl");
}

/// The delta kinds of `resolve_stream`, in equal shares.
const KINDS: [&str; 6] = [
    "set_task_cost",
    "set_edge_weight",
    "add_task",
    "remove_task",
    "link_down",
    "remove_processor",
];

/// Deltas per kind in one pass of the stream.  Each kind's targets are stratified over
/// the topological order (tasks, edges by consumer) or the id range (links,
/// processors): the `j`-th delta of a kind targets the middle of the `j`-th of
/// `STRATA` equal slices.  Resolve time grows with the frontier a target invalidates,
/// and a few dozen seeded random targets give p50s 35% apart between seeds, so the
/// targets are fixed and `--seed` sets the order the stream visits them in.
const STRATA: usize = 6;

/// One applicable delta of `kind` aimed at stratum `stratum`.  A pick that
/// `Problem::apply` rejects (e.g. a link whose loss disconnects the network) moves to
/// the next candidate.
fn stratified_delta(
    kind: &str,
    stratum: usize,
    problem: &Problem<'_>,
    topo: &[TaskId],
    edges_by_dst: &[EdgeId],
) -> ProblemDelta {
    let graph = problem.graph();
    let system = problem.system();
    let pick = |len: usize| (((stratum as f64 + 0.5) / STRATA as f64) * len as f64) as usize;
    let first = match kind {
        "set_edge_weight" => pick(edges_by_dst.len()),
        "link_down" => pick(system.num_links()),
        "remove_processor" => pick(system.num_processors()),
        _ => pick(topo.len()),
    };
    for attempt in 0..64 {
        let mut d = ProblemDelta::new();
        match kind {
            "set_task_cost" => {
                let t = topo[(first + attempt) % topo.len()];
                d.set_task_cost(t, graph.task(t).nominal_cost * 2.0);
            }
            "set_edge_weight" => {
                let e = edges_by_dst[(first + attempt) % edges_by_dst.len()];
                d.set_edge_weight(e, graph.edge(e).nominal_cost * 3.0);
            }
            "add_task" => {
                // A new task between a predecessor in the stratum and a successor
                // halfway from there to the end of the topological order.
                let i = (first + attempt) % (topo.len() - 1);
                let j = i + (topo.len() - i) / 2;
                d.add_task(
                    "arrival",
                    150.0,
                    vec![(topo[i], 40.0)],
                    vec![(topo[j], 40.0)],
                );
            }
            "remove_task" => {
                d.remove_task(topo[(first + attempt) % topo.len()]);
            }
            "link_down" => {
                d.link_down(LinkId(((first + attempt) % system.num_links()) as u32));
            }
            "remove_processor" => {
                d.remove_processor(ProcId(((first + attempt) % system.num_processors()) as u32));
            }
            other => unreachable!("unknown delta kind {other}"),
        }
        if problem.apply(&d).is_ok() {
            return d;
        }
    }
    panic!("no applicable {kind} delta near stratum {stratum}");
}

/// One pass of the delta stream: `STRATA` deltas of each kind, in a seeded order.
fn delta_stream(problem: &Problem<'_>, seed: u64) -> Vec<ProblemDelta> {
    let graph = problem.graph();
    let topo: Vec<TaskId> = TopologicalOrder::compute(graph).order().to_vec();
    let mut position = vec![0; graph.num_tasks()];
    for (i, t) in topo.iter().enumerate() {
        position[t.index()] = i;
    }
    let mut edges_by_dst: Vec<EdgeId> = graph.edge_ids().collect();
    edges_by_dst.sort_by_key(|&e| position[graph.edge(e).dst.index()]);
    let mut stream = Vec::with_capacity(STRATA * KINDS.len());
    for stratum in 0..STRATA {
        for kind in KINDS {
            stream.push(stratified_delta(
                kind,
                stratum,
                problem,
                &topo,
                &edges_by_dst,
            ));
        }
    }
    stream.shuffle(&mut StdRng::seed_from_u64(seed));
    stream
}

pub fn resolve_stream(settings: &Settings, report: &mut Report) {
    let tasks = if settings.tiny { 40 } else { 300 };
    let mut prepared = None;
    for _ in 0..RESOLVE_SETUPS {
        let t0 = Instant::now();
        let (graph, system) = setup_instance(&mut report.tracer, tasks, RESOLVE_INSTANCE);
        let problem = Problem::assume_validated(&graph, &system);
        let incumbent: Solution = Bsa::default()
            .solve_unbounded(&problem)
            .expect("the incumbent instance solves");
        let stream = delta_stream(&problem, settings.seed);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some((graph, system, incumbent, stream));
    }
    let (graph, system, incumbent, stream) = prepared.expect("setup ran");
    let problem = Problem::assume_validated(&graph, &system);
    let options = SolveOptions::default();
    let mut references: Vec<Option<Placements>> = vec![None; stream.len()];
    let mut bounds: Vec<Option<f64>> = vec![None; stream.len()];

    measure(settings, report, stream.len(), |i, tracer, tally| {
        let k = i % stream.len();
        let t0 = Instant::now();
        let update = tracer
            .time("delta.apply", || problem.apply(&stream[k]))
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let warm = tracer
            .time("resolve.resolve", || {
                incumbent.resolve_onto(&update, &options)
            })
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let (g, s) = (update.graph(), update.system());
        check_valid(tracer, &warm.schedule, g, s)?;
        check_repeat(&mut references[k], placements(&warm.schedule, g))?;
        let bound = *bounds[k].get_or_insert_with(|| lower_bound(g, s));
        tally.add("nsl", warm.schedule.schedule_length() / bound);
        if tracer.is_on() {
            tally_resolve(tally, &update, &warm, (t2 - t1).as_secs_f64());
        }
        Ok((t2 - t0).as_secs_f64())
    });
    report.nsl = report.tally.values("nsl");
}
