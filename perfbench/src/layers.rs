//! Calls into the library layers, timed from outside: each helper makes one public
//! call, wraps it in a span when tracing is on, and tallies the counts it returns.

use crate::stats::Tally;
use crate::trace::Tracer;
use bsa_core::{select_pivot, serialize, Bsa, PivotStrategy};
use bsa_network::HeterogeneousSystem;
use bsa_schedule::{
    validate, NoProgress, Problem, ProblemUpdate, RetimeTotals, Schedule, Solution, SolveError,
    SolveEvent, SolveOptions, Solver,
};
use bsa_taskgraph::TaskGraph;
use std::ops::ControlFlow;
use std::time::Instant;

/// A cold `Bsa::default()` solve.  Traced, it timestamps the progress stream: the
/// span up to `Serialized`, the span from there to the end, the gap between
/// consecutive `MigrationAccepted` events, and the `PivotStarted` count.
pub fn bsa_solve(
    tracer: &mut Tracer,
    tally: &mut Tally,
    problem: &Problem<'_>,
    options: &SolveOptions,
) -> Result<Solution, SolveError> {
    let solver = Bsa::default();
    if !tracer.is_on() {
        return solver.solve(problem, options, &mut NoProgress);
    }
    let mut serialized = None;
    let mut pivots = 0u64;
    let mut accepted: Vec<Instant> = Vec::new();
    let mut observer = |event: &SolveEvent| {
        match event {
            SolveEvent::Serialized { .. } => serialized = Some(Instant::now()),
            SolveEvent::PivotStarted { .. } => pivots += 1,
            SolveEvent::MigrationAccepted { .. } => accepted.push(Instant::now()),
            _ => {}
        }
        ControlFlow::Continue(())
    };
    let span = tracer.enter("bsa.solve");
    let start = Instant::now();
    let solution = solver.solve(problem, options, &mut observer);
    let end = Instant::now();
    if let Some(serialized) = serialized {
        tracer.record("bsa.to_serialized", start, serialized);
        tracer.record("bsa.migrate", serialized, end);
    }
    tracer.exit(span);
    for pair in accepted.windows(2) {
        tally.add("bsa.migration_gap", (pair[1] - pair[0]).as_secs_f64());
    }
    let solution = solution?;
    let migrations = accepted.len() as f64;
    let evals = solution.trace.thread_stats.first().map_or(0, |t| t.evals) as f64;
    tally.add("bsa.solves", 1.0);
    tally.add("bsa.migrations", migrations);
    tally.add("bsa.pivot_phases", pivots as f64);
    tally.add("bsa.candidate_evals", evals);
    add_retime(tally, &solution.trace.retime);
    Ok(solution)
}

/// Tallies one solve's or resolve's re-timing counters.
fn add_retime(tally: &mut Tally, r: &RetimeTotals) {
    tally.add("retime.passes", r.passes as f64);
    tally.add("retime.delta_passes", r.delta_passes as f64);
    tally.add(
        "retime.flat_passes",
        (r.flat_by_seeds + r.flat_by_model + r.flat_by_cap) as f64,
    );
    tally.add("retime.cone_nodes", r.cone_nodes as f64);
    tally.add("retime.changed_nodes", r.changed_nodes as f64);
    tally.add("retime.delta_evals", r.delta_evals as f64);
}

/// Tallies one warm resolve: the delta's dirty set, the repaired tasks, the resolve
/// time and its re-timing counters.
pub fn tally_resolve(tally: &mut Tally, update: &ProblemUpdate, warm: &Solution, secs: f64) {
    let repaired = warm.trace.num_migrations() as f64;
    tally.add("delta.dirty_tasks", update.dirty_tasks().len() as f64);
    tally.add("resolve.repaired_tasks", repaired);
    tally.add(
        "resolve.repaired_frac",
        repaired / update.graph().num_tasks() as f64,
    );
    tally.add("resolve.seconds", secs);
    add_retime(tally, &warm.trace.retime);
}

/// The two steps BSA runs before its migration loop, called on their own: first-pivot
/// selection and serialization onto that pivot.  Only traced runs make these calls.
pub fn pivot_and_serialize(tracer: &mut Tracer, graph: &TaskGraph, system: &HeterogeneousSystem) {
    if !tracer.is_on() {
        return;
    }
    let (pivot, _) = tracer.time("pivot.select", || {
        select_pivot(graph, system, PivotStrategy::ShortestCriticalPath)
    });
    let costs = system.exec_costs.column(pivot);
    let order = tracer.time("serialization.serialize", || serialize(graph, &costs));
    std::hint::black_box(order);
}

/// Full contention-model validation; `Err` names the first violation.
pub fn check_valid(
    tracer: &mut Tracer,
    schedule: &Schedule,
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
) -> Result<(), String> {
    let errors = tracer.time("validate.validate", || validate(schedule, graph, system));
    match errors.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} validation errors, first: {first}",
            errors.len()
        )),
    }
}
