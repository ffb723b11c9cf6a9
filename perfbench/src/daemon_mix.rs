//! `daemon_mix`: the real `bsa-daemon` binary on a Unix socket, driven in a closed loop
//! by this process over two connections.  Each op is submit → attach → `end` →
//! release; the mix is mostly repeated problems (cache hits), a fixed share of
//! first-seen problems (misses) and a fixed share of `delta` ops on the connection's
//! own finished session.  Every `end` record's placements must equal the in-process
//! solve of the same problem, options and algorithm.

use crate::host::peak_rss_mb;
use crate::instance::{self, lower_bound, placements, wire_placements, Placements};
use crate::layers::{bsa_solve, check_valid, pivot_and_serialize, tally_resolve};
use crate::stats::Tally;
use crate::trace::Tracer;
use crate::{Report, Settings};
use bsa_baselines::{Dls, Heft};
use bsa_daemon::json::{self, Value};
use bsa_daemon::wire;
use bsa_network::builders::hypercube_for;
use bsa_network::{HeterogeneousSystem, RoutePolicy};
use bsa_schedule::{NoProgress, Problem, ProblemDelta, Solution, SolveOptions, Solver};
use bsa_taskgraph::{EdgeId, TaskGraph, TaskId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const ALGOS: [&str; 3] = ["bsa", "dls", "heft_ca"];
/// Ops come in blocks: of every `BLOCK` ops on a connection, one is a miss, one is a
/// delta and the rest are hits, in a seeded order within the block.  These shares are
/// chosen, not measured: no recorded daemon traffic exists to derive them from.  Hits
/// exercise decode, cache lookup, queue, solve, validation and encode; the miss adds
/// problem validation and, for the wide problems, the routing-table build; the delta
/// adds a warm resolve on a finished session.
const BLOCK: usize = 10;
const DELTAS_PER_BASE: usize = 6;
const SETUP_REPEATS: usize = 3;
const POOL_SEED: u64 = 0x9001_D1CE;

/// A solved problem and what the daemon must answer for it.
struct Reference {
    graph: TaskGraph,
    system: HeterogeneousSystem,
    solution: Solution,
    placements: Placements,
    bound: f64,
}

/// A problem of the mix: its submit line and the in-process answer.
struct Entry {
    line: String,
    reference: Reference,
}

/// A first-seen problem: how to rebuild it, and what the daemon answered.
struct Miss {
    spec: MissSpec,
    answer: Result<(Placements, f64), String>,
}

#[derive(Clone, Copy)]
struct MissSpec {
    /// 20 tasks on a 128-processor hypercube under `min_transfer_time`, so the
    /// routing-table build is on the submit path; otherwise 20–200 tasks on 8–16.
    wide: bool,
    tasks: usize,
    pick: usize,
    seed: u64,
}

impl MissSpec {
    fn algo(&self) -> &'static str {
        ALGOS[self.pick % ALGOS.len()]
    }

    fn policy(&self) -> RoutePolicy {
        if self.wide {
            RoutePolicy::MinTransferTime
        } else {
            RoutePolicy::ShortestHop
        }
    }

    fn problem(&self) -> Value {
        let (graph, system) = if self.wide {
            let topology = hypercube_for(128).expect("128 is a power of two");
            instance::random_on(self.tasks, topology, self.seed)
        } else {
            instance::random_on(self.tasks, instance::small_topology(self.pick), self.seed)
        };
        instance::encode_problem(&graph, &system)
    }
}

fn submit_line(problem: &Value, algo: &str, policy: RoutePolicy) -> String {
    json::obj(vec![
        ("cmd", json::s("submit")),
        ("problem", problem.clone()),
        ("algo", json::s(algo)),
        (
            "options",
            json::obj(vec![("route_policy", json::s(policy.label()))]),
        ),
    ])
    .to_json()
}

/// Solves `problem` in process the way the daemon does: decode, validate, build the
/// routing table for `policy`, solve with it attached, validate the schedule.
fn solve_reference(
    tracer: &mut Tracer,
    tally: &mut Tally,
    problem: &Value,
    algo: &str,
    policy: RoutePolicy,
) -> Result<Reference, String> {
    let (graph, system) = tracer
        .time("wire.decode_problem", || wire::decode_problem(problem))
        .map_err(|e| e.to_string())?;
    let p = tracer
        .time("solver.problem_new", || Problem::new(&graph, &system))
        .map_err(|e| e.to_string())?;
    let comm = tracer.time("routing.table_build", || system.comm_model(policy));
    let options = SolveOptions::default()
        .with_route_policy(policy)
        .with_routing(comm.shared_table().clone());
    let solution = match algo {
        "bsa" => {
            pivot_and_serialize(tracer, &graph, &system);
            bsa_solve(tracer, tally, &p, &options)
        }
        "dls" => tracer.time("baselines.dls_solve", || {
            Dls::new().solve(&p, &options, &mut NoProgress)
        }),
        _ => tracer.time("baselines.heft_solve", || {
            Heft::new().solve(&p, &options, &mut NoProgress)
        }),
    }
    .map_err(|e| e.to_string())?;
    check_valid(tracer, &solution.schedule, &graph, &system)?;
    if tracer.is_on() {
        let encoded = tracer.time("wire.encode_solution", || {
            wire::encode_solution(&solution, &graph)
        });
        std::hint::black_box(encoded);
    }
    let placements = placements(&solution.schedule, &graph);
    let bound = lower_bound(&graph, &system);
    Ok(Reference {
        graph,
        system,
        solution,
        placements,
        bound,
    })
}

/// The in-process warm resolve the daemon's `delta` op must reproduce.
fn resolve_reference(
    tracer: &mut Tracer,
    tally: &mut Tally,
    base: &Reference,
    delta: &ProblemDelta,
) -> Result<(Placements, f64), String> {
    let problem = Problem::assume_validated(&base.graph, &base.system);
    let update = tracer
        .time("delta.apply", || problem.apply(delta))
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let warm = tracer
        .time("resolve.resolve", || {
            base.solution
                .resolve_onto(&update, &SolveOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let (g, s) = (update.graph(), update.system());
    check_valid(tracer, &warm.schedule, g, s)?;
    if tracer.is_on() {
        tally_resolve(tally, &update, &warm, secs);
    }
    Ok((placements(&warm.schedule, g), lower_bound(g, s)))
}

/// Everything set up before the measured phase: the repeated problems, the deltas,
/// the daemon with its cache filled, and the connections with their base sessions.
struct Mix {
    pool: Vec<Entry>,
    /// Encoded deltas on the base problem, with the placements and lower bound of
    /// their in-process resolve.
    deltas: Vec<(String, Placements, f64)>,
    daemon: Daemon,
    /// One connection per closed-loop client, each holding its finished base session.
    clients: Vec<(Client, u64)>,
}

fn pool_size(settings: &Settings) -> usize {
    if settings.tiny {
        6
    } else {
        24
    }
}

/// Task count at position `u` ∈ [0, 1] of an algorithm's size range: 20–200 for BSA,
/// 20–100 for the list schedulers, whose cost grows fastest with graph density (DLS
/// takes seconds on a 200-task random graph, BSA tens of milliseconds).
fn tasks_for(settings: &Settings, algo: &str, u: f64) -> usize {
    let max = match (settings.tiny, algo) {
        (true, _) => 40,
        (false, "bsa") => 200,
        (false, _) => 100,
    };
    20 + ((max - 20) as f64 * u).round() as usize
}

fn mix_seed(settings: &Settings, stream: u64) -> u64 {
    settings.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

fn setup(settings: &Settings, report: &mut Report, attempt: usize) -> Result<Mix, String> {
    let (tracer, tally) = (&mut report.tracer, &mut report.tally);
    let n = pool_size(settings);
    let per_algo = n / ALGOS.len();
    let mut pool = Vec::with_capacity(n);
    for j in 0..n {
        // Each algorithm gets `per_algo` problems with sizes stratified over its range,
        // alternating random and regular graphs.  Like the library workloads' instances
        // the pool is pinned: `--seed` varies the op order and the first-seen problems.
        let algo = ALGOS[j % ALGOS.len()];
        let k = j / ALGOS.len();
        let tasks = tasks_for(settings, algo, k as f64 / (per_algo - 1) as f64);
        let topology = instance::small_topology(j);
        let seed = POOL_SEED ^ j as u64;
        let (graph, system) = if k.is_multiple_of(2) {
            instance::random_on(tasks, topology, seed)
        } else {
            instance::regular_on(tasks, topology, seed)
        };
        let problem = instance::encode_problem(&graph, &system);
        let reference = solve_reference(tracer, tally, &problem, algo, RoutePolicy::ShortestHop)
            .map_err(|e| format!("pool problem {j}: {e}"))?;
        pool.push(Entry {
            line: submit_line(&problem, algo, RoutePolicy::ShortestHop),
            reference,
        });
    }
    // The delta base is the pool's middle BSA problem; its deltas alternate task-cost
    // and edge-weight changes with targets at the middle of equal slices of the ids.
    let base = (0..n)
        .step_by(ALGOS.len())
        .nth(per_algo / 2)
        .expect("pool has BSA problems");
    let reference = &pool[base].reference;
    let mut deltas = Vec::with_capacity(DELTAS_PER_BASE);
    for k in 0..DELTAS_PER_BASE {
        let u = (k as f64 + 0.5) / DELTAS_PER_BASE as f64;
        let mut delta = ProblemDelta::new();
        if k % 2 == 0 {
            let t = TaskId((u * reference.graph.num_tasks() as f64) as u32);
            delta.set_task_cost(t, reference.graph.task(t).nominal_cost * 2.0);
        } else {
            let e = EdgeId((u * reference.graph.num_edges() as f64) as u32);
            delta.set_edge_weight(e, reference.graph.edge(e).nominal_cost * 3.0);
        }
        let (placements, bound) = resolve_reference(tracer, tally, reference, &delta)
            .map_err(|e| format!("delta {k}: {e}"))?;
        deltas.push((wire::encode_delta(&delta).to_json(), placements, bound));
    }
    let daemon = Daemon::spawn(settings, attempt)?;
    // Warm-up pass: every pool problem once, so the measured repeats hit the cache.
    let mut client = daemon.connect()?;
    let mut warm = Tracer::new(false, Instant::now());
    for (j, entry) in pool.iter().enumerate() {
        let (end, _) = client.session(&entry.line, &mut warm)?;
        check_end(&end, &entry.reference.placements).map_err(|e| format!("warm-up {j}: {e}"))?;
    }
    // Each connection submits the base once and never releases it, so its deltas can
    // warm-start from a finished session of its own.
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut client = daemon.connect()?;
        let id = client.submit(&pool[base].line)?;
        let end = client.attach(id, &mut warm)?;
        check_end(&end, &pool[base].reference.placements).map_err(|e| format!("base: {e}"))?;
        clients.push((client, id));
    }
    Ok(Mix {
        pool,
        deltas,
        daemon,
        clients,
    })
}

/// Checks an `end` record: a successful result whose placements equal `want`.
/// Returns the schedule length.
fn check_end(end: &Value, want: &Placements) -> Result<f64, String> {
    let (got, length) = end_answer(end)?;
    if got == *want {
        Ok(length)
    } else {
        Err("placements differ from the in-process solve".into())
    }
}

fn end_answer(end: &Value) -> Result<(Placements, f64), String> {
    if end.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("session failed: {}", end.to_json()));
    }
    let result = end.get("result").ok_or("end record without result")?;
    let placements = wire_placements(result).ok_or("malformed placements")?;
    let length = result
        .get("schedule_length")
        .and_then(Value::as_f64)
        .ok_or("end record without schedule_length")?;
    Ok((placements, length))
}

/// The daemon child process.  Dropping it kills a daemon still running, reaps it and
/// removes its socket.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(settings: &Settings, attempt: usize) -> Result<Daemon, String> {
        let socket = settings
            .out_dir
            .join(format!("daemon-{}-{attempt}.sock", std::process::id()));
        let child = Command::new(&settings.daemon)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", settings.daemon.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("bsa-daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("bsa-daemon did not open its socket within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// `shutdown` over a fresh connection, then up to 10 s for the process to exit;
    /// `Drop` kills it if it has not.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.request("{\"cmd\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        reply.map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One protocol connection.  Counts the bytes it sends and receives.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    sent: usize,
    received: usize,
    line: String,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            sent: 0,
            received: 0,
            line: String::new(),
        };
        client.recv().map_err(std::io::Error::other)?; // the hello line
        Ok(client)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| e.to_string())?;
        self.sent += bytes.len();
        Ok(())
    }

    /// Reads one line into `self.line`.
    fn recv(&mut self) -> Result<(), String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        self.received += n;
        Ok(())
    }

    /// Sends one request and returns its `ok` reply.
    fn request(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        self.recv()?;
        let reply = json::parse(&self.line).map_err(|e| e.message)?;
        if reply.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(reply)
        } else {
            Err(format!("rejected: {}", self.line.trim()))
        }
    }

    /// Submits a `submit` or `delta` request and returns the new session's id.
    fn submit(&mut self, request: &str) -> Result<u64, String> {
        self.request(request)?
            .get("session")
            .and_then(Value::as_u64)
            .ok_or_else(|| "submit reply without a session id".to_string())
    }

    /// Attaches to a session and reads its stream up to the parsed `end` record.
    fn attach(&mut self, id: u64, tracer: &mut Tracer) -> Result<Value, String> {
        let t0 = Instant::now();
        self.request(&format!("{{\"cmd\":\"attach\",\"session\":{id}}}"))?;
        let mut first_event = None;
        loop {
            self.recv()?;
            if self.line.starts_with("{\"event\":\"end\"") {
                break;
            }
            first_event.get_or_insert_with(Instant::now);
        }
        let t1 = Instant::now();
        if let Some(first) = first_event {
            tracer.record("engine.first_event", t0, first);
        }
        tracer.record("engine.attach_to_end", t0, t1);
        let end = tracer.time("json.parse", || json::parse(&self.line));
        end.map_err(|e| e.message)
    }

    /// One op: submit (or delta) → attach → `end` → release.  Returns the parsed
    /// `end` record and the op's wall time.
    fn session(&mut self, request: &str, tracer: &mut Tracer) -> Result<(Value, f64), String> {
        let t0 = Instant::now();
        let id = self.submit(request)?;
        tracer.record("server.submit_ack", t0, Instant::now());
        let end = self.attach(id, tracer)?;
        self.request(&format!("{{\"cmd\":\"release\",\"session\":{id}}}"))?;
        Ok((end, t0.elapsed().as_secs_f64()))
    }
}

/// What one connection measured.
struct Connection {
    op_s: Vec<f64>,
    nsl: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    misses: Vec<Miss>,
    tally: Tally,
    tracer: Tracer,
}

/// Op kinds of one block, in a seeded order: one miss, one delta, the rest hits.
fn block_kinds(rng: &mut StdRng) -> Vec<u8> {
    let mut kinds = vec![b'h'; BLOCK];
    kinds[0] = b'm';
    kinds[1] = b'd';
    kinds.shuffle(rng);
    kinds
}

fn drive(
    settings: &Settings,
    mix: &Mix,
    c: usize,
    (mut client, base): (Client, u64),
    traced: bool,
    deadline: Instant,
    origin: Instant,
) -> Connection {
    let mut conn = Connection {
        op_s: Vec::new(),
        nsl: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        misses: Vec::new(),
        tally: Tally::default(),
        tracer: Tracer::new(traced, origin),
    };
    let mut rng = StdRng::seed_from_u64(mix_seed(settings, 0xC0 + c as u64));
    let mut hits: Vec<usize> = (0..mix.pool.len()).collect();
    hits.shuffle(&mut rng);
    let mut kinds = Vec::new();
    let (mut i, mut n_hit, mut n_miss, mut n_delta) = (0usize, 0usize, 0usize, 0usize);
    while Instant::now() < deadline {
        if kinds.is_empty() {
            kinds = block_kinds(&mut rng);
        }
        let kind = kinds.pop().expect("refilled above");
        conn.tracer.set_op(((c as u64) << 32) | i as u64);
        i += 1;
        conn.attempted += 1;
        // Each op has a request line and either a known answer or a first-seen
        // problem to check after the measured phase.
        let (line, known) = match kind {
            b'h' => {
                let entry = &mix.pool[hits[n_hit % hits.len()]];
                n_hit += 1;
                let reference = &entry.reference;
                let known = Ok((&reference.placements, reference.bound));
                (Cow::Borrowed(entry.line.as_str()), known)
            }
            b'd' => {
                let (delta, want, bound) = &mix.deltas[n_delta % DELTAS_PER_BASE];
                n_delta += 1;
                let line = format!("{{\"cmd\":\"delta\",\"session\":{base},\"delta\":{delta}}}");
                (Cow::Owned(line), Ok((want, *bound)))
            }
            _ => {
                let wide = n_miss % 2 == 0;
                let pick = n_miss / 2;
                // Sizes follow a low-discrepancy sequence over the algorithm's range.
                let u = (pick as f64 * 0.618_033_988_749_895).fract();
                let spec = MissSpec {
                    wide,
                    tasks: if wide {
                        20
                    } else {
                        tasks_for(settings, ALGOS[pick % ALGOS.len()], u)
                    },
                    pick,
                    seed: mix_seed(settings, ((c as u64 + 1) << 40) | n_miss as u64),
                };
                n_miss += 1;
                let line = submit_line(&spec.problem(), spec.algo(), spec.policy());
                (Cow::Owned(line), Err(spec))
            }
        };
        let (sent, received) = (client.sent, client.received);
        let (end, secs) = match client.session(&line, &mut conn.tracer) {
            Ok(done) => done,
            Err(e) => {
                // A refused request or a broken connection ends this client's loop.
                conn.failures.push(format!("connection {c} op {i}: {e}"));
                break;
            }
        };
        conn.tally
            .add("wire.request_bytes", (client.sent - sent) as f64);
        conn.tally
            .add("wire.response_bytes", (client.received - received) as f64);
        match known {
            Ok((want, bound)) => match check_end(&end, want) {
                Ok(length) => {
                    conn.op_s.push(secs);
                    conn.nsl.push(length / bound);
                }
                Err(e) => conn.failures.push(format!("connection {c} op {i}: {e}")),
            },
            Err(spec) => {
                conn.op_s.push(secs);
                let answer = end_answer(&end);
                conn.misses.push(Miss { spec, answer });
            }
        }
    }
    conn
}

pub fn run(settings: &Settings, report: &mut Report) {
    if let Err(e) = std::fs::create_dir_all(&settings.out_dir) {
        report.attempted += 1;
        report
            .failures
            .push(format!("cannot create {}: {e}", settings.out_dir.display()));
        return;
    }
    let mut mix: Option<Mix> = None;
    for attempt in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let built = setup(settings, report, attempt);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        let shut = match built {
            Ok(built) => mix
                .replace(built)
                .map_or(Ok(()), |old| old.daemon.shutdown()),
            Err(e) => Err(e),
        };
        if let Err(e) = shut {
            report.attempted += 1;
            report.failures.push(format!("setup {attempt}: {e}"));
            return;
        }
    }
    let mut mix = mix.expect("setup ran");
    let clients = std::mem::take(&mut mix.clients);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(settings.seconds);
    let traced = report.tracer.is_on();
    let conns: Vec<Connection> = std::thread::scope(|scope| {
        let mix = &mix;
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                // Traced runs trace connection 0 only; connection 1 is the untraced
                // baseline for the tracing overhead.
                let traced = traced && c == 0;
                scope.spawn(move || drive(settings, mix, c, client, traced, deadline, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    report.measured_s = origin.elapsed().as_secs_f64();

    let mut misses = Vec::new();
    for (c, conn) in conns.into_iter().enumerate() {
        report.attempted += conn.attempted;
        report.failures.extend(conn.failures);
        report.nsl.extend(conn.nsl);
        report.tally.merge(conn.tally);
        report.tracer.absorb(conn.tracer);
        if traced && c == 0 {
            report.traced_op_s.extend(conn.op_s);
        } else {
            report.op_s.extend(conn.op_s);
        }
        misses.extend(conn.misses);
    }

    // First-seen problems are checked after the measured phase: how many there are
    // depends on how many ops the run completed.
    for miss in misses {
        let problem = miss.spec.problem();
        let reference = solve_reference(
            &mut report.tracer,
            &mut report.tally,
            &problem,
            miss.spec.algo(),
            miss.spec.policy(),
        );
        let verdict = reference.and_then(|r| {
            let (got, length) = miss.answer.clone()?;
            if got == r.placements {
                report.nsl.push(length / r.bound);
                Ok(())
            } else {
                Err("placements differ from the in-process solve".to_string())
            }
        });
        if let Err(e) = verdict {
            report
                .failures
                .push(format!("miss ({} tasks): {e}", miss.spec.tasks));
        }
    }

    match mix
        .daemon
        .connect()
        .and_then(|mut c| c.request("{\"cmd\":\"status\"}"))
    {
        Ok(reply) => record_status(report, &reply),
        Err(e) => report.failures.push(format!("status: {e}")),
    }
    report.peak_rss_mb = peak_rss_mb(&mix.daemon.child.id().to_string()).unwrap_or(0.0);
    if let Err(e) = mix.daemon.shutdown() {
        report.failures.push(format!("shutdown: {e}"));
    }
}

/// Engine counters, cache hit shares and re-timing totals from the daemon's `status`
/// reply.  The daemon's retime totals, per completed session, replace those of the
/// in-process reference solves: they are weighted by the daemon's real op mix.
fn record_status(report: &mut Report, reply: &Value) {
    let status = reply.get("status");
    let num = |path: &[&str]| {
        let mut v = status;
        for key in path {
            v = v.and_then(|v| v.get(key));
        }
        v.and_then(Value::as_f64).unwrap_or(0.0)
    };
    let frac = |shard: &str| {
        let hits = num(&["cache", shard, "hits"]);
        let misses = num(&["cache", shard, "misses"]);
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let tally = &mut report.tally;
    tally.add("engine.completed", num(&["counters", "completed"]));
    tally.add(
        "engine.rejected",
        num(&["counters", "rejected_saturated"]) + num(&["counters", "rejected_client_limit"]),
    );
    tally.add("cache.problem_hit_frac", frac("problems"));
    tally.add("cache.routing_hit_frac", frac("routing"));
    let completed = num(&["counters", "completed"]).max(1.0);
    let per_session =
        |keys: &[&str]| keys.iter().map(|k| num(&["retime", k])).sum::<f64>() / completed;
    tally.replace("retime.passes", per_session(&["passes"]));
    tally.replace("retime.delta_passes", per_session(&["delta_passes"]));
    tally.replace(
        "retime.flat_passes",
        per_session(&["flat_by_seeds", "flat_by_model", "flat_by_cap"]),
    );
    tally.replace("retime.cone_nodes", per_session(&["cone_nodes"]));
    tally.replace("retime.changed_nodes", per_session(&["changed_nodes"]));
    tally.replace("retime.delta_evals", per_session(&["delta_evals"]));
}
