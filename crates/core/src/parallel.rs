//! Deterministic concurrent neighbourhood evaluation (DESIGN.md §12).
//!
//! BSA's inner loop is dominated by candidate evaluation: for every considered task,
//! every neighbour of the pivot is priced read-only ([`crate::bsa::NeighborPricer`]).
//! The candidates are independent *reads* of the same schedule state, so they
//! parallelise — but commits mutate the [`ScheduleBuilder`], so each worker prices on
//! its own copy.
//!
//! The [`Crew`] solves this with **mirror builders**: each worker thread owns a full
//! clone of the builder, taken once right after serialization, and keeps it
//! byte-identical to the main builder by replaying every *committed* migration
//! (rolled-back attempts are never broadcast — the kernel's byte-exact rollback means
//! the main builder ends such attempts in the state the mirrors already hold).  A
//! candidate priced on a mirror therefore returns exactly the finish time the main
//! builder would compute, and the main thread alone commits the serial winner — so
//! schedules are **bit-identical at any thread count**, which the `parallel_solve`
//! integration tests pin.
//!
//! Work is split by contiguous neighbour-index chunks: the main thread prices the
//! first chunk on the real builder while the workers price theirs on mirrors, and the
//! per-worker command channels are FIFO, so replays always land before the evals that
//! depend on them.  Per-thread work is surfaced as
//! [`ThreadStats`](bsa_schedule::solver::ThreadStats) in the solve trace.

use crate::bsa::{migrate, NeighborPricer};
use crate::config::{BsaConfig, RetimingMode};
use bsa_network::{CommModel, ProcId};
use bsa_schedule::solver::{RetimeTotals, ThreadStats};
use bsa_schedule::ScheduleBuilder;
use bsa_taskgraph::{TaskGraph, TaskId};
use std::sync::mpsc;

/// A command sent from the main thread to one evaluation worker.
enum Cmd {
    /// Price task `t`'s migration from `pivot` onto the pivot's neighbours with
    /// indices `lo..hi` (into `topology.neighbors(pivot)`), on the worker's mirror.
    Eval {
        t: TaskId,
        pivot: ProcId,
        lo: usize,
        hi: usize,
    },
    /// A migration was committed on the main builder: apply the identical migration
    /// (and re-timing) to the mirror so it stays byte-identical.
    Replay {
        t: TaskId,
        pivot: ProcId,
        py: ProcId,
    },
    /// Drain and exit, reporting the worker's [`ThreadStats`].
    Finish,
}

/// A worker's answer to the main thread.
enum Reply {
    /// `(neighbour index, finish-time estimate)` pairs of one [`Cmd::Eval`].
    Evals(Vec<(usize, f64)>),
    /// The worker's final counters, sent once in response to [`Cmd::Finish`].
    Stats(ThreadStats),
}

/// The evaluation crew of one parallel BSA solve: `threads - 1` workers, each owning
/// a mirror [`ScheduleBuilder`], plus the channels to command them.  Spawned inside a
/// [`std::thread::scope`] so the mirrors may borrow the problem.
pub(crate) struct Crew {
    workers: Vec<mpsc::Sender<Cmd>>,
    replies: mpsc::Receiver<Reply>,
}

impl Crew {
    /// Spawns one worker per mirror builder inside `scope`.  The mirrors must be
    /// clones of the main builder taken at the current committed state.
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        mirrors: Vec<ScheduleBuilder<'env>>,
        graph: &'env TaskGraph,
        cfg: &'env BsaConfig,
        comm: Option<&'env CommModel>,
    ) -> Crew {
        let (reply_tx, replies) = mpsc::channel::<Reply>();
        let mut workers = Vec::with_capacity(mirrors.len());
        for (w, mut mirror) in mirrors.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let reply_tx = reply_tx.clone();
            scope.spawn(move || {
                let mut stats = ThreadStats {
                    thread: w + 1,
                    evals: 0,
                    replays: 0,
                    retime: RetimeTotals::default(),
                };
                let mut pricer = NeighborPricer::new();
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Eval { t, pivot, lo, hi } => {
                            let mut results = Vec::with_capacity(hi - lo);
                            for i in lo..hi {
                                let (py, _link) = mirror.system().topology.neighbors(pivot)[i];
                                let ft = pricer.estimate(&mirror, t, pivot, py, cfg, comm);
                                stats.evals += 1;
                                results.push((i, ft));
                            }
                            if reply_tx.send(Reply::Evals(results)).is_err() {
                                break;
                            }
                        }
                        Cmd::Replay { t, pivot, py } => {
                            migrate(&mut mirror, graph, t, pivot, py, cfg, comm, &mut pricer);
                            match cfg.retiming {
                                RetimingMode::Incremental => {
                                    let s = mirror.recompute_times_incremental().expect(
                                        "replaying a committed migration on a byte-identical \
                                         mirror cannot fail",
                                    );
                                    stats.retime.absorb(&s);
                                }
                                RetimingMode::Full => {
                                    mirror.recompute_times().expect(
                                        "replaying a committed migration on a byte-identical \
                                         mirror cannot fail",
                                    );
                                }
                            }
                            stats.replays += 1;
                        }
                        Cmd::Finish => {
                            let _ = reply_tx.send(Reply::Stats(stats));
                            break;
                        }
                    }
                }
            });
            workers.push(cmd_tx);
        }
        Crew { workers, replies }
    }

    /// Prices task `t`'s migration onto every neighbour of `pivot`, filling `out`
    /// with one finish-time estimate per neighbour index.
    ///
    /// The main thread prices the first contiguous chunk on the real `builder`
    /// (read-only, exactly as the serial path) while the workers price
    /// the remaining chunks on their mirrors; because the mirrors are byte-identical
    /// the merged estimates equal what the serial loop would compute.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate(
        &mut self,
        builder: &ScheduleBuilder<'_>,
        t: TaskId,
        pivot: ProcId,
        cfg: &BsaConfig,
        comm: Option<&CommModel>,
        pricer: &mut NeighborPricer,
        num_neighbors: usize,
        out: &mut Vec<f64>,
        main_stats: &mut ThreadStats,
    ) {
        let k = num_neighbors;
        out.clear();
        out.resize(k, 0.0);
        let threads = self.workers.len() + 1;
        let chunk = k.div_ceil(threads);
        // The main thread takes chunk 0 — for small fan-outs (k <= chunk) no worker
        // round-trip happens at all and the cost equals the serial path.
        let mut expected = 0usize;
        for (w, tx) in self.workers.iter().enumerate() {
            let lo = ((w + 1) * chunk).min(k);
            let hi = ((w + 2) * chunk).min(k);
            if lo >= hi {
                break;
            }
            tx.send(Cmd::Eval { t, pivot, lo, hi })
                .expect("evaluation worker exited early");
            expected += 1;
        }
        for (i, slot) in out.iter_mut().enumerate().take(chunk.min(k)) {
            let (py, _link) = builder.system().topology.neighbors(pivot)[i];
            *slot = pricer.estimate(builder, t, pivot, py, cfg, comm);
            main_stats.evals += 1;
        }
        for _ in 0..expected {
            match self.replies.recv().expect("evaluation worker exited early") {
                Reply::Evals(results) => {
                    for (i, ft) in results {
                        out[i] = ft;
                    }
                }
                Reply::Stats(_) => unreachable!("stats arrive only after Finish"),
            }
        }
    }

    /// Broadcasts a committed migration so every mirror replays it.
    pub(crate) fn replay(&mut self, t: TaskId, pivot: ProcId, py: ProcId) {
        for tx in &self.workers {
            tx.send(Cmd::Replay { t, pivot, py })
                .expect("evaluation worker exited early");
        }
    }

    /// Stops every worker and collects their [`ThreadStats`], ordered by thread
    /// index.
    pub(crate) fn finish(self) -> Vec<ThreadStats> {
        for tx in &self.workers {
            let _ = tx.send(Cmd::Finish);
        }
        let mut stats: Vec<ThreadStats> = Vec::with_capacity(self.workers.len());
        for _ in 0..self.workers.len() {
            match self.replies.recv() {
                Ok(Reply::Stats(s)) => stats.push(s),
                Ok(Reply::Evals(_)) => unreachable!("no eval is in flight at finish"),
                Err(_) => break,
            }
        }
        stats.sort_by_key(|s| s.thread);
        stats
    }
}
