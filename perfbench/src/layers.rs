//! The traced run (`--trace 1`) and the per-layer metrics.
//!
//! The benchmark runs each cell itself, through the same public calls a
//! campaign worker makes, with a span around every call into a layer and
//! `relief-trace` sinks attached through `SocSim::with_tracer`: the
//! `CountersSink` on every cell, a small fold of DMA events on every
//! cell, and a `RingBufferSink` on one representative cell whose event
//! streams are then replayed through each layer's public API in
//! isolation to give ns per operation. No tracing is added inside the
//! program. Untraced passes alternate with traced ones so the tracing
//! overhead is measured, and kept out of every end-to-end number.

use crate::digest::cell_digest;
use crate::measure::{self, check_cells, run_pass, Metric, Report, ScratchCache};
use crate::spans::{self, Span, SpanLog};
use crate::stats::{mean, median, ns_per, ratio, Tally};
use crate::workload::Workload;
use relief_accel::{SimResult, SocSim};
use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{CampaignResults, Ctx, RunOutcome, RunRecord, RunSpec};
use relief_core::{PolicyKind, ReadyQueues, TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_mem::{MemConfig, Port, Progress, Route, TransferEngine, TransferId};
use relief_metrics::{reconcile, Histogram};
use relief_service::{AdmissionState, QosClass, StreamConfig, StreamPlan};
use relief_sim::{Dur, EventQueue, Time};
use relief_trace::{
    CountersSink, Endpoint, EventCounters, EventKind, RingBufferSink, ServiceClass, TraceEvent,
    TraceSink, Tracer,
};
use relief_workloads::App;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Events the representative cell's ring buffer keeps (the most recent).
const RING_CAP: usize = 1 << 19;

/// Repetitions of each replay; its ns/op is their median.
const REPLAY_REPS: usize = 5;

/// Pending events of the event-queue hold model.
const HOLD: usize = 64;

/// Folds the DMA events `CountersSink` does not: transfers started, the
/// chunks they need, and the time chunks waited for resources.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaFold {
    chunk_bytes: u64,
    /// `DmaStart` events.
    pub starts: u64,
    /// Chunks the started transfers are cut into.
    pub chunks: u64,
    /// `DmaEnd` events.
    pub ends: u64,
    /// Σ `DmaEnd.queued_ps`.
    pub queued_ps: u64,
}

impl TraceSink for DmaFold {
    fn emit(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::DmaStart { bytes, .. } => {
                self.starts += 1;
                self.chunks += bytes.div_ceil(self.chunk_bytes.max(1)).max(1);
            }
            EventKind::DmaEnd { queued_ps, .. } => {
                self.ends += 1;
                self.queued_ps += queued_ps;
            }
            _ => {}
        }
    }
}

/// What one traced cell produced.
struct CellOut {
    outcome: Result<RunRecord, String>,
    dma: DmaFold,
    instances: u64,
    ring: Option<Vec<TraceEvent>>,
}

/// Runs `f` over `0..n` on `jobs` workers, each with its own span log;
/// results come back in index order.
pub(crate) fn pool<T: Send>(
    n: usize,
    jobs: usize,
    origin: Instant,
    ids: &AtomicU32,
    f: impl Fn(usize, &mut SpanLog) -> T + Sync,
) -> (Vec<T>, Vec<Span>) {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let all_spans = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| {
                let mut log = SpanLog::new(origin, ids.fetch_add(1, Ordering::Relaxed) << 20);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, &mut log);
                    *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                }
                all_spans
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(log.into_spans());
            });
        }
    });
    let out = slots
        .into_iter()
        .filter_map(|s| s.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .collect();
    (out, all_spans.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One cell under spans: build the applications, construct and run the
/// simulator with the sinks attached, reconcile, store in the cache.
fn traced_cell(spec: &RunSpec, i: usize, ring: bool, cache: &CacheConfig, log: &mut SpanLog) -> CellOut {
    let cell = Some(i as u32);
    log.scope("cell", cell, |log| {
        let cfg = spec.config();
        let truncated = cfg.time_limit.is_some();
        let instances = cfg.total_instances() as u64;
        let apps = log.scope("workloads.build", cell, |_| spec.apps());
        let counters = CountersSink::shared();
        let dma = Rc::new(RefCell::new(DmaFold { chunk_bytes: cfg.mem.chunk_bytes, ..DmaFold::default() }));
        let ring = ring.then(|| RingBufferSink::shared(RING_CAP));
        let mut tracer = Tracer::off();
        tracer.attach(counters.clone());
        tracer.attach(dma.clone());
        if let Some(r) = &ring {
            tracer.attach(r.clone());
        }
        let run = log.scope("accel.new", cell, |_| {
            catch_unwind(AssertUnwindSafe(|| SocSim::new(cfg, apps).with_tracer(&tracer)))
        });
        let run = run.map_err(panic_message).and_then(|sim| {
            log.scope("accel.run", cell, |_| catch_unwind(AssertUnwindSafe(|| sim.try_run())))
                .map_err(panic_message)?
                .map_err(|stall| stall.to_string())
        });
        let outcome = run.map(|result: SimResult| {
            let counters: EventCounters = counters.borrow().counters().clone();
            let mismatches = log.scope("metrics.reconcile", cell, |_| {
                if truncated { Vec::new() } else { reconcile(&counters, &result.stats) }
            });
            let rec = RunRecord { result, counters, mismatches, trace_text: None };
            log.scope("bench.cache_store", cell, |_| cache.store(spec, &rec));
            rec
        });
        let dma = *dma.borrow();
        CellOut { outcome, dma, instances, ring: ring.map(|r| r.borrow_mut().take()) }
    })
}

/// One traced pass.
struct TracedPass {
    cells: Vec<CellOut>,
    spans: Vec<Span>,
    grid_ns: u64,
    lookups: u64,
    hits: u64,
    /// `(expansions, won by search)` per oracle scenario.
    oracle: Vec<(u64, bool)>,
    wall_s: f64,
}

fn traced_pass(
    w: Workload,
    specs: &[RunSpec],
    rep: Option<usize>,
    jobs: usize,
    origin: Instant,
    ids: &AtomicU32,
) -> TracedPass {
    let scratch = ScratchCache::fresh();
    let cache = &scratch.cache;
    let t0 = Instant::now();
    let (cells, mut spans) = pool(specs.len(), jobs, origin, ids, |i, log| {
        traced_cell(&specs[i], i, rep == Some(i), cache, log)
    });
    let grid_ns = t0.elapsed().as_nanos() as u64;
    let (warm, warm_spans) = pool(specs.len(), jobs, origin, ids, |i, log| {
        log.scope("bench.cache_lookup", Some(i as u32), |_| cache.lookup(&specs[i]))
            .map(|rec| cell_digest(&rec.result))
    });
    spans.extend(warm_spans);
    let hits = warm
        .iter()
        .zip(&cells)
        .filter(|(w, c)| matches!((w, &c.outcome), (Some(d), Ok(rec)) if *d == cell_digest(&rec.result)))
        .count() as u64;
    let mut oracle = Vec::new();
    if w == Workload::PaperGrid {
        let outcomes = specs
            .iter()
            .zip(&cells)
            .map(|(spec, c)| RunOutcome {
                label: spec.label(),
                spec: spec.clone(),
                outcome: c.outcome.clone(),
            })
            .collect();
        let results = CampaignResults { outcomes, cache_hits: 0, simulated: specs.len() };
        let ctx = Ctx::from_results(&results);
        let mut log = SpanLog::new(origin, ids.fetch_add(1, Ordering::Relaxed) << 20);
        log.scope("bench.render", None, |_| black_box(measure::render_artifacts(&ctx, cache)));
        spans.extend(log.into_spans());
        let (solved, oracle_spans) = pool(App::ALL.len(), jobs, origin, ids, |i, log| {
            let app = App::ALL[i];
            let res = log.scope("oracle.solve", None, |_| relief_bench::oracle::solve_solo(app));
            let apps = vec![relief_accel::AppSpec::once(app.symbol(), app.dag())];
            log.scope("oracle.replay", None, |_| black_box(res.replay(relief_accel::SocConfig::mobile, &apps)));
            (res.expansions, res.from_search)
        });
        spans.extend(oracle_spans);
        oracle = solved;
    }
    TracedPass {
        cells,
        spans,
        grid_ns,
        lookups: specs.len() as u64,
        hits,
        oracle,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Σ of span durations by name within a pass, with call counts.
fn span_sum(spans: &[Span], name: &str) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0), |(n, t), s| (n + 1, t + s.duration_ns() as f64))
}

/// Median over repetitions of `f`'s wall time divided by the op count it
/// returns, in ns per op; 0 when it performs no operations.
fn replay_ns(f: impl Fn() -> u64) -> (f64, u64) {
    let mut per_op = Vec::with_capacity(REPLAY_REPS);
    let mut ops = 0;
    for _ in 0..REPLAY_REPS {
        let t = Instant::now();
        ops = f();
        per_op.push(ns_per(t.elapsed().as_nanos() as f64, ops));
    }
    (median(&per_op), ops)
}

/// Event-queue hold model over the traced dispatch times: `HOLD` events
/// pending; each dispatched event is replaced by the next traced time.
pub fn replay_queue(times: &[u64]) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let hold = HOLD.min(times.len());
    for (i, &at) in times[..hold].iter().enumerate() {
        q.push(Time::from_ps(at), i as u32);
    }
    let mut next = hold;
    let mut out = Vec::new();
    let mut popped = 0;
    while let Some(at) = q.pop_cohort(&mut out) {
        for _ in 0..out.len() {
            q.mark_dispatched(at);
            popped += 1;
            if let Some(&t) = times.get(next) {
                q.push(Time::from_ps(t), next as u32);
                next += 1;
            }
        }
    }
    popped
}

/// A ready-queue operation of the replay.
#[derive(Debug, Clone, Copy)]
pub enum QueueOp {
    /// A task became ready.
    Insert(TaskEntry),
    /// The manager dispatched the head of a queue.
    Pop(AccTypeId),
}

/// Turns the traced TaskReady→TaskDispatched order into queue operations:
/// each ready task is keyed by its dispatch rank, so popping the queue
/// head reproduces the traced dispatch order. Returns the operations and
/// the number of accelerator types.
pub fn queue_ops(events: &[TraceEvent]) -> (Vec<QueueOp>, usize) {
    let key = |t: relief_trace::TaskRef| (t.instance, t.node);
    let mut ranks: HashMap<(u32, u32), VecDeque<u64>> = HashMap::new();
    let mut rank = 0u64;
    for ev in events {
        if let EventKind::TaskDispatched { task, .. } = &ev.kind {
            ranks.entry(key(*task)).or_default().push_back(rank);
            rank += 1;
        }
    }
    let mut ops = Vec::new();
    let mut pending: HashMap<(u32, u32), u32> = HashMap::new();
    let mut types = 0;
    let mut undispatched = 1u64 << 62;
    for ev in events {
        match &ev.kind {
            EventKind::TaskReady { task, acc } => {
                let seq = ranks.get_mut(&key(*task)).and_then(VecDeque::pop_front).unwrap_or_else(|| {
                    undispatched += 1;
                    undispatched
                });
                let entry = TaskEntry::new(TaskKey::new(task.instance, task.node), AccTypeId(*acc), Dur::ZERO, Time::ZERO)
                    .with_seq(seq);
                ops.push(QueueOp::Insert(entry));
                pending.insert(key(*task), *acc);
                types = types.max(*acc as usize + 1);
            }
            EventKind::TaskDispatched { task, .. } => {
                if let Some(acc) = pending.remove(&key(*task)) {
                    ops.push(QueueOp::Pop(AccTypeId(acc)));
                }
            }
            _ => {}
        }
    }
    (ops, types)
}

/// Plays queue operations through `ReadyQueues`; returns the popped keys.
pub fn replay_ready_queues(ops: &[QueueOp], types: usize) -> Vec<TaskKey> {
    let mut q = ReadyQueues::new(types.max(1));
    let mut popped = Vec::with_capacity(ops.len() / 2);
    for op in ops {
        match *op {
            QueueOp::Insert(e) => q.insert_sorted(e, |e| e.seq as i128),
            QueueOp::Pop(acc) => {
                if let Some(e) = q.pop_front(acc) {
                    popped.push(e.key);
                }
            }
        }
    }
    popped
}

/// A traced transfer start.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    at_ps: u64,
    route: Route,
    bytes: u64,
    dma: usize,
}

fn port(e: Endpoint) -> Port {
    match e {
        Endpoint::Dram => Port::Dram,
        Endpoint::Spad(i) => Port::Spad(i as usize),
    }
}

/// The traced `DmaStart` stream.
pub fn transfer_starts(events: &[TraceEvent]) -> Vec<Start> {
    events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::DmaStart { dma, src, dst, bytes, .. } => Some(Start {
                at_ps: ev.at_ps,
                route: Route { src: port(src), dst: port(dst) },
                bytes,
                dma: dma as usize,
            }),
            _ => None,
        })
        .collect()
}

/// Plays the transfer starts through a fresh `TransferEngine`, driving
/// every chunk to completion in time order. Returns the chunks issued.
pub fn replay_transfers(starts: &[Start], mem: MemConfig, dmas: usize) -> u64 {
    let mut engine = TransferEngine::new(mem, dmas);
    let mut ids: Vec<TransferId> = Vec::with_capacity(starts.len());
    let mut due: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut next = 0;
    let mut chunks = 0;
    loop {
        let start_first = match (starts.get(next), due.peek()) {
            (Some(s), Some(Reverse((t, _)))) => s.at_ps <= *t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if start_first {
            let s = starts[next];
            next += 1;
            let (id, first) = engine.begin(s.route, s.bytes, s.dma, Time::from_ps(s.at_ps));
            chunks += 1;
            ids.push(id);
            due.push(Reverse((first.as_ps(), ids.len() - 1)));
        } else if let Some(Reverse((t, k))) = due.pop() {
            if let Progress::Chunk(end) = engine.on_chunk_done(ids[k], Time::from_ps(t)) {
                chunks += 1;
                due.push(Reverse((end.as_ps(), k)));
            }
        }
    }
    chunks
}

/// An admission-layer operation of the replay.
#[derive(Debug, Clone, Copy)]
pub enum AdmissionOp {
    /// Arrival `index` of `tenant` at `at_ps`.
    Arrive {
        /// Tenant index.
        tenant: u32,
        /// Per-tenant request index.
        index: u64,
        /// Arrival time.
        at_ps: u64,
        /// The tenant's class.
        class: QosClass,
    },
    /// An admitted request completed or timed out.
    Release,
}

/// The traced arrival/completion stream.
pub fn admission_ops(events: &[TraceEvent]) -> Vec<AdmissionOp> {
    let class = |c: ServiceClass| match c {
        ServiceClass::Latency => QosClass::Latency,
        ServiceClass::Standard => QosClass::Standard,
        ServiceClass::BestEffort => QosClass::BestEffort,
    };
    events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::StreamArrival { tenant, index, class: c } => {
                Some(AdmissionOp::Arrive { tenant, index, at_ps: ev.at_ps, class: class(c) })
            }
            EventKind::RequestCompleted { .. } | EventKind::RequestTimedOut { .. } => {
                Some(AdmissionOp::Release)
            }
            _ => None,
        })
        .collect()
}

/// Plays arrivals through `StreamPlan::gap_ps` (the next arrival's draw,
/// as the simulator schedules it) and `AdmissionState::try_admit`, and
/// completions through `release`. Returns the arrivals played.
pub fn replay_admission(ops: &[AdmissionOp], stream: &StreamConfig) -> u64 {
    let plan = StreamPlan::new(stream.clone());
    let mut adm = AdmissionState::new(stream);
    let mut arrivals = 0;
    for op in ops {
        match *op {
            AdmissionOp::Arrive { tenant, index, at_ps, class } => {
                black_box(plan.gap_ps(tenant, index + 1, at_ps));
                black_box(adm.try_admit(at_ps, tenant as usize, class).is_ok());
                arrivals += 1;
            }
            AdmissionOp::Release => adm.release(),
        }
    }
    arrivals
}

/// Records the traced sojourn samples into a histogram of the
/// simulator's layout. Returns the samples recorded.
pub fn replay_histogram(samples: &[u64], layout: &Histogram) -> u64 {
    let (bin_width, counts, ..) = layout.to_parts();
    let mut h = Histogram::new(bin_width, counts.len());
    for &s in samples {
        h.record(s);
    }
    black_box(h.count())
}

/// The representative cell whose event streams are replayed: the first
/// RELIEF cell (for `paper_grid`, its first continuous-contention mix, the
/// longest cells).
fn representative(w: Workload, specs: &[RunSpec]) -> usize {
    specs
        .iter()
        .position(|s| {
            s.policy == PolicyKind::Relief && (w.serving() || s.workload.label().starts_with("continuous/"))
        })
        .unwrap_or(0)
}

/// Per-layer ns/op from the representative cell's replays.
struct Replays {
    queue_ns: f64,
    ready_queue_ns: f64,
    transfer_ns: f64,
    admission_ns: f64,
    hist_ns: f64,
    note: String,
}

fn replays(events: &[TraceEvent], spec: &RunSpec, result: Option<&SimResult>) -> Replays {
    let cfg = spec.config();
    let times: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::EventDispatched { .. }))
        .map(|e| e.at_ps)
        .collect();
    let (queue_ns, queue_ops_n) = replay_ns(|| replay_queue(&times));
    let (ops, types) = queue_ops(events);
    let (ready_queue_ns, rq_ops) = replay_ns(|| {
        black_box(replay_ready_queues(&ops, types));
        ops.len() as u64
    });
    let starts = transfer_starts(events);
    let (transfer_ns, chunks) =
        replay_ns(|| replay_transfers(&starts, cfg.mem, cfg.total_instances()));
    let adm = admission_ops(events);
    let (admission_ns, arrivals) = replay_ns(|| replay_admission(&adm, &cfg.stream));
    let samples: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestCompleted { sojourn_ps, .. } => Some(sojourn_ps),
            _ => None,
        })
        .collect();
    let layout = result.map(|r| r.stats.service.classes[0].sojourn.clone()).unwrap_or_default();
    let (hist_ns, recorded) = replay_ns(|| replay_histogram(&samples, &layout));
    Replays {
        queue_ns,
        ready_queue_ns,
        transfer_ns,
        admission_ns,
        hist_ns,
        note: format!(
            "replayed from {} ({} events kept): {queue_ops_n} queue events, {rq_ops} ready-queue ops, \
             {chunks} chunks, {arrivals} arrivals, {recorded} sojourn samples",
            spec.label(),
            events.len()
        ),
    }
}

/// Counts from one traced pass, summed over its successful cells.
#[derive(Debug, Default)]
struct Counts {
    c: EventCounters,
    dma: DmaFold,
    scheduler_ops: u64,
    scheduler_time_us: f64,
    accel_busy_ps: f64,
    accel_capacity_ps: f64,
    dram_busy_ps: f64,
    icn_busy_ps: f64,
    exec_ps: f64,
    dram_read: u64,
    dram_write: u64,
    s2s: u64,
    live_high_water: u64,
    task_retries: u64,
    tasks_aborted: u64,
    faults: relief_metrics::FaultStats,
    arrivals: u64,
    admitted: u64,
    shed_bucket: u64,
    shed_capacity: u64,
    shed_breaker: u64,
    completed: u64,
    timed_out: u64,
    hedged: u64,
    latency_met: u64,
    latency_total: u64,
}

impl Counts {
    fn of(cells: &[CellOut]) -> Counts {
        let mut k = Counts::default();
        for cell in cells {
            let Ok(rec) = &cell.outcome else { continue };
            let (c, s) = (&rec.counters, &rec.result.stats);
            macro_rules! add {
                ($($f:ident),*) => { $(k.c.$f += c.$f;)* };
            }
            add!(events_dispatched, tasks_completed, forwards, colocations, dram_inputs,
                escalations_granted, escalations_denied, feasibility_pass, feasibility_fail,
                queue_bypasses, dma_cancels, breaker_opens);
            k.dma.starts += cell.dma.starts;
            k.dma.chunks += cell.dma.chunks;
            k.dma.ends += cell.dma.ends;
            k.dma.queued_ps += cell.dma.queued_ps;
            k.scheduler_ops += s.scheduler_ops;
            k.scheduler_time_us += s.scheduler_time.as_us_f64();
            let exec = s.exec_time.as_ps() as f64;
            k.accel_busy_ps += s.accel_busy.as_ps() as f64;
            k.accel_capacity_ps += exec * cell.instances as f64;
            k.dram_busy_ps += s.dram_busy.as_ps() as f64;
            k.icn_busy_ps += s.interconnect_busy.as_ps() as f64;
            k.exec_ps += exec;
            k.dram_read += s.traffic.dram_read_bytes;
            k.dram_write += s.traffic.dram_write_bytes;
            k.s2s += s.traffic.spad_to_spad_bytes;
            k.live_high_water = k.live_high_water.max(rec.result.live_high_water);
            k.task_retries += s.faults.task_retries;
            k.tasks_aborted += s.faults.tasks_aborted;
            k.faults.task_faults += s.faults.task_faults;
            k.faults.dma_faults += s.faults.dma_faults;
            k.faults.ecc_faults += s.faults.ecc_faults;
            k.faults.forward_invalidations += s.faults.forward_invalidations;
            k.faults.channel_outages += s.faults.channel_outages;
            let svc = &s.service;
            k.arrivals += svc.arrivals();
            k.admitted += svc.admitted();
            k.shed_bucket += svc.shed_bucket();
            k.shed_capacity += svc.shed_capacity();
            k.shed_breaker += svc.shed_breaker();
            k.completed += svc.completed();
            k.timed_out += svc.timed_out();
            k.hedged += svc.hedged();
            if svc.arrivals() > 0 {
                k.latency_met += svc.classes[0].dag_deadlines_met;
                k.latency_total += svc.classes[0].arrivals;
            } else {
                k.latency_met += s.apps.values().map(|a| a.dag_deadlines_met).sum::<u64>();
                k.latency_total += s.apps.values().map(|a| a.dags_completed).sum::<u64>();
            }
        }
        k
    }
}

/// Per-pass host timings, from spans.
#[derive(Debug, Default, Clone)]
struct Timings {
    new_us: f64,
    run_ns_per_event: f64,
    run_ns: f64,
    reconcile_us: f64,
    build_us: f64,
    store_us: f64,
    lookup_us: f64,
    render_ms: f64,
    solve_ms: f64,
    ns_per_expansion: f64,
    engine_overhead_pct: f64,
}

fn timings(p: &TracedPass, events: u64, jobs: usize) -> Timings {
    let mean = |name: &str, scale: f64| {
        let (n, t) = span_sum(&p.spans, name);
        ns_per(t, n) / scale
    };
    let (_, run_ns) = span_sum(&p.spans, "accel.run");
    let (_, cell_ns) = span_sum(&p.spans, "cell");
    let (solves, solve_ns) = span_sum(&p.spans, "oracle.solve");
    let expansions: u64 = p.oracle.iter().map(|o| o.0).sum();
    let capacity = jobs.min(p.cells.len()).max(1) as f64 * p.grid_ns as f64;
    Timings {
        new_us: mean("accel.new", 1e3),
        run_ns_per_event: ns_per(run_ns, events),
        run_ns,
        reconcile_us: mean("metrics.reconcile", 1e3),
        build_us: mean("workloads.build", 1e3),
        store_us: mean("bench.cache_store", 1e3),
        lookup_us: mean("bench.cache_lookup", 1e3),
        render_ms: span_sum(&p.spans, "bench.render").1 / 1e6,
        solve_ms: ns_per(solve_ns, solves) / 1e6,
        ns_per_expansion: ns_per(solve_ns, expansions),
        engine_overhead_pct: (capacity - cell_ns) / capacity * 100.0,
    }
}

/// Where the traced run writes its spans, relative to the repository root.
fn spans_path(w: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(measure::SCRATCH_DIR).join(format!("spans-{}-s{seed}.tsv", w.name()))
}

/// The `--trace 1` run.
pub fn traced(w: Workload, seed: u64, seconds: f64, jobs: usize, origin: Instant) -> Report {
    let specs = w.specs(seed);
    let rep = representative(w, &specs);
    let ids = AtomicU32::new(0);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut passes: Vec<TracedPass> = Vec::new();
    let mut all_spans = Vec::new();
    let mut calib_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while passes.len() < 2 || Instant::now() < deadline {
        let scratch = ScratchCache::fresh();
        let plain = run_pass(w, &specs, jobs, &scratch.cache);
        untraced_s.push(plain.wall_s);
        let p = traced_pass(w, &specs, passes.is_empty().then_some(rep), jobs, origin, &ids);
        traced_s.push(p.wall_s);
        errors.extend(check_cells(&plain, None, &mut tally));
        for (spec, cell) in specs.iter().zip(&p.cells) {
            let problem = match &cell.outcome {
                Err(e) => Some(format!("failed: {e}")),
                Ok(rec) if !rec.mismatches.is_empty() => Some(format!("reconciliation: {:?}", rec.mismatches)),
                Ok(rec) if plain.digests.cells.get(&spec.label()) != Some(&cell_digest(&rec.result)) => {
                    Some("traced run differs from the untraced run".to_string())
                }
                Ok(_) => None,
            };
            tally.record(problem.is_none());
            if let Some(e) = problem {
                errors.push(format!("traced {}: {e}", spec.label()));
            }
        }
        if p.hits != p.lookups {
            errors.push(format!("warm lookups answered {} of {} cells", p.hits, p.lookups));
        }
        all_spans.extend_from_slice(&p.spans);
        passes.push(p);
        calib_ms.push(crate::manifest::kernel_ms());
    }
    for (name, (calls, total, self_ns)) in spans::totals(&all_spans) {
        println!(
            "span {name:<20} calls {calls:>7}  total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let path = spans_path(w, seed);
    if std::fs::create_dir_all(measure::SCRATCH_DIR).is_ok() {
        let _ = std::fs::write(&path, spans::to_tsv(&all_spans));
    }
    let first = &passes[0];
    let k = Counts::of(&first.cells);
    let events = k.c.events_dispatched;
    let t: Vec<Timings> = passes.iter().map(|p| timings(p, events, jobs)).collect();
    // Means over passes, for the reason given at `measure::end_to_end`.
    let avg = |f: fn(&Timings) -> f64| mean(&t.iter().map(f).collect::<Vec<_>>());
    let rep_cell = &first.cells[rep];
    let ring = rep_cell.ring.as_deref().unwrap_or_default();
    let r = replays(ring, &specs[rep], rep_cell.outcome.as_ref().ok().map(|rec| &rec.result));
    let run_ns = avg(|t| t.run_ns);
    let explained = r.queue_ns * events as f64
        + r.ready_queue_ns * k.scheduler_ops as f64
        + r.transfer_ns * k.dma.chunks as f64
        + r.admission_ns * k.arrivals as f64
        + r.hist_ns * k.completed as f64;
    let overhead = (mean(&traced_s) - mean(&untraced_s)) / mean(&untraced_s) * 100.0;
    let solves = first.oracle.len() as u64;
    let won = first.oracle.iter().filter(|o| o.1).count() as u64;
    let expansions: u64 = first.oracle.iter().map(|o| o.0).sum();
    let grants = ratio(k.c.escalations_granted, k.c.escalations_granted + k.c.escalations_denied);
    let feasible = ratio(k.c.feasibility_pass, k.c.feasibility_pass + k.c.feasibility_fail);
    let useful = k.c.forwards + k.c.colocations;
    let fwd = ratio(useful, useful + k.c.dram_inputs);
    let admit = ratio(k.admitted, k.arrivals);
    let hit = ratio(first.hits, first.lookups);
    let pct = |num: f64, den: f64| if den > 0.0 { num / den * 100.0 } else { 0.0 };
    let mb = |b: u64| b as f64 / 1e6;
    let n = |v: u64| v as f64;
    let m = |name, unit, value, note: String| Metric { name, unit, value, note };
    let metrics = vec![
        m("sim.events", "count", n(events), String::new()),
        m("sim.queue_ns_per_event", "ns", r.queue_ns, r.note.clone()),
        m("accel.new_us", "us", avg(|t| t.new_us), "per SocSim::new".into()),
        m("accel.run_ns_per_event", "ns", avg(|t| t.run_ns_per_event), "SocSim::run time per event".into()),
        m("accel.tasks", "count", n(k.c.tasks_completed), String::new()),
        m("accel.fwd_coloc_ratio", "ratio", fwd.value, format!("{fwd} input edges")),
        m("accel.busy_pct", "%", pct(k.accel_busy_ps, k.accel_capacity_ps), "simulated".into()),
        m("accel.live_high_water", "count", n(k.live_high_water), String::new()),
        m("accel.task_retries", "count", n(k.task_retries), String::new()),
        m("accel.tasks_aborted", "count", n(k.tasks_aborted), String::new()),
        m("core.scheduler_ops", "count", n(k.scheduler_ops), String::new()),
        m("core.scheduler_time_us", "us", k.scheduler_time_us, "simulated manager time".into()),
        m("core.escalation_grant_ratio", "ratio", grants.value, format!("{grants} escalations")),
        m("core.feasibility_pass_ratio", "ratio", feasible.value, format!("{feasible} checks")),
        m("core.queue_bypasses", "count", n(k.c.queue_bypasses), String::new()),
        m("core.ready_queue_ns_per_op", "ns", r.ready_queue_ns, "insert_sorted/pop_front replay".into()),
        m("mem.dma_transfers", "count", n(k.dma.starts), format!("{} chunks", k.dma.chunks)),
        m("mem.dram_read_mb", "MB", mb(k.dram_read), String::new()),
        m("mem.dram_write_mb", "MB", mb(k.dram_write), String::new()),
        m("mem.spad_to_spad_mb", "MB", mb(k.s2s), String::new()),
        m("mem.dram_busy_pct", "%", pct(k.dram_busy_ps, k.exec_ps), "simulated".into()),
        m("mem.interconnect_busy_pct", "%", pct(k.icn_busy_ps, k.exec_ps), "simulated".into()),
        m("mem.dma_queued_us_mean", "us", ns_per(k.dma.queued_ps as f64, k.dma.ends) / 1e6,
            format!("over {} completed transfers", k.dma.ends)),
        m("mem.transfer_ns_per_chunk", "ns", r.transfer_ns, "begin/on_chunk_done replay".into()),
        m("mem.dma_cancels", "count", n(k.c.dma_cancels), String::new()),
        m("service.arrivals", "count", n(k.arrivals), String::new()),
        m("service.admitted", "count", n(k.admitted), String::new()),
        m("service.shed_bucket", "count", n(k.shed_bucket), String::new()),
        m("service.shed_capacity", "count", n(k.shed_capacity), String::new()),
        m("service.shed_breaker", "count", n(k.shed_breaker), String::new()),
        m("service.admit_ratio", "ratio", admit.value, format!("{admit} arrivals")),
        m("service.completed", "count", n(k.completed), String::new()),
        m("service.latency_attainment_pct", "%", pct(n(k.latency_met), n(k.latency_total)), format!(
            "{} of {} Latency requests, sheds as misses (closed loop: DAG deadlines)", k.latency_met, k.latency_total)),
        m("service.timed_out", "count", n(k.timed_out), String::new()),
        m("service.hedged", "count", n(k.hedged), String::new()),
        m("service.breaker_opens", "count", n(k.c.breaker_opens), String::new()),
        m("service.admission_ns_per_arrival", "ns", r.admission_ns, "gap_ps/try_admit/release replay".into()),
        m("fault.task_faults", "count", n(k.faults.task_faults), String::new()),
        m("fault.dma_faults", "count", n(k.faults.dma_faults), String::new()),
        m("fault.ecc_faults", "count", n(k.faults.ecc_faults), String::new()),
        m("fault.forward_invalidations", "count", n(k.faults.forward_invalidations), String::new()),
        m("fault.channel_outages", "count", n(k.faults.channel_outages), String::new()),
        m("metrics.reconcile_us", "us", avg(|t| t.reconcile_us), "per reconcile call".into()),
        m("metrics.hist_record_ns", "ns", r.hist_ns, "Histogram::record replay".into()),
        m("oracle.solve_ms", "ms", avg(|t| t.solve_ms), format!("{solves} scenarios")),
        m("oracle.expansions", "count", n(expansions), String::new()),
        m("oracle.ns_per_expansion", "ns", avg(|t| t.ns_per_expansion), String::new()),
        m("oracle.search_win_ratio", "ratio", ratio(won, solves).value, format!("{}", ratio(won, solves))),
        m("workloads.build_us", "us", avg(|t| t.build_us), "per cell's application build".into()),
        m("bench.cache_store_us", "us", avg(|t| t.store_us), String::new()),
        m("bench.cache_lookup_us", "us", avg(|t| t.lookup_us), String::new()),
        m("bench.cache_hit_ratio", "ratio", hit.value, format!("{hit} warm lookups")),
        m("bench.engine_overhead_pct", "%", avg(|t| t.engine_overhead_pct),
            format!("{jobs} workers × traced grid wall − Σ cell time")),
        m("bench.render_ms", "ms", avg(|t| t.render_ms), String::new()),
        m("trace.overhead_pct", "%", overhead, format!(
            "traced pass {:.3} s vs untraced {:.3} s, means of {}", mean(&traced_s), mean(&untraced_s), passes.len())),
        m("ledger.explained_pct", "%", pct(explained, run_ns), format!(
            "Σ replay ns/op × traced ops over SocSim::run time; spans in {}", path.display())),
    ];
    Report { metrics, tally, errors, printed: Vec::new(), calib_ms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::capacity_specs;

    /// A short serving cell's full event stream, with its spec and result.
    fn traced_cell_events() -> (RunSpec, SimResult, Vec<TraceEvent>, DmaFold) {
        let spec = capacity_specs(40.0, 3, 20_000_000_000).remove(1);
        let cfg = spec.config();
        let ring = RingBufferSink::shared(1 << 22);
        let dma = Rc::new(RefCell::new(DmaFold { chunk_bytes: cfg.mem.chunk_bytes, ..DmaFold::default() }));
        let mut tracer = Tracer::off();
        tracer.attach(ring.clone());
        tracer.attach(dma.clone());
        let result = SocSim::new(cfg, spec.apps()).with_tracer(&tracer).run();
        assert_eq!(ring.borrow().dropped(), 0);
        let events = ring.borrow_mut().take();
        let fold = *dma.borrow();
        (spec, result, events, fold)
    }

    #[test]
    fn replays_cover_the_traced_operation_counts() {
        let (spec, result, events, fold) = traced_cell_events();
        let cfg = spec.config();
        let dispatched = events.iter().filter(|e| matches!(e.kind, EventKind::EventDispatched { .. })).count();
        assert_eq!(dispatched as u64, result.events_dispatched);
        let times: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::EventDispatched { .. }))
            .map(|e| e.at_ps)
            .collect();
        assert_eq!(replay_queue(&times), result.events_dispatched);
        // The chunk base of mem.transfer_ns_per_chunk matches the fold.
        let starts = transfer_starts(&events);
        assert_eq!(starts.len() as u64, fold.starts);
        assert_eq!(replay_transfers(&starts, cfg.mem, cfg.total_instances()), fold.chunks);
        // Every traced arrival is replayed through admission.
        let arrivals = result.stats.service.arrivals();
        assert!(arrivals > 0);
        assert_eq!(replay_admission(&admission_ops(&events), &cfg.stream), arrivals);
        let layout = result.stats.service.classes[0].sojourn.clone();
        let samples: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RequestCompleted { sojourn_ps, .. } => Some(sojourn_ps),
                _ => None,
            })
            .collect();
        assert_eq!(replay_histogram(&samples, &layout), result.stats.service.completed());
    }

    #[test]
    fn ready_queue_replay_reproduces_the_dispatch_order() {
        let (_, _, events, _) = traced_cell_events();
        let (ops, types) = queue_ops(&events);
        let popped = replay_ready_queues(&ops, types);
        let dispatched: Vec<TaskKey> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskDispatched { task, .. } => Some(TaskKey::new(task.instance, task.node)),
                _ => None,
            })
            .collect();
        assert!(!popped.is_empty());
        assert_eq!(popped, dispatched);
    }

    #[test]
    fn dma_fold_counts_chunks_per_transfer() {
        let mut f = DmaFold { chunk_bytes: 4096, ..DmaFold::default() };
        let start = |bytes| TraceEvent {
            at_ps: 0,
            kind: EventKind::DmaStart { xfer: 0, dma: 0, src: Endpoint::Dram, dst: Endpoint::Spad(0), bytes },
        };
        for bytes in [0, 1, 4096, 4097] {
            f.emit(start(bytes));
        }
        f.emit(TraceEvent {
            at_ps: 9,
            kind: EventKind::DmaEnd {
                xfer: 0,
                dma: 0,
                src: Endpoint::Dram,
                dst: Endpoint::Spad(0),
                bytes: 1,
                start_ps: 0,
                queued_ps: 7,
            },
        });
        assert_eq!((f.starts, f.chunks, f.ends, f.queued_ps), (4, 1 + 1 + 1 + 2, 1, 7));
    }
}
