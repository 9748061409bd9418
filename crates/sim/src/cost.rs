//! The timing engine: one event loop for costs and artifacts.
//!
//! `run_loop` is the paper's §4 CDCM execution algorithm (the timing
//! rules are in the [`schedule`](mod@crate::schedule) module), with a
//! non-final `DECIDE` folded into its `LINK_REQUEST` (see
//! `owner_event`). Its `Recorder` type parameter decides what a run
//! reports besides `texec`:
//!
//! * [`schedule_cost_with`], [`CostEvaluator`] and
//!   [`BatchEvaluator`](crate::BatchEvaluator) pass the zero-sized
//!   `NoRecord` and allocate nothing after warm-up: all working state
//!   lives in a reusable [`ScheduleScratch`] indexed by the dense link
//!   ids of a shared [`RouteSource`].
//! * [`schedule_with`](crate::schedule_with) passes an artifact recorder
//!   and builds timelines, occupancy lists and the contention log from
//!   its hooks, so a schedule and a cost cannot drift apart.

use crate::error::SimError;
use crate::params::SimParams;
#[cfg(test)]
use noc_model::TileId;
use noc_model::{
    Cdcg, Mapping, Mesh, PacketId, RouteProvider, RouteSource, RoutingKind, WalkMemo, WalkMemoStats,
};
use std::collections::VecDeque;
use std::sync::Arc;

// Each pending event is one `u128` key, and the queue pops keys in
// integer order, which is the lexicographic order of the tuple
// `(time, packet, variant, hop)`. That order fixes every tie-break of the
// engine. Layout, most significant first: `time` (64 bits) | `packet`
// (30 bits) | variant (2 bits: Inject=0 < RouterEntry=1 < Decide=2 <
// LinkRequest=3) | `hop` (32 bits).
pub(crate) const PACKET_LIMIT: usize = 1 << 30;
pub(crate) const INJECT: u32 = 0;
const ROUTER_ENTRY: u32 = 1;
const DECIDE: u32 = 2;
const LINK_REQUEST: u32 = 3;

#[inline]
pub(crate) fn pack(time: u64, packet: usize, variant: u32, hop: u32) -> u128 {
    debug_assert!(packet < PACKET_LIMIT);
    ((time as u128) << 64) | ((packet as u128) << 34) | ((variant as u128) << 32) | hop as u128
}

/// What one run of `run_loop` reports beyond `texec`. Positions count
/// along the packet's resource walk `[injection, internals..., ejection]`:
/// router `hop` is fed by the link at position `hop`. For one packet the
/// hooks fire in walk order, and across packets in event order. Every
/// hook defaults to doing nothing, inlined away.
pub(crate) trait Recorder {
    /// Packet `p` was granted the link at walk position `at`: it asked at
    /// `requested`, got the link at `granted` and holds it `busy` cycles.
    #[inline(always)]
    fn link_grant(&mut self, _p: usize, _at: usize, _requested: u64, _granted: u64, _busy: u64) {}
    /// The header of `p` entered router `hop` at `time`.
    #[inline(always)]
    fn router_entry(&mut self, _p: usize, _hop: usize, _time: u64) {}
    /// `p`, which reached router `hop`'s input FIFO at `arrival`, owns
    /// its head from `owned`. A parked packet reports when it is woken.
    #[inline(always)]
    fn fifo_wait(&mut self, _p: usize, _hop: usize, _arrival: u64, _owned: u64) {}
    /// The last flit of `p` starts on router `hop`'s output link at `time`.
    #[inline(always)]
    fn router_leave(&mut self, _p: usize, _hop: usize, _time: u64) {}
    /// The last flit of `p` reached its destination core at `time`.
    #[inline(always)]
    fn delivery(&mut self, _p: usize, _time: u64) {}
}

/// The recorder of cost-only runs: zero-sized, with every hook empty.
pub(crate) struct NoRecord;

impl Recorder for NoRecord {}

#[derive(Debug, Clone, Default)]
struct LinkSlot {
    epoch: u64,
    free: u64,
}

#[derive(Debug, Clone, Default)]
struct FifoSlot {
    epoch: u64,
    /// `true` while a packet owns the FIFO head.
    busy: bool,
    /// When not busy: cycle at which the head was released.
    clear: u64,
    /// Arrivals parked behind the owner: `(packet, hop, arrival, last)`,
    /// where `last` tells whether `hop` is the packet's ejection hop.
    parked: VecDeque<(u32, u32, u64, bool)>,
}

/// Reusable working state of the event loop.
///
/// Buffers grow to the high-water mark of the instances they evaluate and
/// are reused across calls — after warm-up, a cost evaluation allocates
/// nothing. A scratch may be reused across different applications,
/// meshes and mappings; sizing is re-checked on every call.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    epoch: u64,
    /// Cumulative run-loop telemetry (see [`RunStats`]).
    stats: RunStats,
    links: Vec<LinkSlot>,
    fifo: Vec<FifoSlot>,
    /// Per packet: outstanding dependence count.
    pending: Vec<u32>,
    /// Per packet: cycle at which all dependences were satisfied.
    ready: Vec<u64>,
    /// Per packet: flit count.
    flits: Vec<u64>,
    /// Per packet: span of the resource walk inside the cache's flat
    /// link-id array (`start`, `len`), resolved once per evaluation.
    spans: Vec<(u32, u32)>,
    /// Walk arena for route sources without a shared flat array
    /// (implicit / fault-aware providers): packet walks are appended here
    /// by `init_run` and `spans` index into it. Stays empty under a
    /// dense source, whose spans index the cache's own flat array.
    walks: Vec<u32>,
    queue: crate::queue::EventQueue,
}

/// Cumulative run-loop telemetry of a [`ScheduleScratch`]: how many
/// complete cost evaluations it has served and how many scheduler events
/// they processed. Search telemetry uses this to relate *billed*
/// evaluations (the search subsystem's budget unit) to the engine work
/// they actually caused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Completed full cost evaluations served by this scratch.
    pub runs: u64,
    /// Events popped from the event queue across those evaluations. A
    /// packet crossing `k` routers takes `2k + 1`: its injection, an
    /// entry per router, a link request per router but the last, and one
    /// `DECIDE` at the last router, which requests the ejection link.
    pub events: u64,
}

/// How a CDCM cost evaluator (`noc-energy`'s `CdcmCostEvaluator`)
/// answered its tile-swap queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Always 0. Kept, with `events_replayed` and `events_total`, only
    /// because the traced replay of the repository benchmark
    /// (`perfbench`) reads these fields.
    pub incremental_moves: u64,
    /// Swaps answered in `O(1)` from the cached cost of the unswapped
    /// mapping, because neither tile holds a core that sends or
    /// receives packets, so no route and no schedule can change.
    pub route_unchanged_moves: u64,
    /// Swaps answered by one full cost-only evaluation of the swapped
    /// mapping.
    pub full_path_moves: u64,
    /// Always 0; see `incremental_moves`.
    pub events_replayed: u64,
    /// Always 0; see `incremental_moves`.
    pub events_total: u64,
}

impl ScheduleScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative run-loop telemetry of this scratch (monotone; survives
    /// re-sizing and reuse across instances).
    pub fn run_stats(&self) -> RunStats {
        self.stats
    }

    fn ensure(&mut self, n_links: usize, n_packets: usize) {
        if self.links.len() < n_links {
            self.links.resize(n_links, LinkSlot::default());
        }
        if self.pending.len() < n_packets {
            self.pending.resize(n_packets, 0);
            self.ready.resize(n_packets, 0);
            self.flits.resize(n_packets, 0);
            self.spans.resize(n_packets, (0, 0));
        }
        if self.fifo.len() < n_links {
            self.fifo.resize(n_links, FifoSlot::default());
        }
        self.epoch += 1;
        self.queue.clear();
    }

    #[inline]
    fn link(&mut self, id: u32) -> &mut LinkSlot {
        // noc-verify: allow(PANIC01) — walk ids are below the source's dense_link_count, which ensure() sized `links` to
        let slot = &mut self.links[id as usize];
        if slot.epoch != self.epoch {
            slot.epoch = self.epoch;
            slot.free = 0;
        }
        slot
    }

    #[inline]
    fn fifo(&mut self, id: u32) -> &mut FifoSlot {
        // noc-verify: allow(PANIC01) — walk ids are below the source's dense_link_count, which ensure() sized `fifo` to
        let slot = &mut self.fifo[id as usize];
        if slot.epoch != self.epoch {
            slot.epoch = self.epoch;
            slot.busy = false;
            slot.clear = 0;
        }
        slot
    }

    /// Primes the scratch for one run of an already-validated instance
    /// from precomputed per-packet buffers — the batch evaluator's
    /// replacement for the per-call workload pass of [`init_run`].
    /// `seeds` are the packed start events.
    pub(crate) fn prime_run(
        &mut self,
        n_links: usize,
        n_packets: usize,
        flits: &[u64],
        pending: &[u32],
        spans: &[(u32, u32)],
        seeds: &[u128],
    ) {
        self.ensure(n_links, n_packets);
        // noc-verify: allow(PANIC01) — ensure() has just grown every buffer to at least n_packets, and the batch packer hands slices of exactly n_packets entries
        self.flits[..n_packets].copy_from_slice(flits);
        // noc-verify: allow(PANIC01) — same invariant: buffers sized by ensure(), source slices exactly n_packets long
        self.pending[..n_packets].copy_from_slice(pending);
        // noc-verify: allow(PANIC01) — ready is resized alongside pending in ensure(), so the prefix is in bounds
        self.ready[..n_packets].fill(0);
        // noc-verify: allow(PANIC01) — same invariant: buffers sized by ensure(), source slices exactly n_packets long
        self.spans[..n_packets].copy_from_slice(spans);
        for &key in seeds {
            self.queue.push(key);
        }
    }

    /// Accounts one completed run in [`RunStats`].
    pub(crate) fn note_run(&mut self, events: u64) {
        self.stats.runs += 1;
        self.stats.events += events;
    }

    /// The per-packet walk spans, the per-packet ready times and the walk
    /// arena that the last [`init_run`] and run left behind. Spans index
    /// `routes.flat(arena)`.
    pub(crate) fn run_state(&self) -> (&[(u32, u32)], &[u64], &[u32]) {
        (&self.spans, &self.ready, &self.walks)
    }
}

/// `texec` of `cdcg` on `mesh` under `mapping`, without artifacts and
/// without allocating after warm-up. It is the event loop of
/// [`schedule_with`](crate::schedule_with) with nothing recorded, so it
/// returns that schedule's `texec_cycles()` when `routes` walks the same
/// routing algorithm. Any [`RouteSource`] works; sources built for the
/// same mesh and routing give bit-identical results.
///
/// # Errors
///
/// Returns [`SimError::CoreCountMismatch`] on a core-count mismatch and
/// [`SimError::Model`] for invalid mappings, out-of-mesh tiles or (on the
/// fault-aware tier) a partitioned pair.
///
/// # Panics
///
/// Panics if `routes` was built for a different mesh than `mesh`.
pub fn schedule_cost_with<S: RouteSource + ?Sized>(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
    routes: &S,
    scratch: &mut ScheduleScratch,
) -> Result<u64, SimError> {
    init_run(cdcg, mesh, mapping, params, routes, None, scratch)?;
    Ok(run_primed(cdcg, params, routes, scratch, &mut NoRecord))
}

/// Runs the event loop on a scratch that [`init_run`] has just primed
/// for `routes`, reports to `rec`, accounts the run in [`RunStats`] and
/// returns `texec`.
pub(crate) fn run_primed<S: RouteSource + ?Sized, R: Recorder>(
    cdcg: &Cdcg,
    params: &SimParams,
    routes: &S,
    scratch: &mut ScheduleScratch,
    rec: &mut R,
) -> u64 {
    let walks = std::mem::take(&mut scratch.walks);
    let (texec, delivered, events_done) = run_loop(cdcg, params, routes.flat(&walks), scratch, rec);
    scratch.walks = walks;
    scratch.note_run(events_done);
    debug_assert_eq!(
        delivered,
        cdcg.packet_count(),
        "DAG execution must deliver all packets"
    );
    texec
}

/// Validates the instance, sizes the scratch, resolves spans/flits and
/// seeds the start events — everything a run does before its event
/// loop. For buffering route sources the packet walks land in
/// `scratch.walks` (cleared first); dense sources leave it empty and
/// span their shared flat array.
///
/// The checks run in this order: core count, `mapping.validate()`,
/// out-of-mesh tiles, then (per packet) the source's `validate_pair`.
///
/// With a `memo`, pair resolutions go through its lock-free table
/// ([`WalkMemo::resolve_into`]) instead of the provider's shared cache;
/// the memo's eviction checkpoint runs here, at the evaluation boundary.
/// Only valid for buffering sources (the memo replays appended walks).
pub(crate) fn init_run<S: RouteSource + ?Sized>(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
    routes: &S,
    mut memo: Option<&mut WalkMemo>,
    scratch: &mut ScheduleScratch,
) -> Result<(), SimError> {
    assert_eq!(
        routes.mesh(),
        mesh,
        "route source was built for a different mesh"
    );
    if mapping.core_count() != cdcg.core_count() {
        return Err(SimError::CoreCountMismatch {
            mapping: mapping.core_count(),
            application: cdcg.core_count(),
        });
    }
    mapping.validate()?;
    for (_, tile) in mapping.assignments() {
        if !mesh.contains(tile) {
            return Err(SimError::Model(noc_model::ModelError::UnknownTile(tile)));
        }
    }

    let n_packets = cdcg.packet_count();
    assert!(
        n_packets < PACKET_LIMIT,
        "cost evaluation supports up to 2^30 packets"
    );
    scratch.ensure(routes.dense_link_count(), n_packets);
    scratch.walks.clear();
    if let Some(m) = memo.as_deref_mut() {
        m.begin_eval();
    }

    let per_packet = (scratch.spans.iter_mut())
        .zip(&mut scratch.flits)
        .zip(&mut scratch.pending)
        .zip(&mut scratch.ready);
    for (id, (((span, flits), pending), ready)) in cdcg.packet_ids().zip(per_packet) {
        let p = cdcg.packet(id);
        let (src, dst) = (mapping.tile_of(p.src), mapping.tile_of(p.dst));
        // No-op for the healthy tiers; the fault-aware tier reports
        // `ModelError::MeshPartitioned` here instead of producing a
        // nonsense schedule over a degenerate walk.
        routes.validate_pair(src, dst)?;
        *span = match memo.as_deref_mut() {
            Some(m) => m.resolve_into(routes, src, dst, &mut scratch.walks),
            None => routes.walk_span(src, dst, &mut scratch.walks),
        };
        *flits = params.flits(p.bits).max(1);
        *pending = cdcg.predecessors(id).len() as u32;
        *ready = 0;
    }

    for id in cdcg.start_packets() {
        scratch
            .queue
            .push(pack(cdcg.packet(id).comp_cycles, id.index(), INJECT, 0));
    }
    Ok(())
}

/// The event loop of the engine. Starts from a scratch primed by
/// [`init_run`] (or [`ScheduleScratch::prime_run`]), runs the queue dry
/// and reports to `rec` as it goes. Returns `(texec, packets delivered,
/// events processed)`; [`RunStats::events`] says what counts as an event.
pub(crate) fn run_loop<R: Recorder>(
    cdcg: &Cdcg,
    params: &SimParams,
    flat: &[u32],
    scratch: &mut ScheduleScratch,
    rec: &mut R,
) -> (u64, usize, u64) {
    let tl = params.link_cycles;
    let tr = params.routing_cycles;
    let mut texec: u64 = 0;
    let mut delivered = 0;
    let mut events_done = 0;

    while let Some(key) = scratch.queue.pop() {
        let time = (key >> 64) as u64;
        let p = ((key >> 34) as usize) & (PACKET_LIMIT - 1);
        let variant = (key >> 32) as u32 & 3;
        let hop = key as u32 as usize;
        // noc-verify: allow(PANIC01) — queued packets are below n_packets, and spans is sized by ensure()
        let (start, len) = scratch.spans[p];
        // Resource walk of the packet: [injection, internals..., ejection].
        // noc-verify: allow(PANIC01) — spans index `flat`: init_run/prime_run resolved them against this very array
        let path = &flat[start as usize..start as usize + len as usize];
        // Router count.
        let k = path.len() - 1;
        // noc-verify: allow(PANIC01) — queued packets are below n_packets, and flits is sized by ensure()
        let n = scratch.flits[p];
        match variant {
            INJECT => {
                // noc-verify: allow(PANIC01) — every walk holds at least the injection and the ejection link
                let slot = scratch.link(path[0]);
                let entry = if params.injection_serialization {
                    time.max(slot.free)
                } else {
                    time
                };
                slot.free = entry + n * tl;
                rec.link_grant(p, 0, time, entry, n * tl);
                scratch.queue.push(pack(entry + tl, p, ROUTER_ENTRY, 0));
            }
            ROUTER_ENTRY => {
                rec.router_entry(p, hop, time);
                // The feeding link of router `hop` is `path[hop]`; the
                // input-port FIFO does not apply to un-serialized
                // injection links (a core link of unbounded bandwidth
                // cannot order its arrivals).
                let applies = hop > 0 || params.injection_serialization;
                let last = hop + 1 == k;
                if !applies {
                    scratch
                        .queue
                        .push(owner_event(time, p, hop as u32, last, tr));
                } else {
                    // noc-verify: allow(PANIC01) — router hops are below k, the walk's last position
                    let slot = scratch.fifo(path[hop]);
                    if slot.busy {
                        slot.parked.push_back((p as u32, hop as u32, time, last));
                    } else {
                        let eff = time.max(slot.clear);
                        slot.busy = true;
                        rec.fifo_wait(p, hop, time, eff);
                        scratch
                            .queue
                            .push(owner_event(eff, p, hop as u32, last, tr));
                    }
                }
            }
            DECIDE => {
                // Only the ejection hop has a `DECIDE` (see `owner_event`):
                // request the ejection link.
                debug_assert_eq!(hop + 1, k, "DECIDE on a non-final hop");
                let request = time + tr;
                // noc-verify: allow(PANIC01) — k = path.len() - 1 is the ejection link's position
                let slot = scratch.link(path[k]);
                let entry = if params.ejection_contention && slot.free > request {
                    slot.free + tr
                } else {
                    request
                };
                slot.free = entry + n * tl;
                rec.link_grant(p, k, request, entry, n * tl);
                let leave = entry + (n - 1) * tl;
                rec.router_leave(p, hop, leave);
                release_fifo(
                    scratch,
                    rec,
                    // noc-verify: allow(PANIC01) — hop + 1 == k, so hop is a router position of the walk
                    path[hop],
                    hop > 0 || params.injection_serialization,
                    leave + 1,
                    tr,
                );
                let delivery = entry + n * tl;
                rec.delivery(p, delivery);
                texec = texec.max(delivery);
                delivered += 1;
                // Wake up dependent packets.
                for &succ in cdcg.successors(PacketId::new(p)) {
                    let s = succ.index();
                    // noc-verify: allow(PANIC01) — successors are packets of cdcg, below n_packets, and ensure() sized ready and pending to n_packets
                    let (ready, pending) = (&mut scratch.ready[s], &mut scratch.pending[s]);
                    *ready = (*ready).max(delivery);
                    *pending -= 1;
                    if *pending == 0 {
                        let inject = *ready + cdcg.packet(succ).comp_cycles;
                        scratch.queue.push(pack(inject, s, INJECT, 0));
                    }
                }
            }
            _ => {
                // LINK_REQUEST
                // noc-verify: allow(PANIC01) — a non-final hop has hop + 1 < k, inside the walk
                let slot = scratch.link(path[hop + 1]);
                let entry = if slot.free > time {
                    slot.free + tr
                } else {
                    time
                };
                slot.free = entry + n * tl;
                rec.link_grant(p, hop + 1, time, entry, n * tl);
                let leave = entry + (n - 1) * tl;
                rec.router_leave(p, hop, leave);
                release_fifo(
                    scratch,
                    rec,
                    // noc-verify: allow(PANIC01) — a non-final hop is a router position of the walk
                    path[hop],
                    hop > 0 || params.injection_serialization,
                    leave + 1,
                    tr,
                );
                scratch
                    .queue
                    .push(pack(entry + tl, p, ROUTER_ENTRY, hop as u32 + 1));
            }
        }
        events_done += 1;
    }

    (texec, delivered, events_done)
}

/// The event packet `p` queues once it owns router `hop`'s input FIFO
/// at cycle `owned`. On the ejection hop (`last`) that is its `DECIDE`.
/// On any other hop the `DECIDE` would only queue the `LINK_REQUEST`
/// `tr` cycles later, so that request is queued directly: the skipped
/// event has no side effects, and a packet has one pending event at a
/// time, so every other key still pops in the same order.
#[inline]
fn owner_event(owned: u64, p: usize, hop: u32, last: bool, tr: u64) -> u128 {
    if last {
        pack(owned, p, DECIDE, hop)
    } else {
        pack(owned + tr, p, LINK_REQUEST, hop)
    }
}

/// Releases the FIFO head of `link` at cycle `clear`, waking the next
/// parked packet.
#[inline]
fn release_fifo<R: Recorder>(
    scratch: &mut ScheduleScratch,
    rec: &mut R,
    link: u32,
    applies: bool,
    clear: u64,
    tr: u64,
) {
    if !applies {
        return;
    }
    let slot = scratch.fifo(link);
    debug_assert!(slot.busy, "owner released a tracked FIFO");
    if let Some((q, qhop, arrival, last)) = slot.parked.pop_front() {
        let eff = arrival.max(clear);
        rec.fifo_wait(q as usize, qhop as usize, arrival, eff);
        scratch
            .queue
            .push(owner_event(eff, q as usize, qhop, last, tr));
        // `q` now owns the FIFO head; remaining arrivals stay parked.
    } else {
        slot.busy = false;
        slot.clear = clear;
    }
}

/// A reusable cost-evaluation engine: one application plus a shared route
/// provider plus a private scratch.
///
/// Cloning an evaluator shares the (immutable) route provider via `Arc`
/// but gives the clone its own scratch **and its own walk memo**, so
/// clones can evaluate concurrently on different threads — the layout
/// parallel multi-start search uses. The memo is a per-evaluator,
/// lock-free pair→span table ([`WalkMemo`]); it is on by default for
/// every buffering tier ([`RouteProvider::memo_compatible`]), so a
/// search resolves each pair's walk once.
#[derive(Debug, Clone)]
pub struct CostEvaluator<'a> {
    cdcg: &'a Cdcg,
    params: SimParams,
    routes: Arc<RouteProvider>,
    scratch: ScheduleScratch,
    memo: Option<WalkMemo>,
}

impl<'a> CostEvaluator<'a> {
    /// Builds an evaluator for `cdcg` on `mesh` under XY routing, with an
    /// automatically sized route provider (dense for small meshes,
    /// implicit beyond — never fails, never panics on mesh size).
    pub fn new(cdcg: &'a Cdcg, mesh: &Mesh, params: &SimParams) -> Self {
        Self::with_provider(
            cdcg,
            params,
            Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy)),
        )
    }

    /// Builds an evaluator sharing an existing route provider (any tier).
    pub fn with_provider(cdcg: &'a Cdcg, params: &SimParams, routes: Arc<RouteProvider>) -> Self {
        let memo = routes.memo_compatible().then(WalkMemo::new);
        Self {
            cdcg,
            params: *params,
            routes,
            scratch: ScheduleScratch::new(),
            memo,
        }
    }

    /// Enables or disables the per-evaluator walk memo. Enabling is a
    /// no-op under a dense provider (its spans index a shared flat array
    /// the memo cannot replay — [`RouteProvider::memo_compatible`]);
    /// disabling drops the table. Evaluation results are bit-identical
    /// either way.
    pub fn set_walk_memo(&mut self, enabled: bool) {
        self.memo = (enabled && self.routes.memo_compatible())
            .then(|| self.memo.take().unwrap_or_default());
    }

    /// Whether the walk memo is currently active.
    pub fn walk_memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// Cumulative hit/miss/eviction counters of the walk memo, or `None`
    /// when the memo is disabled. The hit ratio doubles as the
    /// route-dedup ratio the observability layer reports.
    pub fn walk_memo_stats(&self) -> Option<WalkMemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// The application being evaluated.
    pub fn cdcg(&self) -> &'a Cdcg {
        self.cdcg
    }

    /// The wormhole parameter set.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The shared route provider.
    pub fn provider(&self) -> &Arc<RouteProvider> {
        &self.routes
    }

    /// `texec` of `mapping` in cycles; bit-exact with
    /// [`schedule_with`](crate::schedule_with)'s `texec_cycles()` under
    /// the provider's routing.
    ///
    /// # Errors
    ///
    /// Same as [`schedule_cost_with`].
    pub fn texec_cycles(&mut self, mapping: &Mapping) -> Result<u64, SimError> {
        let routes = self.routes.as_ref();
        init_run(
            self.cdcg,
            routes.mesh(),
            mapping,
            &self.params,
            routes,
            self.memo.as_mut(),
            &mut self.scratch,
        )?;
        Ok(run_primed(
            self.cdcg,
            &self.params,
            routes,
            &mut self.scratch,
            &mut NoRecord,
        ))
    }

    /// `texec` of `mapping` in nanoseconds.
    ///
    /// # Errors
    ///
    /// Same as [`schedule_cost_with`].
    pub fn texec_ns(&mut self, mapping: &Mapping) -> Result<f64, SimError> {
        let cycles = self.texec_cycles(mapping)?;
        Ok(self.params.cycles_to_ns(cycles))
    }

    /// Cumulative run-loop telemetry of this evaluator (full evaluations
    /// served and events processed) — the sim-side hook search telemetry
    /// reads.
    pub fn run_stats(&self) -> RunStats {
        self.scratch.run_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule;
    use noc_model::Mesh;

    fn figure1_cdcg() -> Cdcg {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let e = g.add_core("E");
        let f = g.add_core("F");
        let pab1 = g.add_packet(a, b, 6, 15).unwrap();
        let pbf1 = g.add_packet(b, f, 10, 40).unwrap();
        let pea1 = g.add_packet(e, a, 10, 20).unwrap();
        let pea2 = g.add_packet(e, a, 20, 15).unwrap();
        let paf1 = g.add_packet(a, f, 6, 15).unwrap();
        let pfb1 = g.add_packet(f, b, 6, 15).unwrap();
        g.add_dependence(pea1, pea2).unwrap();
        g.add_dependence(pab1, paf1).unwrap();
        g.add_dependence(pea1, paf1).unwrap();
        g.add_dependence(pbf1, pfb1).unwrap();
        g.add_dependence(paf1, pfb1).unwrap();
        g
    }

    #[test]
    fn packed_keys_order_exactly_like_events() {
        // Every tie-break of the engine hangs on `pack` being
        // order-isomorphic to the tuple `(time, packet, variant, hop)`.
        // Enumerate a grid of events (every variant, several hops,
        // packets and times, equal-field ties and each field at its
        // maximum) and compare the two orderings pairwise.
        let mut all: Vec<((u64, usize, u32, u32), u128)> = Vec::new();
        for time in [0u64, 1, 5, u64::MAX] {
            for packet in [0usize, 1, 42, PACKET_LIMIT - 1] {
                for variant in [INJECT, ROUTER_ENTRY, DECIDE, LINK_REQUEST] {
                    for hop in [0u32, 3, 7, u32::MAX] {
                        all.push((
                            (time, packet, variant, hop),
                            pack(time, packet, variant, hop),
                        ));
                    }
                }
            }
        }
        for (ea, ka) in &all {
            for (eb, kb) in &all {
                assert_eq!(
                    ea.cmp(eb),
                    ka.cmp(kb),
                    "ordering diverges for {ea:?} vs {eb:?}"
                );
            }
        }
    }

    #[test]
    fn matches_full_schedule_on_paper_example() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 1, 2, 3], [2, 3, 0, 1]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let full = schedule(&cdcg, &mesh, &mapping, &params).unwrap();
            assert_eq!(
                eval.texec_cycles(&mapping).unwrap(),
                full.texec_cycles(),
                "tiles {tiles:?}"
            );
        }
    }

    #[test]
    fn matches_full_schedule_across_parameter_sets() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        for (tr, tl, flit, ej, inj) in [
            (2, 1, 1, false, true),
            (4, 1, 1, false, true),
            (2, 3, 1, false, true),
            (2, 1, 16, false, true),
            (2, 1, 1, true, true),
            (2, 1, 1, false, false),
            (5, 2, 8, true, false),
            // Zero routing delay: a non-final hop's link request lands in
            // the cycle its router was entered.
            (0, 1, 1, false, true),
            (0, 1, 1, false, false),
            (0, 3, 1, true, true),
            (0, 2, 8, true, false),
        ] {
            let params = SimParams {
                routing_cycles: tr,
                link_cycles: tl,
                flit_width_bits: flit,
                ejection_contention: ej,
                injection_serialization: inj,
                ..SimParams::paper_example()
            };
            let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
            let full = schedule(&cdcg, &mesh, &mapping, &params).unwrap();
            assert_eq!(
                eval.texec_cycles(&mapping).unwrap(),
                full.texec_cycles(),
                "params {params:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // Evaluating A, then B, then A again must give A's result twice.
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
        let a = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let b = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        let first = eval.texec_cycles(&a).unwrap();
        assert_eq!(eval.texec_cycles(&b).unwrap(), 90);
        assert_eq!(eval.texec_cycles(&a).unwrap(), first);
        assert_eq!(first, 100);
    }

    #[test]
    fn a_packet_over_k_routers_costs_2k_plus_1_events() {
        // Injection, k router entries, k - 1 link requests and one
        // ejection DECIDE: a non-final hop queues no DECIDE of its own.
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 3, 1, 2]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let full = schedule(&cdcg, &mesh, &mapping, &params).unwrap();
            let expected: u64 = full
                .packets()
                .iter()
                .map(|ps| 2 * ps.router_count() as u64 + 1)
                .sum();
            let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
            eval.texec_cycles(&mapping).unwrap();
            assert_eq!(eval.run_stats().events, expected, "tiles {tiles:?}");
        }
    }

    #[test]
    fn run_stats_count_evaluations_and_events() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
        assert_eq!(eval.run_stats(), RunStats::default());
        let a = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        eval.texec_cycles(&a).unwrap();
        let after_one = eval.run_stats();
        assert_eq!(after_one.runs, 1);
        assert!(after_one.events > 0, "the run must process events");
        eval.texec_cycles(&a).unwrap();
        let after_two = eval.run_stats();
        assert_eq!(after_two.runs, 2);
        // Identical runs process identical event counts; the counter is
        // cumulative and monotone.
        assert_eq!(after_two.events, 2 * after_one.events);
    }

    #[test]
    fn rejects_mismatched_mapping() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut eval = CostEvaluator::new(&cdcg, &mesh, &params);
        let mapping = Mapping::identity(&mesh, 3).unwrap();
        assert!(matches!(
            eval.texec_cycles(&mapping),
            Err(SimError::CoreCountMismatch { .. })
        ));
    }

    #[test]
    fn empty_application_takes_zero_time() {
        let mut g = Cdcg::new();
        g.add_core("A");
        g.add_core("B");
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let mut eval = CostEvaluator::new(&g, &mesh, &params);
        assert_eq!(eval.texec_cycles(&mapping).unwrap(), 0);
    }

    #[test]
    fn clones_share_the_cache_but_not_the_scratch() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let eval = CostEvaluator::new(&cdcg, &mesh, &params);
        let mut clone_a = eval.clone();
        let mut clone_b = eval.clone();
        assert!(Arc::ptr_eq(clone_a.provider(), clone_b.provider()));
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        assert_eq!(clone_a.texec_cycles(&mapping).unwrap(), 100);
        assert_eq!(clone_b.texec_cycles(&mapping).unwrap(), 100);
    }
}
