//! The generic batched query engine: one tiled pass loop for every query kind and every batched
//! execution mode.
//!
//! Two pieces make up the engine:
//!
//! * [`BatchQuery`] — the per-item state machine a query kind implements: how to initialise an
//!   item, which beats it wants next, how a response advances it, and what it yields when it
//!   retires;
//! * [`FusedScheduler`] — the pass loop.  It runs any number of type-erased [`FusedStream`]s —
//!   [`BatchQuery`] implementations wrapped in [`StreamRunner`]s, possibly of *different* query
//!   kinds — to completion over one datapath.  Every pass, each stream builds the beats of its
//!   active items, the merged beats dispatch in bulk, and each stream gets its own responses
//!   back.  Items retire in place, and the run ends when no stream has items left.
//!
//! A single-kind wavefront is simply a one-stream run; a fused run merges several streams into
//! shared mixed-kind passes.  Because each stream's own build/apply order is independent of
//! what else shares the pass (segments are contiguous, and no datapath state crosses segment
//! boundaries mid-item), every stream's outputs and statistics are bit-identical however the
//! streams are grouped — pinned by `rtunit/tests/proptest_fused.rs` and by the scalar
//! round-robin reference mode ([`FusedScheduler::run_reference`]).
//!
//! Each item's own beat order is preserved: an item's beats are built in sequence, and the beats
//! one [`BatchQuery::build`] call appends stay adjacent in the batch.  So every query kind keeps
//! the semantics — and, where a scalar reference exists, the bit-identical results and
//! statistics — of its scalar drive loop.  Multi-beat accumulator jobs (the Euclidean/cosine
//! distance operations) are safe under interleaving *between* items for the same reason: a
//! distance query appends all beats of one candidate in a single build call, so the shared
//! accumulator sees each candidate's beat train contiguously and resets at its end, no matter
//! how many unrelated items share the pass.
//!
//! Engines keep one scheduler and lend each run's runner a pooled arena of per-item states and
//! buffers, so a steady-state stream performs no per-item allocation.

use rayflex_core::{Opcode, RayFlexDatapath, RayFlexRequest, RayFlexResponse};

use crate::policy::CoherenceMode;

pub use rayflex_core::QueryKind;

/// A batched query: a set of independent items, each advanced by datapath beats through a
/// per-item state machine.
///
/// The scheduler calls the methods in a fixed protocol, for each item `0..items()`:
///
/// 1. [`BatchQuery::reset`] once, on a pooled state of unknown previous content;
/// 2. [`BatchQuery::build`] once per pass while the item is active — append **at least one**
///    beat and return `true` to stay in flight, or append nothing and return `false` to retire
///    (beats appended by one call stay adjacent in the dispatched batch, in append order);
/// 3. [`BatchQuery::apply`] once per response to a beat the item appended, in append order;
/// 4. [`BatchQuery::finish`] once after the item retires, yielding its output.
///
/// Implementations update their own statistics (beat counts, node visits) inside `build`, which
/// keeps the per-item beat accounting identical to a scalar drive loop that issues the same
/// beats.
pub trait BatchQuery {
    /// Pooled per-item state.  `Default` provides the blank state the pool grows with; `reset`
    /// must fully re-initialise recycled states.
    type State: Default;
    /// What each item yields when it retires.
    type Output;

    /// The kind of query, for reports and diagnostics.
    fn kind(&self) -> QueryKind;

    /// Number of items in this run.
    fn items(&self) -> usize;

    /// Re-initialises a pooled state for `item`.
    fn reset(&mut self, item: usize, state: &mut Self::State);

    /// Appends the item's next beat(s) to `out` and returns `true`, or returns `false` (having
    /// appended nothing) to retire the item.
    fn build(
        &mut self,
        item: usize,
        state: &mut Self::State,
        out: &mut Vec<RayFlexRequest>,
    ) -> bool;

    /// Applies one response to a beat this item appended.
    fn apply(&mut self, item: usize, state: &mut Self::State, response: &RayFlexResponse);

    /// Extracts the item's output after it retired.
    fn finish(&mut self, item: usize, state: &mut Self::State) -> Self::Output;

    /// The coherence sort key of `item` (see [`CoherenceMode`](crate::CoherenceMode)): a
    /// coherence-enabled scheduler admits items in ascending key order, ties broken by item
    /// index.  The default — the item index itself — makes sorting a no-op, which is correct
    /// for every query; ray queries override it with an octant + origin-Morton key so
    /// like-minded rays build adjacent pass slots.  Keys are consulted once per run, before
    /// the first pass; because results are reassembled by item index, *any* key function is
    /// output-identical.
    fn sort_key(&self, item: usize) -> u64 {
        item as u64
    }

    /// Called once per run after coherent admission ordered the items (`order[slot] = item`, a
    /// permutation of `0..items()`): the query may physically gather its per-item operand tables
    /// into admission order and return `true`, after which the scheduler addresses `reset` /
    /// `build` / `apply` / `finish` by **admission slot** instead of item index.  The scheduler
    /// still reassembles outputs in item order, so opting in changes nothing observable — it
    /// merely turns the sorted run's per-item table walks sequential (the scheduler iterates
    /// slots in ascending order), instead of striding randomly through item-indexed storage.
    ///
    /// The default keeps item addressing, which is correct for every query; only queries with a
    /// non-identity [`BatchQuery::sort_key`] gain anything by opting in.  Never called when
    /// admission order is the identity (coherence off, or fewer than two items).
    fn reorder(&mut self, order: &[usize]) -> bool {
        let _ = order;
        false
    }
}

/// Flush threshold (in beats) of the scheduler's tiled pass dispatch: one logical pass is built,
/// dispatched and applied in tiles of roughly this many beats, so the request/response buffers
/// stay cache-resident instead of streaming a whole multi-thousand-beat pass through memory
/// three times (build-write, dispatch-read, apply-read).  Tiles flush only at item boundaries —
/// an item's beat train never splits — and pass accounting is per logical pass, not per tile
/// ([`RayFlexDatapath::record_pass`]), so pass counters and all outputs are tile-size-invariant;
/// only where same-opcode lane runs split moves.  At 1024 beats a tile's requests + responses
/// occupy ~264 KiB, comfortably inside per-core L2 (a measured sweet spot: smaller tiles split
/// more lane runs at tile boundaries, larger ones fall out of L2).
const PASS_TILE_BEATS: usize = 1024;

/// Progress report of a deadline-capped run ([`FusedScheduler::run_capped`] /
/// [`FusedScheduler::run_reference_capped`]): how many beats the run spent and whether every
/// stream drained.  A cancelled run leaves its streams mid-flight; extract each stream's
/// completed prefix with [`StreamRunner::finish_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CappedFusedRun {
    /// Beats the run dispatched before finishing or cancelling.
    pub beats: u64,
    /// `true` when every stream drained — the cap (if any) never fired.
    pub complete: bool,
}

/// The reusable storage of one [`StreamRunner`]: the pooled per-item states plus the admission,
/// active-set and beat-owner buffers of a run.
///
/// An engine owns one arena per stream slot and lends it to each run's runner
/// ([`StreamRunner::with_arena`]), taking it back when the run ends
/// ([`StreamRunner::into_parts`]).  Nothing in it shrinks, so once a warm-up run has sized it, a
/// same-shape run allocates nothing inside the pass loop.
#[derive(Debug, Default)]
pub(crate) struct RunnerArena<S> {
    /// Pooled per-item states, indexed by admission slot (`states[slot]` belongs to item
    /// `order[slot]`); a run uses the first `items` of them and resets each before use.
    states: Vec<S>,
    /// Admission slots still in flight, in admission order (retirement compacts in place), so
    /// the build loop walks the state roster sequentially.
    active: Vec<usize>,
    /// Admission slot owning each beat of the stream's current tile segment.
    beat_owner: Vec<usize>,
    /// The run's admission permutation: `order[slot] = item`.  Identity when coherence is off;
    /// otherwise the coherence sort of the item indices.  Results reassemble through it, so any
    /// admission order is output-identical.
    order: Vec<usize>,
    /// Inverse of `order` (`slot_of[item] = slot`).
    slot_of: Vec<usize>,
    /// Per-item coherence keys (indexed by item; filled when sorting is on).
    keys: Vec<u64>,
    /// Tail buffer of [`CoherenceMode::SortAndCompact`]: ray–triangle trains deferred behind the
    /// segment's other beats (drained back at the end of every segment).
    deferred: Vec<RayFlexRequest>,
    /// Admission slot owning each deferred beat (parallel to `deferred`).
    deferred_owner: Vec<usize>,
}

impl<S> RunnerArena<S> {
    /// Number of pooled per-item states (pooling tests).
    #[cfg(test)]
    pub(crate) fn pooled_states(&self) -> usize {
        self.states.len()
    }
}

/// A type-erased query stream: the object-safe face of a [`StreamRunner`], which is how
/// heterogeneous [`BatchQuery`] implementations (different state and output types) share one
/// [`FusedScheduler`] pass schedule.
///
/// The scheduler drives the protocol: [`FusedStream::start`] once, then per logical pass one or
/// more [`FusedStream::build_pass`] calls (each appending a segment of this stream's beats to the
/// current tile), each followed by one [`FusedStream::apply_pass`] with that segment's responses,
/// until [`FusedStream::is_active`] turns false.  Streams never see each other's beats.
pub trait FusedStream {
    /// The query kind of this stream, for pass-segment attribution.
    fn kind(&self) -> QueryKind;

    /// (Re-)initialises every item of the stream; called once when a run begins.
    fn start(&mut self);

    /// `true` while any item of the stream is still in flight.
    fn is_active(&self) -> bool;

    /// Appends the next beat(s) of active items to `out` (retiring items with no further beats)
    /// and returns `true` once the stream's share of the current logical pass is built.
    ///
    /// `tile_beats` is the tile's capacity: once `out` holds at least that many beats, the build
    /// pauses at the next item boundary and returns `false`; the scheduler then dispatches the
    /// tile, applies it, and calls again with an emptied `out` to resume the same logical pass.
    /// Every active item still builds exactly once per logical pass.
    ///
    /// `max_beats` is the scheduler's per-stream admission budget for the logical pass
    /// ([`FusedScheduler::set_beat_budget`]): `0` admits every active item, a positive budget
    /// ends the stream's pass once it holds at least that many beats, however many tiles they
    /// span.  An item's whole beat train is always admitted together (never split across passes
    /// or tiles), so the segment may overshoot the budget by the last admitted item's tail;
    /// items past the budget simply stay in flight, in order, for the next pass.  Budgeting and
    /// tiling change *which pass or tile* carries a beat, never an item's own beat sequence —
    /// outputs and per-stream statistics are budget- and tile-invariant.
    fn build_pass(
        &mut self,
        out: &mut Vec<RayFlexRequest>,
        max_beats: usize,
        tile_beats: usize,
    ) -> bool;

    /// Applies the responses to the beats this stream appended in its latest
    /// [`FusedStream::build_pass`] call, in append order.
    fn apply_pass(&mut self, responses: &[RayFlexResponse]);
}

/// Owns one [`BatchQuery`] and its per-item states for the duration of a run, implementing the
/// type-erased [`FusedStream`] protocol over it.
///
/// A runner keeps its query's per-item beat order and retire-in-place active set whatever else
/// shares the passes, so running several runners fused yields per-stream results bit-identical
/// to running each query alone.  After the run drains, [`StreamRunner::finish`] yields the query
/// back (for its statistics) together with one output per item.
#[derive(Debug)]
pub struct StreamRunner<Q: BatchQuery> {
    query: Q,
    /// The run's storage: a fresh arena for a caller-built runner, an engine's pooled one
    /// otherwise.
    arena: RunnerArena<Q::State>,
    /// Whether the query opted into admission-slot addressing (see [`BatchQuery::reorder`]).
    slot_addressed: bool,
    /// Coherence discipline of subsequent runs (see [`StreamRunner::set_coherence`]).
    coherence: CoherenceMode,
    started: bool,
    /// Progress through the current logical pass, kept across tile pauses: the next position of
    /// `arena.active` to build …
    cursor: usize,
    /// … how many survivors of the built prefix were compacted to the front …
    kept: usize,
    /// … and how many beats the stream built so far (what the beat budget counts).
    pass_beats: usize,
}

impl<Q: BatchQuery> StreamRunner<Q> {
    /// Wraps a query for scheduling.  Items are initialised lazily by [`FusedStream::start`]
    /// when a run begins.
    #[must_use]
    pub fn new(query: Q) -> Self {
        Self::with_arena(query, RunnerArena::default())
    }

    /// [`StreamRunner::new`] over a pooled arena (see [`RunnerArena`]).
    pub(crate) fn with_arena(query: Q, arena: RunnerArena<Q::State>) -> Self {
        StreamRunner {
            query,
            arena,
            slot_addressed: false,
            coherence: CoherenceMode::Off,
            started: false,
            cursor: 0,
            kept: 0,
            pass_beats: 0,
        }
    }

    /// Sets the coherence discipline of subsequent runs (see
    /// [`CoherenceMode`](crate::CoherenceMode)); defaults to [`CoherenceMode::Off`] — caller
    /// admission order.  The policy engines wire
    /// [`ExecPolicy::coherence`](crate::ExecPolicy::coherence) through here.  Takes effect at
    /// the next [`FusedStream::start`]; outputs and per-item statistics are identical in every
    /// mode.
    pub fn set_coherence(&mut self, coherence: CoherenceMode) {
        self.coherence = coherence;
    }

    /// Builder form of [`StreamRunner::set_coherence`].
    #[must_use]
    pub fn with_coherence(mut self, coherence: CoherenceMode) -> Self {
        self.set_coherence(coherence);
        self
    }

    /// Extracts the query and one output per item after the run drained the stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run or still has items in flight.
    #[must_use]
    pub fn finish(self) -> (Q, Vec<Q::Output>) {
        assert!(
            self.started && self.arena.active.is_empty(),
            "a fused stream must be run to completion before finishing"
        );
        let (query, outputs, _, _) = self.into_parts();
        (query, outputs)
    }

    /// The partial-aware sibling of [`StreamRunner::finish`]: extracts the query, the outputs
    /// of the longest fully-retired item prefix, and the stream's total item count, after a
    /// deadline-capped run that may have cancelled the stream mid-flight
    /// ([`FusedScheduler::run_capped`]).
    ///
    /// Items still in flight never surface (their states hold mid-traversal partial answers);
    /// retired items *beyond* the first in-flight one are discarded so the result is a true
    /// prefix.  On a stream that actually drained, this equals [`StreamRunner::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run.
    #[must_use]
    pub fn finish_partial(self) -> (Q, Vec<Q::Output>, usize) {
        assert!(
            self.started,
            "a fused stream must be run before finishing partially"
        );
        let (query, outputs, total, _) = self.into_parts();
        (query, outputs, total)
    }

    /// [`StreamRunner::finish_partial`] that also hands the arena back to its owner.
    pub(crate) fn into_parts(mut self) -> (Q, Vec<Q::Output>, usize, RunnerArena<Q::State>) {
        let arena = &mut self.arena;
        let total = arena.order.len();
        // The lowest still-active item bounds the retired prefix (coherent admission may
        // reorder the admission slots, so "first" is not "lowest" in general).
        let prefix = arena
            .active
            .iter()
            .map(|&slot| arena.order[slot])
            .min()
            .unwrap_or(total);
        let mut outputs = Vec::with_capacity(prefix);
        for item in 0..prefix {
            let slot = arena.slot_of[item];
            let index = if self.slot_addressed { slot } else { item };
            outputs.push(self.query.finish(index, &mut arena.states[slot]));
        }
        (self.query, outputs, total, self.arena)
    }
}

impl<Q: BatchQuery> FusedStream for StreamRunner<Q> {
    fn kind(&self) -> QueryKind {
        self.query.kind()
    }

    fn start(&mut self) {
        let items = self.query.items();
        let arena = &mut self.arena;
        // Coherent admission: compute the run's admission order once — identity, or the
        // coherence sort of the item indices by the query's key (ties broken by item index, so
        // identity keys keep caller order and the sort is deterministic).  Results reassemble
        // through the permutation, so any admission order is output-identical — only which pass
        // slot an item occupies moves.
        arena.order.clear();
        arena.order.extend(0..items);
        self.slot_addressed = false;
        if self.coherence != CoherenceMode::Off && items > 1 {
            arena.keys.clear();
            let query = &self.query;
            arena
                .keys
                .extend((0..items).map(|item| query.sort_key(item)));
            let keys = &arena.keys;
            arena.order.sort_unstable_by_key(|&item| (keys[item], item));
            // A query that gathers its operand tables into admission order is addressed by
            // slot from here on (see `BatchQuery::reorder`).
            self.slot_addressed = self.query.reorder(&arena.order);
        }
        arena.slot_of.clear();
        arena.slot_of.resize(items, 0);
        for (slot, &item) in arena.order.iter().enumerate() {
            arena.slot_of[item] = slot;
        }
        if arena.states.len() < items {
            arena.states.resize_with(items, Q::State::default);
        }
        for slot in 0..items {
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            self.query.reset(index, &mut arena.states[slot]);
        }
        arena.active.clear();
        arena.active.extend(0..items);
        crate::fault::scramble_checkpoint(&mut arena.active);
        self.cursor = 0;
        self.kept = 0;
        self.pass_beats = 0;
        self.started = true;
    }

    fn is_active(&self) -> bool {
        !self.arena.active.is_empty()
    }

    fn build_pass(
        &mut self,
        out: &mut Vec<RayFlexRequest>,
        max_beats: usize,
        tile_beats: usize,
    ) -> bool {
        let segment_start = out.len();
        let arena = &mut self.arena;
        arena.beat_owner.clear();
        debug_assert!(arena.deferred.is_empty());
        let bucketed = self.coherence != CoherenceMode::Off;
        let total = arena.active.len();
        let mut pass_built = true;
        while self.cursor < total {
            let segment = out.len() - segment_start + arena.deferred.len();
            // Budget admission: end this stream's pass (leaving the rest of the active list
            // untouched, in order) once the pass — every tile of it — reached the budget.
            if max_beats != 0 && self.pass_beats + segment >= max_beats {
                break;
            }
            // Tile room: pause at this item boundary; the scheduler flushes the tile and
            // resumes the same logical pass from here.
            if out.len() + arena.deferred.len() >= tile_beats {
                pass_built = false;
                break;
            }
            let slot = arena.active[self.cursor];
            self.cursor += 1;
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            let before = out.len();
            if self.query.build(index, &mut arena.states[slot], out) {
                debug_assert!(
                    out.len() > before,
                    "{} stream item {index} stayed active without appending a beat",
                    self.query.kind()
                );
                if bucketed
                    && out[before..]
                        .iter()
                        .all(|r| r.opcode == Opcode::RayTriangle)
                {
                    // Opcode bucketing ([`CoherenceMode::SortAndCompact`]): all-triangle trains
                    // move intact to the segment tail, so box beats pack adjacently (eight-wide
                    // groups) and triangle trains concatenate into long same-opcode runs.  Safe
                    // because a train moves whole (per-item beat order unchanged) and ray beats
                    // are stateless — only the accumulator-chained distance beats order across
                    // items, and those are never bucketed.
                    arena.deferred.extend(out.drain(before..));
                    arena.deferred_owner.resize(arena.deferred.len(), slot);
                } else {
                    arena.beat_owner.resize(out.len() - segment_start, slot);
                }
                arena.active[self.kept] = slot;
                self.kept += 1;
            } else {
                debug_assert_eq!(
                    out.len(),
                    before,
                    "{} stream item {index} appended beats while retiring",
                    self.query.kind()
                );
            }
        }
        // Append the deferred triangle trains behind the segment's other beats.
        out.append(&mut arena.deferred);
        arena.beat_owner.append(&mut arena.deferred_owner);
        self.pass_beats += out.len() - segment_start;
        if pass_built {
            // Compact: survivors of the built prefix, then the unbuilt (budget-deferred)
            // suffix — relative item order is preserved either way.
            let built = self.cursor;
            arena.active.copy_within(built..total, self.kept);
            arena.active.truncate(self.kept + (total - built));
            self.cursor = 0;
            self.kept = 0;
            self.pass_beats = 0;
        }
        pass_built
    }

    fn apply_pass(&mut self, responses: &[RayFlexResponse]) {
        let arena = &mut self.arena;
        debug_assert_eq!(responses.len(), arena.beat_owner.len());
        for (response, &slot) in responses.iter().zip(&arena.beat_owner) {
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            self.query.apply(index, &mut arena.states[slot], response);
        }
    }
}

/// Implements [`FusedStream`] for a public stream wrapper by delegating every method to its
/// `runner: StreamRunner<_>` field (which implements the trait itself).  The traversal, distance
/// and collection wrappers all forward identically; the macro keeps the protocol in one place.
/// Use the bracketed form to introduce generic parameters:
/// `delegate_fused_stream_to_runner!([C: AsRef<[f32]>] DistanceStream<'_, C>);`.
macro_rules! delegate_fused_stream_to_runner {
    ([$($generics:tt)*] $ty:ty) => {
        impl<$($generics)*> $crate::query::FusedStream for $ty {
            fn kind(&self) -> $crate::query::QueryKind {
                $crate::query::FusedStream::kind(&self.runner)
            }
            fn start(&mut self) {
                $crate::query::FusedStream::start(&mut self.runner);
            }
            fn is_active(&self) -> bool {
                $crate::query::FusedStream::is_active(&self.runner)
            }
            fn build_pass(
                &mut self,
                out: &mut Vec<rayflex_core::RayFlexRequest>,
                max_beats: usize,
                tile_beats: usize,
            ) -> bool {
                $crate::query::FusedStream::build_pass(&mut self.runner, out, max_beats, tile_beats)
            }
            fn apply_pass(&mut self, responses: &[rayflex_core::RayFlexResponse]) {
                $crate::query::FusedStream::apply_pass(&mut self.runner, responses);
            }
        }
    };
    ($ty:ty) => {
        $crate::query::delegate_fused_stream_to_runner!([] $ty);
    };
}
pub(crate) use delegate_fused_stream_to_runner;

/// The batched scheduler: runs N concurrent query streams — of *different* query kinds, or just
/// one — to completion in shared bulk passes over a single datapath, demuxing the responses back
/// per stream.
///
/// With one stream this is the single-kind wavefront ([`ExecMode::Wavefront`]); with several it
/// is the software model of the paper's unified RT unit (§V-A) under a realistic multi-workload
/// mix: one datapath time-multiplexes a closest-hit bounce stream, its shadow rays, distance
/// scoring and BVH candidate collection within the *same* passes, instead of each workload
/// getting an exclusive pass sequence.  Scheduling rules:
///
/// * **Stream admission** — all streams of a run are admitted up front ([`FusedScheduler::run`]
///   takes the full set) and started together; a stream that drains early simply stops
///   contributing beats while the others continue.  With a **per-stream beat budget**
///   ([`FusedScheduler::set_beat_budget`], the [`ExecPolicy`](crate::ExecPolicy) fairness knob),
///   each stream contributes at most that many beats per pass — `1` models strict round-robin
///   QoS between concurrent workloads, `0` the classic unlimited discipline — without changing
///   any stream's outputs or statistics (only the pass structure moves).
/// * **Pass merging** — each pass concatenates the streams' beat segments in admission order and
///   dispatches them in cache-resident tiles of about `PASS_TILE_BEATS` (1024) beats through
///   [`RayFlexDatapath::execute_segmented_chunk`], which attributes every beat to its stream's
///   [`QueryKind`] in the per-kind `BeatMix` table.  The pass itself is recorded once, after its
///   last tile ([`RayFlexDatapath::record_pass`], with each stream's total beats), so pass
///   counters — and whether the pass counts as *fused* (at least two kinds contributed) — do not
///   depend on the tile size.
/// * **Per-stream bit-identity** — a stream's own beat order is untouched by fusion and tiling
///   (segments are contiguous, items never split across a segment or tile, and the datapath
///   carries no state across beats except the distance accumulators, whose beat trains stay
///   contiguous inside one segment), so outputs and per-stream statistics equal sequential
///   scheduling exactly.
///
/// The buffers are reusable across runs; a steady-state workload performs no per-pass
/// allocation.
///
/// [`ExecMode::Wavefront`]: crate::ExecMode::Wavefront
#[derive(Debug, Default)]
pub struct FusedScheduler {
    /// Reusable merged request buffer: one tile of a pass.
    requests: Vec<RayFlexRequest>,
    /// Reusable response buffer, parallel to `requests` after dispatch.
    responses: Vec<RayFlexResponse>,
    /// `(kind, beat_count)` per stream for the current logical pass, in admission order.
    segments: Vec<(QueryKind, usize)>,
    /// `(kind, beat_count)` per non-empty stream segment of the current tile.
    tile_segments: Vec<(QueryKind, usize)>,
    /// Stream index of each `tile_segments` entry.
    tile_streams: Vec<usize>,
    /// Per-stream beat budget per pass (`0` = unlimited); see
    /// [`FusedScheduler::set_beat_budget`].
    beat_budget_per_stream: usize,
    /// Admission ordering of the shared passes; see [`FusedScheduler::set_admission_order`].
    admission_order: crate::policy::AdmissionOrder,
    /// Per-stream deadlines (in caller units; `0` = none) keyed by stream index, consulted by
    /// [`AdmissionOrder::EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst);
    /// see [`FusedScheduler::set_stream_deadlines`].
    stream_deadlines: Vec<u64>,
    /// Reusable admission-order buffer: `order[position] = stream index`, recomputed per run.
    order: Vec<usize>,
    /// Passes dispatched by the most recent run.
    last_run_passes: u64,
    /// Passes each stream contributed at least one beat to, in admission order, for the most
    /// recent run.
    stream_passes: Vec<u64>,
}

impl FusedScheduler {
    /// Creates an empty fused scheduler (buffers grow on first use, no beat budget).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder form of [`FusedScheduler::set_beat_budget`].
    #[must_use]
    pub fn with_beat_budget(mut self, beats_per_stream_per_pass: usize) -> Self {
        self.set_beat_budget(beats_per_stream_per_pass);
        self
    }

    /// Sets the per-stream admission budget: the maximum beats any one stream contributes to one
    /// shared pass.  `0` (the default) admits every active item each pass; `1` is strict
    /// round-robin — each stream advances one item's beat train per pass.  An item's beat train
    /// is never split, so a segment may overshoot the budget by the last train's tail.  The
    /// budget is pure pass-structure fairness: per-stream outputs and statistics are identical
    /// at every budget (pinned by `rtunit/tests/proptest_policy.rs`).
    pub fn set_beat_budget(&mut self, beats_per_stream_per_pass: usize) {
        self.beat_budget_per_stream = beats_per_stream_per_pass;
    }

    /// The configured per-stream beat budget (`0` = unlimited).
    #[must_use]
    pub fn beat_budget(&self) -> usize {
        self.beat_budget_per_stream
    }

    /// Sets the admission ordering of the shared passes (see
    /// [`AdmissionOrder`](crate::AdmissionOrder)): with
    /// [`EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst), every pass
    /// builds and issues its stream segments in ascending order of the deadlines registered by
    /// [`FusedScheduler::set_stream_deadlines`] (deadline `0` = none = last, ties by stream
    /// index) instead of slice order.  Pure issue-order policy: per-stream outputs and
    /// statistics are admission-order-invariant (pinned by `rtunit/tests/proptest_policy.rs`).
    pub fn set_admission_order(&mut self, order: crate::policy::AdmissionOrder) {
        self.admission_order = order;
    }

    /// Builder form of [`FusedScheduler::set_admission_order`].
    #[must_use]
    pub fn with_admission_order(mut self, order: crate::policy::AdmissionOrder) -> Self {
        self.set_admission_order(order);
        self
    }

    /// Registers per-stream deadlines for
    /// [`EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst) admission:
    /// `deadlines[i]` belongs to `streams[i]` of the next run, in any caller unit where smaller
    /// means more urgent (`0` = no deadline, sorts last).  Streams past the end of the slice
    /// carry no deadline.  The registration persists across runs until replaced.
    pub fn set_stream_deadlines(&mut self, deadlines: &[u64]) {
        self.stream_deadlines.clear();
        self.stream_deadlines.extend_from_slice(deadlines);
    }

    /// The admission order of the most recent run: `order[position] = stream index`, the order
    /// segments were built and issued within each shared pass.  Identity under
    /// [`Fifo`](crate::AdmissionOrder::Fifo) or when no deadlines distinguish the streams.
    #[must_use]
    pub fn last_run_admission(&self) -> &[usize] {
        &self.order
    }

    /// Number of bulk passes the most recent run dispatched (diagnostics).
    #[must_use]
    pub fn last_run_passes(&self) -> u64 {
        self.last_run_passes
    }

    /// How many passes each stream of the most recent run contributed at least one beat to, in
    /// admission order — the per-stream fairness fingerprint a beat budget reshapes (reported by
    /// the fused benchmark suite).
    #[must_use]
    pub fn last_run_stream_passes(&self) -> &[u64] {
        &self.stream_passes
    }

    /// Runs `streams` the way `policy` dispatches them — the one place where an execution mode
    /// becomes a scheduler configuration: the beat budget applies under
    /// [`ExecMode::Fused`](crate::ExecMode::Fused) only, the admission order (with `deadlines`,
    /// one per stream) always, and [`ExecMode::ScalarReference`](crate::ExecMode::ScalarReference)
    /// takes the round-robin reference discipline while every batched mode takes the tiled bulk
    /// pass loop.  `max_total_beats` caps the run as in [`FusedScheduler::run_capped`].
    /// Which streams share a run is the caller's choice.
    pub(crate) fn run_policy(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        policy: &crate::ExecPolicy,
        deadlines: &[u64],
        max_total_beats: u64,
    ) -> CappedFusedRun {
        use crate::ExecMode;
        self.set_beat_budget(if policy.mode == ExecMode::Fused {
            policy.beat_budget_per_stream
        } else {
            0
        });
        self.set_admission_order(policy.admission_order);
        self.set_stream_deadlines(deadlines);
        if policy.mode == ExecMode::ScalarReference {
            self.run_reference_capped(datapath, streams, max_total_beats)
        } else {
            self.run_capped(datapath, streams, max_total_beats)
        }
    }

    /// Starts every stream and resets the per-run bookkeeping: the admission order — identity
    /// for FIFO, or a stable (deadline, index) sort for earliest-deadline-first — and the pass
    /// counters.
    fn begin(&mut self, streams: &mut [&mut dyn FusedStream]) {
        for stream in streams.iter_mut() {
            stream.start();
        }
        self.order.clear();
        self.order.extend(0..streams.len());
        if self.admission_order == crate::policy::AdmissionOrder::EarliestDeadlineFirst {
            let deadlines = &self.stream_deadlines;
            self.order.sort_by_key(|&index| {
                let deadline = deadlines
                    .get(index)
                    .copied()
                    .filter(|&deadline| deadline != 0)
                    .unwrap_or(u64::MAX);
                (deadline, index)
            });
        }
        self.last_run_passes = 0;
        self.stream_passes.clear();
        self.stream_passes.resize(streams.len(), 0);
        self.requests.clear();
        self.tile_segments.clear();
        self.tile_streams.clear();
    }

    /// Runs every stream to completion against `datapath`, merging their beats into shared bulk
    /// passes.  After this returns, each [`StreamRunner`] holds its finished items; call
    /// [`StreamRunner::finish`] to extract the outputs.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run(&mut self, datapath: &mut RayFlexDatapath, streams: &mut [&mut dyn FusedStream]) {
        let progress = self.run_capped(datapath, streams, 0);
        debug_assert!(progress.complete, "an uncapped fused run always completes");
    }

    /// Runs the streams like [`FusedScheduler::run`], but cooperatively cancels at the first
    /// pass boundary where the run has spent at least `max_total_beats` datapath beats (`0`
    /// disables the cap).
    ///
    /// The check sits at the top of the pass loop, so the pass in flight when the budget crosses
    /// the line completes, and the run may overshoot the cap by that pass's beats.  With a cap
    /// of at least one, the first pass always executes, so a capped run always makes forward
    /// progress.  A cancelled run leaves streams mid-flight — extract each stream's completed
    /// prefix with [`StreamRunner::finish_partial`]; cancelled items never surface.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_capped(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        max_total_beats: u64,
    ) -> CappedFusedRun {
        self.begin(streams);
        let mut beats_spent = 0u64;
        while streams.iter().any(|stream| stream.is_active()) {
            // The pass boundary is the cooperative cancellation point.
            if max_total_beats != 0 && beats_spent >= max_total_beats {
                return CappedFusedRun {
                    beats: beats_spent,
                    complete: false,
                };
            }

            // One logical pass: every stream appends its (budget-limited) segment in admission
            // order (slice order, or earliest-deadline-first).  Whenever the tile fills, it is
            // dispatched and its responses applied before the build resumes.  Applying a tile
            // early is invisible to the items: a response only ever touches its own item's
            // state, and an item builds exactly once per pass either way.
            self.segments.clear();
            for position in 0..self.order.len() {
                let index = self.order[position];
                let kind = streams[index].kind();
                let mut beats = 0;
                loop {
                    let before = self.requests.len();
                    let pass_built = streams[index].build_pass(
                        &mut self.requests,
                        self.beat_budget_per_stream,
                        PASS_TILE_BEATS,
                    );
                    let appended = self.requests.len() - before;
                    if appended > 0 {
                        beats += appended;
                        self.tile_segments.push((kind, appended));
                        self.tile_streams.push(index);
                    }
                    if pass_built {
                        break;
                    }
                    self.flush_tile(datapath, streams);
                }
                self.segments.push((kind, beats));
                self.stream_passes[index] += u64::from(beats > 0);
            }
            self.flush_tile(datapath, streams);
            let pass_beats: usize = self.segments.iter().map(|&(_, beats)| beats).sum();
            if pass_beats == 0 {
                // Every remaining item retired during the build (beatless drains exist — a
                // collection item whose whole subtree is leaves, say).
                break;
            }
            // Pass accounting is per logical pass, not per tile.
            datapath.record_pass(&self.segments);
            self.last_run_passes += 1;
            beats_spent += pass_beats as u64;
        }
        CappedFusedRun {
            beats: beats_spent,
            complete: true,
        }
    }

    /// Dispatches the current tile in one bulk call and hands each stream segment its
    /// contiguous slice of the responses, then empties the tile.
    fn flush_tile(&mut self, datapath: &mut RayFlexDatapath, streams: &mut [&mut dyn FusedStream]) {
        if self.requests.is_empty() {
            return;
        }
        datapath.execute_segmented_chunk(&self.requests, &self.tile_segments, &mut self.responses);
        let mut offset = 0;
        for (&index, &(_, beats)) in self.tile_streams.iter().zip(&self.tile_segments) {
            streams[index].apply_pass(&self.responses[offset..offset + beats]);
            offset += beats;
        }
        self.requests.clear();
        self.tile_segments.clear();
        self.tile_streams.clear();
    }

    /// The scalar round-robin reference mode of [`FusedScheduler::run`]: the same pass schedule
    /// (including the configured beat budget) and the same per-stream beat orders, but every
    /// beat executes one at a time through the register-accurate emulated path
    /// ([`RayFlexDatapath::execute_attributed`]) with the streams taking turns pass by pass — no
    /// bulk dispatch at all.
    ///
    /// Per-stream outputs and statistics are bit-identical to [`FusedScheduler::run`] (the
    /// fast batched model and the emulated model are bit-equal by `core`'s property tests, and
    /// the beat order is the same), which is what the fused property tests pin.  Beats executed
    /// here count toward the per-kind `BeatMix` attribution but not toward pass counters.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_reference(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
    ) {
        let progress = self.run_reference_capped(datapath, streams, 0);
        debug_assert!(
            progress.complete,
            "an uncapped reference run always completes"
        );
    }

    /// The deadline-capped sibling of [`FusedScheduler::run_reference`]: the same scalar
    /// round-robin schedule, cooperatively cancelled at the first round boundary where the run
    /// has spent at least `max_total_beats` emulated beats (`0` disables the cap).  Used as the
    /// capped [`ScalarReference`](crate::ExecMode::ScalarReference) discipline so scalar and
    /// batched capped runs share the same pass-boundary cancellation semantics.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_reference_capped(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        max_total_beats: u64,
    ) -> CappedFusedRun {
        self.begin(streams);
        let mut beats_spent = 0u64;
        while streams.iter().any(|stream| stream.is_active()) {
            // The round boundary is the reference discipline's pass boundary.
            if max_total_beats != 0 && beats_spent >= max_total_beats {
                return CappedFusedRun {
                    beats: beats_spent,
                    complete: false,
                };
            }
            // Round-robin: each stream in turn (in admission order) builds its (budget-limited)
            // pass segment — untiled — and has it executed beat by beat before the next stream
            // takes over.  The scheduler-side pass accounting mirrors `run` (one scheduled
            // round = one pass, per-stream contributions counted) even though the datapath's
            // own bulk-pass counters stay at zero — no bulk dispatch ever happens here.
            let mut round_had_beats = false;
            for position in 0..self.order.len() {
                let index = self.order[position];
                let stream = &mut *streams[index];
                self.requests.clear();
                let pass_built =
                    stream.build_pass(&mut self.requests, self.beat_budget_per_stream, usize::MAX);
                debug_assert!(pass_built, "an untiled build always completes its pass");
                if self.requests.is_empty() {
                    continue;
                }
                round_had_beats = true;
                self.stream_passes[index] += 1;
                beats_spent += self.requests.len() as u64;
                self.responses.clear();
                for request in &self.requests {
                    self.responses
                        .push(datapath.execute_attributed(request, stream.kind()));
                }
                stream.apply_pass(&self.responses);
            }
            self.last_run_passes += u64::from(round_had_beats);
        }
        CappedFusedRun {
            beats: beats_spent,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_core::PipelineConfig;
    use rayflex_geometry::{Aabb, Ray, Vec3};

    /// A toy query: each item tests its ray against one box per pass, for `rounds` passes, and
    /// counts hits.
    struct CountingQuery {
        kind: QueryKind,
        rays: Vec<Ray>,
        boxes: [Aabb; 4],
        rounds: usize,
        built: usize,
    }

    #[derive(Debug, Default)]
    struct CountingState {
        remaining: usize,
        hits: usize,
    }

    impl BatchQuery for CountingQuery {
        type State = CountingState;
        type Output = usize;

        fn kind(&self) -> QueryKind {
            self.kind
        }

        fn items(&self) -> usize {
            self.rays.len()
        }

        fn reset(&mut self, _item: usize, state: &mut CountingState) {
            state.remaining = self.rounds;
            state.hits = 0;
        }

        fn build(
            &mut self,
            item: usize,
            state: &mut CountingState,
            out: &mut Vec<RayFlexRequest>,
        ) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            self.built += 1;
            out.push(RayFlexRequest::ray_box(
                item as u64,
                &self.rays[item],
                &self.boxes,
            ));
            true
        }

        fn apply(&mut self, _item: usize, state: &mut CountingState, response: &RayFlexResponse) {
            let result = response.box_result.expect("box beat");
            state.hits += usize::from(result.hit[0]);
        }

        fn finish(&mut self, _item: usize, state: &mut CountingState) -> usize {
            state.hits
        }
    }

    fn toy_query(rays: usize, rounds: usize) -> CountingQuery {
        toy_query_of_kind(QueryKind::ClosestHit, rays, rounds)
    }

    fn toy_query_of_kind(kind: QueryKind, rays: usize, rounds: usize) -> CountingQuery {
        CountingQuery {
            kind,
            rays: (0..rays)
                .map(|i| {
                    Ray::new(
                        Vec3::new(i as f32 * 0.1, 0.0, -5.0),
                        Vec3::new(0.0, 0.0, 1.0),
                    )
                })
                .collect(),
            boxes: [Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)); 4],
            rounds,
            built: 0,
        }
    }

    /// Runs `query` alone — a one-stream run, the single-kind wavefront — returning its
    /// outputs and the query (for its counters).
    fn run_alone<Q: BatchQuery>(
        scheduler: &mut FusedScheduler,
        datapath: &mut RayFlexDatapath,
        query: Q,
    ) -> (Vec<Q::Output>, Q) {
        let mut runner = StreamRunner::new(query);
        scheduler.run(datapath, &mut [&mut runner]);
        let (query, outputs) = runner.finish();
        (outputs, query)
    }

    #[test]
    fn the_scheduler_runs_every_item_to_completion() {
        let mut scheduler = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (outputs, query) = run_alone(&mut scheduler, &mut datapath, toy_query(9, 3));
        assert_eq!(outputs, vec![3; 9], "every round of every item hit");
        assert_eq!(query.built, 9 * 3);
        assert_eq!(datapath.executed_beats(), 9 * 3);
        assert_eq!(scheduler.last_run_passes(), 3);
        assert_eq!(
            datapath.beat_mix().fused_passes(),
            0,
            "one stream never fuses"
        );
    }

    #[test]
    fn states_return_to_the_pool_and_are_recycled() {
        let mut scheduler = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(toy_query(6, 2));
        scheduler.run(&mut datapath, &mut [&mut runner]);
        let (_, first, _, arena) = runner.into_parts();
        assert_eq!(arena.pooled_states(), 6);
        let mut runner = StreamRunner::with_arena(toy_query(6, 2), arena);
        scheduler.run(&mut datapath, &mut [&mut runner]);
        let (_, second, _, arena) = runner.into_parts();
        assert_eq!(first, second);
        assert_eq!(arena.pooled_states(), 6, "states recycled, not leaked");
        // A smaller run reuses a prefix of the pool.
        let mut runner = StreamRunner::with_arena(toy_query(2, 1), arena);
        scheduler.run(&mut datapath, &mut [&mut runner]);
        let (_, third, _, arena) = runner.into_parts();
        assert_eq!(third, vec![1; 2]);
        assert_eq!(arena.pooled_states(), 6);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            QueryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), QueryKind::ALL.len());
        assert_eq!(QueryKind::AnyHit.to_string(), "any-hit");
    }

    /// Like the toy query but with a per-item round count, so items retire on different passes —
    /// the shape a capped run needs to expose a nontrivial retired prefix.
    struct StaggeredQuery {
        rays: Vec<Ray>,
        boxes: [Aabb; 4],
        rounds: Vec<usize>,
    }

    impl BatchQuery for StaggeredQuery {
        type State = CountingState;
        type Output = usize;

        fn kind(&self) -> QueryKind {
            QueryKind::ClosestHit
        }

        fn items(&self) -> usize {
            self.rays.len()
        }

        fn reset(&mut self, item: usize, state: &mut CountingState) {
            state.remaining = self.rounds[item];
            state.hits = 0;
        }

        fn build(
            &mut self,
            item: usize,
            state: &mut CountingState,
            out: &mut Vec<RayFlexRequest>,
        ) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            out.push(RayFlexRequest::ray_box(
                item as u64,
                &self.rays[item],
                &self.boxes,
            ));
            true
        }

        fn apply(&mut self, _item: usize, state: &mut CountingState, response: &RayFlexResponse) {
            let result = response.box_result.expect("box beat");
            state.hits += usize::from(result.hit[0]);
        }

        fn finish(&mut self, _item: usize, state: &mut CountingState) -> usize {
            state.hits
        }
    }

    fn staggered_query(rounds: &[usize]) -> StaggeredQuery {
        StaggeredQuery {
            rays: (0..rounds.len())
                .map(|i| {
                    Ray::new(
                        Vec3::new(i as f32 * 0.1, 0.0, -5.0),
                        Vec3::new(0.0, 0.0, 1.0),
                    )
                })
                .collect(),
            boxes: [Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)); 4],
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn a_capped_lockstep_run_cancels_with_an_empty_prefix() {
        // Nine items in lockstep: every pass carries nine beats.  A cap of 10 lets pass 1 (9
        // beats) through, admits pass 2 (9 < 10), and cancels at the pass-3 boundary with 18
        // beats spent — the pass in flight when the budget crosses the line always completes.
        let mut scheduler = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(toy_query(9, 3));
        let run = scheduler.run_capped(&mut datapath, &mut [&mut runner], 10);
        assert_eq!(
            run,
            CappedFusedRun {
                beats: 18,
                complete: false
            },
            "cancellation overshoots by the pass in flight"
        );
        let (_, outputs, total, arena) = runner.into_parts();
        assert_eq!(total, 9);
        assert!(
            outputs.is_empty(),
            "lockstep items are all still in flight: the retired prefix is empty"
        );
        assert_eq!(
            arena.pooled_states(),
            9,
            "cancelled items' states still return to the pool"
        );
    }

    #[test]
    fn finish_partial_extracts_a_true_prefix_from_a_cancelled_fused_run() {
        // On a stream that actually drained, finish_partial equals finish.
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut drained = StreamRunner::new(toy_query(3, 2));
        let progress = fused.run_capped(&mut datapath, &mut [&mut drained], 0);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 6,
                complete: true
            }
        );
        let (_, outputs, total) = drained.finish_partial();
        assert_eq!(outputs, vec![2; 3]);
        assert_eq!(total, 3);

        // A cancelled run leaves the stream mid-flight.  With rounds [1, 2, 3] and a cap of 4,
        // pass 1 (3 beats) executes, pass 2 (2 beats: item 0 retired) crosses the line at 5, and
        // the run cancels.  Item 1's final beat executed in pass 2, but it retires only on its
        // next build call — so the true prefix is item 0 alone.
        let mut capped_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut stream = StreamRunner::new(staggered_query(&[1, 2, 3]));
        let progress = fused.run_capped(&mut capped_dp, &mut [&mut stream], 4);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 5,
                complete: false
            }
        );
        let (_, outputs, total) = stream.finish_partial();
        assert_eq!(outputs, vec![1], "retirement lags issue by one pass");
        assert_eq!(total, 3);

        // The scalar round-robin reference discipline cancels at the same round boundary with
        // the same prefix — capped runs are mode-invariant.
        let mut reference_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut reference = StreamRunner::new(staggered_query(&[1, 2, 3]));
        let progress = fused.run_reference_capped(&mut reference_dp, &mut [&mut reference], 4);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 5,
                complete: false
            }
        );
        let (_, outputs, total) = reference.finish_partial();
        assert_eq!(outputs, vec![1]);
        assert_eq!(total, 3);
    }

    #[test]
    fn fused_streams_match_sequential_scheduling_and_share_passes() {
        // Sequential reference: each stream runs alone, one stream per run.
        let mut scheduler = FusedScheduler::new();
        let mut sequential_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (expected_a, _) = run_alone(&mut scheduler, &mut sequential_dp, toy_query(7, 3));
        let (expected_b, _) = run_alone(
            &mut scheduler,
            &mut sequential_dp,
            toy_query_of_kind(QueryKind::AnyHit, 4, 5),
        );

        // Fused: both streams share every pass of one datapath.
        let mut fused_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut stream_a = StreamRunner::new(toy_query(7, 3));
        let mut stream_b = StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 5));
        let mut fused = FusedScheduler::new();
        fused.run(&mut fused_dp, &mut [&mut stream_a, &mut stream_b]);
        let (query_a, got_a) = stream_a.finish();
        let (query_b, got_b) = stream_b.finish();

        assert_eq!(got_a, expected_a);
        assert_eq!(got_b, expected_b);
        assert_eq!(query_a.built, 7 * 3);
        assert_eq!(query_b.built, 4 * 5);
        // The longer stream needs 5 passes; the shorter shares the first 3.
        assert_eq!(fused.last_run_passes(), 5);
        let mix = fused_dp.beat_mix();
        assert_eq!(mix.fused_passes(), 3, "the first three passes mix kinds");
        assert_eq!(
            mix.kind_total(QueryKind::ClosestHit),
            7 * 3,
            "per-kind attribution survives fusion"
        );
        assert_eq!(mix.kind_total(QueryKind::AnyHit), 4 * 5);
        assert_eq!(mix.total(), sequential_dp.beat_mix().total());
    }

    #[test]
    fn the_round_robin_reference_mode_matches_the_fused_run() {
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 2)),
                StreamRunner::new(toy_query_of_kind(QueryKind::Distance, 3, 4)),
            )
        };
        let mut fused = FusedScheduler::new();

        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2) = streams();
        fused.run(&mut dp_a, &mut [&mut a1, &mut a2]);

        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2) = streams();
        fused.run_reference(&mut dp_b, &mut [&mut b1, &mut b2]);

        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        // Same beats, same attribution — only the dispatch style differs.
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());
        for (kind, opcode, count) in dp_a.beat_mix().iter_kinds() {
            assert_eq!(dp_b.beat_mix().count_for(kind, opcode), count);
        }
        assert_eq!(dp_b.beat_mix().fused_passes(), 0, "no bulk passes at all");
    }

    #[test]
    fn a_beat_budget_reshapes_passes_without_changing_outputs() {
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 3)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 2)),
            )
        };

        let mut unlimited = FusedScheduler::new();
        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2) = streams();
        unlimited.run(&mut dp_a, &mut [&mut a1, &mut a2]);
        assert_eq!(unlimited.beat_budget(), 0);
        assert_eq!(unlimited.last_run_passes(), 3);
        assert_eq!(unlimited.last_run_stream_passes(), &[3, 2]);

        let mut strict = FusedScheduler::new().with_beat_budget(1);
        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2) = streams();
        strict.run(&mut dp_b, &mut [&mut b1, &mut b2]);
        // One beat per stream per pass: the 15-beat stream needs 15 passes, the 8-beat stream
        // rides along in the first 8.
        assert_eq!(strict.last_run_passes(), 15);
        assert_eq!(strict.last_run_stream_passes(), &[15, 8]);

        // Same outputs, same beat totals — only the pass structure moved.
        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());
        assert!(
            dp_b.beat_mix().fused_passes() > 0,
            "streams still share passes"
        );
    }

    #[test]
    fn a_pass_spanning_several_tiles_is_recorded_once() {
        use crate::policy::AdmissionOrder;
        // Stream A's 1500 one-beat items overflow one tile, so each logical pass it builds in
        // dispatches as two tiles.  Issued A-first, the first tile is A alone and the second
        // mixes A's tail with B; issued B-first (EDF), the first tile mixes and the second is
        // A alone.  Either way the pass is one fused pass.
        let streams = || {
            (
                StreamRunner::new(toy_query(1500, 2)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 10, 3)),
            )
        };
        let mut reference = FusedScheduler::new();
        let mut reference_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut r1, mut r2) = streams();
        reference.run_reference(&mut reference_dp, &mut [&mut r1, &mut r2]);
        let (expected_a, expected_b) = (r1.finish().1, r2.finish().1);

        for deadlines in [[0, 0], [0, 1]] {
            let mut fused =
                FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
            fused.set_stream_deadlines(&deadlines);
            let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
            let (mut a, mut b) = streams();
            fused.run(&mut datapath, &mut [&mut a, &mut b]);
            assert_eq!(a.finish().1, expected_a);
            assert_eq!(b.finish().1, expected_b);

            let mix = datapath.beat_mix();
            assert_eq!(fused.last_run_passes(), 3, "{deadlines:?}");
            assert_eq!(
                mix.passes(),
                fused.last_run_passes(),
                "{deadlines:?}: tiles must not count as passes"
            );
            // A has beats in passes 1 and 2, B in passes 1 to 3.
            assert_eq!(fused.last_run_stream_passes(), &[2, 3], "{deadlines:?}");
            assert_eq!(
                mix.fused_passes(),
                2,
                "{deadlines:?}: fusion is judged per logical pass, not per tile"
            );
            assert_eq!(mix.total(), 1500 * 2 + 10 * 3);
        }
    }

    #[test]
    fn a_beat_budget_larger_than_a_tile_counts_per_logical_pass() {
        // A budget of 1200 beats spans two tiles per pass: stream A's 3000 one-beat items need
        // passes of 1200, 1200 and 600 beats, exactly as the untiled reference schedule has it.
        let streams = || {
            (
                StreamRunner::new(toy_query(3000, 1)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 10, 1)),
            )
        };
        let mut reference = FusedScheduler::new().with_beat_budget(1200);
        let mut reference_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut r1, mut r2) = streams();
        reference.run_reference(&mut reference_dp, &mut [&mut r1, &mut r2]);

        let mut tiled = FusedScheduler::new().with_beat_budget(1200);
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a, mut b) = streams();
        tiled.run(&mut datapath, &mut [&mut a, &mut b]);

        assert_eq!(a.finish().1, r1.finish().1);
        assert_eq!(b.finish().1, r2.finish().1);
        assert_eq!(tiled.last_run_stream_passes(), &[3, 1]);
        assert_eq!(
            tiled.last_run_stream_passes(),
            reference.last_run_stream_passes()
        );
        assert_eq!(datapath.beat_mix().passes(), tiled.last_run_passes());
        assert_eq!(datapath.beat_mix().fused_passes(), 1);
    }

    #[test]
    fn edf_admission_reorders_pass_segments_without_changing_outputs() {
        use crate::policy::AdmissionOrder;
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 3)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 2)),
                StreamRunner::new(toy_query_of_kind(QueryKind::Collect, 3, 4)),
            )
        };

        let mut fifo = FusedScheduler::new();
        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2, mut a3) = streams();
        fifo.run(&mut dp_a, &mut [&mut a1, &mut a2, &mut a3]);
        assert_eq!(fifo.last_run_admission(), &[0, 1, 2], "FIFO is identity");

        // Stream 2 carries the tightest deadline, stream 0 none at all — EDF issues 2, 1, 0.
        let mut edf =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        edf.set_stream_deadlines(&[0, 900, 250]);
        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2, mut b3) = streams();
        edf.run(&mut dp_b, &mut [&mut b1, &mut b2, &mut b3]);
        assert_eq!(
            edf.last_run_admission(),
            &[2, 1, 0],
            "deadline-carrying streams issue first, ascending; deadline 0 = none = last"
        );

        // Per-stream outputs, pass counts and beat totals are admission-order-invariant; only
        // segment issue order within each shared pass moved.
        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        assert_eq!(a3.finish().1, b3.finish().1);
        assert_eq!(fifo.last_run_passes(), edf.last_run_passes());
        assert_eq!(
            fifo.last_run_stream_passes(),
            edf.last_run_stream_passes(),
            "per-stream pass attribution stays keyed by stream index"
        );
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());

        // EDF with no deadlines registered degenerates to FIFO (ties broken by index).
        let mut inert =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        let mut dp_c = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut c1, mut c2, mut c3) = streams();
        inert.run(&mut dp_c, &mut [&mut c1, &mut c2, &mut c3]);
        assert_eq!(inert.last_run_admission(), &[0, 1, 2]);

        // The scalar round-robin reference honours the same ordering.
        let mut reference =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        reference.set_stream_deadlines(&[0, 900, 250]);
        let mut dp_d = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut d1, mut d2, mut d3) = streams();
        reference.run_reference(&mut dp_d, &mut [&mut d1, &mut d2, &mut d3]);
        assert_eq!(reference.last_run_admission(), &[2, 1, 0]);
        assert_eq!(d1.finish().1, vec![3; 5], "reference outputs are unchanged");
    }

    #[test]
    fn empty_fused_runs_and_empty_streams_are_fine() {
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        fused.run(&mut datapath, &mut []);
        assert_eq!(fused.last_run_passes(), 0);

        let mut empty = StreamRunner::new(toy_query(0, 4));
        let mut busy = StreamRunner::new(toy_query(3, 2));
        fused.run(&mut datapath, &mut [&mut empty, &mut busy]);
        assert_eq!(empty.finish().1.len(), 0);
        assert_eq!(busy.finish().1, vec![2; 3]);
        assert_eq!(datapath.executed_beats(), 6);
    }

    #[test]
    #[should_panic(expected = "run to completion")]
    fn finishing_an_unrun_stream_panics() {
        let runner = StreamRunner::new(toy_query(2, 1));
        let _ = runner.finish();
    }
}
