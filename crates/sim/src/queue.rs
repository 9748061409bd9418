//! Event queue of the cost engine, over the packed
//! `(time << 64) | discriminant` event keys (see `cost::pack`). Keys are
//! unique (a packet has one pending event at most), so any correct
//! min-queue hands them out in the same order, and results do not depend
//! on which of the queue's two representations a run takes. Debug builds
//! refuse a second pending key for a packet.
//!
//! **A heap for most runs.** Over seeded random mappings the Table 1 rows
//! keep a median of 6–36 pending keys (105–135 on tgff-g/h/i), about one
//! per cycle. [`EventQueue`] holds them in a binary min-heap. The engine
//! hands a packet's own follow-up event to [`EventQueue::next`] instead of
//! pushing it; `next` returns it at once unless the heap's top is smaller,
//! and then swaps it in for the top and returns the old top: one sift
//! instead of a push and a pop. No key may be queued or held behind the
//! cycle of the last key returned (the present); debug builds assert it.
//!
//! **A calendar for crowded runs.** A run whose start events crowd one
//! cycle (at least [`CROWDED_START`] of them) keeps many keys per cycle:
//! the 64×64 shift starts 4,096 events in one cycle and keeps about 2,500
//! in 91 cycles, the 8×8×4 stack 256 and about 190 in 7. A heap sifts
//! each of those keys through the whole frontier and takes 1.7–1.9× as
//! long per evaluation there; a calendar of per-cycle buckets handles a
//! key in O(1), but handles a lone key per cycle more slowly than the
//! heap (1.5–1.9× as long summed over the Table 1 rows; CHANGES.md has
//! the measurements). The queue picks the representation of a run from
//! its start events, in [`EventQueue::start`].
//!
//! The calendar bins events into a ring of per-cycle buckets, and a
//! bucket is a list of packets: each ring slot keeps the packet queued
//! there last, and each packet the packet queued before it in its slot
//! and the low 64 bits of its key (the time is the slot's). A packet has
//! one pending key at most, so one link per packet serves the whole ring,
//! and the keys of one cycle order by their packet. The present cycle is
//! therefore a bitset over the packets: adopting a slot sets its packets'
//! bits, a push into the present sets one more, and the next key is the
//! lowest set bit, so a cycle's keys leave in order without a sort.
//! Events beyond the ring's horizon wait in a `u128`
//! heap until the present comes within reach. An occupancy bitmap, one
//! bit per ring slot, finds the next non-empty cycle with
//! `trailing_zeros`. The queue holds a fixed number of bytes per packet
//! and per ring slot, however a run's events crowd its cycles, and a
//! warmed queue allocates nothing.

use crate::cost::{packet_of, NIL};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Start events sharing the earliest start cycle from which a run takes
/// the calendar. The Table 1 rows start at most 4 events in that cycle,
/// the 8×8×4 stack 256 and the 64×64 shift 4,096.
pub(crate) const CROWDED_START: usize = 32;

#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    calendar: Calendar,
    /// This run takes the calendar.
    crowded: bool,
    /// Packets of this run: every key's packet lies below it.
    packets: usize,
    /// The present: cycle of the last key returned.
    #[cfg(debug_assertions)]
    present: u64,
    /// Per packet: whether a key of it is queued or held.
    #[cfg(debug_assertions)]
    pending: Vec<bool>,
}

impl EventQueue {
    /// Whether this run takes the calendar.
    #[cfg(test)]
    pub(crate) fn is_crowded(&self) -> bool {
        self.crowded
    }

    /// Empties the queue for the next run, of `packets` packets, which
    /// starts on the heap. Buffers stay.
    pub(crate) fn clear(&mut self, packets: usize) {
        self.heap.clear();
        self.calendar.clear();
        self.crowded = false;
        self.packets = packets;
        #[cfg(debug_assertions)]
        {
            self.present = 0;
            self.pending.clear();
            self.pending.resize(packets, false);
        }
    }

    /// Picks the representation of the run whose start events were queued
    /// since [`EventQueue::clear`]: the calendar when at least
    /// [`CROWDED_START`] of them share the earliest start cycle, and the
    /// heap otherwise.
    pub(crate) fn start(&mut self) {
        let Some(first) = self.heap.peek().map(|top| (top.0 >> 64) as u64) else {
            return;
        };
        let crowd = (self.heap.iter())
            .filter(|key| (key.0 >> 64) as u64 == first)
            .count();
        if crowd >= CROWDED_START {
            self.crowded = true;
            self.calendar.reserve(self.packets);
            self.calendar
                .start(first, self.heap.drain().map(|key| key.0));
        }
    }

    /// Queues `key`, which must lie at or after the present and belong to
    /// a packet with no pending key.
    #[inline]
    pub(crate) fn push(&mut self, key: u128) {
        #[cfg(debug_assertions)]
        {
            assert!(key >> 64 >= self.present.into(), "push behind the present");
            self.note_pending(key);
        }
        if self.crowded {
            return self.calendar.push(key);
        }
        self.heap.push(Reverse(key));
    }

    /// The next key to handle once `held`, if any, joins the queue: what
    /// `push(held)` then a pop would return.
    #[inline]
    pub(crate) fn next(&mut self, held: Option<u128>) -> Option<u128> {
        #[cfg(debug_assertions)]
        if let Some(held) = held {
            self.note_pending(held);
        }
        let key = if self.crowded {
            if let Some(held) = held {
                self.calendar.push(held);
            }
            self.calendar.pop()?
        } else {
            match held {
                Some(held) => match self.heap.peek_mut() {
                    Some(mut top) if top.0 < held => std::mem::replace(&mut *top, Reverse(held)).0,
                    _ => held,
                },
                None => self.heap.pop()?.0,
            }
        };
        #[cfg(debug_assertions)]
        {
            let cycle = (key >> 64) as u64;
            assert!(cycle >= self.present, "held key behind the present");
            self.present = cycle;
            if let Some(pending) = self.pending.get_mut(packet_of(key)) {
                *pending = false;
            }
        }
        Some(key)
    }

    /// Marks the packet of `key` pending, refusing a packet outside the
    /// run and a second pending key for one packet.
    #[cfg(debug_assertions)]
    fn note_pending(&mut self, key: u128) {
        let p = packet_of(key);
        assert!(p < self.pending.len(), "a key of a packet outside the run");
        if let Some(pending) = self.pending.get_mut(p) {
            assert!(!*pending, "a second pending key for one packet");
            *pending = true;
        }
    }
}

/// Ring capacity in cycles. Push deltas in the engine are bounded by
/// `n_flits·tl + tr` and successor `comp_cycles` — typically well under
/// a thousand cycles; anything farther ahead overflows into the `u128`
/// heap and migrates back into the ring as time advances.
const WINDOW: u64 = 1024;
const MASK: u64 = WINDOW - 1;
/// Words of the ring's occupancy bitmap, one bit per slot.
const WORDS: usize = (WINDOW / 64) as usize;

/// The calendar (see the module docs). `Default`/`clear` leave it
/// unallocated; [`Calendar::reserve`] sizes it for a run, and buffers are
/// retained across runs so a warmed queue allocates nothing.
#[derive(Debug, Clone, Default)]
struct Calendar {
    len: usize,
    /// The present: the cycle being drained.
    cur: u64,
    /// Packets with a key in the present cycle, one bit each. A packet
    /// has one pending key at most, so the keys of one cycle order by
    /// their packet, and the lowest set bit is the next key.
    current: Vec<u64>,
    /// Keys in the present cycle: the bits set in `current`.
    current_items: usize,
    /// Word of `current` from which the lowest set bit is sought; no bit
    /// below it is set.
    scan: usize,
    /// `WINDOW` per-cycle buckets, each the packet queued there last or
    /// `NIL`; slot `t & MASK` holds time `t`, for `t` in
    /// `(cur, cur + WINDOW]`.
    heads: Vec<u32>,
    /// Per packet in the ring: the packet queued before it in its slot,
    /// or `NIL`.
    next: Vec<u32>,
    /// Per packet in the ring or the present cycle: the low half of its
    /// key.
    low: Vec<u64>,
    /// Bit `s` is set iff slot `s` holds a packet.
    occupied: [u64; WORDS],
    /// Total events parked in the ring.
    ring_items: usize,
    /// Events pushed beyond the ring horizon (full keys), all after the
    /// present; they drain back into the ring as the present advances.
    overflow: BinaryHeap<Reverse<u128>>,
}

impl Calendar {
    /// Sizes the calendar for a run of `packets` packets.
    fn reserve(&mut self, packets: usize) {
        if self.heads.is_empty() {
            self.heads.resize(WINDOW as usize, NIL);
        }
        if self.next.len() < packets {
            self.next.resize(packets, NIL);
            self.low.resize(packets, 0);
            self.current.resize(packets.div_ceil(64), 0);
        }
    }

    /// Starts a run from its start `keys` at the earliest of their
    /// cycles, `first`, which becomes the present.
    fn start(&mut self, first: u64, keys: impl Iterator<Item = u128>) {
        self.cur = first;
        for key in keys {
            self.push(key);
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.cur = 0;
        if self.current_items > 0 {
            self.current.fill(0);
            self.current_items = 0;
        }
        self.scan = usize::MAX;
        if self.ring_items > 0 {
            self.heads.fill(NIL);
            self.occupied = [0; WORDS];
            self.ring_items = 0;
        }
        self.overflow.clear();
    }

    /// Queues `key`, which must lie at or after the present.
    #[inline(always)]
    fn push(&mut self, key: u128) {
        self.len += 1;
        let t = (key >> 64) as u64;
        debug_assert!(t >= self.cur, "push behind the present");
        if t == self.cur {
            self.store_low(key);
            self.mark(packet_of(key));
        } else if t - self.cur <= WINDOW {
            self.ring_push(t, key);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.current_items == 0 {
            self.advance();
        }
        while let Some(word) = self.current.get_mut(self.scan) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                self.current_items -= 1;
                let low = self.low.get(self.scan * 64 + bit).copied()?;
                return Some(((self.cur as u128) << 64) | low as u128);
            }
            self.scan += 1;
        }
        None
    }

    /// Records `key`'s low half as its packet's.
    #[inline(always)]
    fn store_low(&mut self, key: u128) {
        // noc-verify: allow(PANIC01) — a key's packet lies below the run's packets, which reserve() sized low to
        self.low[packet_of(key)] = key as u64;
    }

    /// Puts packet `p`, whose key's low half `low` holds, into the
    /// present cycle.
    #[inline(always)]
    fn mark(&mut self, p: usize) {
        // noc-verify: allow(PANIC01) — p lies below the run's packets, which reserve() gave current a bit each for
        self.current[p / 64] |= 1 << (p % 64);
        self.current_items += 1;
        self.scan = self.scan.min(p / 64);
    }

    /// Links the packet of `key` into the ring slot of its time `t` and
    /// marks the slot occupied. `t` must lie in `(cur, cur + WINDOW]`.
    #[inline(always)]
    fn ring_push(&mut self, t: u64, key: u128) {
        let slot = (t & MASK) as usize;
        let p = packet_of(key);
        // noc-verify: allow(PANIC01) — slot is masked below WINDOW, the length reserve() gave heads
        let before = std::mem::replace(&mut self.heads[slot], p as u32);
        // noc-verify: allow(PANIC01) — a key's packet lies below the run's packets, which reserve() sized next to
        self.next[p] = before;
        self.store_low(key);
        // noc-verify: allow(PANIC01) — slot < WINDOW, so slot / 64 < WORDS
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_items += 1;
    }

    /// Time of the earliest ring event up to cycle `last`, which lies in
    /// `(cur, cur + WINDOW]`, or `None` if no slot up to it is occupied.
    /// Scans the bitmap from the slot of `cur + 1` to the slot of `last`.
    /// Slots are numbered on from `start` without wrapping (`end` <
    /// `start + WINDOW`), so a slot's distance from `start` is its time's
    /// distance from `cur + 1`; only the word index wraps.
    fn ring_first_through(&self, last: u64) -> Option<u64> {
        debug_assert!(last > self.cur && last - self.cur <= WINDOW);
        if self.ring_items == 0 {
            return None;
        }
        let start = (self.cur + 1) & MASK;
        let end = start + (last - self.cur - 1);
        for w in start / 64..=end / 64 {
            // noc-verify: allow(PANIC01) — the word index is reduced modulo WORDS
            let mut bits = self.occupied[(w % WORDS as u64) as usize];
            if w == start / 64 {
                bits &= u64::MAX << (start % 64);
            }
            if w == end / 64 {
                bits &= u64::MAX >> (63 - end % 64);
            }
            if bits != 0 {
                let slot = w * 64 + u64::from(bits.trailing_zeros());
                return Some(self.cur + 1 + (slot - start));
            }
        }
        None
    }

    /// Moves the present to the next non-empty cycle and marks its
    /// packets. Called only when the present is drained but events
    /// remain.
    fn advance(&mut self) {
        debug_assert!(self.ring_items > 0 || !self.overflow.is_empty());
        let ring_next = self.ring_first_through(self.cur + WINDOW);
        let over_next = self.overflow.peek().map(|r| (r.0 >> 64) as u64);
        let t = match (ring_next, over_next) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return,
        };
        self.cur = t;
        self.scan = usize::MAX;
        if ring_next == Some(t) {
            let slot = (t & MASK) as usize;
            // noc-verify: allow(PANIC01) — slot < WINDOW, so slot / 64 < WORDS
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            // noc-verify: allow(PANIC01) — slot is masked below WINDOW, the length reserve() gave heads
            let mut p = std::mem::replace(&mut self.heads[slot], NIL) as usize;
            // `NIL` lies past every packet, so the walk ends there.
            while let Some(&after) = self.next.get(p) {
                self.mark(p);
                self.ring_items -= 1;
                p = after as usize;
            }
        }
        // Overflow events now at the present join it; those that fell
        // inside the (moved) window migrate into the ring.
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let kt = (key >> 64) as u64;
            if kt == t {
                self.store_low(key);
                self.mark(packet_of(key));
            } else if kt - t <= WINDOW {
                self.ring_push(kt, key);
            } else {
                break;
            }
            self.overflow.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::pack;

    /// Packets of every test run: each key's packet lies below it.
    const PACKETS: usize = 1024;

    impl EventQueue {
        fn len(&self) -> usize {
            self.heap.len() + self.calendar.len
        }

        fn pop(&mut self) -> Option<u128> {
            self.next(None)
        }

        /// Bytes of buffer the queue retains across [`EventQueue::clear`].
        fn retained_bytes(&self) -> usize {
            let c = &self.calendar;
            let words = c.current.capacity() + c.low.capacity();
            let links = c.heads.capacity() + c.next.capacity();
            let keys = self.heap.capacity() + c.overflow.capacity();
            8 * words + 4 * links + 16 * keys
        }
    }

    /// An empty queue for a run of [`PACKETS`] packets in each
    /// representation: the heap, then the calendar.
    fn both() -> [EventQueue; 2] {
        [false, true].map(|crowded| {
            let mut q = EventQueue {
                crowded,
                ..EventQueue::default()
            };
            reset(&mut q);
            q
        })
    }

    /// Empties `q` for a run of [`PACKETS`] packets and keeps its
    /// representation.
    fn reset(q: &mut EventQueue) {
        let crowded = q.crowded;
        q.clear(PACKETS);
        q.crowded = crowded;
        if crowded {
            q.calendar.reserve(PACKETS);
        }
    }

    /// Cases per seeded generator; override with `NOC_FUZZ_CASES` (the
    /// scheduled CI fuzz job runs hundreds).
    fn fuzz_cases() -> u64 {
        std::env::var("NOC_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
    }

    /// The seed of generator case `case`; case 0 is `base` itself.
    fn case_seed(base: u64, case: u64) -> u64 {
        base.wrapping_add(case.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Reference: plain binary heap, for each representation.
    fn drain_both(ops: Vec<(bool, u128)>) {
        for q in both() {
            drain_both_from(q, &ops, 0);
        }
    }

    /// Runs `ops` — `(true, _)` pops, `(false, key)` pushes — on `q`,
    /// which must be empty, and on a binary heap, asserting that every
    /// pop agrees, then drains both; `q` picks its representation once
    /// the first `start` ops have run. The ops run twice: as given, and
    /// with every later push that a pop directly follows handed to `next`
    /// as the held key, which must return what the heap's push then pop
    /// return.
    fn drain_both_from(q: EventQueue, ops: &[(bool, u128)], start: usize) {
        let (starts, ops) = ops.split_at(start);
        for hold in [false, true] {
            let mut q = q.clone();
            let mut h: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
            for &(_, k) in starts {
                q.push(k);
                h.push(Reverse(k));
            }
            q.start();
            let mut ops = ops.iter().peekable();
            while let Some(&(is_pop, k)) = ops.next() {
                let held = if is_pop {
                    None
                } else {
                    h.push(Reverse(k));
                    if hold && ops.next_if(|op| op.0).is_some() {
                        Some(k)
                    } else {
                        q.push(k);
                        assert_eq!(q.len(), h.len());
                        continue;
                    }
                };
                let got = q.next(held);
                assert_eq!(got, h.pop().map(|r| r.0), "held {held:?}");
                assert_eq!(q.len(), h.len());
            }
            while let Some(k) = q.next(None) {
                assert_eq!(Some(k), h.pop().map(|r| r.0));
            }
            assert!(h.pop().is_none());
            assert_eq!(q.len(), 0);
        }
    }

    /// The key of `packet` at cycle `t`, with `hop` in its low bits.
    fn key(t: u64, packet: usize, hop: u32) -> u128 {
        pack(t, packet, 0, hop)
    }

    /// Op lists shaped like the engine's traffic: every pending key
    /// carries its own packet. A model heap replays the ops as they are
    /// written, so a generator learns which packet each pop hands back
    /// and may queue that packet again.
    #[derive(Default)]
    struct Traffic {
        ops: Vec<(bool, u128)>,
        model: BinaryHeap<Reverse<u128>>,
        /// Cycle of the last pop.
        present: u64,
    }

    impl Traffic {
        /// Queues `packet`, which must have no pending key, at cycle `t`
        /// or, if `t` lies behind the present, at the present: the engine
        /// never queues behind the event it handles.
        fn push(&mut self, t: u64, packet: usize, hop: u32) {
            assert!(
                self.model.iter().all(|k| packet_of(k.0) != packet),
                "generator queued packet {packet} twice"
            );
            let k = key(t.max(self.present), packet, hop);
            self.model.push(Reverse(k));
            self.ops.push((false, k));
        }

        /// Pops the next key, returning its packet (`None` when empty).
        fn pop(&mut self) -> Option<usize> {
            self.ops.push((true, 0));
            let Reverse(k) = self.model.pop()?;
            self.present = (k >> 64) as u64;
            Some(packet_of(k))
        }
    }

    /// Fixed xorshift64 stream: seeded inputs without an RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Gaps that cross bitmap words (63–65), reach the far end of the
    /// ring (1,023, and 1,024 = `WINDOW`, which lands in the slot just
    /// adopted) and overshoot it into the overflow heap (1,025, 5,000).
    const GAPS: [u64; 7] = [63, 64, 65, 1023, 1024, 1025, 5000];

    #[test]
    fn matches_binary_heap_across_long_gaps() {
        for case in 0..fuzz_cases() {
            let mut rng = case_seed(0x9e37_79b9_7f4a_7c15, case);
            for gap in GAPS {
                // A lone packet that re-queues itself `gap` cycles after
                // the present, from a seeded start so the slots sit at
                // varied bit positions.
                let mut g = Traffic::default();
                let mut t = xorshift(&mut rng) % 4096;
                g.push(t, 0, 0);
                for hop in 1..300 {
                    let p = g.pop().expect("the lone packet is queued");
                    t += gap;
                    g.push(t, p, hop);
                }
                drain_both(g.ops);

                // Eight packets in flight: each pop re-queues its packet up
                // to two gaps ahead of a base time that drifts forward.
                let mut g = Traffic::default();
                let mut t = xorshift(&mut rng) % 4096;
                for p in 0..8 {
                    g.push(t + p as u64 * gap / 4, p, 0);
                }
                for hop in 1..600 {
                    let p = g.pop().expect("eight packets stay queued");
                    t += xorshift(&mut rng) % (2 * gap) / 8;
                    let ahead = xorshift(&mut rng) % (2 * gap + 1);
                    g.push(t + ahead, p, hop);
                }
                drain_both(g.ops);
            }
        }
    }

    #[test]
    fn push_a_full_window_ahead_lands_in_the_adopted_slot() {
        // Popping the first key at cycle 10 adopts slot 10; a push at
        // 10 + WINDOW maps to that same slot while cycle 10 still drains.
        let mut g = Traffic::default();
        g.push(10, 1, 0);
        g.push(10, 2, 0);
        g.push(11, 3, 0);
        assert_eq!(g.pop(), Some(1));
        g.push(10 + WINDOW, 1, 1);
        g.push(10 + WINDOW - 1, 4, 0);
        assert_eq!(g.pop(), Some(2));
        assert_eq!(g.pop(), Some(3));
        g.push(11 + WINDOW, 3, 1);
        g.pop();
        g.pop();
        drain_both(g.ops);
    }

    #[test]
    fn migrated_overflow_keys_are_found_through_their_bits() {
        // Far keys wait in the overflow heap; each jump of the present
        // migrates the ones now inside the window into the ring, where
        // only their bits lead `advance` to them.
        for case in 0..fuzz_cases() {
            let mut rng = case_seed(0x2545_f491_4f6c_dd1d, case);
            let mut g = Traffic::default();
            g.push(0, 0, 0);
            for p in 1..=96 {
                g.push(2_000 + xorshift(&mut rng) % 12_000, p, 0);
            }
            for hop in 0..160 {
                let popped = g.pop();
                if let Some(p) = popped.filter(|_| hop % 3 == 0) {
                    g.push(2_000 + xorshift(&mut rng) % 12_000, p, hop + 1);
                }
            }
            drain_both(g.ops);
        }
    }

    #[test]
    fn clear_leaves_no_stale_bit() {
        // Warm a queue until ring slots across every bitmap word and the
        // overflow heap hold events, clear it, then replay a fresh
        // sequence: a surviving bit would send `advance` to an empty slot.
        for case in 0..fuzz_cases() {
            for mut q in both() {
                let mut rng = case_seed(0x5851_f42d_4c95_7f2d, case);
                for p in 0..400 {
                    q.push(key(1 + xorshift(&mut rng) % 3_000, p, 0));
                }
                for _ in 0..5 {
                    q.pop();
                }
                reset(&mut q);
                let mut g = Traffic::default();
                for p in 0..200 {
                    g.push(500 + xorshift(&mut rng) % 1_500, p, 0);
                    if p % 4 == 0 {
                        g.pop();
                    }
                }
                drain_both_from(q, &g.ops, 0);
            }
        }
    }

    #[test]
    fn a_crowded_start_moves_onto_the_calendar() {
        // Start events crowd one seeded cycle, a few later cycles and the
        // overflow heap; `start` moves the run onto the calendar, whose
        // present moves to the crowded cycle. Each pop then re-queues its
        // packet, mostly within the present cycle or the next few, as the
        // engine's short hops do.
        for case in 0..fuzz_cases() {
            let mut rng = case_seed(0x3c6e_f372_fe94_f82b, case);
            let mut g = Traffic::default();
            let first = xorshift(&mut rng) % 2_000;
            for p in 0..CROWDED_START + 64 {
                let later = match p % 4 {
                    0 => xorshift(&mut rng) % (3 * WINDOW),
                    1 => xorshift(&mut rng) % 8,
                    _ => 0,
                };
                g.push(first + later, p, 0);
            }
            let start = g.ops.len();
            for hop in 1..1_500 {
                let Some(p) = g.pop() else { break };
                let ahead = xorshift(&mut rng) % 6;
                g.push(g.present + ahead, p, hop);
            }
            let mut q = EventQueue::default();
            q.clear(PACKETS);
            let mut crowded = q.clone();
            for &(_, k) in &g.ops[..start] {
                crowded.push(k);
            }
            crowded.start();
            assert!(crowded.is_crowded());
            drain_both_from(q, &g.ops, start);
        }
    }

    #[test]
    fn matches_binary_heap_on_monotone_traffic() {
        // Simulates the engine's pattern: a burst of start events at one
        // cycle, then pops that re-queue their packet at the same or a
        // future cycle.
        let mut g = Traffic::default();
        for p in 0..200 {
            g.push(8, p, 0);
        }
        for step in 0..1200u32 {
            let p = g.pop().expect("200 packets stay queued");
            let t = 8 + u64::from(step / 2);
            g.push(t + u64::from(step % 37), p, step + 1);
        }
        for _ in 0..400 {
            g.pop();
        }
        drain_both(g.ops);
    }

    #[test]
    fn matches_binary_heap_beyond_window() {
        // Far-future keys (overflow), then near keys, then pops that
        // force window migration.
        let mut g = Traffic::default();
        for p in 0..32 {
            g.push(10_000 + p as u64 * 700, p, 0);
        }
        for p in 32..64 {
            g.push(5 + p as u64, p, 0);
        }
        for _ in 0..70 {
            g.pop();
        }
        drain_both(g.ops);
    }

    #[test]
    fn same_cycle_pushes_while_draining_pop_in_order() {
        for mut q in both() {
            for p in [50, 10, 30] {
                q.push(key(4, p, 0));
            }
            assert_eq!(q.pop(), Some(key(4, 10, 0)));
            // Same-cycle insert below and above the drained point.
            q.push(key(4, 5, 0));
            q.push(key(4, 40, 0));
            assert_eq!(q.pop(), Some(key(4, 5, 0)));
            assert_eq!(q.pop(), Some(key(4, 30, 0)));
            assert_eq!(q.pop(), Some(key(4, 40, 0)));
            assert_eq!(q.pop(), Some(key(4, 50, 0)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn clear_resets_a_warmed_queue() {
        for mut q in both() {
            for p in 0..64 {
                q.push(key(p as u64 * 50, p, 0));
            }
            for _ in 0..10 {
                q.pop();
            }
            q.clear(PACKETS);
            assert_eq!(q.len(), 0);
            assert_eq!(q.pop(), None);
            q.push(key(2, 9, 0));
            assert_eq!(q.pop(), Some(key(2, 9, 0)));
        }
    }

    #[test]
    fn replaying_a_run_retains_the_first_runs_capacity() {
        // One engine-like run from cycle 0: bursts of start events at
        // cycles 0, 300, 600 and 2,000 (beyond the window, so it migrates
        // in), and each popped event re-queueing its packet 1–40 cycles
        // ahead for five more hops. Replayed on one queue with `clear`
        // in between, every buffer fills exactly as before, so the
        // buffers the first run grew, the ring's heads and per-packet
        // links included, must serve every later run unchanged.
        fn run(q: &mut EventQueue) {
            let mut rng = 0x9e37_79b9_7f4a_7c15;
            for p in 0..512 {
                q.push(key([0, 300, 600, 2_000][p % 4], p, 0));
            }
            while let Some(k) = q.pop() {
                let hop = k as u32;
                if hop < 5 {
                    let t = (k >> 64) as u64 + 1 + xorshift(&mut rng) % 40;
                    q.push(key(t, packet_of(k), hop + 1));
                }
            }
        }
        for mut q in both() {
            run(&mut q);
            let first = q.retained_bytes();
            for replay in 2..=40 {
                reset(&mut q);
                run(&mut q);
                assert_eq!(q.retained_bytes(), first, "run {replay}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "push behind the present")]
    fn a_push_behind_the_present_is_refused() {
        // Checked for both representations, before the key is queued.
        let mut q = EventQueue::default();
        q.clear(PACKETS);
        q.push(key(7, 0, 0));
        q.push(key(9, 1, 0));
        assert_eq!(q.pop(), Some(key(7, 0, 0)));
        q.push(key(6, 0, 0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a second pending key for one packet")]
    fn a_second_pending_key_for_a_packet_is_refused() {
        // A calendar bucket links a packet through its one `next`, so a
        // packet with a key queued must not be queued again.
        let [_, mut q] = both();
        q.push(key(3, 7, 0));
        q.push(key(5, 7, 1));
    }
}
