//! Event queue of the cost engine, over the packed
//! `(time << 64) | discriminant` event keys (see `cost::pack`). Keys are
//! unique (a packet has one pending event at most), so any correct
//! min-queue hands them out in the same order, and results do not depend
//! on which of the queue's two representations a run takes.
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
//! The calendar bins events into a ring of per-cycle buckets holding only
//! the low 64 bits of their keys (the time is the bucket's). The current
//! cycle is sorted once on adoption and drains by a bare cursor; a small
//! side heap takes pushes into the cycle being drained, and events beyond
//! the ring's horizon wait in a `u128` heap until the present comes
//! within reach. An occupancy bitmap, one bit per ring slot, finds the
//! next non-empty cycle with `trailing_zeros`. Adopting a slot copies its
//! keys into the one drain buffer and empties the slot, so each slot
//! keeps its own high-water capacity and a warmed queue allocates
//! nothing.

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
    /// The present of the heap: cycle of the last key returned.
    #[cfg(debug_assertions)]
    present: u64,
}

impl EventQueue {
    /// Whether this run takes the calendar.
    #[cfg(test)]
    pub(crate) fn is_crowded(&self) -> bool {
        self.crowded
    }

    /// Empties the queue for the next run, which starts on the heap.
    /// Buffers stay.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.calendar.clear();
        self.crowded = false;
        #[cfg(debug_assertions)]
        {
            self.present = 0;
        }
    }

    /// Picks the representation of the run whose start events were queued
    /// since [`EventQueue::clear`]: the calendar when at least
    /// [`CROWDED_START`] of them share the earliest start cycle, and the
    /// heap otherwise.
    pub(crate) fn start(&mut self) {
        let first = self.heap.peek().map(|top| top.0 >> 64);
        let crowd = (self.heap.iter())
            .filter(|key| Some(key.0 >> 64) == first)
            .count();
        if crowd >= CROWDED_START {
            self.crowded = true;
            for Reverse(key) in self.heap.drain() {
                self.calendar.push(key);
            }
        }
    }

    /// Queues `key`, which must lie at or after the present.
    #[inline]
    pub(crate) fn push(&mut self, key: u128) {
        if self.crowded {
            return self.calendar.push(key);
        }
        #[cfg(debug_assertions)]
        assert!(key >> 64 >= self.present.into(), "push behind the present");
        self.heap.push(Reverse(key));
    }

    /// The next key to handle once `held`, if any, joins the queue: what
    /// `push(held)` then a pop would return.
    #[inline]
    pub(crate) fn next(&mut self, held: Option<u128>) -> Option<u128> {
        if self.crowded {
            if let Some(held) = held {
                self.calendar.push(held);
            }
            return self.calendar.pop();
        }
        let key = match held {
            Some(held) => match self.heap.peek_mut() {
                Some(mut top) if top.0 < held => std::mem::replace(&mut *top, Reverse(held)).0,
                _ => held,
            },
            None => self.heap.pop()?.0,
        };
        #[cfg(debug_assertions)]
        {
            let cycle = (key >> 64) as u64;
            assert!(cycle >= self.present, "held key behind the present");
            self.present = cycle;
        }
        Some(key)
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

/// The calendar (see the module docs). `Default`/`clear` leave the ring
/// unallocated; the first push materializes it, and buffers are retained
/// across runs so a warmed queue allocates nothing.
#[derive(Debug, Clone, Default)]
struct Calendar {
    len: usize,
    /// Cycle the drain belongs to: the present.
    cur: u64,
    /// Low key halves at time `cur`, sorted ascending once on adoption
    /// (pushes arrive in near-sorted pop order, so the sort is cheap)
    /// and consumed through `drain_pos` as plain array reads.
    drain: Vec<u64>,
    drain_pos: usize,
    /// Pushes into the present cycle: the start events of cycle 0 (the
    /// present starts there), held keys of the present cycle and, with
    /// `tl = tr = 0`, successors with no computation, injected in the
    /// cycle their last dependence was delivered.
    side: BinaryHeap<Reverse<u64>>,
    /// `WINDOW` per-cycle buckets of low key halves; slot `t & MASK`
    /// holds time `t`, for `t` in `(cur, cur + WINDOW]`.
    ring: Vec<Vec<u64>>,
    /// Bit `s` is set iff `ring[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Total events parked in the ring.
    ring_items: usize,
    /// Events pushed beyond the ring horizon (full keys), all after the
    /// present; they drain back into the ring as the present advances.
    overflow: BinaryHeap<Reverse<u128>>,
}

impl Calendar {
    fn clear(&mut self) {
        self.len = 0;
        self.cur = 0;
        self.drain.clear();
        self.drain_pos = 0;
        self.side.clear();
        if self.ring_items > 0 {
            for slot in &mut self.ring {
                slot.clear();
            }
            self.occupied = [0; WORDS];
            self.ring_items = 0;
        }
        self.overflow.clear();
    }

    /// Queues `key`, which must lie at or after the present.
    #[inline]
    fn push(&mut self, key: u128) {
        self.len += 1;
        let t = (key >> 64) as u64;
        debug_assert!(t >= self.cur, "push behind the present");
        if t > self.cur {
            let d = t - self.cur;
            if d <= WINDOW {
                self.ring_push(t, key as u64);
            } else {
                self.overflow.push(Reverse(key));
            }
        } else {
            self.side.push(Reverse(key as u64));
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(low) = self.bucket_pop_low() {
            return Some(self.key_at_cur(low));
        }
        self.advance();
        let low = self.bucket_pop_low()?;
        Some(self.key_at_cur(low))
    }

    #[inline]
    fn key_at_cur(&self, low: u64) -> u128 {
        ((self.cur as u128) << 64) | low as u128
    }

    #[inline]
    fn bucket_pop_low(&mut self) -> Option<u64> {
        match (self.drain.get(self.drain_pos).copied(), self.side.peek()) {
            (Some(a), Some(b)) if b.0 < a => self.side.pop().map(|r| r.0),
            (Some(a), _) => {
                self.drain_pos += 1;
                Some(a)
            }
            (None, Some(_)) => self.side.pop().map(|r| r.0),
            (None, None) => None,
        }
    }

    /// Parks `low` in the ring slot of time `t` and marks the slot
    /// occupied. `t` must lie in `(cur, cur + WINDOW]`.
    #[inline]
    fn ring_push(&mut self, t: u64, low: u64) {
        if self.ring.is_empty() {
            self.ring.resize_with(WINDOW as usize, Vec::new);
        }
        let slot = (t & MASK) as usize;
        // noc-verify: allow(PANIC01) — slot index is masked to the ring length
        self.ring[slot].push(low);
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

    /// Moves the present to the next non-empty cycle and adopts its
    /// events into the drain. Called only when the present is drained
    /// but events remain.
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
        debug_assert!(self.side.peek().is_none());
        self.drain.clear();
        self.drain_pos = 0;
        if ring_next == Some(t) {
            let slot = (t & MASK) as usize;
            // noc-verify: allow(PANIC01) — slot < WINDOW, so slot / 64 < WORDS
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            // noc-verify: allow(PANIC01) — slot index is masked to the ring length
            let bucket = &mut self.ring[slot];
            self.ring_items -= bucket.len();
            // Copied, not swapped: the slot keeps its own buffer, sized
            // to its own bursts, for the next run that reaches it.
            self.drain.extend_from_slice(bucket);
            bucket.clear();
        }
        // Overflow events now at the present join the drain; those that
        // fell inside the (moved) window migrate into the ring.
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let kt = (key >> 64) as u64;
            if kt == t {
                self.drain.push(key as u64);
            } else if kt - t <= WINDOW {
                self.ring_push(kt, key as u64);
            } else {
                break;
            }
            self.overflow.pop();
        }
        // Pushes arrive in (near-)ascending pop order, so this is the
        // sort's precomputed-pattern fast path most cycles.
        self.drain.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventQueue {
        fn len(&self) -> usize {
            self.heap.len() + self.calendar.len
        }

        fn pop(&mut self) -> Option<u128> {
            self.next(None)
        }

        /// Keys of capacity the queue retains across [`EventQueue::clear`].
        fn retained_keys(&self) -> usize {
            let c = &self.calendar;
            let slots: usize = c.ring.iter().map(Vec::capacity).sum();
            let calendar = slots + c.drain.capacity() + c.side.capacity() + c.overflow.capacity();
            self.heap.capacity() + calendar
        }
    }

    /// An empty queue in each representation: the heap, then the calendar.
    fn both() -> [EventQueue; 2] {
        [false, true].map(|crowded| EventQueue {
            crowded,
            ..EventQueue::default()
        })
    }

    /// Empties `q` and keeps its representation.
    fn reset(q: &mut EventQueue) {
        let crowded = q.crowded;
        q.clear();
        q.crowded = crowded;
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
            drain_both_from(q, ops.clone());
        }
    }

    /// Runs `ops` — `(true, _)` pops, `(false, key)` pushes — on `q`,
    /// which must be empty, and on a binary heap, asserting that every
    /// pop agrees, then drains both. A push behind the cycle of the last
    /// pop is moved up to that cycle: the engine never pushes behind the
    /// event it handles, and the queue refuses such a push. The ops run
    /// twice: as given, and with every push that a pop directly follows
    /// handed to `next` as the held key, which must return what the
    /// heap's push then pop return.
    fn drain_both_from(q: EventQueue, ops: Vec<(bool, u128)>) {
        for hold in [false, true] {
            let mut q = q.clone();
            let mut h: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
            let mut present = 0;
            let mut ops = ops.iter().peekable();
            while let Some(&(is_pop, k)) = ops.next() {
                let held = if is_pop {
                    None
                } else {
                    let k = if ((k >> 64) as u64) < present {
                        key(present, k as u64)
                    } else {
                        k
                    };
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
                if let Some(k) = got {
                    present = (k >> 64) as u64;
                }
            }
            while let Some(k) = q.next(None) {
                assert_eq!(Some(k), h.pop().map(|r| r.0));
            }
            assert!(h.pop().is_none());
            assert_eq!(q.len(), 0);
        }
    }

    fn key(t: u64, low: u64) -> u128 {
        ((t as u128) << 64) | low as u128
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
                // A lone event that re-queues itself `gap` cycles after the
                // present, from a seeded start so the slots sit at varied
                // bit positions.
                let mut t = xorshift(&mut rng) % 4096;
                let mut ops = vec![(false, key(t, 0))];
                for step in 1..300u64 {
                    ops.push((true, 0));
                    t += gap;
                    ops.push((false, key(t, step)));
                }
                drain_both(ops);

                // Several events in flight: after each pop, one push up to
                // two gaps ahead of a base time that drifts forward.
                let mut ops = Vec::new();
                let mut t = xorshift(&mut rng) % 4096;
                for p in 0..8u64 {
                    ops.push((false, key(t + p * gap / 4, p)));
                }
                for step in 0..600u64 {
                    ops.push((true, 0));
                    t += xorshift(&mut rng) % (2 * gap) / 8;
                    let ahead = xorshift(&mut rng) % (2 * gap + 1);
                    ops.push((false, key(t + ahead, step << 8)));
                }
                drain_both(ops);
            }
        }
    }

    #[test]
    fn push_a_full_window_ahead_lands_in_the_adopted_slot() {
        // Popping the first key at cycle 10 adopts slot 10; a push at
        // 10 + WINDOW maps to that same slot while cycle 10 still drains.
        let ops = vec![
            (false, key(10, 1)),
            (false, key(10, 2)),
            (false, key(11, 0)),
            (true, 0),
            (false, key(10 + WINDOW, 5)),
            (false, key(10 + WINDOW - 1, 4)),
            (true, 0),
            (true, 0),
            (false, key(11 + WINDOW, 3)),
            (true, 0),
            (true, 0),
        ];
        drain_both(ops);
    }

    #[test]
    fn migrated_overflow_keys_are_found_through_their_bits() {
        // Far keys wait in the overflow heap; each jump of the present
        // migrates the ones now inside the window into the ring, where
        // only their bits lead `advance` to them.
        for case in 0..fuzz_cases() {
            let mut rng = case_seed(0x2545_f491_4f6c_dd1d, case);
            let mut ops = vec![(false, key(0, 0))];
            for p in 0..96u64 {
                let t = 2_000 + xorshift(&mut rng) % 12_000;
                ops.push((false, key(t, p)));
            }
            for step in 0..160u64 {
                ops.push((true, 0));
                if step % 3 == 0 {
                    let t = 2_000 + xorshift(&mut rng) % 12_000;
                    ops.push((false, key(t, 1_000 + step)));
                }
            }
            drain_both(ops);
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
                for p in 0..400u64 {
                    q.push(key(1 + xorshift(&mut rng) % 3_000, p));
                }
                for _ in 0..5 {
                    q.pop();
                }
                reset(&mut q);
                let mut ops = Vec::new();
                for p in 0..200u64 {
                    ops.push((false, key(500 + xorshift(&mut rng) % 1_500, p)));
                    if p % 4 == 0 {
                        ops.push((true, 0));
                    }
                }
                drain_both_from(q, ops);
            }
        }
    }

    #[test]
    fn matches_binary_heap_on_monotone_traffic() {
        // Simulates the engine's pattern: bursts at a cycle, pops that
        // push to same or future cycles.
        let mut ops = Vec::new();
        for p in 0..200u64 {
            ops.push((false, key(8, p << 34)));
        }
        for step in 0..1200u64 {
            ops.push((true, 0));
            let t = 8 + step / 2;
            ops.push((false, key(t + (step % 37), (step % 97) << 20 | step)));
        }
        for _ in 0..400 {
            ops.push((true, 0));
        }
        drain_both(ops);
    }

    #[test]
    fn matches_binary_heap_beyond_window() {
        let mut ops = Vec::new();
        // Far-future keys (overflow), then near keys, then pops that
        // force window migration.
        for p in 0..32u64 {
            ops.push((false, key(10_000 + p * 700, p)));
        }
        for p in 0..32u64 {
            ops.push((false, key(5 + p, p << 34)));
        }
        for _ in 0..70 {
            ops.push((true, 0));
        }
        drain_both(ops);
    }

    #[test]
    fn same_cycle_pushes_while_draining_pop_in_order() {
        for mut q in both() {
            for low in [50u64, 10, 30] {
                q.push(key(4, low));
            }
            assert_eq!(q.pop(), Some(key(4, 10)));
            // Same-cycle insert below and above the drained point.
            q.push(key(4, 5));
            q.push(key(4, 40));
            assert_eq!(q.pop(), Some(key(4, 5)));
            assert_eq!(q.pop(), Some(key(4, 30)));
            assert_eq!(q.pop(), Some(key(4, 40)));
            assert_eq!(q.pop(), Some(key(4, 50)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn clear_resets_a_warmed_queue() {
        for mut q in both() {
            for p in 0..64u64 {
                q.push(key(p * 50, p));
            }
            for _ in 0..10 {
                q.pop();
            }
            q.clear();
            assert_eq!(q.len(), 0);
            assert_eq!(q.pop(), None);
            q.push(key(2, 9));
            assert_eq!(q.pop(), Some(key(2, 9)));
        }
    }

    #[test]
    fn replaying_a_run_retains_the_first_runs_capacity() {
        // One engine-like run from cycle 0: bursts of start events at
        // cycles 0, 300, 600 and 2,000 (beyond the window, so it migrates
        // in), and each popped event re-queueing its packet 1–40 cycles
        // ahead for five more hops. Replayed on one queue with `clear`
        // in between, every slot fills exactly as before, so the buffers
        // the first run grew must serve every later run unchanged.
        fn run(q: &mut EventQueue) {
            let mut rng = 0x9e37_79b9_7f4a_7c15;
            for p in 0..512u64 {
                q.push(key([0, 300, 600, 2_000][p as usize % 4], p << 8));
            }
            while let Some(k) = q.pop() {
                if (k as u8) < 5 {
                    let t = (k >> 64) as u64 + 1 + xorshift(&mut rng) % 40;
                    q.push(key(t, k as u64 + 1));
                }
            }
        }
        for mut q in both() {
            run(&mut q);
            let first = q.retained_keys();
            for replay in 2..=40 {
                reset(&mut q);
                run(&mut q);
                assert_eq!(q.retained_keys(), first, "run {replay}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "push behind the present")]
    fn a_push_behind_the_present_is_refused() {
        // The heap's check; the calendar asserts the same in its push.
        let mut q = EventQueue::default();
        q.push(key(7, 0));
        q.push(key(9, 0));
        assert_eq!(q.pop(), Some(key(7, 0)));
        q.push(key(6, 0));
    }
}
