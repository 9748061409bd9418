//! Calendar event queue of the cost engine.
//!
//! [`EventQueue`] is a drop-in replacement for the
//! `BinaryHeap<Reverse<u128>>` the cost engine's event loop used to run
//! on, keyed by the same packed `(time << 64) | discriminant` event keys
//! (see `cost::pack`). It exploits what a generic heap cannot: scheduler
//! time advances (near-)monotonically and event times cluster densely in
//! a narrow window ahead of the present. Events are binned into a ring
//! of per-cycle buckets holding only the **low 64 bits** of their keys
//! (the time is the bucket's); the current cycle is sorted once on
//! adoption — pushes arrive in near-ascending pop order, hitting the
//! sort's presorted fast path — and drains by a bare cursor, with a
//! tiny side heap absorbing same-cycle pushes that arrive mid-drain.
//! Only events beyond the ring horizon fall back to a real `u128` heap.
//! Pushes into the ring are O(1) `Vec` appends; pops are array reads
//! instead of `log(frontier)` 16-byte sift chains.
//!
//! An occupancy bitmap keeps one bit per ring slot: set whenever an
//! event enters the slot (a push, or a migration out of the overflow
//! heap), cleared when the slot is adopted as the present and on
//! [`EventQueue::clear`]. Moving to the next non-empty cycle is then a
//! `trailing_zeros` over at most `WORDS + 1` words rather than a probe
//! of every empty slot in between, so rows whose events are spread thin
//! over time pay for the events, not for the idle cycles between them.
//!
//! The contract — property-pinned by the repository's bit-exactness
//! suites — is that the pop sequence is **identical** to the binary
//! heap's: keys are drawn in ascending `u128` order no matter how pushes
//! interleave, including same-cycle pushes while that cycle drains and
//! (defensively) pushes behind the current cycle, which land in a small
//! sorted `front` spill and still pop in exact order. Since the engine's
//! keys form a total order (a packet has at most one pending event), any
//! correct min-queue yields the same simulation; this one is merely
//! faster.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ring capacity in cycles. Push deltas in the engine are bounded by
/// `n_flits·tl + tr` and successor `comp_cycles` — typically well under
/// a thousand cycles; anything farther ahead overflows into the `u128`
/// heap and migrates back into the ring as time advances.
const WINDOW: u64 = 1024;
const MASK: u64 = WINDOW - 1;
/// Words of the ring's occupancy bitmap, one bit per slot.
const WORDS: usize = (WINDOW / 64) as usize;

/// A growable binary min-heap over `u64` intra-cycle key halves, with
/// hole-based sifting and an O(n) `heapify` for bucket adoption.
#[derive(Debug, Clone, Default)]
struct MinHeap64(Vec<u64>);

impl MinHeap64 {
    #[inline]
    fn peek(&self) -> Option<u64> {
        self.0.first().copied()
    }

    #[inline]
    fn push(&mut self, x: u64) {
        let v = &mut self.0;
        v.push(x);
        let mut i = v.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            // noc-verify: allow(PANIC01) — p < i < len by the heap index arithmetic
            let pv = v[p];
            if pv <= x {
                break;
            }
            // noc-verify: allow(PANIC01) — i and p are in-bounds heap positions
            v[i] = pv;
            i = p;
        }
        // noc-verify: allow(PANIC01) — i is an in-bounds heap position
        v[i] = x;
    }

    #[inline]
    fn pop(&mut self) -> Option<u64> {
        let v = &mut self.0;
        let min = v.first().copied()?;
        // noc-verify: allow(PANIC01) — the heap is non-empty here
        let last = v[v.len() - 1];
        v.truncate(v.len() - 1);
        let len = v.len();
        if len > 0 {
            let mut i = 0usize;
            loop {
                let l = 2 * i + 1;
                if l >= len {
                    break;
                }
                let r = l + 1;
                // noc-verify: allow(PANIC01) — l (and r when taken) checked against len above
                let c = if r < len && v[r] < v[l] { r } else { l };
                // noc-verify: allow(PANIC01) — c < len by construction
                let cv = v[c];
                if cv >= last {
                    break;
                }
                // noc-verify: allow(PANIC01) — i < len: it held a value this iteration
                v[i] = cv;
                i = c;
            }
            // noc-verify: allow(PANIC01) — i < len: the hole the loop maintained
            v[i] = last;
        }
        Some(min)
    }
}

/// See the module docs. `Default`/`clear` leave the ring unallocated;
/// the first push materializes it, and buffers are retained across runs
/// so a warmed queue allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    len: usize,
    /// Cycle the drain belongs to.
    cur: u64,
    /// Low key halves at time `cur`, sorted ascending once on adoption
    /// (pushes arrive in near-sorted pop order, so the sort is cheap)
    /// and consumed through `drain_pos` as plain array reads.
    drain: Vec<u64>,
    drain_pos: usize,
    /// Same-cycle pushes that arrive *while* `cur` drains. In the
    /// engine's traffic these are the immediately-next events (a packet
    /// re-queueing at the present), so this heap stays tiny.
    side: MinHeap64,
    /// Defensive spill: full keys at or before `(cur, bucket minimum)`,
    /// sorted descending so the global minimum pops from the back. In
    /// the engine's (monotone) traffic this stays empty.
    front: Vec<u128>,
    /// `WINDOW` per-cycle buckets of low key halves; slot `t & MASK`
    /// holds time `t`, for `t` in `(cur, cur + WINDOW]`.
    ring: Vec<Vec<u64>>,
    /// Bit `s` is set iff `ring[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Total events parked in the ring.
    ring_items: usize,
    /// Events beyond the ring horizon (full keys); drains back into the
    /// ring as the present advances.
    overflow: BinaryHeap<Reverse<u128>>,
}

impl EventQueue {
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.cur = 0;
        self.drain.clear();
        self.drain_pos = 0;
        self.side.0.clear();
        self.front.clear();
        if self.ring_items > 0 {
            for slot in &mut self.ring {
                slot.clear();
            }
            self.occupied = [0; WORDS];
            self.ring_items = 0;
        }
        self.overflow.clear();
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u128) {
        self.len += 1;
        let t = (key >> 64) as u64;
        if t > self.cur {
            let d = t - self.cur;
            if d <= WINDOW {
                self.ring_push(t, key as u64);
            } else {
                self.overflow.push(Reverse(key));
            }
        } else if t == self.cur {
            self.side.push(key as u64);
        } else {
            // Behind the present: keep `front` sorted descending so the
            // back is always the global minimum.
            let pos = self.front.partition_point(|&k| k > key);
            self.front.insert(pos, key);
        }
    }

    // Forced: rustc does not inline this per-event call into the loop,
    // generic over its recorder, by itself (4–10% per cost-only run).
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(&spill) = self.front.last() {
            // The spill is only beaten by a smaller same-cycle key.
            match self.bucket_peek_low() {
                Some(low) if self.key_at_cur(low) < spill => {
                    self.bucket_pop_low();
                    return Some(self.key_at_cur(low));
                }
                _ => {
                    self.front.pop();
                    return Some(spill);
                }
            }
        }
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
    fn bucket_peek_low(&self) -> Option<u64> {
        let d = self.drain.get(self.drain_pos).copied();
        match (d, self.side.peek()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    #[inline]
    fn bucket_pop_low(&mut self) -> Option<u64> {
        match (self.drain.get(self.drain_pos).copied(), self.side.peek()) {
            (Some(a), Some(b)) if b < a => self.side.pop(),
            (Some(a), _) => {
                self.drain_pos += 1;
                Some(a)
            }
            (None, Some(_)) => self.side.pop(),
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

    /// Time of the earliest ring event, or `None` if the ring is empty.
    /// Scans the bitmap from the slot of `cur + 1` once around the ring:
    /// the tail of that slot's word, the `WORDS - 1` words after it, then
    /// the head of the first word again (the slots just behind
    /// `cur + 1`, which hold the window's last cycles).
    fn ring_next(&self) -> Option<u64> {
        if self.ring_items == 0 {
            return None;
        }
        let start = ((self.cur + 1) & MASK) as usize;
        let (first, shift) = (start / 64, start % 64);
        for i in 0..=WORDS {
            let w = (first + i) % WORDS;
            // noc-verify: allow(PANIC01) — w is reduced modulo WORDS
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= u64::MAX << shift;
            } else if i == WORDS {
                bits &= !(u64::MAX << shift);
            }
            if bits != 0 {
                let slot = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                // Slot `start` holds `cur + 1`; the slot before it holds
                // `cur + WINDOW`.
                return Some(self.cur + 1 + (slot.wrapping_sub(start as u64) & MASK));
            }
        }
        None
    }

    /// Moves the present to the next non-empty cycle and adopts its
    /// events into the intra-cycle heap. Called only when `front` and
    /// `bucket` are drained but events remain.
    fn advance(&mut self) {
        debug_assert!(self.ring_items > 0 || !self.overflow.is_empty());
        let ring_next = self.ring_next();
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
            // The spent drain buffer (just cleared) becomes the slot's
            // new empty buffer; capacities recycle across cycles.
            std::mem::swap(&mut self.drain, bucket);
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

    /// Reference: plain binary heap.
    fn drain_both(ops: Vec<(bool, u128)>) {
        drain_both_from(EventQueue::default(), ops);
    }

    /// [`drain_both`] starting from `q`, which must be empty.
    fn drain_both_from(mut q: EventQueue, mut ops: Vec<(bool, u128)>) {
        let mut h: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
        for (is_pop, key) in ops.drain(..) {
            if is_pop {
                assert_eq!(q.pop(), h.pop().map(|r| r.0));
                assert_eq!(q.len(), h.len());
            } else {
                q.push(key);
                h.push(Reverse(key));
            }
        }
        while let Some(k) = q.pop() {
            assert_eq!(Some(k), h.pop().map(|r| r.0));
        }
        assert!(h.pop().is_none());
        assert_eq!(q.len(), 0);
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
        let mut rng = 0x9e37_79b9_7f4a_7c15;
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

            // Several events in flight: after each pop, one push up to two
            // gaps ahead of a base time that drifts forward.
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
        let mut rng = 0x2545_f491_4f6c_dd1d;
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

    #[test]
    fn clear_leaves_no_stale_bit() {
        // Warm a queue until ring slots across every bitmap word and the
        // overflow heap hold events, clear it, then replay a fresh
        // sequence: a surviving bit would send `advance` to an empty slot.
        let mut rng = 0x5851_f42d_4c95_7f2d;
        let mut q = EventQueue::default();
        for p in 0..400u64 {
            q.push(key(1 + xorshift(&mut rng) % 3_000, p));
        }
        for _ in 0..5 {
            q.pop();
        }
        q.clear();
        let mut ops = Vec::new();
        for p in 0..200u64 {
            ops.push((false, key(500 + xorshift(&mut rng) % 1_500, p)));
            if p % 4 == 0 {
                ops.push((true, 0));
            }
        }
        drain_both_from(q, ops);
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
    fn matches_binary_heap_beyond_window_and_behind_present() {
        let mut ops = Vec::new();
        // Far-future keys (overflow), then near keys, then pops that
        // force window migration; includes pushes behind the present.
        for p in 0..32u64 {
            ops.push((false, key(10_000 + p * 700, p)));
        }
        for p in 0..32u64 {
            ops.push((false, key(5 + p, p << 34)));
        }
        for _ in 0..20 {
            ops.push((true, 0));
        }
        // Behind the present by now.
        ops.push((false, key(3, 7)));
        ops.push((false, key(0, 1)));
        for _ in 0..50 {
            ops.push((true, 0));
        }
        drain_both(ops);
    }

    #[test]
    fn same_cycle_pushes_while_draining_pop_in_order() {
        let mut q = EventQueue::default();
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

    #[test]
    fn clear_resets_a_warmed_queue() {
        let mut q = EventQueue::default();
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
