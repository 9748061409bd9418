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
                if self.ring.is_empty() {
                    self.ring.resize_with(WINDOW as usize, Vec::new);
                }
                // noc-verify: allow(PANIC01) — slot index is masked to the ring length
                self.ring[(t & MASK) as usize].push(key as u64);
                self.ring_items += 1;
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

    #[inline]
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

    /// Moves the present to the next non-empty cycle and adopts its
    /// events into the intra-cycle heap. Called only when `front` and
    /// `bucket` are drained but events remain.
    fn advance(&mut self) {
        debug_assert!(self.ring_items > 0 || !self.overflow.is_empty());
        let ring_next = if self.ring_items > 0 {
            (1..=WINDOW).find_map(|d| {
                let t = self.cur + d;
                // noc-verify: allow(PANIC01) — slot index is masked to the ring length
                (!self.ring[(t & MASK) as usize].is_empty()).then_some(t)
            })
        } else {
            None
        };
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
        if ring_next.is_some_and(|r| r == t) {
            // noc-verify: allow(PANIC01) — slot index is masked to the ring length
            let slot = &mut self.ring[(t & MASK) as usize];
            self.ring_items -= slot.len();
            // The spent drain buffer (just cleared) becomes the slot's
            // new empty buffer; capacities recycle across cycles.
            std::mem::swap(&mut self.drain, slot);
        }
        // Overflow events now at the present join the drain; those that
        // fell inside the (moved) window migrate into the ring.
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let kt = (key >> 64) as u64;
            if kt == t {
                self.drain.push(key as u64);
            } else if kt - t <= WINDOW {
                if self.ring.is_empty() {
                    self.ring.resize_with(WINDOW as usize, Vec::new);
                }
                // noc-verify: allow(PANIC01) — slot index is masked to the ring length
                self.ring[(kt & MASK) as usize].push(key as u64);
                self.ring_items += 1;
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
    fn drain_both(mut ops: Vec<(bool, u128)>) {
        let mut q = EventQueue::default();
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
