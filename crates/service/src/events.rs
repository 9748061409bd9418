//! The bounded, drop-oldest event channel behind
//! [`ServiceHandle::subscribe`](crate::ServiceHandle::subscribe).
//!
//! The service's event emitter must never block on a subscriber: a
//! stalled `watch` client (or a subscriber that simply stopped reading)
//! previously let `std::sync::mpsc`'s unbounded queue grow without
//! limit. This channel caps the queue; when a subscriber falls more
//! than `capacity` events behind, the *oldest* undelivered event is
//! discarded (newest-first telemetry is what live observers want) and
//! the drop is counted — per stream, and into the service's
//! `noc_subscriber_dropped_events_total` metric.

use crate::service::ServiceEvent;
use noc_obs::Counter;
use std::collections::VecDeque;
use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct Channel {
    queue: VecDeque<ServiceEvent>,
    /// Events discarded on this stream because the subscriber lagged.
    dropped: u64,
    sender_closed: bool,
    receiver_gone: bool,
}

struct ChannelShared {
    inner: Mutex<Channel>,
    available: Condvar,
    capacity: usize,
}

/// Producer half, held by the service state. `send` never blocks.
pub(crate) struct EventSender {
    shared: Arc<ChannelShared>,
    dropped_total: Arc<Counter>,
}

impl EventSender {
    /// Enqueues `event`, discarding the oldest queued event if the
    /// subscriber is `capacity` behind. Returns false once the receiver
    /// is gone (the service prunes such senders).
    pub(crate) fn send(&self, event: ServiceEvent) -> bool {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        if inner.receiver_gone {
            return false;
        }
        if inner.queue.len() >= self.shared.capacity {
            inner.queue.pop_front();
            inner.dropped += 1;
            self.dropped_total.inc(1);
        }
        inner.queue.push_back(event);
        drop(inner);
        self.shared.available.notify_one();
        true
    }
}

impl Drop for EventSender {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        inner.sender_closed = true;
        drop(inner);
        self.shared.available.notify_all();
    }
}

/// Consumer half: what [`subscribe`](crate::ServiceHandle::subscribe)
/// returns. API mirrors `std::sync::mpsc::Receiver` (`recv`,
/// `try_recv`, blocking `Iterator`), plus
/// [`EventStream::dropped`] exposing how many events this stream lost
/// to backpressure.
pub struct EventStream {
    shared: Arc<ChannelShared>,
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream").finish_non_exhaustive()
    }
}

impl EventStream {
    /// Blocks for the next event; errs once the service is gone and the
    /// queue is drained.
    pub fn recv(&self) -> Result<ServiceEvent, RecvError> {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        loop {
            if let Some(event) = inner.queue.pop_front() {
                return Ok(event);
            }
            if inner.sender_closed {
                return Err(RecvError);
            }
            inner = self
                .shared
                .available
                .wait(inner)
                .expect("event channel poisoned");
        }
    }

    /// Blocks for the next event at most `timeout`; the protocol's
    /// `watch` loop uses this to interleave client-liveness checks with
    /// event delivery instead of parking forever on an idle service.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ServiceEvent, RecvTimeoutError> {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        loop {
            if let Some(event) = inner.queue.pop_front() {
                return Ok(event);
            }
            if inner.sender_closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let (guard, wait) = self
                .shared
                .available
                .wait_timeout(inner, timeout)
                .expect("event channel poisoned");
            inner = guard;
            if wait.timed_out() && inner.queue.is_empty() {
                return Err(if inner.sender_closed {
                    RecvTimeoutError::Disconnected
                } else {
                    RecvTimeoutError::Timeout
                });
            }
        }
    }

    /// Non-blocking receive.
    // noc-verify: allow(API02) — the non-blocking receive of the event stream; the service tests drain streams with it
    pub fn try_recv(&self) -> Result<ServiceEvent, TryRecvError> {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        match inner.queue.pop_front() {
            Some(event) => Ok(event),
            None if inner.sender_closed => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Drains currently queued events without blocking.
    #[cfg(test)]
    pub fn try_iter(&self) -> impl Iterator<Item = ServiceEvent> + '_ {
        std::iter::from_fn(|| self.try_recv().ok())
    }

    /// Blocking iterator until the service closes the stream.
    pub fn iter(&self) -> impl Iterator<Item = ServiceEvent> + '_ {
        std::iter::from_fn(|| self.recv().ok())
    }

    /// Events this stream has lost to the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.shared
            .inner
            .lock()
            .expect("event channel poisoned")
            .dropped
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("event channel poisoned");
        inner.receiver_gone = true;
        inner.queue.clear();
    }
}

impl IntoIterator for EventStream {
    type Item = ServiceEvent;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter { stream: self }
    }
}

/// Owning blocking iterator over an [`EventStream`].
pub struct IntoIter {
    stream: EventStream,
}

impl Iterator for IntoIter {
    type Item = ServiceEvent;
    fn next(&mut self) -> Option<ServiceEvent> {
        self.stream.recv().ok()
    }
}

/// Creates a bounded channel; `dropped_total` is bumped on every
/// backpressure drop (shared across all subscribers of a service).
pub(crate) fn bounded(capacity: usize, dropped_total: Arc<Counter>) -> (EventSender, EventStream) {
    let shared = Arc::new(ChannelShared {
        inner: Mutex::new(Channel {
            queue: VecDeque::new(),
            dropped: 0,
            sender_closed: false,
            receiver_gone: false,
        }),
        available: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        EventSender {
            shared: Arc::clone(&shared),
            dropped_total,
        },
        EventStream { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn event(id: u64) -> ServiceEvent {
        ServiceEvent::Started { job: JobId(id) }
    }

    #[test]
    fn drop_oldest_when_capacity_exceeded() {
        let counter = Arc::new(Counter::default());
        let (tx, rx) = bounded(2, Arc::clone(&counter));
        assert!(tx.send(event(0)));
        assert!(tx.send(event(1)));
        assert!(tx.send(event(2))); // evicts event 0
        assert_eq!(rx.dropped(), 1);
        assert_eq!(counter.get(), 1);
        let got: Vec<u64> = rx.try_iter().map(|e| e.job().0).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn recv_ends_when_sender_drops() {
        let (tx, rx) = bounded(4, Arc::new(Counter::default()));
        tx.send(event(7));
        drop(tx);
        assert_eq!(rx.recv().unwrap().job().0, 7);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(4, Arc::new(Counter::default()));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        ));
        tx.send(event(3));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap().job().0,
            3
        );
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn send_reports_a_gone_receiver() {
        let (tx, rx) = bounded(4, Arc::new(Counter::default()));
        drop(rx);
        assert!(!tx.send(event(0)));
    }
}
