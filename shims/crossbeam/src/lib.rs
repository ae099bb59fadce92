//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! `channel::{unbounded, Sender, Receiver}` with blocking `recv`,
//! non-blocking `try_recv`, and disconnect detection — built on
//! `Mutex<VecDeque>` + `Condvar`.
//!
//! ## The wake rule
//!
//! A send wakes a receiver only when one is parked. `recv` and
//! `recv_timeout` count themselves parked under the queue mutex before
//! they wait and uncount themselves after, and `send` reads that count
//! under the same mutex when it pushes. So a receiver that will wait has
//! registered on the condvar before any sender can see the queue it found
//! empty, and no wakeup is lost; a send that nobody waits for costs a lock
//! and a push, not a futex syscall.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Queue<T> {
        items: VecDeque<T>,
        /// Receivers waiting on `ready` (see the module's wake rule).
        parked: usize,
    }

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                parked: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    // Match the real crate's opaque Debug output so user types can derive.
    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender {{ .. }}")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver {{ .. }}")
        }
    }

    /// Send on a channel with no receivers left; carries the message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Blocking receive on an empty channel with no senders left.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Timed receive that ran out of time, or found the channel empty and
    /// disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty, disconnected channel")
                }
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.inner.queue.lock().expect("channel mutex poisoned");
            queue.items.push_back(value);
            let wake = queue.parked > 0;
            drop(queue);
            if wake {
                self.inner.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect. The notify must happen while holding the
                // queue mutex — otherwise a receiver that has already read
                // senders > 0 but not yet parked in wait() misses the
                // wakeup and blocks forever (classic lost-wakeup race).
                let _guard = self.inner.queue.lock().expect("channel mutex poisoned");
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().expect("channel mutex poisoned");
            loop {
                if let Some(v) = queue.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue.parked += 1;
                queue = self
                    .inner
                    .ready
                    .wait(queue)
                    .expect("channel mutex poisoned");
                queue.parked -= 1;
            }
        }

        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = self.inner.queue.lock().expect("channel mutex poisoned");
            loop {
                if let Some(v) = queue.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                queue.parked += 1;
                let (guard, _timed_out) = self
                    .inner
                    .ready
                    .wait_timeout(queue, remaining)
                    .expect("channel mutex poisoned");
                queue = guard;
                queue.parked -= 1;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.inner.queue.lock().expect("channel mutex poisoned");
            match queue.items.pop_front() {
                Some(v) => Ok(v),
                None if self.inner.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_in_order() {
            let (s, r) = unbounded();
            s.send(1).unwrap();
            s.send(2).unwrap();
            assert_eq!(r.recv(), Ok(1));
            assert_eq!(r.recv(), Ok(2));
            assert_eq!(r.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detected() {
            let (s, r) = unbounded::<i32>();
            drop(s);
            assert_eq!(r.recv(), Err(RecvError));
            assert_eq!(r.try_recv(), Err(TryRecvError::Disconnected));

            let (s2, r2) = unbounded::<i32>();
            drop(r2);
            assert!(s2.send(5).is_err());
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            use std::time::Duration;
            let (s, r) = unbounded();
            assert_eq!(
                r.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            s.send(7u64).unwrap();
            assert_eq!(r.recv_timeout(Duration::from_millis(10)), Ok(7));
            drop(s);
            assert_eq!(
                r.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn blocking_recv_wakes_on_send() {
            let (s, r) = unbounded();
            let t = std::thread::spawn(move || r.recv().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(10));
            s.send(42u64).unwrap();
            assert_eq!(t.join().unwrap(), 42);
        }

        #[test]
        fn cloned_senders_all_feed_one_receiver() {
            let (s, r) = unbounded();
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let s = s.clone();
                    std::thread::spawn(move || s.send(i).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            drop(s);
            let mut got = Vec::new();
            while let Ok(v) = r.recv() {
                got.push(v);
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }

        #[test]
        fn no_wakeup_is_lost_under_contention() {
            // Four producers race one consumer that parks in `recv` and
            // `recv_timeout` by turns. A lost wakeup shows as a timed-out
            // `recv_timeout` (or a `recv` that never returns).
            use std::time::Duration;
            const PRODUCERS: u64 = 4;
            const ITEMS: u64 = 10_000;
            let (s, r) = unbounded();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let s = s.clone();
                    std::thread::spawn(move || {
                        for i in 0..ITEMS {
                            s.send(p * ITEMS + i).unwrap();
                            if i % 64 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            drop(s);
            let mut got = Vec::with_capacity((PRODUCERS * ITEMS) as usize);
            for k in 0..PRODUCERS * ITEMS {
                let v = if k % 2 == 0 {
                    r.recv().expect("every item arrives")
                } else {
                    r.recv_timeout(Duration::from_secs(1))
                        .unwrap_or_else(|e| panic!("item {k}: {e}"))
                };
                got.push(v);
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(r.recv(), Err(RecvError));
            got.sort_unstable();
            assert!(got.iter().copied().eq(0..PRODUCERS * ITEMS));
        }
    }
}
