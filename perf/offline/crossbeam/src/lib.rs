//! Offline stand-in for the part of `crossbeam` the skynet crates use:
//! `channel::{bounded, unbounded}` multi-producer multi-consumer queues.
//! See `perf/README.md` for why it exists.
//!
//! One mutex and two condition variables per channel — correct, not
//! lock-free. `bounded(0)` is treated as `bounded(1)` (no rendezvous).

pub mod channel {
    //! Blocking MPMC channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        /// A panic while the lock is held cannot leave the queue half
        /// updated (every critical section is a push, a pop or a counter
        /// change), so poisoning is ignored.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.capacity.is_some_and(|cap| state.queue.len() >= cap)
        }
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone it for more consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// A channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    /// A channel that never blocks its senders.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Why `try_send` gave the message back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why `try_recv` returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// The deadline passed.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }
    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }
    impl<T> std::error::Error for TrySendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }
    impl std::error::Error for TryRecvError {}

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }
    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        /// Blocks while the channel is full; fails once no receiver is left.
        pub fn send(&self, message: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(message));
                }
                if !shared.is_full(&state) {
                    state.queue.push_back(message);
                    drop(state);
                    shared.not_empty.notify_one();
                    return Ok(());
                }
                state = shared
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Sends without blocking.
        pub fn try_send(&self, message: T) -> Result<(), TrySendError<T>> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(message));
            }
            if shared.is_full(&state) {
                return Err(TrySendError::Full(message));
            }
            state.queue.push_back(message);
            drop(state);
            shared.not_empty.notify_one();
            Ok(())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether the channel is at capacity right now.
        pub fn is_full(&self) -> bool {
            let state = self.shared.lock();
            self.shared.is_full(&state)
        }

        /// The bound, or `None` for an unbounded channel.
        pub fn capacity(&self) -> Option<usize> {
            self.shared.capacity
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; fails once the channel is empty
        /// and no sender is left.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            loop {
                if let Some(message) = state.queue.pop_front() {
                    drop(state);
                    shared.not_full.notify_one();
                    return Ok(message);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            match state.queue.pop_front() {
                Some(message) => {
                    drop(state);
                    shared.not_full.notify_one();
                    Ok(message)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let shared = &*self.shared;
            let deadline = Instant::now() + timeout;
            let mut state = shared.lock();
            loop {
                if let Some(message) = state.queue.pop_front() {
                    drop(state);
                    shared.not_full.notify_one();
                    return Ok(message);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = shared
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Blocks for each message until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// Yields what is queued right now, never blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The bound, or `None` for an unbounded channel.
        pub fn capacity(&self) -> Option<usize> {
            self.shared.capacity
        }
    }

    /// See [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// See [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    /// Owning blocking iterator, from `Receiver::into_iter`.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_backpressure_and_disconnects() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv(), Ok(1));
            tx.send(3).unwrap();
            drop(tx);
            assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn a_blocked_sender_wakes_when_the_receiver_drains() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let producer = std::thread::spawn(move || tx.send(2));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            producer.join().unwrap().unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
