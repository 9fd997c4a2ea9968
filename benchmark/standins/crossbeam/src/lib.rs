//! Stand-in for the two `crossbeam` 0.8 items `webcap-parallel` uses:
//! `queue::SegQueue` (here a mutex around a `VecDeque`, not lock-free)
//! and `scope` (here `std::thread::scope`).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded multi-producer multi-consumer FIFO queue.
    #[derive(Debug, Default)]
    pub struct SegQueue<T> {
        items: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        /// An empty queue.
        pub fn new() -> SegQueue<T> {
            SegQueue {
                items: Mutex::new(VecDeque::new()),
            }
        }

        fn items(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            // Push and pop leave the deque valid at every step, so a
            // panic elsewhere while holding the lock cannot corrupt it.
            self.items.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Append `value` at the back.
        pub fn push(&self, value: T) {
            self.items().push_back(value);
        }

        /// Take the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.items().pop_front()
        }
    }
}

/// A handle for spawning threads that may borrow from the caller.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread; it is joined before [`scope`] returns.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }))
    }
}

/// Run `f` with a scope; every thread it spawns is joined before this
/// returns. `Err` carries the panic payload if any thread panicked.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|inner| f(&Scope { inner }))
    }))
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_workers_drain_the_queue_and_panics_surface_as_err() {
        let queue = super::queue::SegQueue::new();
        for i in 0..100u64 {
            queue.push(i);
        }
        let total = std::sync::atomic::AtomicU64::new(0);
        super::scope(|s| {
            for _ in 0..3 {
                s.spawn(|_| {
                    while let Some(v) = queue.pop() {
                        total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(total.into_inner(), 4950);
        assert!(super::scope(|s| {
            s.spawn(|_| panic!("worker"));
        })
        .is_err());
    }
}
