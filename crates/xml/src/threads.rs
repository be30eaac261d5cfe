//! The one place in the workspace that starts threads (DESIGN.md §15,
//! "Refused threads").
//!
//! [`fan_out`] runs a set of jobs on scoped threads of their own while
//! a closure runs on the calling thread, joins every job and reports
//! how each one ended. A thread the OS refuses (a pids cgroup or
//! `RLIMIT_NPROC` limit can refuse one even where [`cores`] reports
//! several) is reported as [`Joined::Refused`] instead of panicking as
//! `std::thread::Scope::spawn` would, and a job that panicked as
//! [`Joined::Panicked`] with its payload; each caller decides what
//! either means. [`resolve`] is the workspace's one reading of a
//! "`0` = all cores" thread setting.

use std::any::Any;
use std::cell::Cell;

thread_local! {
    /// Threads [`fan_out`] may still start from this thread before it
    /// reports the rest as refused, as the OS would: the seam through
    /// which tests take the refused-thread paths. Unlimited unless a
    /// test lowers it.
    #[doc(hidden)]
    pub static SPAWNS_LEFT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// How a job of [`fan_out`] ended.
#[derive(Debug)]
pub enum Joined<T> {
    /// It returned this value.
    Finished(T),
    /// It panicked with this payload.
    Panicked(Box<dyn Any + Send>),
    /// Its thread was not started.
    Refused,
}

impl<T> Joined<T> {
    /// The job's value, if it finished.
    pub fn finished(self) -> Option<T> {
        match self {
            Joined::Finished(value) => Some(value),
            Joined::Panicked(_) | Joined::Refused => None,
        }
    }
}

/// The cores this process may run on, 1 when the OS cannot tell.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A thread-count setting resolved: `threads` if positive, otherwise
/// [`cores`].
pub fn resolve(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        cores()
    }
}

/// Starts each of `jobs` on a scoped thread of its own, in order, then
/// runs `caller` on the calling thread, and joins every job before it
/// returns. Returns `caller`'s value and each job's outcome, in the
/// jobs' order. A panic of `caller` is re-raised once every job has
/// been joined.
///
/// ```
/// use axqa_xml::threads::{fan_out, Joined};
///
/// let data = [1, 2, 3, 4];
/// let (head, tail) = fan_out([|| data[2..].iter().sum::<i32>()], || data[0] + data[1]);
/// let tail: Vec<i32> = tail.into_iter().filter_map(Joined::finished).collect();
/// // `tail` is empty only if the OS refused the thread.
/// assert!(tail.is_empty() || tail == [7]);
/// assert_eq!(head, 3);
/// ```
pub fn fan_out<J, T, C, R>(jobs: impl IntoIterator<Item = J>, caller: C) -> (R, Vec<Joined<T>>)
where
    J: FnOnce() -> T + Send,
    T: Send,
    C: FnOnce() -> R,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let left = SPAWNS_LEFT.with(|left| left.replace(left.get().saturating_sub(1)));
                (left > 0)
                    .then(|| std::thread::Builder::new().spawn_scoped(scope, job).ok())
                    .flatten()
            })
            .collect();
        let value = caller();
        let joined = handles
            .into_iter()
            .map(|handle| match handle.map(|h| h.join()) {
                Some(Ok(value)) => Joined::Finished(value),
                Some(Err(payload)) => Joined::Panicked(payload),
                None => Joined::Refused,
            })
            .collect();
        (value, joined)
    })
}
