//! Recyclable script storage: the allocator bypass behind warm-engine
//! zero-allocation diffing and conversion.
//!
//! A [`DeltaScript`] owns two kinds of heap storage: the command vector and
//! one byte vector per add command. In a steady-state update pipeline those
//! allocations dominate what [`super::diff::DiffScratch`] alone cannot
//! eliminate — every produced script used to allocate its storage fresh and
//! free it on drop. A [`ScriptPool`] closes the loop: finished scripts are
//! [recycled](ScriptPool::recycle) back into the pool, and the next script
//! is built out of the returned (cleared, capacity-preserving) vectors.
//!
//! Byte vectors are handed out by size: every consumer asks for the
//! capacity it needs and gets the smallest spare that fits, found through
//! power-of-two size classes. So a big vector is not spent on a small add
//! while a big payload regrows a small one. When every demand of a batch
//! is held until the batch is recycled — an engine holding several
//! deltas at once — best fit serves the batch from the spares whenever
//! any assignment of them could, so once the spares have grown to serve
//! a batch, the same batch never grows them again. (Largest-first
//! handout converges only while one script is in flight.) The pool is
//! plain storage with no configuration; one pool serves any mix of
//! script shapes, growing to the workload's high-water mark and staying
//! there.

use crate::command::Command;
use crate::script::DeltaScript;

/// A pool of recycled script storage; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct ScriptPool {
    commands: Vec<Vec<Command>>,
    /// Spare byte vectors by size class: `bytes[c]` holds the capacities
    /// `n` with `class(n) == c`.
    bytes: Vec<Vec<Vec<u8>>>,
    /// The buffer a builder drawing on this pool accumulates literal runs
    /// in; see [`ScriptBuilder`](crate::diff::ScriptBuilder).
    pub(crate) run: Vec<u8>,
}

/// Size class of a capacity: 0 for none, else one more than the index of
/// its highest set bit, so class `c > 0` holds `2^(c-1)..2^c`.
fn class(capacity: usize) -> usize {
    (usize::BITS - capacity.leading_zeros()) as usize
}

/// Index of the smallest spare in `spares` with capacity at least `min`.
fn best_fit(spares: &[Vec<u8>], min: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, spare) in spares.iter().enumerate() {
        let capacity = spare.capacity();
        if capacity == min {
            return Some(i);
        }
        if capacity > min && best.is_none_or(|(c, _)| capacity < c) {
            best = Some((capacity, i));
        }
    }
    best.map(|(_, i)| i)
}

impl ScriptPool {
    /// Creates an empty pool. Storage accrues through
    /// [`ScriptPool::recycle`] and the `give_*` methods.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared command vector out of the pool (empty if the pool
    /// has none spare). The largest spare is handed out first: a script's
    /// command count is unknown until it is built, and arbitrary (LIFO)
    /// handout lets a small vector land on a big script over and over, so
    /// steady state would keep reallocating instead of converging to
    /// zero.
    #[must_use]
    pub fn take_commands(&mut self) -> Vec<Command> {
        take_largest(&mut self.commands)
    }

    /// Takes a cleared byte vector with capacity for at least `min`
    /// bytes out of the pool.
    ///
    /// Whenever the pool holds a spare that fits, the smallest one that
    /// fits is returned. Only when none fits is the largest spare grown
    /// (or, from an empty pool, exactly `min` allocated).
    #[must_use]
    pub fn take_bytes(&mut self, min: usize) -> Vec<u8> {
        // Spares below the class of `min` are too small and every spare
        // above it fits, so the best fit is in the first class from
        // there that holds a fitting spare.
        for spares in self.bytes.iter_mut().skip(class(min)) {
            if let Some(i) = best_fit(spares, min) {
                return spares.swap_remove(i);
            }
        }
        let Some(spares) = self.bytes.iter_mut().rev().find(|s| !s.is_empty()) else {
            return Vec::with_capacity(min);
        };
        let mut bytes = take_largest(spares);
        // Grown as `Vec` grows, to at least twice its capacity, so a
        // demand that creeps upward regrows it rarely.
        bytes.reserve(min);
        bytes
    }

    /// Returns a byte vector to the pool; it is cleared, its capacity kept.
    pub fn give_bytes(&mut self, mut bytes: Vec<u8>) {
        bytes.clear();
        let c = class(bytes.capacity());
        if self.bytes.len() <= c {
            self.bytes.resize_with(c + 1, Vec::new);
        }
        self.bytes[c].push(bytes);
    }

    /// Returns a command vector to the pool, harvesting the payload of
    /// every add command into the byte stash first.
    pub fn give_commands(&mut self, mut commands: Vec<Command>) {
        for cmd in commands.drain(..) {
            if let Command::Add(add) = cmd {
                self.give_bytes(add.data);
            }
        }
        self.commands.push(commands);
    }

    /// Dismantles a finished script and returns all its storage to the
    /// pool.
    pub fn recycle(&mut self, script: DeltaScript) {
        let (_, _, commands) = script.into_parts();
        self.give_commands(commands);
    }

    /// Number of spare command vectors currently pooled.
    #[must_use]
    pub fn spare_commands(&self) -> usize {
        self.commands.len()
    }

    /// Number of spare byte vectors currently pooled.
    #[must_use]
    pub fn spare_bytes(&self) -> usize {
        self.bytes.iter().map(Vec::len).sum()
    }
}

/// Removes and returns the highest-capacity vector (empty if none).
fn take_largest<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let best = pool
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| v.capacity())
        .map(|(i, _)| i);
    match best {
        Some(i) => pool.swap_remove(i),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recycle_round_trips_capacity() {
        let mut pool = ScriptPool::new();
        let script = DeltaScript::new(
            0,
            8,
            vec![Command::add(0, vec![1; 4]), Command::add(4, vec![2; 4])],
        )
        .unwrap();
        pool.recycle(script);
        assert_eq!(pool.spare_commands(), 1);
        assert_eq!(pool.spare_bytes(), 2);
        let cmds = pool.take_commands();
        assert!(cmds.is_empty());
        assert!(cmds.capacity() >= 2);
        let bytes = pool.take_bytes(4);
        assert!(bytes.is_empty());
        assert!(bytes.capacity() >= 4);
        assert_eq!(pool.spare_bytes(), 1);
    }

    #[test]
    fn empty_pool_hands_out_fresh_vectors() {
        let mut pool = ScriptPool::new();
        assert!(pool.take_commands().is_empty());
        assert!(pool.take_bytes(0).is_empty());
        assert!(pool.take_bytes(100).capacity() >= 100);
    }

    #[test]
    fn best_fit_within_and_across_classes() {
        let mut pool = ScriptPool::new();
        for capacity in [600, 1000, 520, 3000] {
            pool.give_bytes(Vec::with_capacity(capacity));
        }
        assert_eq!(pool.take_bytes(530).capacity(), 600);
        assert_eq!(pool.take_bytes(900).capacity(), 1000);
        // 520 shares the class of 530 but does not fit.
        assert_eq!(pool.take_bytes(530).capacity(), 3000);
        assert_eq!(pool.take_bytes(0).capacity(), 520);
    }

    #[test]
    fn small_demands_leave_big_spares_for_big_demands() {
        let mut pool = ScriptPool::new();
        for capacity in [1 << 20, 64, 4096] {
            pool.give_bytes(Vec::with_capacity(capacity));
        }
        assert_eq!(pool.take_bytes(40).capacity(), 64);
        assert_eq!(pool.take_bytes(3000).capacity(), 4096);
        assert_eq!(pool.take_bytes(100_000).capacity(), 1 << 20);
    }

    #[test]
    fn no_fitting_spare_grows_the_largest() {
        let mut pool = ScriptPool::new();
        pool.give_bytes(Vec::with_capacity(10));
        pool.give_bytes(Vec::with_capacity(1000));
        pool.give_bytes(Vec::with_capacity(700));
        let grown = pool.take_bytes(5000);
        assert!(grown.capacity() >= 5000);
        assert_eq!(pool.spare_bytes(), 2);
        // The 1000 B spare was the one grown; the 700 B one is left.
        assert_eq!(pool.take_bytes(600).capacity(), 700);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The handout rule: whenever the pool holds a spare with
        /// capacity at least `n`, `take_bytes(n)` returns the smallest
        /// such spare; otherwise it grows the largest. It never returns
        /// less than `n`, and it takes one spare (none from an empty
        /// pool).
        #[test]
        fn take_is_best_fit_whenever_a_spare_fits(
            capacities in proptest::collection::vec(0usize..5000, 0..40),
            demands in proptest::collection::vec(0usize..6000, 1..40),
        ) {
            let mut pool = ScriptPool::new();
            let mut held: Vec<usize> = Vec::new();
            for &capacity in &capacities {
                let bytes = Vec::with_capacity(capacity);
                held.push(bytes.capacity());
                pool.give_bytes(bytes);
            }
            for &n in &demands {
                let best = held.iter().copied().filter(|&c| c >= n).min();
                let spares = pool.spare_bytes();
                let bytes = pool.take_bytes(n);
                prop_assert!(bytes.is_empty());
                prop_assert!(bytes.capacity() >= n);
                prop_assert_eq!(pool.spare_bytes(), spares.saturating_sub(1));
                if let Some(best) = best {
                    prop_assert_eq!(bytes.capacity(), best, "demand {}", n);
                    let at = held.iter().position(|&c| c == best).unwrap();
                    held.swap_remove(at);
                } else if spares > 0 {
                    let largest = held.iter().copied().max().unwrap();
                    let at = held.iter().position(|&c| c == largest).unwrap();
                    held.swap_remove(at);
                }
                // Every other demand hands its vector straight back.
                if n % 2 == 0 {
                    held.push(bytes.capacity());
                    pool.give_bytes(bytes);
                }
            }
        }
    }
}
