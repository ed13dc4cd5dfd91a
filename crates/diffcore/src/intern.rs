//! Token interning: map arbitrary hashable tokens to dense `u32` ids.
//!
//! Diffing lines (or words) by string comparison is quadratic in practice;
//! both UNIX `diff` and RCS first hash lines so the inner loops compare
//! integers. The [`Interner`] assigns each distinct token a dense id, which
//! also lets [`crate::myers`] work over plain `&[u32]`.

use std::collections::HashMap;
use std::hash::Hash;

/// Assigns dense `u32` ids to distinct tokens.
///
/// # Examples
///
/// ```
/// use aide_diffcore::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("alpha");
/// let b = interner.intern("beta");
/// let a2 = interner.intern("alpha");
/// assert_eq!(a, a2);
/// assert_ne!(a, b);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner<T: Hash + Eq + Clone> {
    map: HashMap<T, u32>,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            map: HashMap::new(),
        }
    }

    /// Returns the id for `token`, assigning a fresh one if unseen.
    pub fn intern(&mut self, token: T) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(token).or_insert(next)
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no tokens have been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("y"), 1);
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("z"), 2);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn empty_interner() {
        let i: Interner<String> = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
