//! Edit scripts and hunks derived from an alignment.
//!
//! An [`Alignment`] is the raw output of the comparison algorithms: the
//! matched index pairs plus the two sequence lengths. From it this module
//! derives the classification the paper uses (§5.2): "Tokens that have a
//! mapping are termed 'common'; tokens that are in the old (new) document
//! but have no counterpart in the new (old) are 'old' ('new')" — here
//! rendered as [`EditOp::Equal`], [`EditOp::Delete`] and
//! [`EditOp::Insert`] runs — and the grouping into context [`Hunk`]s that
//! line-oriented output formats need.

/// A validated alignment between two sequences of lengths `n` and `m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Matched pairs `(i, j)`, strictly increasing in both components.
    pub pairs: Vec<(usize, usize)>,
    /// Length of the old sequence.
    pub n: usize,
    /// Length of the new sequence.
    pub m: usize,
}

/// One run of an edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// `len` tokens common to both sides, at `a_start` / `b_start`.
    Equal {
        /// Start in the old sequence.
        a_start: usize,
        /// Start in the new sequence.
        b_start: usize,
        /// Run length.
        len: usize,
    },
    /// `len` tokens present only in the old sequence ("old" material).
    Delete {
        /// Start in the old sequence.
        a_start: usize,
        /// Run length.
        len: usize,
        /// Position in the new sequence where the deletion falls.
        b_pos: usize,
    },
    /// `len` tokens present only in the new sequence ("new" material).
    Insert {
        /// Position in the old sequence where the insertion falls.
        a_pos: usize,
        /// Start in the new sequence.
        b_start: usize,
        /// Run length.
        len: usize,
    },
}

/// A sequence of [`EditOp`]s covering both inputs completely and in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EditScript {
    /// The ops, alternating between equal and non-equal runs.
    pub ops: Vec<EditOp>,
}

/// A group of nearby changes plus surrounding context, as in `diff -u`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// Start of the hunk in the old sequence (0-based).
    pub a_start: usize,
    /// Number of old-sequence tokens covered.
    pub a_len: usize,
    /// Start of the hunk in the new sequence (0-based).
    pub b_start: usize,
    /// Number of new-sequence tokens covered.
    pub b_len: usize,
    /// The ops inside the hunk (equal context plus changes).
    pub ops: Vec<EditOp>,
}

impl Alignment {
    /// Creates an alignment, validating monotonicity and bounds.
    ///
    /// # Panics
    ///
    /// Panics if the pairs are not strictly increasing in both components
    /// or reference indices out of range — such an alignment is a bug in
    /// the comparison algorithm, not bad input data.
    pub fn new(pairs: Vec<(usize, usize)>, n: usize, m: usize) -> Alignment {
        let mut last: Option<(usize, usize)> = None;
        for &(i, j) in &pairs {
            assert!(
                i < n && j < m,
                "alignment pair ({i},{j}) out of bounds ({n},{m})"
            );
            if let Some((pi, pj)) = last {
                assert!(
                    i > pi && j > pj,
                    "alignment pairs must be strictly increasing"
                );
            }
            last = Some((i, j));
        }
        Alignment { pairs, n, m }
    }

    /// Number of matched pairs.
    pub fn matched(&self) -> usize {
        self.pairs.len()
    }

    /// Insertions + deletions implied by this alignment.
    pub fn edit_distance(&self) -> usize {
        self.n + self.m - 2 * self.pairs.len()
    }

    /// Whether the two sequences are identical under this alignment.
    pub fn is_identity(&self) -> bool {
        self.n == self.m && self.pairs.len() == self.n
    }

    /// Expands the alignment into an [`EditScript`] with maximal runs.
    pub fn script(&self) -> EditScript {
        let mut ops = Vec::new();
        let mut ai = 0usize;
        let mut bi = 0usize;
        let mut k = 0usize;
        while k < self.pairs.len() || ai < self.n || bi < self.m {
            if k < self.pairs.len() {
                let (pi, pj) = self.pairs[k];
                if ai < pi {
                    ops.push(EditOp::Delete {
                        a_start: ai,
                        len: pi - ai,
                        b_pos: bi,
                    });
                    ai = pi;
                }
                if bi < pj {
                    ops.push(EditOp::Insert {
                        a_pos: ai,
                        b_start: bi,
                        len: pj - bi,
                    });
                    bi = pj;
                }
                // Extend the equal run through consecutive pairs.
                let mut len = 0usize;
                while k < self.pairs.len() && self.pairs[k] == (ai + len, bi + len) {
                    len += 1;
                    k += 1;
                }
                debug_assert!(len > 0);
                ops.push(EditOp::Equal {
                    a_start: ai,
                    b_start: bi,
                    len,
                });
                ai += len;
                bi += len;
            } else {
                if ai < self.n {
                    ops.push(EditOp::Delete {
                        a_start: ai,
                        len: self.n - ai,
                        b_pos: bi,
                    });
                    ai = self.n;
                }
                if bi < self.m {
                    ops.push(EditOp::Insert {
                        a_pos: ai,
                        b_start: bi,
                        len: self.m - bi,
                    });
                    bi = self.m;
                }
            }
        }
        EditScript { ops }
    }

    /// Groups changes into hunks with up to `context` equal tokens of
    /// surrounding context, merging hunks whose contexts touch.
    pub fn hunks(&self, context: usize) -> Vec<Hunk> {
        let script = self.script();
        let mut hunks: Vec<Hunk> = Vec::new();
        let mut current: Option<Hunk> = None;

        for (idx, op) in script.ops.iter().enumerate() {
            match *op {
                EditOp::Equal {
                    a_start,
                    b_start,
                    len,
                } => {
                    if let Some(h) = current.as_mut() {
                        if len <= 2 * context && idx + 1 < script.ops.len() {
                            // Short equal run between changes: keep inside.
                            h.ops.push(*op);
                            h.a_len += len;
                            h.b_len += len;
                        } else {
                            // Close the hunk with trailing context.
                            let take = len.min(context);
                            if take > 0 {
                                h.ops.push(EditOp::Equal {
                                    a_start,
                                    b_start,
                                    len: take,
                                });
                                h.a_len += take;
                                h.b_len += take;
                            }
                            if let Some(done) = current.take() {
                                hunks.push(done);
                            }
                        }
                    }
                }
                EditOp::Delete {
                    a_start,
                    len,
                    b_pos,
                } => {
                    let h = current.get_or_insert_with(|| {
                        open_hunk(&script.ops[..idx], a_start, b_pos, context)
                    });
                    h.ops.push(*op);
                    h.a_len += len;
                }
                EditOp::Insert {
                    a_pos,
                    b_start,
                    len,
                } => {
                    let h = current.get_or_insert_with(|| {
                        open_hunk(&script.ops[..idx], a_pos, b_start, context)
                    });
                    h.ops.push(*op);
                    h.b_len += len;
                }
            }
        }
        if let Some(h) = current.take() {
            hunks.push(h);
        }
        hunks
    }
}

/// Builds a fresh hunk whose leading context comes from the preceding
/// equal run (if any).
fn open_hunk(prior_ops: &[EditOp], a_pos: usize, b_pos: usize, context: usize) -> Hunk {
    let mut h = Hunk {
        a_start: a_pos,
        a_len: 0,
        b_start: b_pos,
        b_len: 0,
        ops: Vec::new(),
    };
    if let Some(EditOp::Equal {
        a_start,
        b_start,
        len,
    }) = prior_ops.last().copied()
    {
        let take = len.min(context);
        if take > 0 {
            h.a_start = a_start + len - take;
            h.b_start = b_start + len - take;
            h.a_len = take;
            h.b_len = take;
            h.ops.push(EditOp::Equal {
                a_start: h.a_start,
                b_start: h.b_start,
                len: take,
            });
        }
    }
    h
}

impl EditScript {
    /// Number of tokens deleted from the old sequence.
    pub fn deleted(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Delete { len, .. } => *len,
                _ => 0,
            })
            .sum()
    }

    /// Number of tokens inserted in the new sequence.
    pub fn inserted(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Insert { len, .. } => *len,
                _ => 0,
            })
            .sum()
    }

    /// Number of tokens common to both sides.
    pub fn common(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Equal { len, .. } => *len,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn align<T: PartialEq + Clone>(a: &[T], b: &[T]) -> Alignment {
        Alignment::new(crate::myers::myers_diff(a, b), a.len(), b.len())
    }

    #[test]
    fn identity_script_is_one_equal_op() {
        let a = [1, 2, 3];
        let s = align(&a, &a).script();
        assert_eq!(
            s.ops,
            vec![EditOp::Equal {
                a_start: 0,
                b_start: 0,
                len: 3
            }]
        );
        assert!(align(&a, &a).is_identity());
    }

    #[test]
    fn pure_insert_and_delete() {
        let a: [i32; 0] = [];
        let b = [1, 2];
        let s = align(&a, &b).script();
        assert_eq!(
            s.ops,
            vec![EditOp::Insert {
                a_pos: 0,
                b_start: 0,
                len: 2
            }]
        );
        let s = align(&b, &a).script();
        assert_eq!(
            s.ops,
            vec![EditOp::Delete {
                a_start: 0,
                len: 2,
                b_pos: 0
            }]
        );
    }

    #[test]
    fn replace_in_middle() {
        let a = [1, 2, 3, 4];
        let b = [1, 9, 9, 4];
        let s = align(&a, &b).script();
        assert_eq!(s.common(), 2);
        assert_eq!(s.deleted(), 2);
        assert_eq!(s.inserted(), 2);
        // Coverage: ops must tile both sequences exactly.
        let mut ai = 0;
        let mut bi = 0;
        for op in &s.ops {
            match *op {
                EditOp::Equal {
                    a_start,
                    b_start,
                    len,
                } => {
                    assert_eq!((a_start, b_start), (ai, bi));
                    ai += len;
                    bi += len;
                }
                EditOp::Delete {
                    a_start,
                    len,
                    b_pos,
                } => {
                    assert_eq!((a_start, b_pos), (ai, bi));
                    ai += len;
                }
                EditOp::Insert {
                    a_pos,
                    b_start,
                    len,
                } => {
                    assert_eq!((a_pos, b_start), (ai, bi));
                    bi += len;
                }
            }
        }
        assert_eq!((ai, bi), (4, 4));
    }

    #[test]
    fn script_distance_matches_alignment() {
        let a = [5, 6, 7, 8, 9];
        let b = [5, 7, 9, 10];
        let al = align(&a, &b);
        let s = al.script();
        assert_eq!(s.deleted() + s.inserted(), al.edit_distance());
    }

    #[test]
    fn hunks_single_change_with_context() {
        let a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        b[10] = 99;
        let hunks = align(&a, &b).hunks(3);
        assert_eq!(hunks.len(), 1);
        let h = &hunks[0];
        assert_eq!(h.a_start, 7);
        assert_eq!(h.a_len, 7); // 3 context + 1 change + 3 context
        assert_eq!(h.b_len, 7);
    }

    #[test]
    fn hunks_merge_nearby_changes() {
        let a: Vec<u32> = (0..30).collect();
        let mut b = a.clone();
        b[10] = 99;
        b[14] = 98; // gap of 3 equals, context 3 → merged
        let hunks = align(&a, &b).hunks(3);
        assert_eq!(
            hunks.len(),
            1,
            "changes 4 apart with context 3 share a hunk"
        );
    }

    #[test]
    fn hunks_split_distant_changes() {
        let a: Vec<u32> = (0..60).collect();
        let mut b = a.clone();
        b[5] = 99;
        b[50] = 98;
        let hunks = align(&a, &b).hunks(3);
        assert_eq!(hunks.len(), 2);
    }

    #[test]
    fn hunk_at_sequence_edges_has_clamped_context() {
        let a: Vec<u32> = (0..5).collect();
        let mut b = a.clone();
        b[0] = 99;
        let hunks = align(&a, &b).hunks(3);
        assert_eq!(hunks.len(), 1);
        assert_eq!(hunks[0].a_start, 0, "no leading context available");
    }

    #[test]
    fn zero_context_hunks() {
        let a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        b[4] = 99;
        let hunks = align(&a, &b).hunks(0);
        assert_eq!(hunks.len(), 1);
        assert_eq!(hunks[0].a_len, 1);
        assert_eq!(hunks[0].b_len, 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn alignment_rejects_crossing_pairs() {
        Alignment::new(vec![(1, 0), (0, 1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn alignment_rejects_out_of_range() {
        Alignment::new(vec![(5, 0)], 2, 2);
    }
}
