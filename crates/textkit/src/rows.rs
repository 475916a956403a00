//! Append-only document rows in fixed-size chunks shared by `Arc`.
//!
//! The contextualized database `C(D)` keeps one term row per document,
//! and every snapshot the facet index publishes reads the rows as of its
//! generation. A [`RowStore`] holds them in chunks of
//! [`CHUNK_ROWS`] rows. Each chunk is flat CSR (one offsets array, one
//! term array) behind an `Arc`, so cloning the store clones only the chunk
//! list: a publish shares every row with the index instead of copying it.
//!
//! Rows are only ever appended. All chunks but the last are full
//! ("sealed") and never written again. The last ("open") chunk takes new
//! rows through `Arc::make_mut`: while a published snapshot still shares
//! it, the writer's first append copies that one chunk, fewer than
//! [`CHUNK_ROWS`] rows, and appends to its own copy. Readers holding the
//! snapshot keep seeing exactly the rows it was published with.

use crate::TermId;
use std::iter::FusedIterator;
use std::ops::Index;
use std::sync::Arc;

/// Rows per chunk: the most rows one append copies out of a snapshot
/// that shares the open chunk.
pub const CHUNK_ROWS: usize = 256;

/// Up to [`CHUNK_ROWS`] rows: row `i` is `terms[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, PartialEq, Eq)]
struct Chunk {
    offsets: Vec<usize>,
    terms: Vec<TermId>,
}

impl Chunk {
    fn new() -> Self {
        let mut offsets = Vec::with_capacity(CHUNK_ROWS + 1);
        offsets.push(0);
        Self {
            offsets,
            terms: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, i: usize) -> &[TermId] {
        &self.terms[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Only the open chunk is ever cloned (by `Arc::make_mut`), and it keeps
/// growing, so the copy reserves room for a full chunk of offsets.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut offsets = Vec::with_capacity(CHUNK_ROWS + 1);
        offsets.extend_from_slice(&self.offsets);
        Self {
            offsets,
            terms: self.terms.clone(),
        }
    }
}

/// An append-only sequence of term rows (one per document, sorted and
/// distinct in the index's use), stored in `Arc`-shared chunks. Clones
/// are cheap and fully isolated from later pushes to either copy. See
/// the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowStore {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl RowStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[TermId]> {
        (i < self.len).then(|| self.chunks[i / CHUNK_ROWS].row(i % CHUNK_ROWS))
    }

    /// The rows in order.
    pub fn iter(&self) -> Rows<'_> {
        self.iter_from(0)
    }

    /// The rows from `start` on (none if `start ≥ len`).
    pub fn iter_from(&self, start: usize) -> Rows<'_> {
        Rows {
            chunks: &self.chunks,
            chunk: start / CHUNK_ROWS,
            row: start % CHUNK_ROWS,
            remaining: self.len.saturating_sub(start),
        }
    }

    /// Append one row. Returns the rows copied to do so: the open chunk's
    /// rows if a clone of this store still shares that chunk, else 0.
    pub fn push(&mut self, row: &[TermId]) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK_ROWS) {
            self.chunks.push(Arc::new(Chunk::new()));
        }
        let last = self.chunks.len() - 1;
        let open = &mut self.chunks[last];
        let copied = if Arc::get_mut(open).is_some() {
            0
        } else {
            open.len()
        };
        let chunk = Arc::make_mut(open);
        chunk.terms.extend_from_slice(row);
        chunk.offsets.push(chunk.terms.len());
        if chunk.len() == CHUNK_ROWS {
            // Sealed: never written again, so no spare capacity.
            chunk.terms.shrink_to_fit();
        }
        self.len += 1;
        copied
    }

    /// True if `other` holds the very same chunk allocations.
    pub fn shares_chunks_with(&self, other: &RowStore) -> bool {
        self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

impl Index<usize> for RowStore {
    type Output = [TermId];

    fn index(&self, i: usize) -> &[TermId] {
        self.chunks[i / CHUNK_ROWS].row(i % CHUNK_ROWS)
    }
}

impl<'a> IntoIterator for &'a RowStore {
    type Item = &'a [TermId];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Iterator over a [`RowStore`]'s rows, in order.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    chunks: &'a [Arc<Chunk>],
    chunk: usize,
    row: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.remaining == 0 {
            return None;
        }
        let row = self.chunks.get(self.chunk)?.row(self.row);
        self.remaining -= 1;
        self.row += 1;
        if self.row == CHUNK_ROWS {
            self.chunk += 1;
            self.row = 0;
        }
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl FusedIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn store_of<R: AsRef<[TermId]>>(rows: impl IntoIterator<Item = R>) -> RowStore {
        let mut store = RowStore::new();
        for row in rows {
            store.push(row.as_ref());
        }
        store
    }

    /// A random row of up to `max_len` terms.
    fn random_row(rng: &mut TestRng, max_len: u64) -> Vec<TermId> {
        (0..rng.below(max_len + 1))
            .map(|_| TermId(rng.below(1000) as u32))
            .collect()
    }

    fn assert_matches(store: &RowStore, model: &[Vec<TermId>]) {
        assert_eq!(store.len(), model.len());
        assert_eq!(store.is_empty(), model.is_empty());
        let iter = store.iter();
        assert_eq!(iter.len(), model.len());
        assert!(iter.eq(model.iter().map(Vec::as_slice)));
        for (i, row) in model.iter().enumerate() {
            assert_eq!(&store[i], row.as_slice(), "row {i}");
            assert_eq!(store.get(i), Some(row.as_slice()), "row {i}");
        }
        assert_eq!(store.get(model.len()), None);
        for start in [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            model.len(),
            model.len() + 3,
        ] {
            let tail = store.iter_from(start);
            let want = model.get(start..).unwrap_or(&[]);
            assert_eq!(tail.len(), want.len(), "iter_from({start})");
            assert!(
                tail.eq(want.iter().map(Vec::as_slice)),
                "iter_from({start})"
            );
        }
    }

    /// Random pushes across chunk boundaries read back exactly as a
    /// `Vec<Vec<TermId>>` model, through every accessor.
    #[test]
    fn pushes_match_a_vec_model_across_chunk_boundaries() {
        let mut rng = TestRng::deterministic("pushes_match_a_vec_model_across_chunk_boundaries");
        for _ in 0..8 {
            let mut store = RowStore::new();
            let mut model: Vec<Vec<TermId>> = Vec::new();
            let n = rng.below(4 * CHUNK_ROWS as u64);
            for _ in 0..n {
                let row = random_row(&mut rng, 12);
                assert_eq!(store.push(&row), 0, "an unshared store copies nothing");
                model.push(row);
                if rng.below(97) == 0 {
                    assert_matches(&store, &model);
                }
            }
            assert_matches(&store, &model);
        }
        // Exactly full chunks, and one row past them.
        let mut store = RowStore::new();
        let mut model = Vec::new();
        for i in 0..2 * CHUNK_ROWS {
            let row = vec![TermId(i as u32)];
            store.push(&row);
            model.push(row);
        }
        assert_matches(&store, &model);
        store.push(&[]);
        model.push(Vec::new());
        assert_matches(&store, &model);
    }

    /// A clone taken before further pushes keeps its rows, and each
    /// push copies at most the open chunk once.
    #[test]
    fn clones_are_isolated_from_later_pushes() {
        let mut rng = TestRng::deterministic("clones_are_isolated_from_later_pushes");
        let mut store = RowStore::new();
        let mut model: Vec<Vec<TermId>> = Vec::new();
        let mut clones: Vec<(RowStore, Vec<Vec<TermId>>)> = Vec::new();
        for _ in 0..20 {
            clones.push((store.clone(), model.clone()));
            let open = store.len() % CHUNK_ROWS;
            let mut copied = 0;
            for _ in 0..rng.below(3 * CHUNK_ROWS as u64 / 2) {
                let row = random_row(&mut rng, 6);
                copied += store.push(&row);
                model.push(row);
            }
            // Only the first push after the clone copies, and only the
            // open chunk's rows.
            assert!(copied == 0 || copied == open, "{copied} vs {open}");
            assert!(copied < CHUNK_ROWS);
        }
        assert_matches(&store, &model);
        for (clone, rows) in &clones {
            assert_matches(clone, rows);
        }
        // A clone that pushes does not disturb the original either.
        let (mut clone, mut rows) = clones.pop().unwrap();
        clone.push(&[TermId(7)]);
        rows.push(vec![TermId(7)]);
        assert_matches(&clone, &rows);
        assert_matches(&store, &model);
    }

    /// Sealed chunks hold no spare term capacity.
    #[test]
    fn sealed_chunks_are_exact() {
        let store = store_of((0..CHUNK_ROWS * 2 + 1).map(|i| vec![TermId(i as u32); i % 5]));
        let sealed = &store.chunks[..store.chunks.len() - 1];
        assert_eq!(sealed.len(), 2);
        for chunk in sealed {
            assert_eq!(chunk.len(), CHUNK_ROWS);
            assert_eq!(chunk.terms.capacity(), chunk.terms.len());
            assert_eq!(chunk.offsets.capacity(), chunk.offsets.len());
        }
    }
}
